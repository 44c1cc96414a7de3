//! The RPKI-to-Router protocol (RFC 6810 / RFC 8210).
//!
//! Figure 1 of the paper: the trusted local cache validates ROAs, turns
//! them into `(prefix, maxLength, origin AS)` PDUs, and ships the PDU list
//! to the AS's routers over the rpki-rtr protocol. The **number of PDUs on
//! this channel is the paper's router-load metric** — `compress_roas`
//! exists precisely to shrink it — so this crate implements the channel
//! itself, letting examples and tests measure end-to-end exactly what the
//! paper counts.
//!
//! The protocol logic is *sans-io* — state machines that map bytes to
//! bytes — with one way to do each job:
//!
//! * [`wire`] — the wire layer: strict zero-copy decoding of every PDU
//!   type of RFC 8210 (minus router keys) over the shared byte cursor,
//!   the recoverable/fatal error taxonomy, and v0/v1 version
//!   negotiation.
//! * [`pdu`] — the owned [`Pdu`] value the state machines and their
//!   callers traffic in; it reaches the wire only as a borrowed
//!   [`PduRef`] ([`Pdu::as_wire`]), so [`wire`] stays the one codec.
//! * [`cache`] — the cache-server state machine: versioned VRP sets,
//!   serial numbers, delta computation, query handling.
//! * [`server`] — the cache-side service: a sans-io fan-out core
//!   ([`FanoutServer`]: bytes in through `receive`, bytes out through
//!   `drain_output`) sharing each epoch's serialized responses across
//!   every session, under a non-blocking TCP event loop
//!   ([`TcpCacheServer`]; no async runtime — one thread multiplexes
//!   the fleet).
//! * [`client`] — the router-side state machine: session tracking,
//!   serial/reset synchronization, applying announce/withdraw deltas,
//!   the RFC 8210 §6 freshness timers.
//! * [`vrp_set`] — the router's table ([`VrpSet`]): seeded hash sets of
//!   packed 12/24-byte keys, and the arrays a Reset response is staged in.
//! * [`transport`] — the blocking pipe a router dials a cache with
//!   ([`transport::TcpTransport`]), lending each PDU from its buffer.
//! * [`session`] — the one in-memory session driver ([`LiveSession`]):
//!   a cache ↔ router pair joined by byte pipes through the fan-out
//!   core, following Cache Resets and version downgrades, counting
//!   what crossed the wire.
//! * [`faults`] — seeded, replayable fault injection ([`FaultPlan`],
//!   spliced into the in-memory session's pipes) and the recovery loop
//!   around the same driver ([`ChaosSession`]): capped backoff, Reset
//!   Query fallback, stale flushing, and the convergence-or-Stale
//!   invariant the chaos suite gates on.
//! * [`clock`] — virtual time: every RFC 8210 timer reads a [`Clock`]
//!   that tests drive manually, so timer behaviour is deterministic.
//!
//! ```
//! use rpki_rtr::LiveSession;
//! use rpki_roa::Vrp;
//!
//! let vrps: Vec<Vrp> = vec!["168.122.0.0/16 => AS111".parse().unwrap()];
//! let mut session = LiveSession::new(42, &vrps);
//!
//! // The router connects, sends a Reset Query, and synchronizes:
//! // Cache Response, one IPv4 Prefix, End of Data.
//! let stats = session.synchronize().unwrap();
//! assert_eq!((stats.announced, stats.pdus), (1, 3));
//! assert_eq!(session.router().vrps().len(), 1);
//!
//! // A churn epoch travels as Serial Notify → Serial Query → delta.
//! let stats = session.apply_epoch(&["10.0.0.0/8 => AS7".parse().unwrap()], &vrps).unwrap();
//! assert_eq!((stats.announced, stats.withdrawn), (1, 1));
//! assert_eq!(session.router().serial(), session.cache().serial());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod clock;
pub mod faults;
pub mod pdu;
pub mod server;
pub mod session;
pub mod transport;
pub mod vrp_set;
pub mod wire;

pub use cache::{CacheServer, WireOutcome};
pub use client::{Freshness, RouterClient};
pub use clock::Clock;
pub use faults::{
    Backoff, ChaosOptions, ChaosSession, FaultAction, FaultConfig, FaultPlan, RecoveryConfig,
    Settled, TraceEvent,
};
pub use pdu::{Pdu, PduError, PROTOCOL_V0, PROTOCOL_V1};
pub use server::{
    FanoutServer, FanoutStats, ServerConfig, ServerHandle, SessionId, TcpCacheServer,
};
pub use session::{LiveSession, SessionError, SyncStats};
pub use vrp_set::VrpSet;
pub use wire::{decode_frame, ErrorClass, Frame, Negotiation, PduRef};
