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
//! * [`clock`] — virtual time: every RFC 8210 timer reads a [`Clock`]
//!   that tests drive manually, so timer behaviour is deterministic.
//!
//! The channel simulator the test suites drive (an in-memory session
//! driver and a seeded fault injector) lives in the `testkit` crate, not
//! here. A router syncs against the fan-out core in a few lines: its
//! query goes in through `receive`, the response comes out through
//! `drain_output`, and each decoded frame goes to the router.
//!
//! ```
//! use rpki_roa::Vrp;
//! use rpki_rtr::{decode_frame, CacheServer, FanoutServer, RouterClient, SessionId};
//!
//! /// Feeds the router until End of Data; returns the PDUs it received.
//! fn sync(server: &mut FanoutServer, id: SessionId, router: &mut RouterClient) -> usize {
//!     let mut bytes = Vec::new();
//!     router.query().as_wire().encode_into(router.version(), &mut bytes);
//!     server.receive(id, &bytes);
//!     bytes.clear();
//!     server.drain_output(id, &mut bytes);
//!     let (mut at, mut pdus) = (0, 0);
//!     while let Some(frame) = decode_frame(&bytes[at..]).unwrap() {
//!         (at, pdus) = (at + frame.len, pdus + 1);
//!         if router.handle_wire(frame.pdu).unwrap() {
//!             break;
//!         }
//!     }
//!     pdus
//! }
//!
//! let vrps: Vec<Vrp> = vec!["168.122.0.0/16 => AS111".parse().unwrap()];
//! let mut server = FanoutServer::new(CacheServer::new(42, &vrps));
//! let id = server.open_session();
//! let mut router = RouterClient::new();
//!
//! // A Reset Query, answered by Cache Response, one IPv4 Prefix, End of Data.
//! assert_eq!(sync(&mut server, id, &mut router), 3);
//! assert_eq!(router.vrps().len(), 1);
//!
//! // A churn epoch travels as Serial Notify → Serial Query → delta.
//! server.update_delta_and_notify(&["10.0.0.0/8 => AS7".parse().unwrap()], &vrps);
//! assert_eq!(sync(&mut server, id, &mut router), 5);
//! assert_eq!(router.serial(), server.cache().serial());
//! assert!(router.vrps().contains(&"10.0.0.0/8 => AS7".parse().unwrap()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod clock;
pub mod pdu;
pub mod server;
pub mod transport;
pub mod vrp_set;
pub mod wire;

pub use cache::{CacheServer, WireOutcome};
pub use client::{Freshness, RouterClient};
pub use clock::Clock;
pub use pdu::{Pdu, PduError, PROTOCOL_V0, PROTOCOL_V1};
pub use server::{
    FanoutServer, FanoutStats, ServerConfig, ServerHandle, SessionId, TcpCacheServer,
};
pub use vrp_set::VrpSet;
pub use wire::{decode_frame, ErrorClass, Frame, Negotiation, PduRef};
