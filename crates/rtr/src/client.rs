//! The router side of rpki-rtr: maintains a synchronized VRP set.
//!
//! The state machine mirrors RFC 8210 §8's router behaviour: start with a
//! Reset Query, then keep up with Serial Queries; fall back to reset when
//! the cache sends Cache Reset or changes sessions; reject protocol
//! violations (withdrawals of unknown records, duplicate announcements)
//! with the RFC's error codes.
//!
//! The client also tracks the RFC 8210 §6 data-freshness timers: every
//! End of Data stamps the synchronization time on the client's
//! [`Clock`] and records the cache's advertised Refresh/Retry/Expire
//! parameters. [`RouterClient::freshness`] grades the held set against
//! those intervals ([`Freshness`]), and [`RouterClient::flush_expired`]
//! implements the §6 mandate that data past the Expire interval must
//! stop being used. Recovery hooks — [`RouterClient::abort_response`]
//! for a transport that died mid-response,
//! [`RouterClient::force_reset`] for the fall-back-to-Reset-Query
//! policy, [`RouterClient::renegotiate`] for a fresh connection — give
//! drivers (the in-memory session and fault-injection lab in the
//! `testkit` crate) the exact RFC-shaped moves without reaching into the
//! state machine.
//!
//! # The table
//!
//! Applying Prefix PDUs to the held set is most of what a router does
//! with a response, so the set is a [`VrpSet`]: per address family, a
//! hash set of packed 12- or 24-byte keys, one probe per PDU. A delta is
//! applied to it PDU by PDU; a Reset response is staged as arrays of the
//! same keys, while [`RouterClient::vrps`] still holds the old set, and
//! at End of Data refills the held tables in place, in memory the router
//! already holds when the new set fits (the rule, and why it needs no
//! particular served order, is in [`crate::vrp_set`]). Either way a
//! Duplicate Announcement or Withdrawal of Unknown is returned by the
//! `handle` call that carries the offending PDU. The `iter()` of
//! [`RouterClient::vrps`] sorts the keys and yields `Vrp`s **by value**,
//! in `Vrp` order; the set compares with `==` against a `BTreeSet<Vrp>`.
//! Measured numbers are in the README's "RTR stack" section.

use std::fmt;
use std::time::Duration;

use rpki_roa::Vrp;

use crate::clock::Clock;
use crate::pdu::{ErrorCode, Flags, Pdu, Timing, PROTOCOL_V0, PROTOCOL_V1};
use crate::transport::{Transport, TransportError};
use crate::vrp_set::{ResetStaging, VrpSet};
use crate::wire::PduRef;

/// Query/response rounds one synchronization attempt may spend: the
/// deepest legitimate chain is downgrade → Cache Reset → full rebuild,
/// plus one round of slack for a fault that decodes as another reset.
/// Shared by [`RouterClient::synchronize`] and the in-memory session
/// driver of the `testkit` lab.
pub const SYNC_ROUNDS: usize = 4;

/// Synchronization state of the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientState {
    /// No data yet; must send a Reset Query.
    Unsynchronized,
    /// Inside a cache response, accumulating prefix PDUs.
    Receiving {
        /// `true` if this response answers a Reset Query (the set is being
        /// rebuilt from scratch).
        reset: bool,
    },
    /// Holding a complete set at the recorded serial.
    Synchronized,
}

/// Protocol errors the router detects.
#[derive(Debug)]
pub enum ClientError {
    /// The cache sent a PDU that is invalid in the current state.
    Unexpected {
        /// The offending PDU's type code.
        type_code: u8,
        /// The state we were in.
        state: ClientState,
    },
    /// A withdrawal for a VRP we do not hold (RFC 8210 error 6).
    WithdrawalOfUnknown(Vrp),
    /// An announcement for a VRP we already hold (RFC 8210 error 7).
    DuplicateAnnouncement(Vrp),
    /// The cache reported an error and ended the session.
    CacheError(ErrorCode, String),
    /// Transport failure.
    Transport(TransportError),
    /// The cache answered every query of the round budget with a Cache
    /// Reset, so no response ever reached End of Data.
    Incomplete {
        /// Queries sent before giving up.
        rounds: usize,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Unexpected { type_code, state } => {
                write!(f, "unexpected PDU type {type_code} in state {state:?}")
            }
            ClientError::WithdrawalOfUnknown(v) => {
                write!(f, "withdrawal of unknown record {v}")
            }
            ClientError::DuplicateAnnouncement(v) => {
                write!(f, "duplicate announcement {v}")
            }
            ClientError::CacheError(code, text) => {
                write!(f, "cache reported {code:?}: {text}")
            }
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Incomplete { rounds } => {
                write!(f, "cache reset all {rounds} synchronization round(s)")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> Self {
        ClientError::Transport(e)
    }
}

impl ClientError {
    /// The RFC 8210 error code the router should report back.
    pub fn error_code(&self) -> ErrorCode {
        match self {
            ClientError::WithdrawalOfUnknown(_) => ErrorCode::WithdrawalOfUnknown,
            ClientError::DuplicateAnnouncement(_) => ErrorCode::DuplicateAnnouncement,
            _ => ErrorCode::CorruptData,
        }
    }
}

/// How fresh the router's held VRP set is, graded against the cache's
/// advertised RFC 8210 §6 intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// Synchronized within the Refresh interval: the data is current.
    Fresh,
    /// The Refresh interval has passed without a successful update; the
    /// data is usable but aging (`age` = time since the last End of
    /// Data).
    Stale {
        /// Time since the last successful synchronization.
        age: Duration,
    },
    /// The Expire interval has passed (or the router never
    /// synchronized): the data must not be used for validation.
    Expired,
}

/// The router-side state machine.
#[derive(Debug, Clone)]
pub struct RouterClient {
    state: ClientState,
    session_id: Option<u16>,
    serial: u32,
    vrps: VrpSet,
    /// Working set while receiving a reset response.
    staging: ResetStaging,
    /// The protocol version this router speaks on the wire. Transports
    /// consult this when encoding queries; see [`RouterClient::downgrade_to`].
    version: u8,
    /// The version the router opens fresh connections with; a downgrade
    /// lowers `version` for the current connection only, and
    /// [`RouterClient::renegotiate`] restores this on the next one.
    preferred_version: u8,
    /// The timers behind [`RouterClient::freshness`].
    clock: Clock,
    /// When the last End of Data was processed, on `clock`'s timeline.
    synced_at: Option<Duration>,
    /// The cache's advertised Refresh/Retry/Expire intervals, from the
    /// last v1 End of Data (RFC 8210 defaults until then, which is also
    /// what a v0 session runs on).
    timing: Timing,
}

impl Default for RouterClient {
    fn default() -> Self {
        RouterClient::new()
    }
}

impl RouterClient {
    /// A fresh, unsynchronized router speaking protocol version 1.
    pub fn new() -> RouterClient {
        RouterClient::with_version(PROTOCOL_V1)
    }

    /// A fresh router speaking exactly `version` on the wire.
    ///
    /// # Panics
    ///
    /// Panics on unknown versions.
    pub fn with_version(version: u8) -> RouterClient {
        assert!(
            version == PROTOCOL_V0 || version == PROTOCOL_V1,
            "unknown protocol version {version}"
        );
        RouterClient {
            state: ClientState::Unsynchronized,
            session_id: None,
            serial: 0,
            vrps: VrpSet::new(),
            staging: ResetStaging::default(),
            version,
            preferred_version: version,
            clock: Clock::system(),
            synced_at: None,
            timing: Timing::default(),
        }
    }

    /// Replaces the clock the freshness timers run on. Tests install a
    /// [`Clock::manual`] here so Refresh/Expire transitions are driven
    /// explicitly instead of by wall time.
    ///
    /// A test hook: `testkit::session` gives the router the session's
    /// manual clock through it.
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
    }

    /// The clock the freshness timers run on.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The protocol version this router speaks.
    pub fn version(&self) -> u8 {
        self.version
    }

    /// The version this router opens fresh connections with (unchanged
    /// by per-connection downgrades).
    pub fn preferred_version(&self) -> u8 {
        self.preferred_version
    }

    /// Downgrades to a lower protocol version after the cache rejected
    /// ours with the recoverable Unsupported-Version error (RFC 8210
    /// §7). A version change starts a new session, so the router drops
    /// back to unsynchronized; the caller reconnects and resets. There
    /// is no auto-retry here — over a real transport the cache has
    /// already closed the connection, which only the owner of the
    /// connection can re-open.
    ///
    /// # Panics
    ///
    /// Panics on unknown versions and on upgrades.
    ///
    /// A test hook: `testkit::session` calls it on a version error.
    pub fn downgrade_to(&mut self, version: u8) {
        assert!(
            version == PROTOCOL_V0 || version == PROTOCOL_V1,
            "unknown protocol version {version}"
        );
        assert!(
            version <= self.version,
            "cannot upgrade a session from {} to {version}",
            self.version
        );
        self.version = version;
        self.reset();
    }

    /// Starts version negotiation from scratch for a fresh connection:
    /// a router that downgraded on its previous connection must re-open
    /// at its preferred version, not inherit the downgrade (RFC 8210
    /// §7 — the negotiated version is per-connection state). If the
    /// version changes, the session restarts (a version change is a new
    /// session); otherwise the synchronized state is kept so the new
    /// connection can resume with a Serial Query.
    ///
    /// A test hook: `testkit::session` and `tests/pipeline.rs` call it
    /// before reconnecting.
    pub fn renegotiate(&mut self) {
        if self.version != self.preferred_version {
            self.version = self.preferred_version;
            self.reset();
        }
    }

    /// The current state.
    pub fn state(&self) -> ClientState {
        self.state
    }

    /// Grades the held data against the cache's Refresh/Expire
    /// intervals (RFC 8210 §6): [`Freshness::Fresh`] within Refresh of
    /// the last End of Data, [`Freshness::Stale`] between Refresh and
    /// Expire, [`Freshness::Expired`] past Expire — or if the router
    /// never synchronized at all.
    pub fn freshness(&self) -> Freshness {
        let Some(synced_at) = self.synced_at else {
            return Freshness::Expired;
        };
        let age = self.clock.now().saturating_sub(synced_at);
        if age <= Duration::from_secs(u64::from(self.timing.refresh)) {
            Freshness::Fresh
        } else if age <= Duration::from_secs(u64::from(self.timing.expire)) {
            Freshness::Stale { age }
        } else {
            Freshness::Expired
        }
    }

    /// The cache's advertised timing parameters from the last End of
    /// Data (RFC 8210 defaults until one arrives).
    pub fn timing(&self) -> Timing {
        self.timing
    }

    /// Enforces the Expire mandate (RFC 8210 §6): once the held data is
    /// [`Freshness::Expired`], it must stop being used — the set is
    /// flushed and the session restarts from a Reset Query. Returns
    /// `true` if data was flushed.
    ///
    /// A test hook: `testkit::faults`' chaos sessions call it between
    /// rounds.
    pub fn flush_expired(&mut self) -> bool {
        if self.freshness() != Freshness::Expired || self.vrps.is_empty() {
            return false;
        }
        self.vrps.clear();
        self.serial = 0;
        self.reset();
        true
    }

    /// Abandons a response the transport failed to deliver to
    /// completion. A serial (delta) response applies to the live set as
    /// it arrives, so a connection that dies mid-delta leaves the set
    /// half-mutated at the old serial; resuming with a Serial Query
    /// from there would double-apply the delta. The only safe recovery
    /// is a full resynchronization — drop to unsynchronized so the next
    /// query is a Reset Query and the rebuilt set replaces the tainted
    /// one atomically. A failure outside a response is harmless and
    /// changes nothing.
    ///
    /// A test hook: `testkit::session`, `tests/pipeline.rs` and
    /// `tests/vrp_set_props.rs` call it when a response is cut off.
    pub fn abort_response(&mut self) {
        if matches!(self.state, ClientState::Receiving { .. }) {
            self.reset();
        }
    }

    /// Forces the next query to be a Reset Query, keeping the held data
    /// until the fresh set arrives (graceful restart). This is the
    /// fall-back a router takes after repeated serial-query failures:
    /// stop trying to catch up incrementally, rebuild from the
    /// snapshot.
    pub fn force_reset(&mut self) {
        self.reset();
    }

    /// The serial the router is synchronized to.
    pub fn serial(&self) -> u32 {
        self.serial
    }

    /// The synchronized VRP set.
    pub fn vrps(&self) -> &VrpSet {
        &self.vrps
    }

    /// The query PDU appropriate to the current state: Reset Query when
    /// unsynchronized, Serial Query otherwise.
    pub fn query(&self) -> Pdu {
        match (self.state, self.session_id) {
            (ClientState::Synchronized, Some(session_id)) => Pdu::SerialQuery {
                session_id,
                serial: self.serial,
            },
            _ => Pdu::ResetQuery,
        }
    }

    /// Feeds one PDU from the cache. Returns `true` when a response
    /// completed (End of Data processed).
    pub fn handle(&mut self, pdu: &Pdu) -> Result<bool, ClientError> {
        self.handle_wire(pdu.as_wire())
    }

    /// [`RouterClient::handle`] on a PDU still borrowed from its buffer.
    pub fn handle_wire(&mut self, pdu: PduRef<'_>) -> Result<bool, ClientError> {
        let unexpected = |state| ClientError::Unexpected {
            type_code: pdu.type_code(),
            state,
        };
        match (self.state, &pdu) {
            // A notify can arrive at any time; it does not change state —
            // the caller reacts by sending `query()`.
            (_, PduRef::SerialNotify { .. }) => Ok(false),

            (ClientState::Unsynchronized, PduRef::CacheResponse { session_id }) => {
                self.session_id = Some(*session_id);
                self.staging = ResetStaging::default();
                self.state = ClientState::Receiving { reset: true };
                Ok(false)
            }
            (ClientState::Synchronized, PduRef::CacheResponse { session_id }) => {
                if Some(*session_id) != self.session_id {
                    // Session changed: our data is void; restart.
                    self.reset();
                    return Err(unexpected(ClientState::Synchronized));
                }
                self.state = ClientState::Receiving { reset: false };
                Ok(false)
            }
            (ClientState::Receiving { reset }, PduRef::Prefix { flags, vrp }) => {
                let applied = match (reset, flags) {
                    (true, Flags::Announce) => self.staging.announce(*vrp),
                    (true, Flags::Withdraw) => self.staging.spill().remove(vrp),
                    (false, Flags::Announce) => self.vrps.insert(*vrp),
                    (false, Flags::Withdraw) => self.vrps.remove(vrp),
                };
                match (applied, flags) {
                    (true, _) => Ok(false),
                    (false, Flags::Announce) => Err(ClientError::DuplicateAnnouncement(*vrp)),
                    (false, Flags::Withdraw) => Err(ClientError::WithdrawalOfUnknown(*vrp)),
                }
            }
            (
                ClientState::Receiving { reset },
                PduRef::EndOfData {
                    session_id,
                    serial,
                    timing,
                },
            ) => {
                if Some(*session_id) != self.session_id {
                    self.reset();
                    return Err(unexpected(ClientState::Receiving { reset }));
                }
                if reset {
                    self.staging.finish_into(&mut self.vrps);
                }
                self.serial = *serial;
                self.state = ClientState::Synchronized;
                // The End of Data is the §6 synchronization point: the
                // freshness timers restart here, on the cache's (v1)
                // advertised intervals.
                self.timing = *timing;
                self.synced_at = Some(self.clock.now());
                Ok(true)
            }
            (_, PduRef::CacheReset) => {
                self.reset();
                Ok(false)
            }
            (_, PduRef::ErrorReport { code, text, .. }) => {
                Err(ClientError::CacheError(*code, (*text).to_owned()))
            }
            (state, _) => Err(unexpected(state)),
        }
    }

    fn reset(&mut self) {
        self.state = ClientState::Unsynchronized;
        self.session_id = None;
        self.staging = ResetStaging::default();
    }

    /// Runs one full synchronization over a blocking transport: sends
    /// the appropriate query and processes the response to completion,
    /// following a Cache Reset with a Reset Query. A cache that keeps
    /// answering Cache Reset exhausts the round budget and yields
    /// [`ClientError::Incomplete`]; the router never waits on a cache
    /// that owes it nothing.
    pub fn synchronize<T: Transport>(&mut self, transport: &mut T) -> Result<(), ClientError> {
        for _round in 0..SYNC_ROUNDS {
            transport.send(&self.query())?;
            loop {
                let (done, reset) = transport
                    .recv_with(|pdu| (self.handle_wire(pdu), pdu == PduRef::CacheReset))?;
                if done? {
                    return Ok(());
                }
                if reset {
                    break; // `handle_wire` dropped to unsynchronized: re-query
                }
            }
        }
        Err(ClientError::Incomplete {
            rounds: SYNC_ROUNDS,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdu::Timing;

    fn vrp(s: &str) -> Vrp {
        s.parse().unwrap()
    }

    fn announce(v: &str) -> Pdu {
        Pdu::Prefix {
            flags: Flags::Announce,
            vrp: vrp(v),
        }
    }

    fn withdraw(v: &str) -> Pdu {
        Pdu::Prefix {
            flags: Flags::Withdraw,
            vrp: vrp(v),
        }
    }

    fn eod(session_id: u16, serial: u32) -> Pdu {
        Pdu::EndOfData {
            session_id,
            serial,
            timing: Timing::default(),
        }
    }

    #[test]
    fn initial_query_is_reset() {
        let c = RouterClient::new();
        assert_eq!(c.query(), Pdu::ResetQuery);
        assert_eq!(c.state(), ClientState::Unsynchronized);
    }

    #[test]
    fn full_sync_flow() {
        let mut c = RouterClient::new();
        assert!(!c.handle(&Pdu::CacheResponse { session_id: 7 }).unwrap());
        assert!(!c.handle(&announce("10.0.0.0/8 => AS1")).unwrap());
        assert!(!c.handle(&announce("11.0.0.0/8 => AS2")).unwrap());
        assert!(c.handle(&eod(7, 3)).unwrap());
        assert_eq!(c.state(), ClientState::Synchronized);
        assert_eq!(c.serial(), 3);
        assert_eq!(c.vrps().len(), 2);
        // Next query is a serial query echoing the session.
        assert_eq!(
            c.query(),
            Pdu::SerialQuery {
                session_id: 7,
                serial: 3
            }
        );
    }

    fn synced() -> RouterClient {
        let mut c = RouterClient::new();
        c.handle(&Pdu::CacheResponse { session_id: 7 }).unwrap();
        c.handle(&announce("10.0.0.0/8 => AS1")).unwrap();
        c.handle(&eod(7, 1)).unwrap();
        c
    }

    #[test]
    fn delta_applies_announce_and_withdraw() {
        let mut c = synced();
        c.handle(&Pdu::CacheResponse { session_id: 7 }).unwrap();
        c.handle(&announce("12.0.0.0/8 => AS3")).unwrap();
        c.handle(&withdraw("10.0.0.0/8 => AS1")).unwrap();
        assert!(c.handle(&eod(7, 2)).unwrap());
        assert_eq!(c.serial(), 2);
        let vrps: Vec<String> = c.vrps().iter().map(|v| v.to_string()).collect();
        assert_eq!(vrps, vec!["12.0.0.0/8 => AS3"]);
    }

    #[test]
    fn withdrawal_of_unknown_is_error() {
        let mut c = synced();
        c.handle(&Pdu::CacheResponse { session_id: 7 }).unwrap();
        let err = c.handle(&withdraw("99.0.0.0/8 => AS9")).unwrap_err();
        assert!(matches!(err, ClientError::WithdrawalOfUnknown(_)));
        assert_eq!(err.error_code(), ErrorCode::WithdrawalOfUnknown);
    }

    #[test]
    fn duplicate_announcement_is_error() {
        let mut c = synced();
        c.handle(&Pdu::CacheResponse { session_id: 7 }).unwrap();
        let err = c.handle(&announce("10.0.0.0/8 => AS1")).unwrap_err();
        assert!(matches!(err, ClientError::DuplicateAnnouncement(_)));
        assert_eq!(err.error_code(), ErrorCode::DuplicateAnnouncement);
    }

    #[test]
    fn duplicate_in_reset_response_is_error() {
        let mut c = RouterClient::new();
        c.handle(&Pdu::CacheResponse { session_id: 7 }).unwrap();
        c.handle(&announce("10.0.0.0/8 => AS1")).unwrap();
        assert!(c.handle(&announce("10.0.0.0/8 => AS1")).is_err());
    }

    #[test]
    fn cache_reset_unsynchronizes() {
        let mut c = synced();
        c.handle(&Pdu::CacheReset).unwrap();
        assert_eq!(c.state(), ClientState::Unsynchronized);
        assert_eq!(c.query(), Pdu::ResetQuery);
        // Old data retained until the new set arrives (graceful restart).
        assert_eq!(c.vrps().len(), 1);
    }

    #[test]
    fn session_change_detected() {
        let mut c = synced();
        let err = c.handle(&Pdu::CacheResponse { session_id: 8 }).unwrap_err();
        assert!(matches!(err, ClientError::Unexpected { .. }));
        assert_eq!(c.state(), ClientState::Unsynchronized);
    }

    #[test]
    fn reset_response_replaces_set_atomically() {
        let mut c = synced();
        // Force back to unsynchronized, then deliver a fresh full set.
        c.handle(&Pdu::CacheReset).unwrap();
        c.handle(&Pdu::CacheResponse { session_id: 9 }).unwrap();
        c.handle(&announce("20.0.0.0/8 => AS5")).unwrap();
        // Old data still visible mid-transfer.
        assert!(c.vrps().contains(&vrp("10.0.0.0/8 => AS1")));
        c.handle(&eod(9, 0)).unwrap();
        // Atomically swapped.
        assert_eq!(c.vrps().len(), 1);
        assert!(c.vrps().contains(&vrp("20.0.0.0/8 => AS5")));
    }

    #[test]
    fn error_report_surfaces() {
        let mut c = RouterClient::new();
        let err = c
            .handle(&Pdu::ErrorReport {
                code: ErrorCode::NoDataAvailable,
                pdu: Vec::new(),
                text: "try later".into(),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ClientError::CacheError(ErrorCode::NoDataAvailable, _)
        ));
    }

    #[test]
    fn notify_is_noop_in_any_state() {
        let mut c = RouterClient::new();
        assert!(!c
            .handle(&Pdu::SerialNotify {
                session_id: 1,
                serial: 5
            })
            .unwrap());
        let mut c = synced();
        assert!(!c
            .handle(&Pdu::SerialNotify {
                session_id: 7,
                serial: 9
            })
            .unwrap());
        assert_eq!(c.state(), ClientState::Synchronized);
    }

    #[test]
    fn prefix_outside_response_is_unexpected() {
        let mut c = synced();
        let err = c.handle(&announce("10.0.0.0/8 => AS1")).unwrap_err();
        assert!(matches!(err, ClientError::Unexpected { type_code: 4, .. }));
    }

    #[test]
    fn downgrade_drops_to_unsynchronized() {
        let mut c = synced();
        assert_eq!(c.version(), PROTOCOL_V1);
        c.downgrade_to(PROTOCOL_V0);
        assert_eq!(c.version(), PROTOCOL_V0);
        assert_eq!(c.state(), ClientState::Unsynchronized);
        assert_eq!(c.query(), Pdu::ResetQuery);
        // Old data retained until the downgraded session delivers.
        assert_eq!(c.vrps().len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot upgrade")]
    fn upgrade_is_rejected() {
        let mut c = RouterClient::with_version(PROTOCOL_V0);
        c.downgrade_to(PROTOCOL_V1);
    }

    #[test]
    fn renegotiate_restores_preferred_version() {
        let mut c = synced();
        c.downgrade_to(PROTOCOL_V0);
        assert_eq!(c.version(), PROTOCOL_V0);
        assert_eq!(c.preferred_version(), PROTOCOL_V1);
        // A fresh connection negotiates from scratch: back to v1, and
        // the downgraded session's state is void.
        c.renegotiate();
        assert_eq!(c.version(), PROTOCOL_V1);
        assert_eq!(c.state(), ClientState::Unsynchronized);
    }

    #[test]
    fn renegotiate_at_preferred_version_resumes() {
        let mut c = synced();
        c.renegotiate();
        // No version change: the new connection may resume with a
        // Serial Query (serial/session survive reconnects, RFC 8210 §5.3).
        assert_eq!(c.state(), ClientState::Synchronized);
        assert!(matches!(c.query(), Pdu::SerialQuery { .. }));
    }

    fn manual_synced(timing: Timing) -> (RouterClient, Clock) {
        let clock = Clock::manual();
        let mut c = RouterClient::new();
        c.set_clock(clock.clone());
        c.handle(&Pdu::CacheResponse { session_id: 7 }).unwrap();
        c.handle(&announce("10.0.0.0/8 => AS1")).unwrap();
        c.handle(&Pdu::EndOfData {
            session_id: 7,
            serial: 1,
            timing,
        })
        .unwrap();
        (c, clock)
    }

    #[test]
    fn freshness_follows_the_advertised_intervals() {
        let timing = Timing {
            refresh: 10,
            retry: 2,
            expire: 30,
        };
        let (c, clock) = manual_synced(timing);
        assert_eq!(c.timing(), timing);
        assert_eq!(c.freshness(), Freshness::Fresh);
        clock.advance(Duration::from_secs(10));
        assert_eq!(c.freshness(), Freshness::Fresh, "refresh edge inclusive");
        clock.advance(Duration::from_secs(1));
        assert_eq!(
            c.freshness(),
            Freshness::Stale {
                age: Duration::from_secs(11)
            }
        );
        clock.advance(Duration::from_secs(20));
        assert_eq!(c.freshness(), Freshness::Expired);
    }

    #[test]
    fn never_synchronized_is_expired() {
        assert_eq!(RouterClient::new().freshness(), Freshness::Expired);
    }

    #[test]
    fn resync_restarts_the_freshness_timers() {
        let timing = Timing {
            refresh: 10,
            retry: 2,
            expire: 30,
        };
        let (mut c, clock) = manual_synced(timing);
        clock.advance(Duration::from_secs(15));
        assert!(matches!(c.freshness(), Freshness::Stale { .. }));
        c.handle(&Pdu::CacheResponse { session_id: 7 }).unwrap();
        c.handle(&Pdu::EndOfData {
            session_id: 7,
            serial: 2,
            timing,
        })
        .unwrap();
        assert_eq!(c.freshness(), Freshness::Fresh);
        assert_eq!(c.synced_at, Some(Duration::from_secs(15)));
    }

    #[test]
    fn flush_expired_drops_data_and_resets() {
        let (mut c, clock) = manual_synced(Timing {
            refresh: 4,
            retry: 1,
            expire: 12,
        });
        assert!(!c.flush_expired(), "fresh data must not be flushed");
        clock.advance(Duration::from_secs(13));
        assert_eq!(c.freshness(), Freshness::Expired);
        assert!(c.flush_expired());
        assert!(c.vrps().is_empty(), "expired data must stop being used");
        assert_eq!(c.state(), ClientState::Unsynchronized);
        assert_eq!(c.query(), Pdu::ResetQuery);
        assert!(!c.flush_expired(), "nothing left to flush");
    }

    #[test]
    fn abort_response_mid_delta_forces_full_resync() {
        let mut c = synced();
        c.handle(&Pdu::CacheResponse { session_id: 7 }).unwrap();
        c.handle(&announce("12.0.0.0/8 => AS3")).unwrap();
        // The connection dies before End of Data: the live set holds
        // half a delta. Resuming by serial would double-apply it.
        c.abort_response();
        assert_eq!(c.state(), ClientState::Unsynchronized);
        assert_eq!(c.query(), Pdu::ResetQuery);
        // The tainted set is still visible (graceful restart) until the
        // reset response swaps in a clean one.
        assert_eq!(c.vrps().len(), 2);
        c.handle(&Pdu::CacheResponse { session_id: 9 }).unwrap();
        c.handle(&announce("10.0.0.0/8 => AS1")).unwrap();
        c.handle(&eod(9, 5)).unwrap();
        assert_eq!(c.vrps().len(), 1, "rebuild replaces the tainted set");
    }

    #[test]
    fn abort_response_outside_a_response_is_a_noop() {
        let mut c = synced();
        c.abort_response();
        assert_eq!(c.state(), ClientState::Synchronized);
        assert!(matches!(c.query(), Pdu::SerialQuery { .. }));
    }

    #[test]
    fn force_reset_falls_back_to_reset_query() {
        let mut c = synced();
        c.force_reset();
        assert_eq!(c.query(), Pdu::ResetQuery);
        assert_eq!(c.vrps().len(), 1, "data kept until the rebuild lands");
    }

    /// A cache that answers each query with the next scripted response.
    /// Reading past a response is the router waiting on a cache that has
    /// nothing more to say — over TCP that blocks forever; here it panics.
    struct Scripted {
        responses: std::collections::VecDeque<Vec<Pdu>>,
        pending: std::collections::VecDeque<Pdu>,
        queries: Vec<Pdu>,
    }

    impl Scripted {
        fn new(responses: impl IntoIterator<Item = Vec<Pdu>>) -> Scripted {
            Scripted {
                responses: responses.into_iter().collect(),
                pending: Default::default(),
                queries: Vec::new(),
            }
        }
    }

    impl Transport for Scripted {
        fn send(&mut self, pdu: &Pdu) -> Result<(), TransportError> {
            self.queries.push(pdu.clone());
            self.pending
                .extend(self.responses.pop_front().unwrap_or_default());
            Ok(())
        }

        fn recv_with<R>(&mut self, f: impl FnOnce(PduRef<'_>) -> R) -> Result<R, TransportError> {
            let pdu = self
                .pending
                .pop_front()
                .expect("synchronize would block on a silent cache");
            Ok(f(pdu.as_wire()))
        }
    }

    #[test]
    fn synchronize_follows_one_cache_reset_with_a_reset_query() {
        let mut c = synced();
        let mut cache = Scripted::new([
            vec![Pdu::CacheReset],
            vec![
                Pdu::CacheResponse { session_id: 9 },
                announce("20.0.0.0/8 => AS5"),
                eod(9, 4),
            ],
        ]);
        c.synchronize(&mut cache).unwrap();
        assert_eq!(
            cache.queries,
            vec![
                Pdu::SerialQuery {
                    session_id: 7,
                    serial: 1
                },
                Pdu::ResetQuery
            ]
        );
        assert_eq!((c.serial(), c.vrps().len()), (4, 1));
        assert!(c.vrps().contains(&vrp("20.0.0.0/8 => AS5")));
    }

    #[test]
    fn synchronize_gives_up_on_a_cache_that_only_resets() {
        let mut c = synced();
        let mut cache = Scripted::new(std::iter::repeat_n(vec![Pdu::CacheReset], 100));
        let err = c.synchronize(&mut cache).unwrap_err();
        assert!(
            matches!(err, ClientError::Incomplete { rounds } if rounds == SYNC_ROUNDS),
            "{err}"
        );
        assert_eq!(cache.queries.len(), SYNC_ROUNDS);
        assert!(cache.queries[1..].iter().all(|q| *q == Pdu::ResetQuery));
        assert!(cache.pending.is_empty(), "no read past the last response");
        // The held data survives for the next attempt (graceful restart).
        assert_eq!(c.state(), ClientState::Unsynchronized);
        assert_eq!(c.vrps().len(), 1);
    }
}
