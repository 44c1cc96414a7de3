//! A live cache ↔ router session: the churn stream as real PDUs.
//!
//! The sans-io state machines in [`rpki_rtr::cache`] and
//! [`rpki_rtr::client`] are exercised here as one long-running session
//! **at the byte level**: every epoch of a churn timeline becomes a
//! [`FanoutServer::update_delta_and_notify`] call, the Serial Notify is
//! queued on the session's outbox through [`rpki_rtr::wire`], the router
//! answers with a Serial Query, and the delta response (or a Cache
//! Reset, once the router has fallen behind the cache's history window)
//! flows back — so incremental revalidation downstream consumes exactly
//! what RFC 8210 put on the wire, not a function-call shortcut.
//!
//! The cache side runs through the same [`FanoutServer`] fan-out core
//! that the concurrent TCP service uses, so a single `LiveSession` and
//! a thousand-router fleet exercise one code path; the outbox bound is
//! lifted here because the driver always drains between epochs.
//!
//! The session also exercises version negotiation end to end: both
//! endpoints carry a protocol version, and a version-capped cache
//! answering a newer router triggers the RFC 6810 downgrade — the
//! recoverable Unsupported-Version report, a reconnect one version
//! down, and a fresh synchronization (visible in
//! [`SyncStats::downgraded`]).
//!
//! [`LiveSession`] owns both endpoints plus the byte pipes, and its
//! round loop (`LiveSession::attempt`) is the lab's only one: every
//! frame passes through a [`FaultPlan`] — the quiet plan for the tests
//! that drive a `LiveSession` directly, a seeded one when
//! [`ChaosSession`](crate::faults::ChaosSession) wraps the same loop in
//! its retry/backoff policy.

use rpki_roa::Vrp;
use rpki_rtr::cache::CacheServer;
use rpki_rtr::client::{ClientError, RouterClient, SYNC_ROUNDS};
use rpki_rtr::clock::Clock;
use rpki_rtr::pdu::{Flags, PduError, PROTOCOL_V0, PROTOCOL_V1};
use rpki_rtr::server::{FanoutServer, ServerConfig, SessionId};
use rpki_rtr::wire::{self, ErrorClass, Negotiation, PduRef};

use crate::faults::{split_frames, Direction, FaultPlan, TraceEvent};

/// What one synchronization round did, counted on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Prefix PDUs carrying the announce flag.
    pub announced: usize,
    /// Prefix PDUs carrying the withdraw flag.
    pub withdrawn: usize,
    /// Total PDUs the router received this round (including notifies,
    /// Cache Response / End of Data framing, and any Cache Reset).
    pub pdus: usize,
    /// Bytes that crossed the wire this round, both directions —
    /// queries, responses, and any closing Error Report.
    pub bytes: usize,
    /// `true` if the cache answered with a Cache Reset and the router had
    /// to rebuild its set from a full Reset Query response.
    pub reset: bool,
    /// `true` if the round began at a version the cache rejected and the
    /// router reconnected one version down (RFC 6810 downgrade).
    pub downgraded: bool,
}

/// Why one synchronization attempt failed: the round loop's own
/// taxonomy, returned to [`LiveSession`] callers and mapped to
/// [`FailureKind`](crate::faults::FailureKind) for the chaos trace.
#[derive(Debug)]
pub enum AttemptError {
    /// A fault cut the connection before the query fully arrived.
    QueryLost,
    /// The cache tore the session down and no downgrade applies.
    Teardown(PduError),
    /// The router-bound bytes failed to parse or negotiate.
    Protocol(PduError),
    /// The router-side state machine rejected a decoded PDU.
    Client(ClientError),
    /// The response ran dry before End of Data, or the round budget
    /// ran out.
    Incomplete,
}

/// How one round's response ended on the router side.
enum Round {
    /// End of Data: the router is synchronized.
    Done,
    /// Cache Reset: the next round sends a Reset Query.
    Reset,
    /// The bytes ran out first.
    Dry,
}

/// A cache server and a router client joined by in-memory byte pipes,
/// stepped serially: update the cache, then let the router catch up.
///
/// This is the lab's one session driver. Every frame in either
/// direction passes through a [`FaultPlan`]; [`LiveSession::new`]
/// installs the quiet plan, [`ChaosSession`](crate::faults::ChaosSession)
/// a seeded one plus the retry loop around the same `attempt`.
#[derive(Debug)]
pub struct LiveSession {
    /// The cache side, behind the same fan-out core the TCP service
    /// uses, with one registered session.
    server: FanoutServer,
    session: SessionId,
    pub(crate) router: RouterClient,
    /// The router's view (it accepts responses up to its own version).
    router_negotiation: Negotiation,
    /// Bytes in flight cache → router (post-fault).
    to_router: Vec<u8>,
    pub(crate) plan: FaultPlan,
    /// Shared by the cache, the router's timers, and stall faults.
    pub(crate) clock: Clock,
}

impl LiveSession {
    /// Wires a cache holding `vrps` to a fresh, unsynchronized router,
    /// both speaking protocol version 1, over a fault-free pipe.
    pub fn new(session_id: u16, vrps: &[Vrp]) -> LiveSession {
        LiveSession::over(
            CacheServer::new(session_id, vrps),
            PROTOCOL_V1,
            Clock::system(),
            FaultPlan::quiet(),
        )
    }

    /// Wires `cache` to a fresh router opening at `router_version`
    /// (above the cache's cap it triggers the RFC 6810 downgrade on
    /// first synchronization), with `plan` spliced into both pipes.
    ///
    /// # Panics
    ///
    /// Panics on an unknown router version.
    pub(crate) fn over(
        cache: CacheServer,
        router_version: u8,
        clock: Clock,
        plan: FaultPlan,
    ) -> LiveSession {
        // The single-session driver always drains between rounds, so
        // backpressure would only get in the way of deterministic
        // byte accounting.
        let server_config = ServerConfig {
            outbox_limit: usize::MAX,
            ..ServerConfig::default()
        };
        let mut server = FanoutServer::with_clock(cache, server_config, clock.clone());
        let session = server.open_session();
        let mut router = RouterClient::with_version(router_version);
        router.set_clock(clock.clone());
        LiveSession {
            server,
            session,
            router,
            router_negotiation: Negotiation::with_max(router_version),
            to_router: Vec::new(),
            plan,
            clock,
        }
    }

    /// The cache endpoint (e.g. to inspect serial/history state).
    pub fn cache(&self) -> &CacheServer {
        self.server.cache()
    }

    /// The router endpoint (e.g. to read the synchronized VRP set).
    pub fn router(&self) -> &RouterClient {
        &self.router
    }

    /// Applies one churn epoch to the cache and queues the Serial
    /// Notify on the session, without letting the router catch up.
    pub(crate) fn update_cache(&mut self, announced: &[Vrp], withdrawn: &[Vrp]) {
        self.server.update_delta_and_notify(announced, withdrawn);
    }

    /// Applies one churn epoch to the cache, pushes the Serial Notify down
    /// the wire, and runs the router's synchronization round to
    /// completion. Returns the on-wire stats.
    pub fn apply_epoch(
        &mut self,
        announced: &[Vrp],
        withdrawn: &[Vrp],
    ) -> Result<SyncStats, AttemptError> {
        self.update_cache(announced, withdrawn);
        self.synchronize()
    }

    /// One full synchronization: a single `attempt` of the round loop with
    /// no trace sink, so a full-table sync records nothing per PDU.
    pub fn synchronize(&mut self) -> Result<SyncStats, AttemptError> {
        self.attempt(None)
    }

    /// One synchronization attempt through the (possibly faulted)
    /// pipes: the router sends the query its state calls for, the cache
    /// serves it, and the router consumes the response — following a
    /// Cache Reset with a Reset Query (RFC 8210 §8), and a recoverable
    /// version rejection with a reconnect one version down (RFC 6810
    /// §7). Every fault drawn and every downgrade is logged to `trace`.
    /// `Ok` means the router saw End of Data; whether it *converged* is
    /// for the caller to validate.
    pub(crate) fn attempt(
        &mut self,
        mut trace: Option<&mut Vec<TraceEvent>>,
    ) -> Result<SyncStats, AttemptError> {
        let mut stats = SyncStats::default();
        for _round in 0..SYNC_ROUNDS {
            // Router → cache: the query, through the ToCache stream.
            // Whatever survives still reaches the cache (a truncated
            // prefix sits as an incomplete frame, a poisoned query gets
            // whatever answer it decodes to).
            let mut query = Vec::new();
            self.router
                .query()
                .as_wire()
                .encode_into(self.router.version(), &mut query);
            stats.bytes += query.len();
            let mut arrived = Vec::new();
            let connected = self.plan.transmit(
                Direction::ToCache,
                &query,
                &mut arrived,
                &self.clock,
                trace.as_deref_mut(),
            );
            self.server.receive(self.session, &arrived);
            if !connected {
                return Err(AttemptError::QueryLost);
            }

            // Cache side: drain the outbox, check for teardown.
            let mut response = Vec::new();
            stats.bytes += self.server.drain_output(self.session, &mut response);
            if let Some(error) = self.server.session_error(self.session).cloned() {
                let can_downgrade = error.class() == ErrorClass::Recoverable
                    && !stats.downgraded
                    && self.router.version() > PROTOCOL_V0;
                if !can_downgrade {
                    return Err(AttemptError::Teardown(error));
                }
                // The closing Error Report crossed the wire; then a
                // fresh connection one version down (RFC 6810 §7 — the
                // data is still good, only the version changes).
                stats.downgraded = true;
                stats.pdus += split_frames(&response).count();
                let from = self.router.version();
                self.router.downgrade_to(from - 1);
                self.reopen();
                if let Some(trace) = trace.as_deref_mut() {
                    trace.push(TraceEvent::Downgrade { from, to: from - 1 });
                }
                continue;
            }

            // Cache → router: each response frame through the ToRouter
            // stream. A loss-class fault cuts the rest of the response.
            for frame in split_frames(&response) {
                let connected = self.plan.transmit(
                    Direction::ToRouter,
                    frame,
                    &mut self.to_router,
                    &self.clock,
                    trace.as_deref_mut(),
                );
                if !connected {
                    break;
                }
            }

            // Router side: decode whatever made it through, walking the
            // pipe by offset and draining it once.
            let mut consumed = 0;
            let ended = loop {
                let frame = match wire::decode_frame(&self.to_router[consumed..]) {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break Ok(Round::Dry),
                    Err(e) => break Err(AttemptError::Protocol(e)),
                };
                if let Err(e) = self.router_negotiation.accept(frame.version) {
                    break Err(AttemptError::Protocol(e));
                }
                let pdu = frame.pdu;
                consumed += frame.len;
                stats.pdus += 1;
                match pdu {
                    PduRef::Prefix {
                        flags: Flags::Announce,
                        ..
                    } => stats.announced += 1,
                    PduRef::Prefix {
                        flags: Flags::Withdraw,
                        ..
                    } => stats.withdrawn += 1,
                    PduRef::CacheReset => stats.reset = true,
                    _ => {}
                }
                match self.router.handle_wire(pdu) {
                    Ok(true) => break Ok(Round::Done),
                    Ok(false) if pdu == PduRef::CacheReset => break Ok(Round::Reset),
                    Ok(false) => {}
                    Err(e) => break Err(AttemptError::Client(e)),
                }
            };
            self.to_router.drain(..consumed);
            match ended? {
                Round::Done => return Ok(stats),
                Round::Reset => {}
                Round::Dry => return Err(AttemptError::Incomplete),
            }
        }
        Err(AttemptError::Incomplete)
    }

    /// Re-establishes the connection after a failed attempt: the router
    /// aborts any half-applied delta and renegotiates from its
    /// *preferred* version (downgrades are per-connection, RFC 6810
    /// §7), and the pipes start clean.
    pub(crate) fn reconnect(&mut self) {
        self.router.abort_response();
        self.router.renegotiate();
        self.reopen();
    }

    /// Closes the session on the registry and opens a fresh one at the
    /// router's current version, like a real reconnect: empty pipes,
    /// unpinned negotiations.
    fn reopen(&mut self) {
        self.server.close_session(self.session);
        self.session = self.server.open_session();
        self.router_negotiation = Negotiation::with_max(self.router.version());
        self.to_router.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vrp(s: &str) -> Vrp {
        s.parse().unwrap()
    }

    fn vrps(list: &[&str]) -> Vec<Vrp> {
        list.iter().map(|s| s.parse().unwrap()).collect()
    }

    /// A fault-free session with independent version caps.
    fn versioned(
        session_id: u16,
        vrps: &[Vrp],
        cache_version: u8,
        router_version: u8,
    ) -> LiveSession {
        LiveSession::over(
            CacheServer::with_version(session_id, vrps, cache_version),
            router_version,
            Clock::system(),
            FaultPlan::quiet(),
        )
    }

    /// Ages the router's serial out of the history window without
    /// letting it catch up (no notify: mutate the cache directly).
    fn age_cache(s: &mut LiveSession, updates: u32) {
        for i in 0..updates {
            s.server.with_cache(|c| {
                c.update_delta(&[vrp(&format!("172.16.{}.0/24 => AS7", i % 256))], &[]);
            });
        }
    }

    #[test]
    fn initial_sync_then_deltas() {
        let mut s = LiveSession::new(21, &vrps(&["10.0.0.0/8 => AS1"]));
        let stats = s.synchronize().unwrap();
        assert_eq!(stats.announced, 1);
        assert!(!stats.reset);
        assert!(stats.bytes > 0, "a real sync moves real bytes");
        assert_eq!(s.router().vrps().len(), 1);
        assert_eq!(s.router().version(), PROTOCOL_V1);

        let stats = s
            .apply_epoch(&[vrp("11.0.0.0/8 => AS2")], &[vrp("10.0.0.0/8 => AS1")])
            .unwrap();
        assert_eq!((stats.announced, stats.withdrawn), (1, 1));
        assert_eq!(s.router().serial(), 1);
        let got: Vec<Vrp> = s.router().vrps().iter().collect();
        assert_eq!(got, vrps(&["11.0.0.0/8 => AS2"]));
    }

    #[test]
    fn router_mirrors_cache_across_many_epochs() {
        let mut s = LiveSession::new(3, &vrps(&["10.0.0.0/8 => AS1"]));
        s.synchronize().unwrap();
        for i in 0u32..40 {
            let fresh = vrp(&format!("10.{}.0.0/16 => AS{}", i % 200, 100 + i));
            s.apply_epoch(&[fresh], &[]).unwrap();
            let cache_set: Vec<Vrp> = s.cache().vrps().cloned().collect();
            let router_set: Vec<Vrp> = s.router().vrps().iter().collect();
            assert_eq!(cache_set, router_set, "epoch {i}");
            assert_eq!(s.router().serial(), s.cache().serial());
        }
    }

    #[test]
    fn stale_router_recovers_via_cache_reset() {
        let mut s = LiveSession::new(8, &vrps(&["10.0.0.0/8 => AS1"]));
        s.synchronize().unwrap();
        age_cache(&mut s, 40);
        let stats = s.synchronize().unwrap();
        assert!(stats.reset, "stale serial must force a Cache Reset");
        // Recovery delivers the full current set.
        let got: Vec<Vrp> = s.router().vrps().iter().collect();
        let expect: Vec<Vrp> = s.cache().vrps().cloned().collect();
        assert_eq!(got, expect);
        assert_eq!(s.router().serial(), s.cache().serial());
    }

    #[test]
    fn v0_session_end_to_end() {
        let mut s = versioned(5, &vrps(&["10.0.0.0/8 => AS1"]), PROTOCOL_V0, PROTOCOL_V0);
        let stats = s.synchronize().unwrap();
        assert_eq!(stats.announced, 1);
        assert!(!stats.downgraded);
        assert_eq!(s.router().version(), PROTOCOL_V0);
        // Deltas keep flowing at v0 (12-byte End of Data and all).
        s.apply_epoch(&[vrp("11.0.0.0/8 => AS2")], &[]).unwrap();
        assert_eq!(s.router().vrps().len(), 2);
        assert_eq!(s.router().serial(), s.cache().serial());
    }

    #[test]
    fn v1_router_downgrades_to_v0_cache() {
        let mut s = versioned(
            9,
            &vrps(&["10.0.0.0/8 => AS1", "11.0.0.0/8 => AS2"]),
            PROTOCOL_V0,
            PROTOCOL_V1,
        );
        let stats = s.synchronize().unwrap();
        assert!(stats.downgraded, "the v1 opener must be rejected");
        assert_eq!(s.router().version(), PROTOCOL_V0);
        assert_eq!(s.router().vrps().len(), 2);
        // The session stays healthy at v0 afterwards.
        let stats = s.apply_epoch(&[vrp("12.0.0.0/8 => AS3")], &[]).unwrap();
        assert!(!stats.downgraded);
        assert_eq!(s.router().vrps().len(), 3);
    }

    /// Byte accounting across the driver merge: the per-epoch stats of
    /// a fixed timeline — a downgrade on first contact, three deltas, a
    /// Cache Reset fallback, one more delta — equal the values the
    /// separate `LiveSession` loop produced at the commit before it was
    /// folded into the shared round loop.
    #[test]
    fn sync_stats_match_the_pre_merge_driver() {
        let initial: Vec<Vrp> = (0..12u32)
            .map(|i| vrp(&format!("10.{i}.0.0/16-20 => AS{}", 100 + i)))
            .chain([vrp("2001:db8::/32-48 => AS64500")])
            .collect();
        let mut s = versioned(77, &initial, PROTOCOL_V0, PROTOCOL_V1);
        let mut got = vec![s.synchronize().unwrap()];
        for epoch in 0..3u32 {
            let announced: Vec<Vrp> = (0..=epoch)
                .map(|i| vrp(&format!("11.{epoch}.{i}.0/24 => AS{}", 200 + epoch)))
                .collect();
            let withdrawn = &initial[epoch as usize * 2..epoch as usize * 3];
            got.push(s.apply_epoch(&announced, withdrawn).unwrap());
        }
        age_cache(&mut s, 20);
        got.push(s.synchronize().unwrap());
        got.push(
            s.apply_epoch(&[vrp("2001:db8:1::/48 => AS64501")], &initial[12..])
                .unwrap(),
        );

        let stats = |announced, withdrawn, pdus, bytes| SyncStats {
            announced,
            withdrawn,
            pdus,
            bytes,
            reset: false,
            downgraded: false,
        };
        let want = [
            SyncStats {
                downgraded: true,
                ..stats(13, 0, 16, 362)
            },
            stats(1, 0, 4, 64),
            stats(2, 1, 6, 104),
            stats(3, 2, 8, 144),
            SyncStats {
                reset: true,
                ..stats(36, 0, 39, 780)
            },
            stats(1, 1, 5, 108),
        ];
        assert_eq!(got, want);
        assert_eq!((s.router().serial(), s.router().vrps().len()), (24, 36));
    }

    #[test]
    fn manual_clock_threads_through_to_router_freshness() {
        use rpki_rtr::client::Freshness;
        use rpki_rtr::pdu::Timing;
        use std::time::Duration;

        let clock = Clock::manual();
        let mut cache = CacheServer::new(4, &vrps(&["10.0.0.0/8 => AS1"]));
        cache.set_timing(Timing {
            refresh: 10,
            retry: 5,
            expire: 30,
        });
        let mut s = LiveSession::over(cache, PROTOCOL_V1, clock.clone(), FaultPlan::quiet());
        s.synchronize().unwrap();
        assert_eq!(s.router().freshness(), Freshness::Fresh);
        clock.advance(Duration::from_secs(11));
        assert!(matches!(s.router().freshness(), Freshness::Stale { .. }));
        clock.advance(Duration::from_secs(20));
        assert_eq!(s.router().freshness(), Freshness::Expired);
        // A new synchronization round restores freshness.
        s.apply_epoch(&[vrp("11.0.0.0/8 => AS2")], &[]).unwrap();
        assert_eq!(s.router().freshness(), Freshness::Fresh);
    }

    #[test]
    fn v0_router_works_against_v1_cache() {
        // The other direction needs no downgrade: the v1-capable cache
        // simply answers at the router's v0.
        let mut s = versioned(2, &vrps(&["10.0.0.0/8 => AS1"]), PROTOCOL_V1, PROTOCOL_V0);
        let stats = s.synchronize().unwrap();
        assert!(!stats.downgraded);
        assert_eq!(s.router().version(), PROTOCOL_V0);
        assert_eq!(s.router().vrps().len(), 1);
    }
}
