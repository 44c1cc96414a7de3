//! Deterministic fault injection and the RFC 8210 recovery harness.
//!
//! The fan-out server and the router client are sans-io state machines;
//! what they have never been subjected to is a *hostile pipe*. This
//! module closes that gap with two pieces:
//!
//! * [`FaultPlan`] — a seeded, replayable schedule of wire faults
//!   (frame drops, mid-frame truncation, byte corruption, injected
//!   garbage, stalls, forced disconnects), drawn from domain-separated
//!   PRNG streams so the cache-bound and router-bound directions never
//!   share entropy. The one place a plan touches bytes is the in-memory
//!   session's pipes, every frame in either direction, faithful to the
//!   TCP reality that a stream cannot lose a *middle* frame: every
//!   loss-class fault is a connection break the endpoints must recover
//!   from.
//! * [`ChaosSession`] — a [`LiveSession`] on a manual [`Clock`] with a
//!   seeded fault plan spliced into its pipes, wrapped in the full
//!   RFC 8210 §6 recovery loop on the router side: capped exponential
//!   [`Backoff`] with seeded jitter, Reset Query fallback after
//!   repeated failures, stale-data flushing past Expire, and a
//!   recovery [`TraceEvent`] log.
//!
//! # The determinism contract
//!
//! Every run is a pure function of `(seed, FaultConfig, RecoveryConfig,
//! churn timeline)`. Time is virtual ([`Clock::manual`]), randomness
//! comes only from [`StdRng`] streams derived from the seed by fixed
//! domain constants, and no draw is ever made speculatively — so the
//! same seed replays the same fault schedule, the same backoff delays,
//! and the same [`TraceEvent`] sequence **byte for byte**. A failing
//! chaos case is its seed; nothing else needs to be captured.
//!
//! # The convergence-or-Stale invariant
//!
//! The safety property the chaos suite gates on
//! ([`Settled::invariant_holds`]): after [`ChaosSession::settle`]
//! returns, either the router's VRP set and serial are **bit-identical
//! to the cache's** (checked against the [`CacheServer`] oracle, never
//! against the wire), or the router reports itself non-[`Fresh`] — it
//! must never hold wrong data while claiming it is current. The
//! dangerous path is corruption that still decodes: a flipped byte can
//! survive the grammar and commit a wrong VRP. [`ChaosSession::settle`]
//! therefore validates convergence *after* every apparently successful
//! exchange and treats silent desync as one more failure to recover
//! from ([`FailureKind::Desync`]), forcing a full Reset Query rebuild.
//!
//! [`Fresh`]: crate::client::Freshness::Fresh
//! [`StdRng`]: rand::rngs::StdRng

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpki_roa::Vrp;

use crate::cache::CacheServer;
use crate::client::{Freshness, RouterClient};
use crate::clock::Clock;
use crate::pdu::{Pdu, Timing, PROTOCOL_V1};
use crate::session::{AttemptError, LiveSession};
use crate::wire::HEADER_LEN;

/// Domain constant for the cache → router fault stream.
const TO_ROUTER_DOMAIN: u64 = 0xD6E8_FEB8_6659_FD93;
/// Domain constant for the router → cache fault stream.
const TO_CACHE_DOMAIN: u64 = 0x85EB_CA6B_27D4_EB2F;
/// Domain constant for the backoff jitter stream.
const BACKOFF_DOMAIN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Which way a frame was travelling when the fault hit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Cache-bound: the router's queries.
    ToCache,
    /// Router-bound: the cache's responses and notifies.
    ToRouter,
}

/// Per-fault probabilities, each in `0.0..=1.0`; their sum is the total
/// fault rate per frame (must stay `<= 1.0`), the remainder delivers
/// the frame intact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// The frame vanishes (and the connection breaks with it — TCP
    /// cannot lose a middle frame and keep the stream).
    pub drop: f64,
    /// The frame is cut mid-byte and the connection breaks.
    pub truncate: f64,
    /// One byte of the frame is XOR-mutated and delivered. The only
    /// fault class that can *survive* decoding — the silent-desync
    /// hazard the settle loop validates against.
    pub corrupt: f64,
    /// Random garbage bytes are injected in place of the frame.
    pub garbage: f64,
    /// Delivery is delayed by a drawn interval of virtual time.
    pub stall: f64,
    /// The connection is cut before the frame is sent.
    pub disconnect: f64,
}

impl FaultConfig {
    /// No faults: every frame delivers. The control profile.
    pub fn none() -> FaultConfig {
        FaultConfig {
            drop: 0.0,
            truncate: 0.0,
            corrupt: 0.0,
            garbage: 0.0,
            stall: 0.0,
            disconnect: 0.0,
        }
    }

    /// Light chaos: ~10% of frames suffer some fault.
    pub fn light() -> FaultConfig {
        FaultConfig {
            drop: 0.02,
            truncate: 0.01,
            corrupt: 0.02,
            garbage: 0.01,
            stall: 0.02,
            disconnect: 0.02,
        }
    }

    /// Heavy chaos: ~35% of frames suffer some fault.
    pub fn heavy() -> FaultConfig {
        FaultConfig {
            drop: 0.08,
            truncate: 0.04,
            corrupt: 0.08,
            garbage: 0.04,
            stall: 0.05,
            disconnect: 0.06,
        }
    }

    fn total(&self) -> f64 {
        self.drop + self.truncate + self.corrupt + self.garbage + self.stall + self.disconnect
    }
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig::light()
    }
}

/// What the plan decided to do to one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Pass the frame through untouched.
    Deliver,
    /// Lose the frame (connection-terminating over a stream).
    Drop,
    /// Deliver only the first `keep` bytes, then cut the connection.
    Truncate {
        /// Bytes of the frame that still arrive.
        keep: usize,
    },
    /// XOR one byte and deliver the mutated frame.
    Corrupt {
        /// Byte offset of the mutation.
        offset: usize,
        /// Non-zero XOR mask applied at `offset`.
        xor: u8,
    },
    /// Replace the frame with raw garbage bytes.
    Garbage {
        /// The injected bytes.
        bytes: Vec<u8>,
    },
    /// Delay delivery by `delay` of virtual time, then deliver.
    Stall {
        /// The virtual-time delay.
        delay: Duration,
    },
    /// Cut the connection before the frame is sent.
    Disconnect,
}

/// A seeded, replayable schedule of wire faults.
///
/// Two independent [`StdRng`] streams — one per [`Direction`], derived
/// from the seed by fixed domain constants — decide each frame's fate.
/// Decisions are drawn strictly in frame order per direction, so the
/// schedule is a pure function of `(seed, config, frame sequence)`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    to_router: StdRng,
    to_cache: StdRng,
}

impl FaultPlan {
    /// A plan drawing from `seed` with the given fault rates.
    ///
    /// # Panics
    ///
    /// Panics if the configured probabilities sum above 1.0.
    pub fn new(seed: u64, config: FaultConfig) -> FaultPlan {
        assert!(
            config.total() <= 1.0,
            "fault probabilities sum to {} > 1.0",
            config.total()
        );
        FaultPlan {
            config,
            to_router: StdRng::seed_from_u64(seed ^ TO_ROUTER_DOMAIN),
            to_cache: StdRng::seed_from_u64(seed ^ TO_CACHE_DOMAIN),
        }
    }

    /// A plan that never faults (regardless of seed).
    pub fn quiet() -> FaultPlan {
        FaultPlan::new(0, FaultConfig::none())
    }

    /// Decides the fate of the next `frame_len`-byte frame travelling
    /// in `dir`. Consumes entropy from that direction's stream only.
    pub fn decide(&mut self, dir: Direction, frame_len: usize) -> FaultAction {
        let config = self.config;
        let rng = match dir {
            Direction::ToRouter => &mut self.to_router,
            Direction::ToCache => &mut self.to_cache,
        };
        let roll: f64 = rng.gen();
        let mut threshold = config.drop;
        if roll < threshold {
            return FaultAction::Drop;
        }
        threshold += config.truncate;
        if roll < threshold {
            return FaultAction::Truncate {
                keep: rng.gen_range(0..frame_len.max(1)),
            };
        }
        threshold += config.corrupt;
        if roll < threshold {
            return FaultAction::Corrupt {
                offset: rng.gen_range(0..frame_len.max(1)),
                xor: rng.gen_range(1..=255u8),
            };
        }
        threshold += config.garbage;
        if roll < threshold {
            let len = rng.gen_range(8..=24usize);
            let bytes = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            return FaultAction::Garbage { bytes };
        }
        threshold += config.stall;
        if roll < threshold {
            return FaultAction::Stall {
                delay: Duration::from_secs(rng.gen_range(1..=30u64)),
            };
        }
        threshold += config.disconnect;
        if roll < threshold {
            return FaultAction::Disconnect;
        }
        FaultAction::Deliver
    }

    /// Sends `frame` in `dir` through the plan: draws its fate, logs it
    /// to `trace`, and appends whatever still arrives to `out`. Returns
    /// `false` if the fault cut the connection.
    pub(crate) fn transmit(
        &mut self,
        dir: Direction,
        frame: &[u8],
        out: &mut Vec<u8>,
        clock: &Clock,
        trace: Option<&mut Vec<TraceEvent>>,
    ) -> bool {
        let action = self.decide(dir, frame.len());
        let connected = match &action {
            FaultAction::Deliver => {
                out.extend_from_slice(frame);
                true
            }
            FaultAction::Stall { delay } => {
                // Latency, not loss: the frame arrives late, and the
                // router's freshness timers feel every second of it.
                clock.advance(*delay);
                out.extend_from_slice(frame);
                true
            }
            FaultAction::Drop | FaultAction::Disconnect => false,
            FaultAction::Truncate { keep } => {
                out.extend_from_slice(&frame[..(*keep).min(frame.len())]);
                false
            }
            FaultAction::Corrupt { offset, xor } => {
                let at = out.len() + (*offset).min(frame.len().saturating_sub(1));
                out.extend_from_slice(frame);
                if let Some(byte) = out.get_mut(at) {
                    *byte ^= xor;
                }
                true
            }
            FaultAction::Garbage { bytes } => {
                // Noise in place of a query still gets decoded and
                // answered (usually with a fatal report); noise inside
                // a response loses the frame boundary for good.
                out.extend_from_slice(bytes);
                dir == Direction::ToCache
            }
        };
        if let Some(trace) = trace {
            trace.push(TraceEvent::Fault { dir, action });
        }
        connected
    }
}

/// Capped exponential backoff with seeded jitter, per RFC 8210 §6's
/// retry discipline: double up to a cap, add up to 25% random jitter so
/// a fleet of routers does not thunder in phase.
#[derive(Debug, Clone)]
pub struct Backoff {
    rng: StdRng,
    base: Duration,
    cap: Duration,
    /// Consecutive failures since the last [`Backoff::reset`].
    attempts: u32,
}

impl Backoff {
    /// A backoff drawing jitter from `seed` (domain-separated from the
    /// fault streams), starting at `base` and saturating at `cap`.
    pub fn new(seed: u64, base: Duration, cap: Duration) -> Backoff {
        Backoff {
            rng: StdRng::seed_from_u64(seed ^ BACKOFF_DOMAIN),
            base: base.max(Duration::from_millis(1)),
            cap,
            attempts: 0,
        }
    }

    /// The next delay: `min(cap, base << attempts)` plus jitter in
    /// `0..=25%` of the delay. Advances the attempt counter.
    pub fn next_delay(&mut self) -> Duration {
        let shift = self.attempts.min(16);
        let delay = self
            .base
            .checked_mul(1u32 << shift)
            .unwrap_or(self.cap)
            .min(self.cap);
        self.attempts = self.attempts.saturating_add(1);
        let jitter_ns = (delay.as_nanos() / 4) as u64;
        let jitter = if jitter_ns == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.rng.gen_range(0..=jitter_ns))
        };
        delay + jitter
    }

    /// Clears the failure streak after a successful exchange.
    pub fn reset(&mut self) {
        self.attempts = 0;
    }

    /// Consecutive failures recorded since the last reset.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }
}

/// Recovery policy for [`ChaosSession::settle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Attempts after which settle gives up — provided the router is no
    /// longer claiming freshness (the invariant forbids abandoning a
    /// router that still reports `Fresh`).
    pub max_attempts: u32,
    /// Consecutive failures that trigger the Reset Query fallback: the
    /// serial-resume path is abandoned and the full snapshot rebuilt.
    pub reset_after: u32,
    /// First retry delay.
    pub backoff_base: Duration,
    /// Retry delay ceiling.
    pub backoff_cap: Duration,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            max_attempts: 16,
            reset_after: 4,
            backoff_base: Duration::from_secs(1),
            backoff_cap: Duration::from_secs(60),
        }
    }
}

/// Why one synchronization attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The router's query never reached the cache.
    QueryLost,
    /// The cache tore the session down with a fatal Error Report.
    Teardown,
    /// The router-bound bytes failed to parse.
    Protocol,
    /// The router-side state machine rejected a decoded PDU.
    Client,
    /// The response ran dry before End of Data (break mid-response).
    Incomplete,
    /// The exchange *looked* successful but the router's set did not
    /// match the cache oracle — survivable corruption committed wrong
    /// data. The settle loop forces a full rebuild.
    Desync,
}

impl From<&AttemptError> for FailureKind {
    fn from(e: &AttemptError) -> FailureKind {
        match e {
            AttemptError::QueryLost => FailureKind::QueryLost,
            AttemptError::Teardown(_) => FailureKind::Teardown,
            AttemptError::Protocol(_) => FailureKind::Protocol,
            AttemptError::Client(_) => FailureKind::Client,
            AttemptError::Incomplete => FailureKind::Incomplete,
        }
    }
}

/// One entry in a [`ChaosSession`]'s recovery trace. The trace is the
/// determinism witness: same seed, same trace, element for element.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A churn epoch was applied to the cache.
    Epoch {
        /// The cache serial after the update.
        serial: u32,
    },
    /// A synchronization attempt began.
    Attempt {
        /// 1-based attempt number within the settle call.
        n: u32,
        /// `true` if the router opened with a Reset Query.
        reset: bool,
    },
    /// The plan injected a fault.
    Fault {
        /// Which pipe the fault hit.
        dir: Direction,
        /// What was done to the frame.
        action: FaultAction,
    },
    /// A recoverable version rejection forced a downgrade reconnect.
    Downgrade {
        /// Version before.
        from: u8,
        /// Version after.
        to: u8,
    },
    /// The connection was re-established after a failure.
    Reconnect {
        /// The version the router re-opened with (its preferred
        /// version — downgrades are per-connection).
        version: u8,
    },
    /// The settle loop slept before retrying.
    Backoff {
        /// Virtual-time delay.
        delay: Duration,
    },
    /// The Expire timer fired and stale data was flushed.
    Expired,
    /// The attempt failed.
    Failed {
        /// Why.
        reason: FailureKind,
    },
    /// The router converged with the cache.
    Synced {
        /// Serial both sides now agree on.
        serial: u32,
        /// VRPs the router holds.
        vrps: usize,
    },
    /// The settle loop gave up after `max_attempts` with the router
    /// honestly non-fresh.
    GaveUp {
        /// The freshness the router reports at abandonment.
        freshness: Freshness,
    },
}

/// Outcome of [`ChaosSession::settle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settled {
    /// `true` if the router's set and serial match the cache oracle.
    pub converged: bool,
    /// Synchronization attempts consumed.
    pub attempts: u32,
    /// Freshness the router reports at return.
    pub freshness: Freshness,
    /// Virtual time the recovery consumed.
    pub virtual_elapsed: Duration,
}

impl Settled {
    /// The convergence-or-Stale invariant: a router that failed to
    /// converge must not be claiming its data is fresh.
    pub fn invariant_holds(&self) -> bool {
        self.converged || self.freshness != Freshness::Fresh
    }
}

/// Options for building a [`ChaosSession`].
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Highest version the cache speaks.
    pub cache_version: u8,
    /// Version the router prefers (opens with, and re-opens with after
    /// every reconnect).
    pub router_version: u8,
    /// RFC 8210 timing the cache advertises. The default compresses
    /// the RFC's hour-scale intervals to seconds of virtual time:
    /// refresh 4s, retry 1s, expire 12s.
    pub timing: Timing,
    /// Retry/backoff/reset policy.
    pub recovery: RecoveryConfig,
}

impl Default for ChaosOptions {
    fn default() -> ChaosOptions {
        ChaosOptions {
            cache_version: PROTOCOL_V1,
            router_version: PROTOCOL_V1,
            timing: Timing {
                refresh: 4,
                retry: 1,
                expire: 12,
            },
            recovery: RecoveryConfig::default(),
        }
    }
}

/// Hard cap on settle-loop iterations: a pure deadlock/livelock gate.
/// Legitimate recoveries finish orders of magnitude earlier.
const SETTLE_HARD_CAP: u32 = 100_000;

/// A cache ↔ router pair under fault injection on one shared manual
/// clock — the chaos harness the `tests/chaos.rs` proptest suite
/// drives.
///
/// The churn side is [`ChaosSession::apply_epoch`]; the recovery side
/// is [`ChaosSession::settle`], which retries with backoff until the
/// router either converges with the [`CacheServer`] oracle or honestly
/// reports itself non-fresh. Both are deterministic in the seed; see
/// the module docs for the contract.
#[derive(Debug)]
pub struct ChaosSession {
    /// Both endpoints, the pipes, and the fault plan spliced into them.
    link: LiveSession,
    backoff: Backoff,
    recovery: RecoveryConfig,
    trace: Vec<TraceEvent>,
    consecutive_failures: u32,
}

impl ChaosSession {
    /// A chaos pair over `vrps`, faulting per `(seed, config)`, with
    /// default versions and timing.
    pub fn new(session_id: u16, vrps: &[Vrp], seed: u64, config: FaultConfig) -> ChaosSession {
        ChaosSession::with_options(session_id, vrps, seed, config, ChaosOptions::default())
    }

    /// The fully-parameterized constructor.
    ///
    /// # Panics
    ///
    /// Panics on unknown versions or fault rates summing above 1.0.
    pub fn with_options(
        session_id: u16,
        vrps: &[Vrp],
        seed: u64,
        config: FaultConfig,
        options: ChaosOptions,
    ) -> ChaosSession {
        let mut cache = CacheServer::with_version(session_id, vrps, options.cache_version);
        cache.set_timing(options.timing);
        ChaosSession {
            link: LiveSession::over(
                cache,
                options.router_version,
                Clock::manual(),
                FaultPlan::new(seed, config),
            ),
            backoff: Backoff::new(
                seed,
                options.recovery.backoff_base,
                options.recovery.backoff_cap,
            ),
            recovery: options.recovery,
            trace: Vec::new(),
            consecutive_failures: 0,
        }
    }

    /// The cache oracle.
    pub fn cache(&self) -> &CacheServer {
        self.link.cache()
    }

    /// The router under test.
    pub fn router(&self) -> &RouterClient {
        self.link.router()
    }

    /// The shared manual clock.
    pub fn clock(&self) -> &Clock {
        &self.link.clock
    }

    /// The recovery trace so far — the determinism witness.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// `true` if the router's VRP set and serial match the cache.
    /// Checked against the state machines directly, never the wire.
    pub fn converged(&self) -> bool {
        let held = self.router().vrps();
        self.router().serial() == self.cache().serial()
            && held.len() == self.cache().len()
            && self.cache().vrps().all(|vrp| held.contains(vrp))
    }

    /// Applies one churn epoch to the cache (queuing a Serial Notify on
    /// the session). Call [`ChaosSession::settle`] to let the router
    /// catch up through the faults.
    pub fn apply_epoch(&mut self, announced: &[Vrp], withdrawn: &[Vrp]) {
        self.link.update_cache(announced, withdrawn);
        self.trace.push(TraceEvent::Epoch {
            serial: self.cache().serial(),
        });
    }

    /// Retries synchronization with backoff until the router converges
    /// with the oracle or gives up honestly non-fresh. Returns the
    /// outcome; [`Settled::invariant_holds`] is the property tests
    /// gate on.
    ///
    /// # Panics
    ///
    /// Panics if the loop exceeds its hard iteration cap — the
    /// deadlock/livelock gate the chaos suite converts into a failure.
    pub fn settle(&mut self) -> Settled {
        let started = self.link.clock.now();
        let mut attempts = 0u32;
        for _guard in 0..SETTLE_HARD_CAP {
            attempts += 1;
            self.trace.push(TraceEvent::Attempt {
                n: attempts,
                reset: matches!(self.link.router.query(), Pdu::ResetQuery),
            });
            let reason = match self.link.attempt(Some(&mut self.trace)) {
                Ok(_stats) => {
                    self.backoff.reset();
                    if self.converged() {
                        self.consecutive_failures = 0;
                        self.trace.push(TraceEvent::Synced {
                            serial: self.link.router.serial(),
                            vrps: self.link.router.vrps().len(),
                        });
                        return Settled {
                            converged: true,
                            attempts,
                            freshness: self.link.router.freshness(),
                            virtual_elapsed: self.link.clock.now() - started,
                        };
                    }
                    // Survivable corruption committed wrong data under
                    // a clean-looking exchange: validate-then-commit
                    // says this is a failure. Rebuild from scratch —
                    // the connection itself is fine, so no reconnect.
                    self.link.router.force_reset();
                    FailureKind::Desync
                }
                Err(error) => {
                    self.link.reconnect();
                    self.trace.push(TraceEvent::Reconnect {
                        version: self.link.router.version(),
                    });
                    FailureKind::from(&error)
                }
            };
            self.trace.push(TraceEvent::Failed { reason });
            self.consecutive_failures += 1;
            if self.consecutive_failures >= self.recovery.reset_after {
                self.link.router.force_reset();
            }
            if attempts >= self.recovery.max_attempts
                && self.link.router.freshness() != Freshness::Fresh
            {
                self.trace.push(TraceEvent::GaveUp {
                    freshness: self.link.router.freshness(),
                });
                return Settled {
                    converged: self.converged(),
                    attempts,
                    freshness: self.link.router.freshness(),
                    virtual_elapsed: self.link.clock.now() - started,
                };
            }
            // Each failure advances virtual time by at least the
            // backoff base, so a router stuck failing leaves `Fresh`
            // within `refresh` seconds and the give-up gate above must
            // eventually open — settle always terminates.
            let delay = self.backoff.next_delay();
            self.trace.push(TraceEvent::Backoff { delay });
            self.link.clock.advance(delay);
            if self.link.router.flush_expired() {
                self.trace.push(TraceEvent::Expired);
            }
        }
        panic!("settle exceeded {SETTLE_HARD_CAP} iterations: livelock");
    }
}

/// Splits a byte run into wire frames on the declared big-endian
/// length at offset 4, clamped to the run — trailing partial bytes
/// form the final "frame" so faults can still hit them.
pub(crate) fn split_frames(mut rest: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let len = if rest.len() < HEADER_LEN {
            rest.len()
        } else {
            let declared = u32::from_be_bytes([rest[4], rest[5], rest[6], rest[7]]) as usize;
            declared.clamp(HEADER_LEN, rest.len())
        };
        let (frame, tail) = rest.split_at(len);
        rest = tail;
        Some(frame)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdu::PROTOCOL_V0;

    fn vrps(list: &[&str]) -> Vec<Vrp> {
        list.iter().map(|s| s.parse().unwrap()).collect()
    }

    #[test]
    fn fault_plan_is_replayable() {
        let config = FaultConfig::heavy();
        let mut a = FaultPlan::new(77, config);
        let mut b = FaultPlan::new(77, config);
        for i in 0..200 {
            let len = 8 + (i % 64);
            assert_eq!(
                a.decide(Direction::ToRouter, len),
                b.decide(Direction::ToRouter, len)
            );
            assert_eq!(
                a.decide(Direction::ToCache, len),
                b.decide(Direction::ToCache, len)
            );
        }
    }

    #[test]
    fn fault_plan_directions_are_independent_streams() {
        // Consuming one direction's stream must not perturb the other.
        let config = FaultConfig::heavy();
        let mut interleaved = FaultPlan::new(9, config);
        let mut solo = FaultPlan::new(9, config);
        let mut got = Vec::new();
        for _ in 0..50 {
            got.push(interleaved.decide(Direction::ToRouter, 32));
            let _ = interleaved.decide(Direction::ToCache, 32);
        }
        let want: Vec<FaultAction> = (0..50)
            .map(|_| solo.decide(Direction::ToRouter, 32))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn quiet_plan_always_delivers() {
        let mut plan = FaultPlan::quiet();
        for _ in 0..100 {
            assert_eq!(plan.decide(Direction::ToRouter, 16), FaultAction::Deliver);
            assert_eq!(plan.decide(Direction::ToCache, 16), FaultAction::Deliver);
        }
    }

    #[test]
    fn backoff_grows_to_the_cap_and_resets() {
        let base = Duration::from_secs(1);
        let cap = Duration::from_secs(60);
        let mut b = Backoff::new(3, base, cap);
        let first = b.next_delay();
        assert!(first >= base && first <= base + base / 4);
        let mut last = first;
        for _ in 0..10 {
            last = b.next_delay();
        }
        // 2^10 seconds saturates at the cap (plus jitter).
        assert!(last >= cap && last <= cap + cap / 4, "{last:?}");
        b.reset();
        let again = b.next_delay();
        assert!(again >= base && again <= base + base / 4);
    }

    #[test]
    fn chaos_without_faults_syncs_in_one_attempt() {
        let mut chaos = ChaosSession::new(7, &vrps(&["10.0.0.0/8 => AS1"]), 1, FaultConfig::none());
        let settled = chaos.settle();
        assert!(settled.converged);
        assert_eq!(settled.attempts, 1);
        assert_eq!(settled.freshness, Freshness::Fresh);
        assert!(settled.invariant_holds());
        chaos.apply_epoch(&vrps(&["11.0.0.0/8 => AS2"]), &[]);
        let settled = chaos.settle();
        assert!(settled.converged);
        assert!(chaos.converged());
    }

    #[test]
    fn chaos_under_heavy_faults_upholds_the_invariant() {
        for seed in 0..20u64 {
            let mut chaos =
                ChaosSession::new(5, &vrps(&["10.0.0.0/8 => AS1"]), seed, FaultConfig::heavy());
            for i in 0u32..6 {
                chaos.apply_epoch(&vrps(&[&format!("10.{}.0.0/16 => AS{}", i, 100 + i)]), &[]);
                let settled = chaos.settle();
                assert!(
                    settled.invariant_holds(),
                    "seed {seed} epoch {i}: converged={} freshness={:?}",
                    settled.converged,
                    settled.freshness
                );
            }
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed: u64| {
            let mut chaos =
                ChaosSession::new(5, &vrps(&["10.0.0.0/8 => AS1"]), seed, FaultConfig::heavy());
            for i in 0u32..4 {
                chaos.apply_epoch(&vrps(&[&format!("10.{}.0.0/16 => AS{}", i, 50 + i)]), &[]);
                chaos.settle();
            }
            chaos.trace().to_vec()
        };
        assert_eq!(run(42), run(42), "same seed must replay byte-for-byte");
        assert_ne!(run(42), run(43), "different seeds should diverge");
    }

    #[test]
    fn downgraded_router_renegotiates_after_faulted_reconnect() {
        // v1 router against a v0 cache: every fresh connection must
        // re-open at the preferred v1 and be downgraded from scratch —
        // downgrades are per-connection, not per-router.
        let options = ChaosOptions {
            cache_version: PROTOCOL_V0,
            router_version: PROTOCOL_V1,
            ..ChaosOptions::default()
        };
        let mut chaos = ChaosSession::with_options(
            11,
            &vrps(&["10.0.0.0/8 => AS1"]),
            4,
            FaultConfig::heavy(),
            options,
        );
        let mut downgrades = 0;
        for i in 0u32..8 {
            chaos.apply_epoch(&vrps(&[&format!("10.{}.0.0/16 => AS{}", i, 70 + i)]), &[]);
            let settled = chaos.settle();
            assert!(settled.invariant_holds());
        }
        for event in chaos.trace() {
            if matches!(event, TraceEvent::Downgrade { .. }) {
                downgrades += 1;
            }
        }
        let reconnects = chaos
            .trace()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Reconnect { .. }))
            .count();
        if reconnects > 0 {
            assert!(
                downgrades > 1,
                "each post-fault reconnect must renegotiate from v1 \
                 ({reconnects} reconnects, {downgrades} downgrades)"
            );
        }
        // Every reconnect re-opened at the preferred version.
        for event in chaos.trace() {
            if let TraceEvent::Reconnect { version } = event {
                assert_eq!(*version, PROTOCOL_V1);
            }
        }
    }

    #[test]
    fn blackout_goes_stale_then_expires_then_heals() {
        // Total loss: every frame dropped. The router must degrade
        // honestly (Stale → Expired, data flushed), then heal to Fresh
        // once the pipe clears.
        let blackout = FaultConfig {
            drop: 1.0,
            ..FaultConfig::none()
        };
        let mut chaos = ChaosSession::new(3, &vrps(&["10.0.0.0/8 => AS1"]), 8, blackout);
        // First, sync cleanly by swapping in a quiet plan.
        chaos.link.plan = FaultPlan::quiet();
        assert!(chaos.settle().converged);
        assert_eq!(chaos.router().freshness(), Freshness::Fresh);

        // Now the blackout: churn the cache, watch the router degrade.
        chaos.link.plan = FaultPlan::new(8, blackout);
        chaos.apply_epoch(&vrps(&["11.0.0.0/8 => AS2"]), &[]);
        let settled = chaos.settle();
        assert!(!settled.converged);
        assert_ne!(settled.freshness, Freshness::Fresh);
        assert!(settled.invariant_holds());
        assert!(
            chaos.trace().contains(&TraceEvent::Expired),
            "a long blackout must trip the Expire timer"
        );
        assert!(chaos.router().vrps().is_empty(), "expired data is flushed");

        // Heal the pipe: full recovery to Fresh and convergence.
        chaos.link.plan = FaultPlan::quiet();
        let settled = chaos.settle();
        assert!(settled.converged);
        assert_eq!(settled.freshness, Freshness::Fresh);
    }

    #[test]
    fn split_frames_recovers_frame_boundaries() {
        let mut bytes = Vec::new();
        Pdu::ResetQuery
            .as_wire()
            .encode_into(PROTOCOL_V1, &mut bytes);
        let one = bytes.len();
        Pdu::SerialQuery {
            session_id: 1,
            serial: 2,
        }
        .as_wire()
        .encode_into(PROTOCOL_V1, &mut bytes);
        let frames: Vec<&[u8]> = split_frames(&bytes).collect();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].len(), one);
        // A trailing partial frame still comes out as a chunk.
        let frames: Vec<&[u8]> = split_frames(&bytes[..one + 3]).collect();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].len(), 3);
    }
}
