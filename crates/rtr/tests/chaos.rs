//! The chaos battery: randomized fault schedules over churn timelines,
//! gated on the convergence-or-Stale invariant.
//!
//! For arbitrary seeds, fault profiles, and churn timelines, every
//! settle must leave the router either **bit-identical to an
//! independent [`CacheServer`] oracle replay** or honestly reporting
//! itself non-`Fresh` — with zero panics and zero livelocks (the
//! settle loop's hard cap converts a livelock into a test failure).
//! And because the whole harness is a pure function of its seed, the
//! same seed must replay the same recovery trace element for element.
//!
//! Run with `PROPTEST_CASES=4096` in CI for the deep sweep.

use proptest::prelude::*;
use rpki_roa::Vrp;
use rpki_rtr::cache::CacheServer;
use rpki_rtr::client::Freshness;
use rpki_rtr::faults::{ChaosOptions, ChaosSession, FaultConfig, TraceEvent};
use rpki_rtr::pdu::{PROTOCOL_V0, PROTOCOL_V1};

const SESSION: u16 = 700;

fn vrp(i: u32) -> Vrp {
    format!(
        "10.{}.{}.0/24 => AS{}",
        (i >> 8) & 0xFF,
        i & 0xFF,
        64496 + (i % 16)
    )
    .parse()
    .unwrap()
}

/// One churn epoch: how many fresh VRPs to announce and how many of
/// the oldest live ones to withdraw.
#[derive(Debug, Clone, Copy)]
struct Epoch {
    announce: u8,
    withdraw: u8,
}

fn arb_epoch() -> impl Strategy<Value = Epoch> {
    (1u8..4, 0u8..3).prop_map(|(announce, withdraw)| Epoch { announce, withdraw })
}

fn arb_profile() -> impl Strategy<Value = FaultConfig> {
    prop_oneof![
        1 => Just(FaultConfig::none()),
        3 => Just(FaultConfig::light()),
        3 => Just(FaultConfig::heavy()),
    ]
}

/// Computes the delta for `epoch` against the oracle's current state:
/// fresh announcements from a monotone counter, withdrawals of the
/// oldest live VRPs. The same delta is applied to both the oracle and
/// the chaos cache, so they evolve in lockstep by construction.
fn epoch_delta(oracle: &CacheServer, next_vrp: &mut u32, epoch: Epoch) -> (Vec<Vrp>, Vec<Vrp>) {
    let announced: Vec<Vrp> = (0..epoch.announce)
        .map(|_| {
            let v = vrp(*next_vrp);
            *next_vrp += 1;
            v
        })
        .collect();
    let withdrawn: Vec<Vrp> = oracle
        .vrps()
        .take(epoch.withdraw as usize)
        .cloned()
        .collect();
    (announced, withdrawn)
}

/// Drives one full chaos run and checks every invariant along the way.
/// Returns the trace for determinism comparisons.
fn run_chaos(
    seed: u64,
    profile: FaultConfig,
    epochs: &[Epoch],
    options: ChaosOptions,
) -> Vec<TraceEvent> {
    let initial: Vec<Vrp> = (0..4).map(vrp).collect();
    let mut oracle = CacheServer::with_version(SESSION, &initial, options.cache_version);
    let mut chaos = ChaosSession::with_options(SESSION, &initial, seed, profile, options);
    let mut next_vrp = 1000;

    for epoch in epochs {
        let (announced, withdrawn) = epoch_delta(&oracle, &mut next_vrp, *epoch);
        oracle.update_delta(&announced, &withdrawn);
        chaos.apply_epoch(&announced, &withdrawn);

        let settled = chaos.settle();
        assert!(
            settled.invariant_holds(),
            "seed {seed}: converged={} freshness={:?}",
            settled.converged,
            settled.freshness
        );
        // The chaos cache and the oracle evolve in lockstep; a
        // converged router must match the *independent* replay
        // bit for bit.
        assert_eq!(chaos.cache().serial(), oracle.serial());
        if settled.converged {
            assert_eq!(chaos.router().serial(), oracle.serial());
            assert!(
                chaos.router().vrps().iter().eq(oracle.vrps()),
                "seed {seed}: converged router diverges from the oracle replay"
            );
            assert_eq!(settled.freshness, Freshness::Fresh);
        }
    }
    chaos.trace().to_vec()
}

proptest! {
    /// The headline invariant: arbitrary fault schedules over arbitrary
    /// churn, and the router always converges to the oracle replay or
    /// honestly reports itself non-fresh. No panics, no livelocks.
    #[test]
    fn chaos_converges_or_degrades_honestly(
        seed in any::<u64>(),
        profile in arb_profile(),
        epochs in proptest::collection::vec(arb_epoch(), 1..8),
    ) {
        run_chaos(seed, profile, &epochs, ChaosOptions::default());
    }

    /// Determinism: the same seed replays the same recovery trace,
    /// element for element.
    #[test]
    fn same_seed_replays_the_same_trace(
        seed in any::<u64>(),
        epochs in proptest::collection::vec(arb_epoch(), 1..5),
    ) {
        let a = run_chaos(seed, FaultConfig::heavy(), &epochs, ChaosOptions::default());
        let b = run_chaos(seed, FaultConfig::heavy(), &epochs, ChaosOptions::default());
        prop_assert_eq!(a, b);
    }

    /// Version renegotiation after a faulted reconnect: a v1 router on
    /// a v0 cache is downgraded per-connection, so every fresh
    /// connection must re-open at the preferred v1 and renegotiate from
    /// scratch — the downgrade must never stick across connections.
    #[test]
    fn downgrades_never_stick_across_reconnects(
        seed in any::<u64>(),
        epochs in proptest::collection::vec(arb_epoch(), 1..6),
    ) {
        let options = ChaosOptions {
            cache_version: PROTOCOL_V0,
            router_version: PROTOCOL_V1,
            ..ChaosOptions::default()
        };
        let trace = run_chaos(seed, FaultConfig::heavy(), &epochs, options);
        // Every reconnect re-opens at the preferred version…
        for event in &trace {
            if let TraceEvent::Reconnect { version } = event {
                prop_assert_eq!(*version, PROTOCOL_V1);
            }
        }
        // …and each connection that then completed a sync was
        // downgraded anew: a Synced after a Reconnect implies a
        // Downgrade in between.
        let mut reconnected = false;
        for event in &trace {
            match event {
                TraceEvent::Reconnect { .. } => reconnected = true,
                TraceEvent::Downgrade { from, to } => {
                    prop_assert_eq!((*from, *to), (PROTOCOL_V1, PROTOCOL_V0));
                    reconnected = false;
                }
                TraceEvent::Synced { .. } => {
                    prop_assert!(
                        !reconnected,
                        "sync completed on a reconnected v1 connection with no renegotiation"
                    );
                }
                _ => {}
            }
        }
    }
}

/// FNV-1a over a trace's `Debug` rendering.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Recovery traces across the driver merge: for one heavy-fault seed,
/// against a v1 cache and against a v0-capped one (171 downgrades), the
/// trace hashes equal the values the separate `ChaosSession` round loop
/// produced at the commit before it was folded into `LiveSession`'s.
#[test]
fn heavy_seed_recovery_traces_are_pinned() {
    let epochs = [
        (3, 0),
        (2, 1),
        (1, 2),
        (3, 2),
        (2, 0),
        (1, 1),
        (3, 1),
        (2, 2),
    ]
    .map(|(announce, withdraw)| Epoch { announce, withdraw });
    let v0_cache = ChaosOptions {
        cache_version: PROTOCOL_V0,
        router_version: PROTOCOL_V1,
        ..ChaosOptions::default()
    };
    for (options, events, hash) in [
        (ChaosOptions::default(), 944, 0x9db2_0d14_ab26_7355u64),
        (v0_cache, 1953, 0x4764_24ef_97d9_393d),
    ] {
        let trace = run_chaos(42, FaultConfig::heavy(), &epochs, options);
        assert_eq!(trace.len(), events);
        assert_eq!(fnv1a(&format!("{trace:?}")), hash);
    }
}
