//! Differential property suite for the flat-graph propagation engine.
//!
//! The engine ([`bgpsim::PropagationEngine`]) must be **bit-identical**
//! to the reference implementation (`support/reference.rs`, the heap
//! search the engine replaced) — same routes, same deterministic
//! tie-breaks, same `next_hop` choices — on:
//!
//! * random topologies (sizes, tier mixes, peering densities),
//! * random multi-seed sets (origins, forged origins, prepended paths —
//!   up to and including [`PropagationEngine::max_seed_len`], so queues
//!   hold duplicate and stale entries and long runs of empty buckets),
//! * random import filters (hash-derived accept/reject worlds: one
//!   accepting ~¾ of (AS, origin) pairs, and on wider topologies one
//!   where ~¾ of the ASes drop an Invalid origin), and
//! * precomputed [`bgpsim::OriginFilter`]s vs the equivalent per-edge
//!   VRP validation closure.
//!
//! The comparison is between the engine's [`bgpsim::Propagation`], read
//! through its iterator, and the reference's per-AS route vector.
//!
//! It must also be **reuse-clean**: back-to-back runs through one
//! [`bgpsim::Workspace`] are identical to fresh-workspace runs — the
//! test that catches stale-epoch scratch bugs — and leave every table
//! stored earlier untouched — and **order-exact**: the
//! sequence of import decisions, not only the routes they lead to, is
//! pinned against the sorted-bucket engine it replaced. Past its bound
//! the engine must **refuse**: there is no second implementation to
//! fall back to.

use proptest::prelude::*;

use bgpsim::engine::{CompiledPolicies, OriginFilter};
use bgpsim::routing::Seed;
use bgpsim::topology::{Topology, TopologyConfig};
use bgpsim::{FilterFootprint, Propagation, PropagationEngine, Workspace};
use rpki_prefix::Prefix;
use rpki_roa::{Asn, RouteOrigin, Vrp};
use rpki_rov::{RovPolicy, VrpIndex};

#[path = "support/reference.rs"]
mod reference;
use reference::{propagate_reference, Routes};

/// An engine table in the reference's currency.
fn routes(table: &Propagation) -> Routes {
    table.iter().collect()
}

fn arb_config() -> impl Strategy<Value = TopologyConfig> {
    (30usize..160, 2usize..6, 1usize..4, 0u32..6, 0u64..1000).prop_map(
        |(n, tier1, max_providers, peer_decile, seed)| TopologyConfig {
            n,
            tier1,
            max_providers,
            peer_prob: peer_decile as f64 / 10.0,
            seed,
        },
    )
}

/// Random seed sets: placement, initial path length, and claimed origin
/// all vary — including claimed origins that belong to *other* ASes
/// (hijack shapes) and several seeds at one AS. The length pick is
/// topology-relative (see [`materialize_seeds`]): below 4 it is the
/// length itself (0 = origin, 1 = forged, more = prepended); from 4 up
/// it counts back from the longest length the engine takes, the near
/// picks weighted so that the bound itself is drawn often.
fn arb_seeds() -> impl Strategy<Value = Vec<(prop::sample::Index, u32, prop::sample::Index)>> {
    prop::collection::vec(
        (
            any::<prop::sample::Index>(),
            prop_oneof![0u32..4, 4u32..8, 8u32..700],
            any::<prop::sample::Index>(),
        ),
        1..9,
    )
}

fn materialize_seeds(
    t: &Topology,
    picks: &[(prop::sample::Index, u32, prop::sample::Index)],
) -> Vec<Seed> {
    let cap = PropagationEngine::new(t).max_seed_len();
    picks
        .iter()
        .map(|(at, pick, claimed)| Seed {
            at: at.index(t.len()),
            path_len: if *pick < 4 {
                *pick
            } else {
                cap - (*pick - 4) % (cap - 3)
            },
            claimed_origin: t.asn(claimed.index(t.len())),
        })
        .collect()
}

/// A deterministic pseudo-random accept filter over (AS, claimed origin).
fn hash_filter(salt: u64) -> impl Fn(usize, Asn) -> bool {
    move |at, origin| {
        let x = (at as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(origin.into_u32()).wrapping_mul(0xD6E8_FEB8_6659_FD93))
            ^ salt;
        // Accept ~¾ of (AS, origin) pairs.
        x.wrapping_mul(0xFF51_AFD7_ED55_8CCD) > u64::MAX / 4
    }
}

/// Wider topologies where ASes may have up to 2–3 providers: several
/// bitset words, and customers with several routed providers, so the
/// order in which a phase visits ASes decides `next_hop` ties.
fn arb_wide_config() -> impl Strategy<Value = TopologyConfig> {
    (200usize..600, 2usize..6, 2usize..4, 0u32..6, 0u64..1000).prop_map(
        |(n, tier1, max_providers, peer_decile, seed)| TopologyConfig {
            n,
            tier1,
            max_providers,
            peer_prob: peer_decile as f64 / 10.0,
            seed,
        },
    )
}

/// Like the paper's `Uniform p=0.75` deployment facing one Invalid
/// origin: a per-AS hash picks ~¾ of the ASes as adopters, which drop
/// every route claiming `invalid`, so ~¼ of the ASes accept it. Routes
/// claiming any other origin pass everywhere.
fn adopters_drop(salt: u64, invalid: Asn) -> impl Fn(usize, Asn) -> bool {
    move |at, origin| {
        let x = (at as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
        origin != invalid || x.wrapping_mul(0xFF51_AFD7_ED55_8CCD) <= u64::MAX / 4
    }
}

/// 32 cases per property, or `PROPTEST_CASES` where it is set.
fn cases() -> ProptestConfig {
    match std::env::var_os("PROPTEST_CASES") {
        Some(_) => ProptestConfig::default(),
        None => ProptestConfig::with_cases(32),
    }
}

proptest! {
    #![proptest_config(cases())]

    /// Engine == reference on random topologies, seed sets, and filters.
    #[test]
    fn engine_is_bit_identical_to_reference(
        config in arb_config(),
        wide in arb_wide_config(),
        seed_picks in arb_seeds(),
        salt in any::<u64>(),
    ) {
        let t = Topology::generate(config);
        let seeds = materialize_seeds(&t, &seed_picks);
        let engine = PropagationEngine::new(&t);
        let mut ws = Workspace::new();

        // Accept-all world.
        let open_engine = engine.propagate(&seeds, &|_: usize, _: Asn| true, &mut ws);
        let open_reference = propagate_reference(&t, &seeds, &|_, _| true);
        prop_assert_eq!(routes(&open_engine), open_reference);

        // Random partial-filter world (same workspace, back to back).
        let filter = hash_filter(salt);
        let filtered_engine = engine.propagate(&seeds, &filter, &mut ws);
        let filtered_reference = propagate_reference(&t, &seeds, &|at, o| filter(at, o));
        prop_assert_eq!(routes(&filtered_engine), filtered_reference);

        // And the open world once more: whatever the filtered run left
        // in the workspace's queue and bitmaps must not leak into it.
        let open_again = engine.propagate(&seeds, &|_: usize, _: Asn| true, &mut ws);
        prop_assert_eq!(routes(&open_again), open_reference);
        // Nor do later runs reach back into a table already handed out:
        // the first one, two runs of its workspace ago, reads as it did.
        prop_assert_eq!(routes(&open_engine), open_reference);

        // Counters agree with the reference's.
        prop_assert_eq!(filtered_engine.len(), t.len());
        prop_assert_eq!(
            filtered_engine.reached(),
            filtered_reference.iter().flatten().count()
        );

        // A deployment world on a wide topology, where the first seed's
        // origin is Invalid and ~¼ of the ASes accept it. Its ties span
        // bitset words, which catches a phase that visits words out of
        // order, as the small topologies above rarely can.
        let t = Topology::generate(wide);
        let seeds = materialize_seeds(&t, &seed_picks);
        let deployed = adopters_drop(salt, seeds[0].claimed_origin);
        let deployed_engine = PropagationEngine::new(&t).propagate(&seeds, &deployed, &mut ws);
        let deployed_reference = propagate_reference(&t, &seeds, &|at, o| deployed(at, o));
        prop_assert_eq!(routes(&deployed_engine), deployed_reference);
    }

    /// Back-to-back runs through one workspace are identical to
    /// fresh-workspace runs — stale epoch stamps, leftover bucket
    /// entries, or missed resets would surface here.
    #[test]
    fn workspace_reuse_matches_fresh_workspaces(
        configs in prop::collection::vec(arb_config(), 2..4),
        seed_picks in arb_seeds(),
        salt in any::<u64>(),
    ) {
        let mut shared = Workspace::new();
        let filter = hash_filter(salt);
        // Interleave differently-sized topologies and filters through the
        // same workspace; every run must match a fresh one.
        for config in configs {
            let t = Topology::generate(config);
            let seeds = materialize_seeds(&t, &seed_picks);
            let engine = PropagationEngine::new(&t);
            for use_filter in [false, true, true] {
                let (reused, fresh) = if use_filter {
                    (
                        engine.propagate(&seeds, &filter, &mut shared),
                        engine.propagate(&seeds, &filter, &mut Workspace::new()),
                    )
                } else {
                    (
                        engine.propagate(&seeds, &|_: usize, _: Asn| true, &mut shared),
                        engine.propagate(&seeds, &|_: usize, _: Asn| true, &mut Workspace::new()),
                    )
                };
                prop_assert_eq!(routes(&reused), routes(&fresh));
            }
        }
    }

    /// The precomputed OriginFilter path (compiled adopter bitset + one
    /// VRP resolution per origin) equals per-edge index validation fed to
    /// the reference implementation.
    #[test]
    fn origin_filter_equals_per_edge_validation(
        config in arb_config(),
        victim_pick in any::<prop::sample::Index>(),
        attacker_pick in any::<prop::sample::Index>(),
        max_len in 16u8..26,
        wrong_origin in any::<bool>(),
        policy_salt in any::<u64>(),
    ) {
        let t = Topology::generate(config);
        let victim = victim_pick.index(t.len());
        let attacker = attacker_pick.index(t.len());
        let p: Prefix = "168.122.0.0/16".parse().unwrap();
        let roa_asn = if wrong_origin { t.asn(attacker) } else { t.asn(victim) };
        let vrps: VrpIndex = [Vrp::new(p, max_len, roa_asn)].into_iter().collect();
        let policies: Vec<RovPolicy> = (0..t.len())
            .map(|at| {
                if (at as u64).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ policy_salt > u64::MAX / 2 {
                    RovPolicy::DropInvalid
                } else {
                    RovPolicy::AcceptAll
                }
            })
            .collect();
        let compiled = CompiledPolicies::compile(&policies);

        let seeds = vec![
            Seed::origin(victim, t.asn(victim)),
            Seed::forged(attacker, t.asn(victim)),
        ];
        let origins = [t.asn(victim)];
        let fast = OriginFilter::new(&vrps, p, &origins, &compiled);
        let engine = PropagationEngine::new(&t);
        let via_filter = engine.propagate(
            &seeds,
            &|at: usize, o: Asn| fast.accept(at, o),
            &mut Workspace::new(),
        );
        let via_validation = propagate_reference(&t, &seeds, &|at, o| {
            policies[at].permits(vrps.validate(&RouteOrigin::new(p, o)))
        });
        prop_assert_eq!(routes(&via_filter), via_validation);
    }
}

/// A long reuse chain over one topology — hammers epoch advancement on a
/// single workspace far past anything the proptests draw.
#[test]
fn long_reuse_chain_stays_clean() {
    let t = Topology::generate(TopologyConfig {
        n: 120,
        tier1: 4,
        ..TopologyConfig::default()
    });
    let stubs = t.stubs();
    let engine = PropagationEngine::new(&t);
    let mut shared = Workspace::new();
    for i in 0..200 {
        let a = stubs[i % stubs.len()];
        let b = stubs[(i * 7 + 3) % stubs.len()];
        let seeds = [Seed::origin(a, t.asn(a)), Seed::forged(b, t.asn(a))];
        let reused = engine.propagate(&seeds, &|_: usize, _: Asn| true, &mut shared);
        let reference = propagate_reference(&t, &seeds, &|_, _| true);
        assert_eq!(routes(&reused), reference, "iteration {i}");
    }
}

/// The five-tier-1 default shape the relocated unit tests ran on.
fn topo(n: usize) -> Topology {
    Topology::generate(TopologyConfig {
        n,
        tier1: 5,
        ..TopologyConfig::default()
    })
}

/// One staged forged-origin trial — a loose-maxLength ROA, three ASes in
/// four dropping Invalid routes — at the sizes the proptests do not
/// reach: open and filtered routes, and the single-pass tally, all
/// against the reference with per-edge validation.
#[test]
fn staged_trial_matches_reference_at_a_thousand_and_ten_thousand_ases() {
    for n in [1_000usize, 10_000] {
        let t = Topology::generate(TopologyConfig {
            n,
            ..TopologyConfig::default()
        });
        let stubs = t.stubs();
        let (victim, attacker) = (stubs[0], stubs[stubs.len() / 2]);
        let p: Prefix = "168.122.0.0/16".parse().unwrap();
        let vrps: VrpIndex = [Vrp::new(p, 24, t.asn(victim))].into_iter().collect();
        let policies: Vec<RovPolicy> = (0..t.len())
            .map(|at| match at % 4 {
                0 => RovPolicy::AcceptAll,
                _ => RovPolicy::DropInvalid,
            })
            .collect();
        let compiled = CompiledPolicies::compile(&policies);
        let seeds = [
            Seed::origin(victim, t.asn(victim)),
            Seed::forged(attacker, t.asn(victim)),
        ];
        let fast = OriginFilter::new(&vrps, p, &[t.asn(victim)], &compiled);
        let fast = |at: usize, o: Asn| fast.accept(at, o);
        let per_edge =
            |at: usize, o: Asn| policies[at].permits(vrps.validate(&RouteOrigin::new(p, o)));
        let engine = PropagationEngine::new(&t);
        let mut ws = Workspace::new();

        let open = engine.propagate(&seeds, &|_: usize, _: Asn| true, &mut ws);
        let open_reference = propagate_reference(&t, &seeds, &|_, _| true);
        assert_eq!(routes(&open), open_reference, "accept-all, n={n}");
        let filtered = engine.propagate(&seeds, &fast, &mut ws);
        let reference = propagate_reference(&t, &seeds, &per_edge);
        assert_eq!(routes(&filtered), reference, "rov-filtered, n={n}");

        let outcome = engine.propagate_outcome(&seeds, &fast, &mut ws, None, attacker, victim);
        let others = || (0..n).filter(|&at| at != attacker && at != victim);
        let lands = |at: usize| reference[at].map(|r| r.delivers_to);
        assert_eq!(
            outcome.intercepted,
            others().filter(|&at| lands(at) == Some(attacker)).count()
        );
        assert_eq!(
            outcome.disconnected,
            others().filter(|&at| lands(at).is_none()).count()
        );
        assert_eq!(
            outcome.intercepted + outcome.legitimate + outcome.disconnected,
            n - 2,
            "the tally covers every other AS, n={n}"
        );
    }
}

/// One workspace carried across topologies of different sizes resizes
/// its arrays without leaking state from the previous one.
#[test]
fn workspace_survives_topology_size_changes() {
    let mut ws = Workspace::new();
    for n in [60, 200, 60, 140] {
        let t = topo(n);
        let stub = t.stubs()[0];
        let seeds = [Seed::origin(stub, t.asn(stub))];
        let got = PropagationEngine::new(&t).propagate(&seeds, &|_: usize, _: Asn| true, &mut ws);
        let reference = propagate_reference(&t, &seeds, &|_, _| true);
        assert_eq!(routes(&got), reference, "n={n}");
    }
}

/// `routing::propagate` — the one-call, fresh-workspace entry point — on
/// the canonical 300-AS hijack.
#[test]
fn propagate_matches_reference_on_the_standard_world() {
    let t = topo(300);
    let stubs = t.stubs();
    let (victim, attacker) = (stubs[0], stubs[stubs.len() / 2]);
    let seeds = [
        Seed::origin(victim, t.asn(victim)),
        Seed::forged(attacker, t.asn(victim)),
    ];
    let engine = bgpsim::routing::propagate(&t, &seeds, &|_, _| true);
    let reference = propagate_reference(&t, &seeds, &|_, _| true);
    assert_eq!(routes(&engine), reference);
    assert_eq!(engine.reached(), reference.iter().flatten().count());
}

/// A seed past the bound is refused by both entry points, whether it
/// is one too long or adversarially long; at the bound the engine runs.
#[test]
fn seed_lengths_past_the_bound_are_refused() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let t = topo(60);
    let stubs = t.stubs();
    let engine = PropagationEngine::new(&t);
    let bound = engine.max_seed_len();
    assert_eq!(bound, 4 * (t.len() as u32 + 2));
    let seeds = |path_len| {
        [
            Seed {
                at: stubs[0],
                path_len,
                claimed_origin: t.asn(stubs[0]),
            },
            Seed::origin(stubs[1], t.asn(stubs[1])),
        ]
    };
    let accept_all = |_: usize, _: Asn| true;
    let at_bound = engine.propagate(&seeds(bound), &accept_all, &mut Workspace::new());
    let reference = propagate_reference(&t, &seeds(bound), &|_, _| true);
    assert_eq!(routes(&at_bound), reference);
    for path_len in [bound + 1, u32::MAX - 2] {
        let refused = catch_unwind(AssertUnwindSafe(|| {
            engine.propagate(&seeds(path_len), &accept_all, &mut Workspace::new())
        }));
        assert!(refused.is_err(), "propagate took length {path_len}");
        let refused = catch_unwind(AssertUnwindSafe(|| {
            let (attacker, victim) = (stubs[0], stubs[1]);
            let ws = &mut Workspace::new();
            engine.propagate_outcome(&seeds(path_len), &accept_all, ws, None, attacker, victim)
        }));
        assert!(refused.is_err(), "propagate_outcome took length {path_len}");
    }
}

/// The import decisions of one fixed trial — a forged-origin subprefix
/// hijack against a minimal ROA on 400 ASes, every third AS dropping
/// Invalid routes — as [`FilterFootprint::decisions`] lists them: `AS
/// index << 1 | accepted`, in first-consulted order. Taken from the
/// engine that sorted each bucket before draining it.
const FOOTPRINT_400: [u32; 318] = [
    559, 71, 17, 32, 44, 13, 14, 5, 1, 2, 7, 8, 11, 707, 50, 59, 74, 197, 35, 37, 38, 53, 73, 115,
    119, 122, 125, 134, 149, 188, 247, 248, 254, 271, 275, 281, 329, 385, 416, 476, 511, 577, 751,
    757, 787, 20, 31, 55, 62, 140, 143, 155, 307, 326, 467, 487, 527, 533, 578, 623, 709, 49, 86,
    61, 65, 77, 92, 98, 109, 113, 139, 145, 200, 221, 236, 277, 305, 313, 323, 332, 392, 410, 463,
    475, 512, 553, 557, 629, 743, 745, 19, 23, 29, 83, 89, 95, 121, 185, 218, 356, 359, 383, 397,
    571, 601, 697, 722, 739, 776, 779, 79, 116, 137, 152, 203, 227, 278, 320, 404, 491, 541, 656,
    734, 791, 151, 158, 167, 170, 179, 353, 529, 793, 341, 395, 223, 632, 260, 266, 377, 584, 683,
    758, 773, 409, 439, 613, 85, 317, 347, 452, 107, 131, 479, 769, 163, 265, 427, 434, 572, 458,
    583, 26, 173, 176, 194, 199, 272, 349, 403, 499, 679, 782, 788, 80, 67, 68, 181, 182, 209, 229,
    235, 241, 283, 289, 343, 344, 521, 565, 608, 641, 731, 224, 431, 530, 551, 653, 665, 691, 799,
    110, 169, 217, 253, 398, 493, 625, 175, 215, 505, 589, 595, 692, 755, 193, 206, 367, 469, 470,
    649, 661, 230, 350, 523, 536, 631, 325, 331, 425, 617, 515, 673, 593, 524, 457, 695, 728, 581,
    157, 233, 319, 703, 437, 554, 721, 794, 239, 667, 337, 518, 187, 407, 245, 494, 650, 727, 719,
    422, 368, 500, 269, 482, 542, 560, 662, 674, 428, 290, 374, 635, 710, 733, 781, 545, 677, 619,
    620, 461, 599, 602, 566, 91, 127, 263, 725, 740, 365, 386, 251, 293, 419, 668, 362, 161, 464,
    749, 211, 761, 637, 335, 535, 737, 308, 443, 767, 497, 644, 785, 752, 611, 133, 146, 446, 257,
    361, 539, 575, 680, 775,
];

/// The executor replays an outcome when another deployment reproduces
/// the recorded footprint, so the engine owes it not just the same
/// routes but the same decisions in the same order: the bitmap drain
/// must consult ASes exactly as the sorted drain did.
#[test]
fn footprint_order_matches_the_sorted_bucket_engine() {
    let t = Topology::generate(TopologyConfig {
        n: 400,
        tier1: 6,
        ..TopologyConfig::default()
    });
    let stubs = t.stubs();
    let (victim, attacker) = (stubs[0], stubs[stubs.len() / 2]);
    let p: Prefix = "168.122.0.0/16".parse().unwrap();
    let q: Prefix = "168.122.0.0/24".parse().unwrap();
    let vrps: VrpIndex = [Vrp::exact(p, t.asn(victim))].into_iter().collect();
    let policies: Vec<RovPolicy> = (0..t.len())
        .map(|at| match at % 3 {
            1 => RovPolicy::DropInvalid,
            _ => RovPolicy::AcceptAll,
        })
        .collect();
    let compiled = CompiledPolicies::compile(&policies);
    let accept_q = OriginFilter::new(&vrps, q, &[t.asn(victim)], &compiled);
    let footprint = std::cell::RefCell::new(FilterFootprint::new());
    footprint.borrow_mut().begin(t.len());
    PropagationEngine::new(&t).propagate(
        &[Seed::forged(attacker, t.asn(victim))],
        &|at: usize, origin: Asn| {
            let accepted = accept_q.accept(at, origin);
            if accept_q.origin_is_invalid(origin) {
                footprint.borrow_mut().note(at, accepted);
            }
            accepted
        },
        &mut Workspace::new(),
    );
    let got: Vec<u32> = footprint
        .borrow()
        .decisions()
        .map(|(at, accepted)| (at as u32) << 1 | u32::from(accepted))
        .collect();
    assert_eq!(got, FOOTPRINT_400);
}
