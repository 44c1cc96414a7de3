//! Oracle suite for the answers a staging reads off the topology's
//! structure instead of propagating: an announcement no AS filters
//! reaches every AS ([`Topology`]'s hierarchy invariant).
//!
//! On random topologies from both generators, degenerate shapes
//! included (one to three tier-1s, one provider per AS, no peering or
//! peering on every draw, a handful of ASes):
//!
//! * **the point query** — [`PropagationEngine::unfiltered_path_len`]
//!   equals the path length an accept-all [`propagate`] settles at
//!   every AS, whose route claims the origin's ASN;
//! * **alone stagings** — a more-specific announcement, transparent or
//!   filtered, under random VRPs and deployments, stages to the outcome
//!   of the staging rebuilt from public engine calls: the victim-only
//!   baseline by `propagate`, then `propagate_outcome` over it;
//! * **route-leak plans** — what [`RouteLeak`] announces equals the
//!   route the baseline gives the attacker;
//! * **the lane kernel** — a head-to-head staging no AS filters is
//!   settled by the engine's outcome-only lane kernel, which pulls the
//!   provider phase up the index order instead of draining a queue;
//!   `run_strategy` runs it as a batch of one. Its outcome equals an
//!   accept-all `propagate_outcome` and the heap reference's routes
//!   (`support/reference.rs`) tallied, for either claimed origin, seed
//!   lengths 0–3 and the engine's bound, and the attacker's index below
//!   or above the victim's. Every executor path runs the kernel,
//!   `run_plan_collected` included, so this and the lane differential
//!   inside `engine.rs` (full batches against the push run) are its
//!   independent oracles.
//!
//! The VRP sets include two that make the victim's own announcement
//! Invalid, where no structural answer applies.

use std::sync::Mutex;

use proptest::prelude::*;

use bgpsim::routing::{propagate, Seed};
use bgpsim::{
    run_strategy, AttackAnnouncement, AttackOutcome, AttackPlan, AttackSetup, AttackerStrategy,
    CompiledPolicies, InternetConfig, OriginFilter, PropagationEngine, RouteLeak, StrategyContext,
    Topology, TopologyConfig, Workspace,
};
use rpki_prefix::Prefix;
use rpki_roa::Vrp;
use rpki_rov::{RovPolicy, VrpIndex};

#[path = "support/reference.rs"]
mod reference;
use reference::propagate_reference;

/// A topology configuration for either generator.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Flat(TopologyConfig),
    Internet(InternetConfig),
}

impl Shape {
    fn build(self) -> Topology {
        match self {
            Shape::Flat(config) => Topology::generate(config),
            Shape::Internet(config) => Topology::generate_internet(config),
        }
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        (0usize..2, 1usize..6, 1usize..200),
        1usize..4,
        0usize..3,
        0usize..60,
        any::<u64>(),
    )
        .prop_map(
            |((internet, tier1, extra), max_providers, peering, transit_pct, seed)| {
                let n = tier1 + extra;
                if internet == 1 {
                    Shape::Internet(InternetConfig {
                        n,
                        tier1,
                        transit_frac: transit_pct as f64 / 100.0,
                        max_providers,
                        peer_links_per_as: [0.0, 1.5, 6.0][peering],
                        seed,
                    })
                } else {
                    Shape::Flat(TopologyConfig {
                        n,
                        tier1,
                        max_providers,
                        peer_prob: [0.0, 0.2, 1.0][peering],
                        seed,
                    })
                }
            },
        )
}

/// The victim's prefix and the subprefix the stagings announce.
fn prefixes() -> (Prefix, Prefix) {
    (
        "168.122.0.0/16".parse().unwrap(),
        "168.122.0.0/24".parse().unwrap(),
    )
}

/// VRP set `kind` for the victim's prefix: none, loose, minimal, and two
/// that authorize the attacker instead, making the victim's own
/// announcement Invalid (exactly, and with the subprefix allowed).
fn vrps(kind: usize, t: &Topology, victim: usize, attacker: usize) -> VrpIndex {
    let (p, q) = prefixes();
    let (v, a) = (t.asn(victim), t.asn(attacker));
    match kind {
        0 => VrpIndex::new(),
        1 => [Vrp::new(p, q.len(), v)].into_iter().collect(),
        2 => [Vrp::exact(p, v)].into_iter().collect(),
        3 => [Vrp::exact(p, a)].into_iter().collect(),
        _ => [Vrp::new(p, q.len(), a)].into_iter().collect(),
    }
}

const VRP_KINDS: usize = 5;

/// A deployment where about `tenths / 10` of the ASes drop Invalid
/// routes, drawn from `seed`.
fn deployment(t: &Topology, tenths: u64, seed: u64) -> CompiledPolicies {
    let policies: Vec<RovPolicy> = (0..t.len() as u64)
        .map(|at| {
            let draw =
                (seed ^ at.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            if (draw >> 32) % 10 < tenths {
                RovPolicy::DropInvalid
            } else {
                RovPolicy::AcceptAll
            }
        })
        .collect();
    CompiledPolicies::compile(&policies)
}

/// Makes one fixed announcement, measured on its own prefix.
struct Fixed(AttackAnnouncement);

impl AttackerStrategy for Fixed {
    fn label(&self) -> String {
        "fixed announcement".to_string()
    }

    fn plan(&self, _: &StrategyContext<'_>) -> AttackPlan {
        AttackPlan {
            announcement: Some(self.0),
            target: self.0.prefix,
        }
    }
}

/// Plans as [`RouteLeak`] does and records that plan's announcement
/// next to the one replaying the baseline's route at the attacker.
#[derive(Default)]
struct LeakProbe(Mutex<Option<[Option<AttackAnnouncement>; 2]>>);

impl AttackerStrategy for LeakProbe {
    fn label(&self) -> String {
        "route leak probe".to_string()
    }

    fn plan(&self, ctx: &StrategyContext<'_>) -> AttackPlan {
        let plan = RouteLeak.plan(ctx);
        let replayed = ctx
            .baseline()
            .route(ctx.attacker)
            .map(|learned| AttackAnnouncement {
                prefix: ctx.victim_prefix,
                claimed_origin: learned.claimed_origin,
                path_len: learned.path_len,
            });
        *self.0.lock().unwrap() = Some([plan.announcement, replayed]);
        plan
    }
}

/// The more-specific staging as public engine calls build it: the
/// victim-only baseline, then the attacker's announcement propagated
/// alone and tallied over it.
fn staged_by_hand(setup: &AttackSetup<'_>, ann: AttackAnnouncement) -> AttackOutcome {
    let t = setup.topology;
    let engine = PropagationEngine::new(t);
    let mut ws = Workspace::new();
    let victim_asn = t.asn(setup.victim);
    let accept_p = OriginFilter::new(
        setup.vrps,
        setup.victim_prefix,
        &[victim_asn],
        setup.policies,
    );
    let baseline = engine.propagate(
        &[Seed::origin(setup.victim, victim_asn)],
        &|at, origin| accept_p.accept(at, origin),
        &mut ws,
    );
    let accept = OriginFilter::new(
        setup.vrps,
        ann.prefix,
        &[ann.claimed_origin],
        setup.policies,
    );
    let seed = Seed {
        at: setup.attacker,
        path_len: ann.path_len,
        claimed_origin: ann.claimed_origin,
    };
    engine.propagate_outcome(
        &[seed],
        &|at, origin| accept.accept(at, origin),
        &mut ws,
        Some(&baseline),
        setup.attacker,
        setup.victim,
    )
}

/// Where traffic for the victim's prefix lands when the victim and an
/// attacker at `attacker` announcing `ann` compete head to head and no
/// AS filters: the staging as `run_strategy` runs it (the kernel), the
/// accept-all push run's tally, and the reference's routes tallied.
/// `Err` names the three if they differ.
fn head_to_head_agree(
    t: &Topology,
    victim: usize,
    attacker: usize,
    ann: AttackAnnouncement,
) -> Result<(), String> {
    let (p, q) = prefixes();
    let (no_roa, everyone_filters) = (
        VrpIndex::new(),
        CompiledPolicies::compile(&vec![RovPolicy::DropInvalid; t.len()]),
    );
    let setup = AttackSetup {
        topology: t,
        victim,
        attacker,
        victim_prefix: p,
        sub_prefix: q,
        vrps: &no_roa,
        policies: &everyone_filters,
    };
    let staged = run_strategy(&Fixed(ann), &setup);
    let seeds = [
        Seed::origin(victim, t.asn(victim)),
        Seed {
            at: attacker,
            path_len: ann.path_len,
            claimed_origin: ann.claimed_origin,
        },
    ];
    let pushed = PropagationEngine::new(t).propagate_outcome(
        &seeds,
        &|_, _| true,
        &mut Workspace::new(),
        None,
        attacker,
        victim,
    );
    let mut reference = AttackOutcome {
        intercepted: 0,
        legitimate: 0,
        disconnected: 0,
    };
    let routes = propagate_reference(t, &seeds, &|_, _| true);
    for (at, route) in routes.iter().enumerate() {
        match route {
            _ if at == attacker || at == victim => {}
            None => reference.disconnected += 1,
            Some(r) if r.delivers_to == attacker => reference.intercepted += 1,
            Some(_) => reference.legitimate += 1,
        }
    }
    if staged == pushed && pushed == reference {
        Ok(())
    } else {
        Err(format!(
            "kernel {staged:?}, push {pushed:?}, reference {reference:?}: \
             victim {victim}, attacker {attacker}, {ann:?}"
        ))
    }
}

/// The head-to-head announcement under test: the victim's prefix,
/// claiming the victim's origin (the forged-origin shape) or the
/// attacker's own (the prefix-hijack shape), at `path_len`.
fn head_to_head(
    t: &Topology,
    victim: usize,
    attacker: usize,
    claim_victim: bool,
    path_len: u32,
) -> AttackAnnouncement {
    AttackAnnouncement {
        prefix: prefixes().0,
        claimed_origin: t.asn(if claim_victim { victim } else { attacker }),
        path_len,
    }
}

/// Seed lengths 0–3, then the engine's bound.
fn path_len(t: &Topology, choice: usize) -> u32 {
    match choice {
        4 => PropagationEngine::new(t).max_seed_len(),
        short => short as u32,
    }
}

/// One staging's world: a topology, a victim and a distinct attacker,
/// VRP set `vrp_kind` (see [`vrps`]) and a deployment where about
/// `tenths / 10` of the ASes drop Invalid routes.
#[derive(Debug, Clone)]
struct World {
    shape: Shape,
    picks: (prop::sample::Index, prop::sample::Index),
    vrp_kind: usize,
    tenths: u64,
    deploy_seed: u64,
}

fn arb_world() -> impl Strategy<Value = World> {
    (
        arb_shape(),
        (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
        0..VRP_KINDS,
        0u64..=10,
        any::<u64>(),
    )
        .prop_map(|(shape, picks, vrp_kind, tenths, deploy_seed)| World {
            shape,
            picks,
            vrp_kind,
            tenths,
            deploy_seed,
        })
}

/// A [`World`] built.
struct Built {
    t: Topology,
    victim: usize,
    attacker: usize,
    vrps: VrpIndex,
    policies: CompiledPolicies,
}

impl World {
    fn build(&self) -> Built {
        let t = self.shape.build();
        let victim = self.picks.0.index(t.len());
        let attacker = (victim + 1 + self.picks.1.index(t.len() - 1)) % t.len();
        Built {
            vrps: vrps(self.vrp_kind, &t, victim, attacker),
            policies: deployment(&t, self.tenths, self.deploy_seed),
            t,
            victim,
            attacker,
        }
    }
}

impl Built {
    fn setup(&self) -> AttackSetup<'_> {
        let (p, q) = prefixes();
        AttackSetup {
            topology: &self.t,
            victim: self.victim,
            attacker: self.attacker,
            victim_prefix: p,
            sub_prefix: q,
            vrps: &self.vrps,
            policies: &self.policies,
        }
    }
}

/// 64 cases per property, or `PROPTEST_CASES` where it is set.
fn cases() -> ProptestConfig {
    match std::env::var_os("PROPTEST_CASES") {
        Some(_) => ProptestConfig::default(),
        None => ProptestConfig::with_cases(64),
    }
}

proptest! {
    #![proptest_config(cases())]

    /// The point query restates the three phases exactly: at every AS,
    /// for three origins per topology.
    #[test]
    fn point_query_equals_accept_all_propagation(
        shape in arb_shape(),
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 3),
    ) {
        let t = shape.build();
        let engine = PropagationEngine::new(&t);
        for pick in &picks {
            let origin = pick.index(t.len());
            let asn = t.asn(origin);
            let table = propagate(&t, &[Seed::origin(origin, asn)], &|_, _| true);
            for at in 0..t.len() {
                let route = table.route(at);
                prop_assert!(route.is_some(), "AS {} unreached from {} in {:?}", at, origin, shape);
                prop_assert_eq!(route.unwrap().claimed_origin, asn);
                prop_assert_eq!(
                    engine.unfiltered_path_len(origin, at),
                    route.map(|r| r.path_len),
                    "AS {} from origin {} in {:?}",
                    at,
                    origin,
                    shape
                );
            }
        }
    }

    /// Alone stagings — transparent, filtered, and under VRPs that
    /// filter the victim itself — equal the parent's two-propagation
    /// staging, for either claimed origin and path lengths up to the
    /// engine's bound.
    #[test]
    fn alone_stagings_equal_the_baseline_staging(
        world in arb_world(),
        claim_victim in any::<bool>(),
        path_choice in 0usize..5,
    ) {
        let built = world.build();
        let (t, setup) = (&built.t, built.setup());
        let ann = AttackAnnouncement {
            prefix: setup.sub_prefix,
            claimed_origin: t.asn(if claim_victim { built.victim } else { built.attacker }),
            path_len: match path_choice {
                4 => PropagationEngine::new(t).max_seed_len(),
                short => short as u32,
            },
        };
        prop_assert_eq!(
            run_strategy(&Fixed(ann), &setup),
            staged_by_hand(&setup, ann),
            "{:?} announcing {:?}",
            world,
            ann
        );
    }

    /// A transparent head-to-head staging's kernel outcome equals the
    /// push run's and the reference's, wherever the two seeds sit.
    #[test]
    fn transparent_kernel_equals_push_and_reference(
        shape in arb_shape(),
        picks in (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
        claim_victim in any::<bool>(),
        path_choice in 0usize..5,
    ) {
        let t = shape.build();
        let victim = picks.0.index(t.len());
        let attacker = (victim + 1 + picks.1.index(t.len() - 1)) % t.len();
        let ann = head_to_head(&t, victim, attacker, claim_victim, path_len(&t, path_choice));
        let agreed = head_to_head_agree(&t, victim, attacker, ann);
        prop_assert!(agreed.is_ok(), "{} in {:?}", agreed.unwrap_err(), shape);
    }

    /// A route leak's announcement is the attacker's baseline route,
    /// whether or not some AS filters the victim.
    #[test]
    fn route_leak_plans_replay_the_baseline_route(world in arb_world()) {
        let built = world.build();
        let probe = LeakProbe::default();
        run_strategy(&probe, &built.setup());
        let [planned, replayed] = probe.0.into_inner().unwrap().expect("planned once");
        prop_assert_eq!(planned, replayed, "{:?}", world);
    }
}

/// Every two-to-four-AS topology either generator builds from a few
/// seeds, with a label naming its shape.
fn tiny_topologies() -> Vec<(String, Topology)> {
    let mut out = Vec::new();
    for seed in 0..8 {
        for (tier1, n) in [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)] {
            let label = format!("tier1 {tier1}, n {n}, seed {seed}");
            let flat = Topology::generate(TopologyConfig {
                n,
                tier1,
                max_providers: 2,
                peer_prob: 1.0,
                seed,
            });
            let internet = Topology::generate_internet(InternetConfig {
                n,
                tier1,
                transit_frac: 0.5,
                max_providers: 2,
                peer_links_per_as: 2.0,
                seed,
            });
            out.push((format!("flat {label}"), flat));
            out.push((format!("internet {label}"), internet));
        }
    }
    out
}

/// The smallest shapes, exhaustively: the point query at every
/// placement.
#[test]
fn tiny_topologies_agree_at_every_placement() {
    for (label, t) in tiny_topologies() {
        let engine = PropagationEngine::new(&t);
        for origin in 0..t.len() {
            let table = propagate(&t, &[Seed::origin(origin, t.asn(origin))], &|_, _| true);
            for at in 0..t.len() {
                assert_eq!(
                    engine.unfiltered_path_len(origin, at),
                    table.route(at).map(|r| r.path_len),
                    "origin {origin}, AS {at}, {label}"
                );
            }
        }
    }
}

/// The kernel on the smallest shapes, exhaustively: every ordered
/// victim/attacker pair, both claimed origins and every seed length
/// choice.
#[test]
fn tiny_topologies_pull_like_they_push() {
    for (label, t) in tiny_topologies() {
        for victim in 0..t.len() {
            for attacker in (0..t.len()).filter(|&a| a != victim) {
                for claim_victim in [false, true] {
                    for choice in 0..5 {
                        let len = path_len(&t, choice);
                        let ann = head_to_head(&t, victim, attacker, claim_victim, len);
                        if let Err(why) = head_to_head_agree(&t, victim, attacker, ann) {
                            panic!("{why}, {label}");
                        }
                    }
                }
            }
        }
    }
}
