//! The four hijack types of §2/§4 and the data-plane interception metric.
//!
//! Each attack is staged as: the victim legitimately originates its
//! prefix; the attacker injects one crafted announcement; both propagate
//! under Gao–Rexford with per-AS ROV filtering; then every AS forwards a
//! packet addressed inside the *attacked* address block along its
//! longest-matching-prefix route, and we count where the packets land.

use rpki_prefix::Prefix;
use rpki_rov::VrpIndex;

use crate::engine::{with_workspace, CompiledPolicies, OriginFilter, PropagationEngine};
use crate::routing::{Propagation, Seed};
use crate::topology::Topology;

/// The attack being simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// `"p: m"` — the attacker claims to originate the victim's exact
    /// prefix (§2).
    PrefixHijack,
    /// `"q ⊂ p: m"` — the attacker originates a subprefix (§2).
    SubprefixHijack,
    /// `"p: m, v"` — the attacker appends the victim's ASN, announcing
    /// the exact prefix (the traditional forged-origin hijack, §4).
    ForgedOriginPrefixHijack,
    /// `"q ⊂ p: m, v"` — forged origin on an *unannounced* subprefix:
    /// the paper's headline attack (§4).
    ForgedOriginSubprefixHijack,
}

impl AttackKind {
    /// All four attacks.
    pub const ALL: [AttackKind; 4] = [
        AttackKind::PrefixHijack,
        AttackKind::SubprefixHijack,
        AttackKind::ForgedOriginPrefixHijack,
        AttackKind::ForgedOriginSubprefixHijack,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::PrefixHijack => "prefix hijack",
            AttackKind::SubprefixHijack => "subprefix hijack",
            AttackKind::ForgedOriginPrefixHijack => "forged-origin prefix hijack",
            AttackKind::ForgedOriginSubprefixHijack => "forged-origin subprefix hijack",
        }
    }

    /// `true` if the attacker announces the victim's exact prefix (so the
    /// two announcements compete head-to-head).
    pub fn same_prefix(self) -> bool {
        matches!(
            self,
            AttackKind::PrefixHijack | AttackKind::ForgedOriginPrefixHijack
        )
    }

    /// `true` if the attacker's path claims the victim as origin.
    pub fn forged_origin(self) -> bool {
        matches!(
            self,
            AttackKind::ForgedOriginPrefixHijack | AttackKind::ForgedOriginSubprefixHijack
        )
    }
}

/// One staged attack.
#[derive(Debug, Clone)]
pub struct AttackSetup<'a> {
    /// The AS graph.
    pub topology: &'a Topology,
    /// Victim AS index; it originates `victim_prefix`.
    pub victim: usize,
    /// Attacker AS index.
    pub attacker: usize,
    /// The victim's announced prefix `p`.
    pub victim_prefix: Prefix,
    /// The attacked subprefix `q ⊆ p` (equal to `p` for prefix-grained
    /// attacks; traffic is measured toward an address inside `q`).
    pub sub_prefix: Prefix,
    /// The published VRPs (the ROA configuration under test).
    pub vrps: &'a VrpIndex,
    /// Which ASes drop RPKI-Invalid routes: the deployment, compiled
    /// once ([`CompiledPolicies::compile`]) for every trial staged
    /// under it.
    pub policies: &'a CompiledPolicies,
}

/// Where each AS's traffic for the attacked block ends up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttackOutcome {
    /// ASes whose traffic reaches the attacker.
    pub intercepted: usize,
    /// ASes whose traffic reaches the victim.
    pub legitimate: usize,
    /// ASes with no route toward the target at all.
    pub disconnected: usize,
}

impl AttackOutcome {
    /// The longest-prefix-match data plane: every AS other than
    /// `attacker` and `victim` forwards along its route in the first of
    /// `tables` (most specific prefix first) that holds one, and lands
    /// at `attacker`, at a legitimate deliverer, or — with no route in
    /// any table — nowhere. Word-parallel over the membership bits; of a
    /// route it reads only `delivers_to`.
    pub(crate) fn tally(tables: &[&Propagation], attacker: usize, victim: usize) -> AttackOutcome {
        let n = tables[0].len();
        assert!(tables.iter().all(|t| t.len() == n), "tables of one graph");
        let mut outcome = AttackOutcome {
            intercepted: 0,
            legitimate: 0,
            disconnected: 0,
        };
        for w in 0..n.div_ceil(64) {
            // The ASes of this word still looking for a route.
            let mut open = if (w + 1) * 64 <= n {
                !0u64
            } else {
                (1u64 << (n % 64)) - 1
            };
            for excluded in [attacker, victim] {
                if excluded >> 6 == w {
                    open &= !(1 << (excluded & 63));
                }
            }
            for table in tables {
                let mut hits = table.set[w] & open;
                open &= !hits;
                while hits != 0 {
                    let at = (w << 6) + hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    if table.routes[at].delivers_to() == attacker {
                        outcome.intercepted += 1;
                    } else {
                        outcome.legitimate += 1;
                    }
                }
            }
            outcome.disconnected += open.count_ones() as usize;
        }
        outcome
    }

    /// The attacker's share of routed traffic: `intercepted /
    /// (intercepted + legitimate)`, the metric of §4.
    pub fn interception_fraction(&self) -> f64 {
        let routed = self.intercepted + self.legitimate;
        if routed == 0 {
            0.0
        } else {
            self.intercepted as f64 / routed as f64
        }
    }
}

/// A forged-origin subprefix trial against a victim with an arbitrary
/// announcement portfolio — the shape real ROA configurations produce
/// (§6's measured world has victims announcing parents, partial subtrees,
/// or scattered more-specifics).
#[derive(Debug, Clone)]
pub struct ForgedOriginTrial<'a> {
    /// The AS graph.
    pub topology: &'a Topology,
    /// Victim AS index.
    pub victim: usize,
    /// Attacker AS index.
    pub attacker: usize,
    /// Everything the victim announces (any set of prefixes).
    pub victim_prefixes: &'a [Prefix],
    /// The prefix the attacker announces with the victim's ASN appended.
    pub target: Prefix,
    /// The published VRPs.
    pub vrps: &'a VrpIndex,
    /// Which ASes drop RPKI-Invalid routes (the compiled deployment).
    pub policies: &'a CompiledPolicies,
}

/// Runs a forged-origin subprefix hijack against a multi-prefix victim.
///
/// The attacker announces `target` claiming the victim's origin; traffic
/// for an address inside `target` then follows each AS's longest matching
/// prefix among `target` and every covering victim announcement.
///
/// # Panics
///
/// Panics if attacker and victim coincide, or if `trial.policies` covers
/// a different number of ASes than the topology.
pub fn run_forged_origin_trial(trial: &ForgedOriginTrial<'_>) -> AttackOutcome {
    let t = trial.topology;
    assert_ne!(trial.attacker, trial.victim);
    assert_eq!(trial.policies.len(), t.len(), "policies cover the graph");
    let victim_asn = t.asn(trial.victim);

    // The only claimed origin in play is the victim's (the forged path
    // claims it too): one ROV verdict per propagated prefix.
    let engine = PropagationEngine::new(t);
    let propagate = |prefix: Prefix, seeds: &[Seed]| -> Propagation {
        let accept = OriginFilter::new(trial.vrps, prefix, &[victim_asn], trial.policies);
        with_workspace(|ws| engine.propagate(seeds, &|at, origin| accept.accept(at, origin), ws))
    };

    // The table stack, most specific first: the attacked prefix (the
    // forged announcement, plus the victim's own if it announces exactly
    // `target`), then every victim announcement covering it — the routes
    // traffic falls back to where the forged one was filtered.
    let mut covering: Vec<Prefix> = trial.victim_prefixes.to_vec();
    covering.retain(|p| p.covers(trial.target) && *p != trial.target);
    covering.sort_by_key(|p| std::cmp::Reverse(p.len()));
    let mut target_seeds = vec![Seed::forged(trial.attacker, victim_asn)];
    if trial.victim_prefixes.contains(&trial.target) {
        target_seeds.push(Seed::origin(trial.victim, victim_asn));
    }
    let victim_seed = [Seed::origin(trial.victim, victim_asn)];
    let stack: Vec<Propagation> = std::iter::once(propagate(trial.target, &target_seeds))
        .chain(covering.iter().map(|&p| propagate(p, &victim_seed)))
        .collect();
    let tables: Vec<&Propagation> = stack.iter().collect();
    AttackOutcome::tally(&tables, trial.attacker, trial.victim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::run_strategy;
    use crate::topology::TopologyConfig;
    use rpki_roa::Vrp;
    use rpki_rov::RovPolicy;

    struct World {
        topology: Topology,
        victim: usize,
        attacker: usize,
        p: Prefix,
        q: Prefix,
    }

    fn world() -> World {
        let topology = Topology::generate(TopologyConfig {
            n: 400,
            tier1: 6,
            ..TopologyConfig::default()
        });
        let stubs = topology.stubs();
        World {
            victim: stubs[0],
            attacker: stubs[stubs.len() / 2],
            topology,
            p: "168.122.0.0/16".parse().unwrap(),
            q: "168.122.0.0/24".parse().unwrap(),
        }
    }

    fn run(w: &World, kind: AttackKind, vrps: &VrpIndex, policy: RovPolicy) -> AttackOutcome {
        let policies = CompiledPolicies::compile(&vec![policy; w.topology.len()]);
        run_strategy(
            &kind,
            &AttackSetup {
                topology: &w.topology,
                victim: w.victim,
                attacker: w.attacker,
                victim_prefix: w.p,
                sub_prefix: w.q,
                vrps,
                policies: &policies,
            },
        )
    }

    fn non_minimal_roa(w: &World) -> VrpIndex {
        // ROA (p/16-24, victim): the §4 misconfiguration.
        [Vrp::new(w.p, 24, w.topology.asn(w.victim))]
            .into_iter()
            .collect()
    }

    fn minimal_roa(w: &World) -> VrpIndex {
        // ROA (p/16, victim) exactly: the paper's recommendation.
        [Vrp::exact(w.p, w.topology.asn(w.victim))]
            .into_iter()
            .collect()
    }

    #[test]
    fn subprefix_hijack_without_rpki_captures_everything() {
        let w = world();
        let empty = VrpIndex::new();
        let outcome = run(
            &w,
            AttackKind::SubprefixHijack,
            &empty,
            RovPolicy::AcceptAll,
        );
        assert_eq!(outcome.interception_fraction(), 1.0);
        assert_eq!(outcome.disconnected, 0);
    }

    #[test]
    fn rov_stops_plain_subprefix_hijack() {
        // §2: with the covering ROA and universal ROV, the classic
        // subprefix hijack is Invalid and fails completely.
        let w = world();
        let outcome = run(
            &w,
            AttackKind::SubprefixHijack,
            &minimal_roa(&w),
            RovPolicy::DropInvalid,
        );
        assert_eq!(outcome.intercepted, 0);
        assert_eq!(outcome.interception_fraction(), 0.0);
    }

    #[test]
    fn forged_origin_subprefix_hijack_beats_non_minimal_roa() {
        // §4's headline: the non-minimal ROA makes the forged announcement
        // VALID, and longest-prefix match hands the attacker everything.
        let w = world();
        let outcome = run(
            &w,
            AttackKind::ForgedOriginSubprefixHijack,
            &non_minimal_roa(&w),
            RovPolicy::DropInvalid,
        );
        assert_eq!(outcome.interception_fraction(), 1.0);
    }

    #[test]
    fn minimal_roa_stops_forged_origin_subprefix_hijack() {
        // §5: with a minimal ROA the subprefix is Invalid; nothing is
        // intercepted.
        let w = world();
        let outcome = run(
            &w,
            AttackKind::ForgedOriginSubprefixHijack,
            &minimal_roa(&w),
            RovPolicy::DropInvalid,
        );
        assert_eq!(outcome.intercepted, 0);
    }

    #[test]
    fn forged_origin_prefix_hijack_only_splits_traffic() {
        // §4/§5: demoted to the prefix-grained attack, the attacker must
        // compete with the legitimate route and gets only a fraction.
        let w = world();
        let outcome = run(
            &w,
            AttackKind::ForgedOriginPrefixHijack,
            &minimal_roa(&w),
            RovPolicy::DropInvalid,
        );
        let f = outcome.interception_fraction();
        assert!(f > 0.0, "some ASes are deceived");
        assert!(f < 1.0, "but not all: traffic splits (got {f})");
        assert!(outcome.legitimate > 0);
    }

    #[test]
    fn prefix_hijack_with_rov_fails() {
        let w = world();
        let outcome = run(
            &w,
            AttackKind::PrefixHijack,
            &minimal_roa(&w),
            RovPolicy::DropInvalid,
        );
        assert_eq!(outcome.intercepted, 0);
        // And the legitimate route still reaches everyone.
        assert_eq!(outcome.disconnected, 0);
    }

    #[test]
    fn prefix_hijack_without_rov_splits() {
        let w = world();
        let empty = VrpIndex::new();
        let outcome = run(&w, AttackKind::PrefixHijack, &empty, RovPolicy::AcceptAll);
        let f = outcome.interception_fraction();
        assert!(f > 0.0 && f < 1.0, "prefix-grained attacks split ({f})");
    }

    #[test]
    fn forged_origin_weaker_than_true_origin_claim() {
        // The forged-origin path is one hop longer, so it should do no
        // better than the plain prefix hijack without ROV.
        let w = world();
        let empty = VrpIndex::new();
        let plain = run(&w, AttackKind::PrefixHijack, &empty, RovPolicy::AcceptAll);
        let forged = run(
            &w,
            AttackKind::ForgedOriginPrefixHijack,
            &empty,
            RovPolicy::AcceptAll,
        );
        assert!(forged.intercepted <= plain.intercepted);
    }

    #[test]
    fn labels_and_flags() {
        assert!(AttackKind::ForgedOriginSubprefixHijack.forged_origin());
        assert!(!AttackKind::SubprefixHijack.forged_origin());
        assert!(AttackKind::PrefixHijack.same_prefix());
        assert!(!AttackKind::SubprefixHijack.same_prefix());
        for kind in AttackKind::ALL {
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "attacker must differ")]
    fn rejects_self_attack() {
        let w = world();
        let vrps = VrpIndex::new();
        let policies = CompiledPolicies::compile(&vec![RovPolicy::AcceptAll; w.topology.len()]);
        run_strategy(
            &AttackKind::PrefixHijack,
            &AttackSetup {
                topology: &w.topology,
                victim: w.victim,
                attacker: w.victim,
                victim_prefix: w.p,
                sub_prefix: w.q,
                vrps: &vrps,
                policies: &policies,
            },
        );
    }
}

#[cfg(test)]
mod tally_tests {
    use super::*;
    use crate::routing::{RouteClass, RouteInfo};
    use proptest::prelude::*;
    use rpki_roa::Asn;

    fn mix(x: u64) -> u64 {
        (x ^ (x >> 31))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
    }

    proptest! {
        /// The word-parallel tally equals the per-AS definition — the
        /// first table holding a route wins — on stacks of 1–4 random
        /// tables whose AS count is not a multiple of 64, with attacker
        /// and victim in one word or in two, and with a last word that
        /// may hold no route at all.
        #[test]
        fn tally_equals_first_table_with_a_route_wins(
            n in prop_oneof![Just(70usize), Just(100usize), Just(130usize), Just(191usize)],
            depth in 1usize..5,
            salt in any::<u64>(),
            attacker in any::<prop::sample::Index>(),
            victim in any::<prop::sample::Index>(),
            same_word in any::<bool>(),
            empty_last_word in any::<bool>(),
        ) {
            let attacker = attacker.index(n);
            let victim = match (same_word, attacker < 64) {
                (true, _) if attacker ^ 1 < n => attacker ^ 1,
                (true, _) => attacker - 1,
                (false, true) => 64 + victim.index(n - 64),
                (false, false) => victim.index(64),
            };
            prop_assert_eq!(attacker >> 6 == victim >> 6, same_word);
            let last_word = n / 64 * 64;
            let stack: Vec<Vec<_>> = (0..depth as u64)
                .map(|k| {
                    (0..n)
                        .map(|at| {
                            let h = mix(salt ^ mix(k << 32 | at as u64));
                            let routed = h & 1 == 1 && !(empty_last_word && at >= last_word);
                            routed.then(|| RouteInfo {
                                class: RouteClass::Provider,
                                path_len: 3,
                                claimed_origin: Asn(7),
                                delivers_to: match (h >> 1) & 3 {
                                    0 | 1 => attacker,
                                    2 => victim,
                                    _ => (h >> 8) as usize % n,
                                },
                                next_hop: None,
                            })
                        })
                        .collect()
                })
                .collect();

            let mut naive = AttackOutcome { intercepted: 0, legitimate: 0, disconnected: 0 };
            for at in (0..n).filter(|&at| at != attacker && at != victim) {
                match stack.iter().find_map(|table| table[at]) {
                    Some(route) if route.delivers_to == attacker => naive.intercepted += 1,
                    Some(_) => naive.legitimate += 1,
                    None => naive.disconnected += 1,
                }
            }
            let packed: Vec<Propagation> = stack.iter().map(|t| Propagation::pack(t)).collect();
            let tables: Vec<&Propagation> = packed.iter().collect();
            prop_assert_eq!(AttackOutcome::tally(&tables, attacker, victim), naive);
        }
    }
}

#[cfg(test)]
mod trial_tests {
    use super::*;
    use crate::strategy::run_strategy;
    use crate::topology::TopologyConfig;
    use rpki_roa::Vrp;
    use rpki_rov::RovPolicy;

    fn setup() -> (Topology, usize, usize, CompiledPolicies) {
        let t = Topology::generate(TopologyConfig {
            n: 400,
            tier1: 6,
            ..TopologyConfig::default()
        });
        let stubs = t.stubs();
        let policies = CompiledPolicies::compile(&vec![RovPolicy::DropInvalid; t.len()]);
        (t.clone(), stubs[0], stubs[stubs.len() / 2], policies)
    }

    #[test]
    fn trial_matches_simple_runner_on_single_prefix_victim() {
        let (t, victim, attacker, policies) = setup();
        let p: Prefix = "168.122.0.0/16".parse().unwrap();
        let q: Prefix = "168.122.0.0/24".parse().unwrap();
        let vrps: VrpIndex = [Vrp::new(p, 24, t.asn(victim))].into_iter().collect();

        let simple = run_strategy(
            &AttackKind::ForgedOriginSubprefixHijack,
            &AttackSetup {
                topology: &t,
                victim,
                attacker,
                victim_prefix: p,
                sub_prefix: q,
                vrps: &vrps,
                policies: &policies,
            },
        );
        let multi = run_forged_origin_trial(&ForgedOriginTrial {
            topology: &t,
            victim,
            attacker,
            victim_prefixes: &[p],
            target: q,
            vrps: &vrps,
            policies: &policies,
        });
        assert_eq!(simple, multi);
        assert_eq!(multi.interception_fraction(), 1.0);
    }

    #[test]
    fn scattered_victim_with_permissive_roa_loses_everything() {
        // The dataset's "scattered" class: the victim announces /24s but
        // not the covering /16; the ROA covers the whole /16-24. A hijack
        // of any unannounced /24 has NO legitimate fallback route at all.
        let (t, victim, attacker, policies) = setup();
        let announced: Vec<Prefix> = vec![
            "203.0.112.0/24".parse().unwrap(),
            "203.0.116.0/24".parse().unwrap(),
        ];
        let roa_parent: Prefix = "203.0.112.0/20".parse().unwrap();
        let vrps: VrpIndex = [Vrp::new(roa_parent, 24, t.asn(victim))]
            .into_iter()
            .collect();
        let outcome = run_forged_origin_trial(&ForgedOriginTrial {
            topology: &t,
            victim,
            attacker,
            victim_prefixes: &announced,
            target: "203.0.113.0/24".parse().unwrap(),
            vrps: &vrps,
            policies: &policies,
        });
        assert_eq!(outcome.interception_fraction(), 1.0);
        assert_eq!(outcome.legitimate, 0);
    }

    #[test]
    fn attacking_an_announced_child_only_splits() {
        // Safe-maxLength victims announce the full subtree: the attacker
        // must compete with a real announcement and cannot win everyone.
        let (t, victim, attacker, policies) = setup();
        let parent: Prefix = "10.0.0.0/16".parse().unwrap();
        let left: Prefix = "10.0.0.0/17".parse().unwrap();
        let right: Prefix = "10.0.128.0/17".parse().unwrap();
        let announced = vec![parent, left, right];
        let vrps: VrpIndex = [Vrp::new(parent, 17, t.asn(victim))].into_iter().collect();
        let outcome = run_forged_origin_trial(&ForgedOriginTrial {
            topology: &t,
            victim,
            attacker,
            victim_prefixes: &announced,
            target: left,
            vrps: &vrps,
            policies: &policies,
        });
        let f = outcome.interception_fraction();
        assert!(f < 1.0, "victim's own announcement keeps a share ({f})");
        assert!(outcome.legitimate > 0);
    }

    #[test]
    fn exact_roa_blocks_the_trial() {
        let (t, victim, attacker, policies) = setup();
        let p: Prefix = "168.122.0.0/16".parse().unwrap();
        let vrps: VrpIndex = [Vrp::exact(p, t.asn(victim))].into_iter().collect();
        let outcome = run_forged_origin_trial(&ForgedOriginTrial {
            topology: &t,
            victim,
            attacker,
            victim_prefixes: &[p],
            target: "168.122.0.0/24".parse().unwrap(),
            vrps: &vrps,
            policies: &policies,
        });
        assert_eq!(outcome.intercepted, 0);
        assert_eq!(outcome.disconnected, 0); // the /16 still serves everyone
    }
}
