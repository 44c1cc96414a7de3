//! Who actually validates: per-AS ROV deployment models.
//!
//! §2's sobering observation is that ROAs protect nothing until routers
//! drop Invalid routes, and in the measured world only a handful did.
//! [`DeploymentModel`] makes who validates an axis of the scenario
//! matrix:
//!
//! * [`DeploymentModel::Uniform`] — every AS enforces independently with
//!   probability `p` (several levels of it on one axis are an adoption
//!   sweep);
//! * [`DeploymentModel::TopIspsFirst`] — the fraction `p` of ASes with
//!   the most customers adopt first, the "large ISPs deploy first"
//!   hypothesis of ROV-adoption studies;
//! * [`DeploymentModel::StubsOnly`] — only edge networks validate (a
//!   fraction `p` of the stubs), the pessimistic "transit never filters"
//!   world.
//!
//! Policy draws are derived from the experiment seed through
//! [`POLICY_DOMAIN`], keeping the deployment stream disjoint from every
//! per-trial stream, and — crucially for monotonicity assertions — the
//! uniform model consumes exactly one draw per AS regardless of `p`, so
//! adopter sets are **nested** as `p` grows (the same AS flips from
//! accept-all to drop-invalid at its fixed threshold).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rpki_rov::RovPolicy;

use crate::topology::Topology;

/// Domain separator keeping the policy stream disjoint from every
/// per-trial stream: trial pairs use `seed ^ trial`, so a plain `seed`
/// here would replay trial 0's words for the deployment draw,
/// correlating ROV placement with the first sample.
pub const POLICY_DOMAIN: u64 = 0xD6E8_FEB8_6659_FD93;

/// How route-origin validation is deployed across the topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeploymentModel {
    /// Every AS independently enforces ROV with probability `p`.
    Uniform {
        /// Adoption probability in `[0, 1]`.
        p: f64,
    },
    /// The fraction `p` of ASes with the most customers (largest transit
    /// degree) enforce; everyone else accepts all.
    TopIspsFirst {
        /// Fraction of ASes adopting, largest first.
        p: f64,
    },
    /// Only stub (customer-less) ASes enforce — a seeded fraction `p` of
    /// them; all transit ASes accept everything.
    StubsOnly {
        /// Fraction of stubs adopting.
        p: f64,
    },
}

impl DeploymentModel {
    /// A canonical axis for matrix runs: full uniform ROV, coin-flip
    /// uniform ROV, the top third of transit providers, and validating
    /// edges only.
    pub fn standard() -> Vec<DeploymentModel> {
        vec![
            DeploymentModel::Uniform { p: 1.0 },
            DeploymentModel::Uniform { p: 0.5 },
            DeploymentModel::TopIspsFirst { p: 0.3 },
            DeploymentModel::StubsOnly { p: 1.0 },
        ]
    }

    /// The adoption parameter `p`.
    pub fn adoption(&self) -> f64 {
        match *self {
            DeploymentModel::Uniform { p }
            | DeploymentModel::TopIspsFirst { p }
            | DeploymentModel::StubsOnly { p } => p,
        }
    }

    /// The same model at a different adoption level — the sweep helper.
    pub fn with_adoption(&self, p: f64) -> DeploymentModel {
        match *self {
            DeploymentModel::Uniform { .. } => DeploymentModel::Uniform { p },
            DeploymentModel::TopIspsFirst { .. } => DeploymentModel::TopIspsFirst { p },
            DeploymentModel::StubsOnly { .. } => DeploymentModel::StubsOnly { p },
        }
    }

    /// Display label (stable: golden fixtures key on it).
    pub fn label(&self) -> String {
        match *self {
            DeploymentModel::Uniform { p } => format!("uniform p={p:.2}"),
            DeploymentModel::TopIspsFirst { p } => format!("top-ISPs-first p={p:.2}"),
            DeploymentModel::StubsOnly { p } => format!("stub-only p={p:.2}"),
        }
    }

    /// Assigns each AS its policy, deterministically in `(self, topology,
    /// seed)`. `seed` is the experiment's base seed; the domain
    /// separation happens here.
    ///
    /// # Panics
    ///
    /// Panics if the adoption parameter is outside `[0, 1]`.
    pub fn policies(&self, topology: &Topology, seed: u64) -> Vec<RovPolicy> {
        let p = self.adoption();
        assert!((0.0..=1.0).contains(&p), "adoption {p} outside [0, 1]");
        let n = topology.len();
        let mut rng = StdRng::seed_from_u64(seed ^ POLICY_DOMAIN);
        match *self {
            DeploymentModel::Uniform { p } => (0..n)
                .map(|_| {
                    // Exactly one draw per AS for every p: nested
                    // adopter sets across adoption levels.
                    if rng.gen_bool(p) {
                        RovPolicy::DropInvalid
                    } else {
                        RovPolicy::AcceptAll
                    }
                })
                .collect(),
            DeploymentModel::TopIspsFirst { p } => {
                let mut ranked: Vec<usize> = (0..n).collect();
                ranked.sort_by_key(|&a| (std::cmp::Reverse(topology.customer_count(a)), a));
                let adopters = Self::quota(p, n);
                let mut policies = vec![RovPolicy::AcceptAll; n];
                for &a in ranked.iter().take(adopters) {
                    policies[a] = RovPolicy::DropInvalid;
                }
                policies
            }
            DeploymentModel::StubsOnly { p } => {
                let mut stubs = topology.stubs().to_vec();
                stubs.shuffle(&mut rng);
                let adopters = Self::quota(p, stubs.len());
                let mut policies = vec![RovPolicy::AcceptAll; n];
                for &a in stubs.iter().take(adopters) {
                    policies[a] = RovPolicy::DropInvalid;
                }
                policies
            }
        }
    }

    /// `round(p · total)`, the adopter head-count for the ranked models.
    fn quota(p: f64, total: usize) -> usize {
        ((p * total as f64).round() as usize).min(total)
    }

    /// The per-AS adoption thresholds behind every [`Self::Uniform`]
    /// draw: AS `a` enforces ROV at adoption level `p` iff
    /// `thresholds[a] < p`. This is exactly the word `gen_bool` consumes
    /// per AS in [`Self::policies`], drawn once — so a sweep over many
    /// `p` values can derive every adopter bitset from one RNG pass
    /// (the nested-adopter-set coupling, made explicit). The trial
    /// executor's policy cache uses this to compile each sweep point
    /// without replaying the policy stream.
    pub fn uniform_thresholds(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed ^ POLICY_DOMAIN);
        (0..n).map(|_| rng.gen::<f64>()).collect()
    }

    /// The `Uniform { p }` policy vector derived from precomputed
    /// [`Self::uniform_thresholds`] — bit-identical to
    /// `DeploymentModel::Uniform { p }.policies(topology, seed)` for the
    /// same `n` and `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` (matching [`Self::policies`]).
    pub fn uniform_from_thresholds(p: f64, thresholds: &[f64]) -> Vec<RovPolicy> {
        assert!((0.0..=1.0).contains(&p), "adoption {p} outside [0, 1]");
        thresholds
            .iter()
            .map(|&t| {
                if t < p {
                    RovPolicy::DropInvalid
                } else {
                    RovPolicy::AcceptAll
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;

    fn topo() -> Topology {
        Topology::generate(TopologyConfig {
            n: 300,
            tier1: 5,
            ..TopologyConfig::default()
        })
    }

    fn adopters(policies: &[RovPolicy]) -> Vec<usize> {
        policies
            .iter()
            .enumerate()
            .filter(|(_, p)| **p == RovPolicy::DropInvalid)
            .map(|(a, _)| a)
            .collect()
    }

    #[test]
    fn uniform_extremes_and_determinism() {
        let t = topo();
        let all = DeploymentModel::Uniform { p: 1.0 }.policies(&t, 9);
        assert!(all.iter().all(|p| *p == RovPolicy::DropInvalid));
        let none = DeploymentModel::Uniform { p: 0.0 }.policies(&t, 9);
        assert!(none.iter().all(|p| *p == RovPolicy::AcceptAll));
        let half = DeploymentModel::Uniform { p: 0.5 };
        assert_eq!(half.policies(&t, 9), half.policies(&t, 9));
        assert_ne!(half.policies(&t, 9), half.policies(&t, 10));
    }

    #[test]
    fn uniform_adopter_sets_are_nested_in_p() {
        // One draw per AS regardless of p: raising adoption only ever
        // adds adopters — the coupling the monotonicity tests rely on.
        let t = topo();
        let mut previous: Vec<usize> = Vec::new();
        for p in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let current = adopters(&DeploymentModel::Uniform { p }.policies(&t, 4));
            assert!(
                previous.iter().all(|a| current.contains(a)),
                "adopters at lower p must persist (p={p})"
            );
            previous = current;
        }
        assert_eq!(previous.len(), t.len());
    }

    #[test]
    fn top_isps_ranks_by_customer_count() {
        let t = topo();
        let policies = DeploymentModel::TopIspsFirst { p: 0.1 }.policies(&t, 1);
        let chosen = adopters(&policies);
        assert_eq!(chosen.len(), (0.1_f64 * t.len() as f64).round() as usize);
        let floor = chosen
            .iter()
            .map(|&a| t.customer_count(a))
            .min()
            .expect("non-empty");
        for a in 0..t.len() {
            if !chosen.contains(&a) {
                assert!(
                    t.customer_count(a) <= floor,
                    "AS {a} outranks a chosen adopter"
                );
            }
        }
        // Stubs (0 customers) are never ahead of tier-1s at small p.
        assert!(chosen.iter().all(|&a| t.customer_count(a) > 0));
    }

    #[test]
    fn stubs_only_never_touches_transit() {
        let t = topo();
        for p in [0.3, 1.0] {
            let policies = DeploymentModel::StubsOnly { p }.policies(&t, 77);
            let chosen = adopters(&policies);
            assert_eq!(
                chosen.len(),
                DeploymentModel::quota(p, t.stubs().len()),
                "p={p}"
            );
            for &a in &chosen {
                assert!(t.is_stub(a));
            }
        }
    }

    #[test]
    fn uniform_thresholds_replay_the_policy_stream() {
        // The executor's sweep reuse: deriving a uniform policy vector
        // from the one-pass thresholds must be bit-identical to the
        // gen_bool stream `policies()` consumes, at every p.
        let t = topo();
        for seed in [0, 4, 9, 0xDEAD] {
            let thresholds = DeploymentModel::uniform_thresholds(t.len(), seed);
            assert_eq!(thresholds.len(), t.len());
            for p in [0.0, 0.1, 0.5, 0.9, 1.0] {
                assert_eq!(
                    DeploymentModel::uniform_from_thresholds(p, &thresholds),
                    DeploymentModel::Uniform { p }.policies(&t, seed),
                    "seed {seed}, p {p}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn thresholds_reject_bogus_adoption() {
        DeploymentModel::uniform_from_thresholds(-0.5, &[0.5]);
    }

    #[test]
    fn labels_and_sweep_helpers() {
        let m = DeploymentModel::TopIspsFirst { p: 0.25 };
        assert_eq!(m.label(), "top-ISPs-first p=0.25");
        assert_eq!(m.adoption(), 0.25);
        assert_eq!(
            m.with_adoption(0.75),
            DeploymentModel::TopIspsFirst { p: 0.75 }
        );
        assert_eq!(DeploymentModel::standard().len(), 4);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_bogus_adoption() {
        DeploymentModel::Uniform { p: 1.5 }.policies(&topo(), 0);
    }
}
