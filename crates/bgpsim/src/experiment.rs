//! The plan axes every sampled experiment shares: the victim's ROA
//! configuration ([`RoaConfig`]) and the per-trial attacker/victim pair
//! derivations. The experiments themselves — §4/§5's table included —
//! are [`crate::ScenarioMatrix`] grids.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rpki_prefix::Prefix;
use rpki_roa::Vrp;
use rpki_rov::VrpIndex;

/// The victim's ROA configuration under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoaConfig {
    /// No ROA at all (pre-RPKI world).
    NoRoa,
    /// The §4 misconfiguration: `(p, maxLength 24, victim)`.
    NonMinimalMaxLen,
    /// The paper's recommendation: an exact ROA for what is announced.
    Minimal,
}

impl RoaConfig {
    /// All configurations.
    pub const ALL: [RoaConfig; 3] = [
        RoaConfig::NoRoa,
        RoaConfig::NonMinimalMaxLen,
        RoaConfig::Minimal,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            RoaConfig::NoRoa => "no ROA",
            RoaConfig::NonMinimalMaxLen => "non-minimal ROA (maxLength)",
            RoaConfig::Minimal => "minimal ROA",
        }
    }

    /// The victim's published VRP set under this configuration: nothing,
    /// a loose `(prefix, maxLength = max_len)` tuple, or the exact
    /// minimal tuple.
    pub fn vrps(self, prefix: Prefix, max_len: u8, asn: rpki_roa::Asn) -> VrpIndex {
        match self {
            RoaConfig::NoRoa => VrpIndex::new(),
            RoaConfig::NonMinimalMaxLen => [Vrp::new(prefix, max_len, asn)].into_iter().collect(),
            RoaConfig::Minimal => [Vrp::exact(prefix, asn)].into_iter().collect(),
        }
    }
}

/// The attacker/victim pair of trial `trial`, derived from its own
/// `StdRng::seed_from_u64(seed ^ trial)` stream. Trials share no RNG
/// state, so they can run in any order — or concurrently — and sample
/// identical pairs; this is what makes the parallel executor
/// bit-identical to the sequential one.
pub(crate) fn trial_pair(seed: u64, stubs: &[usize], trial: usize) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ trial as u64);
    loop {
        let v = *stubs.choose(&mut rng).expect("non-empty");
        let a = *stubs.choose(&mut rng).expect("non-empty");
        if a != v {
            return (v, a);
        }
    }
}

/// Domain separator for [`destination_pair`]'s per-destination attacker
/// stream, keeping it disjoint from the `seed ^ trial` trial streams and
/// the `seed ^ POLICY_DOMAIN` deployment stream.
const DESTINATION_DOMAIN: u64 = 0x85EB_CA6B_27D4_EB2F;

/// The attacker/victim pair measuring `destination` — the
/// destination-sampling analogue of [`trial_pair`]. The victim **is**
/// the destination; the attacker is drawn from a stream keyed by the
/// destination's *identity* (its AS index), not by the trial index.
/// That keying is what makes sampled plans a restriction of full plans:
/// destination `d` samples the same attacker whether it is trial 3 of a
/// 10-destination sample or trial 40,000 of the full stub enumeration.
pub(crate) fn destination_pair(seed: u64, stubs: &[usize], destination: usize) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(
        seed ^ DESTINATION_DOMAIN ^ (destination as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    loop {
        let a = *stubs.choose(&mut rng).expect("non-empty");
        if a != destination {
            return (destination, a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CompiledPolicies, OriginFilter};
    use crate::topology::{Topology, TopologyConfig};
    use proptest::prelude::*;
    use rpki_prefix::{Prefix4, Prefix6};
    use rpki_roa::Asn;
    use rpki_rov::RovPolicy;

    proptest! {
        /// The premise of a trial group's one baseline: no configuration
        /// makes the victim's own announcement Invalid, whatever its
        /// prefix, the attacked sub-prefix's length and its ASN — so the
        /// victim's filter is transparent under every deployment.
        #[test]
        fn no_config_invalidates_the_victims_own_announcement(
            v6 in any::<bool>(),
            bits in any::<u128>(),
            len in any::<u8>(),
            sub_len in any::<u8>(),
            asn in any::<u32>(),
        ) {
            let prefix = if v6 {
                Prefix::V6(Prefix6::new_truncated(bits, len % 129))
            } else {
                Prefix::V4(Prefix4::new_truncated(bits as u32, len % 33))
            };
            let room = prefix.max_len() - prefix.len() + 1;
            let sub_len = prefix.len() + sub_len % room;
            let adopters = CompiledPolicies::compile(&[RovPolicy::DropInvalid]);
            for roa in RoaConfig::ALL {
                let vrps = roa.vrps(prefix, sub_len, Asn(asn));
                let filter = OriginFilter::new(&vrps, prefix, &[Asn(asn)], &adopters);
                prop_assert!(filter.is_transparent(), "{:?} {} /{}", roa, prefix, sub_len);
            }
        }
    }

    #[test]
    fn trials_are_order_independent() {
        // Same pair per trial index regardless of how many other trials
        // ran first.
        let topology = Topology::generate(TopologyConfig {
            n: 300,
            tier1: 5,
            ..TopologyConfig::default()
        });
        let stubs = topology.stubs();
        let forward: Vec<_> = (0..8).map(|t| trial_pair(21, stubs, t)).collect();
        let backward: Vec<_> = (0..8).rev().map(|t| trial_pair(21, stubs, t)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
    }
}
