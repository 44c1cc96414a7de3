//! World generation: the calibrated population of allocations, their
//! announcement behaviour, and their RPKI coverage.

use std::net::{Ipv4Addr, Ipv6Addr};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use rpki_prefix::Prefix;
use rpki_roa::{Asn, Roa, RoaPrefix, RouteOrigin};

use crate::config::{GeneratorConfig, V6_FRACTION, WEEK_LABELS};
use crate::snapshot::DatasetSnapshot;
use crate::space::SpaceAllocator;

/// The behaviour class of one allocation (see the crate docs for the
/// calibration table mapping classes to paper statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Non-adopter, announces its allocation as-is.
    Plain,
    /// Non-adopter, announces parent and both children.
    DeaggDepth1,
    /// Non-adopter, announces the full subtree to depth 2 (7 routes).
    DeaggDepth2,
    /// Non-adopter, announces parent and left child only.
    DeaggPartial,
    /// ROA for exactly the announced allocation (safe, minimal).
    AdopterExact,
    /// ROA for an allocation no longer announced.
    AdopterStale,
    /// ROA with `maxLength > len`, only the allocation announced
    /// (vulnerable).
    AdopterMaxLenPlain,
    /// ROA listing `{p, p0, p1}` with only `p` announced.
    AdopterTripleStale,
    /// ROA `p-(len+1)` with the full depth-1 subtree announced (the safe
    /// maxLength minority).
    AdopterMaxLenSafe,
    /// ROA listing `{p, p0, p1}`, all three announced.
    AdopterTripleLive,
    /// ROA `p-(len+k)`, `k ≥ 2`, with only depth 1 announced (vulnerable).
    AdopterMaxLenDeep,
    /// ROA `p-(len+1)` with parent and one child announced (vulnerable).
    AdopterMaxLenPartial,
    /// ROA `p-24` (or `p-48` for IPv6) with scattered more-specifics
    /// announced and `p` itself absent from BGP (vulnerable).
    AdopterScattered,
}

/// One allocation: a disjoint block of address space owned by one AS,
/// with its announcement and RPKI behaviour.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// The allocated prefix (disjoint from all other allocations).
    pub prefix: Prefix,
    /// The owning (and originating) AS.
    pub asn: Asn,
    /// Behaviour class.
    pub category: Category,
    /// For maxLength-using classes: the ROA's maxLength.
    pub max_len: Option<u8>,
    /// For [`Category::AdopterScattered`]: the announced more-specifics.
    pub scattered: Vec<Prefix>,
    /// Activation threshold on the RPKI side (ROA exists in week `w` iff
    /// this is below the week's RPKI fraction).
    pub rpki_birth: f64,
    /// Activation threshold on the BGP side.
    pub bgp_birth: f64,
}

impl Allocation {
    /// The BGP announcements this allocation contributes when active: the
    /// first `Category::routes` prefixes of its subtree, then its scattered
    /// more-specifics (only [`Category::AdopterScattered`] has any, and it
    /// announces no prefix of its subtree).
    pub fn announcements(&self) -> impl Iterator<Item = RouteOrigin> + '_ {
        self.subtree(self.category.routes())
            .chain(self.scattered.iter().copied())
            .map(|p| RouteOrigin::new(p, self.asn))
    }

    /// The ROA prefix entries this allocation contributes when covered:
    /// one entry with the allocation's maxLength, or a listing of the first
    /// `Category::tuples` prefixes of its subtree without one.
    pub fn roa_entries(&self) -> Vec<RoaPrefix> {
        match self.category.tuples() {
            1 => vec![RoaPrefix {
                prefix: self.prefix,
                max_len: self.max_len,
            }],
            n => self.subtree(n).map(RoaPrefix::exact).collect(),
        }
    }

    /// The first `n` prefixes of the allocation's subtree in breadth-first
    /// order: `p`, `p0`, `p1`, `p00`, `p01`, `p10`, `p11`.
    fn subtree(&self, n: usize) -> impl Iterator<Item = Prefix> + '_ {
        // Numbered heap-style from 1, a node's bits after the leading one
        // spell its path down from `p`.
        (1..=n).map(|node| {
            (0..node.ilog2()).rev().fold(self.prefix, |p, bit| {
                // Classes announcing children are allocated at /18–/22 or
                // /32–/44, two levels short of the family maximum.
                let (l, r) = p.children().expect("length bounded");
                if node >> bit & 1 == 0 {
                    l
                } else {
                    r
                }
            })
        })
    }
}

impl Category {
    /// Every class, non-adopters first: the order of
    /// [`CategoryCounts::allocations`](crate::CategoryCounts::allocations)
    /// and the order in which [`World::generate`] deals allocations out.
    pub const ALL: [Category; 13] = [
        Category::Plain,
        Category::DeaggDepth1,
        Category::DeaggDepth2,
        Category::DeaggPartial,
        Category::AdopterExact,
        Category::AdopterStale,
        Category::AdopterMaxLenPlain,
        Category::AdopterTripleStale,
        Category::AdopterMaxLenSafe,
        Category::AdopterTripleLive,
        Category::AdopterMaxLenDeep,
        Category::AdopterMaxLenPartial,
        Category::AdopterScattered,
    ];

    /// `true` if the allocation appears in the RPKI.
    pub fn is_adopter(self) -> bool {
        self.tuples() > 0
    }

    /// How many routes one allocation of this class announces, as the
    /// first prefixes of its subtree (see [`Allocation::announcements`]).
    /// A scattered allocation's routes are counted apart, by
    /// [`CategoryCounts::scattered_pairs`](crate::CategoryCounts::scattered_pairs).
    pub(crate) fn routes(self) -> usize {
        match self {
            Category::AdopterStale | Category::AdopterScattered => 0,
            Category::Plain
            | Category::AdopterExact
            | Category::AdopterMaxLenPlain
            | Category::AdopterTripleStale => 1,
            Category::DeaggPartial | Category::AdopterMaxLenPartial => 2,
            Category::DeaggDepth1
            | Category::AdopterMaxLenSafe
            | Category::AdopterTripleLive
            | Category::AdopterMaxLenDeep => 3,
            Category::DeaggDepth2 => 7,
        }
    }

    /// How many ROA prefix entries one allocation of this class lists (see
    /// [`Allocation::roa_entries`]).
    pub(crate) fn tuples(self) -> usize {
        match self {
            Category::Plain
            | Category::DeaggDepth1
            | Category::DeaggDepth2
            | Category::DeaggPartial => 0,
            Category::AdopterExact
            | Category::AdopterStale
            | Category::AdopterMaxLenPlain
            | Category::AdopterMaxLenSafe
            | Category::AdopterMaxLenDeep
            | Category::AdopterMaxLenPartial
            | Category::AdopterScattered => 1,
            Category::AdopterTripleStale | Category::AdopterTripleLive => 3,
        }
    }
}

/// Where the world's allocations start: past 0.0.0.0/8, and inside the
/// global-unicast 2000::/3.
const WORLD_V4_BASE: Ipv4Addr = Ipv4Addr::new(1, 0, 0, 0);
const WORLD_V6_BASE: Ipv6Addr = Ipv6Addr::new(0x2001, 0, 0, 0, 0, 0, 0, 0);

/// A fully generated world, from which weekly snapshots are cut.
#[derive(Debug, Clone)]
pub struct World {
    /// All allocations (adopters and non-adopters).
    pub allocations: Vec<Allocation>,
    /// The configuration used.
    pub config: GeneratorConfig,
}

impl World {
    /// Generates the world for a configuration. Deterministic in the seed.
    pub fn generate(config: GeneratorConfig) -> World {
        let counts = config.counts();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut space = SpaceAllocator::new(WORLD_V4_BASE, WORLD_V6_BASE);
        let mut allocations = Vec::with_capacity(counts.allocations.iter().sum());
        // Each class's allocations, in `Category::ALL` order.
        let deal = |adopters: bool| -> Vec<Category> {
            Category::ALL
                .into_iter()
                .filter(|c| c.is_adopter() == adopters)
                .flat_map(|c| std::iter::repeat_n(c, counts[c]))
                .collect()
        };

        // --- Adopter entities -------------------------------------------
        let mut adopters = deal(true);
        // Mix categories across ASes.
        adopters.shuffle(&mut rng);

        // Scattered-pair budget, spread evenly with the remainder on the
        // first few entities so the total is exact.
        let n_scattered = counts[Category::AdopterScattered].max(1);
        let scattered_base = counts.scattered_pairs / n_scattered;
        let scattered_extra = counts.scattered_pairs % n_scattered;
        let mut scattered_seen = 0usize;

        let adopter_ases = counts.adopter_ases.max(1);
        for (i, &category) in adopters.iter().enumerate() {
            // Contiguous dealing over shuffled entities ≈ random grouping.
            let asn = Asn(100 + (i * adopter_ases / adopters.len().max(1)) as u32);
            let alloc = Self::make_allocation(
                &mut rng,
                &mut space,
                category,
                asn,
                if category == Category::AdopterScattered {
                    let s = scattered_base + usize::from(scattered_seen < scattered_extra);
                    scattered_seen += 1;
                    s
                } else {
                    0
                },
            );
            allocations.push(alloc);
        }

        // --- Non-adopter entities ----------------------------------------
        let mut non_adopters = deal(false);
        non_adopters.shuffle(&mut rng);

        let mut asn = 100_000u32;
        let mut remaining_in_as = 0usize;
        for &category in &non_adopters {
            if remaining_in_as == 0 {
                asn += 1;
                remaining_in_as = rng.gen_range(1..=24);
            }
            remaining_in_as -= 1;
            let alloc = Self::make_allocation(&mut rng, &mut space, category, Asn(asn), 0);
            allocations.push(alloc);
        }

        World {
            allocations,
            config,
        }
    }

    fn make_allocation(
        rng: &mut StdRng,
        space: &mut SpaceAllocator,
        category: Category,
        asn: Asn,
        scattered_count: usize,
    ) -> Allocation {
        let v6 = rng.gen_bool(V6_FRACTION);
        let (prefix, max_len, scattered) = match category {
            // Leaf-like allocations: realistic length mix, mostly /24 (v4).
            Category::Plain
            | Category::AdopterExact
            | Category::AdopterStale
            | Category::AdopterMaxLenPlain => {
                let len = if v6 {
                    // `choose` is `None` only on an empty slice.
                    *[32u8, 40, 44, 48].choose(rng).expect("non-empty")
                } else {
                    // Weighted like the 2017 global table: /24 dominates
                    // (~60%), shorter prefixes increasingly rare. The mix
                    // also keeps ~700K disjoint allocations comfortably
                    // inside the 32-bit space.
                    let roll = rng.gen_range(0u32..100);
                    match roll {
                        0 => 16,
                        1 => 18,
                        2..=3 => 19,
                        4..=7 => 20,
                        8..=13 => 21,
                        14..=25 => 22,
                        26..=37 => 23,
                        _ => 24,
                    }
                };
                let prefix = space.alloc(v6, len);
                let max_len = if category == Category::AdopterMaxLenPlain {
                    let k = rng.gen_range(1..=6);
                    Some((len + k).min(prefix.max_len()))
                } else {
                    None
                };
                (prefix, max_len, vec![])
            }
            // Structured allocations need room for children.
            Category::DeaggDepth1
            | Category::DeaggDepth2
            | Category::DeaggPartial
            | Category::AdopterTripleStale
            | Category::AdopterTripleLive
            | Category::AdopterMaxLenSafe
            | Category::AdopterMaxLenPartial
            | Category::AdopterMaxLenDeep => {
                let len = if v6 {
                    rng.gen_range(32..=44)
                } else {
                    // De-aggregating networks hold mid-size blocks; keep
                    // room for two levels of children above /24. (`choose`
                    // is `None` only on an empty slice.)
                    *[18u8, 19, 20, 20, 21, 21, 22, 22]
                        .choose(rng)
                        .expect("non-empty")
                };
                let prefix = space.alloc(v6, len);
                let max_len = match category {
                    Category::AdopterMaxLenSafe | Category::AdopterMaxLenPartial => Some(len + 1),
                    Category::AdopterMaxLenDeep => Some(len + rng.gen_range(2..=4)),
                    _ => None,
                };
                (prefix, max_len, vec![])
            }
            // Scattered: a roomy parent, /24 (or /48) more-specifics at
            // even offsets — never siblings of one another, so nothing
            // accidentally compresses and the class stays vulnerable.
            Category::AdopterScattered => {
                let (len, scatter_len) = if v6 {
                    (rng.gen_range(32u8..=40), 48u8)
                } else {
                    (rng.gen_range(15u8..=18), 24u8)
                };
                let prefix = space.alloc(v6, len);
                let even_slots = 1u64 << (scatter_len - len - 1);
                let want = scattered_count.max(1).min(even_slots as usize);
                let idx = rand::seq::index::sample(rng, even_slots as usize, want).into_vec();
                let mut scattered: Vec<Prefix> = idx
                    .into_iter()
                    .map(|i| {
                        let offset = (i as u128) * 2;
                        // `offset < 2^(scatter_len - len)`: it sets only bits
                        // between the parent's length and `scatter_len`.
                        let bits = prefix.bits_u128() | (offset << (128 - scatter_len as u32));
                        Prefix::from_bits_u128(prefix.afi(), bits, scatter_len)
                            .expect("offset stays inside the allocation")
                    })
                    .collect();
                scattered.sort_unstable();
                (prefix, Some(scatter_len), scattered)
            }
        };
        Allocation {
            prefix,
            asn,
            category,
            max_len,
            scattered,
            rpki_birth: rng.gen(),
            bgp_birth: rng.gen(),
        }
    }

    /// Cuts the snapshot for week `week` (0-based). Week `weeks - 1` is the
    /// full world (the 6/1 dataset the paper's Table 1 uses).
    pub fn snapshot(&self, week: usize) -> DatasetSnapshot {
        let weeks = self.config.weeks.max(1);
        assert!(week < weeks, "week {week} out of range 0..{weeks}");
        let progress = if weeks == 1 {
            1.0
        } else {
            week as f64 / (weeks - 1) as f64
        };
        // Figure 3: the RPKI grew ~6% over the window, BGP ~1%.
        let f_rpki = 0.94 + 0.06 * progress;
        let f_bgp = 0.99 + 0.01 * progress;

        let mut routes = Vec::new();
        // (asn, entries) accumulated in allocation order, then grouped.
        let mut roa_entries: std::collections::BTreeMap<Asn, Vec<RoaPrefix>> =
            std::collections::BTreeMap::new();
        for alloc in &self.allocations {
            if alloc.bgp_birth < f_bgp {
                routes.extend(alloc.announcements());
            }
            if alloc.category.is_adopter() && alloc.rpki_birth < f_rpki {
                roa_entries
                    .entry(alloc.asn)
                    .or_default()
                    .extend(alloc.roa_entries());
            }
        }
        let roas: Vec<Roa> = roa_entries
            .into_iter()
            .filter_map(|(asn, entries)| Roa::new(asn, entries).ok())
            .collect();
        let label = WEEK_LABELS.get(week).copied().unwrap_or("week").to_string();
        DatasetSnapshot {
            label,
            roas,
            routes,
        }
    }

    /// All weekly snapshots in order.
    pub fn snapshots(&self) -> Vec<DatasetSnapshot> {
        (0..self.config.weeks.max(1))
            .map(|w| self.snapshot(w))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CategoryCounts;

    fn small_world(seed: u64) -> World {
        World::generate(GeneratorConfig::small(seed))
    }

    #[test]
    fn deterministic_in_seed() {
        let a = small_world(1).snapshot(7);
        let b = small_world(1).snapshot(7);
        assert_eq!(a.routes, b.routes);
        assert_eq!(a.roas, b.roas);
        let c = small_world(2).snapshot(7);
        assert_ne!(a.routes, c.routes);
    }

    #[test]
    fn final_week_counts_match_expectations() {
        let world = small_world(3);
        let counts = world.config.counts();
        let snap = world.snapshot(7);
        assert_eq!(snap.routes.len(), counts.expected_pairs());
        assert_eq!(snap.vrps().len(), counts.expected_tuples());
    }

    #[test]
    fn allocations_disjoint_across_entities() {
        let world = small_world(4);
        let prefixes: Vec<Prefix> = world.allocations.iter().map(|a| a.prefix).collect();
        for (i, p) in prefixes.iter().enumerate() {
            for q in prefixes[i + 1..].iter().take(200) {
                assert!(!p.covers(*q) && !q.covers(*p), "{p} vs {q}");
            }
        }
    }

    #[test]
    fn scattered_entities_never_announce_parent_or_siblings() {
        let world = small_world(5);
        for alloc in &world.allocations {
            if alloc.category != Category::AdopterScattered {
                continue;
            }
            assert!(!alloc.scattered.is_empty());
            assert!(alloc.announcements().all(|r| r.prefix != alloc.prefix));
            for (i, a) in alloc.scattered.iter().enumerate() {
                assert!(alloc.prefix.covers(*a));
                assert_eq!(a.len(), alloc.max_len.unwrap());
                for b in &alloc.scattered[i + 1..] {
                    assert_ne!(a.sibling(), Some(*b), "siblings would compress");
                }
            }
        }
    }

    #[test]
    fn weekly_growth_is_monotone() {
        let world = small_world(6);
        let mut last_routes = 0;
        let mut last_tuples = 0;
        for snap in world.snapshots() {
            assert!(snap.routes.len() >= last_routes);
            assert!(snap.vrps().len() >= last_tuples);
            last_routes = snap.routes.len();
            last_tuples = snap.vrps().len();
        }
    }

    #[test]
    fn week_labels_applied() {
        let world = small_world(7);
        assert_eq!(world.snapshot(0).label, "4/13");
        assert_eq!(world.snapshot(7).label, "6/1");
    }

    #[test]
    fn adopter_roas_group_by_as() {
        let world = small_world(8);
        let snap = world.snapshot(7);
        let mut asns: Vec<Asn> = snap.roas.iter().map(|r| r.asn()).collect();
        let n = asns.len();
        asns.dedup();
        assert_eq!(asns.len(), n, "one ROA object per AS");
        // Roughly the scaled adopter AS count (some ASes may have all
        // entries withheld at small scale).
        let expect = world.config.counts().adopter_ases;
        assert!(n <= expect);
        assert!(n * 10 >= expect * 7, "{n} ROAs vs expected ~{expect}");
    }

    #[test]
    fn category_invariants_hold() {
        let world = small_world(9);
        for alloc in &world.allocations {
            match alloc.category {
                Category::AdopterMaxLenSafe | Category::AdopterMaxLenPartial => {
                    assert_eq!(alloc.max_len, Some(alloc.prefix.len() + 1));
                }
                Category::AdopterMaxLenDeep => {
                    assert!(alloc.max_len.unwrap() >= alloc.prefix.len() + 2);
                }
                Category::AdopterMaxLenPlain => {
                    assert!(alloc.max_len.unwrap() > alloc.prefix.len());
                }
                _ => {}
            }
            if alloc.category.is_adopter() {
                assert!(!alloc.roa_entries().is_empty());
            } else {
                assert!(alloc.roa_entries().is_empty());
                assert!(alloc.announcements().next().is_some());
            }
        }
    }

    #[test]
    fn paper_scale_arithmetic_spot_check() {
        // Don't generate the full world in unit tests; just confirm the
        // config arithmetic again at a mid scale.
        let c = CategoryCounts::PAPER.scaled(0.1);
        assert!(c.expected_pairs() > 70_000 && c.expected_pairs() < 85_000);
    }

    #[test]
    fn v6_share_is_near_five_percent() {
        let snap = small_world(10).snapshot(7);
        let v6 = snap.routes.iter().filter(|r| !r.prefix.is_v4()).count();
        let share = v6 as f64 / snap.routes.len() as f64;
        assert!((0.02..=0.09).contains(&share), "v6 share {share}");
        // And ROA entries follow the same mix.
        let v6_tuples = snap.vrps().iter().filter(|v| !v.prefix.is_v4()).count();
        assert!(v6_tuples > 0);
    }

    #[test]
    fn all_lists_the_classes_in_declaration_order() {
        for (i, &category) in Category::ALL.iter().enumerate() {
            assert_eq!(category as usize, i, "{category:?}");
        }
    }
}
