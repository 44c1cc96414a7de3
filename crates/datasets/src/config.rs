//! Generator configuration: the paper-calibrated category counts and the
//! knobs (seed, scale, weeks) the harness exposes.

use std::ops::Index;

use crate::world::Category;

/// The eight weekly snapshot labels of Figure 3.
pub const WEEK_LABELS: [&str; 8] = ["4/13", "4/20", "4/27", "5/4", "5/11", "5/18", "5/25", "6/1"];

/// Per-class entity counts. At `scale = 1.0` these reproduce the paper's
/// 6/1/2017 aggregates (see the crate docs for the calibration table and
/// the arithmetic tying each count to a Table 1 row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategoryCounts {
    /// Allocations per class, in [`Category::ALL`] order; index it with a
    /// [`Category`].
    pub allocations: [usize; Category::ALL.len()],
    /// Total scattered /24 announcements across all
    /// [`Category::AdopterScattered`] allocations.
    pub scattered_pairs: usize,
    /// Number of RPKI-adopting ASes (= ROA objects; the paper has 7,499).
    pub adopter_ases: usize,
}

impl Index<Category> for CategoryCounts {
    type Output = usize;

    fn index(&self, category: Category) -> &usize {
        &self.allocations[category as usize]
    }
}

impl CategoryCounts {
    /// The paper-scale counts (reproduces the 6/1/2017 dataset).
    pub const PAPER: CategoryCounts = CategoryCounts {
        allocations: [
            662_076, // Plain
            15_750,  // DeaggDepth1
            2_000,   // DeaggDepth2
            437,     // DeaggPartial
            25_000,  // AdopterExact
            818,     // AdopterStale
            1_389,   // AdopterMaxLenPlain
            2_490,   // AdopterTripleStale
            741,     // AdopterMaxLenSafe
            677,     // AdopterTripleLive
            300,     // AdopterMaxLenDeep
            200,     // AdopterMaxLenPartial
            2_000,   // AdopterScattered
        ],
        scattered_pairs: 18_312,
        adopter_ases: 7_499,
    };

    /// Scales every count, rounding to nearest (minimum 1 for classes that
    /// were nonzero, so tiny test datasets still exercise every code path).
    pub fn scaled(&self, scale: f64) -> CategoryCounts {
        let s = |c: usize| -> usize {
            if c == 0 {
                0
            } else {
                (((c as f64) * scale).round() as usize).max(1)
            }
        };
        CategoryCounts {
            allocations: self.allocations.map(s),
            scattered_pairs: s(self.scattered_pairs),
            adopter_ases: s(self.adopter_ases),
        }
    }

    /// Expected number of RPKI tuples (PDUs) in the generated world —
    /// 39,949 at paper scale.
    ///
    /// A test hook: `tests/props.rs` and the crate's unit tests check
    /// every generated world against it.
    pub fn expected_tuples(&self) -> usize {
        Category::ALL.iter().map(|&c| self[c] * c.tuples()).sum()
    }

    /// Expected number of BGP `(prefix, origin)` pairs — 776,945 at paper
    /// scale.
    ///
    /// A test hook, checked beside [`CategoryCounts::expected_tuples`].
    pub fn expected_pairs(&self) -> usize {
        let per_class: usize = Category::ALL.iter().map(|&c| self[c] * c.routes()).sum();
        per_class + self.scattered_pairs
    }
}

/// Everything the generator needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// RNG seed; equal seeds give byte-identical worlds.
    pub seed: u64,
    /// Linear scale on all category counts (1.0 = paper scale, ~777K BGP
    /// pairs; 0.01 is comfortable for unit tests).
    pub scale: f64,
    /// Number of weekly snapshots to expose (1..=8; Figure 3 uses 8).
    pub weeks: usize,
}

/// Fraction of allocations, and of the churn generator's minted VRPs, put
/// in IPv6 (the 2017 tables were ≈5% v6 by pair count).
pub(crate) const V6_FRACTION: f64 = 0.05;

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 0x6a17_2017,
            scale: 1.0,
            weeks: 8,
        }
    }
}

impl GeneratorConfig {
    /// A small configuration for tests: ~1% of paper scale.
    pub fn small(seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            seed,
            scale: 0.01,
            ..GeneratorConfig::default()
        }
    }

    /// The scaled category counts.
    pub fn counts(&self) -> CategoryCounts {
        CategoryCounts::PAPER.scaled(self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_counts_reproduce_headline_numbers() {
        use Category::*;
        let c = CategoryCounts::PAPER;
        assert_eq!(c.expected_tuples(), 39_949);
        assert_eq!(c.expected_pairs(), 776_945);
        // maxLength-using tuples: 4,630 of which 3,889 vulnerable (84.0%).
        let using = c[AdopterMaxLenPlain]
            + c[AdopterMaxLenSafe]
            + c[AdopterMaxLenDeep]
            + c[AdopterMaxLenPartial]
            + c[AdopterScattered];
        assert_eq!(using, 4_630);
        let vulnerable = using - c[AdopterMaxLenSafe];
        assert_eq!(vulnerable, 3_889);
        assert!((vulnerable as f64 / using as f64 - 0.84).abs() < 0.005);
        // Minimalized pair count: 52,745.
        let minimal = c[AdopterExact]
            + c[AdopterMaxLenPlain]
            + c[AdopterTripleStale]
            + 3 * (c[AdopterMaxLenSafe] + c[AdopterTripleLive] + c[AdopterMaxLenDeep])
            + 2 * c[AdopterMaxLenPartial]
            + c.scattered_pairs;
        assert_eq!(minimal, 52_745);
        // Status-quo compression: triples merge 3→1.
        let compressed = c.expected_tuples() - 2 * (c[AdopterTripleStale] + c[AdopterTripleLive]);
        assert_eq!(compressed, 33_615);
        // Full-deployment lower bound: pairs minus same-origin descendants.
        let descendants = 2
            * (c[DeaggDepth1] + c[AdopterMaxLenSafe] + c[AdopterTripleLive] + c[AdopterMaxLenDeep])
            + 6 * c[DeaggDepth2]
            + (c[DeaggPartial] + c[AdopterMaxLenPartial]);
        assert_eq!(c.expected_pairs() - descendants, 729_372); // paper: 729,371

        // Full-deployment compressed: bound + partial de-aggregations.
        let full_compressed =
            c.expected_pairs() - descendants + (c[DeaggPartial] + c[AdopterMaxLenPartial]);
        assert_eq!(full_compressed, 730_009); // paper: 730,008
    }

    #[test]
    fn scaling_rounds_but_keeps_classes_alive() {
        let c = CategoryCounts::PAPER.scaled(0.001);
        assert!(c[Category::AdopterMaxLenPartial] >= 1);
        assert!(c[Category::Plain] >= 600);
        let identity = CategoryCounts::PAPER.scaled(1.0);
        assert_eq!(identity, CategoryCounts::PAPER);
    }

    #[test]
    fn default_config() {
        let cfg = GeneratorConfig::default();
        assert_eq!(cfg.weeks, 8);
        assert_eq!(cfg.counts(), CategoryCounts::PAPER);
        let small = GeneratorConfig::small(7);
        assert!(small.counts().expected_pairs() < 10_000);
    }
}
