//! Generator configuration: the paper-calibrated category counts and the
//! knobs (seed, scale, weeks) the harness exposes.

/// The eight weekly snapshot labels of Figure 3.
pub const WEEK_LABELS: [&str; 8] = ["4/13", "4/20", "4/27", "5/4", "5/11", "5/18", "5/25", "6/1"];

/// Per-class entity counts. At `scale = 1.0` these reproduce the paper's
/// 6/1/2017 aggregates (see the crate docs for the calibration table and
/// the arithmetic tying each count to a Table 1 row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategoryCounts {
    /// Adopters announcing and authorizing exactly their allocation.
    pub adopter_exact: usize,
    /// Adopter ROAs whose prefix is no longer announced at all.
    pub adopter_stale: usize,
    /// Adopters with `maxLength > len` announcing only the allocation
    /// (vulnerable).
    pub adopter_maxlen_plain: usize,
    /// Adopter ROAs listing `{p, p0, p1}` with only `p` announced.
    pub adopter_triple_stale: usize,
    /// Adopters using `maxLength = len+1` and announcing the full depth-1
    /// subtree (the paper's minimal 16% of maxLength users).
    pub adopter_maxlen_safe: usize,
    /// Adopter ROAs listing `{p, p0, p1}` with all three announced.
    pub adopter_triple_live: usize,
    /// Adopters using `maxLength ≥ len+2` while announcing only depth 1
    /// (vulnerable).
    pub adopter_maxlen_deep: usize,
    /// Adopters using `maxLength = len+1` announcing the parent and one
    /// child (vulnerable).
    pub adopter_maxlen_partial: usize,
    /// Adopters holding a permissive `p-24` ROA while announcing scattered
    /// /24s and not `p` itself (vulnerable).
    pub adopter_scattered: usize,
    /// Total scattered /24 announcements across all scattered adopters.
    pub scattered_pairs: usize,
    /// Non-adopter allocations announced as-is.
    pub plain: usize,
    /// Non-adopter full depth-1 de-aggregations (`p, p0, p1`).
    pub deagg_depth1: usize,
    /// Non-adopter full depth-2 de-aggregations (7 announcements).
    pub deagg_depth2: usize,
    /// Non-adopter partial de-aggregations (`p, p0`).
    pub deagg_partial: usize,
    /// Number of RPKI-adopting ASes (= ROA objects; the paper has 7,499).
    pub adopter_ases: usize,
}

impl CategoryCounts {
    /// The paper-scale counts (reproduces the 6/1/2017 dataset).
    pub const PAPER: CategoryCounts = CategoryCounts {
        adopter_exact: 25_000,
        adopter_stale: 818,
        adopter_maxlen_plain: 1_389,
        adopter_triple_stale: 2_490,
        adopter_maxlen_safe: 741,
        adopter_triple_live: 677,
        adopter_maxlen_deep: 300,
        adopter_maxlen_partial: 200,
        adopter_scattered: 2_000,
        scattered_pairs: 18_312,
        plain: 662_076,
        deagg_depth1: 15_750,
        deagg_depth2: 2_000,
        deagg_partial: 437,
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
            adopter_exact: s(self.adopter_exact),
            adopter_stale: s(self.adopter_stale),
            adopter_maxlen_plain: s(self.adopter_maxlen_plain),
            adopter_triple_stale: s(self.adopter_triple_stale),
            adopter_maxlen_safe: s(self.adopter_maxlen_safe),
            adopter_triple_live: s(self.adopter_triple_live),
            adopter_maxlen_deep: s(self.adopter_maxlen_deep),
            adopter_maxlen_partial: s(self.adopter_maxlen_partial),
            adopter_scattered: s(self.adopter_scattered),
            scattered_pairs: s(self.scattered_pairs),
            plain: s(self.plain),
            deagg_depth1: s(self.deagg_depth1),
            deagg_depth2: s(self.deagg_depth2),
            deagg_partial: s(self.deagg_partial),
            adopter_ases: s(self.adopter_ases),
        }
    }

    /// Expected number of RPKI tuples (PDUs) in the generated world —
    /// 39,949 at paper scale.
    ///
    /// A test hook: `tests/props.rs` and the crate's unit tests check
    /// every generated world against it.
    pub fn expected_tuples(&self) -> usize {
        self.adopter_exact
            + self.adopter_stale
            + self.adopter_maxlen_plain
            + 3 * self.adopter_triple_stale
            + self.adopter_maxlen_safe
            + 3 * self.adopter_triple_live
            + self.adopter_maxlen_deep
            + self.adopter_maxlen_partial
            + self.adopter_scattered
    }

    /// Expected number of BGP `(prefix, origin)` pairs — 776,945 at paper
    /// scale.
    pub fn expected_pairs(&self) -> usize {
        // Adopter announcements.
        self.adopter_exact
            + self.adopter_maxlen_plain
            + self.adopter_triple_stale
            + 3 * self.adopter_maxlen_safe
            + 3 * self.adopter_triple_live
            + 3 * self.adopter_maxlen_deep
            + 2 * self.adopter_maxlen_partial
            + self.scattered_pairs
            // Non-adopter announcements.
            + self.plain
            + 3 * self.deagg_depth1
            + 7 * self.deagg_depth2
            + 2 * self.deagg_partial
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
    /// Fraction of allocations put in IPv6 (the 2017 tables were ≈5% v6
    /// by pair count).
    pub v6_fraction: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 0x6a17_2017,
            scale: 1.0,
            weeks: 8,
            v6_fraction: 0.05,
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
        let c = CategoryCounts::PAPER;
        assert_eq!(c.expected_tuples(), 39_949);
        assert_eq!(c.expected_pairs(), 776_945);
        // maxLength-using tuples: 4,630 of which 3,889 vulnerable (84.0%).
        let using = c.adopter_maxlen_plain
            + c.adopter_maxlen_safe
            + c.adopter_maxlen_deep
            + c.adopter_maxlen_partial
            + c.adopter_scattered;
        assert_eq!(using, 4_630);
        let vulnerable = using - c.adopter_maxlen_safe;
        assert_eq!(vulnerable, 3_889);
        assert!((vulnerable as f64 / using as f64 - 0.84).abs() < 0.005);
        // Minimalized pair count: 52,745.
        let minimal = c.adopter_exact
            + c.adopter_maxlen_plain
            + c.adopter_triple_stale
            + 3 * (c.adopter_maxlen_safe + c.adopter_triple_live + c.adopter_maxlen_deep)
            + 2 * c.adopter_maxlen_partial
            + c.scattered_pairs;
        assert_eq!(minimal, 52_745);
        // Status-quo compression: triples merge 3→1.
        let compressed = c.expected_tuples() - 2 * (c.adopter_triple_stale + c.adopter_triple_live);
        assert_eq!(compressed, 33_615);
        // Full-deployment lower bound: pairs minus same-origin descendants.
        let descendants = 2
            * (c.deagg_depth1
                + c.adopter_maxlen_safe
                + c.adopter_triple_live
                + c.adopter_maxlen_deep)
            + 6 * c.deagg_depth2
            + (c.deagg_partial + c.adopter_maxlen_partial);
        assert_eq!(c.expected_pairs() - descendants, 729_372); // paper: 729,371
                                                               // Full-deployment compressed: bound + partial de-aggregations.
        let full_compressed =
            c.expected_pairs() - descendants + (c.deagg_partial + c.adopter_maxlen_partial);
        assert_eq!(full_compressed, 730_009); // paper: 730,008
    }

    #[test]
    fn scaling_rounds_but_keeps_classes_alive() {
        let c = CategoryCounts::PAPER.scaled(0.001);
        assert!(c.adopter_maxlen_partial >= 1);
        assert!(c.plain >= 600);
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
