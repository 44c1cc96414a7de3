//! Order statistics over timing samples.

/// Sorted copy of `samples`.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest rank (1-based) of the `permille`/10-th percentile among `n`
/// samples, in integer arithmetic: 99.9 % of 10,000 is rank 9,990, not
/// the 9,991 that `(0.999 * 10_000.0).ceil()` rounds up to.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Tenths of a percent, for [`rank`].
fn permille(p: f64) -> usize {
    (p * 10.0).round() as usize
}

/// The median (mean of the two middle samples for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The `p`-th percentile by nearest rank.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    s[rank(s.len(), permille(p)) - 1]
}

/// The percentiles a tail may be reported at, ascending.
const TAIL_CANDIDATES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest candidate percentile with at least ten samples beyond
/// it, and its value — the tail a sample of this size supports. With
/// fewer than twenty samples nothing qualifies and the median is
/// returned.
pub fn supported_tail(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    assert!(!s.is_empty(), "tail of no samples");
    let p = TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| s.len() - rank(s.len(), permille(p)) >= 10)
        .unwrap_or(50.0);
    (p, s[rank(s.len(), permille(p)) - 1])
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them — the spread rule the benchmark's acceptance uses.
/// Fewer than two samples give the sample itself twice.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    if s.len() < 2 {
        let only = s.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let n = 4usize;
    let m = s.len() + 1;
    let cut = |i: usize| -> f64 {
        let j = (i * m / n).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0).
pub fn spread_share(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let med = median(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 200 samples: p90 leaves 20 beyond, p99 only 2.
        assert_eq!(supported_tail(&ramp(200)), (90.0, 180.0));
        // 800 samples: p99 leaves 8 beyond — still p90.
        assert_eq!(supported_tail(&ramp(800)), (90.0, 720.0));
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(supported_tail(&ramp(1000)), (99.0, 990.0));
        // 10,000 samples: p99.9 leaves 10 beyond.
        assert_eq!(supported_tail(&ramp(10_000)), (99.9, 9990.0));
        // 20 samples support the median (10 beyond) and nothing higher.
        assert_eq!(supported_tail(&ramp(20)), (50.0, 10.0));
        // Too few for any candidate: the median is still reported.
        assert_eq!(supported_tail(&ramp(5)), (50.0, 3.0));
        assert_eq!(100 - rank(100, 900), 10);
        assert_eq!(percentile(&ramp(200), 99.0), 198.0);
        assert_eq!(supported_tail(&ramp(100)).0, 90.0);
        assert_eq!(supported_tail(&ramp(99)).0, 50.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((spread_share(&ramp(10)) - 1.0).abs() < 1e-12);
    }
}
