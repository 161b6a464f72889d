//! Order statistics for timing samples.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, together with the
//! sample count. Percentiles come from a fixed ladder so that runs of the
//! same length report the same percentile.

/// Samples a reported tail percentile must have strictly above it.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, ascending.
pub const LADDER: [f64; 8] = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9];

/// Median and tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median (nearest rank); 0 when there are no samples.
    pub p50: f64,
    /// The value at [`Summary::tail_pct`].
    pub tail: f64,
    /// The highest ladder percentile with [`MIN_BEYOND`] samples beyond
    /// it; 50 when even the median has fewer.
    pub tail_pct: f64,
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples
/// (computed in integer per-mille so ladder rungs are exact).
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    let r = (per_mille * n).div_ceil(1000);
    r.clamp(1, n) - 1
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] of `n`
/// samples strictly above its rank, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - 1 - rank(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p)]
}

/// Summarise `samples` (any order).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(sorted.len()).unwrap_or(50.0);
    Summary {
        n: sorted.len(),
        p50: percentile_sorted(&sorted, 50.0),
        tail: percentile_sorted(&sorted, tail_pct),
        tail_pct,
    }
}

/// Median and the value at percentile `pct` (any order), with the count
/// of samples strictly above that percentile's rank.
pub fn summarize_at(samples: &[f64], pct: f64) -> (Summary, usize) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let beyond = if n == 0 { 0 } else { n - 1 - rank(n, pct) };
    let s = Summary {
        n,
        p50: percentile_sorted(&sorted, 50.0),
        tail: percentile_sorted(&sorted, pct),
        tail_pct: pct,
    };
    (s, beyond)
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // too few samples for anything above the median
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(15), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - 1 - rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
                // the next rung up would leave fewer than ten beyond
                if let Some(&next) = LADDER.iter().find(|&&q| q > p) {
                    assert!(n - 1 - rank(n, next) < MIN_BEYOND, "n={n} next={next}");
                }
            }
        }
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.tail_pct, 95.0);
        assert_eq!(s.tail, 190.0);
        let beyond = samples.iter().filter(|&&v| v > s.tail).count();
        assert!(beyond >= MIN_BEYOND);
    }

    #[test]
    fn a_fixed_percentile_reports_how_many_samples_lie_beyond_it() {
        let samples: Vec<f64> = (1..=300).map(f64::from).collect();
        let (s, beyond) = summarize_at(&samples, 95.0);
        assert_eq!((s.n, s.p50, s.tail, beyond), (300, 150.0, 285.0, 15));
        assert_eq!(summarize_at(&[], 95.0).1, 0);
    }

    #[test]
    fn small_sets_fall_back_to_the_median() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.tail, s.tail_pct), (3, 2.0, 2.0, 50.0));
        assert_eq!(summarize(&[]).p50, 0.0);
    }
}
