//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The highest whole percentile that still has at least ten samples
/// beyond it, or `None` when even the median does not (fewer than 20
/// samples). 600 and 900 samples both give 98.
pub fn tail_percentile(n: usize) -> Option<u32> {
    let pct = (100 * n.saturating_sub(10)).checked_div(n)? as u32;
    (pct >= 50).then_some(pct.min(99))
}

/// Nearest-rank percentile: the smallest sample with at least `pct` % of
/// the samples at or below it.
pub fn percentile(xs: &[f64], pct: u32) -> f64 {
    assert!(!xs.is_empty() && pct <= 100, "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (pct as usize * v.len()).div_ceil(100).max(1);
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // The two serial workloads' sample counts, and the smallest
        // reference run, all resolve to p98.
        assert_eq!(tail_percentile(600), Some(98));
        assert_eq!(tail_percentile(900), Some(98));
        assert_eq!(tail_percentile(500), Some(98));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(1_000_000), Some(99));
        assert_eq!(tail_percentile(60), Some(83));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 20..2000usize {
            let p = tail_percentile(n).unwrap() as usize;
            let beyond = n - (p * n).div_ceil(100);
            assert!(beyond >= 10, "n = {n}: p{p} leaves {beyond} beyond");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 98), 98.0);
        assert_eq!(percentile(&xs, 100), 100.0);
        assert_eq!(percentile(&[7.0], 98), 7.0);
    }
}
