//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending-sorted slice (`p` in `0..=1`).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` in place and returns the ascending slice.
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(sorted(values), 0.5)
}

/// Interquartile mean of `values` (sorts in place): the mean of what is
/// left once the lowest and the highest quarter are dropped. Like a median
/// it ignores a stalled pass; unlike a median it moves smoothly when the
/// machine flips between two speeds mid-run, which this one does.
pub fn midmean(values: &mut [f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "midmean of an empty sample");
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The tail percentiles a report may quote, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.75];

/// The highest tail percentile that still has at least ten samples beyond
/// it, or `None` when even p75 does not (fewer than 40 samples).
pub fn supported_tail(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(0.75));
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(240), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn midmean_drops_a_quarter_at_each_end() {
        assert_eq!(midmean(&mut [5.0]), 5.0);
        assert_eq!(midmean(&mut [1.0, 2.0, 6.0]), 3.0);
        assert_eq!(midmean(&mut [100.0, 1.0, 2.0, 4.0]), 3.0);
        assert_eq!(midmean(&mut [9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]), 3.5);
    }
}
