//! Order statistics for the report: medians, the tail-percentile rule
//! and quartile spreads.

/// Percentiles the tail rule may pick from, highest first.
const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `values` (`q` in `(0, 1]`): the value at
/// 1-based rank `ceil(q * n)`. `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(sorted.len(), q);
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of quantile `q` among `n` samples. The small
/// offset keeps `0.999 * 10_000`, which rounds to just above 9990 in
/// binary, on rank 9990.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median (nearest-rank 50th percentile, so always an observed value).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Arithmetic mean. `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Interquartile mean: the mean of the middle half of the sorted
/// values (all of them when fewer than four). It averages like a mean
/// but ignores the quarter of outliers on each side.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// The highest percentile on the ladder (99.9, 99, 90, 50) that has at
/// least [`TAIL_MIN_BEYOND`] samples strictly beyond its rank, with its
/// value. `None` when even the median has fewer than ten beyond it
/// (under 20 samples).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let q = TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| n > 0 && n - nearest_rank(n, q) >= TAIL_MIN_BEYOND)?;
    Some((q, percentile(values, q)?))
}

/// Summary of one sample series: median, tail percentile (when the
/// sample count allows one) and sample count.
pub fn describe(values: &[f64]) -> String {
    let Some(mid) = median(values) else {
        return "no samples".to_string();
    };
    let tail = match tail(values) {
        Some((q, v)) => format!(", p{} {v:.6}", q * 100.0),
        None => String::new(),
    };
    format!("median {mid:.6}{tail}, n={}", values.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&series(100), 0.99), Some(99.0));
        assert_eq!(percentile(&series(10), 1.0), Some(10.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(interquartile_mean(&[]), None);
        assert_eq!(interquartile_mean(&[9.0, 1.0, 2.0]), Some(4.0));
        // Eight values: the two lowest and two highest are dropped.
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(interquartile_mean(&v), Some(3.5));
    }

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        // Under 20 samples not even the median has ten beyond it.
        assert_eq!(tail(&series(0)), None);
        assert_eq!(tail(&series(19)), None);
        // 20 samples: rank 10 leaves exactly ten beyond the median.
        assert_eq!(tail(&series(20)), Some((0.5, 10.0)));
        // 99 samples: p90 is rank 90 with only nine beyond, so p50.
        assert_eq!(tail(&series(99)), Some((0.5, 50.0)));
        // 100 samples: p90 is rank 90, ten beyond.
        assert_eq!(tail(&series(100)), Some((0.9, 90.0)));
        // 999 samples: p99 is rank 990 with nine beyond, so p90.
        assert_eq!(tail(&series(999)), Some((0.9, 900.0)));
        // 1000 samples: p99 is rank 990, ten beyond.
        assert_eq!(tail(&series(1000)), Some((0.99, 990.0)));
        // 10 000 samples: p99.9 is rank 9990, ten beyond.
        assert_eq!(tail(&series(10_000)), Some((0.999, 9990.0)));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut shuffled = series(1000);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), Some((0.99, 990.0)));
    }
}
