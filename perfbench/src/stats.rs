//! Order statistics used by every reported metric.
//!
//! Percentiles use the nearest-rank rule on the sorted samples: the `p`-th
//! percentile of `n` samples is the `ceil(p / 100 * n)`-th smallest (1-based,
//! at least the first). The median averages the two middle samples of an
//! even-sized list, like Python's `statistics.median`.

/// Sorts a copy of `values` (NaN-free by construction: every sample is a
/// measured duration or ratio).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median of `values`, or `None` for an empty list.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `pct`-th percentile of already sorted samples, or `None`
/// for an empty list.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((pct.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank `pct`-th percentile of `values`, or `None` when empty.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    percentile_sorted(&sorted(values), pct)
}

/// The mean of `values`, or `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 5.0, 1.0, 9.0, 9.0, 9.0]), Some(7.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        // 1..=100: the p-th percentile is exactly p.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 99.0), Some(99.0));
        assert_eq!(percentile(&hundred, 99.9), Some(100.0));
        assert_eq!(percentile(&hundred, 100.0), Some(100.0));
        assert_eq!(percentile(&hundred, 0.0), Some(1.0));
        // Ten samples: ceil(0.5 * 10) = 5th, ceil(0.99 * 10) = 10th.
        let ten = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0];
        assert_eq!(percentile(&ten, 50.0), Some(50.0));
        assert_eq!(percentile(&ten, 51.0), Some(60.0));
        assert_eq!(percentile(&ten, 99.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[2.5], 99.0), Some(2.5));
    }

    #[test]
    fn mean_and_ratio() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }
}
