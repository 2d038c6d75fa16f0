//! Order statistics used for every reported number.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (exclusive method), the rule the acceptance driver applies to the
//! spread between runs, so a spread printed here reads the same there.

/// Median of `values` (mean of the two middle values for even counts).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, exclusive method: the `k`-th cut point sits
/// at position `k (n + 1) / 4` (1-based) with linear interpolation,
/// clamped to the sample range. Fewer than two values have no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    if values.len() < 2 {
        let v = values.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Inter-quartile range.
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of an ascending-sorted
/// sample.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of `0.99, 0.95, 0.90, 0.50` that is at most `wanted` and
/// still has at least ten samples beyond it in a sample of `n` — the
/// "ten samples beyond" rule: a tail percentile resting on fewer
/// samples moves with single outliers.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    [0.99, 0.95, 0.90]
        .into_iter()
        .filter(|&p| p <= wanted)
        .find(|&p| (n as f64) * (1.0 - p) >= 10.0)
        .unwrap_or(0.50)
}

/// Interquartile mean of an unsorted sample of durations: the mean of
/// the middle half. As robust against stragglers as the median, but not
/// quantised to the clock's resolution, so a microsecond-scale time keeps
/// all the digits it was measured with.
pub fn midmean_u64(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let quarter = v.len() / 4;
    let middle = &v[quarter..v.len() - quarter];
    middle.iter().sum::<u64>() as f64 / middle.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: two
        // values extrapolate outward, as Python does.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn midmean_ignores_the_outer_quarters() {
        assert_eq!(midmean_u64(&[1, 10, 11, 12, 13, 14, 15, 1_000]), 12.5);
        assert_eq!(midmean_u64(&[7]), 7.0);
        assert_eq!(midmean_u64(&[1, 2, 3]), 2.0);
        assert_eq!(midmean_u64(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.95), 95);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 needs 200 samples, p99 needs 1000.
        assert_eq!(supported_percentile(199, 0.95), 0.90);
        assert_eq!(supported_percentile(200, 0.95), 0.95);
        assert_eq!(supported_percentile(999, 0.99), 0.95);
        assert_eq!(supported_percentile(1000, 0.99), 0.99);
        assert_eq!(supported_percentile(50, 0.99), 0.50);
    }
}
