//! Exact order statistics: nearest-rank percentiles over raw samples (never a
//! histogram), and the quartile spread the regression bounds are judged by.

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `p` percent of the samples at or below it. 0 for an empty slice.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Stretches a timed phase is cut into for [`typical`].
pub const WINDOWS: usize = 10;

/// What a typical stretch of a phase showed: `f` of each of [`WINDOWS`]
/// consecutive, equally long stretches of `in_order` (samples in arrival
/// order), and the median of those. A burst of scheduler or neighbour noise
/// spoils one or two stretches and leaves the median alone, where it would
/// move a percentile or a mean taken over the whole phase. With fewer samples
/// than stretches it is `f` of them all.
pub fn typical<T>(in_order: &[T], f: impl Fn(&[T]) -> f64) -> f64 {
    let len = in_order.len() / WINDOWS;
    if len == 0 {
        return f(in_order);
    }
    median(&in_order.chunks_exact(len).take(WINDOWS).map(f).collect::<Vec<_>>())
}

/// Nearest-rank percentile of unsorted samples, in thousandths of their unit
/// (ns in, µs out).
pub fn percentile_us<T: Copy + Default + Ord + Into<u64>>(samples: &[T], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    percentile(&v, p).into() as f64 / 1e3
}

/// Mean of samples, in thousandths of their unit (ns in, µs out).
pub fn mean_us<T: Copy + Into<u64>>(samples: &[T]) -> f64 {
    samples.iter().map(|&s| s.into()).sum::<u64>() as f64 / samples.len().max(1) as f64 / 1e3
}

/// Median of unsorted values (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so a spread computed here
/// equals the one the acceptance procedure computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u32], 99.0), 7);
        assert_eq!(percentile::<u32>(&[], 50.0), 0);
        // 250 samples: p95 leaves 12 beyond it, p99 only 2.
        let w: Vec<u32> = (1..=250).collect();
        assert_eq!(percentile(&w, 95.0), 238);
        assert_eq!(percentile(&w, 99.0), 248);
    }

    #[test]
    fn typical_is_the_median_stretch_and_shrugs_off_a_burst() {
        // 100 samples of 10 ns with one stretch of ten spoiled by a stall.
        let mut v = vec![10u32; 100];
        v[30..40].fill(5_000);
        assert_eq!(typical(&v, |w| percentile_us(w, 99.0)), 0.01);
        assert_eq!(typical(&v, mean_us), 0.01);
        assert_eq!(percentile_us(&v, 99.0), 5.0);
        // Fewer samples than stretches: all of them at once.
        assert_eq!(typical(&[3_000u32, 1_000, 2_000], |w| percentile_us(w, 50.0)), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
