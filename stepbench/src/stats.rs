//! Order statistics for the benchmark's samples.
//!
//! Percentiles use the nearest-rank rule, and a percentile is reported only
//! when at least [`MIN_TAIL`] samples lie beyond it: p90 needs 100 samples,
//! p99 needs 1000. Quartiles follow Python's `statistics.quantiles(data,
//! n=4)` (the "exclusive" method), so the steadiness report agrees with a
//! spread computed from the printed results in Python.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); `None` when
/// there are no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// 1-based nearest rank of percentile `p` in `n` samples. The product is
/// rounded to nanoranks first, so `99.9 × 10000 / 100` is exactly 9990
/// and not 9990.000000000002.
fn nearest_rank(p: f64, n: usize) -> usize {
    let r = (p * n as f64 / 100.0 * 1e9).round() / 1e9;
    (r.ceil() as usize).clamp(1, n)
}

/// Whether percentile `p` of `n` samples has at least [`MIN_TAIL`] samples
/// beyond it.
pub fn percentile_allowed(p: f64, n: usize) -> bool {
    n > 0 && n - nearest_rank(p, n) >= MIN_TAIL
}

/// The highest of `candidates` (percentiles in `(0, 100)`) that `n` samples
/// support under [`percentile_allowed`].
pub fn highest_allowed(candidates: &[f64], n: usize) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| percentile_allowed(p, n))
        .max_by(f64::total_cmp)
}

/// Nearest-rank percentile `p` of `xs`, refused (`None`) when too few
/// samples lie beyond it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if !percentile_allowed(p, xs.len()) {
        return None;
    }
    let v = sorted(xs);
    Some(v[nearest_rank(p, v.len()) - 1])
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(xs, n=4)` computes them; `None` below 2 samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_is_refused_below_100_samples() {
        assert!(!percentile_allowed(90.0, 99));
        assert!(percentile_allowed(90.0, 100));
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Nearest rank 90 leaves exactly ten samples (91..=100) beyond it.
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
    }

    #[test]
    fn highest_allowed_percentile_tracks_sample_count() {
        let cands = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_allowed(&cands, 20), Some(50.0));
        assert_eq!(highest_allowed(&cands, 100), Some(90.0));
        assert_eq!(highest_allowed(&cands, 999), Some(90.0));
        assert_eq!(highest_allowed(&cands, 1000), Some(99.0));
        assert_eq!(highest_allowed(&cands, 10_000), Some(99.9));
        assert_eq!(highest_allowed(&cands, 5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some([4.5, 6.0, 7.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
