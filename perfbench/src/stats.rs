//! Order statistics over repetition samples.

/// Linear-interpolated quantile `q` in [0, 1] of `xs` (the "inclusive"
/// method: Python's `statistics.quantiles(..., method="inclusive")`).
/// Returns 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// First and third quartile of `xs` by Python's default
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so that a
/// results file's spread can be recomputed from its samples. One sample
/// is its own quartiles; an empty slice gives zeros.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    // Python's integer arithmetic: j clamped to 1..n-1, delta may
    // extrapolate past the two end samples.
    let cut = |i: i64| {
        let m = n as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile `p` in (0, 100] of `xs`: the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn nearest_rank(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest whole percentile that leaves at least ten samples above
/// it, capped at 90; with ten or fewer samples, the 50th.
pub fn tail_percentile(n: usize) -> f64 {
    if n <= 10 {
        return 50.0;
    }
    let p = ((n - 10) as f64 / n as f64 * 100.0).floor();
    p.clamp(50.0, 90.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    /// Values from Python 3.11's `statistics.quantiles(xs, n=4)`.
    #[test]
    fn quartiles_match_python() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 3.75));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let xs: Vec<f64> = (1..=108).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 90.0), 98.0);
        assert_eq!(nearest_rank(&xs, 50.0), 54.0);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        assert_eq!(tail_percentile(108), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(6), 50.0);
    }
}
