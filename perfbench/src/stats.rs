//! Summary statistics for the benchmark's timings.

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer would let a handful of outliers set the number.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (strictly between 0 and 1) of `samples`.
///
/// Refused (`None`) unless at least [`MIN_BEYOND`] samples lie strictly
/// beyond the chosen rank, so a p99 needs at least 1000 samples and a p50
/// at least 20.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a few whole-phase measurements (e.g. repeated set-ups); the
/// mean of the middle two for an even count. `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Typical cost of one call: the p50 when [`percentile`] accepts it,
/// otherwise the mean (total over count); 0 when there are no samples.
pub fn per_call(samples: &[f64]) -> f64 {
    match percentile(samples, 0.5) {
        Some(p) => p,
        None if samples.is_empty() => 0.0,
        None => samples.iter().sum::<f64>() / samples.len() as f64,
    }
}

/// Geometric mean of positive ratios; 1.0 for an empty set.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
