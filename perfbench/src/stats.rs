//! Order statistics over timing samples.

/// The median (mean of the two middle samples for an even count); 0 for
/// an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile, `p` in `[0, 1]`; 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let idx = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
    s[idx]
}

/// The lower median of integer counts, so a count stays a whole number.
pub fn median_count(samples: &[u64]) -> u64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    s.get(s.len().saturating_sub(1) / 2).copied().unwrap_or(0)
}

/// The arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `num / den`, or 0 when the denominator is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
