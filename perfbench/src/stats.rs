//! Percentiles under the "ten samples beyond" rule: a percentile is
//! reported only when at least ten samples lie above it, so a p99 needs
//! at least 1,000 samples and a p50 at least 20.

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1)`) of `samples`, or an error
/// when fewer than [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < TAIL_SAMPLES {
        return Err(format!(
            "p{} needs {} samples beyond it; {n} samples give {}",
            q * 100.0,
            TAIL_SAMPLES,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of a few repeated measurements (any count ≥ 1).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Percentile `q` of each consecutive window of `window` samples (the
/// last window absorbs the remainder; fewer than `window` samples form a
/// single window).
pub fn window_percentiles(samples: &[f64], q: f64, window: usize) -> Result<Vec<f64>, String> {
    let windows = (samples.len() / window.max(1)).max(1);
    let size = samples.len() / windows;
    (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * size
            };
            percentile(&samples[w * size..end], q)
        })
        .collect()
}
