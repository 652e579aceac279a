//! Exact order statistics over raw samples.

use std::time::Instant;

/// Nearest-rank percentile (`q` in 0..=1) of `samples`; 0 when empty.
pub fn percentile(mut samples: Vec<f64>, q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median (mean of the two middle samples for an even count); 0 when empty.
pub fn median(mut samples: Vec<f64>) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Median wall time in seconds of `reps` calls of `f`.
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    median(
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_secs_f64()
            })
            .collect(),
    )
}
