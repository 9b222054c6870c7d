//! The one percentile helper every metric of the benchmark goes through.
//!
//! A tail percentile is reported only when at least [`MIN_BEYOND`]
//! samples lie beyond it; with fewer, the figure would be set by a
//! handful of outliers and move from run to run for no reason.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Lower quartile (nearest rank) of `samples`; `None` when empty.
///
/// The run-level figure for a repeated operation (a training job, a
/// set-up): on a shared host, contention from other tenants only ever
/// adds time, in stretches of seconds that may cover most of a run, so
/// the faster quarter of a run's samples reads the program's own cost
/// most steadily. A change that makes every repetition slower moves it
/// just as it moves the median.
pub fn lower_quartile(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let rank = samples.len().div_ceil(4);
    Some(sorted(samples)[rank - 1])
}

/// Nearest-rank `q`-quantile (`0 < q < 1`), reported only when at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn lower_quartile_is_the_nearest_rank() {
        assert_eq!(lower_quartile(&[]), None);
        assert_eq!(lower_quartile(&[5.0]), Some(5.0));
        // Three samples: rank 1, the fastest.
        assert_eq!(lower_quartile(&[3.0, 1.0, 2.0]), Some(1.0));
        // Twenty samples: rank 5.
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&twenty), Some(5.0));
        assert_eq!(lower_quartile(&twenty[..17]), Some(8.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90, with exactly ten samples (91..=100) beyond.
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        // p99 would leave one sample beyond: not reported.
        assert_eq!(percentile(&hundred, 0.99), None);
        assert_eq!(percentile(&hundred[..99], 0.9), None);
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
    }
}
