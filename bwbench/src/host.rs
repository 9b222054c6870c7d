//! The host-speed probe that `retail`'s `setup_s` and `train_s` are
//! adjusted by.
//!
//! On a shared VM the cores run the same code up to about 1.6x slower
//! for stretches of seconds to minutes while other tenants load them,
//! and memory-heavy work like training slows the most. A run that
//! lands in such a stretch reads slow on every job, so the run's figure
//! moves with the host rather than with the program. The probe is a
//! fixed kernel of this benchmark's own (allocation, hashing, float
//! math, a sort), timed next to each set-up and training job; the wall
//! time scaled by [`REFERENCE_S`] / probe time is what the step would
//! take on a host where the probe takes [`REFERENCE_S`]. The probe does
//! not depend on the program, so a program change moves the adjusted
//! time just as it moves the wall time.
//!
//! Only `retail` is adjusted: its set-up and training are single-thread
//! in-process compute, which the probe tracks. Coordinator IPC,
//! appends under load and request latency do not slow with the probe,
//! and adjusting them made their run-to-run spread wider.

use std::collections::HashMap;
use std::time::Instant;

/// Probe time that adjusted times are scaled to: one probe on an idle
/// core of a two-vCPU Xeon VM.
pub const REFERENCE_S: f64 = 0.025;

/// Keys the probe generates, hashes and sorts (4 MiB of them).
const KEYS: u64 = 1 << 19;

/// Run the probe kernel once; returns its wall time in seconds.
pub fn probe() -> f64 {
    let start = Instant::now();
    let mut state = 0x1234_5678_u64;
    let mut keys: Vec<u64> = (0..KEYS)
        .map(|_| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect();
    let mut sums: HashMap<u64, f64> = HashMap::new();
    for &k in &keys {
        *sums.entry(k % 40_009).or_default() += ((k >> 11) as f64).sqrt();
    }
    keys.sort_unstable();
    std::hint::black_box((keys[keys.len() / 2], sums.len()));
    start.elapsed().as_secs_f64()
}

/// `wall` seconds measured where a probe took `probe` seconds, scaled
/// to the reference host.
pub fn adjust(wall: f64, probe: f64) -> f64 {
    wall * REFERENCE_S / probe
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjust_scales_to_the_reference_probe() {
        assert!((adjust(0.8, REFERENCE_S) - 0.8).abs() < 1e-12);
        // A host twice as slow as the reference halves the figure.
        assert!((adjust(0.8, 2.0 * REFERENCE_S) - 0.4).abs() < 1e-12);
    }
}
