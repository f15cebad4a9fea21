//! Power, energy and SNR measurement.
//!
//! Used to calibrate AWGN in the channel simulator, by the gateway's
//! energy detector, and by the cloud's power-ordered SIC scheduler.

use crate::num::{lin_to_db, Cf32};

/// Mean power (energy per sample) of a complex signal.
///
/// The f64 energy reduction runs on the active [`crate::kernels`]
/// backend (bit-exact to that backend's lane-split reference, not
/// across backends).
pub fn mean_power(signal: &[Cf32]) -> f32 {
    if signal.is_empty() {
        return 0.0;
    }
    (crate::kernels::energy_f64(signal) / signal.len() as f64) as f32
}

/// Total energy of a complex signal.
pub fn energy(signal: &[Cf32]) -> f32 {
    crate::kernels::energy_f64(signal) as f32
}

/// Peak instantaneous power (bit-exact across [`crate::kernels`]
/// backends for finite inputs).
pub fn peak_power(signal: &[Cf32]) -> f32 {
    crate::kernels::max_norm_sqr(signal)
}

/// Scales a signal in place so its mean power becomes `target`.
/// A silent signal is left untouched.
pub fn normalize_power(signal: &mut [Cf32], target: f32) {
    let p = mean_power(signal);
    if p <= 0.0 {
        return;
    }
    let k = (target / p).sqrt();
    for z in signal {
        *z *= k;
    }
}

/// Signal-to-noise ratio in dB given mean signal and noise powers.
#[inline]
pub fn snr_db(signal_power: f32, noise_power: f32) -> f32 {
    lin_to_db(signal_power / noise_power)
}

/// Sliding mean power over windows of `len` samples, output length
/// `signal.len() - len + 1`. Computed with prefix sums in f64.
pub fn sliding_power(signal: &[Cf32], len: usize) -> Vec<f32> {
    if len == 0 || signal.len() < len {
        return Vec::new();
    }
    // |z|^2 on the SIMD backend (bit-exact), then the same sequential
    // f64 prefix accumulation as ever so windows are backend-invariant.
    let mut sq = vec![0.0f32; signal.len()];
    crate::kernels::norm_sqr_into(signal, &mut sq);
    let mut prefix = Vec::with_capacity(signal.len() + 1);
    prefix.push(0.0f64);
    let mut acc = 0.0f64;
    for &v in &sq {
        acc += v as f64;
        prefix.push(acc);
    }
    (0..signal.len() - len + 1)
        .map(|i| ((prefix[i + len] - prefix[i]) / len as f64) as f32)
        .collect()
}

/// Estimates the noise floor as a low percentile of sliding window
/// powers — robust to a few packets being present in the capture.
///
/// `percentile` is in `0..=100`; the gateway uses 10.
pub fn noise_floor(signal: &[Cf32], window: usize, percentile: usize) -> f32 {
    let mut powers = sliding_power(signal, window.max(1));
    if powers.is_empty() {
        return 0.0;
    }
    let idx = (powers.len().saturating_sub(1)) * percentile.min(100) / 100;
    powers.sort_by(f32::total_cmp);
    powers[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize, amp: f32) -> Vec<Cf32> {
        (0..n).map(|i| Cf32::cis(i as f32 * 0.3) * amp).collect()
    }

    #[test]
    fn mean_power_of_unit_tone_is_one() {
        assert!((mean_power(&tone(1000, 1.0)) - 1.0).abs() < 1e-4);
        assert!((mean_power(&tone(1000, 2.0)) - 4.0).abs() < 1e-3);
    }

    #[test]
    fn energy_is_power_times_len() {
        let s = tone(500, 1.5);
        assert!((energy(&s) - mean_power(&s) * 500.0).abs() < 1e-2);
    }

    #[test]
    fn normalize_hits_target() {
        let mut s = tone(256, 3.7);
        normalize_power(&mut s, 0.25);
        assert!((mean_power(&s) - 0.25).abs() < 1e-4);
    }

    #[test]
    fn normalize_ignores_silence() {
        let mut s = vec![Cf32::ZERO; 64];
        normalize_power(&mut s, 1.0);
        assert!(s.iter().all(|z| *z == Cf32::ZERO));
    }

    #[test]
    fn snr_db_values() {
        assert!((snr_db(10.0, 1.0) - 10.0).abs() < 1e-5);
        assert!((snr_db(1.0, 1.0)).abs() < 1e-5);
        assert!((snr_db(0.1, 1.0) + 10.0).abs() < 1e-5);
    }

    #[test]
    fn sliding_power_detects_burst() {
        let mut s = vec![Cf32::ZERO; 300];
        for z in s.iter_mut().take(200).skip(100) {
            *z = Cf32::ONE;
        }
        let p = sliding_power(&s, 50);
        assert!(p[0] < 1e-6);
        assert!((p[125] - 1.0).abs() < 1e-6); // window fully inside the burst
        assert!(p[240] < 0.25);
    }

    #[test]
    fn noise_floor_ignores_sparse_packets() {
        // 90% silence-ish noise at power ~0.01, one strong burst.
        let mut s: Vec<Cf32> = (0..1000).map(|i| Cf32::cis(i as f32) * 0.1).collect();
        for i in 0..50 {
            s[400 + i] = Cf32::cis(i as f32) * 10.0;
        }
        let nf = noise_floor(&s, 32, 10);
        assert!((nf - 0.01).abs() < 0.005, "floor {nf}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean_power(&[]), 0.0);
        assert!(sliding_power(&tone(5, 1.0), 10).is_empty());
        assert!(sliding_power(&tone(5, 1.0), 0).is_empty());
        assert_eq!(noise_floor(&[], 8, 10), 0.0);
    }

    #[test]
    fn peak_power_finds_max() {
        let mut s = tone(100, 1.0);
        s[42] = Cf32::new(3.0, 4.0); // |z|^2 = 25
        assert!((peak_power(&s) - 25.0).abs() < 1e-4);
    }
}
