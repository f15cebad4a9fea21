//! Goertzel single-bin DFT.
//!
//! The FSK demodulators compare energy at the mark and space tones for
//! each symbol window; Goertzel evaluates those two bins directly at a
//! fraction of a full FFT's cost and — unlike an FFT — at arbitrary
//! (non-bin-aligned) frequencies.

use crate::num::Cf32;

/// Complex Goertzel: evaluates the DTFT of `window` at `freq_hz`
/// (positive or negative) for sample rate `fs`, returning the complex
/// correlation `sum_n x[n] e^{-i 2 pi f n / fs}`.
pub fn goertzel(window: &[Cf32], freq_hz: f64, fs: f64) -> Cf32 {
    let w = 2.0 * std::f64::consts::PI * freq_hz / fs;
    let coeff = 2.0 * w.cos();
    let (mut s_prev, mut s_prev2) = (Cf32::ZERO, Cf32::ZERO);
    for &x in window {
        let s = x + s_prev * coeff as f32 - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    // Finalization: selecting the e^{+jw} pole of the resonator gives
    // y[N-1] = s1 - e^{-jw} s2 = e^{jw(N-1)} X(w); the trailing rotation
    // restores absolute phase, which cancellation relies on.
    let x = s_prev - s_prev2 * Cf32::cis(-w as f32);
    let n = window.len() as f64;
    x * Cf32::cis((-w * (n - 1.0)) as f32)
}

/// Energy (squared magnitude) of the DTFT of `window` at `freq_hz`.
pub fn goertzel_power(window: &[Cf32], freq_hz: f64, fs: f64) -> f32 {
    goertzel(window, freq_hz, fs).norm_sqr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::mix;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<Cf32> {
        mix(&vec![Cf32::ONE; n], freq, fs)
    }

    #[test]
    fn detects_matching_tone() {
        let fs = 1e6;
        let sig = tone(25e3, fs, 256);
        let on = goertzel_power(&sig, 25e3, fs);
        let off = goertzel_power(&sig, -25e3, fs);
        assert!(on > 100.0 * off, "on {on} off {off}");
    }

    #[test]
    fn magnitude_matches_direct_dtft() {
        let fs = 1e6;
        let f = 37_500.0;
        let sig: Vec<Cf32> = (0..200)
            .map(|i| Cf32::new((i as f32 * 0.21).sin(), (i as f32 * 0.13).cos()))
            .collect();
        let direct: Cf32 = sig
            .iter()
            .enumerate()
            .map(|(n, &x)| x * Cf32::cis((-2.0 * std::f64::consts::PI * f * n as f64 / fs) as f32))
            .sum();
        let g = goertzel(&sig, f, fs);
        assert!((g.abs() - direct.abs()).abs() < 1e-2 * direct.abs().max(1.0));
        // Phase must match too (within numeric tolerance).
        assert!(
            (g - direct).abs() < 1e-2 * direct.abs().max(1.0),
            "{g:?} vs {direct:?}"
        );
    }

    #[test]
    fn works_at_negative_frequency() {
        let fs = 1e6;
        let sig = tone(-40e3, fs, 512);
        assert!(goertzel_power(&sig, -40e3, fs) > 50.0 * goertzel_power(&sig, 40e3, fs));
    }

    #[test]
    fn empty_window_is_zero() {
        assert_eq!(goertzel(&[], 1e3, 1e6), Cf32::ZERO);
    }
}
