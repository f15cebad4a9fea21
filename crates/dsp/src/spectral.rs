//! Spectral band masking.
//!
//! The cloud's kill filters need surgical removal of energy in known
//! frequency bands from a finite capture. Band masks are applied
//! through a short-time Fourier transform with 50 %-overlapped
//! sqrt-Hann analysis/synthesis windows (a constant-overlap-add pair,
//! so an all-pass mask reconstructs the input exactly). The Hann taper
//! keeps spectral leakage of non-bin-aligned interferers out of the
//! passband — a whole-block rectangular FFT mask would smear several
//! percent of a mid-bin tone's energy across the spectrum, poisoning
//! the interference-cancellation subtraction downstream.
//!
//! [`suppress_bins`] is the separate whole-block primitive used by
//! KILL-CSS, whose caller works on symbol-aligned power-of-two windows
//! where the dechirped tones are exactly bin-aligned.

use crate::engine;
use crate::fft::{freq_to_bin, next_pow2};
use crate::num::Cf32;

/// A frequency band in Hz, `lo <= hi`, interpreted at complex baseband
/// (so both bounds may be negative).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Band {
    /// Lower edge in Hz.
    pub lo: f64,
    /// Upper edge in Hz.
    pub hi: f64,
}

impl Band {
    /// Creates a band, normalizing edge order.
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo <= hi {
            Band { lo, hi }
        } else {
            Band { lo: hi, hi: lo }
        }
    }

    /// A band of `width` Hz centered on `center` Hz.
    pub fn centered(center: f64, width: f64) -> Self {
        Band::new(center - width / 2.0, center + width / 2.0)
    }

    /// Band width in Hz.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `f` lies inside the band (inclusive).
    pub fn contains(&self, f: f64) -> bool {
        (self.lo..=self.hi).contains(&f)
    }
}

/// Picks an STFT frame size for a capture: long enough for sharp band
/// edges, short enough to track per-symbol structure.
pub fn stft_frame(len: usize) -> usize {
    next_pow2(len / 8).clamp(256, 4096)
}

/// Applies `gain(f_hz) -> f32` to every bin of an `n`-point STFT and
/// resynthesizes.
fn stft_apply(signal: &[Cf32], fs: f64, n: usize, gain: impl Fn(f64) -> f32) -> Vec<Cf32> {
    let mut out = Vec::new();
    stft_apply_into(signal, fs, n, gain, &mut out);
    out
}

/// [`stft_apply`] into `out` (whatever it held is discarded), which
/// also holds the padded resynthesis while it runs.
fn stft_apply_into(
    signal: &[Cf32],
    fs: f64,
    n: usize,
    gain: impl Fn(f64) -> f32,
    out: &mut Vec<Cf32>,
) {
    out.clear();
    if signal.is_empty() {
        return;
    }
    let hop = n / 2;
    let plan = engine::plan(n);
    // sqrt-Hann analysis and synthesis windows: their product is Hann,
    // which sums to 1 at 50 % overlap (COLA).
    let win: Vec<f32> = (0..n)
        .map(|i| {
            let h = 0.5 - 0.5 * (2.0 * std::f32::consts::PI * i as f32 / n as f32).cos();
            h.sqrt()
        })
        .collect();
    // Precompute the per-bin gains once.
    let gains: Vec<f32> = (0..n)
        .map(|bin| gain(crate::fft::bin_to_freq(bin, n, fs)))
        .collect();

    // Pad with a frame of silence each side so every input sample is
    // covered by a full complement of overlapping windows.
    let padded_len = signal.len() + 2 * n;
    out.reserve_exact(padded_len);
    out.resize(padded_len, Cf32::ZERO);
    let mut frame = vec![Cf32::ZERO; n];
    let mut start = 0usize;
    while start + n <= padded_len {
        for (i, f) in frame.iter_mut().enumerate() {
            let src = start + i;
            let s = if src >= n && src - n < signal.len() {
                signal[src - n]
            } else {
                Cf32::ZERO
            };
            *f = s * win[i];
        }
        plan.forward(&mut frame);
        for (z, &g) in frame.iter_mut().zip(&gains) {
            *z *= g;
        }
        plan.inverse(&mut frame);
        for (i, &f) in frame.iter().enumerate() {
            out[start + i] += f * win[i];
        }
        start += hop;
    }
    out.copy_within(n..n + signal.len(), 0);
    out.truncate(signal.len());
}

/// Zeroes all spectral content of `signal` inside `bands`
/// (a "kill" mask). The returned vector has the original length.
pub fn suppress_bands(signal: &[Cf32], fs: f64, bands: &[Band]) -> Vec<Cf32> {
    suppress_bands_framed(signal, fs, bands, stft_frame(signal.len()))
}

/// [`suppress_bands`] with the STFT frame size chosen by the caller
/// rather than from `signal.len()`: a caller filtering one window of a
/// longer capture passes [`stft_frame`] of the capture, so the band
/// edges are those the whole capture would have been filtered with.
///
/// # Panics
/// Panics if `frame` is not a power of two.
pub fn suppress_bands_framed(signal: &[Cf32], fs: f64, bands: &[Band], frame: usize) -> Vec<Cf32> {
    let mut out = Vec::new();
    suppress_bands_framed_into(signal, fs, bands, frame, &mut out);
    out
}

/// [`suppress_bands_framed`] into a caller-held buffer: whatever `out`
/// held is discarded, and it comes back as long as `signal`.
pub fn suppress_bands_framed_into(
    signal: &[Cf32],
    fs: f64,
    bands: &[Band],
    frame: usize,
    out: &mut Vec<Cf32>,
) {
    let gain = |f| {
        if bands.iter().any(|b: &Band| b.contains(f)) {
            0.0
        } else {
            1.0
        }
    };
    stft_apply_into(signal, fs, frame, gain, out);
}

/// Zeroes all spectral content of `signal` *outside* `bands`
/// (a band-select mask).
pub fn select_bands(signal: &[Cf32], fs: f64, bands: &[Band]) -> Vec<Cf32> {
    stft_apply(signal, fs, stft_frame(signal.len()), |f| {
        if bands.iter().any(|b| b.contains(f)) {
            1.0
        } else {
            0.0
        }
    })
}

/// Scales spectral content inside `bands` by `gain` (0 = kill,
/// 1 = identity), leaving the rest untouched.
pub fn apply_mask(signal: &[Cf32], fs: f64, bands: &[Band], gain: f32) -> Vec<Cf32> {
    stft_apply(signal, fs, stft_frame(signal.len()), |f| {
        if bands.iter().any(|b| b.contains(f)) {
            gain
        } else {
            1.0
        }
    })
}

/// Zeroes a set of individual FFT *bins* (by index, on the padded-size
/// grid of `n = next_pow2(len)`) in a single whole-block transform —
/// the primitive behind KILL-CSS, which works on symbol-aligned
/// power-of-two windows where dechirped tones are exactly bin-aligned.
pub fn suppress_bins(signal: &[Cf32], bins: &[usize]) -> Vec<Cf32> {
    if signal.is_empty() {
        return Vec::new();
    }
    let n = next_pow2(signal.len());
    let plan = engine::plan(n);
    let mut buf = vec![Cf32::ZERO; n];
    buf[..signal.len()].copy_from_slice(signal);
    plan.forward(&mut buf);
    for &b in bins {
        if b < n {
            buf[b] = Cf32::ZERO;
        }
    }
    plan.inverse(&mut buf);
    buf.truncate(signal.len());
    buf
}

/// Fraction of total signal energy lying inside `bands` (0..=1),
/// measured on a whole-block transform.
pub fn band_energy_fraction(signal: &[Cf32], fs: f64, bands: &[Band]) -> f32 {
    if signal.is_empty() {
        return 0.0;
    }
    let n = next_pow2(signal.len());
    let plan = engine::plan(n);
    let mut buf = vec![Cf32::ZERO; n];
    buf[..signal.len()].copy_from_slice(signal);
    plan.forward(&mut buf);
    let mut inside = 0.0f64;
    let mut total = 0.0f64;
    for (bin, z) in buf.iter().enumerate() {
        let e = z.norm_sqr() as f64;
        total += e;
        let f = crate::fft::bin_to_freq(bin, n, fs);
        if bands.iter().any(|b| b.contains(f)) {
            inside += e;
        }
    }
    if total <= 0.0 {
        0.0
    } else {
        (inside / total) as f32
    }
}

/// Convenience: the padded-grid bin index of `freq_hz` for a signal of
/// `len` samples at rate `fs` (the grid [`suppress_bins`] uses).
pub fn padded_bin(freq_hz: f64, len: usize, fs: f64) -> usize {
    freq_to_bin(freq_hz, next_pow2(len), fs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::mix;
    use crate::power::mean_power;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<Cf32> {
        mix(&vec![Cf32::ONE; n], freq, fs)
    }

    #[test]
    fn band_basics() {
        let b = Band::new(10.0, -10.0);
        assert_eq!(b.lo, -10.0);
        assert_eq!(b.hi, 10.0);
        assert_eq!(b.width(), 20.0);
        assert!(b.contains(0.0));
        assert!(!b.contains(11.0));
        let c = Band::centered(-50.0, 20.0);
        assert_eq!(c.lo, -60.0);
        assert_eq!(c.hi, -40.0);
    }

    #[test]
    fn allpass_mask_is_identity() {
        // COLA property: gain-1 everywhere must reconstruct the input.
        let fs = 1e6;
        let sig: Vec<Cf32> = (0..3000)
            .map(|i| Cf32::new((i as f32 * 0.17).sin(), (i as f32 * 0.05).cos()))
            .collect();
        let out = apply_mask(&sig, fs, &[], 0.0);
        for (a, b) in out.iter().zip(&sig) {
            assert!((*a - *b).abs() < 1e-3, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn suppress_kills_inband_tone() {
        let fs = 1e6;
        // Deliberately non-bin-aligned tone to exercise leakage.
        let sig = tone(100_300.0, fs, 4096);
        let out = suppress_bands(&sig, fs, &[Band::centered(100e3, 10e3)]);
        let residual = mean_power(&out[200..3800]) / mean_power(&sig);
        assert!(residual < 5e-3, "residual {residual}");
    }

    #[test]
    fn suppress_preserves_outofband_tone() {
        let fs = 1e6;
        let sig = tone(-200e3, fs, 4096);
        let out = suppress_bands(&sig, fs, &[Band::centered(100e3, 10e3)]);
        let ratio = mean_power(&out[200..3800]) / mean_power(&sig);
        assert!((ratio - 1.0).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn suppress_separates_two_tones() {
        let fs = 1e6;
        let n = 4096;
        let a = tone(50e3, fs, n);
        let b = tone(-150e3, fs, n);
        let sum: Vec<Cf32> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let out = suppress_bands(&sum, fs, &[Band::centered(50e3, 8e3)]);
        // Interior residual should match tone b.
        let err: f32 = out[200..n - 200]
            .iter()
            .zip(&b[200..n - 200])
            .map(|(x, y)| (*x - *y).norm_sqr())
            .sum::<f32>()
            / (n - 400) as f32;
        assert!(err < 0.01, "residual error {err}");
    }

    #[test]
    fn select_keeps_only_band() {
        let fs = 1e6;
        let n = 4096;
        let a = tone(50e3, fs, n);
        let b = tone(-150e3, fs, n);
        let sum: Vec<Cf32> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let out = select_bands(&sum, fs, &[Band::centered(50e3, 8e3)]);
        let err: f32 = out[200..n - 200]
            .iter()
            .zip(&a[200..n - 200])
            .map(|(x, y)| (*x - *y).norm_sqr())
            .sum::<f32>()
            / (n - 400) as f32;
        assert!(err < 0.01, "residual error {err}");
    }

    #[test]
    fn gain_one_mask_is_identity_in_band() {
        let fs = 1e6;
        let sig = tone(75e3, fs, 2048);
        let out = apply_mask(&sig, fs, &[Band::centered(75e3, 50e3)], 1.0);
        for (a, b) in out[100..1900].iter().zip(&sig[100..1900]) {
            assert!((*a - *b).abs() < 1e-3);
        }
    }

    #[test]
    fn suppress_bins_removes_exact_bin() {
        let fs = 1e6;
        let n = 1024; // already pow2: bins are exact
        let k = 100;
        let f = k as f64 * fs / n as f64;
        let sig = tone(f, fs, n);
        let out = suppress_bins(&sig, &[k]);
        assert!(mean_power(&out) < 1e-4);
    }

    #[test]
    fn suppress_bins_ignores_out_of_range() {
        let sig = tone(1e3, 1e6, 64);
        let out = suppress_bins(&sig, &[usize::MAX, 9999]);
        let err: f32 = out
            .iter()
            .zip(&sig)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum();
        assert!(err < 1e-6);
    }

    #[test]
    fn band_energy_fraction_sums_correctly() {
        let fs = 1e6;
        let n = 2048;
        let a = tone(50e3, fs, n);
        let b = tone(-150e3, fs, n);
        let sum: Vec<Cf32> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let frac = band_energy_fraction(&sum, fs, &[Band::centered(50e3, 8e3)]);
        assert!((frac - 0.5).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn empty_signal_handled() {
        assert!(suppress_bands(&[], 1e6, &[Band::new(0.0, 1.0)]).is_empty());
        assert!(select_bands(&[], 1e6, &[]).is_empty());
        assert!(suppress_bins(&[], &[1]).is_empty());
        assert_eq!(band_energy_fraction(&[], 1e6, &[]), 0.0);
    }

    #[test]
    fn padded_bin_matches_grid() {
        // len 1000 pads to 1024; 250 kHz at 1 Msps -> bin 256.
        assert_eq!(padded_bin(250e3, 1000, 1e6), 256);
        assert_eq!(padded_bin(-250e3, 1000, 1e6), 768);
    }
}
