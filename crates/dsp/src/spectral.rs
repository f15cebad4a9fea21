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

use crate::engine;
use crate::fft::next_pow2;
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
        let out = suppress_bands(&sig, fs, &[]);
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
    fn empty_signal_handled() {
        assert!(suppress_bands(&[], 1e6, &[Band::new(0.0, 1.0)]).is_empty());
        assert!(select_bands(&[], 1e6, &[]).is_empty());
    }
}
