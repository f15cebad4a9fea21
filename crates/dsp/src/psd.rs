//! Power spectral density estimation (Welch's method) and spectral
//! peak-band finding.
//!
//! The cloud's adaptive KILL-FREQUENCY variant uses these to *learn*
//! where an interferer concentrates its energy instead of relying on a
//! registry recipe — the paper's "generalized set of filters" direction
//! (Sec. 5).

use crate::engine;
use crate::num::Cf32;
use crate::spectral::Band;

/// A Welch PSD estimate.
#[derive(Clone, Debug)]
pub struct Psd {
    /// Power per bin (linear), bins in FFT order (DC first, negative
    /// frequencies in the upper half).
    pub power: Vec<f32>,
    /// Sample rate the estimate was computed at.
    pub fs: f64,
}

impl Psd {
    /// Number of bins.
    pub fn len(&self) -> usize {
        self.power.len()
    }

    /// Whether the estimate is empty.
    pub fn is_empty(&self) -> bool {
        self.power.is_empty()
    }

    /// Frequency of bin `i` in Hz (negative for the upper half).
    pub fn freq(&self, i: usize) -> f64 {
        crate::fft::bin_to_freq(i, self.power.len(), self.fs)
    }

    /// Median bin power — a robust noise-floor estimate.
    pub fn median_power(&self) -> f32 {
        self.percentile(50)
    }

    /// The `pct`-th percentile of bin power (0..=100).
    pub fn percentile(&self, pct: usize) -> f32 {
        if self.power.is_empty() {
            return 0.0;
        }
        let mut sorted = self.power.clone();
        sorted.sort_by(f32::total_cmp);
        sorted[(sorted.len() - 1) * pct.min(100) / 100]
    }
}

/// Finds the frequency bands where `psd` exceeds an absolute power
/// threshold, merging bins closer than `merge_hz` and dropping slivers
/// narrower than `min_width_hz`. Bands are returned by descending
/// power *density* (power per Hz) — a narrowband interferer's hot bins
/// outrank a wideband signal's plateau even at lower total power.
pub fn find_bands_above(psd: &Psd, threshold: f32, merge_hz: f64, min_width_hz: f64) -> Vec<Band> {
    if psd.is_empty() {
        return Vec::new();
    }
    let n = psd.len();
    let bin_hz = psd.fs / n as f64;
    let mut hot: Vec<(f64, f32)> = (0..n)
        .filter(|&i| psd.power[i] > threshold)
        .map(|i| (psd.freq(i), psd.power[i]))
        .collect();
    hot.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut bands: Vec<(Band, f32)> = Vec::new();
    for (f, p) in hot {
        match bands.last_mut() {
            Some((b, bp)) if f - b.hi <= merge_hz => {
                b.hi = f;
                *bp += p;
            }
            _ => bands.push((Band::new(f - bin_hz / 2.0, f + bin_hz / 2.0), p)),
        }
    }
    let mut bands: Vec<(Band, f32)> = bands
        .into_iter()
        .filter(|(b, _)| b.width() >= min_width_hz)
        .collect();
    bands.sort_by(|a, b| (b.1 as f64 / b.0.width()).total_cmp(&(a.1 as f64 / a.0.width())));
    bands.into_iter().map(|(b, _)| b).collect()
}

/// Welch PSD: Hann-windowed segments of `nfft` samples at 50% overlap,
/// periodograms averaged. Returns an all-zero estimate for input
/// shorter than one segment.
///
/// # Panics
/// Panics unless `nfft` is a power of two.
pub fn welch_psd(signal: &[Cf32], fs: f64, nfft: usize) -> Psd {
    assert!(nfft.is_power_of_two(), "nfft must be a power of two");
    let mut power = vec![0.0f32; nfft];
    if signal.len() < nfft {
        return Psd { power, fs };
    }
    let plan = engine::plan(nfft);
    let win: Vec<f32> = (0..nfft)
        .map(|i| 0.5 - 0.5 * (2.0 * std::f32::consts::PI * i as f32 / nfft as f32).cos())
        .collect();
    let win_energy: f32 = win.iter().map(|w| w * w).sum();
    let hop = nfft / 2;
    let mut segments = 0usize;
    let mut buf = vec![Cf32::ZERO; nfft];
    let mut start = 0usize;
    while start + nfft <= signal.len() {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = signal[start + i] * win[i];
        }
        plan.forward(&mut buf);
        for (p, z) in power.iter_mut().zip(&buf) {
            *p += z.norm_sqr();
        }
        segments += 1;
        start += hop;
    }
    if segments > 0 {
        // Normalize so a unit-power white signal averages ~1 per bin.
        let k = 1.0 / (segments as f32 * win_energy);
        for p in &mut power {
            *p *= k;
        }
    }
    Psd { power, fs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::mix;

    fn tone(freq: f64, fs: f64, n: usize, amp: f32) -> Vec<Cf32> {
        mix(&vec![Cf32::from_re(amp); n], freq, fs)
    }

    #[test]
    fn white_noise_psd_is_flat() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let sig: Vec<Cf32> = (0..65_536)
            .map(|_| Cf32::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let psd = welch_psd(&sig, 1e6, 1024);
        let med = psd.median_power();
        let max = psd.power.iter().copied().fold(0.0f32, f32::max);
        assert!(max / med < 4.0, "flatness {max}/{med}");
    }

    #[test]
    fn tone_shows_as_narrow_peak() {
        let fs = 1e6;
        let sig = tone(125_000.0, fs, 32_768, 1.0);
        let psd = welch_psd(&sig, fs, 1024);
        let peak = (0..psd.len())
            .max_by(|&a, &b| psd.power[a].total_cmp(&psd.power[b]))
            .unwrap();
        assert!((psd.freq(peak) - 125_000.0).abs() < 2_000.0);
    }

    #[test]
    fn find_bands_above_locates_fsk_tones() {
        let fs = 1e6;
        let n = 65_536;
        let mut sig = tone(25_000.0, fs, n, 1.0);
        let other = tone(-25_000.0, fs, n, 1.0);
        for (a, b) in sig.iter_mut().zip(&other) {
            *a += *b;
        }
        // Weak wideband floor.
        for (i, z) in sig.iter_mut().enumerate() {
            *z += Cf32::new(((i * 37) % 97) as f32 / 970.0 - 0.05, 0.0);
        }
        let psd = welch_psd(&sig, fs, 1024);
        let bands = find_bands_above(&psd, psd.median_power() * 10.0, 3_000.0, 500.0);
        assert!(bands.len() >= 2, "{bands:?}");
        let hits = |f: f64| bands.iter().any(|b| b.contains(f));
        assert!(hits(25_000.0), "{bands:?}");
        assert!(hits(-25_000.0), "{bands:?}");
    }

    #[test]
    fn short_input_gives_empty_estimate() {
        let psd = welch_psd(&[Cf32::ONE; 10], 1e6, 1024);
        assert!(psd.power.iter().all(|&p| p == 0.0));
        assert!(find_bands_above(&psd, psd.median_power() * 5.0, 1e3, 1e2).is_empty());
    }

    #[test]
    fn psd_freq_mapping() {
        let psd = Psd {
            power: vec![0.0; 8],
            fs: 8_000.0,
        };
        assert_eq!(psd.freq(0), 0.0);
        assert_eq!(psd.freq(1), 1_000.0);
        assert_eq!(psd.freq(7), -1_000.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_nfft() {
        let _ = welch_psd(&[Cf32::ONE; 100], 1e6, 100);
    }
}
