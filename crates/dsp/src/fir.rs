//! FIR filter design (windowed sinc) and application.
//!
//! The demodulators' channel filters, the GFSK pulse shapers and the
//! decimator's anti-alias filter are all linear-phase FIR filters
//! designed here. Filters have real taps and are applied to complex
//! baseband with group-delay compensation so that filtered output
//! stays time-aligned with the input — an alignment the cloud's
//! interference-cancellation subtraction depends on.

use crate::num::Cf32;
use crate::window::Window;

/// Normalized sinc: `sin(pi x) / (pi x)` with `sinc(0) = 1`.
#[inline]
pub fn sinc(x: f32) -> f32 {
    if x.abs() < 1e-6 {
        1.0
    } else {
        let px = std::f32::consts::PI * x;
        px.sin() / px
    }
}

/// A linear-phase FIR filter with real taps.
#[derive(Clone, Debug)]
pub struct Fir {
    taps: Vec<f32>,
}

impl Fir {
    /// Wraps an explicit tap vector.
    ///
    /// # Panics
    /// Panics if `taps` is empty.
    pub fn from_taps(taps: Vec<f32>) -> Self {
        assert!(!taps.is_empty(), "FIR filter needs at least one tap");
        Fir { taps }
    }

    /// Designs a windowed-sinc low-pass filter.
    ///
    /// * `cutoff_hz` — one-sided cutoff frequency.
    /// * `fs` — sample rate; `cutoff_hz` must be below `fs / 2`.
    /// * `ntaps` — forced odd so the filter has integer group delay.
    pub fn lowpass(cutoff_hz: f64, fs: f64, ntaps: usize, window: Window) -> Self {
        assert!(
            cutoff_hz > 0.0 && cutoff_hz < fs / 2.0,
            "cutoff must be in (0, fs/2)"
        );
        let n = make_odd(ntaps);
        let fc = (cutoff_hz / fs) as f32; // normalized cutoff (cycles/sample)
        let mid = (n / 2) as isize;
        let mut taps: Vec<f32> = (0..n)
            .map(|i| {
                let m = i as isize - mid;
                2.0 * fc * sinc(2.0 * fc * m as f32) * window.value(i, n)
            })
            .collect();
        // Normalize for unity DC gain.
        let sum: f32 = taps.iter().sum();
        for t in &mut taps {
            *t /= sum;
        }
        Fir { taps }
    }

    /// The filter taps.
    #[inline]
    pub fn taps(&self) -> &[f32] {
        &self.taps
    }

    /// Number of taps.
    #[inline]
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// Always `false`: construction rejects empty tap vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Filters a complex signal, returning output the same length as
    /// the input with the group delay compensated ("same" mode): output
    /// sample `i` corresponds to input sample `i`.
    ///
    /// Runs on the active [`crate::kernels`] backend; all backends are
    /// bit-exact for this operation (output-parallel vectorization, no
    /// FMA contraction), so filtered waveforms are byte-identical
    /// however the filter is dispatched.
    pub fn filter(&self, input: &[Cf32]) -> Vec<Cf32> {
        let mut out = Vec::new();
        self.filter_into(input, &mut out);
        out
    }

    /// [`Fir::filter`] into a caller-held buffer: whatever `out` held is
    /// discarded, and it comes back with one output per input sample.
    pub fn filter_into(&self, input: &[Cf32], out: &mut Vec<Cf32>) {
        out.clear();
        out.reserve_exact(input.len());
        out.resize(input.len(), Cf32::ZERO);
        crate::kernels::fir_same(&self.taps, input, out);
    }

    /// [`Fir::filter_into`] keeping every `os`-th output (the first
    /// kept): `out` comes back as `filter(input).step_by(os)` would fill
    /// it, bit for bit, without the outputs in between ever being
    /// computed ([`crate::kernels::fir_decimate`]).
    pub fn decimate_into(&self, input: &[Cf32], os: usize, out: &mut Vec<Cf32>) {
        out.clear();
        out.reserve_exact(input.len().div_ceil(os));
        out.resize(input.len().div_ceil(os), Cf32::ZERO);
        crate::kernels::fir_decimate(&self.taps, input, os, out);
    }

    /// Filters a real-valued signal ("same" mode, delay compensated).
    ///
    /// Bit-exact across [`crate::kernels`] backends, like
    /// [`Fir::filter`].
    pub fn filter_real(&self, input: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; input.len()];
        crate::kernels::fir_same_real(&self.taps, input, &mut out);
        out
    }

    /// Magnitude response of the filter at frequency `f_hz` for sample
    /// rate `fs`, evaluated directly from the taps.
    pub fn response_at(&self, f_hz: f64, fs: f64) -> f32 {
        let w = 2.0 * std::f64::consts::PI * f_hz / fs;
        let mut acc_re = 0.0f64;
        let mut acc_im = 0.0f64;
        for (k, &t) in self.taps.iter().enumerate() {
            let ph = w * k as f64;
            acc_re += t as f64 * ph.cos();
            acc_im -= t as f64 * ph.sin();
        }
        ((acc_re * acc_re + acc_im * acc_im).sqrt()) as f32
    }
}

fn make_odd(n: usize) -> usize {
    let n = n.max(3);
    if n.is_multiple_of(2) {
        n + 1
    } else {
        n
    }
}

/// Decimates by an integer factor after anti-alias low-pass filtering.
///
/// The filter cutoff is placed at 80% of the post-decimation Nyquist.
pub fn decimate(input: &[Cf32], factor: usize, fs: f64) -> Vec<Cf32> {
    assert!(factor >= 1, "decimation factor must be >= 1");
    if factor == 1 {
        return input.to_vec();
    }
    let cutoff = 0.4 * fs / factor as f64; // 80% of new Nyquist (fs/2/factor)
    let ntaps = (8 * factor + 1).max(33);
    let fir = Fir::lowpass(cutoff, fs, ntaps, Window::Hamming);
    let filtered = fir.filter(input);
    filtered.iter().step_by(factor).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<Cf32> {
        (0..n)
            .map(|i| Cf32::cis((2.0 * std::f64::consts::PI * freq * i as f64 / fs) as f32))
            .collect()
    }

    fn power(sig: &[Cf32]) -> f32 {
        sig.iter().map(|z| z.norm_sqr()).sum::<f32>() / sig.len() as f32
    }

    #[test]
    fn lowpass_passes_dc_blocks_high() {
        let fir = Fir::lowpass(100e3, 1e6, 101, Window::Hamming);
        assert!((fir.response_at(0.0, 1e6) - 1.0).abs() < 1e-3);
        assert!(fir.response_at(400e3, 1e6) < 0.01);
    }

    #[test]
    fn lowpass_attenuates_out_of_band_tone() {
        let fs = 1e6;
        let fir = Fir::lowpass(50e3, fs, 129, Window::Blackman);
        let inband = fir.filter(&tone(20e3, fs, 4096));
        let outband = fir.filter(&tone(300e3, fs, 4096));
        // Ignore filter edges.
        assert!(power(&inband[200..3800]) > 0.9);
        assert!(power(&outband[200..3800]) < 1e-4);
    }

    #[test]
    fn filter_output_is_time_aligned() {
        // An impulse through a delay-compensated filter must peak at
        // the impulse position, not at position + group delay.
        let fir = Fir::lowpass(100e3, 1e6, 65, Window::Hamming);
        let mut sig = vec![Cf32::ZERO; 256];
        sig[100] = Cf32::ONE;
        let out = fir.filter(&sig);
        let peak = out
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm_sqr().total_cmp(&b.1.norm_sqr()))
            .unwrap()
            .0;
        assert_eq!(peak, 100);
    }

    #[test]
    fn decimate_preserves_inband_tone_frequency() {
        let fs = 1e6;
        let f = 30e3;
        let sig = tone(f, fs, 8192);
        let dec = decimate(&sig, 4, fs);
        assert_eq!(dec.len(), 2048);
        // Measure frequency via phase increments in the steady-state middle.
        let mid = &dec[512..1536];
        let mut dph = 0.0f64;
        for w in mid.windows(2) {
            dph += (w[1] * w[0].conj()).arg() as f64;
        }
        let est = dph / (mid.len() - 1) as f64 * (fs / 4.0) / (2.0 * std::f64::consts::PI);
        assert!((est - f).abs() < 500.0, "estimated {est}");
    }

    #[test]
    fn filter_real_matches_complex_on_real_input() {
        let fir = Fir::lowpass(50e3, 1e6, 33, Window::Hann);
        let re: Vec<f32> = (0..256).map(|i| (i as f32 * 0.3).sin()).collect();
        let cx: Vec<Cf32> = re.iter().map(|&r| Cf32::from_re(r)).collect();
        let out_r = fir.filter_real(&re);
        let out_c = fir.filter(&cx);
        for (a, b) in out_r.iter().zip(out_c.iter()) {
            assert!((a - b.re).abs() < 1e-4);
            assert!(b.im.abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn rejects_cutoff_above_nyquist() {
        let _ = Fir::lowpass(600e3, 1e6, 65, Window::Hamming);
    }

    #[test]
    fn sinc_values() {
        assert_eq!(sinc(0.0), 1.0);
        assert!(sinc(1.0).abs() < 1e-6);
        assert!(sinc(0.5) - 2.0 / std::f32::consts::PI < 1e-5);
    }
}
