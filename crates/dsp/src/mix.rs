//! Frequency translation: numerically controlled oscillator and mixers.
//!
//! Gateways tune one wide front-end across a band of narrower IoT
//! channels; every per-technology decode therefore starts by mixing the
//! capture so the technology of interest sits at DC. The same mixer
//! applies simulated carrier-frequency offsets in the channel model.

use crate::num::Cf32;

/// A numerically controlled oscillator producing `e^{i(2 pi f t + phi)}`
/// one sample at a time with phase continuity across calls.
#[derive(Clone, Debug)]
pub struct Nco {
    phase: f64,
    step: f64,
}

impl Nco {
    /// Creates an NCO at `freq_hz` for sample rate `fs`, starting at
    /// phase `phase` radians.
    pub fn new(freq_hz: f64, fs: f64, phase: f64) -> Self {
        Nco {
            phase,
            step: 2.0 * std::f64::consts::PI * freq_hz / fs,
        }
    }

    /// Returns the next oscillator sample and advances the phase.
    #[inline]
    pub fn next_sample(&mut self) -> Cf32 {
        let s = Cf32::cis(self.phase as f32);
        self.phase += self.step;
        // Keep the accumulator bounded so f64 precision never degrades,
        // even over arbitrarily long streams.
        if self.phase > std::f64::consts::TAU {
            self.phase -= std::f64::consts::TAU;
        } else if self.phase < -std::f64::consts::TAU {
            self.phase += std::f64::consts::TAU;
        }
        s
    }

    /// Fills a buffer with consecutive oscillator samples.
    pub fn fill(&mut self, out: &mut [Cf32]) {
        for z in out {
            *z = self.next_sample();
        }
    }
}

/// Phasor staging buffer size for the mixers: large enough to amortize
/// the SIMD kernel call, small enough to stay cache-resident.
const MIX_CHUNK: usize = 4096;

/// Returns `signal` multiplied by `e^{i 2 pi f t}` — i.e. the spectrum
/// shifted *up* by `freq_hz` (use a negative frequency to shift down).
pub fn mix(signal: &[Cf32], freq_hz: f64, fs: f64) -> Vec<Cf32> {
    let mut out = Vec::new();
    mix_into(signal, freq_hz, fs, &mut out);
    out
}

/// [`mix`] into a caller-held buffer: whatever `out` held is discarded,
/// and it comes back with the mixed copy of `signal`.
pub fn mix_into(signal: &[Cf32], freq_hz: f64, fs: f64, out: &mut Vec<Cf32>) {
    out.clear();
    out.reserve_exact(signal.len());
    out.extend_from_slice(signal);
    mix_in_place(out, freq_hz, fs, 0.0);
}

/// In-place variant of [`mix`], with a starting phase.
///
/// Phasor generation stays scalar (it is `sin_cos`-bound, with f64
/// phase continuity in the [`Nco`]); the per-sample complex multiply
/// runs chunked through the bit-exact [`crate::kernels::mul_in_place`]
/// kernel, so mixed waveforms are byte-identical across backends.
pub fn mix_in_place(signal: &mut [Cf32], freq_hz: f64, fs: f64, phase: f64) {
    let mut nco = Nco::new(freq_hz, fs, phase);
    let mut phasors = [Cf32::ZERO; MIX_CHUNK];
    for chunk in signal.chunks_mut(MIX_CHUNK) {
        let p = &mut phasors[..chunk.len()];
        nco.fill(p);
        crate::kernels::mul_in_place(chunk, p);
    }
}

/// Applies a constant phase rotation to every sample.
pub fn rotate(signal: &mut [Cf32], phase: f32) {
    let r = Cf32::cis(phase);
    let phasors = vec![r; signal.len().min(MIX_CHUNK)];
    for chunk in signal.chunks_mut(MIX_CHUNK) {
        let n = chunk.len();
        crate::kernels::mul_in_place(chunk, &phasors[..n]);
    }
}

/// Estimates the dominant frequency of a (roughly) single-tone complex
/// signal from its mean per-sample phase increment. Robust to noise via
/// the vector average of `x[n+1] x[n]^*`.
pub fn estimate_tone_freq(signal: &[Cf32], fs: f64) -> f64 {
    if signal.len() < 2 {
        return 0.0;
    }
    let mut acc = Cf32::ZERO;
    for w in signal.windows(2) {
        acc += w[1] * w[0].conj();
    }
    acc.arg() as f64 * fs / (2.0 * std::f64::consts::PI)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<Cf32> {
        mix(&vec![Cf32::ONE; n], freq, fs)
    }

    #[test]
    fn nco_produces_unit_magnitude() {
        let mut nco = Nco::new(123e3, 1e6, 0.3);
        for _ in 0..1000 {
            assert!((nco.next_sample().abs() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn mix_shifts_tone() {
        let fs = 1e6;
        let sig = tone(50e3, fs, 4096);
        let shifted = mix(&sig, 30e3, fs);
        let est = estimate_tone_freq(&shifted[100..4000], fs);
        assert!((est - 80e3).abs() < 200.0, "estimated {est}");
    }

    #[test]
    fn mix_down_to_dc() {
        let fs = 1e6;
        let sig = tone(200e3, fs, 4096);
        let base = mix(&sig, -200e3, fs);
        let est = estimate_tone_freq(&base[10..4000], fs);
        assert!(est.abs() < 100.0, "estimated {est}");
    }

    #[test]
    fn estimate_handles_negative_freq() {
        let fs = 1e6;
        let sig = tone(-75e3, fs, 2048);
        let est = estimate_tone_freq(&sig, fs);
        assert!((est + 75e3).abs() < 200.0, "estimated {est}");
    }

    #[test]
    fn phase_stays_bounded_over_long_stream() {
        let mut nco = Nco::new(499e3, 1e6, 0.0);
        let mut buf = vec![Cf32::ZERO; 1 << 18];
        nco.fill(&mut buf);
        // The final samples must still be unit phasors.
        for z in &buf[buf.len() - 16..] {
            assert!((z.abs() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn rotate_applies_constant_phase() {
        let mut sig = vec![Cf32::ONE; 8];
        rotate(&mut sig, std::f32::consts::FRAC_PI_2);
        for z in &sig {
            assert!((z.re).abs() < 1e-6);
            assert!((z.im - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn estimate_on_short_input_is_zero() {
        assert_eq!(estimate_tone_freq(&[], 1e6), 0.0);
        assert_eq!(estimate_tone_freq(&[Cf32::ONE], 1e6), 0.0);
    }
}
