//! Chirp generation for chirp-spread-spectrum (CSS) signals.
//!
//! LoRa encodes each symbol as a cyclic shift of an elementary up-chirp
//! sweeping the full bandwidth; the cloud's KILL-CSS filter multiplies
//! a capture by the matching down-chirp so LoRa energy collapses to
//! narrowband tones. Both waveforms come from here.

use crate::num::Cf32;

/// Generates one elementary chirp of `n` samples sweeping linearly from
/// `f0` to `f1` Hz at sample rate `fs`.
///
/// The instantaneous frequency at sample `t` is
/// `f0 + (f1 - f0) * t / n`; phase is the integral of that, computed in
/// f64 so long chirps stay coherent.
pub fn chirp(f0: f64, f1: f64, n: usize, fs: f64) -> Vec<Cf32> {
    let k = (f1 - f0) / (n as f64 / fs); // sweep rate Hz/s
    (0..n)
        .map(|i| {
            let t = i as f64 / fs;
            let phase = 2.0 * std::f64::consts::PI * (f0 * t + 0.5 * k * t * t);
            Cf32::cis((phase % std::f64::consts::TAU) as f32)
        })
        .collect()
}

/// The LoRa elementary up-chirp: sweeps `-bw/2 .. +bw/2` over
/// `samples_per_symbol` samples.
pub fn upchirp(bw: f64, samples_per_symbol: usize, fs: f64) -> Vec<Cf32> {
    chirp(-bw / 2.0, bw / 2.0, samples_per_symbol, fs)
}

/// The LoRa elementary down-chirp (conjugate sweep, `+bw/2 .. -bw/2`).
pub fn downchirp(bw: f64, samples_per_symbol: usize, fs: f64) -> Vec<Cf32> {
    chirp(bw / 2.0, -bw / 2.0, samples_per_symbol, fs)
}

/// A cyclically shifted up-chirp encoding CSS symbol `value` out of
/// `2^sf` possible values over `samples_per_symbol` samples.
///
/// Symbol `s` starts its sweep at frequency
/// `-bw/2 + s * bw / 2^sf` and wraps at `+bw/2`.
pub fn symbol_chirp(value: u32, sf: u32, bw: f64, samples_per_symbol: usize, fs: f64) -> Vec<Cf32> {
    let mut out = Vec::with_capacity(samples_per_symbol);
    extend_symbol_chirp(&mut out, &upchirp(bw, samples_per_symbol, fs), value, sf);
    out
}

/// Appends [`symbol_chirp`] of `value` to `out`, shifting the caller's
/// elementary up-chirp `up` (one symbol, from [`upchirp`]) instead of
/// synthesizing it again.
pub fn extend_symbol_chirp(out: &mut Vec<Cf32>, up: &[Cf32], value: u32, sf: u32) {
    let m = 1u32 << sf;
    assert!(value < m, "symbol {value} out of range for SF{sf}");
    // A cyclic shift in time of the elementary chirp realizes the
    // frequency offset: shift left by value/m of a symbol.
    let shift = (value as usize * up.len()) / m as usize;
    out.extend_from_slice(&up[shift..]);
    out.extend_from_slice(&up[..shift]);
}

/// Dechirps a symbol-aligned window: multiplies by the conjugate
/// elementary chirp so symbol energy lands on a single tone whose
/// frequency encodes the symbol value.
pub fn dechirp(window: &[Cf32], down: &[Cf32]) -> Vec<Cf32> {
    let n = window.len().min(down.len());
    let mut out = window[..n].to_vec();
    crate::kernels::mul_in_place(&mut out, &down[..n]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{fft, peak_bin};

    const FS: f64 = 125_000.0;
    const BW: f64 = 125_000.0;
    const SF: u32 = 7;
    const SPS: usize = 128; // 2^7 at fs == bw

    #[test]
    fn chirps_have_unit_magnitude() {
        for z in upchirp(BW, SPS, FS) {
            assert!((z.abs() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn up_times_down_is_dc() {
        let up = upchirp(BW, SPS, FS);
        let down = downchirp(BW, SPS, FS);
        let mut prod = dechirp(&up, &down);
        fft(&mut prod);
        assert_eq!(peak_bin(&prod), 0);
    }

    #[test]
    fn symbol_value_maps_to_fft_bin() {
        let down = downchirp(BW, SPS, FS);
        for &sym in &[0u32, 1, 17, 64, 100, 127] {
            let sig = symbol_chirp(sym, SF, BW, SPS, FS);
            let mut de = dechirp(&sig, &down);
            fft(&mut de);
            let bin = peak_bin(&de) as u32;
            assert_eq!(bin, sym, "symbol {sym} decoded as {bin}");
        }
    }

    #[test]
    fn oversampled_symbol_still_decodes() {
        // fs = 4x bw, as seen by a 1 Msps gateway watching a 125 kHz LoRa.
        let fs = 500_000.0;
        let sps = 512;
        let down = downchirp(BW, sps, fs);
        let sig = symbol_chirp(42, SF, BW, sps, fs);
        let mut de = dechirp(&sig, &down);
        fft(&mut de);
        // With fs = os * bw and sps = os * 2^sf the dechirped tone for
        // symbol s sits at s * bw / 2^sf = s * fs / sps, i.e. exactly
        // bin s; the wrapped tail aliases to a high negative-frequency
        // bin but carries less energy for s < 2^(sf-1).
        assert_eq!(peak_bin(&de), 42);
    }

    #[test]
    fn distinct_symbols_are_near_orthogonal() {
        let a = symbol_chirp(10, SF, BW, SPS, FS);
        let b = symbol_chirp(90, SF, BW, SPS, FS);
        let dot: f32 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| *x * y.conj())
            .sum::<Cf32>()
            .abs();
        assert!(dot < 0.1 * SPS as f32, "cross-energy {dot}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn symbol_out_of_range_panics() {
        let _ = symbol_chirp(128, 7, BW, SPS, FS);
    }

    #[test]
    fn chirp_sweeps_expected_band() {
        // Check instantaneous frequency at start and end thirds.
        let n = 4096;
        let fs = 1e6;
        let c = chirp(-100e3, 100e3, n, fs);
        let f_start = crate::mix::estimate_tone_freq(&c[0..64], fs);
        let f_end = crate::mix::estimate_tone_freq(&c[n - 64..], fs);
        assert!((f_start + 100e3).abs() < 5e3, "start {f_start}");
        assert!((f_end - 100e3).abs() < 10e3, "end {f_end}");
    }
}
