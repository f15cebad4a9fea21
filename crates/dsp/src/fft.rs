//! Radix-2 fast Fourier transform.
//!
//! An iterative, in-place Cooley-Tukey FFT with cached twiddle-factor
//! tables. Sizes must be powers of two; callers that need other lengths
//! zero-pad (see [`next_pow2`]). This is the workhorse behind LoRa
//! dechirp demodulation, FFT-based correlation in the universal
//! preamble detector, and spectral kill filters at the cloud.
//!
//! The butterflies run on the active
//! [`kernels::Backend`], which walks the
//! buffer once per two or three stages rather than once per stage, and
//! are bit-exact across backends and with the stage-at-a-time order, so
//! a transform's output does not depend on the CPU it ran on.

use crate::kernels;
use crate::num::Cf32;

/// Returns the smallest power of two `>= n` (and `>= 1`).
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// A planned FFT of a fixed power-of-two size.
///
/// Construction precomputes the bit-reversal permutation and the
/// twiddle factors; [`Fft::forward`] and [`Fft::inverse`] then run with
/// no allocation. Plans are cheap to clone and safe to reuse across
/// threads (`&self` methods only).
#[derive(Clone)]
pub struct Fft {
    n: usize,
    // Bit-reversed index for each position; rev[i] < i entries are swapped once.
    rev: Vec<u32>,
    // Forward twiddles, one contiguous run per stage: the stage whose
    // blocks hold `half` butterflies reads `[half - 1..2 * half - 1]`,
    // entry k of it being e^{-2 pi i k / (2 half)}. n - 1 entries.
    twiddles: Vec<Cf32>,
    // The same table conjugated, for the inverse transform.
    twiddles_conj: Vec<Cf32>,
}

impl Fft {
    /// Plans an FFT of size `n`.
    ///
    /// # Panics
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "FFT size must be a power of two, got {n}"
        );
        let bits = n.trailing_zeros();
        let rev: Vec<u32> = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .collect();
        // Every stage's twiddles are a stride of the last stage's, so
        // trig runs once per entry of that one.
        let last: Vec<Cf32> = (0..n / 2)
            .map(|k| Cf32::cis(-2.0 * std::f32::consts::PI * k as f32 / n as f32))
            .collect();
        let mut twiddles: Vec<Cf32> = Vec::with_capacity(n.saturating_sub(1));
        let mut half = 1;
        while half < n {
            twiddles.extend(last.iter().step_by(n / (2 * half)));
            half <<= 1;
        }
        let twiddles_conj = twiddles.iter().map(|w: &Cf32| w.conj()).collect();
        Fft {
            n,
            rev,
            twiddles,
            twiddles_conj,
        }
    }

    /// The transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for the degenerate size-1 plan.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// In-place forward DFT: `X[k] = sum_n x[n] e^{-2 pi i k n / N}`.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the planned size.
    pub fn forward(&self, buf: &mut [Cf32]) {
        assert_eq!(buf.len(), self.n, "buffer length must equal FFT size");
        self.transform(buf, false);
    }

    /// In-place inverse DFT, normalized by `1/N` so that
    /// `inverse(forward(x)) == x`.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the planned size.
    pub fn inverse(&self, buf: &mut [Cf32]) {
        assert_eq!(buf.len(), self.n, "buffer length must equal FFT size");
        self.transform(buf, true);
    }

    /// The bit-reversal permutation, in place.
    ///
    /// Swapping `i` with `rev[i]` one pair at a time strides through
    /// the buffer by powers of two and, from a few thousand samples
    /// up, misses cache on nearly every access. Large transforms are
    /// therefore permuted a tile at a time: with the index split as
    /// `(a, m, c)` — `a` and `c` the top and bottom `TILE_BITS` bits —
    /// element `(a, m, c)` trades places with `(rev c, rev m, rev a)`,
    /// so the `TILE x TILE` elements sharing one `m` move as `TILE`
    /// contiguous runs in and `TILE` contiguous runs out.
    fn bit_reverse(&self, buf: &mut [Cf32]) {
        const TILE_BITS: u32 = 4;
        const TILE: usize = 1 << TILE_BITS;
        let bits = self.n.trailing_zeros();
        if bits < 2 * TILE_BITS {
            for (i, &j) in self.rev.iter().enumerate() {
                if i < j as usize {
                    buf.swap(i, j as usize);
                }
            }
            return;
        }
        // `rev` reverses `bits`-bit indices; shifted down it reverses
        // the narrower fields too.
        let top = bits - TILE_BITS;
        let rev_tile = |a: usize| (self.rev[a] >> top) as usize;
        let run = |a: usize, m: usize| (a << top) | (m << TILE_BITS);
        let mut tile = [Cf32::ZERO; TILE * TILE];
        for m in 0..1usize << (top - TILE_BITS) {
            let m_rev = (self.rev[m] >> (2 * TILE_BITS)) as usize;
            if m_rev < m {
                continue; // moved when the loop stood at `m_rev`
            }
            // tile[rev a][c] <- buf[(a, m, c)]
            for a in 0..TILE {
                let at = run(a, m);
                tile[rev_tile(a) * TILE..][..TILE].copy_from_slice(&buf[at..at + TILE]);
            }
            // buf[(rev c, rev m, a')] <-> tile[a'][c]
            for c in 0..TILE {
                let at = run(rev_tile(c), m_rev);
                for (a, z) in buf[at..at + TILE].iter_mut().enumerate() {
                    std::mem::swap(z, &mut tile[a * TILE + c]);
                }
            }
            // The tile now holds what block `rev m` held, laid out for
            // block `m` — unless they are the same block, already done.
            if m_rev != m {
                for a in 0..TILE {
                    let at = run(a, m);
                    buf[at..at + TILE].copy_from_slice(&tile[rev_tile(a) * TILE..][..TILE]);
                }
            }
        }
    }

    fn transform(&self, buf: &mut [Cf32], inverse: bool) {
        self.bit_reverse(buf);
        // Every stage in one kernel call, which fuses them two or
        // three to a pass over `buf` and folds in the inverse's 1/n.
        let (table, scale) = if inverse {
            (&self.twiddles_conj, Some(1.0 / self.n as f32))
        } else {
            (&self.twiddles, None)
        };
        kernels::active().fft_stages(buf, table, scale);
    }
}

/// One-shot forward FFT of a power-of-two-length slice.
///
/// Convenience wrapper over the shared plan cache
/// ([`crate::engine::plan`]); repeated calls at the same size reuse
/// one plan.
pub fn fft(buf: &mut [Cf32]) {
    crate::engine::plan(buf.len()).forward(buf);
}

/// Returns the index of the maximum-magnitude bin of a spectrum.
///
/// Ties resolve to the lowest index. Returns 0 for an empty slice.
pub fn peak_bin(spectrum: &[Cf32]) -> usize {
    let mut best = 0usize;
    let mut best_mag = f32::MIN;
    for (i, z) in spectrum.iter().enumerate() {
        let m = z.norm_sqr();
        if m > best_mag {
            best_mag = m;
            best = i;
        }
    }
    best
}

/// Maps an FFT bin index to its frequency in Hz given the sample rate,
/// treating bins above `n/2` as negative frequencies.
#[inline]
pub fn bin_to_freq(bin: usize, n: usize, fs: f64) -> f64 {
    let b = if bin <= n / 2 {
        bin as f64
    } else {
        bin as f64 - n as f64
    };
    b * fs / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num::Cf32;

    fn assert_close(a: Cf32, b: Cf32, tol: f32) {
        assert!((a - b).abs() < tol, "expected {b:?}, got {a:?} (tol {tol})");
    }

    #[test]
    fn dc_signal_concentrates_in_bin_zero() {
        let mut buf = vec![Cf32::ONE; 8];
        fft(&mut buf);
        assert_close(buf[0], Cf32::from_re(8.0), 1e-4);
        for z in &buf[1..] {
            assert!(z.abs() < 1e-4);
        }
    }

    #[test]
    fn single_tone_lands_in_expected_bin() {
        let n = 64;
        let k = 5;
        let mut buf: Vec<Cf32> = (0..n)
            .map(|i| Cf32::cis(2.0 * std::f32::consts::PI * k as f32 * i as f32 / n as f32))
            .collect();
        fft(&mut buf);
        assert_eq!(peak_bin(&buf), k);
        assert!(buf[k].abs() > 0.99 * n as f32);
    }

    #[test]
    fn negative_tone_lands_in_high_bin() {
        let n = 32;
        let mut buf: Vec<Cf32> = (0..n)
            .map(|i| Cf32::cis(-2.0 * std::f32::consts::PI * 3.0 * i as f32 / n as f32))
            .collect();
        fft(&mut buf);
        assert_eq!(peak_bin(&buf), n - 3);
    }

    #[test]
    fn inverse_roundtrips() {
        let n = 128;
        let orig: Vec<Cf32> = (0..n)
            .map(|i| Cf32::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()))
            .collect();
        let mut buf = orig.clone();
        let plan = Fft::new(n);
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in buf.iter().zip(orig.iter()) {
            assert_close(*a, *b, 1e-4);
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 256;
        let sig: Vec<Cf32> = (0..n)
            .map(|i| Cf32::new((i as f32 * 1.7).sin(), (i as f32 * 0.3).sin()))
            .collect();
        let time_energy: f32 = sig.iter().map(|z| z.norm_sqr()).sum();
        let mut buf = sig;
        fft(&mut buf);
        let freq_energy: f32 = buf.iter().map(|z| z.norm_sqr()).sum::<f32>() / n as f32;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-4);
    }

    #[test]
    fn size_one_is_identity() {
        let mut buf = vec![Cf32::new(2.0, -1.0)];
        fft(&mut buf);
        assert_eq!(buf[0], Cf32::new(2.0, -1.0));
        Fft::new(1).inverse(&mut buf);
        assert_eq!(buf[0], Cf32::new(2.0, -1.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        let _ = Fft::new(12);
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1000), 1024);
        assert_eq!(next_pow2(1024), 1024);
    }

    #[test]
    fn bins_past_half_map_to_negative_frequencies() {
        let (n, fs) = (1024, 1_000_000.0);
        for (bin, f) in [
            (0, 0.0),
            (128, 125_000.0),
            (512, 500_000.0),
            (984, -39_062.5),
        ] {
            assert!((bin_to_freq(bin, n, fs) - f).abs() < 1e-6, "bin {bin}");
        }
    }

    #[test]
    fn linearity() {
        let n = 64;
        let x: Vec<Cf32> = (0..n).map(|i| Cf32::new(i as f32, -(i as f32))).collect();
        let y: Vec<Cf32> = (0..n).map(|i| Cf32::new((i as f32).cos(), 0.5)).collect();
        let plan = Fft::new(n);
        let mut fx = x.clone();
        let mut fy = y.clone();
        plan.forward(&mut fx);
        plan.forward(&mut fy);
        let mut fxy: Vec<Cf32> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        plan.forward(&mut fxy);
        for i in 0..n {
            assert_close(fxy[i], fx[i] + fy[i], 1e-2);
        }
    }
}
