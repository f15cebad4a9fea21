//! Runtime-dispatched SIMD kernels for the DSP hot loops.
//!
//! Every compute-bound inner loop in the workspace — the complex
//! dot products behind correlation and SIC gain estimation, the FIR
//! convolution, the pointwise spectral/dechirp multiplies, the FFT
//! butterflies under every correlation, its normalization, the front
//! end's quantizer, the backhaul's block-floating-point codec, and the
//! magnitude/energy reductions — funnels through this module. A
//! [`Backend`] is selected once per process from CPU feature detection
//! (overridable with the `GALIOT_DSP_BACKEND` environment variable or
//! [`set_backend`]), and each kernel dispatches to that backend's
//! implementation.
//!
//! # One mechanism
//!
//! Every vector kernel is one generic body over a private vector trait
//! (`x86::Simd`: a vector of `LANES` interleaved complex samples, each
//! method one correctly rounded operation per float lane), instantiated
//! for `__m128`, `__m256` and `__m512`. Which instantiation a backend
//! runs is stated once, in a three-row table:
//!
//! | row | kernels | `Sse41` | `Avx2` | `Fma` | `Avx512` |
//! |---|---|---|---|---|---|
//! | wide | [`mul_in_place`], [`sub_scaled`], [`Backend::butterflies`], [`Backend::fft_stages`], [`normalize_lags`], [`digitize`], [`compress`], [`decompress`] | 128 | 256 | 256 | 512 |
//! | capped | [`max_norm_sqr`], [`norm_sqr_into`], [`fir_same`], [`fir_same_real`], [`fir_decimate`] | 128 | 256 | 256 | 256 |
//! | reduction | [`dot_conj`], [`energy_f32`], [`energy_f64`] | 128 | 256 | 256 fused | 256 fused |
//!
//! [`Backend::Scalar`], and any backend the CPU lacks, runs the scalar
//! reference bodies.
//!
//! # Exactness policy
//!
//! Two contracts, chosen so that every waveform a modulator synthesizes
//! (and therefore every golden fingerprint and every conformance frame
//! set) is byte-identical across backends:
//!
//! * **Element-wise: bit-exact in every backend.** Every kernel of the
//!   wide and capped rows computes each output with the scalar
//!   reference's sequence of correctly rounded operations, lane for
//!   lane, unfused even on [`Backend::Fma`]. The FIRs are vectorized
//!   across *outputs*, so each output accumulates its taps in scalar
//!   order; an FFT stage across its independent butterflies, each an
//!   unfused complex multiply, one add and one subtract, and
//!   [`Backend::fft_stages`] runs every stage's butterflies in the same
//!   order, two or three stages to a pass over memory; a block's codec
//!   peak is a maximum, which has no order. These are the operations on
//!   the waveform-synthesis path (GFSK pulse shaping, channelizers,
//!   mixers, dechirpers) and under every digitized capture, every
//!   correlation trace a detection or classification is read from, and
//!   every byte a segment puts on the wire.
//! * **Reductions: bit-exact to the lane-split reference of their
//!   backend.** [`dot_conj`], [`energy_f32`] and [`energy_f64`] split a
//!   sum across a vector's lanes, so a vector result differs from the
//!   scalar one by rounding (relative error on the order of `n * 2^-24`
//!   for f32 sums) — but by exactly the lane split of its row: `2 *
//!   LANES` float accumulators (`LANES` f64 ones for [`energy_f64`]),
//!   each updated with an unfused multiply-add (fused on the `Fma` and
//!   `Avx512` backends), the lanes summed in order, then the samples
//!   that fill no vector in sample order. `tests/kernel_diff.rs` holds
//!   every backend bit for bit to that reference in plain Rust, and
//!   all of them to an f64 ground truth. The reductions feed
//!   *decisions* — peak picking, SIC gains, classification metrics —
//!   which are robust to last-bit noise.
//!
//! # Safety
//!
//! The vector paths are `unsafe` `#[target_feature]` functions inside
//! the private `x86` submodule — the only `unsafe` code in the crate,
//! with the dispatch table's calls into them. They are reachable
//! exclusively through [`Backend`] methods, and the table first clamps
//! the backend to a CPU-supported one (falling back to
//! [`Backend::Scalar`]), so the `target_feature` contract — "only call
//! this if the CPU has the feature" — is enforced at the dispatch site
//! and the public API stays safe even for a hand-constructed
//! unsupported `Backend` value.

// The one module where `unsafe` is permitted: `#[target_feature]`
// bodies and the feature-guarded dispatch calls into them. See the
// module docs' safety section for the argument.
#![allow(unsafe_code)]

use crate::num::Cf32;
use std::sync::atomic::{AtomicU8, Ordering};

/// A kernel implementation tier.
///
/// Variants are ordered from the always-available scalar reference to
/// the widest vector path; [`Backend::detect`] returns the best one
/// the running CPU supports. On non-x86_64 targets every variant
/// exists but only [`Backend::Scalar`] is supported, and the others
/// clamp to it at dispatch. Which vector type a variant runs each
/// kernel on is the three-row table of the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Backend {
    /// Portable scalar reference — the semantics all other backends
    /// are verified against.
    Scalar,
    /// 128-bit SSE4.1 (2 complex / 4 real lanes) on every row.
    Sse41,
    /// 256-bit AVX2 (4 complex / 8 real lanes) on every row, unfused.
    Avx2,
    /// AVX2 with fused multiply-add in the reduction row only; the wide
    /// and capped rows run the unfused AVX2 bodies, so they stay
    /// bit-exact with the scalar reference.
    Fma,
    /// AVX-512F: the wide row — multiply/subtract, the FFT, correlation
    /// normalization, the digitizer and the codec — runs 512 bits wide
    /// (8 complex / 16 real lanes), still bit-exact (a masked subtract
    /// stands in for `addsub` and keeps the per-lane rounding
    /// sequence); the capped row runs the AVX2 bodies and the
    /// reductions the [`Backend::Fma`] ones.
    Avx512,
}

/// The dispatch table: runs `kernel(args)` on the instantiation `row`
/// assigns to `backend` (module docs), or on the scalar reference where
/// `backend` is [`Backend::Scalar`] or not supported here. The one
/// place a kernel method enters `unsafe` code.
macro_rules! dispatch {
    ($row:ident: $backend:expr, $kernel:ident($($arg:expr),*)) => {
        match $backend.effective() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `effective()` returned this backend, so the CPU has
            // every feature of the body its row picks (`Fma` and `Avx512`
            // imply avx2 and fma); the kernel method has asserted the
            // shapes the body relies on.
            b @ (Backend::Sse41 | Backend::Avx2 | Backend::Fma | Backend::Avx512) => unsafe {
                dispatch!(@$row b, $kernel($($arg),*))
            },
            _ => scalar::$kernel($($arg),*),
        }
    };
    (@wide $b:ident, $($call:tt)*) => {
        match $b {
            Backend::Avx512 => x86::avx512::$($call)*,
            Backend::Avx2 | Backend::Fma => x86::avx2::$($call)*,
            _ => x86::sse41::$($call)*,
        }
    };
    (@capped $b:ident, $($call:tt)*) => {
        match $b {
            Backend::Avx2 | Backend::Fma | Backend::Avx512 => x86::avx2::$($call)*,
            _ => x86::sse41::$($call)*,
        }
    };
    (@reduction $b:ident, $($call:tt)*) => {
        match $b {
            Backend::Fma | Backend::Avx512 => x86::fma::$($call)*,
            Backend::Avx2 => x86::avx2::$($call)*,
            _ => x86::sse41::$($call)*,
        }
    };
}

impl Backend {
    /// All backends, scalar first.
    pub const ALL: [Backend; 5] = [
        Backend::Scalar,
        Backend::Sse41,
        Backend::Avx2,
        Backend::Fma,
        Backend::Avx512,
    ];

    /// The backend's canonical name (the `GALIOT_DSP_BACKEND` value
    /// that selects it).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse41 => "sse4.1",
            Backend::Avx2 => "avx2",
            Backend::Fma => "fma",
            Backend::Avx512 => "avx512",
        }
    }

    /// Parses a backend name (`"sse41"` is accepted for `"sse4.1"`).
    /// Returns `None` for unknown names, including `"auto"`.
    pub fn from_name(name: &str) -> Option<Backend> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "sse4.1" | "sse41" => Some(Backend::Sse41),
            "avx2" => Some(Backend::Avx2),
            "fma" => Some(Backend::Fma),
            "avx512" | "avx512f" => Some(Backend::Avx512),
            _ => None,
        }
    }

    /// Whether the running CPU can execute this backend.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Sse41 => std::arch::is_x86_feature_detected!("sse4.1"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Fma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The best backend the running CPU supports.
    pub fn detect() -> Backend {
        for b in [Backend::Avx512, Backend::Fma, Backend::Avx2, Backend::Sse41] {
            if b.is_supported() {
                return b;
            }
        }
        Backend::Scalar
    }

    /// Clamps to a backend that is safe to execute here: `self` if the
    /// CPU supports it, the scalar reference otherwise. Every kernel
    /// method routes through this, which is what makes the dispatch
    /// safe for arbitrary `Backend` values.
    #[inline]
    fn effective(self) -> Backend {
        if self.is_supported() {
            self
        } else {
            Backend::Scalar
        }
    }

    /// Complex correlation dot product `sum_i x[i] * conj(h[i])` over
    /// the common prefix of the two slices (empty input sums to zero).
    ///
    /// Reduction: bit-exact to the lane-split reference of the backend
    /// (module docs); `re` sums the lanes of `x * h`, `im` the odd
    /// lanes of `x * swap(h)` minus the even ones.
    pub fn dot_conj(self, x: &[Cf32], h: &[Cf32]) -> Cf32 {
        let n = x.len().min(h.len());
        let (x, h) = (&x[..n], &h[..n]);
        dispatch!(reduction: self, dot_conj(x, h))
    }

    /// Signal energy `sum |x[i]|^2` accumulated in f32 (the form the
    /// per-block SIC gain denominators and FFT-bin quality metrics
    /// use). Reduction: bit-exact to the lane-split reference of the
    /// backend, whose tail adds `re^2` then `im^2`.
    pub fn energy_f32(self, x: &[Cf32]) -> f32 {
        dispatch!(reduction: self, energy_f32(x))
    }

    /// Signal energy `sum |x[i]|^2` accumulated in f64 (the form the
    /// power/energy measurements use to avoid drift over long
    /// captures). Reduction: bit-exact to the lane-split reference of
    /// the backend. Vector backends square in f64 where the scalar
    /// reference squares in f32 then widens, so the vector result is
    /// the (slightly) more accurate one.
    pub fn energy_f64(self, x: &[Cf32]) -> f64 {
        dispatch!(reduction: self, energy_f64(x))
    }

    /// Peak instantaneous power `max_i |x[i]|^2` (0 for empty input).
    ///
    /// Bit-exact across backends: each `|z|^2` is the same two-product
    /// one-add sequence as the scalar reference, `max` is exact, and a
    /// NaN `|z|^2` is skipped (the running peak is the operand a vector
    /// `max` keeps when either is NaN), so the result is a true bound on
    /// every other sample's power.
    pub fn max_norm_sqr(self, x: &[Cf32]) -> f32 {
        dispatch!(capped: self, max_norm_sqr(x))
    }

    /// Writes `|x[i]|^2` into `out[i]` element-wise. Bit-exact across
    /// backends: one rounding per square, one per add, exactly as the
    /// scalar reference.
    ///
    /// # Panics
    /// Panics if `out.len() != x.len()`.
    pub fn norm_sqr_into(self, x: &[Cf32], out: &mut [f32]) {
        assert_eq!(x.len(), out.len(), "norm_sqr_into length mismatch");
        dispatch!(capped: self, norm_sqr_into(x, out))
    }

    /// Pointwise complex multiply `a[i] *= b[i]` over the common
    /// prefix. Bit-exact across backends (the element-wise rounding
    /// sequence of [`Cf32`]'s `Mul` is preserved per lane) — this is
    /// the kernel on the spectral-correlation, mixer and dechirp
    /// paths, all of which feed pinned waveforms.
    pub fn mul_in_place(self, a: &mut [Cf32], b: &[Cf32]) {
        let n = a.len().min(b.len());
        let (a, b) = (&mut a[..n], &b[..n]);
        dispatch!(wide: self, mul_in_place(a, b))
    }

    /// Scaled subtraction `x[i] -= y[i] * g` over the common prefix —
    /// the interference-cancellation inner loop. Bit-exact across
    /// backends.
    pub fn sub_scaled(self, x: &mut [Cf32], y: &[Cf32], g: Cf32) {
        let n = x.len().min(y.len());
        let (x, y) = (&mut x[..n], &y[..n]);
        dispatch!(wide: self, sub_scaled(x, y, g))
    }

    /// "Same"-mode real-tap FIR over complex input with group-delay
    /// compensation: `out[i] = sum_k taps[k] * input[i + delay - k]`
    /// over in-bounds indices, `delay = (taps.len() - 1) / 2`.
    ///
    /// Bit-exact across backends: vector paths parallelize across
    /// *outputs*, so every output accumulates taps in ascending-`k`
    /// scalar order with unfused multiply-adds. Empty `taps` zeroes
    /// the output.
    ///
    /// # Panics
    /// Panics if `out.len() != input.len()`.
    pub fn fir_same(self, taps: &[f32], input: &[Cf32], out: &mut [Cf32]) {
        assert_eq!(input.len(), out.len(), "fir_same length mismatch");
        if taps.is_empty() {
            out.fill(Cf32::ZERO);
            return;
        }
        dispatch!(capped: self, fir(taps, input, 1, out))
    }

    /// "Same"-mode real-tap FIR over real input — the GFSK pulse
    /// shaper's kernel. Same contract as [`Backend::fir_same`], which is
    /// this FIR over two interleaved rails.
    ///
    /// # Panics
    /// Panics if `out.len() != input.len()`.
    pub fn fir_same_real(self, taps: &[f32], input: &[f32], out: &mut [f32]) {
        assert_eq!(input.len(), out.len(), "fir_same_real length mismatch");
        if taps.is_empty() {
            out.fill(0.0);
            return;
        }
        dispatch!(capped: self, fir(taps, input, 1, out))
    }

    /// Every `os`-th output of [`Backend::fir_same`] — `out[j]` is its
    /// output `j * os` — computing only those: a decimating channel
    /// filter that never forms the samples it drops. Bit-exact with
    /// [`Backend::fir_same`] followed by `step_by(os)`, in every backend:
    /// each output accumulates its taps in the same ascending, unfused
    /// order, the vector paths across `LANES` outputs read at a stride.
    ///
    /// # Panics
    /// Panics if `os` is 0 or `out.len() != input.len().div_ceil(os)`.
    pub fn fir_decimate(self, taps: &[f32], input: &[Cf32], os: usize, out: &mut [Cf32]) {
        assert!(os > 0, "fir_decimate by 0");
        assert_eq!(out.len(), input.len().div_ceil(os), "fir_decimate length");
        if taps.is_empty() {
            out.fill(Cf32::ZERO);
            return;
        }
        dispatch!(capped: self, fir(taps, input, os, out))
    }

    /// One radix-2 decimation-in-time FFT stage, in place: in every
    /// consecutive block of `2 * half` samples (`half =
    /// twiddles.len()`), butterfly `k` replaces `(a, b) = (block[k],
    /// block[k + half])` with `(a + b * twiddles[k], a - b *
    /// twiddles[k])`.
    ///
    /// Bit-exact across backends: the butterflies of one stage touch
    /// disjoint samples, and vector paths compute each with the unfused
    /// complex multiply of [`Backend::mul_in_place`] followed by one
    /// add and one subtract — [`Cf32`]'s scalar rounding sequence per
    /// lane. A stage with fewer butterflies per block than the
    /// backend's vector holds runs on 256-bit vectors if it fills
    /// those, else on the scalar body.
    ///
    /// # Panics
    /// Panics if `twiddles` is empty or `buf.len()` is not a multiple
    /// of `2 * twiddles.len()`.
    pub fn butterflies(self, buf: &mut [Cf32], twiddles: &[Cf32]) {
        let half = twiddles.len();
        assert!(
            half > 0 && buf.len().is_multiple_of(2 * half),
            "butterflies: {} samples do not split into blocks of 2 x {half}",
            buf.len()
        );
        dispatch!(wide: self, butterflies(buf, twiddles))
    }

    /// Every radix-2 decimation-in-time stage of an `n`-point FFT over
    /// bit-reversed `buf`, then (for the inverse's `1/n`) every output
    /// multiplied by `scale`. `twiddles` holds the `n - 1` per-stage
    /// twiddles back to back — the stage with `half` butterflies per
    /// block at `[half - 1..2 * half - 1]`, as [`Backend::butterflies`]
    /// takes them.
    ///
    /// Bit-exact across backends, and with calling
    /// [`Backend::butterflies`] once per stage: every butterfly is
    /// computed in stage order, with its own twiddle and the same
    /// unfused multiply, add and subtract. Vector backends only change
    /// how often the buffer is walked: the stages narrower than a
    /// vector run inside one register (the multiply by the `w = 1`
    /// twiddle included — skipping it would flip the sign of a zero and
    /// turn `inf * 0` into `inf`), and the rest run two or three to a
    /// pass with the four or eight samples they connect held in
    /// registers. Twiddles are never combined.
    ///
    /// # Panics
    /// Panics if `buf.len()` is not a power of two or `twiddles.len()`
    /// is not `buf.len() - 1`.
    pub fn fft_stages(self, buf: &mut [Cf32], twiddles: &[Cf32], scale: Option<f32>) {
        assert!(
            buf.len().is_power_of_two() && twiddles.len() == buf.len() - 1,
            "fft_stages: {} samples, {} twiddles",
            buf.len(),
            twiddles.len()
        );
        dispatch!(wide: self, fft_stages(buf, twiddles, scale))
    }

    /// Normalizes one run of correlation lags: with `win[k] =
    /// prefix[k + m] - prefix[k]` the energy of the signal window under
    /// lag `k`, `out[k]` is 0 where `win[k] <= floor` and
    /// `min(|corr[k]| / sqrt(win[k] * energy), 1)` elsewhere (the
    /// square root taken in f64, the quotient in f32).
    ///
    /// Bit-exact across backends: subtract, multiply, square root,
    /// narrowing conversion, divide and `min` are each correctly
    /// rounded and applied per lane in the scalar order.
    ///
    /// # Panics
    /// Panics if `out.len() != corr.len()` or `prefix` is shorter than
    /// `corr.len() + m`.
    pub fn normalize_lags(
        self,
        corr: &[Cf32],
        prefix: &[f64],
        m: usize,
        energy: f64,
        floor: f64,
        out: &mut [f32],
    ) {
        assert_eq!(corr.len(), out.len(), "normalize_lags length mismatch");
        assert!(
            prefix.len() >= corr.len() + m,
            "normalize_lags: {} prefix sums for {} lags of {m}-sample windows",
            prefix.len(),
            corr.len()
        );
        let (lo, hi) = (&prefix[..corr.len()], &prefix[m..m + corr.len()]);
        dispatch!(wide: self, normalize_lags(corr, lo, hi, energy, floor, out))
    }

    /// The ADC model of a receiver front end, sample by sample: gain,
    /// quadrature-rail gain error and phase skew, DC offset, clipping
    /// to full scale and rounding (half away from zero) to the ADC
    /// grid — see [`Adc`] for the arithmetic.
    ///
    /// Bit-exact across backends: every step is one correctly rounded
    /// operation per lane in the scalar order, and `round` is emulated
    /// exactly (`trunc(v + copysign(0.5 - 2^-25, v))` for the
    /// magnitudes a clipped sample times at most 2^15 levels can take).
    ///
    /// # Panics
    /// Panics if `out.len() != analog.len()` or `adc.levels` exceeds
    /// 2^15 (a 16-bit converter).
    pub fn digitize(self, adc: &Adc, analog: &[Cf32], out: &mut [Cf32]) {
        assert_eq!(analog.len(), out.len(), "digitize length mismatch");
        assert!(adc.levels <= 32_768.0, "digitize: {} levels", adc.levels);
        dispatch!(wide: self, digitize(adc, analog, out))
    }

    /// Block-floating-point compression of I/Q samples to `bits` bits
    /// per rail, straight into the output bytes. Each run of
    /// `block_len` samples is scaled by its peak rail magnitude
    /// (`scales[b]`, floored at `1e-12`; NaN rails do not count), and
    /// every rail `v` becomes the code `round((v / peak).clamp(-1, 1) *
    /// (levels - 0.5) + levels - 0.5)` with `levels = 2^bits / 2`
    /// (half away from zero; a NaN rail is code 0). Codes are packed I
    /// then Q, little-endian, `bits` each, into `data`.
    ///
    /// Bit-exact across backends: the peak is a maximum, which no
    /// summation order can change, and divide, clamp, multiply, add,
    /// subtract and the rounding (`trunc(x + (0.5 - 2^-25))`, exact for
    /// the `0 <= x < 2^16` a code can be) are correctly rounded per
    /// lane in the scalar order.
    ///
    /// # Panics
    /// Panics unless `1 <= bits <= 16`, `block_len > 0`, `scales` holds
    /// one entry per block and `data` exactly [`packed_len`] bytes.
    pub fn compress(
        self,
        samples: &[Cf32],
        bits: u32,
        block_len: usize,
        scales: &mut [f32],
        data: &mut [u8],
    ) {
        check_codec_shape(samples.len(), bits, block_len, scales.len(), data.len());
        dispatch!(wide: self, compress(samples, bits, block_len, scales, data))
    }

    /// The inverse of [`Backend::compress`]: sample `i`'s rails are
    /// `(code - (levels - 0.5)) / (levels - 0.5) * scales[i / block_len]`,
    /// the scale read once per block.
    ///
    /// Bit-exact across backends: an exact integer conversion, then one
    /// correctly rounded subtract, divide and multiply per lane.
    ///
    /// # Panics
    /// Panics on the shapes [`Backend::compress`] panics on, `out`
    /// standing for the samples.
    pub fn decompress(
        self,
        bits: u32,
        block_len: usize,
        scales: &[f32],
        data: &[u8],
        out: &mut [Cf32],
    ) {
        check_codec_shape(out.len(), bits, block_len, scales.len(), data.len());
        dispatch!(wide: self, decompress(bits, block_len, scales, data, out))
    }
}

/// Exact byte count `len` samples occupy at `bits` bits per I/Q rail,
/// or `None` where that count overflows `usize` (a length no buffer
/// can have, declared by a hostile header).
pub fn packed_len(len: usize, bits: u32) -> Option<usize> {
    Some(len.checked_mul(2)?.checked_mul(bits as usize)?.div_ceil(8))
}

/// The shape [`Backend::compress`] and [`Backend::decompress`] rely on.
fn check_codec_shape(len: usize, bits: u32, block_len: usize, n_scales: usize, n_bytes: usize) {
    assert!((1..=16).contains(&bits), "bits must be 1..=16");
    assert!(block_len > 0, "block length must be positive");
    assert!(
        n_scales == len.div_ceil(block_len) && Some(n_bytes) == packed_len(len, bits),
        "codec: {len} samples at {bits} bits in blocks of {block_len} \
         do not fill {n_scales} scales and {n_bytes} bytes"
    );
}

/// The per-sample arithmetic of [`Backend::digitize`]. With `s = z *
/// gain`, the rails are `i = s.re` and `q = iq_gain * (s.im + iq_skew *
/// s.re)`; each rail `v` then becomes `round((v + dc).clamp(-1, 1) *
/// levels) / levels`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Adc {
    /// Linear gain ahead of the converter.
    pub gain: f32,
    /// Q-rail gain relative to the I rail (1 = balanced).
    pub iq_gain: f32,
    /// Share of the I rail leaking into the Q rail (the sine of the
    /// phase imbalance; 0 = none).
    pub iq_skew: f32,
    /// DC offset on both rails, as a fraction of full scale.
    pub dc: f32,
    /// Quantization levels per polarity (`2^bits / 2`).
    pub levels: f32,
}

// ---------------------------------------------------------------------------
// Process-wide backend selection
// ---------------------------------------------------------------------------

/// 0 = not yet resolved; otherwise the backend's discriminant (its
/// index in [`Backend::ALL`]) + 1.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The backend `GALIOT_DSP_BACKEND` currently requests, if any:
/// `None` when the variable is unset, empty, or `auto`;
/// `Some(Err(value))` when it is set to an unknown name;
/// `Some(Ok(backend))` otherwise (whether or not the CPU supports it).
///
/// This reads the environment on every call — unlike [`active`], which
/// resolves once per process — so the seed-knob plumbing tests and
/// `galiot-sim`'s repro bundles can report what the environment *asks
/// for* next to what the process actually runs.
pub fn env_request() -> Option<Result<Backend, String>> {
    match std::env::var("GALIOT_DSP_BACKEND") {
        Ok(v) if !v.is_empty() && !v.eq_ignore_ascii_case("auto") => match Backend::from_name(&v) {
            Some(req) => Some(Ok(req)),
            None => Some(Err(v)),
        },
        _ => None,
    }
}

fn resolve_from_env() -> Backend {
    let fallback = Backend::detect();
    match env_request() {
        None => fallback,
        Some(Ok(req)) if req.is_supported() => req,
        Some(Ok(req)) => {
            eprintln!(
                "galiot-dsp: GALIOT_DSP_BACKEND requests the {} backend but the CPU does not \
                 support it; using {}",
                req.name(),
                fallback.name()
            );
            fallback
        }
        Some(Err(v)) => {
            eprintln!(
                "galiot-dsp: unknown GALIOT_DSP_BACKEND={v:?} \
                 (expected scalar|sse4.1|avx2|fma|avx512|auto); using {}",
                fallback.name()
            );
            fallback
        }
    }
}

/// The process-wide active backend every free kernel function
/// dispatches to.
///
/// Resolved once on first use: `GALIOT_DSP_BACKEND` if set (`scalar`,
/// `sse4.1`, `avx2`, `fma`, `avx512`, or `auto`; an unsupported or unknown
/// request falls back to detection with a warning on stderr),
/// otherwise the best backend [`Backend::detect`] finds.
pub fn active() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            // Benign race: resolution is deterministic for a given
            // environment, so concurrent first callers agree.
            let b = resolve_from_env();
            ACTIVE.store(b as u8 + 1, Ordering::Relaxed);
            b
        }
        c => Backend::ALL[c as usize - 1],
    }
}

/// The active backend's name — the `dsp_backend` tag benchmark reports
/// record.
pub fn backend_name() -> &'static str {
    active().name()
}

/// Overrides the process-wide backend (clamped to
/// [`Backend::Scalar`] if the CPU does not support the request) and
/// returns the previously active one.
///
/// This is the in-process test/bench knob behind the differential and
/// force-scalar conformance suites; production selection goes through
/// `GALIOT_DSP_BACKEND` / detection instead. Takes effect for
/// subsequent kernel calls in all threads.
pub fn set_backend(b: Backend) -> Backend {
    let prev = active();
    let clamped = if b.is_supported() { b } else { Backend::Scalar };
    ACTIVE.store(clamped as u8 + 1, Ordering::Relaxed);
    prev
}

// ---------------------------------------------------------------------------
// Free functions: the call-site API (dispatch on the active backend)
// ---------------------------------------------------------------------------

/// Each free function: the [`Backend`] method of its name on the
/// [`active`] backend.
macro_rules! on_active {
    ($($name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {$(
        #[doc = concat!("[`Backend::", stringify!($name), "`] on the [`active`] backend.")]
        #[inline]
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            active().$name($($arg),*)
        }
    )*};
}

on_active! {
    dot_conj(x: &[Cf32], h: &[Cf32]) -> Cf32;
    energy_f32(x: &[Cf32]) -> f32;
    energy_f64(x: &[Cf32]) -> f64;
    max_norm_sqr(x: &[Cf32]) -> f32;
    norm_sqr_into(x: &[Cf32], out: &mut [f32]);
    mul_in_place(a: &mut [Cf32], b: &[Cf32]);
    sub_scaled(x: &mut [Cf32], y: &[Cf32], g: Cf32);
    fir_same(taps: &[f32], input: &[Cf32], out: &mut [Cf32]);
    fir_same_real(taps: &[f32], input: &[f32], out: &mut [f32]);
    fir_decimate(taps: &[f32], input: &[Cf32], os: usize, out: &mut [Cf32]);
    normalize_lags(corr: &[Cf32], prefix: &[f64], m: usize, energy: f64, floor: f64, out: &mut [f32]);
    digitize(adc: &Adc, analog: &[Cf32], out: &mut [Cf32]);
    compress(samples: &[Cf32], bits: u32, block_len: usize, scales: &mut [f32], data: &mut [u8]);
    decompress(bits: u32, block_len: usize, scales: &[f32], data: &[u8], out: &mut [Cf32]);
}

// ---------------------------------------------------------------------------
// Scalar reference implementations
// ---------------------------------------------------------------------------

/// The always-compiled scalar reference bodies. Every other backend
/// is differentially tested against these, and these in turn preserve
/// the exact summation orders of the pre-kernel inline loops (so the
/// golden waveform fingerprints pinned before this module existed
/// still hold).
mod scalar {
    use super::Adc;
    use crate::num::Cf32;
    use std::ops::{AddAssign, Mul, Range};

    pub fn dot_conj(x: &[Cf32], h: &[Cf32]) -> Cf32 {
        let mut acc = Cf32::ZERO;
        for (&a, &b) in x.iter().zip(h.iter()) {
            acc += a * b.conj();
        }
        acc
    }

    pub fn energy_f32(x: &[Cf32]) -> f32 {
        let mut acc = 0.0f32;
        for z in x {
            acc += z.norm_sqr();
        }
        acc
    }

    pub fn energy_f64(x: &[Cf32]) -> f64 {
        let mut acc = 0.0f64;
        for z in x {
            acc += z.norm_sqr() as f64;
        }
        acc
    }

    pub fn max_norm_sqr(x: &[Cf32]) -> f32 {
        x.iter().map(|z| z.norm_sqr()).fold(0.0, f32::max)
    }

    pub fn norm_sqr_into(x: &[Cf32], out: &mut [f32]) {
        for (o, z) in out.iter_mut().zip(x.iter()) {
            *o = z.norm_sqr();
        }
    }

    pub fn mul_in_place(a: &mut [Cf32], b: &[Cf32]) {
        for (x, &y) in a.iter_mut().zip(b.iter()) {
            *x *= y;
        }
    }

    pub fn sub_scaled(x: &mut [Cf32], y: &[Cf32], g: Cf32) {
        for (a, &b) in x.iter_mut().zip(y.iter()) {
            *a -= b * g;
        }
    }

    /// A FIR sample: one real rail, or two interleaved (I then Q), each
    /// filtered on its own.
    pub trait Rails: Copy + Default + Mul<f32, Output = Self> + AddAssign {
        /// The `f32`s a sample is made of, which is how many the vector
        /// FIR reads per sample.
        const RAILS: usize;
    }

    impl Rails for f32 {
        const RAILS: usize = 1;
    }

    impl Rails for Cf32 {
        const RAILS: usize = 2;
    }

    /// `Backend::fir_same` (`os = 1`) and `Backend::fir_decimate`.
    pub fn fir<T: Rails>(taps: &[f32], input: &[T], os: usize, out: &mut [T]) {
        fir_range(taps, input, os, out, 0..out.len());
    }

    /// The outputs `range` of `fir`: output `j` is the FIR at sample
    /// `j * os`, its in-bounds taps accumulated in ascending order.
    pub fn fir_range<T: Rails>(
        taps: &[f32],
        input: &[T],
        os: usize,
        out: &mut [T],
        range: Range<usize>,
    ) {
        let delay = (taps.len() - 1) / 2;
        for j in range {
            let mut acc = T::default();
            for (k, &t) in taps.iter().enumerate() {
                let idx = (j * os + delay).checked_sub(k);
                if let Some(&x) = idx.and_then(|idx| input.get(idx)) {
                    acc += x * t;
                }
            }
            out[j] = acc;
        }
    }

    pub fn butterflies(buf: &mut [Cf32], tw: &[Cf32]) {
        let half = tw.len();
        for block in buf.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            butterfly_run(lo, hi, tw);
        }
    }

    pub fn fft_stages(buf: &mut [Cf32], tw: &[Cf32], scale: Option<f32>) {
        let mut half = 1;
        while half < buf.len() {
            butterflies(buf, &tw[half - 1..2 * half - 1]);
            half <<= 1;
        }
        if let Some(k) = scale {
            for z in buf.iter_mut() {
                *z *= k;
            }
        }
    }

    pub fn normalize_lags(
        corr: &[Cf32],
        lo: &[f64],
        hi: &[f64],
        energy: f64,
        floor: f64,
        out: &mut [f32],
    ) {
        for (((o, r), &a), &b) in out.iter_mut().zip(corr).zip(lo).zip(hi) {
            let win = b - a;
            *o = if win <= floor {
                0.0
            } else {
                let denom = (win * energy).sqrt() as f32;
                (r.abs() / denom).min(1.0)
            };
        }
    }

    pub fn digitize(adc: &Adc, analog: &[Cf32], out: &mut [Cf32]) {
        let q = |v: f32| ((v + adc.dc).clamp(-1.0, 1.0) * adc.levels).round() / adc.levels;
        for (o, &z) in out.iter_mut().zip(analog) {
            let s = z * adc.gain;
            *o = Cf32::new(q(s.re), q(adc.iq_gain * (s.im + adc.iq_skew * s.re)));
        }
    }

    /// Quantization levels per polarity at `bits` bits per rail.
    pub fn levels(bits: u32) -> f32 {
        ((1u32 << bits) / 2) as f32
    }

    /// A block's scale: its peak rail magnitude, NaN rails skipped.
    pub fn block_peak(block: &[Cf32]) -> f32 {
        block
            .iter()
            .map(|z| z.re.abs().max(z.im.abs()))
            .fold(0.0f32, f32::max)
            .max(1e-12)
    }

    /// One rail's code: `[-peak, peak]` onto `[0, 2 * levels - 1]`.
    #[inline]
    pub fn quantize(v: f32, peak: f32, levels: f32) -> u16 {
        let norm = (v / peak).clamp(-1.0, 1.0);
        ((norm * (levels - 0.5)) + levels - 0.5).round() as u16
    }

    /// One rail back from its code.
    #[inline]
    pub fn dequantize(code: u16, levels: f32, scale: f32) -> f32 {
        ((code as f32 - (levels - 0.5)) / (levels - 0.5)) * scale
    }

    /// Packs codes of up to 16 bits, little-endian, into bytes sized
    /// for exactly the codes pushed.
    pub struct BitWriter<'a> {
        out: &'a mut [u8],
        at: usize,
        acc: u32,
        nbits: u32,
    }

    impl<'a> BitWriter<'a> {
        pub fn new(out: &'a mut [u8]) -> Self {
            BitWriter {
                out,
                at: 0,
                acc: 0,
                nbits: 0,
            }
        }

        #[inline]
        pub fn push(&mut self, code: u16, bits: u32) {
            self.acc |= (code as u32) << self.nbits;
            self.nbits += bits;
            while self.nbits >= 8 {
                self.out[self.at] = self.acc as u8;
                self.at += 1;
                self.acc >>= 8;
                self.nbits -= 8;
            }
        }

        /// The next `n` whole bytes, for a writer of 8-bit codes (which
        /// never holds a partial byte).
        pub fn bytes(&mut self, n: usize) -> &mut [u8] {
            debug_assert_eq!(self.nbits, 0);
            let run = &mut self.out[self.at..self.at + n];
            self.at += n;
            run
        }

        /// Writes out the last, partial byte.
        pub fn finish(self) {
            if self.nbits > 0 {
                self.out[self.at] = self.acc as u8;
            }
        }
    }

    /// Reads back what a [`BitWriter`] packed.
    pub struct BitReader<'a> {
        data: &'a [u8],
        at: usize,
        acc: u32,
        nbits: u32,
    }

    impl<'a> BitReader<'a> {
        pub fn new(data: &'a [u8]) -> Self {
            BitReader {
                data,
                at: 0,
                acc: 0,
                nbits: 0,
            }
        }

        #[inline]
        pub fn next(&mut self, bits: u32) -> u16 {
            while self.nbits < bits {
                self.acc |= (self.data[self.at] as u32) << self.nbits;
                self.at += 1;
                self.nbits += 8;
            }
            let code = (self.acc & ((1 << bits) - 1)) as u16;
            self.acc >>= bits;
            self.nbits -= bits;
            code
        }

        /// The next `n` whole bytes of a stream of 8-bit codes.
        pub fn bytes(&mut self, n: usize) -> &'a [u8] {
            debug_assert_eq!(self.nbits, 0);
            let run = &self.data[self.at..self.at + n];
            self.at += n;
            run
        }
    }

    pub fn compress(
        samples: &[Cf32],
        bits: u32,
        block_len: usize,
        scales: &mut [f32],
        data: &mut [u8],
    ) {
        let levels = levels(bits);
        let mut w = BitWriter::new(data);
        for (block, scale) in samples.chunks(block_len).zip(scales) {
            let peak = block_peak(block);
            *scale = peak;
            quantize_run(block, peak, levels, bits, &mut w);
        }
        w.finish();
    }

    /// Quantizes and packs samples that share one scale.
    pub fn quantize_run(run: &[Cf32], peak: f32, levels: f32, bits: u32, w: &mut BitWriter) {
        for z in run {
            w.push(quantize(z.re, peak, levels), bits);
            w.push(quantize(z.im, peak, levels), bits);
        }
    }

    pub fn decompress(bits: u32, block_len: usize, scales: &[f32], data: &[u8], out: &mut [Cf32]) {
        let levels = levels(bits);
        let mut r = BitReader::new(data);
        for (block, &scale) in out.chunks_mut(block_len).zip(scales) {
            dequantize_run(block, scale, levels, bits, &mut r);
        }
    }

    /// Unpacks and dequantizes samples that share one scale.
    pub fn dequantize_run(run: &mut [Cf32], scale: f32, levels: f32, bits: u32, r: &mut BitReader) {
        for z in run {
            let re = dequantize(r.next(bits), levels, scale);
            let im = dequantize(r.next(bits), levels, scale);
            *z = Cf32::new(re, im);
        }
    }

    /// Butterflies `(lo[k], hi[k])` by `tw[k]` over the common prefix.
    #[inline]
    pub fn butterfly_run(lo: &mut [Cf32], hi: &mut [Cf32], tw: &[Cf32]) {
        for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
            let t = *b * w;
            (*a, *b) = (*a + t, *a - t);
        }
    }
}

// ---------------------------------------------------------------------------
// x86-64 vector implementations
// ---------------------------------------------------------------------------

/// The `unsafe` `#[target_feature]` vector bodies. Reachable only
/// through [`Backend`]'s dispatch methods, which guarantee the CPU
/// supports the required features before calling in.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{scalar, Adc};
    use crate::num::Cf32;
    use std::arch::x86_64::*;

    // -- One vector type per ISA ---------------------------------------------
    //
    // Every kernel below is written once over `Simd` (the capped and
    // reduction rows also over `Narrow`) and instantiated for `__m128`,
    // `__m256` and `__m512`: every body is `#[inline(always)]` and
    // entered only through a `#[target_feature]` entry point, so each
    // instantiation compiles for its ISA. A body's own safety condition
    // is its trait's, plus the slice shapes its doc names (which the
    // `Backend` method asserts before dispatching).

    /// A vector of `LANES` interleaved complex samples (`2 * LANES`
    /// floats) and the per-lane operations the generic kernels use.
    /// Every arithmetic method is one correctly rounded IEEE operation
    /// per float lane.
    ///
    /// # Safety
    /// Methods may only be called where the CPU supports the
    /// implementing ISA; pointer methods read or write `LANES` samples
    /// (unaligned) at the pointer.
    trait Simd: Copy {
        const LANES: usize;
        /// Twiddle vectors of the stages [`Simd::small_stages`] runs.
        type Small: Copy;

        unsafe fn load(p: *const Cf32) -> Self;
        unsafe fn store(self, p: *mut Cf32);
        unsafe fn splat(v: f32) -> Self;
        /// `[re, im, re, im, ...]`.
        unsafe fn rails(re: f32, im: f32) -> Self;
        unsafe fn add(self, o: Self) -> Self;
        unsafe fn sub(self, o: Self) -> Self;
        unsafe fn mul(self, o: Self) -> Self;
        unsafe fn div(self, o: Self) -> Self;
        /// `self < o ? self : o` per lane: `o` where either is NaN.
        unsafe fn min(self, o: Self) -> Self;
        /// `self > o ? self : o` per lane: `o` where either is NaN.
        unsafe fn max(self, o: Self) -> Self;
        unsafe fn and(self, o: Self) -> Self;
        unsafe fn or(self, o: Self) -> Self;
        /// Rounds every lane toward zero.
        unsafe fn trunc(self) -> Self;
        /// `[im, re, im, re, ...]`.
        unsafe fn swap(self) -> Self;
        /// Real lanes of `self`, imaginary lanes of `o`.
        unsafe fn blend_im(self, o: Self) -> Self;
        /// Unfused complex multiply, [`Cf32`]'s `Mul` per sample: two
        /// rounded products and one add or subtract per component.
        unsafe fn cmul(self, w: Self) -> Self;
        /// The twiddles of the FFT stages with fewer than `LANES`
        /// butterflies per block, from a table of at least
        /// `LANES - 1` entries laid out as `Backend::fft_stages` takes it.
        unsafe fn small_twiddles(tw: &[Cf32]) -> Self::Small;
        /// Those stages (`half = 1, 2, .. LANES / 2`), in order, on one
        /// block of `LANES` samples held in `self`: both halves of every
        /// butterfly are shuffled into place, the upper half is
        /// multiplied by its twiddle, and sum and difference are blended
        /// back — the arithmetic of `butterfly`, lane for lane.
        unsafe fn small_stages(self, tw: Self::Small) -> Self;
        /// `Backend::normalize_lags` for the `LANES` lags at the
        /// pointers.
        unsafe fn normalize(
            corr: *const Cf32,
            lo: *const f64,
            hi: *const f64,
            energy: f64,
            floor: f64,
            out: *mut f32,
        );
        /// Truncates every float lane (each in `0..256`) to a byte and
        /// writes the `2 * LANES` of them at `p`.
        unsafe fn store_u8(self, p: *mut u8);
        /// Truncates every float lane (each in `0..65536`) to a `u16`
        /// and writes the `2 * LANES` of them at `p`.
        unsafe fn store_u16(self, p: *mut u16);
        /// The `2 * LANES` bytes at `p`, one per float lane.
        unsafe fn load_u8(p: *const u8) -> Self;
        /// The `2 * LANES` `u16`s at `p`, one per float lane.
        unsafe fn load_u16(p: *const u16) -> Self;
    }

    /// `ROUND_TO_ZERO | NO_EXC` for the `round`/`roundscale` family.
    const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
    /// Swaps the floats of every pair (`permute`/`shuffle` control).
    const SWAP: i32 = 0b1011_0001;

    /// The [`Simd`] methods that are one intrinsic each: the unaligned
    /// load and store, the broadcast, and the listed lane-wise binary
    /// operations (`op(self, o)`).
    macro_rules! one_intrinsic {
        ($load:path, $store:path, $splat:path; $($op:ident: $f:path),*) => {
            #[inline(always)]
            unsafe fn load(p: *const Cf32) -> Self {
                $load(p.cast())
            }
            #[inline(always)]
            unsafe fn store(self, p: *mut Cf32) {
                $store(p.cast(), self)
            }
            #[inline(always)]
            unsafe fn splat(v: f32) -> Self {
                $splat(v)
            }
            $(
                #[inline(always)]
                unsafe fn $op(self, o: Self) -> Self {
                    $f(self, o)
                }
            )*
        };
    }

    impl Simd for __m128 {
        const LANES: usize = 2;
        type Small = __m128;

        one_intrinsic!(_mm_loadu_ps, _mm_storeu_ps, _mm_set1_ps;
            add: _mm_add_ps, sub: _mm_sub_ps, mul: _mm_mul_ps, div: _mm_div_ps,
            min: _mm_min_ps, max: _mm_max_ps, and: _mm_and_ps, or: _mm_or_ps,
            blend_im: _mm_blend_ps::<0b1010>);

        #[inline(always)]
        unsafe fn rails(re: f32, im: f32) -> Self {
            _mm_setr_ps(re, im, re, im)
        }
        #[inline(always)]
        unsafe fn trunc(self) -> Self {
            _mm_round_ps::<TRUNC>(self)
        }
        #[inline(always)]
        unsafe fn swap(self) -> Self {
            _mm_shuffle_ps::<SWAP>(self, self)
        }
        #[inline(always)]
        unsafe fn cmul(self, w: Self) -> Self {
            let t1 = _mm_mul_ps(self, _mm_moveldup_ps(w));
            let t2 = _mm_mul_ps(self.swap(), _mm_movehdup_ps(w));
            _mm_addsub_ps(t1, t2)
        }
        #[inline(always)]
        unsafe fn small_twiddles(tw: &[Cf32]) -> Self::Small {
            Self::rails(tw[0].re, tw[0].im)
        }
        #[inline(always)]
        unsafe fn small_stages(self, w1: Self::Small) -> Self {
            // half = 1: (x0, x1).
            let (a, t) = (
                _mm_movelh_ps(self, self),
                _mm_movehl_ps(self, self).cmul(w1),
            );
            _mm_blend_ps::<0b1100>(a.add(t), a.sub(t))
        }
        #[inline(always)]
        unsafe fn normalize(
            corr: *const Cf32,
            lo: *const f64,
            hi: *const f64,
            energy: f64,
            floor: f64,
            out: *mut f32,
        ) {
            let win = _mm_sub_pd(_mm_loadu_pd(hi), _mm_loadu_pd(lo));
            // Lanes 2 and 3 of everything below are don't-cares: only
            // the low two results are stored.
            let denom = _mm_cvtpd_ps(_mm_sqrt_pd(_mm_mul_pd(win, _mm_set1_pd(energy))));
            let z = Self::load(corr);
            let sq = _mm_mul_ps(z, z);
            let mag = _mm_sqrt_ps(_mm_hadd_ps(sq, sq));
            let q = _mm_min_ps(_mm_div_ps(mag, denom), _mm_set1_ps(1.0));
            let quiet = _mm_castpd_ps(_mm_cmple_pd(win, _mm_set1_pd(floor)));
            let quiet = _mm_shuffle_ps::<0b1000_1000>(quiet, quiet);
            _mm_storel_pd(out.cast(), _mm_castps_pd(_mm_andnot_ps(quiet, q)));
        }
        #[inline(always)]
        unsafe fn store_u8(self, p: *mut u8) {
            let w = _mm_cvttps_epi32(self);
            let h = _mm_packus_epi32(w, w);
            p.cast::<i32>()
                .write_unaligned(_mm_cvtsi128_si32(_mm_packus_epi16(h, h)));
        }
        #[inline(always)]
        unsafe fn store_u16(self, p: *mut u16) {
            let w = _mm_cvttps_epi32(self);
            _mm_storel_epi64(p.cast(), _mm_packus_epi32(w, w));
        }
        #[inline(always)]
        unsafe fn load_u8(p: *const u8) -> Self {
            let b = _mm_cvtsi32_si128(p.cast::<i32>().read_unaligned());
            _mm_cvtepi32_ps(_mm_cvtepu8_epi32(b))
        }
        #[inline(always)]
        unsafe fn load_u16(p: *const u16) -> Self {
            _mm_cvtepi32_ps(_mm_cvtepu16_epi32(_mm_loadl_epi64(p.cast())))
        }
    }

    impl Simd for __m256 {
        const LANES: usize = 4;
        type Small = [__m256; 2];

        one_intrinsic!(_mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps;
            add: _mm256_add_ps, sub: _mm256_sub_ps, mul: _mm256_mul_ps, div: _mm256_div_ps,
            min: _mm256_min_ps, max: _mm256_max_ps, and: _mm256_and_ps, or: _mm256_or_ps,
            blend_im: _mm256_blend_ps::<0b1010_1010>);

        #[inline(always)]
        unsafe fn rails(re: f32, im: f32) -> Self {
            _mm256_setr_ps(re, im, re, im, re, im, re, im)
        }
        #[inline(always)]
        unsafe fn trunc(self) -> Self {
            _mm256_round_ps::<TRUNC>(self)
        }
        #[inline(always)]
        unsafe fn swap(self) -> Self {
            _mm256_permute_ps::<SWAP>(self)
        }
        #[inline(always)]
        unsafe fn cmul(self, w: Self) -> Self {
            let t1 = _mm256_mul_ps(self, _mm256_moveldup_ps(w));
            let t2 = _mm256_mul_ps(self.swap(), _mm256_movehdup_ps(w));
            _mm256_addsub_ps(t1, t2)
        }
        #[inline(always)]
        unsafe fn small_twiddles(tw: &[Cf32]) -> Self::Small {
            let w2 = _mm_loadu_ps(tw[1..3].as_ptr().cast());
            [Self::rails(tw[0].re, tw[0].im), _mm256_broadcast_ps(&w2)]
        }
        #[inline(always)]
        unsafe fn small_stages(self, [w1, w2]: Self::Small) -> Self {
            // half = 1: (x0, x1), (x2, x3).
            let d = _mm256_castps_pd(self);
            let a = _mm256_castpd_ps(_mm256_movedup_pd(d));
            let t = _mm256_castpd_ps(_mm256_permute_pd::<0b1111>(d)).cmul(w1);
            let v = _mm256_blend_ps::<0b1100_1100>(a.add(t), a.sub(t));
            // half = 2: (x0, x2), (x1, x3).
            let a = _mm256_permute2f128_ps::<0x00>(v, v);
            let t = _mm256_permute2f128_ps::<0x11>(v, v).cmul(w2);
            _mm256_blend_ps::<0b1111_0000>(a.add(t), a.sub(t))
        }
        #[inline(always)]
        unsafe fn normalize(
            corr: *const Cf32,
            lo: *const f64,
            hi: *const f64,
            energy: f64,
            floor: f64,
            out: *mut f32,
        ) {
            let win = _mm256_sub_pd(_mm256_loadu_pd(hi), _mm256_loadu_pd(lo));
            let denom = _mm256_cvtpd_ps(_mm256_sqrt_pd(_mm256_mul_pd(win, _mm256_set1_pd(energy))));
            let z = Self::load(corr);
            let sq = _mm256_mul_ps(z, z);
            // [s0 s1 s0 s1 | s2 s3 s2 s3] -> [s0 s1 s2 s3].
            let h = _mm256_hadd_ps(sq, sq);
            let mag2 = _mm_movelh_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps::<1>(h));
            let q = _mm_min_ps(_mm_div_ps(_mm_sqrt_ps(mag2), denom), _mm_set1_ps(1.0));
            // Four 64-bit compare masks, narrowed to their low halves.
            let quiet = _mm256_castpd_ps(_mm256_cmp_pd::<_CMP_LE_OQ>(win, _mm256_set1_pd(floor)));
            let quiet = _mm_shuffle_ps::<0b1000_1000>(
                _mm256_castps256_ps128(quiet),
                _mm256_extractf128_ps::<1>(quiet),
            );
            _mm_storeu_ps(out, _mm_andnot_ps(quiet, q));
        }
        #[inline(always)]
        unsafe fn store_u8(self, p: *mut u8) {
            let w = _mm256_cvttps_epi32(self);
            let h = _mm_packus_epi32(_mm256_castsi256_si128(w), _mm256_extracti128_si256::<1>(w));
            _mm_storel_epi64(p.cast(), _mm_packus_epi16(h, h));
        }
        #[inline(always)]
        unsafe fn store_u16(self, p: *mut u16) {
            let w = _mm256_cvttps_epi32(self);
            let h = _mm_packus_epi32(_mm256_castsi256_si128(w), _mm256_extracti128_si256::<1>(w));
            _mm_storeu_si128(p.cast(), h);
        }
        #[inline(always)]
        unsafe fn load_u8(p: *const u8) -> Self {
            _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(p.cast())))
        }
        #[inline(always)]
        unsafe fn load_u16(p: *const u16) -> Self {
            _mm256_cvtepi32_ps(_mm256_cvtepu16_epi32(_mm_loadu_si128(p.cast())))
        }
    }

    // AVX-512F has neither `addsub` nor float `and`/`or`: a masked
    // subtract over the full-width add stands in for the first (each
    // lane still computes one add or one subtract of the same two
    // rounded products), the integer forms for the others.
    impl Simd for __m512 {
        const LANES: usize = 8;
        type Small = [__m512; 3];

        one_intrinsic!(_mm512_loadu_ps, _mm512_storeu_ps, _mm512_set1_ps;
            add: _mm512_add_ps, sub: _mm512_sub_ps, mul: _mm512_mul_ps, div: _mm512_div_ps,
            min: _mm512_min_ps, max: _mm512_max_ps);

        #[inline(always)]
        unsafe fn rails(re: f32, im: f32) -> Self {
            _mm512_mask_blend_ps(0xAAAA, _mm512_set1_ps(re), _mm512_set1_ps(im))
        }
        #[inline(always)]
        unsafe fn and(self, o: Self) -> Self {
            _mm512_castsi512_ps(_mm512_and_si512(
                _mm512_castps_si512(self),
                _mm512_castps_si512(o),
            ))
        }
        #[inline(always)]
        unsafe fn or(self, o: Self) -> Self {
            _mm512_castsi512_ps(_mm512_or_si512(
                _mm512_castps_si512(self),
                _mm512_castps_si512(o),
            ))
        }
        #[inline(always)]
        unsafe fn trunc(self) -> Self {
            _mm512_roundscale_ps::<TRUNC>(self)
        }
        #[inline(always)]
        unsafe fn swap(self) -> Self {
            _mm512_permute_ps::<SWAP>(self)
        }
        #[inline(always)]
        unsafe fn blend_im(self, o: Self) -> Self {
            _mm512_mask_blend_ps(0xAAAA, self, o)
        }
        #[inline(always)]
        unsafe fn cmul(self, w: Self) -> Self {
            let t1 = _mm512_mul_ps(self, _mm512_moveldup_ps(w));
            let t2 = _mm512_mul_ps(self.swap(), _mm512_movehdup_ps(w));
            _mm512_mask_sub_ps(_mm512_add_ps(t1, t2), 0x5555, t1, t2)
        }
        #[inline(always)]
        unsafe fn small_twiddles(tw: &[Cf32]) -> Self::Small {
            let w2 = _mm_loadu_ps(tw[1..3].as_ptr().cast());
            let w4 = _mm256_loadu_pd(tw[3..7].as_ptr().cast());
            [
                Self::rails(tw[0].re, tw[0].im),
                _mm512_broadcast_f32x4(w2),
                _mm512_castpd_ps(_mm512_broadcast_f64x4(w4)),
            ]
        }
        #[inline(always)]
        unsafe fn small_stages(self, [w1, w2, w4]: Self::Small) -> Self {
            // half = 1: (x0, x1), (x2, x3), ...
            let d = _mm512_castps_pd(self);
            let a = _mm512_castpd_ps(_mm512_movedup_pd(d));
            let t = _mm512_castpd_ps(_mm512_permute_pd::<0xFF>(d)).cmul(w1);
            let v = _mm512_mask_sub_ps(a.add(t), 0xCCCC, a, t);
            // half = 2: (x0, x2), (x1, x3), (x4, x6), (x5, x7).
            let a = _mm512_shuffle_f32x4::<0b1010_0000>(v, v);
            let t = _mm512_shuffle_f32x4::<0b1111_0101>(v, v).cmul(w2);
            let v = _mm512_mask_sub_ps(a.add(t), 0xF0F0, a, t);
            // half = 4: (x0, x4) .. (x3, x7).
            let a = _mm512_shuffle_f32x4::<0b0100_0100>(v, v);
            let t = _mm512_shuffle_f32x4::<0b1110_1110>(v, v).cmul(w4);
            _mm512_mask_sub_ps(a.add(t), 0xFF00, a, t)
        }
        #[inline(always)]
        unsafe fn normalize(
            corr: *const Cf32,
            lo: *const f64,
            hi: *const f64,
            energy: f64,
            floor: f64,
            out: *mut f32,
        ) {
            let win = _mm512_sub_pd(_mm512_loadu_pd(hi), _mm512_loadu_pd(lo));
            let denom = _mm512_cvtpd_ps(_mm512_sqrt_pd(_mm512_mul_pd(win, _mm512_set1_pd(energy))));
            let z = Self::load(corr);
            let sq = _mm512_mul_ps(z, z);
            // re^2 + im^2 lands in both lanes of a pair; gather the
            // even ones into the low half.
            let sums = _mm512_add_ps(sq, sq.swap());
            let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 0, 0, 0, 0, 0, 0, 0, 0);
            let mag2 = _mm512_castps512_ps256(_mm512_permutexvar_ps(even, sums));
            let q = _mm256_min_ps(
                _mm256_div_ps(_mm256_sqrt_ps(mag2), denom),
                _mm256_set1_ps(1.0),
            );
            let quiet = _mm512_cmp_pd_mask::<_CMP_LE_OQ>(win, _mm512_set1_pd(floor));
            let q =
                _mm512_mask_mov_ps(_mm512_castps256_ps512(q), quiet as u16, _mm512_setzero_ps());
            _mm256_storeu_ps(out, _mm512_castps512_ps256(q));
        }
        #[inline(always)]
        unsafe fn store_u8(self, p: *mut u8) {
            _mm_storeu_si128(p.cast(), _mm512_cvtepi32_epi8(_mm512_cvttps_epi32(self)));
        }
        #[inline(always)]
        unsafe fn store_u16(self, p: *mut u16) {
            _mm256_storeu_si256(p.cast(), _mm512_cvtepi32_epi16(_mm512_cvttps_epi32(self)));
        }
        #[inline(always)]
        unsafe fn load_u8(p: *const u8) -> Self {
            _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(_mm_loadu_si128(p.cast())))
        }
        #[inline(always)]
        unsafe fn load_u16(p: *const u16) -> Self {
            _mm512_cvtepi32_ps(_mm512_cvtepu16_epi32(_mm256_loadu_si256(p.cast())))
        }
    }

    /// The operations only the capped and reduction rows use, for the
    /// two vector types those rows run (no backend runs them 512 bits
    /// wide).
    ///
    /// # Safety
    /// As for [`Simd`]; `add_squares_f64` reads `LANES` floats at `p`,
    /// `store_f64` writes `LANES` f64s and `norm_sqr2` `2 * LANES` floats.
    trait Narrow: Simd {
        /// A vector of `LANES` f64s.
        type F64: Copy;

        /// `acc + self * o` per lane: one rounding if `FUSED`, two
        /// otherwise.
        unsafe fn mul_add<const FUSED: bool>(self, o: Self, acc: Self) -> Self;
        unsafe fn zero_f64() -> Self::F64;
        /// `acc + d * d` per lane, `d` the `LANES` floats at `p` widened
        /// to f64: one rounding if `FUSED`, two otherwise.
        unsafe fn add_squares_f64<const FUSED: bool>(acc: Self::F64, p: *const f32) -> Self::F64;
        unsafe fn store_f64(v: Self::F64, p: *mut f64);
        /// Writes `|z|^2` of the samples of `self`, then of `o`, at
        /// `out`: each one add of two rounded squares.
        unsafe fn norm_sqr2(self, o: Self, out: *mut f32);
        /// The `LANES` samples `stride` apart from `p` on.
        unsafe fn load_strided(p: *const Cf32, stride: usize) -> Self;
    }

    impl Narrow for __m128 {
        type F64 = __m128d;

        #[inline(always)]
        unsafe fn mul_add<const FUSED: bool>(self, o: Self, acc: Self) -> Self {
            if FUSED {
                _mm_fmadd_ps(self, o, acc)
            } else {
                _mm_add_ps(acc, _mm_mul_ps(self, o))
            }
        }
        #[inline(always)]
        unsafe fn zero_f64() -> Self::F64 {
            _mm_setzero_pd()
        }
        #[inline(always)]
        unsafe fn add_squares_f64<const FUSED: bool>(acc: Self::F64, p: *const f32) -> Self::F64 {
            let d = _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(p.cast())));
            if FUSED {
                _mm_fmadd_pd(d, d, acc)
            } else {
                _mm_add_pd(acc, _mm_mul_pd(d, d))
            }
        }
        #[inline(always)]
        unsafe fn store_f64(v: Self::F64, p: *mut f64) {
            _mm_storeu_pd(p, v)
        }
        #[inline(always)]
        unsafe fn norm_sqr2(self, o: Self, out: *mut f32) {
            _mm_storeu_ps(out, _mm_hadd_ps(_mm_mul_ps(self, self), _mm_mul_ps(o, o)))
        }
        #[inline(always)]
        unsafe fn load_strided(p: *const Cf32, stride: usize) -> Self {
            // One sample is one f64's worth of bits.
            let lo = _mm_load_sd(p.cast());
            _mm_castpd_ps(_mm_loadh_pd(lo, p.add(stride).cast()))
        }
    }

    impl Narrow for __m256 {
        type F64 = __m256d;

        #[inline(always)]
        unsafe fn mul_add<const FUSED: bool>(self, o: Self, acc: Self) -> Self {
            if FUSED {
                _mm256_fmadd_ps(self, o, acc)
            } else {
                _mm256_add_ps(acc, _mm256_mul_ps(self, o))
            }
        }
        #[inline(always)]
        unsafe fn zero_f64() -> Self::F64 {
            _mm256_setzero_pd()
        }
        #[inline(always)]
        unsafe fn add_squares_f64<const FUSED: bool>(acc: Self::F64, p: *const f32) -> Self::F64 {
            let d = _mm256_cvtps_pd(_mm_loadu_ps(p));
            if FUSED {
                _mm256_fmadd_pd(d, d, acc)
            } else {
                _mm256_add_pd(acc, _mm256_mul_pd(d, d))
            }
        }
        #[inline(always)]
        unsafe fn store_f64(v: Self::F64, p: *mut f64) {
            _mm256_storeu_pd(p, v)
        }
        #[inline(always)]
        unsafe fn norm_sqr2(self, o: Self, out: *mut f32) {
            // `hadd` pairs the squares as [s0 s1 s4 s5 | s2 s3 s6 s7];
            // the permute restores sample order.
            let h = _mm256_hadd_ps(_mm256_mul_ps(self, self), _mm256_mul_ps(o, o));
            let ordered = _mm256_permute4x64_pd::<0b1101_1000>(_mm256_castps_pd(h));
            _mm256_storeu_ps(out, _mm256_castpd_ps(ordered))
        }
        #[inline(always)]
        unsafe fn load_strided(p: *const Cf32, stride: usize) -> Self {
            let lo = __m128::load_strided(p, stride);
            let hi = __m128::load_strided(p.add(2 * stride), stride);
            _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi)
        }
    }

    // -- FFT stages --------------------------------------------------------
    //
    // One butterfly is `(a, b) <- (a + b*w, a - b*w)`: the interleaved
    // complex multiply of mul_in_place (two rounded products, one
    // addsub), then one add and one sub — the scalar rounding sequence
    // per lane. A fused pass loads the 4 or 8 samples two or three
    // consecutive stages connect (`k + j*h`), runs those stages'
    // butterflies on them in stage order, each with its own twiddle
    // from its own stage's run of the table, and stores them once.

    #[inline(always)]
    unsafe fn butterfly<S: Simd>(a: &mut S, b: &mut S, w: S) {
        let t = b.cmul(w);
        (*a, *b) = (a.add(t), a.sub(t));
    }

    #[inline(always)]
    unsafe fn scaled<S: Simd>(v: S, scale: Option<S>) -> S {
        match scale {
            Some(k) => v.mul(k),
            None => v,
        }
    }

    /// The stage with `tw.len()` butterflies per block — the body of
    /// `Backend::butterflies`. A block's last `half % LANES` butterflies
    /// (none for the power-of-two halves an FFT asks for) run the scalar
    /// body.
    #[inline(always)]
    unsafe fn pass1<S: Simd>(buf: &mut [Cf32], tw: &[Cf32]) {
        let h = tw.len();
        assert!(buf.len().is_multiple_of(2 * h));
        let vec_h = h - h % S::LANES;
        for block in buf.chunks_exact_mut(2 * h) {
            let (lo, hi) = block.split_at_mut(h);
            let (p0, p1) = (lo.as_mut_ptr(), hi.as_mut_ptr());
            for k in (0..vec_h).step_by(S::LANES) {
                // SAFETY (pointers): k + LANES <= vec_h <= h, the length
                // of `lo`, `hi` and `tw`.
                let (mut a, mut b) = (S::load(p0.add(k)), S::load(p1.add(k)));
                butterfly(&mut a, &mut b, S::load(tw.as_ptr().add(k)));
                a.store(p0.add(k));
                b.store(p1.add(k));
            }
            scalar::butterfly_run(&mut lo[vec_h..], &mut hi[vec_h..], &tw[vec_h..]);
        }
    }

    /// `Backend::butterflies`: a stage with fewer butterflies per block
    /// than `S` holds runs on `__m256` if it fills those (an avx512f
    /// entry point has avx2), else on the scalar body.
    #[inline(always)]
    unsafe fn butterflies<S: Simd>(buf: &mut [Cf32], tw: &[Cf32]) {
        if tw.len() >= S::LANES {
            pass1::<S>(buf, tw)
        } else if S::LANES > 4 && tw.len() >= 4 {
            pass1::<__m256>(buf, tw)
        } else {
            scalar::butterflies(buf, tw)
        }
    }

    /// Stages `h` and `2h` in one pass; `tw` is the whole table.
    #[inline(always)]
    unsafe fn pass2<S: Simd>(buf: &mut [Cf32], h: usize, tw: &[Cf32], scale: Option<S>) {
        assert!(h.is_multiple_of(S::LANES) && buf.len().is_multiple_of(4 * h));
        let (t1, t2) = (
            tw[h - 1..2 * h - 1].as_ptr(),
            tw[2 * h - 1..4 * h - 1].as_ptr(),
        );
        for block in buf.chunks_exact_mut(4 * h) {
            let p = block.as_mut_ptr();
            for k in (0..h).step_by(S::LANES) {
                // SAFETY (pointers): k + LANES <= h, so sample reads stay
                // inside the 4h-sample block and twiddle reads inside
                // the h- and 2h-entry runs sliced above.
                let at = |j: usize| p.add(k + j * h);
                let (mut x0, mut x1) = (S::load(at(0)), S::load(at(1)));
                let (mut x2, mut x3) = (S::load(at(2)), S::load(at(3)));
                let w = S::load(t1.add(k));
                butterfly(&mut x0, &mut x1, w);
                butterfly(&mut x2, &mut x3, w);
                butterfly(&mut x0, &mut x2, S::load(t2.add(k)));
                butterfly(&mut x1, &mut x3, S::load(t2.add(k + h)));
                scaled(x0, scale).store(at(0));
                scaled(x1, scale).store(at(1));
                scaled(x2, scale).store(at(2));
                scaled(x3, scale).store(at(3));
            }
        }
    }

    /// Stages `h`, `2h` and `4h` in one pass; `tw` is the whole table.
    #[inline(always)]
    unsafe fn pass3<S: Simd>(buf: &mut [Cf32], h: usize, tw: &[Cf32], scale: Option<S>) {
        assert!(h.is_multiple_of(S::LANES) && buf.len().is_multiple_of(8 * h));
        let t1 = tw[h - 1..2 * h - 1].as_ptr();
        let t2 = tw[2 * h - 1..4 * h - 1].as_ptr();
        let t4 = tw[4 * h - 1..8 * h - 1].as_ptr();
        for block in buf.chunks_exact_mut(8 * h) {
            let p = block.as_mut_ptr();
            for k in (0..h).step_by(S::LANES) {
                // SAFETY (pointers): k + LANES <= h, so sample reads stay
                // inside the 8h-sample block and twiddle reads inside
                // the h-, 2h- and 4h-entry runs sliced above.
                let at = |j: usize| p.add(k + j * h);
                let (mut x0, mut x1) = (S::load(at(0)), S::load(at(1)));
                let (mut x2, mut x3) = (S::load(at(2)), S::load(at(3)));
                let (mut x4, mut x5) = (S::load(at(4)), S::load(at(5)));
                let (mut x6, mut x7) = (S::load(at(6)), S::load(at(7)));
                let w = S::load(t1.add(k));
                butterfly(&mut x0, &mut x1, w);
                butterfly(&mut x2, &mut x3, w);
                butterfly(&mut x4, &mut x5, w);
                butterfly(&mut x6, &mut x7, w);
                let (wa, wb) = (S::load(t2.add(k)), S::load(t2.add(k + h)));
                butterfly(&mut x0, &mut x2, wa);
                butterfly(&mut x1, &mut x3, wb);
                butterfly(&mut x4, &mut x6, wa);
                butterfly(&mut x5, &mut x7, wb);
                butterfly(&mut x0, &mut x4, S::load(t4.add(k)));
                butterfly(&mut x1, &mut x5, S::load(t4.add(k + h)));
                butterfly(&mut x2, &mut x6, S::load(t4.add(k + 2 * h)));
                butterfly(&mut x3, &mut x7, S::load(t4.add(k + 3 * h)));
                scaled(x0, scale).store(at(0));
                scaled(x1, scale).store(at(1));
                scaled(x2, scale).store(at(2));
                scaled(x3, scale).store(at(3));
                scaled(x4, scale).store(at(4));
                scaled(x5, scale).store(at(5));
                scaled(x6, scale).store(at(6));
                scaled(x7, scale).store(at(7));
            }
        }
    }

    /// `Backend::fft_stages`: the in-register stages, the one or two
    /// stages that do not fill a triple, then triples; `scale` rides
    /// on whichever pass comes last. The dispatcher has checked that
    /// `buf.len()` is a power of two and `tw.len() == buf.len() - 1`.
    #[inline(always)]
    unsafe fn fft_stages<S: Simd>(buf: &mut [Cf32], tw: &[Cf32], scale: Option<f32>) {
        let n = buf.len();
        if n < S::LANES {
            return scalar::fft_stages(buf, tw, scale);
        }
        // (No closure here: one would not inherit the entry point's
        // target features.)
        let mut scale = scale.is_some().then_some(S::splat(scale.unwrap_or(1.0)));
        let mut last = |span: usize| if span == n { scale.take() } else { None };
        let mut h = S::LANES;
        let (small, k) = (S::small_twiddles(tw), last(h));
        for block in buf.chunks_exact_mut(S::LANES) {
            let p = block.as_mut_ptr();
            scaled(S::load(p).small_stages(small), k).store(p);
        }
        match (n / h).trailing_zeros() % 3 {
            1 => {
                pass1::<S>(buf, &tw[h - 1..2 * h - 1]);
                h *= 2;
            }
            2 => {
                pass2::<S>(buf, h, tw, last(4 * h));
                h *= 4;
            }
            _ => {}
        }
        while h < n {
            pass3::<S>(buf, h, tw, last(8 * h));
            h *= 8;
        }
        // Only a transform that ends on the lone single stage
        // (n = 2 * LANES) still has its scale to apply.
        if let Some(k) = scale {
            for block in buf.chunks_exact_mut(S::LANES) {
                let p = block.as_mut_ptr();
                S::load(p).mul(k).store(p);
            }
        }
    }

    /// `Backend::normalize_lags` over slices of one length.
    #[inline(always)]
    unsafe fn normalize_lags<S: Simd>(
        corr: &[Cf32],
        lo: &[f64],
        hi: &[f64],
        energy: f64,
        floor: f64,
        out: &mut [f32],
    ) {
        let n = out.len();
        assert!(corr.len() == n && lo.len() == n && hi.len() == n);
        let done = n - n % S::LANES;
        for k in (0..done).step_by(S::LANES) {
            // SAFETY (pointers): k + LANES <= n, every slice's length.
            S::normalize(
                corr.as_ptr().add(k),
                lo.as_ptr().add(k),
                hi.as_ptr().add(k),
                energy,
                floor,
                out.as_mut_ptr().add(k),
            );
        }
        scalar::normalize_lags(
            &corr[done..],
            &lo[done..],
            &hi[done..],
            energy,
            floor,
            &mut out[done..],
        );
    }

    /// `Backend::digitize` over slices of one length. `round` is
    /// `trunc(x + copysign(0.5 - 2^-25, x))`: for `|x| <= 2^15` the sum
    /// rounds up to the next integer exactly when the fraction of `|x|`
    /// is at least one half, and never past it.
    #[inline(always)]
    unsafe fn digitize<S: Simd>(adc: &Adc, analog: &[Cf32], out: &mut [Cf32]) {
        let n = out.len();
        assert!(analog.len() == n);
        let (gain, skew, iq_gain) = (
            S::splat(adc.gain),
            S::splat(adc.iq_skew),
            S::splat(adc.iq_gain),
        );
        let (dc, levels) = (S::splat(adc.dc), S::splat(adc.levels));
        let (one, neg_one) = (S::splat(1.0), S::splat(-1.0));
        let (sign, nearly_half) = (S::splat(-0.0), S::splat(0.5 - f32::EPSILON / 4.0));
        let done = n - n % S::LANES;
        for k in (0..done).step_by(S::LANES) {
            // SAFETY (pointers): k + LANES <= n, both slices' length.
            let s = S::load(analog.as_ptr().add(k)).mul(gain);
            let q_rail = iq_gain.mul(s.add(skew.mul(s.swap())));
            let v = s.blend_im(q_rail).add(dc);
            // Operand order keeps a NaN sample NaN, as `clamp` does.
            let x = neg_one.max(one.min(v)).mul(levels);
            let rounded = x.add(x.and(sign).or(nearly_half)).trunc();
            rounded.div(levels).store(out.as_mut_ptr().add(k));
        }
        scalar::digitize(adc, &analog[done..], &mut out[done..]);
    }

    // -- Backhaul codec ------------------------------------------------------
    //
    // A `Cf32` run is a run of rails, I then Q, which is also the order
    // codes are packed in: every step below treats a vector as
    // `2 * LANES` independent rails.

    /// Samples quantized or dequantized between two visits of the bit
    /// packer, their codes staged on the stack (any multiple of every
    /// `LANES`).
    const STAGE: usize = 128;

    /// `scalar::block_peak`: a maximum over the non-NaN rail magnitudes
    /// and zero, in whatever order.
    #[inline(always)]
    unsafe fn block_peak<S: Simd>(block: &[Cf32]) -> f32 {
        let magnitude = S::splat(f32::from_bits(0x7FFF_FFFF));
        let mut peaks = S::splat(0.0);
        let done = block.len() - block.len() % S::LANES;
        for k in (0..done).step_by(S::LANES) {
            // SAFETY (pointer): k + LANES <= block.len(). A NaN lane
            // keeps `peaks`, which is never NaN.
            peaks = S::load(block.as_ptr().add(k)).and(magnitude).max(peaks);
        }
        let mut lanes = [Cf32::ZERO; 8];
        debug_assert!(S::LANES <= lanes.len());
        peaks.store(lanes.as_mut_ptr());
        let head = lanes[..S::LANES]
            .iter()
            .map(|z| z.re.max(z.im))
            .fold(0.0f32, f32::max);
        head.max(scalar::block_peak(&block[done..]))
    }

    /// The constants of `scalar::quantize` at one bit depth.
    #[derive(Clone, Copy)]
    struct Quantizer<S> {
        one: S,
        neg_one: S,
        span: S,
        levels: S,
        half: S,
        nearly_half: S,
    }

    impl<S: Simd> Quantizer<S> {
        #[inline(always)]
        unsafe fn new(levels: f32) -> Self {
            Quantizer {
                one: S::splat(1.0),
                neg_one: S::splat(-1.0),
                span: S::splat(levels - 0.5),
                levels: S::splat(levels),
                half: S::splat(0.5),
                nearly_half: S::splat(0.5 - f32::EPSILON / 4.0),
            }
        }

        /// The floats whose truncations are the codes of rails `v`
        /// under scale `peak`. `round(x)` is `trunc(x + (0.5 - 2^-25))`
        /// for `0 <= x < 2^16`, as in `digitize`; `min` then `max` in
        /// this operand order turn a NaN rail into -1, whose code is
        /// the 0 that `NaN as u16` is.
        #[inline(always)]
        unsafe fn codes(self, v: S, peak: S) -> S {
            let norm = self.one.min(v.div(peak)).max(self.neg_one);
            let x = norm.mul(self.span).add(self.levels).sub(self.half);
            x.add(self.nearly_half)
        }
    }

    /// `Backend::compress` over checked shapes.
    #[inline(always)]
    unsafe fn compress<S: Simd>(
        samples: &[Cf32],
        bits: u32,
        block_len: usize,
        scales: &mut [f32],
        data: &mut [u8],
    ) {
        let levels = scalar::levels(bits);
        let q = Quantizer::<S>::new(levels);
        let mut w = scalar::BitWriter::new(data);
        let mut staged = [0u16; 2 * STAGE];
        for (block, scale) in samples.chunks(block_len).zip(scales) {
            let peak = block_peak::<S>(block);
            *scale = peak;
            let vpeak = S::splat(peak);
            let done = block.len() - block.len() % S::LANES;
            if bits == 8 {
                let bytes = w.bytes(2 * done);
                for k in (0..done).step_by(S::LANES) {
                    // SAFETY (pointers): k + LANES <= done samples,
                    // two bytes each.
                    let v = S::load(block.as_ptr().add(k));
                    q.codes(v, vpeak).store_u8(bytes.as_mut_ptr().add(2 * k));
                }
            } else {
                for run in block[..done].chunks(STAGE) {
                    for k in (0..run.len()).step_by(S::LANES) {
                        // SAFETY (pointers): k + LANES <= run.len() <=
                        // STAGE samples, two codes each.
                        let v = S::load(run.as_ptr().add(k));
                        q.codes(v, vpeak).store_u16(staged.as_mut_ptr().add(2 * k));
                    }
                    for &code in &staged[..2 * run.len()] {
                        w.push(code, bits);
                    }
                }
            }
            scalar::quantize_run(&block[done..], peak, levels, bits, &mut w);
        }
        w.finish();
    }

    /// `Backend::decompress` over checked shapes.
    #[inline(always)]
    unsafe fn decompress<S: Simd>(
        bits: u32,
        block_len: usize,
        scales: &[f32],
        data: &[u8],
        out: &mut [Cf32],
    ) {
        let levels = scalar::levels(bits);
        let span = S::splat(levels - 0.5);
        let mut r = scalar::BitReader::new(data);
        let mut staged = [0u16; 2 * STAGE];
        for (block, &scale) in out.chunks_mut(block_len).zip(scales) {
            let vscale = S::splat(scale);
            let done = block.len() - block.len() % S::LANES;
            let (whole, tail) = block.split_at_mut(done);
            if bits == 8 {
                let bytes = r.bytes(2 * done);
                for k in (0..done).step_by(S::LANES) {
                    // SAFETY (pointers): k + LANES <= done samples,
                    // two bytes each.
                    let codes = S::load_u8(bytes.as_ptr().add(2 * k));
                    let v = codes.sub(span).div(span).mul(vscale);
                    v.store(whole.as_mut_ptr().add(k));
                }
            } else {
                for run in whole.chunks_mut(STAGE) {
                    for code in &mut staged[..2 * run.len()] {
                        *code = r.next(bits);
                    }
                    for k in (0..run.len()).step_by(S::LANES) {
                        // SAFETY (pointers): k + LANES <= run.len() <=
                        // STAGE samples, two codes each.
                        let codes = S::load_u16(staged.as_ptr().add(2 * k));
                        let v = codes.sub(span).div(span).mul(vscale);
                        v.store(run.as_mut_ptr().add(k));
                    }
                }
            }
            scalar::dequantize_run(tail, scale, levels, bits, &mut r);
        }
    }

    // -- Element-wise kernels -----------------------------------------------
    //
    // `cmul` is `Cf32`'s `Mul` per lane; everything else is one IEEE
    // operation per float lane in the scalar order. The samples that
    // fill no vector run the scalar body.

    /// `Backend::mul_in_place` over slices of one length.
    #[inline(always)]
    unsafe fn mul_in_place<S: Simd>(a: &mut [Cf32], b: &[Cf32]) {
        // Peel scalar samples until `a` sits on a vector boundary:
        // allocations only guarantee 16 B, and misaligned wide accesses
        // split cache lines on every other address. The split point
        // cannot change element-wise results. An odd-float base never
        // gets there; it runs unaligned throughout.
        let head = (a.as_ptr() as usize).wrapping_neg() % (8 * S::LANES) / 4;
        let peel = if head.is_multiple_of(2) {
            (head / 2).min(a.len())
        } else {
            0
        };
        scalar::mul_in_place(&mut a[..peel], &b[..peel]);
        let (n, pa, pb) = (a.len(), a.as_mut_ptr(), b.as_ptr());
        let mut k = peel;
        // Two independent vectors a step: the second hides the shuffle
        // latency of the first.
        while k + 2 * S::LANES <= n {
            // SAFETY (pointers): k + 2 * LANES <= n, both slices' length.
            let (a0, a1) = (S::load(pa.add(k)), S::load(pa.add(k + S::LANES)));
            let (b0, b1) = (S::load(pb.add(k)), S::load(pb.add(k + S::LANES)));
            a0.cmul(b0).store(pa.add(k));
            a1.cmul(b1).store(pa.add(k + S::LANES));
            k += 2 * S::LANES;
        }
        if k + S::LANES <= n {
            // SAFETY (pointers): k + LANES <= n.
            S::load(pa.add(k)).cmul(S::load(pb.add(k))).store(pa.add(k));
            k += S::LANES;
        }
        scalar::mul_in_place(&mut a[k..], &b[k..]);
    }

    /// `Backend::sub_scaled` over slices of one length. `y * g` is
    /// `cmul` by `rails(g.re, g.im)`, whose even and odd lanes are the
    /// `g.re` and `g.im` the scalar `Mul` multiplies by.
    #[inline(always)]
    unsafe fn sub_scaled<S: Simd>(x: &mut [Cf32], y: &[Cf32], g: Cf32) {
        let gv = S::rails(g.re, g.im);
        let done = x.len() - x.len() % S::LANES;
        let (px, py) = (x.as_mut_ptr(), y.as_ptr());
        for k in (0..done).step_by(S::LANES) {
            // SAFETY (pointers): k + LANES <= done <= both lengths.
            let p = S::load(py.add(k)).cmul(gv);
            S::load(px.add(k)).sub(p).store(px.add(k));
        }
        scalar::sub_scaled(&mut x[done..], &y[done..], g);
    }

    /// The `2 * LANES` floats of `v`, in lane order, at the front.
    #[inline(always)]
    unsafe fn to_floats<S: Narrow>(v: S) -> [f32; 8] {
        let mut t = [0f32; 8];
        v.store(t.as_mut_ptr().cast());
        t
    }

    /// `Backend::max_norm_sqr`. `re^2 + im^2` lands in both lanes of a
    /// pair (one add of the two rounded squares), which `max` ignores.
    #[inline(always)]
    unsafe fn max_norm_sqr<S: Narrow>(x: &[Cf32]) -> f32 {
        let mut peak = S::splat(0.0);
        let done = x.len() - x.len() % S::LANES;
        for k in (0..done).step_by(S::LANES) {
            // SAFETY (pointer): k + LANES <= done <= x.len().
            let v = S::load(x.as_ptr().add(k));
            let sq = v.mul(v);
            peak = sq.add(sq.swap()).max(peak);
        }
        let lanes = to_floats(peak);
        let mut best = lanes[..2 * S::LANES].iter().fold(0.0f32, |a, &b| a.max(b));
        for z in &x[done..] {
            best = best.max(z.norm_sqr());
        }
        best
    }

    /// `Backend::norm_sqr_into` over slices of one length.
    #[inline(always)]
    unsafe fn norm_sqr_into<S: Narrow>(x: &[Cf32], out: &mut [f32]) {
        let step = 2 * S::LANES;
        let done = x.len() - x.len() % step;
        for k in (0..done).step_by(step) {
            // SAFETY (pointers): k + 2 * LANES <= done <= both lengths.
            let p = x.as_ptr().add(k);
            S::load(p).norm_sqr2(S::load(p.add(S::LANES)), out.as_mut_ptr().add(k));
        }
        scalar::norm_sqr_into(&x[done..], &mut out[done..]);
    }

    /// `Backend::fir_same` (`T = Cf32`, `os = 1`), `Backend::fir_same_real`
    /// (`T = f32`, `os = 1`) and `Backend::fir_decimate` (`T = Cf32`)
    /// with at least one tap: one real FIR over the float stream, at a
    /// stride of `T::RAILS`, its outputs `j * os`. Vectorized across
    /// consecutive kept outputs, two vectors a step so that one's adds
    /// overlap the other's loads (each tap's samples read `os` apart): a
    /// block accumulates `input[j * os + delay - k] * taps[k]` for
    /// ascending `k` with an unfused multiply and add, lane for lane the
    /// scalar sequence. Only blocks whose every (lane, tap) index is in
    /// bounds take the vector path; the edges run the scalar one.
    #[inline(always)]
    unsafe fn fir<S: Narrow, T: scalar::Rails>(
        taps: &[f32],
        input: &[T],
        os: usize,
        out: &mut [T],
    ) {
        // The strided load reads two floats a sample: a complex sample.
        assert!(os == 1 || T::RAILS == 2, "a real FIR decimated");
        match os {
            1 => fir_loads::<S, T>(taps, input, 1, out, |p| S::load(p)),
            _ => fir_loads::<S, T>(taps, input, os, out, |p| S::load_strided(p, os)),
        }
    }

    /// `fir` with `load` reading a vector of kept outputs' samples at a
    /// pointer.
    #[inline(always)]
    unsafe fn fir_loads<S: Narrow, T: scalar::Rails>(
        taps: &[f32],
        input: &[T],
        os: usize,
        out: &mut [T],
        load: impl Fn(*const Cf32) -> S,
    ) {
        let (rails, delay) = (T::RAILS, (taps.len() - 1) / 2);
        // Outputs a vector holds, and the first whose taps all read in
        // bounds.
        let (per, first) = (2 * S::LANES / rails, (taps.len() - 1 - delay).div_ceil(os));
        let (src, dst) = (input.as_ptr().cast::<f32>(), out.as_mut_ptr().cast::<f32>());
        let mut j = first;
        while (j + 2 * per - 1) * os + delay < input.len() {
            let (mut lo, mut hi) = (S::splat(0.0), S::splat(0.0));
            for (k, &t) in taps.iter().enumerate() {
                // SAFETY (pointers): samples j * os + delay - k (>= 0 as
                // j >= first) to (j + 2 * per - 1) * os + delay - k < n.
                let p = src.add(rails * (j * os + delay - k));
                lo = lo.add(load(p.cast()).mul(S::splat(t)));
                hi = hi.add(load(p.add(rails * per * os).cast()).mul(S::splat(t)));
            }
            lo.store(dst.add(rails * j).cast());
            hi.store(dst.add(rails * (j + per)).cast());
            j += 2 * per;
        }
        scalar::fir_range(taps, input, os, out, 0..first.min(out.len()));
        scalar::fir_range(taps, input, os, out, j.max(first)..out.len());
    }

    // -- Reductions ---------------------------------------------------------
    //
    // Each keeps the lane split of its row: `2 * LANES` float
    // accumulators (`LANES` f64 ones for `energy_f64`), one `mul_add`
    // each per vector (fused only in the `Fma` instantiation), the lanes
    // summed in order, then the samples that fill no vector in sample
    // order. `tests/kernel_diff.rs` keeps the same split in plain Rust.

    /// `Backend::dot_conj` over slices of one length. With `a = [xr, xi,
    /// ..]` and `b = [hr, hi, ..]`, `re` gathers `a * b = [xr*hr, xi*hi,
    /// ..]` and `im` gathers `a * swap(b) = [xr*hi, xi*hr, ..]`: the odd
    /// lanes' sum minus the even lanes'.
    #[inline(always)]
    unsafe fn dot_conj<S: Narrow, const FUSED: bool>(x: &[Cf32], h: &[Cf32]) -> Cf32 {
        let (mut re, mut im) = (S::splat(0.0), S::splat(0.0));
        let done = x.len() - x.len() % S::LANES;
        for k in (0..done).step_by(S::LANES) {
            // SAFETY (pointers): k + LANES <= done <= both lengths.
            let (a, b) = (S::load(x.as_ptr().add(k)), S::load(h.as_ptr().add(k)));
            re = a.mul_add::<FUSED>(b, re);
            im = a.mul_add::<FUSED>(b.swap(), im);
        }
        let (re, im) = (to_floats(re), to_floats(im));
        let (odd, even) = (
            every_other(&im[1..2 * S::LANES]),
            every_other(&im[..2 * S::LANES]),
        );
        let tail = scalar::dot_conj(&x[done..], &h[done..]);
        Cf32 {
            re: re[..2 * S::LANES].iter().sum::<f32>() + tail.re,
            im: (odd - even) + tail.im,
        }
    }

    /// `v[0] + v[2] + v[4] + ..`, left to right.
    fn every_other(v: &[f32]) -> f32 {
        v[2..].iter().step_by(2).fold(v[0], |s, &x| s + x)
    }

    /// `Backend::energy_f32`; the tail adds `re^2` then `im^2`.
    #[inline(always)]
    unsafe fn energy_f32<S: Narrow, const FUSED: bool>(x: &[Cf32]) -> f32 {
        let mut acc = S::splat(0.0);
        let done = x.len() - x.len() % S::LANES;
        for k in (0..done).step_by(S::LANES) {
            // SAFETY (pointer): k + LANES <= done <= x.len().
            let v = S::load(x.as_ptr().add(k));
            acc = v.mul_add::<FUSED>(v, acc);
        }
        let mut total = to_floats(acc)[..2 * S::LANES].iter().sum::<f32>();
        for z in &x[done..] {
            total += z.re * z.re;
            total += z.im * z.im;
        }
        total
    }

    /// `Backend::energy_f64`: `LANES` floats, half as many samples, a
    /// step.
    #[inline(always)]
    unsafe fn energy_f64<S: Narrow, const FUSED: bool>(x: &[Cf32]) -> f64 {
        let per_step = S::LANES / 2;
        let mut acc = S::zero_f64();
        let done = x.len() - x.len() % per_step;
        for k in (0..done).step_by(per_step) {
            // SAFETY (pointer): k + LANES / 2 <= done <= x.len().
            acc = S::add_squares_f64::<FUSED>(acc, x.as_ptr().add(k).cast());
        }
        let mut lanes = [0f64; 4];
        S::store_f64(acc, lanes.as_mut_ptr());
        let mut total = lanes[..S::LANES].iter().sum::<f64>();
        for z in &x[done..] {
            for v in [z.re as f64, z.im as f64] {
                total += v * v;
            }
        }
        total
    }

    // -- Entry points --------------------------------------------------------
    //
    // One `#[target_feature]` function per generic body and ISA: the
    // only way into the bodies above, which are `#[inline(always)]` and
    // so compile for the features of the entry point they are inlined
    // into. A module per ISA holds the rows `dispatch!` sends to it.

    macro_rules! entries {
        ($feat:literal; $($name:ident $(<$t:ident: $bound:path>)? ::<$($g:tt),*>
            ($($a:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {$(
            /// # Safety
            #[doc = concat!("The CPU must support `", $feat, "`, and the arguments must \
                have the shapes the calling `Backend` method asserts.")]
            #[target_feature(enable = $feat)]
            pub unsafe fn $name $(<$t: $bound>)? ($($a: $ty),*) $(-> $ret)? {
                super::$name::<$($g),*>($($a),*)
            }
        )*};
    }

    /// The rows of the dispatch table (`dispatch!`), each a set of entry
    /// points at one ISA's features and vector type.
    macro_rules! wide {
        ($feat:literal, $v:ty) => {
            entries! { $feat;
                mul_in_place::<$v>(a: &mut [Cf32], b: &[Cf32]);
                sub_scaled::<$v>(x: &mut [Cf32], y: &[Cf32], g: Cf32);
                butterflies::<$v>(buf: &mut [Cf32], tw: &[Cf32]);
                fft_stages::<$v>(buf: &mut [Cf32], tw: &[Cf32], scale: Option<f32>);
                normalize_lags::<$v>(
                    corr: &[Cf32], lo: &[f64], hi: &[f64], energy: f64, floor: f64, out: &mut [f32]
                );
                digitize::<$v>(adc: &Adc, analog: &[Cf32], out: &mut [Cf32]);
                compress::<$v>(
                    samples: &[Cf32], bits: u32, block_len: usize, scales: &mut [f32], data: &mut [u8]
                );
                decompress::<$v>(
                    bits: u32, block_len: usize, scales: &[f32], data: &[u8], out: &mut [Cf32]
                );
            }
        };
    }

    macro_rules! capped {
        ($feat:literal, $v:ty) => {
            entries! { $feat;
                max_norm_sqr::<$v>(x: &[Cf32]) -> f32;
                norm_sqr_into::<$v>(x: &[Cf32], out: &mut [f32]);
                fir<T: scalar::Rails>::<$v, T>(taps: &[f32], input: &[T], os: usize, out: &mut [T]);
            }
        };
    }

    macro_rules! reduction {
        ($feat:literal, $v:ty, $fused:literal) => {
            entries! { $feat;
                dot_conj::<$v, $fused>(x: &[Cf32], h: &[Cf32]) -> Cf32;
                energy_f32::<$v, $fused>(x: &[Cf32]) -> f32;
                energy_f64::<$v, $fused>(x: &[Cf32]) -> f64;
            }
        };
    }

    pub mod sse41 {
        use super::*;
        wide!("sse4.1", __m128);
        capped!("sse4.1", __m128);
        reduction!("sse4.1", __m128, false);
    }

    pub mod avx2 {
        use super::*;
        wide!("avx2", __m256);
        capped!("avx2", __m256);
        reduction!("avx2", __m256, false);
    }

    pub mod fma {
        use super::*;
        reduction!("avx2,fma", __m256, true);
    }

    pub mod avx512 {
        use super::*;
        wide!("avx512f", __m512);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize) -> Vec<Cf32> {
        (0..n)
            .map(|i| Cf32::new((i as f32 * 0.37).sin(), (i as f32 * 0.71).cos()))
            .collect()
    }

    #[test]
    fn backend_names_roundtrip() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("sse41"), Some(Backend::Sse41));
        assert_eq!(Backend::from_name("AVX2"), Some(Backend::Avx2));
        assert_eq!(Backend::from_name("auto"), None);
        assert_eq!(Backend::from_name("neon"), None);
    }

    #[test]
    fn detect_is_supported_and_scalar_always_is() {
        assert!(Backend::detect().is_supported());
        assert!(Backend::Scalar.is_supported());
    }

    #[test]
    fn unsupported_backend_clamps_to_scalar_semantics() {
        // Whatever the CPU, every backend value must be callable and
        // agree with scalar on a bit-exact kernel.
        let x = wave(33);
        let b = wave(33);
        for backend in Backend::ALL {
            let mut a = x.clone();
            backend.mul_in_place(&mut a, &b);
            let mut r = x.clone();
            Backend::Scalar.mul_in_place(&mut r, &b);
            assert_eq!(a, r, "{backend:?}");
        }
    }

    /// The dispatcher contract on degenerate lengths: defined results,
    /// no panics, no NaN, for every backend.
    #[test]
    fn degenerate_lengths_are_defined() {
        for backend in Backend::ALL {
            assert_eq!(backend.dot_conj(&[], &[]), Cf32::ZERO);
            assert_eq!(backend.dot_conj(&wave(3), &[]), Cf32::ZERO);
            assert_eq!(backend.energy_f32(&[]), 0.0);
            assert_eq!(backend.energy_f64(&[]), 0.0);
            assert_eq!(backend.max_norm_sqr(&[]), 0.0);
            backend.norm_sqr_into(&[], &mut []);
            backend.mul_in_place(&mut [], &wave(2));
            backend.sub_scaled(&mut [], &[], Cf32::ONE);
            let mut out: Vec<Cf32> = Vec::new();
            backend.fir_same(&[1.0, 2.0, 1.0], &[], &mut out);
            // Single-element inputs.
            let one = wave(1);
            let d = backend.dot_conj(&one, &one);
            assert!((d.re - one[0].norm_sqr()).abs() < 1e-6);
            let mut o1 = vec![Cf32::ZERO; 1];
            backend.fir_same(&[0.5], &one, &mut o1);
            assert_eq!(o1[0], one[0] * 0.5);
            // Empty taps zero the output.
            let mut oz = wave(4);
            backend.fir_same(&[], &wave(4), &mut oz);
            assert!(oz.iter().all(|z| *z == Cf32::ZERO));
            // More taps than input: bounds-checked, finite.
            let mut short = vec![Cf32::ZERO; 3];
            backend.fir_same(&[0.1; 33], &wave(3), &mut short);
            assert!(short.iter().all(|z| !z.is_degenerate()));
        }
    }

    #[test]
    fn dot_conj_of_self_is_energy() {
        let x = wave(257);
        for backend in Backend::ALL {
            let d = backend.dot_conj(&x, &x);
            let e = backend.energy_f32(&x);
            assert!((d.re - e).abs() < 1e-3 * e.abs().max(1.0), "{backend:?}");
            assert!(d.im.abs() < 1e-3 * e.abs().max(1.0), "{backend:?}");
        }
    }

    #[test]
    fn set_backend_overrides_and_restores() {
        let prev = set_backend(Backend::Scalar);
        assert_eq!(active(), Backend::Scalar);
        assert_eq!(backend_name(), "scalar");
        set_backend(prev);
        assert_eq!(active(), prev);
    }
}
