//! Differential verification of the SIMD kernel backends against the
//! scalar reference.
//!
//! Every kernel in `galiot_dsp::kernels` is exercised on every
//! CPU-supported backend across degenerate and unaligned lengths —
//! empty, single-sample, one under/over each vector width (SSE holds 2
//! complex lanes, AVX 4; the real kernels 4 and 8), non-powers of two,
//! and 4096+ blocks — with two contracts:
//!
//! * **Bit-exact** (`to_bits` equality) for the element-wise kernels
//!   and the FIR: these sit on the waveform-synthesis path, where the
//!   golden fingerprints require byte-identical output from every
//!   backend.
//! * **Bit-exact to their backend's lane-split reference** for the
//!   reductions (`dot_conj`, `energy_f32`, `energy_f64`): a vector
//!   backend splits a sum across its lanes, so it differs from the
//!   scalar one, but by exactly the reference kept here — the lane
//!   count, the fused or unfused update, the horizontal sum and the
//!   tail of that backend, in plain Rust. Every backend and the scalar
//!   reference are also held to an f64 ground truth with an error budget
//!   of `n * eps_f32` relative to the sum of absolute terms — the bound
//!   a sequential f32 accumulation itself carries, with margin.
//!
//! Backend values are passed explicitly (`Backend::dot_conj(...)`), so
//! the suite is safe under the parallel test runner. The one exception
//! is [`fft_plans_bit_exact_on_every_backend`], which walks the
//! process-wide dispatcher through every backend to drive whole
//! [`Fft`] plans: no other test here reads the active backend for
//! anything but bit-exact kernels, so none can observe the walk.

use galiot_dsp::fft::Fft;
use galiot_dsp::kernels::{self, Adc, Backend};
use galiot_dsp::Cf32;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The length schedule: degenerate, lane-1 / lane / lane+1 for every
/// vector width in play (2, 4, 8), non-powers of two, and 4096+.
const LENGTHS: [usize; 24] = [
    0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 1000, 2048, 4095, 4096,
    5000,
];

/// Tap counts for the FIR kernels: single-tap, even (delay rounds
/// down), typical odd designs, and longer-than-most-inputs.
const TAP_COUNTS: [usize; 7] = [1, 2, 3, 5, 9, 33, 129];

fn backends() -> Vec<Backend> {
    // Unsupported backends clamp to Scalar inside the dispatcher —
    // comparing them is vacuous but harmless, so keep the full list
    // and let each host verify what it can actually run.
    Backend::ALL
        .iter()
        .copied()
        .filter(|b| b.is_supported())
        .collect()
}

/// Deterministic complex test vector with a wide dynamic range
/// (magnitudes spanning ~2^-12..2^12) and mixed signs.
fn cvec(rng: &mut StdRng, n: usize) -> Vec<Cf32> {
    (0..n)
        .map(|_| {
            let e = rng.gen_range(-12i32..=12);
            let k = 2.0f32.powi(e);
            Cf32::new(
                (rng.gen::<f32>() * 2.0 - 1.0) * k,
                (rng.gen::<f32>() * 2.0 - 1.0) * k,
            )
        })
        .collect()
}

fn rvec(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let e = rng.gen_range(-12i32..=12);
            (rng.gen::<f32>() * 2.0 - 1.0) * 2.0f32.powi(e)
        })
        .collect()
}

fn bits(z: Cf32) -> (u32, u32) {
    (z.re.to_bits(), z.im.to_bits())
}

// ---------------------------------------------------------------------------
// Bit-exact kernels
// ---------------------------------------------------------------------------

#[test]
fn mul_in_place_bit_exact_across_backends() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for &n in &LENGTHS {
        let a = cvec(&mut rng, n);
        let b = cvec(&mut rng, n);
        let mut reference = a.clone();
        Backend::Scalar.mul_in_place(&mut reference, &b);
        for backend in backends() {
            let mut got = a.clone();
            backend.mul_in_place(&mut got, &b);
            for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(bits(*g), bits(*r), "{backend:?} n={n} sample {i}");
            }
        }
    }
}

#[test]
fn mul_in_place_truncates_to_common_prefix() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    let a = cvec(&mut rng, 37);
    let b = cvec(&mut rng, 19);
    for backend in backends() {
        let mut got = a.clone();
        backend.mul_in_place(&mut got, &b);
        // Beyond the prefix the buffer is untouched.
        for i in b.len()..a.len() {
            assert_eq!(bits(got[i]), bits(a[i]), "{backend:?} tail {i}");
        }
    }
}

#[test]
fn sub_scaled_bit_exact_across_backends() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    for &n in &LENGTHS {
        let x = cvec(&mut rng, n);
        let y = cvec(&mut rng, n);
        let g = Cf32::new(rng.gen::<f32>() * 2.0 - 1.0, rng.gen::<f32>() * 2.0 - 1.0);
        let mut reference = x.clone();
        Backend::Scalar.sub_scaled(&mut reference, &y, g);
        for backend in backends() {
            let mut got = x.clone();
            backend.sub_scaled(&mut got, &y, g);
            for (i, (a, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(bits(*a), bits(*r), "{backend:?} n={n} sample {i}");
            }
        }
    }
}

#[test]
fn norm_sqr_into_bit_exact_across_backends() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0004);
    for &n in &LENGTHS {
        let x = cvec(&mut rng, n);
        let mut reference = vec![0.0f32; n];
        Backend::Scalar.norm_sqr_into(&x, &mut reference);
        for backend in backends() {
            let mut got = vec![0.0f32; n];
            backend.norm_sqr_into(&x, &mut got);
            for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(g.to_bits(), r.to_bits(), "{backend:?} n={n} sample {i}");
            }
        }
    }
}

#[test]
fn max_norm_sqr_bit_exact_across_backends() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0005);
    for &n in &LENGTHS {
        let x = cvec(&mut rng, n);
        let reference = Backend::Scalar.max_norm_sqr(&x);
        for backend in backends() {
            let got = backend.max_norm_sqr(&x);
            assert_eq!(got.to_bits(), reference.to_bits(), "{backend:?} n={n}");
        }
    }
    // NaN samples are skipped: a NaN in the peak's lane, one vector
    // stride after it, must not wipe it (the correlation engine bounds
    // its quiet-window floor by this peak).
    for &n in LENGTHS.iter().filter(|&&n| n >= 2) {
        let mut x = cvec(&mut rng, n);
        let at = rng.gen_range(0..n);
        x[at] = Cf32::new(1e3, 0.0);
        for k in [1, 2, 4, 8, 16] {
            if let Some(z) = x.get_mut(at + k) {
                *z = Cf32::new(f32::NAN, 0.0);
            }
        }
        x[rng.gen_range(0..n)] = Cf32::new(0.0, f32::NAN);
        let reference = Backend::Scalar.max_norm_sqr(&x);
        assert!(!reference.is_nan(), "n={n}");
        for backend in backends() {
            let got = backend.max_norm_sqr(&x);
            assert_eq!(got.to_bits(), reference.to_bits(), "{backend:?} n={n}, NaN");
        }
    }
}

#[test]
fn fir_same_bit_exact_across_backends() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0006);
    for &n in &LENGTHS {
        let x = cvec(&mut rng, n);
        for &nt in &TAP_COUNTS {
            let taps = rvec(&mut rng, nt);
            let mut reference = vec![Cf32::ZERO; n];
            Backend::Scalar.fir_same(&taps, &x, &mut reference);
            for backend in backends() {
                let mut got = vec![Cf32::ZERO; n];
                backend.fir_same(&taps, &x, &mut got);
                for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                    assert_eq!(bits(*g), bits(*r), "{backend:?} n={n} taps={nt} out {i}");
                }
            }
        }
    }
}

/// The decimating FIR against the full-rate one stepped: every backend's
/// `fir_decimate` is its own `fir_same` (`Fir::filter_into`) followed by
/// `step_by(os)`, bit for bit — and so the scalar one's.
#[test]
fn fir_decimate_is_fir_same_stepped_on_every_backend() {
    let mut rng = StdRng::seed_from_u64(0x5eed_000d);
    for &n in &LENGTHS {
        let x = cvec(&mut rng, n);
        for &nt in TAP_COUNTS.iter().chain(&[49]) {
            let taps = rvec(&mut rng, nt);
            for os in [1, 2, 3, 8, 13] {
                let mut full = vec![Cf32::ZERO; n];
                Backend::Scalar.fir_same(&taps, &x, &mut full);
                let reference: Vec<Cf32> = full.iter().step_by(os).copied().collect();
                for backend in backends() {
                    backend.fir_same(&taps, &x, &mut full);
                    let stepped = full.iter().step_by(os);
                    let mut got = vec![Cf32::ZERO; n.div_ceil(os)];
                    backend.fir_decimate(&taps, &x, os, &mut got);
                    for (i, ((g, s), r)) in got.iter().zip(stepped).zip(&reference).enumerate() {
                        let what = format!("{backend:?} n={n} taps={nt} os={os} out {i}");
                        assert_eq!(bits(*g), bits(*s), "{what}: against its own fir_same");
                        assert_eq!(bits(*g), bits(*r), "{what}: against scalar");
                    }
                }
            }
        }
    }
    // Through the filter, on the active backend.
    let fir = galiot_dsp::fir::Fir::from_taps(rvec(&mut rng, 49));
    let x = cvec(&mut rng, 10_007);
    let (mut full, mut kept) = (Vec::new(), vec![Cf32::new(f32::NAN, 0.0); 3]);
    fir.filter_into(&x, &mut full);
    fir.decimate_into(&x, 8, &mut kept);
    let stepped: Vec<_> = full.iter().step_by(8).map(|&z| bits(z)).collect();
    assert_eq!(kept.iter().map(|&z| bits(z)).collect::<Vec<_>>(), stepped);
}

#[test]
fn fir_same_real_bit_exact_across_backends() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0007);
    for &n in &LENGTHS {
        let x = rvec(&mut rng, n);
        for &nt in &TAP_COUNTS {
            let taps = rvec(&mut rng, nt);
            let mut reference = vec![0.0f32; n];
            Backend::Scalar.fir_same_real(&taps, &x, &mut reference);
            for backend in backends() {
                let mut got = vec![0.0f32; n];
                backend.fir_same_real(&taps, &x, &mut got);
                for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        r.to_bits(),
                        "{backend:?} n={n} taps={nt} out {i}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// FFT butterflies: bit-exact against the pre-kernel scalar transform
// ---------------------------------------------------------------------------

/// The radix-2 transform as it was before the butterflies became a
/// kernel — one n/2-entry twiddle table read at a stride, conjugated
/// per butterfly for the inverse — kept verbatim as the reference every
/// backend must reproduce bit for bit.
fn reference_transform(buf: &mut [Cf32], inverse: bool) {
    let n = buf.len();
    if n <= 1 {
        return;
    }
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
        if i < j {
            buf.swap(i, j);
        }
    }
    let twiddles: Vec<Cf32> = (0..n / 2)
        .map(|k| Cf32::cis(-2.0 * std::f32::consts::PI * k as f32 / n as f32))
        .collect();
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let step = n / len;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let mut w = twiddles[k * step];
                if inverse {
                    w = w.conj();
                }
                let a = buf[start + k];
                let b = buf[start + k + half] * w;
                buf[start + k] = a + b;
                buf[start + k + half] = a - b;
            }
        }
        len <<= 1;
    }
    if inverse {
        let k = 1.0 / n as f32;
        for z in buf.iter_mut() {
            *z *= k;
        }
    }
}

/// Input families for the FFT differential, `n` samples each.
fn fft_inputs(rng: &mut StdRng, n: usize) -> Vec<(&'static str, Vec<Cf32>)> {
    let mut impulse = vec![Cf32::ZERO; n];
    impulse[n / 3] = Cf32::new(1.0, -0.5);
    // Mostly subnormal magnitudes with a few normal samples, so
    // products underflow, sums cancel into the subnormal range, and
    // gradual underflow has to match lane for lane.
    let denormal = (0..n)
        .map(|i| {
            let k = if i % 7 == 0 { 1.0 } else { 1.0e-41 };
            Cf32::new(
                (rng.gen::<f32>() * 2.0 - 1.0) * k,
                (rng.gen::<f32>() * 2.0 - 1.0) * k,
            )
        })
        .collect();
    vec![
        ("random", cvec(rng, n)),
        ("zero", vec![Cf32::ZERO; n]),
        ("impulse", impulse),
        ("denormal", denormal),
    ]
}

fn assert_same_bits(got: &[Cf32], want: &[Cf32], what: std::fmt::Arguments) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(bits(*g), bits(*w), "{what} sample {i}");
    }
}

#[test]
fn fft_plans_bit_exact_on_every_backend() {
    let mut rng = StdRng::seed_from_u64(0x5eed_000b);
    let entry = kernels::active();
    for log2 in 1..=16 {
        let n = 1usize << log2;
        let plan = Fft::new(n);
        for (family, input) in fft_inputs(&mut rng, n) {
            for inverse in [false, true] {
                let mut want = input.clone();
                reference_transform(&mut want, inverse);
                for backend in backends() {
                    kernels::set_backend(backend);
                    // In place at the allocation's alignment, and one
                    // sample (8 bytes) off it: no vector load or store
                    // of the second run is aligned.
                    let mut aligned = input.clone();
                    let mut shifted = vec![Cf32::ZERO; n + 1];
                    shifted[1..].copy_from_slice(&input);
                    if inverse {
                        plan.inverse(&mut aligned);
                        plan.inverse(&mut shifted[1..]);
                    } else {
                        plan.forward(&mut aligned);
                        plan.forward(&mut shifted[1..]);
                    }
                    let what = format_args!("{backend:?} n={n} {family} inverse={inverse}");
                    assert_same_bits(&aligned, &want, what);
                    assert_same_bits(&shifted[1..], &want, what);
                }
            }
        }
    }
    kernels::set_backend(entry);
}

/// Inputs whose bits a shortcut would flip: skipping the multiply by a
/// `w = 1` twiddle (`1 - 0i` forward, `1 + 0i` inverse) turns
/// `-0.0 - 0.0 * x` into `-0.0`, and `inf * 0` (NaN) into `inf`.
fn fft_special_inputs(rng: &mut StdRng, n: usize) -> Vec<(&'static str, Vec<Cf32>)> {
    let signed_zeros = (0..n)
        .map(|i| {
            Cf32::new(
                if i % 2 == 0 { -0.0 } else { 0.0 },
                if i % 3 == 0 { 0.0 } else { -0.0 },
            )
        })
        .collect();
    let mut sparse_zeros = cvec(rng, n);
    for z in sparse_zeros.iter_mut().step_by(3) {
        *z = Cf32::new(-0.0, z.im);
    }
    // One special value per transform, at a random place: it spreads
    // to every output through a different butterfly path each time.
    let mut poke = |v: Cf32| {
        let mut x = cvec(rng, n);
        x[rng.gen_range(0..n)] = v;
        x
    };
    vec![
        ("+inf", poke(Cf32::new(f32::INFINITY, 1.0))),
        ("-inf", poke(Cf32::new(-2.0, f32::NEG_INFINITY))),
        ("nan", poke(Cf32::new(f32::NAN, 0.5))),
        ("signed zeros", signed_zeros),
        ("sparse -0.0", sparse_zeros),
    ]
}

#[test]
fn fft_plans_bit_exact_on_special_values() {
    let mut rng = StdRng::seed_from_u64(0x5eed_000e);
    let entry = kernels::active();
    // A fused transform runs the stages narrower than a vector in
    // registers, then the `(log2 n - log2 lanes) % 3` left-over stages
    // (none, a single, a pair), then triples: the sizes swept must put
    // every vector width through all three left-over shapes.
    const SIZES: std::ops::RangeInclusive<u32> = 1..=16;
    for backend in backends() {
        let log2_lanes = match backend {
            Backend::Scalar => continue,
            Backend::Sse41 => 1,
            Backend::Avx2 | Backend::Fma => 2,
            Backend::Avx512 => 3,
        };
        let shapes: std::collections::BTreeSet<u32> = SIZES
            .filter(|&log2| log2 > log2_lanes)
            .map(|log2| (log2 - log2_lanes) % 3)
            .collect();
        assert_eq!(shapes.len(), 3, "{backend:?}: left-over shapes {shapes:?}");
    }
    for log2 in SIZES {
        let n = 1usize << log2;
        let plan = Fft::new(n);
        for (family, input) in fft_special_inputs(&mut rng, n) {
            for inverse in [false, true] {
                let mut want = input.clone();
                reference_transform(&mut want, inverse);
                for backend in backends() {
                    kernels::set_backend(backend);
                    let mut got = input.clone();
                    if inverse {
                        plan.inverse(&mut got);
                    } else {
                        plan.forward(&mut got);
                    }
                    let what = format_args!("{backend:?} n={n} {family} inverse={inverse}");
                    assert_same_bits(&got, &want, what);
                }
            }
        }
    }
    kernels::set_backend(entry);
}

#[test]
fn fft_stages_equal_one_butterflies_call_per_stage() {
    // The fused kernel against its own oracle, on twiddles that are
    // not roots of unity (so no two stages' twiddles could be merged
    // unnoticed), with and without the trailing scale.
    let mut rng = StdRng::seed_from_u64(0x5eed_000f);
    for log2 in 0..=13 {
        let n = 1usize << log2;
        let tw = cvec(&mut rng, n - 1);
        let x = cvec(&mut rng, n + 1);
        for scale in [None, Some(0.37f32)] {
            let mut want = x.clone();
            let mut half = 1;
            while half < n {
                Backend::Scalar.butterflies(&mut want[1..], &tw[half - 1..2 * half - 1]);
                half <<= 1;
            }
            if let Some(k) = scale {
                for z in want[1..].iter_mut() {
                    *z *= k;
                }
            }
            for backend in backends() {
                let mut got = x.clone();
                backend.fft_stages(&mut got[1..], &tw, scale);
                assert_same_bits(
                    &got,
                    &want,
                    format_args!("{backend:?} n={n} scale={scale:?}"),
                );
            }
        }
    }
}

#[test]
fn butterflies_bit_exact_across_backends() {
    // The stage kernel on its own terms: arbitrary twiddles (not roots
    // of unity), every `half` around each vector width including
    // non-powers of two, one and several blocks, misaligned slices.
    let mut rng = StdRng::seed_from_u64(0x5eed_000c);
    for half in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 32, 100, 1024] {
        for blocks in [1usize, 2, 5] {
            let tw = cvec(&mut rng, half + 1);
            let x = cvec(&mut rng, 2 * half * blocks + 1);
            let mut reference = x.clone();
            Backend::Scalar.butterflies(&mut reference[1..], &tw[1..]);
            for backend in backends() {
                let mut got = x.clone();
                backend.butterflies(&mut got[1..], &tw[1..]);
                let what = format_args!("{backend:?} half={half} blocks={blocks}");
                assert_same_bits(&got, &reference, what);
            }
        }
    }
}

#[test]
fn fft_inverse_undoes_forward_on_the_active_backend() {
    let mut rng = StdRng::seed_from_u64(0x5eed_000d);
    for log2 in 0..=16 {
        let n = 1usize << log2;
        let plan = Fft::new(n);
        let x: Vec<Cf32> = (0..n)
            .map(|_| Cf32::new(rng.gen::<f32>() * 2.0 - 1.0, rng.gen::<f32>() * 2.0 - 1.0))
            .collect();
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        let tol = 1e-6 * (log2 as f32 + 1.0);
        for (i, (a, b)) in y.iter().zip(&x).enumerate() {
            assert!((*a - *b).abs() <= tol, "n={n} sample {i}: {a:?} vs {b:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Correlation normalization and the ADC model: bit-exact against the
// scalar bodies they replaced, kept here
// ---------------------------------------------------------------------------

/// The normalization loop of `Template::xcorr_normalized` as it was
/// before it became a kernel.
fn reference_normalize(
    corr: &[Cf32],
    prefix: &[f64],
    m: usize,
    energy: f32,
    floor: f64,
) -> Vec<f32> {
    let mut out = Vec::new();
    for (k, r) in corr.iter().enumerate() {
        let win = prefix[k + m] - prefix[k];
        if win <= floor {
            out.push(0.0);
        } else {
            let denom = (win * energy as f64).sqrt() as f32;
            out.push((r.abs() / denom).min(1.0));
        }
    }
    out
}

#[test]
fn normalize_lags_bit_exact_across_backends() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0010);
    for &n in &LENGTHS {
        for m in [1usize, 7, 64] {
            // Window energies across the floor, a dead-flat stretch
            // (energy exactly 0), and correlations from far under to
            // far over the window energy (so `min` clips some).
            let mut prefix = vec![0.0f64];
            for i in 0..n + m + 3 {
                let step = if i % 50 < 10 {
                    0.0
                } else {
                    rng.gen::<f64>() * 10f64.powi(rng.gen_range(-14..3))
                };
                prefix.push(prefix[i] + step);
            }
            let mut corr = cvec(&mut rng, n);
            let energy = rng.gen::<f32>() * 100.0 + 0.01;
            if n > 4 {
                corr[1] = Cf32::new(f32::NAN, 1.0);
                corr[2] = Cf32::new(f32::INFINITY, 1.0);
                corr[3] = Cf32::ZERO;
                prefix[4 + m] = f64::NAN;
            }
            for floor in [1e-30, 1e-9, 0.5] {
                let want = reference_normalize(&corr, &prefix, m, energy, floor);
                for backend in backends() {
                    let mut got = vec![-1.0f32; n];
                    backend.normalize_lags(&corr, &prefix, m, energy as f64, floor, &mut got);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{backend:?} n={n} m={m} floor={floor} lag {i}"
                        );
                    }
                }
            }
        }
    }
}

/// `RtlSdrFrontEnd::digitize`'s per-sample body as it was before it
/// became a kernel: two `round` calls a sample.
fn reference_digitize(adc: &Adc, analog: &[Cf32]) -> Vec<Cf32> {
    analog
        .iter()
        .map(|&z| {
            let mut s = z * adc.gain;
            s = Cf32::new(s.re, adc.iq_gain * (s.im + adc.iq_skew * s.re));
            s += Cf32::new(adc.dc, adc.dc);
            let q = |v: f32| ((v.clamp(-1.0, 1.0) * adc.levels).round()) / adc.levels;
            Cf32::new(q(s.re), q(s.im))
        })
        .collect()
}

/// [`bits`] with every NaN mapped to one: a rail fed both an infinity
/// and a NaN adds two NaNs of different sign, and which of them an
/// `add` returns follows its operand order — the compiler's choice in
/// the scalar body. That a NaN comes out is the contract, not which.
fn rail_bits(z: Cf32) -> (u32, u32) {
    let canon = |v: f32| {
        if v.is_nan() {
            f32::NAN.to_bits()
        } else {
            v.to_bits()
        }
    };
    (canon(z.re), canon(z.im))
}

fn assert_digitize_matches(adc: &Adc, analog: &[Cf32]) {
    let want = reference_digitize(adc, analog);
    for backend in backends() {
        let mut got = vec![Cf32::new(7.0, 7.0); analog.len()];
        backend.digitize(adc, analog, &mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                rail_bits(*g),
                rail_bits(*w),
                "{backend:?} {adc:?} sample {i}: {:?}",
                analog[i]
            );
        }
    }
}

fn ulp_up(v: f32) -> f32 {
    f32::from_bits(v.to_bits() + 1)
}

fn ulp_down(v: f32) -> f32 {
    f32::from_bits(v.to_bits() - 1)
}

#[test]
fn digitize_rounds_every_tie_like_round() {
    // A transparent front end (unit gains, no skew, no offset), so the
    // value rounded is `sample * levels` exactly: every `k + 0.5` tie a
    // converter of each depth can meet, one ulp either side, both
    // signs, both rails.
    for adc_bits in 1..=16u32 {
        let levels = (1u32 << adc_bits) as f32 / 2.0;
        let adc = Adc {
            gain: 1.0,
            iq_gain: 1.0,
            iq_skew: 0.0,
            dc: 0.0,
            levels,
        };
        let mut analog = Vec::new();
        for k in 0..levels as u32 {
            let tie = (k as f32 + 0.5) / levels;
            for v in [ulp_down(tie), tie, ulp_up(tie)] {
                analog.push(Cf32::new(v, -v));
                analog.push(Cf32::new(-v, v));
            }
        }
        assert_digitize_matches(&adc, &analog);
    }
}

#[test]
fn digitize_bit_exact_across_backends() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0011);
    let edge_cases = [
        0.0,
        -0.0,
        0.3,
        -0.3,
        0.49999997,
        0.5,
        0.50000006,
        1.0,
        -1.0,
        1.0000001,
        -1.0000001,
        3.0e9,
        -3.0e9,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
        1.0e-41,
        -1.0e-41,
    ];
    for adc_bits in 1..=16u32 {
        let levels = (1u32 << adc_bits) as f32 / 2.0;
        for (gain, iq_gain, iq_skew, dc) in [
            (1.0f32, 1.0f32, 0.0f32, 0.0f32),
            (1.0, 1.01, 0.01f32.sin(), 0.004),
            (0.2 / 0.037, 1.01, 0.01f32.sin(), 0.004),
            (1.0e4, 0.97, -0.02, -0.01),
        ] {
            let adc = Adc {
                gain,
                iq_gain,
                iq_skew,
                dc,
                levels,
            };
            // Both clip rails and everything between, in units of the
            // grid so ties are dense; then the edge values, scaled so
            // they reach the rounding step as themselves where they can.
            let mut analog: Vec<Cf32> = (0..1_003)
                .map(|_| {
                    let span = 1.2 / gain;
                    Cf32::new(
                        (rng.gen::<f32>() * 2.0 - 1.0) * span,
                        (rng.gen::<f32>() * 2.0 - 1.0) * span,
                    )
                })
                .collect();
            for (i, &a) in edge_cases.iter().enumerate() {
                let b = edge_cases[(i * 7 + 3) % edge_cases.len()];
                analog.push(Cf32::new(a / levels, b / levels));
                analog.push(Cf32::new(b, a));
            }
            for &n in &[0usize, 1, 2, 3, 7, 8, 9, 15, 16, 17, analog.len()] {
                assert_digitize_matches(&adc, &analog[analog.len() - n..]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The backhaul codec
// ---------------------------------------------------------------------------

/// `galiot_gateway::compress` as it was before it became a kernel: a
/// `Vec<u16>` of codes from two libm `round` calls a sample, then a
/// packing pass. Returns the scales and the packed bytes.
fn reference_compress(samples: &[Cf32], bits: u32, block_len: usize) -> (Vec<f32>, Vec<u8>) {
    let levels = ((1u32 << bits) / 2) as f32; // per polarity
    let mut scales = Vec::with_capacity(samples.len().div_ceil(block_len));
    let mut codes: Vec<u16> = Vec::with_capacity(samples.len() * 2);
    for block in samples.chunks(block_len) {
        let peak = block
            .iter()
            .map(|z| z.re.abs().max(z.im.abs()))
            .fold(0.0f32, f32::max)
            .max(1e-12);
        scales.push(peak);
        for z in block {
            let q = |v: f32| -> u16 {
                let norm = (v / peak).clamp(-1.0, 1.0);
                // Map [-1, 1] to [0, 2*levels - 1].
                ((norm * (levels - 0.5)) + levels - 0.5).round() as u16
            };
            codes.push(q(z.re));
            codes.push(q(z.im));
        }
    }
    // Bit-pack the codes.
    let mut data = Vec::with_capacity((codes.len() * bits as usize).div_ceil(8));
    let mut acc: u32 = 0;
    let mut nbits: u32 = 0;
    for &c in &codes {
        acc |= (c as u32) << nbits;
        nbits += bits;
        while nbits >= 8 {
            data.push((acc & 0xFF) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        data.push((acc & 0xFF) as u8);
    }
    (scales, data)
}

/// `galiot_gateway`'s tolerant unpacking loop (still what it runs on a
/// header it cannot trust), the scale looked up per sample.
fn reference_decompress(
    bits: u32,
    block_len: usize,
    scales: &[f32],
    data: &[u8],
    len: usize,
) -> Vec<Cf32> {
    let levels = ((1u32 << bits) / 2) as f32;
    let mask = (1u32 << bits) - 1;
    let mut out = Vec::with_capacity(len);
    let mut acc: u32 = 0;
    let mut nbits: u32 = 0;
    let mut byte_iter = data.iter();
    let mut next_code = || -> u16 {
        while nbits < bits {
            acc |= (*byte_iter.next().unwrap_or(&0) as u32) << nbits;
            nbits += 8;
        }
        let code = (acc & mask) as u16;
        acc >>= bits;
        nbits -= bits;
        code
    };
    for i in 0..len {
        let scale = scales.get(i / block_len).copied().unwrap_or(0.0);
        let dq = |code: u16| -> f32 { ((code as f32 - (levels - 0.5)) / (levels - 0.5)) * scale };
        let re = dq(next_code());
        let im = dq(next_code());
        out.push(Cf32::new(re, im));
    }
    out
}

/// Compresses on every backend against the reference, then
/// decompresses the reference's bytes on every backend against the
/// reference: packed bytes, scale bits and sample bits all identical.
fn assert_codec_matches(samples: &[Cf32], bits: u32, block_len: usize, what: &str) {
    let (scales, data) = reference_compress(samples, bits, block_len);
    assert_eq!(Some(data.len()), kernels::packed_len(samples.len(), bits));
    let want = reference_decompress(bits, block_len, &scales, &data, samples.len());
    for backend in backends() {
        let mut got_scales = vec![-7.0f32; scales.len()];
        let mut got_data = vec![0xA5u8; data.len()];
        backend.compress(samples, bits, block_len, &mut got_scales, &mut got_data);
        let ctx = format!(
            "{backend:?} {what}: {} samples, {bits} bits, blocks of {block_len}",
            samples.len()
        );
        assert_eq!(
            got_scales.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            scales.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            "scales, {ctx}"
        );
        if let Some(at) = got_data.iter().zip(&data).position(|(g, w)| g != w) {
            panic!(
                "byte {at} of {}: {:#04x} for {:#04x}, {ctx}",
                data.len(),
                got_data[at],
                data[at]
            );
        }
        let mut got = vec![Cf32::new(7.0, 7.0); samples.len()];
        backend.decompress(bits, block_len, &scales, &data, &mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(rail_bits(*g), rail_bits(*w), "sample {i}, {ctx}");
        }
    }
}

/// Block lengths of the codec differentials: one sample, one that is a
/// multiple of no vector width, and the two the pipeline ships with.
const CODEC_BLOCKS: [usize; 4] = [1, 7, 256, 1024];

#[test]
fn codec_bit_exact_across_backends() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0023);
    // Whole blocks, ragged tails of every length under a vector, and
    // lengths that end a block inside a staging run.
    let lengths = [
        0usize, 1, 2, 3, 6, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 1000, 1024, 1031,
        2048, 2193,
    ];
    for bits in 1..=16u32 {
        for &block_len in &CODEC_BLOCKS {
            let signal = cvec(&mut rng, 2_193);
            for &n in &lengths {
                assert_codec_matches(&signal[..n], bits, block_len, "wide-range noise");
            }
        }
    }
}

#[test]
fn codec_rounds_every_tie_like_round() {
    // Under a peak of exactly 1 the value rounded is `v * (levels -
    // 0.5) + levels - 0.5`, a `k + 0.5` tie wherever `v * (levels -
    // 0.5)` is an integer: every such rail (or as near as an f32 gets),
    // one ulp either side.
    for bits in 1..=16u32 {
        let levels = ((1u32 << bits) / 2) as i32;
        let span = levels as f32 - 0.5;
        let mut samples = vec![Cf32::new(1.0, -1.0)];
        for j in 1 - levels..levels {
            let tie = j as f32 / span;
            samples.push(Cf32::new(tie, tie.next_up()));
            samples.push(Cf32::new(tie.next_down(), -tie));
        }
        assert_codec_matches(&samples, bits, samples.len(), "ties");
        assert_codec_matches(&samples, bits, 7, "ties under per-block peaks");
    }
}

#[test]
fn codec_bit_exact_on_special_values() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0024);
    let specials = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::MIN_POSITIVE,
        -1.0e-41,
        1.0e-12,
        9.9e-13,
        f32::MAX,
        f32::MIN,
        0.5,
        -0.5,
    ];
    for bits in 1..=16u32 {
        for &block_len in &CODEC_BLOCKS {
            // All-zero blocks (the 1e-12 floor), of either sign of zero.
            let mut zeros = vec![Cf32::ZERO; 2 * block_len + 3];
            zeros[1] = Cf32::new(-0.0, 0.0);
            assert_codec_matches(&zeros, bits, block_len, "zeros");
            // All-NaN blocks: nothing to take a peak from.
            let nans = vec![Cf32::new(f32::NAN, f32::NAN); block_len + 5];
            assert_codec_matches(&nans, bits, block_len, "all NaN");
            // The peak tied between rails, signs and lanes.
            let ties: Vec<Cf32> = (0..2 * block_len + 9)
                .map(|i| match i % 5 {
                    0 => Cf32::new(0.75, -0.75),
                    1 => Cf32::new(-0.75, 0.1),
                    2 => Cf32::new(0.2, 0.75),
                    _ => Cf32::new(0.74999994, -0.3),
                })
                .collect();
            assert_codec_matches(&ties, bits, block_len, "peak ties");
            // Every special in every lane position of a noise run.
            let mut noisy = cvec(&mut rng, 600.max(block_len + 40));
            for (i, &v) in specials.iter().enumerate() {
                let w = specials[(i * 5 + 2) % specials.len()];
                noisy[i * 17] = Cf32::new(v, w);
                noisy[i * 17 + 9] = Cf32::new(0.3, v);
            }
            for cut in [0usize, 1, 5, 16] {
                assert_codec_matches(&noisy[cut..], bits, block_len, "specials");
            }
        }
    }
}

#[test]
fn decompress_bit_exact_under_hostile_scales_and_codes() {
    // Bytes and scales no compressor wrote: every code value, scales
    // that are NaN, infinite, negative, denormal or zero.
    let mut rng = StdRng::seed_from_u64(0x5eed_0025);
    let hostile = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -3.5,
        0.0,
        -0.0,
        1.0e-41,
        f32::MAX,
        1.0,
    ];
    for bits in 1..=16u32 {
        for &block_len in &CODEC_BLOCKS {
            for len in [0usize, 1, 9, 130, 1_031] {
                let n_bytes = kernels::packed_len(len, bits).unwrap();
                let data: Vec<u8> = (0..n_bytes).map(|_| rng.gen()).collect();
                let scales: Vec<f32> = (0..len.div_ceil(block_len))
                    .map(|b| hostile[(b + bits as usize) % hostile.len()])
                    .collect();
                let want = reference_decompress(bits, block_len, &scales, &data, len);
                for backend in backends() {
                    let mut got = vec![Cf32::new(7.0, 7.0); len];
                    backend.decompress(bits, block_len, &scales, &data, &mut got);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            rail_bits(*g),
                            rail_bits(*w),
                            "{backend:?} sample {i} of {len}, {bits} bits, blocks of {block_len}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "codec")]
fn codec_rejects_a_short_output() {
    let samples = vec![Cf32::new(0.5, -0.5); 10];
    let mut scales = [0.0f32; 2];
    let mut data = [0u8; 19]; // 20 needed
    kernels::compress(&samples, 8, 5, &mut scales, &mut data);
}

#[test]
fn packed_len_is_checked() {
    assert_eq!(kernels::packed_len(0, 16), Some(0));
    assert_eq!(kernels::packed_len(3, 3), Some(3)); // 18 bits
    assert_eq!(kernels::packed_len(1_000, 8), Some(2_000));
    assert_eq!(kernels::packed_len(1 << 59, 16), None);
    assert_eq!(kernels::packed_len(usize::MAX, 1), None);
}

// ---------------------------------------------------------------------------
// Reductions: bit-exact to the lane-split reference of their backend
// ---------------------------------------------------------------------------

/// How `backend` splits a reduction: into `floats` f32 accumulators
/// (`floats / 2` f64 ones for `energy_f64`), each updated with `acc +
/// a * b` or, when `fused`, `a.mul_add(b, acc)`. `None` for the scalar
/// reference, which sums in sample order.
fn lane_split(backend: Backend) -> Option<(usize, bool)> {
    match backend {
        Backend::Scalar => None,
        Backend::Sse41 => Some((4, false)),
        Backend::Avx2 => Some((8, false)),
        Backend::Fma | Backend::Avx512 => Some((8, true)),
    }
}

fn rails(x: &[Cf32]) -> Vec<f32> {
    x.iter().flat_map(|z| [z.re, z.im]).collect()
}

fn dot_conj_in_order(x: &[Cf32], h: &[Cf32]) -> Cf32 {
    let mut acc = Cf32::ZERO;
    for (&a, &b) in x.iter().zip(h) {
        acc += a * b.conj();
    }
    acc
}

/// `dot_conj` as `backend` sums it: per-lane `x * h` and `x *
/// swap(h)`, then `re` the lanes' sum and `im` the odd lanes' minus the
/// even lanes', then the samples that fill no vector in order.
fn reference_dot_conj(backend: Backend, x: &[Cf32], h: &[Cf32]) -> Cf32 {
    let n = x.len().min(h.len());
    let Some((w, fused)) = lane_split(backend) else {
        return dot_conj_in_order(&x[..n], &h[..n]);
    };
    let step = |a: f32, b: f32, acc: f32| {
        if fused {
            a.mul_add(b, acc)
        } else {
            acc + a * b
        }
    };
    let (xf, hf) = (rails(&x[..n]), rails(&h[..n]));
    let (mut acc1, mut acc2) = (vec![0f32; w], vec![0f32; w]);
    let done = xf.len() - xf.len() % w;
    for (a, b) in xf[..done].chunks(w).zip(hf[..done].chunks(w)) {
        for j in 0..w {
            acc1[j] = step(a[j], b[j], acc1[j]);
            acc2[j] = step(a[j], b[j ^ 1], acc2[j]);
        }
    }
    let odd = acc2[3..].iter().step_by(2).fold(acc2[1], |s, &v| s + v);
    let even = acc2[2..].iter().step_by(2).fold(acc2[0], |s, &v| s + v);
    let tail = dot_conj_in_order(&x[done / 2..n], &h[done / 2..n]);
    Cf32::new(acc1.iter().sum::<f32>() + tail.re, (odd - even) + tail.im)
}

/// `energy_f32` as `backend` sums it; the tail adds `re^2` then `im^2`.
fn reference_energy_f32(backend: Backend, x: &[Cf32]) -> f32 {
    let Some((w, fused)) = lane_split(backend) else {
        return x.iter().fold(0.0, |acc, z| acc + z.norm_sqr());
    };
    let xf = rails(x);
    let mut acc = vec![0f32; w];
    let done = xf.len() - xf.len() % w;
    for v in xf[..done].chunks(w) {
        for j in 0..w {
            acc[j] = if fused {
                v[j].mul_add(v[j], acc[j])
            } else {
                acc[j] + v[j] * v[j]
            };
        }
    }
    let mut total = acc.iter().sum::<f32>();
    for &v in &xf[done..] {
        total += v * v;
    }
    total
}

/// `energy_f64` as `backend` sums it: every rail widened, then squared
/// in f64.
fn reference_energy_f64(backend: Backend, x: &[Cf32]) -> f64 {
    let Some((w, fused)) = lane_split(backend) else {
        return x.iter().fold(0.0, |acc, z| acc + z.norm_sqr() as f64);
    };
    let xf: Vec<f64> = rails(x).into_iter().map(f64::from).collect();
    let mut acc = vec![0f64; w / 2];
    let done = xf.len() - xf.len() % (w / 2);
    for v in xf[..done].chunks(w / 2) {
        for (a, &d) in acc.iter_mut().zip(v) {
            *a = if fused { d.mul_add(d, *a) } else { *a + d * d };
        }
    }
    let mut total = acc.iter().sum::<f64>();
    for &d in &xf[done..] {
        total += d * d;
    }
    total
}

/// Reduction inputs, `n + 1` samples each: wide-range noise, mostly
/// subnormal rails (products underflow, sums stay subnormal), and rails
/// near 2^53 (squares near 2^106, sums that use the whole exponent
/// range without overflowing).
fn reduction_inputs(rng: &mut StdRng, n: usize) -> Vec<(&'static str, Vec<Cf32>)> {
    let mut scaled = |k: fn(usize) -> f32| -> Vec<Cf32> {
        (0..=n)
            .map(|i| {
                Cf32::new(
                    (rng.gen::<f32>() * 2.0 - 1.0) * k(i),
                    (rng.gen::<f32>() * 2.0 - 1.0) * k(i),
                )
            })
            .collect()
    };
    let denormal = scaled(|i| if i % 11 == 0 { 1.0e-30 } else { 1.0e-41 });
    let large = scaled(|i| 2.0f32.powi(50 + (i % 7) as i32));
    vec![
        ("random", cvec(rng, n + 1)),
        ("denormal", denormal),
        ("large", large),
    ]
}

#[test]
fn reductions_bit_exact_to_their_lane_split_reference() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0026);
    let lengths = (0..=40).chain([
        63, 64, 65, 127, 128, 129, 255, 256, 257, 1023, 1024, 1025, 4095, 4096, 4097,
    ]);
    for n in lengths {
        let (xs, hs) = (reduction_inputs(&mut rng, n), reduction_inputs(&mut rng, n));
        for ((family, x), (_, h)) in xs.iter().zip(&hs) {
            // At the allocation's alignment and one sample off it; `h`
            // one sample longer than `x` once.
            for (x, h) in [(&x[..n], &h[..n]), (&x[1..], &h[1..]), (&x[..n], &h[..])] {
                for backend in backends() {
                    let what = format!("{backend:?} {family} n={n}");
                    assert_eq!(
                        bits(backend.dot_conj(x, h)),
                        bits(reference_dot_conj(backend, x, h)),
                        "dot_conj, {what}"
                    );
                    assert_eq!(
                        backend.energy_f32(x).to_bits(),
                        reference_energy_f32(backend, x).to_bits(),
                        "energy_f32, {what}"
                    );
                    assert_eq!(
                        backend.energy_f64(x).to_bits(),
                        reference_energy_f64(backend, x).to_bits(),
                        "energy_f64, {what}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reductions against an f64 ground truth
// ---------------------------------------------------------------------------

/// Error budget for an n-term f32 reduction whose true value is
/// computed in f64: `margin * n * eps_f32 * scale + tiny`, where
/// `scale` is the sum of absolute terms. A sequential sum, a lane-split
/// sum and an FMA-contracted sum all satisfy this comfortably.
fn reduction_tol(n: usize, scale: f64) -> f64 {
    8.0 * (n.max(1) as f64) * f32::EPSILON as f64 * scale + 1e-20
}

#[test]
fn dot_conj_within_ulp_bound_of_f64_reference() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0008);
    for &n in &LENGTHS {
        let x = cvec(&mut rng, n);
        let h = cvec(&mut rng, n);
        let (mut re, mut im, mut scale_re, mut scale_im) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (a, b) in x.iter().zip(&h) {
            let (ar, ai) = (a.re as f64, a.im as f64);
            let (br, bi) = (b.re as f64, b.im as f64);
            re += ar * br + ai * bi;
            im += ai * br - ar * bi;
            scale_re += (ar * br).abs() + (ai * bi).abs();
            scale_im += (ai * br).abs() + (ar * bi).abs();
        }
        for backend in backends() {
            let got = backend.dot_conj(&x, &h);
            let tol_re = reduction_tol(n, scale_re);
            let tol_im = reduction_tol(n, scale_im);
            assert!(
                ((got.re as f64) - re).abs() <= tol_re,
                "{backend:?} n={n} re {} vs {re} (tol {tol_re})",
                got.re
            );
            assert!(
                ((got.im as f64) - im).abs() <= tol_im,
                "{backend:?} n={n} im {} vs {im} (tol {tol_im})",
                got.im
            );
        }
    }
}

#[test]
fn energy_within_ulp_bound_of_f64_reference() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0009);
    for &n in &LENGTHS {
        let x = cvec(&mut rng, n);
        let truth: f64 = x
            .iter()
            .map(|z| {
                let (r, i) = (z.re as f64, z.im as f64);
                r * r + i * i
            })
            .sum();
        let tol = reduction_tol(2 * n, truth);
        for backend in backends() {
            let got32 = backend.energy_f32(&x) as f64;
            assert!(
                (got32 - truth).abs() <= tol,
                "{backend:?} energy_f32 n={n}: {got32} vs {truth} (tol {tol})"
            );
            let got64 = backend.energy_f64(&x);
            assert!(
                (got64 - truth).abs() <= tol,
                "{backend:?} energy_f64 n={n}: {got64} vs {truth} (tol {tol})"
            );
        }
    }
}

#[test]
fn dot_conj_mismatched_lengths_use_common_prefix() {
    let mut rng = StdRng::seed_from_u64(0x5eed_000a);
    let x = cvec(&mut rng, 41);
    let h = cvec(&mut rng, 23);
    for backend in backends() {
        let a = backend.dot_conj(&x, &h);
        let b = backend.dot_conj(&x[..h.len()], &h);
        assert_eq!(bits(a), bits(b), "{backend:?}");
    }
}

// ---------------------------------------------------------------------------
// Randomized property sweep (random lengths AND random content)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_mul_in_place_matches_scalar(
        raw in collection::vec(any::<f32>(), 0..160),
        other in collection::vec(any::<f32>(), 0..160),
    ) {
        let a: Vec<Cf32> = raw.chunks(2).filter(|c| c.len() == 2)
            .map(|c| Cf32::new(c[0], c[1])).collect();
        let b: Vec<Cf32> = other.chunks(2).filter(|c| c.len() == 2)
            .map(|c| Cf32::new(c[0], c[1])).collect();
        let n = a.len().min(b.len());
        let mut reference = a.clone();
        Backend::Scalar.mul_in_place(&mut reference, &b);
        for backend in backends() {
            let mut got = a.clone();
            backend.mul_in_place(&mut got, &b);
            for i in 0..n {
                prop_assert_eq!(bits(got[i]), bits(reference[i]), "{:?} sample {}", backend, i);
            }
        }
    }

    #[test]
    fn prop_fir_same_real_matches_scalar(
        input in collection::vec(any::<f32>(), 0..96),
        taps in collection::vec(any::<f32>(), 1..24),
    ) {
        let mut reference = vec![0.0f32; input.len()];
        Backend::Scalar.fir_same_real(&taps, &input, &mut reference);
        for backend in backends() {
            let mut got = vec![0.0f32; input.len()];
            backend.fir_same_real(&taps, &input, &mut got);
            for (g, r) in got.iter().zip(&reference) {
                prop_assert_eq!(g.to_bits(), r.to_bits(), "{:?}", backend);
            }
        }
    }

    #[test]
    fn prop_fft_matches_reference(
        log2 in 1u32..=11,
        raw in collection::vec(-1.0e6f32..1.0e6, 2 << 11),
        inverse in any::<bool>(),
    ) {
        // The active backend only (CI runs this binary scalar-forced
        // and detected): the dispatcher walk belongs to one test.
        let n = 1usize << log2;
        let input: Vec<Cf32> = raw.chunks(2).take(n).map(|c| Cf32::new(c[0], c[1])).collect();
        let mut want = input.clone();
        reference_transform(&mut want, inverse);
        let mut got = input;
        let plan = Fft::new(n);
        if inverse { plan.inverse(&mut got) } else { plan.forward(&mut got) }
        for i in 0..n {
            prop_assert_eq!(bits(got[i]), bits(want[i]), "n={} inverse={} sample {}", n, inverse, i);
        }
    }

    #[test]
    fn prop_digitize_matches_round(
        raw in collection::vec(any::<f32>(), 0..70),
        adc_bits in 1u32..=16,
        gain in 1.0e-3f32..1.0e3,
        dc in -0.05f32..0.05,
    ) {
        let analog: Vec<Cf32> = raw.chunks(2).filter(|c| c.len() == 2)
            .map(|c| Cf32::new(c[0], c[1])).collect();
        let adc = Adc { gain, iq_gain: 1.01, iq_skew: 0.01, dc, levels: (1u32 << adc_bits) as f32 / 2.0 };
        let want = reference_digitize(&adc, &analog);
        for backend in backends() {
            let mut got = vec![Cf32::ZERO; analog.len()];
            backend.digitize(&adc, &analog, &mut got);
            for i in 0..analog.len() {
                prop_assert_eq!(rail_bits(got[i]), rail_bits(want[i]), "{:?} sample {} {:?}", backend, i, analog[i]);
            }
        }
    }

    #[test]
    fn prop_dot_conj_close_to_scalar(
        raw in collection::vec(any::<f32>(), 0..160),
    ) {
        let x: Vec<Cf32> = raw.chunks(2).filter(|c| c.len() == 2)
            .map(|c| Cf32::new(c[0], c[1])).collect();
        // Correlate against a shifted copy of itself: worst-case
        // partially-coherent sums.
        let h: Vec<Cf32> = x.iter().rev().copied().collect();
        let mut scale = 0.0f64;
        for (a, b) in x.iter().zip(&h) {
            scale += (a.re as f64 * b.re as f64).abs()
                + (a.im as f64 * b.im as f64).abs()
                + (a.im as f64 * b.re as f64).abs()
                + (a.re as f64 * b.im as f64).abs();
        }
        let reference = Backend::Scalar.dot_conj(&x, &h);
        let tol = reduction_tol(x.len(), scale) as f32;
        for backend in backends() {
            let got = backend.dot_conj(&x, &h);
            prop_assert!(
                (got.re - reference.re).abs() <= tol && (got.im - reference.im).abs() <= tol,
                "{:?}: {:?} vs {:?} (tol {})", backend, got, reference, tol
            );
        }
    }

    #[test]
    fn prop_find_peaks_matches_the_per_lag_scan(
        // A small alphabet, mostly sub-threshold, so runs of several
        // blocks are skipped whole and plateaus, threshold ties, NaN
        // and infinities all occur — at block seams too.
        levels in collection::vec(0u8..16, 0..400),
        threshold_level in 8u8..16,
        min_distance in 0usize..12,
    ) {
        let value = |l: u8| match l {
            0..=9 => l as f32 * 0.01,
            10 | 11 => 0.5,
            12 => 0.75,
            13 => 1.0,
            14 => f32::NAN,
            _ => f32::INFINITY,
        };
        let corr: Vec<f32> = levels.iter().map(|&l| value(l)).collect();
        let threshold = value(threshold_level);
        let got = galiot_dsp::corr::find_peaks(&corr, threshold, min_distance);
        let want = find_peaks_per_lag(&corr, threshold, min_distance);
        prop_assert_eq!(got.len(), want.len(), "{:?} vs {:?}", got, want);
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.index, w.index);
            prop_assert_eq!(g.value.to_bits(), w.value.to_bits());
        }
    }
}

/// `corr::find_peaks` as it stood before the block pre-check: four
/// conditions on every lag. Kept verbatim as the reference.
fn find_peaks_per_lag(
    corr: &[f32],
    threshold: f32,
    min_distance: usize,
) -> Vec<galiot_dsp::corr::Peak> {
    use galiot_dsp::corr::Peak;
    let mut candidates: Vec<Peak> = corr
        .iter()
        .enumerate()
        .filter(|&(i, &v)| {
            v >= threshold && i > 0 && i + 1 < corr.len() && corr[i - 1] <= v && corr[i + 1] < v
        })
        .map(|(i, &v)| Peak { index: i, value: v })
        .collect();
    // Greedy non-maximum suppression, strongest first.
    candidates.sort_by(|a, b| b.value.total_cmp(&a.value));
    let mut accepted: Vec<Peak> = Vec::new();
    for c in candidates {
        if accepted
            .iter()
            .all(|a| a.index.abs_diff(c.index) >= min_distance)
        {
            accepted.push(c);
        }
    }
    accepted.sort_by_key(|p| p.index);
    accepted
}

// ---------------------------------------------------------------------------
// Degenerate-length contract of the public scalar surfaces
// ---------------------------------------------------------------------------

/// The pre-SIMD scalar surfaces (audited for this suite) keep their
/// documented degenerate behavior after the kernel rewiring: no
/// panics, no NaN, defined shapes.
#[test]
fn public_surfaces_degenerate_lengths() {
    use galiot_dsp::window::Window;

    // fir: taps longer than the input stay bounds-checked and finite.
    let fir = galiot_dsp::fir::Fir::lowpass(100e3, 1e6, 65, Window::Hamming);
    let short = vec![Cf32::ONE; 3];
    let out = fir.filter(&short);
    assert_eq!(out.len(), 3);
    assert!(out.iter().all(|z| !z.is_degenerate()));
    assert!(fir.filter(&[]).is_empty());
    assert!(fir.filter_real(&[]).is_empty());
    let out1 = fir.filter(&[Cf32::ONE]);
    assert_eq!(out1.len(), 1);
    assert!(!out1[0].is_degenerate());

    // corr: zero-length template and template-longer-than-signal.
    assert!(galiot_dsp::corr::xcorr_direct(&short, &[]).is_empty());
    assert!(galiot_dsp::corr::xcorr_direct(&[], &short).is_empty());
    assert!(galiot_dsp::corr::xcorr_normalized(&short, &[]).is_empty());
    let one = galiot_dsp::corr::xcorr_direct(&short[..1], &short[..1]);
    assert_eq!(one.len(), 1);

    // power: empty and single-sample.
    assert_eq!(galiot_dsp::power::mean_power(&[]), 0.0);
    assert_eq!(galiot_dsp::power::energy(&[]), 0.0);
    assert_eq!(galiot_dsp::power::peak_power(&[]), 0.0);
    assert!((galiot_dsp::power::mean_power(&[Cf32::ONE]) - 1.0).abs() < 1e-6);

    // chirp: dechirp truncates to the shorter operand.
    let d = galiot_dsp::chirp::dechirp(&short, &short[..2]);
    assert_eq!(d.len(), 2);
    assert!(galiot_dsp::chirp::dechirp(&[], &short).is_empty());

    // mix: empty signals are a no-op.
    let mut empty: Vec<Cf32> = Vec::new();
    galiot_dsp::mix::mix_in_place(&mut empty, 1e3, 1e6, 0.0);
    galiot_dsp::mix::rotate(&mut empty, 0.5);
    assert!(galiot_dsp::mix::mix(&[], 1e3, 1e6).is_empty());
}
