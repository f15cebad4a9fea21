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
//! * **ULP-bounded** for the reductions (`dot_conj`, `energy_f32`,
//!   `energy_f64`): both the scalar reference and the vector paths are
//!   compared against an f64 ground truth with an error budget of
//!   `n * eps_f32` relative to the sum of absolute terms — the bound a
//!   sequential f32 accumulation itself carries, with margin.
//!
//! Backend values are passed explicitly (`Backend::dot_conj(...)`), so
//! the suite is safe under the parallel test runner. The one exception
//! is [`fft_plans_bit_exact_on_every_backend`], which walks the
//! process-wide dispatcher through every backend to drive whole
//! [`Fft`] plans: no other test here reads the active backend for
//! anything but bit-exact kernels, so none can observe the walk.

use galiot_dsp::fft::Fft;
use galiot_dsp::kernels::{self, Backend};
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
// ULP-bounded reductions, checked against an f64 ground truth
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
