//! Force-scalar conformance: the scalar reference backend and the best
//! CPU-supported SIMD backend must produce *byte-identical* results
//! everywhere the golden contracts look.
//!
//! Two layers are pinned:
//!
//! * **Waveform synthesis** — every extended-registry PHY's modulated
//!   golden waveform must fingerprint identically under both backends
//!   (the element-wise and FIR kernels are bit-exact by design; this
//!   test is the end-to-end witness).
//! * **The decode pipeline** — a collision capture decoded by the batch
//!   pipeline must yield the exact same frame set (technology, payload,
//!   start offset, delivery order) under both backends.
//!
//! The suite drives the in-process `set_backend` knob. CI additionally
//! runs the *entire* test suite under `GALIOT_DSP_BACKEND=scalar`,
//! which exercises the env-var plumbing and re-validates every golden
//! and conformance suite on the scalar reference.
//!
//! Everything lives in one `#[test]` because the backend override is
//! process-wide: phases run sequentially and the previous backend is
//! restored at the end.

use galiot::channel::{compose, forced_collision, scenario_seed, snr_to_noise_power};
use galiot::dsp::kernels::{self, Backend};
use galiot::prelude::*;

const FS: f64 = 1_000_000.0;
/// Same golden payload as `tests/golden_vectors.rs`.
const PAYLOAD: [u8; 12] = *b"GalioT\x00\x01\x7f\x80\xfe\xff";

/// FNV-1a (64-bit) over the quantized I/Q stream — the exact
/// fingerprint `tests/golden_vectors.rs` pins.
fn waveform_fingerprint(samples: &[Cf32]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: i32| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for z in samples {
        eat((z.re as f64 * 1e4).round() as i32);
        eat((z.im as f64 * 1e4).round() as i32);
    }
    h
}

/// Modulates every extended-registry PHY and fingerprints the result.
fn synthesis_fingerprints() -> Vec<(String, usize, u64)> {
    Registry::extended()
        .techs()
        .iter()
        .map(|tech| {
            let n = PAYLOAD.len().min(tech.max_payload_len());
            let wf = tech.modulate(&PAYLOAD[..n], FS);
            (tech.id().to_string(), wf.len(), waveform_fingerprint(&wf))
        })
        .collect()
}

/// Raw-sample fingerprint (full f32 bits, not quantized) — stricter
/// than the golden grid: synthesis must be *bit*-identical, not just
/// identical after quantization.
fn synthesis_bits_fingerprint() -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for tech in Registry::extended().techs() {
        let n = PAYLOAD.len().min(tech.max_payload_len());
        for z in tech.modulate(&PAYLOAD[..n], FS) {
            for b in
                z.re.to_bits()
                    .to_le_bytes()
                    .into_iter()
                    .chain(z.im.to_bits().to_le_bytes())
            {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        }
    }
    h
}

/// A frame reduced to its conformance identity (exact, no tolerance:
/// both runs are the same batch pipeline, only the backend differs).
type FrameId = (TechId, Vec<u8>, usize);

/// Decodes `samples` with the batch pipeline; returns the frames and
/// the name of the backend the run dispatched to.
fn run_batch(samples: &[Cf32], registry: &Registry) -> (Vec<FrameId>, String) {
    let report = Galiot::new(GaliotConfig::prototype(), registry.clone()).process_capture(samples);
    let ids = report
        .frames
        .iter()
        .map(|f| (f.frame.tech, f.frame.payload.clone(), f.frame.start))
        .collect();
    (ids, kernels::backend_name().to_string())
}

#[test]
fn scalar_and_best_backends_agree_end_to_end() {
    let best = Backend::detect();
    let prev = kernels::set_backend(Backend::Scalar);

    // Phase 1: synthesis fingerprints, golden-grid and bit-exact.
    let scalar_goldens = synthesis_fingerprints();
    let scalar_bits = synthesis_bits_fingerprint();
    kernels::set_backend(best);
    let best_goldens = synthesis_fingerprints();
    let best_bits = synthesis_bits_fingerprint();
    for (s, b) in scalar_goldens.iter().zip(&best_goldens) {
        assert_eq!(
            s,
            b,
            "golden fingerprint diverged between scalar and {} backends",
            best.name()
        );
    }
    assert_eq!(
        scalar_bits,
        best_bits,
        "modulated waveforms are not bit-identical between scalar and {} backends",
        best.name()
    );

    // Phase 2: batch decode of a power-separated collision capture —
    // the same scenario family the streaming conformance suite pins.
    let registry = Registry::prototype();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(scenario_seed(40));
    let events = forced_collision(&registry, 10, &[0.0, 1.0], 20_000, 50_000, &mut rng);
    let np = snr_to_noise_power(25.0, 0.0);
    let cap = compose(&events, 700_000, FS, np, &mut rng);
    assert!(cap.has_collision(), "scenario must actually collide");

    kernels::set_backend(Backend::Scalar);
    let (scalar_frames, scalar_tag) = run_batch(&cap.samples, &registry);
    kernels::set_backend(best);
    let (best_frames, best_tag) = run_batch(&cap.samples, &registry);

    assert!(
        !scalar_frames.is_empty(),
        "collision scenario decoded nothing — conformance would be vacuous"
    );
    assert_eq!(
        scalar_frames,
        best_frames,
        "decoded frame set diverged between scalar and {} backends",
        best.name()
    );

    // Phase 3: each run dispatched to the backend it asked for.
    assert_eq!(scalar_tag, "scalar", "backend after the scalar run");
    assert_eq!(best_tag, best.name(), "backend after the auto-dispatch run");

    kernels::set_backend(prev);
}
