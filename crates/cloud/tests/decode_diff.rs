//! Differential suite for the windowed cloud decoder.
//!
//! `CloudDecoder::decode` demodulates, kills and re-classifies only
//! where the frame it is working on lies. The reference here is
//! Algorithm 1 written straight-line over the *whole segment* from the
//! public primitives (`classify`, `demodulate`, `apply_kill`,
//! `cancel_frame`) — every round re-correlates everything, every
//! demodulation searches from sample 0, every kill filters the lot. The
//! two must recover the same frames in the same number of rounds.
//!
//! A decode worker keeps one `DecodeBuffers` from segment to segment;
//! run through the same captures in sequence, `decode_reusing` must
//! return exactly what a fresh `decode` does on each.
//!
//! Captures are seeded through `galiot_channel::scenario_seed`, so
//! `GALIOT_TEST_SEED` re-rolls all of them at once (CI sweeps it).

use galiot_channel::{compose, forced_collision, scenario_seed, snr_to_noise_power};
use galiot_cloud::{
    apply_kill, cancel_frame, classify, Classifier, CloudDecoder, CloudParams, CloudResult,
    DecodeBuffers, Recovery,
};
use galiot_dsp::Cf32;
use galiot_phy::registry::Registry;
use galiot_phy::{DecodedFrame, TechId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FS: f64 = 1_000_000.0;
const SNRS_DB: [f32; 4] = [12.0, 15.0, 18.0, 25.0];
const CAPTURES: u64 = 64;

/// Algorithm 1 over the whole segment, from the public primitives.
fn whole_segment_decode(
    segment: &[Cf32],
    fs: f64,
    registry: &Registry,
    params: CloudParams,
) -> CloudResult {
    let mut residual = segment.to_vec();
    let mut result = CloudResult::default();
    let try_decode = |samples: &[Cf32], tech: TechId, got: &[(DecodedFrame, Recovery)]| {
        let frame = registry.get(tech)?.demodulate(samples, fs).ok()?;
        let dup = got
            .iter()
            .any(|(f, _)| f.tech == frame.tech && f.payload == frame.payload);
        (!dup).then_some(frame)
    };
    while result.rounds < params.max_rounds {
        let candidates = classify(&residual, fs, registry, params.classify_threshold);
        let mut round = None;
        's_i: for (i, s_i) in candidates.iter().enumerate() {
            let tech = registry.get(s_i.tech).unwrap();
            if let Some(frame) = try_decode(&residual, s_i.tech, &result.frames) {
                if cancel_frame(
                    &mut residual,
                    tech.as_ref(),
                    &frame,
                    fs,
                    params.cancel_slack,
                )
                .is_some()
                {
                    round = Some((frame, Recovery::Direct));
                    break 's_i;
                }
            }
            for (j, s_j) in candidates.iter().enumerate().rev() {
                if i == j {
                    continue;
                }
                let vtech = registry.get(s_j.tech).unwrap();
                let end = (s_j.start + vtech.max_frame_samples(fs)).min(residual.len());
                let killed = apply_kill(&residual, fs, vtech.as_ref(), s_j.start, s_j.start..end);
                result.kills += 1;
                if let Some(frame) = try_decode(&killed, s_i.tech, &result.frames) {
                    if cancel_frame(
                        &mut residual,
                        tech.as_ref(),
                        &frame,
                        fs,
                        params.cancel_slack,
                    )
                    .is_some()
                    {
                        round = Some((frame, Recovery::AfterKill { victim: s_j.tech }));
                        break 's_i;
                    }
                }
            }
        }
        let Some(found) = round else { break };
        result.frames.push(found);
        result.rounds += 1;
    }
    result
}

/// Capture `k` of the suite: a 2- or 3-way full-overlap collision of
/// the prototype technologies with seed-drawn powers, stagger and
/// offset, cycling through the SNR set.
fn capture(k: u64) -> (usize, Vec<Cf32>, f32) {
    let mut rng = StdRng::seed_from_u64(scenario_seed(0xD1FF_0000 + k));
    let registry = Registry::prototype();
    let ways = 2 + (k % 2) as usize;
    let powers: Vec<f32> = (0..ways).map(|_| rng.gen_range(-2.0..=2.0)).collect();
    let stagger = rng.gen_range(5_000..30_000);
    let base = rng.gen_range(2_000..40_000);
    let events = forced_collision(&registry, 10, &powers, stagger, base, &mut rng);
    let snr_db = SNRS_DB[(k / 2) as usize % SNRS_DB.len()];
    let weakest = powers.iter().copied().fold(f32::INFINITY, f32::min);
    let noise = snr_to_noise_power(snr_db, weakest);
    let cap = compose(&events, 300_000, FS, noise, &mut rng);
    (ways, cap.samples, snr_db)
}

fn frame_set(result: &CloudResult) -> Vec<(TechId, Vec<u8>, usize)> {
    let mut set: Vec<_> = result
        .frames
        .iter()
        .map(|(f, _)| (f.tech, f.payload.clone(), f.start))
        .collect();
    set.sort();
    set
}

#[test]
fn windowed_decode_matches_whole_segment_algorithm_1() {
    let registry = Registry::prototype();
    let params = CloudParams::default();
    let decoder = CloudDecoder::with_params(registry.clone(), params);
    let (mut frames, mut attribution_diffs) = (0usize, 0usize);
    for k in 0..CAPTURES {
        let (ways, samples, snr_db) = capture(k);
        let reference = whole_segment_decode(&samples, FS, &registry, params);
        let windowed = decoder.decode(&samples, FS);
        let (want, got) = (frame_set(&reference), frame_set(&windowed));
        let label = format!("capture {k} ({ways}-way, {snr_db} dB)");
        assert_eq!(want.len(), got.len(), "{label}: {want:?} vs {got:?}");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!((w.0, &w.1), (g.0, &g.1), "{label}");
            assert!(
                w.2.abs_diff(g.2) <= params.cancel_slack,
                "{label}: {} frame at {} vs {}",
                w.0,
                w.2,
                g.2
            );
        }
        assert_eq!(reference.rounds, windowed.rounds, "{label}: rounds");
        // How a frame was unlocked may legitimately differ (a kill on
        // the window can succeed where the whole-segment one failed, or
        // the reverse): report, do not fail.
        if reference.kills != windowed.kills {
            println!(
                "{label}: kills {} (whole segment) vs {} (windowed)",
                reference.kills, windowed.kills
            );
        }
        for (f, how) in &windowed.frames {
            let theirs = reference
                .frames
                .iter()
                .find(|(r, _)| r.tech == f.tech && r.payload == f.payload)
                .map(|(_, how)| *how);
            if theirs != Some(*how) {
                attribution_diffs += 1;
                println!(
                    "{label}: {} recovered {how:?}, whole segment {theirs:?}",
                    f.tech
                );
            }
        }
        frames += got.len();
    }
    println!(
        "{frames} frames over {CAPTURES} captures, {attribution_diffs} attribution differences"
    );
    assert!(frames > 0, "the suite must decode something to compare");
}

#[test]
fn incremental_candidates_equal_a_fresh_classification_after_every_cancel() {
    let registry = Registry::prototype();
    let params = CloudParams::default();
    let decoder = CloudDecoder::with_params(registry.clone(), params);
    let mut cancellations = 0usize;
    for k in 0..CAPTURES {
        let (_, samples, _) = capture(k);
        // Cancel whatever the decoder recovers, in its order: every
        // frame is a real subtraction at a real alignment.
        let decoded = decoder.decode(&samples, FS);
        let mut classifier = Classifier::new(&samples, FS, &registry, params.classify_threshold);
        for (frame, _) in &decoded.frames {
            classifier
                .cancel(frame, params.cancel_slack)
                .expect("a frame the decoder cancelled cancels again");
            cancellations += 1;
            let incremental = classifier.candidates();
            let fresh = classify(
                classifier.residual(),
                FS,
                &registry,
                params.classify_threshold,
            );
            assert_eq!(incremental.len(), fresh.len(), "capture {k}");
            for (a, b) in incremental.iter().zip(&fresh) {
                assert_eq!(
                    (a.tech, a.start, a.search_from),
                    (b.tech, b.start, b.search_from),
                    "capture {k}"
                );
                assert!(
                    (a.score - b.score).abs() <= 1e-4,
                    "capture {k}: {a:?} vs {b:?}"
                );
            }
        }
    }
    assert!(cancellations > 0, "the suite must cancel something");
}

#[test]
fn reused_buffers_decode_every_capture_as_fresh_ones() {
    let decoder = CloudDecoder::with_params(Registry::prototype(), CloudParams::default());
    let mut buffers = DecodeBuffers::default();
    let mut frames = 0usize;
    // Every capture in turn, cut to one of three lengths so the buffers
    // are reused both longer and shorter than the segment, then the
    // first capture again.
    for k in (0..CAPTURES).chain([0]) {
        let (_, samples, _) = capture(k);
        let samples = &samples[..samples.len() - (k as usize % 3) * 50_000];
        let fresh = decoder.decode(samples, FS);
        let reused = decoder.decode_reusing(samples, FS, &mut buffers);
        assert_eq!(reused.frames, fresh.frames, "capture {k}: frames");
        assert_eq!(
            (reused.rounds, reused.kills),
            (fresh.rounds, fresh.kills),
            "capture {k}: rounds and kills"
        );
        frames += fresh.frames.len();
    }
    assert!(frames > 0, "the suite must decode something to compare");
}
