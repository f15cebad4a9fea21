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

use galiot_channel::{
    awgn, compose, forced_collision, random_payload, scenario_seed, snr_to_noise_power,
    Impairments, TxEvent,
};
use galiot_cloud::{
    apply_kill, cancel_frame, classify, Classifier, CloudDecoder, CloudParams, CloudResult,
    DecodeBuffers, Recovery,
};
use galiot_dsp::Cf32;
use galiot_phy::common::{
    anchored_window, demodulate_anchored_with, header_window, MAX_DEMOD_FIR_TAPS,
};
use galiot_phy::registry::Registry;
use galiot_phy::{DecodedFrame, DemodScratch, TechId};
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

/// Cases per technology in the header-window sweep.
const HEADER_CASES: u64 = 64;

/// An anchored XBee or Z-Wave demodulation reads the sync and header
/// from the head of its window and demodulates only to the frame's end
/// plus the pad. Wherever the longest window — the technology's longest
/// frame past the anchor, demodulated whole — recovers the frame
/// anchored there, the header window returns the same frame, bit for
/// bit, across payload lengths, anchors along the correlation's slack
/// (one preamble-and-sync early, a widened lookalike range, late within
/// the pad), ±0.2 ppm crystals at 868 MHz and SNRs from 6 to 20 dB. A
/// capture cut mid-header or mid-payload fails, and so does an anchor
/// over noise — and the header read needs no sample past the head.
#[test]
fn fsk_header_windows_hold_the_frames_the_longest_windows_give() {
    let registry = Registry::prototype();
    let pad = MAX_DEMOD_FIR_TAPS + 64;
    for id in [TechId::XBee, TechId::ZWave] {
        let tech = registry.get(id).unwrap();
        let header = tech.header_samples(FS).expect("a length header");
        let slack = tech.preamble_waveform(FS).len();
        let mut rng = StdRng::seed_from_u64(scenario_seed(0x4EAD_0000 + id as u64));
        let (scratch, mut recovered) = (&mut DemodScratch::default(), 0);
        for case in 0..HEADER_CASES {
            let len = rng.gen_range(0..=tech.max_payload_len());
            let payload = random_payload(len, &mut rng);
            let at = rng.gen_range(4_000..40_000);
            let n = tech.modulate(&payload, FS).len();
            // Whole, cut mid-header, cut mid-payload.
            let cut = match case % 4 {
                0 => at + rng.gen_range(1..header - slack),
                1 => at + rng.gen_range(header..n.max(header + 1)),
                _ => at + n + 30_000,
            };
            let ppm = rng.gen_range(-0.2..=0.2);
            let event = TxEvent::new(tech.clone(), payload.clone(), at)
                .with_impairments(Impairments::crystal(ppm, 868e6));
            let noise = snr_to_noise_power(rng.gen_range(6.0..20.0), 0.0);
            let mut capture = compose(&[event], at + n + 30_000, FS, noise, &mut rng).samples;
            capture.truncate(cut);
            let end = match rng.gen_range(0..3) {
                0 => at - rng.gen_range(0..=slack),
                1 => at,
                _ => at + rng.gen_range(0..pad / 2),
            };
            let start = match rng.gen_range(0..4) {
                0 => end.saturating_sub(rng.gen_range(0..tech.max_frame_samples(FS))),
                _ => end,
            };
            let label = format!("{id} case {case}: {len} bytes at {at}, anchor {start}..={end}");
            let got =
                demodulate_anchored_with(tech.as_ref(), &capture, FS, start..=end, pad, scratch);
            let whole = anchored_window(tech.as_ref(), FS, start..=end, pad, capture.len());
            let want = tech
                .demodulate(&capture[whole.clone()], FS)
                .map(|f| DecodedFrame {
                    start: f.start + whole.start,
                    ..f
                });
            match want {
                Ok(want) if want.payload == payload && want.start.abs_diff(at) <= 64 => {
                    assert_eq!(got, Ok(want), "{label}");
                    recovered += 1;
                }
                _ if cut < at + n => assert!(got.is_err(), "{label}: {got:?}"),
                _ => {}
            }
            // The header read needs the head and nothing past it.
            let head = (end + header + pad).min(capture.len());
            let [held, arrived] = [&capture[..], &capture[..head]].map(|samples| {
                header_window(
                    tech.as_ref(),
                    samples,
                    FS,
                    start..=end,
                    pad,
                    capture.len(),
                    scratch,
                )
            });
            assert_eq!(arrived, held, "{label}");
            // An anchor over noise finds no header in its head.
            let quiet = 2 * tech.max_frame_samples(FS);
            let over_noise = awgn(quiet + 2 * header, noise, &mut rng);
            let anchor = quiet..=quiet + rng.gen_range(0..slack);
            let none = header_window(tech.as_ref(), &over_noise, FS, anchor, pad, quiet, scratch);
            assert!(matches!(none, Ok(Err(_))), "{label}, over noise: {none:?}");
        }
        // Most whole captures decode: the comparison is not vacuous.
        assert!(recovered >= HEADER_CASES / 4, "{id}: {recovered} recovered");
    }
}
