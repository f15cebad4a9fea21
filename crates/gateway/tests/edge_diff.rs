//! Differential suite for the correlate-once edge decoder.
//!
//! `EdgeDecoder::process` correlates a segment against every preamble
//! once, ships on collision evidence without demodulating, demodulates
//! each technology of the first peak cluster over the span of its own
//! peaks only, explains the clusters in the frame's reach by cancelling
//! it, and lets a lone frame leave at its own end plus the cluster
//! guard unless one of the segment's detections lies at or after that
//! end. The reference here is the slow path applied to the span that
//! rule judges: every technology's demodulator over the *whole span*,
//! then the whole correlation of every preamble — over the segment, and
//! over the segment with the frame cancelled — to decide whether the
//! result may be kept. On every segment of the corpus the
//! two must return the same variant and, for a local decode, the same
//! frame at the same sample — any disagreement is a failure, not a
//! tolerance.
//!
//! Captures are seeded through `galiot_channel::scenario_seed`, so
//! `GALIOT_TEST_SEED` re-rolls all of them at once (CI sweeps it).

use galiot_channel::{
    awgn, compose, forced_collision, random_payload, scenario_seed, snr_to_noise_power, TxEvent,
};
use galiot_dsp::corr::find_peaks;
use galiot_gateway::{
    Attempt, Detection, EdgeBuffers, EdgeDecoder, EdgeOutcome, PacketDetector, RtlSdrFrontEnd,
    Segment, UniversalDetector, DEFAULT_CLUSTER_GUARD_S,
};
use galiot_phy::cancel::cancel_frame;
use galiot_phy::common::WINDOW_ALIGN;
use galiot_phy::registry::Registry;
use galiot_phy::{DecodedFrame, TechId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FS: f64 = 1_000_000.0;
const SNRS_DB: [f32; 4] = [6.0, 10.0, 18.0, 25.0];
/// `GaliotConfig::prototype().max_expected_payload`: what the gateway
/// sizes its segments by.
const MAX_EXPECTED_PAYLOAD: usize = 32;
/// Where the corpus' segments sit in their (imaginary) capture, so a
/// frame start that was not re-based cannot pass.
const SEG_START: usize = 1_000_000;

/// Every technology's demodulator over the whole of `samples`, the
/// frames re-based to capture index `start`.
fn demodulate_all(
    registry: &Registry,
    samples: &[galiot_dsp::Cf32],
    start: usize,
) -> Vec<DecodedFrame> {
    let decode = |tech: &galiot_phy::registry::TechHandle| tech.demodulate(samples, FS).ok();
    (registry.techs().iter().filter_map(decode))
        .map(|f| DecodedFrame {
            start: f.start + start,
            ..f
        })
        .collect()
}

/// Where each peak cluster of every preamble's whole correlation over
/// `samples` starts, in order: peaks closer than `guard` to the one
/// before them are one cluster.
fn cluster_starts(registry: &Registry, guard: usize, samples: &[galiot_dsp::Cf32]) -> Vec<usize> {
    let mut peak_positions: Vec<usize> = Vec::new();
    let bank = registry.template_bank(FS);
    for i in 0..bank.len() {
        let template = bank.template(i);
        if template.is_empty() || template.len() > samples.len() {
            continue;
        }
        let ncc = template.xcorr_normalized(samples);
        for p in find_peaks(&ncc, 0.25, template.len() / 2) {
            peak_positions.push(p.index);
        }
    }
    peak_positions.sort_unstable();
    let mut starts = Vec::new();
    let mut last: Option<usize> = None;
    for pos in peak_positions {
        if last.is_none_or(|l| pos - l > guard) {
            starts.push(pos);
        }
        last = Some(pos);
    }
    starts
}

/// Whether `frame`'s cancellation explains every cluster in its reach:
/// with the frame cancelled from the whole segment, no preamble's whole
/// correlation peaks in the lags that template reaches — from the
/// frame's start less the template's length to its end plus the guard.
fn explained(registry: &Registry, guard: usize, seg: &Segment, frame: &DecodedFrame) -> bool {
    let tech = registry.get(frame.tech).expect("a registered technology");
    let local = DecodedFrame {
        start: frame.start - seg.start,
        ..frame.clone()
    };
    let mut residual = seg.samples.clone();
    if cancel_frame(&mut residual, tech.as_ref(), &local, FS, 64).is_none() {
        return false;
    }
    let bank = registry.template_bank(FS);
    (0..bank.len()).all(|i| {
        let template = bank.template(i);
        let reach = local.start.saturating_sub(template.len())..local.start + local.len + guard;
        let ncc = template.xcorr_normalized(&residual);
        let peaks = find_peaks(&ncc, 0.25, template.len() / 2);
        !peaks.iter().any(|p| reach.contains(&p.index))
    })
}

/// The edge verdict from the public primitives, the slow way: a frame
/// that every demodulator over the whole segment, or over the samples
/// before its second peak cluster, finds, that is the only decode of
/// every demodulator over the segment up to its end plus the guard,
/// whose whole-correlation peak clusters before that point are its own
/// or [explained] by its cancellation, and past whose end no detection
/// lies, is kept — the span the lone exit judges. Otherwise the whole
/// segment is judged: every demodulator over it, then collision
/// evidence anywhere in it that the one decode does not explain.
fn judged_span_process(registry: &Registry, cluster_guard_s: f64, seg: &Segment) -> EdgeOutcome {
    let guard = (cluster_guard_s * FS).round().max(1.0) as usize;
    let clusters = cluster_starts(registry, guard, &seg.samples);
    let mut decoded = demodulate_all(registry, &seg.samples, seg.start);
    // A demodulator over a span finds one frame, and a lone frame lies
    // wholly before the second cluster.
    let mut candidates = decoded.clone();
    if let Some(&second) = clusters.get(1) {
        candidates.extend(demodulate_all(registry, &seg.samples[..second], seg.start));
    }
    candidates.sort_by_key(|f| f.start);
    // Whether the clusters before `upto` are `f`'s: each lies in its
    // reach (from the longest template before its start), and any past
    // the first its cancellation explains.
    let bank = registry.template_bank(FS);
    let longest = (0..bank.len()).map(|i| bank.template(i).len()).max();
    let longest = longest.unwrap_or(0);
    let kept = |f: &DecodedFrame, upto: usize| {
        let start = (f.start - seg.start).saturating_sub(longest);
        let reach = start..f.start + f.len - seg.start + guard;
        let reached: Vec<usize> = clusters.iter().copied().filter(|&c| c < upto).collect();
        let inside = reached.iter().all(|c| reach.contains(c));
        inside && (reached.len() < 2 || explained(registry, guard, seg, f))
    };
    for f in &candidates {
        let end = f.start + f.len;
        if seg.detections.iter().any(|d| d.start >= end) {
            continue;
        }
        let judged = &seg.samples[..(end - seg.start + guard).min(seg.samples.len())];
        let alone = demodulate_all(registry, judged, seg.start);
        let same =
            |g: &DecodedFrame| (g.tech, &g.payload, g.start) == (f.tech, &f.payload, f.start);
        let upto = end - seg.start + guard;
        let sighted = clusters.iter().any(|&c| c < upto);
        if alone.len() == 1 && same(&alone[0]) && sighted && kept(f, upto) {
            return EdgeOutcome::DecodedLocally(f.clone());
        }
    }
    match decoded.len() {
        1 if clusters.len() < 2 || kept(&decoded[0], usize::MAX) => {
            EdgeOutcome::DecodedLocally(decoded.remove(0))
        }
        _ => EdgeOutcome::ShipToCloud(decoded),
    }
}

/// One segment of the corpus and what it is.
struct Case {
    label: String,
    seg: Segment,
}

/// Builds the corpus. Every case draws from its own generator, seeded
/// by its position, so adding a family does not re-roll the others.
struct Corpus {
    registry: Registry,
    /// Segment length: twice the longest expected frame (paper, Sec. 4).
    seg_len: usize,
    front_end: RtlSdrFrontEnd,
    /// Raises each case's detections, as the gateway would.
    detector: UniversalDetector,
    cases: Vec<Case>,
}

impl Corpus {
    fn new() -> Self {
        let registry = Registry::prototype();
        let seg_len = 2 * registry.max_frame_samples_for(FS, MAX_EXPECTED_PAYLOAD);
        Corpus {
            seg_len,
            front_end: RtlSdrFrontEnd::new(Default::default()),
            detector: UniversalDetector::new(&registry, FS, 0.0),
            registry,
            cases: Vec::new(),
        }
    }

    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(scenario_seed(0xED6E_0000 + self.cases.len() as u64))
    }

    /// Composes `events` over noise, keeps the first `seg_len` samples
    /// (cutting off whatever runs past) and files the segment with the
    /// detections the universal detector raises on it. Every other case
    /// goes through the 8-bit front end, as every segment the gateway
    /// hands its edge decoder has.
    fn push(&mut self, label: String, events: &[TxEvent], noise: f32, rng: &mut StdRng) {
        let span = events
            .iter()
            .map(|e| e.start + e.tech.modulate(&e.payload, FS).len())
            .max()
            .unwrap_or(0);
        let mut samples = compose(events, span.max(self.seg_len), FS, noise, rng).samples;
        samples.truncate(self.seg_len);
        let digitized = self.cases.len() % 2 == 1;
        if digitized {
            samples = self.front_end.digitize(&samples);
        }
        let label = format!(
            "#{} {label}{}",
            self.cases.len(),
            if digitized { ", digitized" } else { "" }
        );
        self.file(label, samples);
    }

    fn file(&mut self, label: String, samples: Vec<galiot_dsp::Cf32>) {
        let detections = (self.detector.detect(&samples, FS).into_iter())
            .map(|d| Detection {
                start: d.start + SEG_START,
                ..d
            })
            .collect();
        self.cases.push(Case {
            label,
            seg: Segment {
                start: SEG_START,
                samples,
                detections,
            },
        });
    }

    /// Each technology alone: every SNR x payload size x a start on and
    /// off the demodulation-window grid.
    fn singles(&mut self) {
        for tech in self.registry.techs().to_vec() {
            let longest = tech.max_payload_len();
            for snr_db in SNRS_DB {
                for payload_len in [1, 8, MAX_EXPECTED_PAYLOAD, longest] {
                    for aligned in [true, false] {
                        let mut rng = self.rng();
                        let payload = random_payload(payload_len, &mut rng);
                        let frame_len = tech.modulate(&payload, FS).len();
                        if frame_len + 2 * WINDOW_ALIGN > self.seg_len {
                            continue; // covered by `truncated`
                        }
                        let room = (self.seg_len - frame_len) / WINDOW_ALIGN;
                        let mut start = rng.gen_range(1..room) * WINDOW_ALIGN;
                        if !aligned {
                            start += rng.gen_range(1..WINDOW_ALIGN);
                        }
                        let label = format!(
                            "{} alone, {snr_db} dB, {payload_len} B at {start}",
                            tech.id()
                        );
                        let noise = snr_to_noise_power(snr_db, 0.0);
                        self.push(
                            label,
                            &[TxEvent::new(tech.clone(), payload, start)],
                            noise,
                            &mut rng,
                        );
                    }
                }
            }
        }
    }

    /// Frames the segment end cuts off: mid-payload, mid-header and
    /// mid-preamble.
    fn truncated(&mut self) {
        for tech in self.registry.techs().to_vec() {
            for kept_share in [0.9, 0.5, 0.2, 0.05] {
                let mut rng = self.rng();
                let payload =
                    random_payload(MAX_EXPECTED_PAYLOAD.min(tech.max_payload_len()), &mut rng);
                let frame_len = tech.modulate(&payload, FS).len();
                let start = self.seg_len - (frame_len as f64 * kept_share) as usize;
                let label = format!("{} cut at {kept_share} of its length", tech.id());
                let noise = snr_to_noise_power(18.0, 0.0);
                self.push(
                    label,
                    &[TxEvent::new(tech.clone(), payload, start)],
                    noise,
                    &mut rng,
                );
            }
        }
    }

    /// Cross-technology collisions (LoRa + XBee, and all three) from
    /// fully aligned to preambles 60 k samples apart.
    fn collisions(&mut self) {
        for stagger in [0, 500, 1_500, 2_500, 5_000, 12_000, 30_000, 60_000] {
            for ways in [2usize, 3] {
                let mut rng = self.rng();
                let powers: Vec<f32> = (0..ways).map(|_| rng.gen_range(-3.0..=3.0)).collect();
                let base = rng.gen_range(2_000..20_000);
                let events = forced_collision(&self.registry, 10, &powers, stagger, base, &mut rng);
                let snr_db = SNRS_DB[rng.gen_range(1..SNRS_DB.len())];
                let weakest = powers.iter().copied().fold(f32::INFINITY, f32::min);
                let label = format!("{ways}-way collision, stagger {stagger}, {snr_db} dB");
                self.push(
                    label,
                    &events,
                    snr_to_noise_power(snr_db, weakest),
                    &mut rng,
                );
            }
        }
    }

    /// Two frames of one technology: back to back inside one cluster
    /// guard, a few guards apart, and far apart.
    fn same_technology_pairs(&mut self) {
        for tech in self.registry.techs().to_vec() {
            for gap in [200, 4_000, 40_000] {
                let mut rng = self.rng();
                let first = random_payload(8, &mut rng);
                let second = random_payload(8, &mut rng);
                let at = rng.gen_range(2_000..10_000);
                let next = at + tech.modulate(&first, FS).len() + gap;
                let label = format!("two {} frames {gap} apart", tech.id());
                let events = [
                    TxEvent::new(tech.clone(), first, at),
                    TxEvent::new(tech.clone(), second, next).with_power_db(-3.0),
                ];
                self.push(label, &events, snr_to_noise_power(18.0, -3.0), &mut rng);
            }
        }
    }

    /// LoRa frames that end in a run of plain up-chirps — a second
    /// "preamble" a frame length after the first (a 9-byte payload
    /// leaves one nibble in the last interleaver block; some values
    /// whiten it to zero).
    fn lora_lookalike_tails(&mut self) {
        let lora = self.registry.get(TechId::LoRa).expect("prototype").clone();
        let preamble = lora.preamble_waveform(FS);
        let m = preamble.len();
        let lookalikes = (0..=255u8).map(|b| vec![b; 9]).filter(|payload| {
            let frame = lora.modulate(payload, FS);
            let tail = &frame[frame.len() - m..];
            galiot_dsp::kernels::dot_conj(tail, &preamble).abs() > 0.9 * m as f32
        });
        for (payload, snr_db) in lookalikes.take(4).zip(SNRS_DB) {
            let mut rng = self.rng();
            let start = rng.gen_range(2_000..30_000);
            let label = format!("LoRa with a preamble-like tail, {snr_db} dB");
            let noise = snr_to_noise_power(snr_db, 0.0);
            self.push(
                label,
                &[TxEvent::new(lora.clone(), payload, start)],
                noise,
                &mut rng,
            );
        }
    }

    fn noise_only(&mut self) {
        for power in [1.0, 0.01] {
            let mut rng = self.rng();
            let samples = awgn(self.seg_len, power, &mut rng);
            self.file(
                format!("#{} noise only, power {power}", self.cases.len()),
                samples,
            );
        }
    }

    /// A lone frame with a second transmission after it, past its end
    /// plus the guard: one the universal detector misses — an XBee frame
    /// cut by the segment's end 1 500 samples in, its preamble whole:
    /// the universal template is 8 192 samples long, with the XBee
    /// preamble ≈ 5 000 into it, so no lag of it sees the frame, while
    /// the XBee preamble's own correlation does (the lone exit keeps the
    /// first frame and never reads the second, the whole segment would
    /// ship) — and one it detects, just past the guard (the lone exit
    /// is barred, the segment ships).
    fn second_transmissions(&mut self) {
        let guard = (DEFAULT_CLUSTER_GUARD_S * FS).round() as usize;
        let xbee = self.registry.get(TechId::XBee).expect("prototype").clone();
        for tech in self.registry.techs().to_vec() {
            if tech.id() == TechId::LoRa {
                // LoRa with a second transmission is `near_far.rs`'s
                // corpus; skipping it keeps these cases' seeds.
                continue;
            }
            for missed in [true, false] {
                let mut rng = self.rng();
                let payload = random_payload(8, &mut rng);
                let at = rng.gen_range(2_000..20_000);
                let end = at + tech.modulate(&payload, FS).len();
                let (second, next, power_db) = match missed {
                    true => (xbee.clone(), self.seg_len - 1_500, 0.0),
                    false => (
                        self.registry.techs()[rng.gen_range(1..3usize)].clone(),
                        end + guard + 500,
                        0.0,
                    ),
                };
                let label = format!("{} then {} at {next}", tech.id(), second.id());
                let events = [
                    TxEvent::new(tech.clone(), payload, at),
                    TxEvent::new(second, random_payload(8, &mut rng), next).with_power_db(power_db),
                ];
                self.push(label, &events, snr_to_noise_power(18.0, 0.0), &mut rng);
                let seg = &self.cases[self.cases.len() - 1].seg;
                let sighted = seg.detections.iter().any(|d| d.start >= SEG_START + end);
                assert_eq!(
                    sighted,
                    !missed,
                    "{}",
                    self.cases[self.cases.len() - 1].label
                );
            }
        }
    }
}

#[test]
fn correlate_once_edge_matches_the_whole_segment_edge() {
    let mut corpus = Corpus::new();
    corpus.singles();
    corpus.truncated();
    corpus.collisions();
    corpus.same_technology_pairs();
    corpus.lora_lookalike_tails();
    corpus.noise_only();
    corpus.second_transmissions();

    // The deployment default, under which a lone LoRa frame's
    // preamble sidelobes (two guards apart) and payload chirps are
    // clusters its residual must explain, and a guard wide enough to
    // take a whole LoRa preamble as one cluster, under which a second
    // decode through a collision is reached.
    let mut verdicts = [(0usize, 0usize); 2];
    let mut disagreements = Vec::new();
    for (tally, guard_s) in verdicts.iter_mut().zip([DEFAULT_CLUSTER_GUARD_S, 20.0e-3]) {
        let edge = EdgeDecoder::new(corpus.registry.clone()).with_cluster_guard_s(guard_s);
        for Case { label, seg } in &corpus.cases {
            let want = judged_span_process(&corpus.registry, guard_s, seg);
            let got = edge.process(seg, FS);
            let same = match (&want, &got) {
                (EdgeOutcome::DecodedLocally(w), EdgeOutcome::DecodedLocally(g)) => {
                    tally.0 += 1;
                    (w.tech, &w.payload, w.start) == (g.tech, &g.payload, g.start)
                }
                (EdgeOutcome::ShipToCloud(_), EdgeOutcome::ShipToCloud(_)) => {
                    tally.1 += 1;
                    true
                }
                _ => false,
            };
            if !same {
                disagreements.push(format!(
                    "{label}, guard {guard_s} s:\n  slow path {want:?}\n  correlate once {got:?}"
                ));
            }
        }
        println!(
            "guard {guard_s} s, {} segments: {} decoded locally, {} shipped, by both",
            corpus.cases.len(),
            tally.0,
            tally.1
        );
    }
    assert!(
        disagreements.is_empty(),
        "{} verdicts disagree:\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
    // The corpus must exercise both verdicts to compare anything.
    for (local, shipped) in verdicts {
        assert!(
            local >= 40 && shipped >= 20,
            "{local} local, {shipped} shipped"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The gateway's edge attempt reads a span of a digitized window in
    /// place, through buffers the last attempt left dirty; it
    /// must be the attempt `EdgeDecoder::process` makes on that span
    /// copied out into a `Segment` — verdict, frames and frame starts.
    #[test]
    fn edge_attempt_on_a_window_slice_is_the_attempt_on_its_copy(
        tech in 0usize..3,
        frame_at in 3_000usize..40_000,
        cut_at in 0usize..12_000,
        cut_len in 20_000usize..60_000,
        origin in 0usize..5_000_000,
        stale in 0usize..80_000,
        seed in any::<u64>(),
    ) {
        let registry = Registry::prototype();
        let mut rng = StdRng::seed_from_u64(seed);
        let tech = registry.techs()[tech].clone();
        let event = TxEvent::new(tech, random_payload(6, &mut rng), frame_at);
        let window = compose(&[event], 110_000, FS, snr_to_noise_power(15.0, 0.0), &mut rng).samples;
        let range = cut_at..cut_at + cut_len;
        let edge = EdgeDecoder::new(registry).with_cluster_guard_s(20.0e-3);
        let want = edge.process(
            &Segment {
                start: origin + range.start,
                samples: window[range.clone()].to_vec(),
                detections: Vec::new(),
            },
            FS,
        );
        // Buffers the attempt on another span, `stale` samples long,
        // left dirty.
        let mut buffers = EdgeBuffers::default();
        let mut attempt = |samples: &[galiot_dsp::Cf32], start: usize| {
            match edge.attempt(samples, start..start + samples.len(), FS, |_| false, None, &mut buffers) {
                Attempt::Final(outcome) | Attempt::Whole(outcome) => outcome,
                Attempt::Wait(..) => unreachable!("a whole span is judged"),
            }
        };
        attempt(&window[..stale], origin);
        let got = attempt(&window[range.clone()], origin + range.start);
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        // The same buffers, as the next span's attempt finds them.
        let again = attempt(&window[range.clone()], origin + range.start);
        prop_assert_eq!(format!("{again:?}"), format!("{want:?}"));
    }
}
