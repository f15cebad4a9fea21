//! Differential suite for the correlate-once edge decoder.
//!
//! `EdgeDecoder::process` correlates a segment against every preamble
//! once, ships on collision evidence without demodulating, and
//! otherwise demodulates each technology over the span of its own
//! peaks only. The reference here is the edge as it was before: every
//! technology's demodulator over the *whole segment*, then the same
//! correlation run a second time to decide whether the result may be
//! kept. On every segment of the corpus the two must return the same
//! variant and, for a local decode, the same frame at the same sample —
//! any disagreement is a failure, not a tolerance.
//!
//! Captures are seeded through `galiot_channel::scenario_seed`, so
//! `GALIOT_TEST_SEED` re-rolls all of them at once (CI sweeps it).

use galiot_channel::{
    awgn, compose, forced_collision, random_payload, scenario_seed, snr_to_noise_power, TxEvent,
};
use galiot_dsp::corr::find_peaks;
use galiot_gateway::{
    Detection, EdgeBuffers, EdgeDecoder, EdgeOutcome, RtlSdrFrontEnd, Segment,
    DEFAULT_CLUSTER_GUARD_S,
};
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

/// The edge verdict as it was computed before the correlate-once
/// rewrite, from the public primitives: demodulate everything over the
/// whole segment, then look for collision evidence.
fn whole_segment_process(
    registry: &Registry,
    cluster_guard_s: f64,
    seg: &Segment,
    fs: f64,
) -> EdgeOutcome {
    let mut decoded: Vec<DecodedFrame> = Vec::new();
    for tech in registry.techs() {
        if let Ok(mut frame) = tech.demodulate(&seg.samples, fs) {
            frame.start += seg.start;
            decoded.push(frame);
        }
    }
    let collision_suspected = || {
        let mut peak_positions: Vec<usize> = Vec::new();
        let bank = registry.template_bank(fs);
        for i in 0..bank.len() {
            let template = bank.template(i);
            if template.is_empty() || template.len() > seg.samples.len() {
                continue;
            }
            let ncc = template.xcorr_normalized(&seg.samples);
            for p in find_peaks(&ncc, 0.25, template.len() / 2) {
                peak_positions.push(p.index);
            }
        }
        peak_positions.sort_unstable();
        let guard = (cluster_guard_s * fs).round().max(1.0) as usize;
        let mut clusters = 0usize;
        let mut last: Option<usize> = None;
        for pos in peak_positions {
            if last.is_none_or(|l| pos - l > guard) {
                clusters += 1;
            }
            last = Some(pos);
        }
        clusters >= 2
    };
    match decoded.len() {
        1 if !collision_suspected() => EdgeOutcome::DecodedLocally(decoded.remove(0)),
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
    cases: Vec<Case>,
}

impl Corpus {
    fn new() -> Self {
        let registry = Registry::prototype();
        let seg_len = 2 * registry.max_frame_samples_for(FS, MAX_EXPECTED_PAYLOAD);
        Corpus {
            registry,
            seg_len,
            front_end: RtlSdrFrontEnd::new(Default::default()),
            cases: Vec::new(),
        }
    }

    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(scenario_seed(0xED6E_0000 + self.cases.len() as u64))
    }

    /// Composes `events` over noise, keeps the first `seg_len` samples
    /// (cutting off whatever runs past) and files the segment. Every
    /// other case goes through the 8-bit front end, as every segment
    /// the gateway hands its edge decoder has.
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
        self.cases.push(Case {
            label: format!(
                "#{} {label}{}",
                self.cases.len(),
                if digitized { ", digitized" } else { "" }
            ),
            seg: Segment {
                start: SEG_START,
                samples,
                detections: vec![Detection {
                    start: SEG_START,
                    score: 1.0,
                    tech: None,
                }],
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
            self.cases.push(Case {
                label: format!("#{} noise only, power {power}", self.cases.len()),
                seg: Segment {
                    start: SEG_START,
                    samples,
                    detections: Vec::new(),
                },
            });
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

    // The deployment default, under which a lone LoRa frame always
    // ships (its preamble's correlation sidelobes sit two guards
    // apart), and a guard wide enough to take a whole LoRa preamble as
    // one cluster — the only way LoRa's anchored demodulation, and a
    // second decode through a collision, are reached at all.
    let mut verdicts = [(0usize, 0usize); 2];
    let mut disagreements = Vec::new();
    for (tally, guard_s) in verdicts.iter_mut().zip([DEFAULT_CLUSTER_GUARD_S, 20.0e-3]) {
        let edge = EdgeDecoder::new(corpus.registry.clone()).with_cluster_guard_s(guard_s);
        for Case { label, seg } in &corpus.cases {
            let want = whole_segment_process(&corpus.registry, guard_s, seg, FS);
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
                    "{label}, guard {guard_s} s:\n  whole segment {want:?}\n  correlate once {got:?}"
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
        edge.process_slice(&window[..stale], origin, FS, &mut buffers);
        let got = edge.process_slice(&window[range.clone()], origin + range.start, FS, &mut buffers);
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        // The same buffers, as the next span's attempt finds them.
        let again =
            edge.process_slice(&window[range.clone()], origin + range.start, FS, &mut buffers);
        prop_assert_eq!(format!("{again:?}"), format!("{want:?}"));
    }
}
