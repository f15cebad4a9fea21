//! Edge decoding: the paper's simple edge-vs-cloud split.
//!
//! "I/Q samples are pushed to the edge for decoding individual
//! technologies (assuming no collisions) and shipped to the cloud only
//! if decoding fails" (Sec. 4). The edge correlates a span against
//! every registered preamble once, block by block, and ships it as soon
//! as the peaks found so far prove a collision. Once the first cluster
//! of peaks is closed, the technologies peaking there are demodulated
//! where it sits; a lone clean decode is finished locally as soon as no
//! other cluster can lie before the frame's own end plus the guard —
//! the header says where the frame ends, so the rest of the span is not
//! read. Everything else travels on.

use std::ops::Range;

use galiot_dsp::corr::{Peak, PeakStream};
use galiot_dsp::engine::{NccWalk, WalkScratch};
use galiot_dsp::Cf32;
use galiot_phy::common::{
    anchored_window, demodulate_anchored_with, DemodScratch, MAX_DEMOD_FIR_TAPS,
};
use galiot_phy::registry::Registry;
use galiot_phy::DecodedFrame;

use crate::extract::Segment;

/// The edge's verdict on one segment.
#[derive(Clone, Debug)]
pub enum EdgeOutcome {
    /// A single technology decoded and nothing else claims the
    /// segment: done at the edge, nothing shipped.
    DecodedLocally(DecodedFrame),
    /// Decoding failed, more than one technology decoded, or the
    /// segment shows collision evidence: ship it to the cloud. Carries
    /// the frames decoded before the verdict — empty when collision
    /// evidence short-circuited demodulation.
    ShipToCloud(Vec<DecodedFrame>),
}

/// What an edge attempt on a span — or on the head of one still
/// arriving — concludes.
#[derive(Clone, Debug)]
pub enum Attempt {
    /// The verdict whatever the rest of the span holds: a collision, or
    /// a first cluster that does not decode to exactly one frame, ships;
    /// a lone frame with no other cluster before its end plus the guard
    /// stays.
    Final(EdgeOutcome),
    /// The verdict on the whole span, walked to its end: it stands as
    /// long as the span does.
    Whole(EdgeOutcome),
    /// The verdict needs more of the span. Carries the first cluster's
    /// frame once it is demodulated, for the next attempt to take as
    /// given.
    Wait(Option<DecodedFrame>),
}

/// How far either side of its preamble peaks a demodulator is given
/// samples: its channel filter's settling time plus the few samples a
/// correlation peak can sit off the true frame start.
const ANCHOR_PAD: usize = MAX_DEMOD_FIR_TAPS + 64;

/// Default collision cluster guard, in seconds: peaks closer than this
/// belong to one packet's preamble. 2.048 ms reproduces the historical
/// 2,048-sample guard at the prototype's 1 Msps capture rate.
pub const DEFAULT_CLUSTER_GUARD_S: f64 = 2.048e-3;

/// What an edge attempt writes: each technology's correlation walk and
/// the demodulators' intermediates. A gateway session keeps one from one
/// segment to the next.
#[derive(Debug, Default)]
pub struct EdgeBuffers(Vec<WalkScratch>, DemodScratch);

/// The edge decoder.
pub struct EdgeDecoder {
    registry: Registry,
    /// Collision cluster guard as a time constant (seconds); the
    /// sample-domain guard is derived from the capture rate at use, so
    /// shipping decisions are invariant under resampling.
    cluster_guard_s: f64,
}

impl EdgeDecoder {
    /// Creates an edge decoder over a registry.
    pub fn new(registry: Registry) -> Self {
        EdgeDecoder {
            registry,
            cluster_guard_s: DEFAULT_CLUSTER_GUARD_S,
        }
    }

    /// Sets the collision cluster guard (seconds). Peak clusters closer
    /// than this are counted as one packet.
    pub fn with_cluster_guard_s(mut self, guard_s: f64) -> Self {
        self.cluster_guard_s = guard_s;
        self
    }

    /// The collision cluster guard in seconds.
    pub fn cluster_guard_s(&self) -> f64 {
        self.cluster_guard_s
    }

    /// The collision cluster guard in samples at `fs`, so the verdict
    /// does not change with the capture rate.
    pub fn cluster_guard(&self, fs: f64) -> usize {
        (self.cluster_guard_s * fs).round().max(1.0) as usize
    }

    /// A lone frame's reach at `fs`: from its end to its end plus the
    /// guard, where the gateway cuts its span. [`EdgeDecoder::attempt`]
    /// hands it to `late`, which says whether a detection bars the frame
    /// from leaving alone.
    pub fn reach(&self, frame: &DecodedFrame, fs: f64) -> Range<usize> {
        let end = frame.start + frame.len;
        end..end + self.cluster_guard(fs)
    }

    /// The samples a span must hold before an attempt on it can decide
    /// anything: one overlap-save block of every preamble's correlation.
    pub fn head(&self, fs: f64) -> usize {
        let bank = self.registry.template_bank(fs);
        let block = |i| bank.template(i).block_lags() + bank.template(i).len() - 1;
        (0..bank.len()).map(block).max().unwrap_or(0)
    }

    /// The paper's policy: the edge handles a segment locally only
    /// when it looks like a single clean packet — no peak cluster
    /// besides the frame's own lies before the frame's end plus the
    /// guard, *and* exactly one technology peaking there decodes. A
    /// robust technology (LoRa) can decode straight through a
    /// collision, so "one decode succeeded" alone is not enough: the
    /// still-buried frame would be silently lost.
    ///
    /// The preamble correlation that supplies the collision evidence
    /// also says where the packet is, so it runs first and each
    /// technology is demodulated over the span of its own peaks only; a
    /// technology without a peak has no preamble to synchronize to and
    /// is not tried. A lone frame leaves at its own end unless one of
    /// the segment's detections lies at or after that end; then the
    /// whole segment is judged.
    pub fn process(&self, seg: &Segment, fs: f64) -> EdgeOutcome {
        let late = |r: Range<usize>| seg.detections.iter().any(|d| d.start >= r.start);
        let (span, buffers) = (seg.start..seg.end(), &mut EdgeBuffers::default());
        match self.attempt(&seg.samples, span, fs, late, None, buffers) {
            Attempt::Final(outcome) | Attempt::Whole(outcome) => outcome,
            Attempt::Wait(_) => unreachable!("a whole segment is judged"),
        }
    }

    /// The edge attempt on the capture range `span`, of which `samples`
    /// are the first ones, arrived so far (all of them in batch).
    /// `late(reach)` says whether a detection bars a lone frame with that
    /// [reach](EdgeDecoder::reach) from leaving there; `frame` is the first
    /// cluster's decode from an earlier attempt on the span. The attempt
    /// writes into `buffers`, kept by the caller from one span to the
    /// next (whatever they held is never read).
    ///
    /// Each technology's correlation is an [`NccWalk`] feeding a
    /// [`PeakStream`], moved one block on at a time, the walk furthest
    /// behind first; of a span still arriving, only blocks whose samples
    /// have all arrived are walked, so every lag is the whole span's.
    /// Below the least lag every stream has decided no peak can still
    /// appear, and a later one cannot land between two earlier ones: two
    /// clusters there are two clusters of the whole span, and a cluster
    /// with nothing within the guard after it is closed.
    pub fn attempt(
        &self,
        samples: &[Cf32],
        span: Range<usize>,
        fs: f64,
        late: impl Fn(Range<usize>) -> bool,
        mut frame: Option<DecodedFrame>,
        buffers: &mut EdgeBuffers,
    ) -> Attempt {
        let _span = galiot_trace::span(galiot_trace::Stage::EdgeDecode, galiot_trace::NO_SEQ);
        let (EdgeBuffers(scratch, demod), whole) = (buffers, samples.len() >= span.len());
        let (bank, guard) = (self.registry.template_bank(fs), self.cluster_guard(fs));
        scratch.resize_with(bank.len(), WalkScratch::default);
        let mut walks: Vec<_> = (scratch.iter_mut().enumerate())
            .map(|(i, s)| {
                let t = bank.template(i);
                (t.walk(samples, s), PeakStream::new(0.25, t.len() / 2))
            })
            .collect();
        let mut peaks = vec![Vec::new(); walks.len()];
        // A walk of a span still arriving stays open past the samples.
        let open = |w: &NccWalk| !whole || w.settled() < w.lags();
        loop {
            let open_walks = walks.iter().filter(|(w, _)| open(w));
            let below = open_walks.map(|(_, s)| s.decided()).min();
            let before = |at: usize| below.is_none_or(|b| b > at);
            if self.two_clusters(&peaks, below, guard) {
                return Attempt::Final(EdgeOutcome::ShipToCloud(Vec::new()));
            }
            let last = peaks.iter().flatten().map(|p| p.index).max();
            if frame.is_none() && last.is_some_and(|last| before(last + guard)) {
                // The first cluster is closed: demodulate what peaks in it.
                let mut decoded = Vec::new();
                for (tech, at) in self.registry.techs().iter().zip(&peaks) {
                    let (Some(a), Some(b)) = (at.first(), at.last()) else {
                        continue;
                    };
                    let (tech, anchor) = (tech.as_ref(), a.index..=b.index);
                    let window = anchored_window(tech, fs, anchor.clone(), ANCHOR_PAD, span.len());
                    let Some(held) = samples.get(..window.end) else {
                        return Attempt::Wait(None);
                    };
                    decoded.extend(
                        demodulate_anchored_with(tech, held, fs, anchor, ANCHOR_PAD, demod).ok(),
                    );
                }
                if decoded.len() != 1 {
                    return Attempt::Final(EdgeOutcome::ShipToCloud(decoded));
                }
                frame = decoded.pop().map(|f| DecodedFrame {
                    start: f.start + span.start,
                    ..f
                });
            }
            let leaves = |f: &&DecodedFrame| {
                let reach = self.reach(f, fs);
                before(reach.end - span.start) && !late(reach)
            };
            if let Some(f) = frame.as_ref().filter(leaves) {
                return Attempt::Final(EdgeOutcome::DecodedLocally(f.clone()));
            }
            let next = (walks.iter_mut().enumerate())
                .filter(|(_, (w, _))| open(w))
                .min_by_key(|(_, (w, _))| w.walked());
            let Some((i, (walk, stream))) = next else {
                let ship = EdgeOutcome::ShipToCloud(Vec::new());
                return Attempt::Whole(frame.map_or(ship, EdgeOutcome::DecodedLocally));
            };
            if !whole && walk.reads_to() >= samples.len() {
                return Attempt::Wait(frame);
            }
            if let Some(run) = walk.next_run() {
                stream.push(run, &mut peaks[i]);
            }
            if !open(walk) {
                stream.finish(&mut peaks[i]);
            }
        }
    }

    /// Collision evidence: every technology's peaks (before lag `below`,
    /// if given) together fall into two or more clusters, each peak more
    /// than `guard` samples from the one before starting a new one —
    /// co-located peaks of correlated preambles count as one.
    fn two_clusters(&self, peaks: &[Vec<Peak>], below: Option<usize>, guard: usize) -> bool {
        let at = || peaks.iter().flatten().map(|p| p.index);
        let at = || at().filter(|&p| below.is_none_or(|b| p < b));
        // Some peak past the first has none within the guard before it.
        let first = at().min();
        at().any(|p| Some(p) != first && at().all(|q| q >= p || p - q > guard))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::Detection;
    use galiot_channel::{compose, forced_collision, snr_to_noise_power, TxEvent};
    use galiot_phy::TechId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FS: f64 = 1_000_000.0;

    impl EdgeDecoder {
        /// Whether the segment's preamble peaks, over whole correlations,
        /// fall into two clusters.
        fn collision_suspected(&self, seg: &Segment, fs: f64) -> bool {
            let bank = self.registry.template_bank(fs);
            let peaks: Vec<Vec<Peak>> = (0..bank.len())
                .map(|i| {
                    let t = bank.template(i);
                    let ncc = t.xcorr_normalized(&seg.samples);
                    galiot_dsp::corr::find_peaks(&ncc, 0.25, t.len() / 2)
                })
                .collect();
            self.two_clusters(&peaks, None, self.cluster_guard(fs))
        }
    }

    #[test]
    fn a_collision_ships_at_its_proof_and_a_lone_frame_leaves_at_its_end() {
        // A collision segment as long as the gateway cuts them, at 18 dB.
        const LEN: usize = 272_000;
        const AT: usize = 20_000;
        let reg = Registry::prototype();
        let edge = EdgeDecoder::new(reg.clone());
        let np = snr_to_noise_power(18.0, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let lone = |id| {
            vec![TxEvent::new(
                reg.get(id).unwrap().clone(),
                vec![9, 8, 7, 6],
                AT,
            )]
        };
        let pair = forced_collision(&reg, 8, &[0.0, 0.0], 2_000, AT, &mut rng);
        let cases = [
            ("LoRa+XBee", pair, true),
            // Its preamble's sidelobe comb reads as a second cluster.
            ("lone LoRa", lone(TechId::LoRa), true),
            ("lone XBee", lone(TechId::XBee), false),
            ("lone Z-Wave", lone(TechId::ZWave), false),
        ];
        for (what, events, ships) in cases {
            let cap = compose(&events, LEN, FS, np, &mut rng);
            let frame_end = AT + events[0].tech.modulate(&events[0].payload, FS).len();
            // The head the attempt is handed: a quarter of the segment
            // (two LoRa blocks) for a collision, the frame's anchored
            // window and a LoRa block past it for a lone frame.
            let head = if ships { LEN / 4 } else { frame_end + 50_000 };
            let attempt = |n: usize, late: bool| {
                let mut buffers = EdgeBuffers::default();
                edge.attempt(&cap.samples[..n], 0..LEN, FS, |_| late, None, &mut buffers)
            };
            match (attempt(head, false), ships) {
                (Attempt::Final(EdgeOutcome::ShipToCloud(f)), true) => {
                    assert!(f.is_empty(), "{what}")
                }
                (Attempt::Final(EdgeOutcome::DecodedLocally(f)), false) => {
                    assert_eq!(
                        (f.tech, &f.payload),
                        (events[0].tech.id(), &events[0].payload)
                    );
                    assert!(
                        f.start.abs_diff(AT) <= 4 && f.start + f.len <= frame_end + 4,
                        "{what}"
                    );
                    // A detection past its end bars the exit: the attempt
                    // waits for the rest, and the whole segment keeps the frame.
                    assert!(
                        matches!(attempt(head, true), Attempt::Wait(Some(_))),
                        "{what}"
                    );
                    match attempt(LEN, true) {
                        Attempt::Whole(EdgeOutcome::DecodedLocally(g)) => {
                            assert_eq!(g.payload, f.payload)
                        }
                        other => panic!("{what}: the whole segment gave {other:?}"),
                    }
                }
                (other, _) => panic!("{what}: {other:?} on the first {head} samples"),
            }
        }
    }

    fn seg_from(samples: Vec<galiot_dsp::Cf32>, start: usize) -> Segment {
        Segment {
            start,
            samples,
            detections: vec![Detection {
                start,
                score: 1.0,
                tech: None,
            }],
        }
    }

    #[test]
    fn clean_single_packet_decodes_locally() {
        let mut rng = StdRng::seed_from_u64(1);
        let reg = Registry::prototype();
        let zwave = reg.get(TechId::ZWave).unwrap().clone();
        let ev = TxEvent::new(zwave, vec![7, 7, 7], 2_000);
        let np = snr_to_noise_power(15.0, 0.0);
        let cap = compose(&[ev], 60_000, FS, np, &mut rng);
        let edge = EdgeDecoder::new(reg);
        match edge.process(&seg_from(cap.samples, 0), FS) {
            EdgeOutcome::DecodedLocally(f) => {
                assert_eq!(f.tech, TechId::ZWave);
                assert_eq!(f.payload, vec![7, 7, 7]);
            }
            other => panic!("expected local decode, got {other:?}"),
        }
    }

    #[test]
    fn noise_only_ships_to_cloud() {
        let mut rng = StdRng::seed_from_u64(2);
        let noise = galiot_channel::awgn(60_000, 1.0, &mut rng);
        let edge = EdgeDecoder::new(Registry::prototype());
        match edge.process(&seg_from(noise, 0), FS) {
            EdgeOutcome::ShipToCloud(frames) => assert!(frames.is_empty()),
            other => panic!("expected ship, got {other:?}"),
        }
    }

    #[test]
    fn collision_ships_to_cloud() {
        // A same-band LoRa+XBee collision: the edge may decode some of
        // it, but must not claim the segment as a single clean packet
        // when two technologies decode.
        let mut rng = StdRng::seed_from_u64(3);
        let reg = Registry::prototype();
        let events = forced_collision(&reg, 8, &[0.0, 0.0], 2_000, 4_000, &mut rng);
        let np = snr_to_noise_power(20.0, 0.0);
        let cap = compose(&events, 400_000, FS, np, &mut rng);
        let edge = EdgeDecoder::new(reg);
        let outcome = edge.process(&seg_from(cap.samples, 0), FS);
        // Either both decode (ship with 2) or fewer decode (ship with
        // <=1 after failures) — but "decoded locally" with exactly one
        // clean frame is also possible if one tech survives the overlap
        // and the other is unrecoverable. Accept local only if the
        // frame is genuine.
        match outcome {
            EdgeOutcome::ShipToCloud(_) => {}
            EdgeOutcome::DecodedLocally(f) => {
                assert!(cap
                    .truth
                    .iter()
                    .any(|t| t.tech == f.tech && t.payload == f.payload));
            }
        }
    }

    fn two_copy_segment(fs: f64, gap_s: f64) -> Segment {
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let pre = xbee.preamble_waveform(fs);
        let gap = (gap_s * fs).round() as usize;
        // Offset the first copy so its correlation peak is interior
        // (find_peaks rejects boundary samples).
        let at = (1.0e-3 * fs).round() as usize;
        let mut samples = vec![galiot_dsp::Cf32::ZERO; at + gap + 2 * pre.len() + 4_000];
        for (k, &s) in pre.iter().enumerate() {
            samples[at + k] += s;
            samples[at + gap + k] += s;
        }
        seg_from(samples, 0)
    }

    #[test]
    fn cluster_guard_scales_with_sample_rate() {
        // Two XBee preambles 3.3 ms apart leave a peak-cluster gap of
        // ~1.56 ms (the periodic preamble's correlation sidelobes
        // bridge part of the spacing). That is inside the default
        // 2.048 ms guard, so the verdict is "one cluster, no
        // collision" — and it must stay that way at 2 Msps, where the
        // same gap is ~3,113 samples. A hard-coded 2,048-sample guard
        // (the old behavior) would have flipped to a false collision
        // there and shipped the segment needlessly.
        for &fs in &[1_000_000.0, 2_000_000.0] {
            let edge = EdgeDecoder::new(Registry::prototype());
            assert_eq!(
                (edge.cluster_guard_s() * fs).round() as usize,
                if fs > 1.5e6 { 4_096 } else { 2_048 }
            );
            assert!(
                !edge.collision_suspected(&two_copy_segment(fs, 3.3e-3), fs),
                "false collision at fs={fs}"
            );
        }
        // Tightening the guard below the cluster gap makes both rates
        // agree the clusters are distinct.
        for &fs in &[1_000_000.0, 2_000_000.0] {
            let edge = EdgeDecoder::new(Registry::prototype()).with_cluster_guard_s(1.0e-3);
            assert!(
                edge.collision_suspected(&two_copy_segment(fs, 3.3e-3), fs),
                "missed collision at fs={fs}"
            );
        }
    }

    #[test]
    fn frame_start_is_in_capture_coordinates() {
        let mut rng = StdRng::seed_from_u64(4);
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let ev = TxEvent::new(xbee, vec![1, 2], 5_000);
        let cap = compose(&[ev], 40_000, FS, 0.0, &mut rng);
        // Segment starting at 3_000 within the capture.
        let seg = seg_from(cap.samples[3_000..].to_vec(), 3_000);
        let edge = EdgeDecoder::new(reg);
        let frame = match edge.process(&seg, FS) {
            EdgeOutcome::DecodedLocally(f) => f,
            other => panic!("expected local decode, got {other:?}"),
        };
        assert_eq!(frame.tech, TechId::XBee);
        assert!(frame.start.abs_diff(5_000) <= 4, "start {}", frame.start);
    }
}
