//! Edge decoding: the paper's simple edge-vs-cloud split.
//!
//! "I/Q samples are pushed to the edge for decoding individual
//! technologies (assuming no collisions) and shipped to the cloud only
//! if decoding fails" (Sec. 4). The edge correlates a segment against
//! every registered preamble once, block by block, and ships it as soon
//! as the peaks found so far prove a collision; if the whole segment
//! shows a single packet, the technologies it could belong to are
//! demodulated where it sits and a lone clean decode is finished
//! locally. Everything else travels on.

use std::ops::ControlFlow;

use galiot_dsp::corr::{Peak, PeakStream};
use galiot_dsp::engine::{NccWalk, WalkScratch};
use galiot_dsp::Cf32;
use galiot_phy::common::{demodulate_anchored_with, DemodScratch, MAX_DEMOD_FIR_TAPS};
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

    /// The registry in use.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The paper's policy: the edge handles a segment locally only
    /// when it looks like a single clean packet — the segment shows no
    /// collision evidence *and* exactly one technology decodes. A
    /// robust technology (LoRa) can decode straight through a
    /// collision, so "one decode succeeded" alone is not enough: the
    /// still-buried frame would be silently lost.
    ///
    /// The preamble correlation that supplies the collision evidence
    /// also says where the one packet is, so it runs first and each
    /// technology is demodulated over the span of its own peaks only; a
    /// technology without a peak has no preamble in the segment to
    /// synchronize to and is not tried.
    pub fn process(&self, seg: &Segment, fs: f64) -> EdgeOutcome {
        self.process_slice(&seg.samples, seg.start, fs, &mut EdgeBuffers::default())
    }

    /// [`EdgeDecoder::process`] on samples still lying in the window
    /// they were detected in: `samples` begin at capture index `start`,
    /// and the attempt writes into `buffers`, kept by the caller from
    /// one segment to the next (whatever they held is never read).
    pub fn process_slice(
        &self,
        samples: &[Cf32],
        start: usize,
        fs: f64,
        buffers: &mut EdgeBuffers,
    ) -> EdgeOutcome {
        let _span = galiot_trace::span(galiot_trace::Stage::EdgeDecode, galiot_trace::NO_SEQ);
        let EdgeBuffers(walks, demod) = buffers;
        let ControlFlow::Continue(peaks) = self.preamble_peaks(samples, fs, walks) else {
            return EdgeOutcome::ShipToCloud(Vec::new());
        };
        let mut decoded = Vec::new();
        for (tech, at) in self.registry.techs().iter().zip(&peaks) {
            let Some(anchor) = at.first().zip(at.last()).map(|(a, b)| a.index..=b.index) else {
                continue;
            };
            if let Ok(mut frame) =
                demodulate_anchored_with(tech.as_ref(), samples, fs, anchor, ANCHOR_PAD, demod)
            {
                // Convert to capture coordinates.
                frame.start += start;
                decoded.push(frame);
            }
        }
        if decoded.len() == 1 {
            EdgeOutcome::DecodedLocally(decoded.remove(0))
        } else {
            EdgeOutcome::ShipToCloud(decoded)
        }
    }

    /// Where each technology's preamble correlates with the segment:
    /// per technology, in registry order, its normalized-correlation
    /// peaks in ascending order — or `Break` with the furthest lag any
    /// walk reached, as soon as the peaks show two clusters.
    ///
    /// Each technology's correlation is an [`galiot_dsp::engine::NccWalk`]
    /// feeding a [`PeakStream`], moved one block on at a time, the walk
    /// furthest behind first. Below the least lag every stream has
    /// decided no peak can still appear, and a later one cannot land
    /// between two earlier ones: two clusters there are two clusters of
    /// the whole segment.
    fn preamble_peaks(
        &self,
        samples: &[Cf32],
        fs: f64,
        scratch: &mut Vec<WalkScratch>,
    ) -> ControlFlow<usize, Vec<Vec<Peak>>> {
        let bank = self.registry.template_bank(fs);
        scratch.resize_with(bank.len(), WalkScratch::default);
        let mut walks: Vec<_> = (scratch.iter_mut().enumerate())
            .map(|(i, s)| {
                let t = bank.template(i);
                (t.walk(samples, s), PeakStream::new(0.25, t.len() / 2))
            })
            .collect();
        let mut peaks = vec![Vec::new(); walks.len()];
        let open = |w: &NccWalk| w.settled() < w.lags();
        while let Some((i, (walk, stream))) = (walks.iter_mut().enumerate())
            .filter(|(_, (w, _))| open(w))
            .min_by_key(|(_, (w, _))| w.walked())
        {
            if let Some(run) = walk.next_run() {
                stream.push(run, &mut peaks[i]);
            }
            if !open(walk) {
                stream.finish(&mut peaks[i]);
            }
            let decided = |(w, s): &(NccWalk, PeakStream)| open(w).then(|| s.decided());
            if self.two_clusters(&peaks, walks.iter().filter_map(decided).min(), fs) {
                let reached = walks.iter().map(|(w, _)| w.walked()).max();
                return ControlFlow::Break(reached.unwrap_or(0));
            }
        }
        ControlFlow::Continue(peaks)
    }

    /// Collision evidence: every technology's peaks (before lag `below`,
    /// if given) together fall into two or more clusters, each peak more
    /// than the guard distance from the one before starting a new one —
    /// co-located peaks of correlated preambles count as one. The guard
    /// is `cluster_guard_s` converted to samples at `fs`, so the verdict
    /// does not change with the capture rate.
    fn two_clusters(&self, peaks: &[Vec<Peak>], below: Option<usize>, fs: f64) -> bool {
        let guard = (self.cluster_guard_s * fs).round().max(1.0) as usize;
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
        /// Whether the segment's preamble peaks fall into two clusters,
        /// the test `process` starts with.
        fn collision_suspected(&self, seg: &Segment, fs: f64) -> bool {
            self.preamble_peaks(&seg.samples, fs, &mut Vec::new())
                .is_break()
        }
    }

    #[test]
    fn a_collision_ships_at_its_proof_and_a_lone_frame_walks_on() {
        // A collision segment as long as the gateway cuts them, at 18 dB.
        const LEN: usize = 272_000;
        let reg = Registry::prototype();
        let edge = EdgeDecoder::new(reg.clone());
        let np = snr_to_noise_power(18.0, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let lone = |id| {
            vec![TxEvent::new(
                reg.get(id).unwrap().clone(),
                vec![9, 8, 7, 6],
                20_000,
            )]
        };
        let pair = forced_collision(&reg, 8, &[0.0, 0.0], 2_000, 20_000, &mut rng);
        let cases = [
            ("LoRa+XBee", pair, true),
            // Its preamble's sidelobe comb reads as a second cluster.
            ("lone LoRa", lone(TechId::LoRa), true),
            ("lone XBee", lone(TechId::XBee), false),
            ("lone Z-Wave", lone(TechId::ZWave), false),
        ];
        for (what, events, ships) in cases {
            let cap = compose(&events, LEN, FS, np, &mut rng);
            let mut scratch = Vec::new();
            match edge.preamble_peaks(&cap.samples, FS, &mut scratch) {
                // Within the first fifth of the segment's blocks.
                ControlFlow::Break(reached) => {
                    assert!(ships, "{what}: shipped");
                    assert!(reached <= LEN / 5, "{what}: walked {reached} lags of {LEN}");
                }
                ControlFlow::Continue(_) => {
                    assert!(!ships, "{what}: walked every block");
                    let want = (events[0].tech.id(), events[0].payload.clone());
                    match edge.process(&seg_from(cap.samples, 0), FS) {
                        EdgeOutcome::DecodedLocally(f) => assert_eq!((f.tech, f.payload), want),
                        other => panic!("{what}: expected a local decode, got {other:?}"),
                    }
                }
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
