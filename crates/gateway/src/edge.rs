//! Edge decoding: the paper's simple edge-vs-cloud split.
//!
//! "I/Q samples are pushed to the edge for decoding individual
//! technologies (assuming no collisions) and shipped to the cloud only
//! if decoding fails" (Sec. 4). The edge correlates a span against
//! every registered preamble once, block by block. Once the first
//! cluster of peaks is closed, the technologies peaking there are
//! demodulated where it sits; a lone clean decode F is finished locally
//! as soon as no other cluster can lie before the frame's own end plus
//! the guard — the header says where the frame ends, so the rest of the
//! span is not read. A cluster past the longest frame the first
//! cluster's technologies can send proves a collision at once; one
//! inside F's reach is evidence only if it survives F's cancellation
//! (the cloud's SIC step): F stays local only if the residual holds no
//! preamble peak there. Everything else travels on.

use std::ops::Range;

use galiot_dsp::corr::{Peak, PeakStream};
use galiot_dsp::engine::{NccWalk, WalkScratch};
use galiot_dsp::Cf32;
use galiot_phy::cancel::cancel_frame_into;
use galiot_phy::common::{demodulate_window, header_window, DemodScratch, MAX_DEMOD_FIR_TAPS};
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
    /// a lone frame with no unexplained cluster before its end plus the
    /// guard stays.
    Final(EdgeOutcome),
    /// The verdict on the whole span, walked to its end: it stands as
    /// long as the span does.
    Whole(EdgeOutcome),
    /// The verdict needs more of the span. Carries the first cluster's
    /// decode, once made, for the next attempt to take as given, and the
    /// capture index the span must be held to before another attempt can
    /// conclude more: the end of the window the first cluster is
    /// demodulated in, or one sample past what has arrived.
    Wait(Option<DecodedFrame>, usize),
}

/// How far either side of its preamble peaks a demodulator is given
/// samples: its channel filter's settling time plus the few samples a
/// correlation peak can sit off the true frame start.
const ANCHOR_PAD: usize = MAX_DEMOD_FIR_TAPS + 64;

/// How far from its decoded start a frame's remodulation is aligned
/// when the edge cancels it: the cloud's default `cancel_slack`.
const CANCEL_SLACK: usize = 64;

/// Default collision cluster guard, in seconds: peaks closer than this
/// belong to one packet's preamble. 2.048 ms reproduces the historical
/// 2,048-sample guard at the prototype's 1 Msps capture rate.
pub const DEFAULT_CLUSTER_GUARD_S: f64 = 2.048e-3;

/// What an edge attempt writes: each technology's correlation walk, the
/// demodulators' intermediates and, where a decoded frame's reach holds
/// another cluster, the span with the frame cancelled, its remodulation
/// and the residual's walks. A gateway session keeps one from one
/// segment to the next.
#[derive(Debug, Default)]
pub struct EdgeBuffers {
    walks: Vec<WalkScratch>,
    demod: DemodScratch,
    residual: Residual,
}

/// The span with a decoded frame cancelled, the frame's remodulation,
/// and the residual's correlation walks and peaks.
#[derive(Debug, Default)]
struct Residual {
    samples: Vec<Cf32>,
    reference: Vec<Cf32>,
    walks: Vec<WalkScratch>,
    peaks: Vec<Peak>,
}

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
    /// when it looks like a single clean packet — exactly one
    /// technology peaking in the first cluster decodes, and no other
    /// cluster lies before the frame's end plus the guard that the
    /// frame's cancellation does not explain. A robust technology (LoRa)
    /// can decode straight through a collision, so "one decode
    /// succeeded" alone is not enough: the still-buried frame would be
    /// silently lost.
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
            Attempt::Wait(..) => unreachable!("a whole segment is judged"),
        }
    }

    /// The edge attempt on the capture range `span`, of which `samples`
    /// are the first ones, arrived so far (all of them in batch).
    /// `late(reach)` says whether a detection bars a lone frame with that
    /// [reach](EdgeDecoder::reach) from leaving there; `frame` is the
    /// first cluster's decode, if an earlier attempt made it. The attempt
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
    ///
    /// Before the first cluster's frame F is decoded, only a cluster past
    /// its first peak plus the longest frame of the technologies peaking
    /// in it proves a collision. Once F is, a cluster outside its reach —
    /// template `i`'s lags from F's start less the template's length to
    /// F's end plus the guard — proves one; clusters inside it are
    /// evidence only if the residual, the span with F remodulated and
    /// cancelled, peaks there under the same templates, threshold and
    /// guard. The residual is formed only where such a cluster lies.
    pub fn attempt(
        &self,
        samples: &[Cf32],
        span: Range<usize>,
        fs: f64,
        late: impl Fn(Range<usize>) -> bool,
        frame: Option<DecodedFrame>,
        buffers: &mut EdgeBuffers,
    ) -> Attempt {
        let _span = galiot_trace::span(galiot_trace::Stage::EdgeDecode, galiot_trace::NO_SEQ);
        let whole = samples.len() >= span.len();
        let (bank, guard) = (self.registry.template_bank(fs), self.cluster_guard(fs));
        let EdgeBuffers {
            walks: scratch,
            demod,
            residual,
        } = buffers;
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
        let (more, ship) = (span.start + samples.len() + 1, |f: &DecodedFrame| {
            EdgeOutcome::ShipToCloud(vec![f.clone()])
        });
        // Whether F's cancellation explains every cluster in its reach,
        // asked once a cluster past the first is known (`Some(None)`: not
        // from what has arrived).
        let (mut frame, mut explained) = (frame, None);
        loop {
            let open_walks = walks.iter().filter(|(w, _)| open(w));
            let below = open_walks.map(|(_, s)| s.decided()).min();
            let before = |at: usize| below.is_none_or(|b| b > at);
            let second = later_clusters(&peaks, below, guard).min();
            // A technology's peaks in the first cluster.
            let anchor = |at: &[Peak]| {
                let mut first = at.iter().take_while(|p| second.is_none_or(|s| p.index < s));
                let a = first.next()?.index;
                Some(a..=first.last().map_or(a, |p| p.index))
            };
            if frame.is_none() {
                // A cluster past the longest frame the first cluster's
                // technologies send proves a collision; any other waits.
                let techs = self.registry.techs().iter().zip(&peaks);
                let earliest = decided(&peaks, below).min().unwrap_or(usize::MAX);
                let reach = (techs.filter(|(_, at)| anchor(at).is_some()))
                    .map(|(tech, _)| earliest.saturating_add(tech.max_frame_samples(fs)))
                    .max();
                if reach.is_some_and(|r| later_clusters(&peaks, below, guard).any(|c| c > r)) {
                    return Attempt::Final(EdgeOutcome::ShipToCloud(Vec::new()));
                }
                let last = peaks.iter().flatten().map(|p| p.index).max();
                if second.is_some() || last.is_some_and(|last| before(last + guard)) {
                    // The first cluster is closed: demodulate what peaks in it.
                    let mut decoded = Vec::new();
                    for (tech, at) in self.registry.techs().iter().zip(&peaks) {
                        let (tech, Some(anchor)) = (tech.as_ref(), anchor(at)) else {
                            continue;
                        };
                        let (pad, len) = (ANCHOR_PAD, span.len());
                        let window = header_window(tech, samples, fs, anchor, pad, len, demod);
                        let window = match window {
                            Ok(Ok(window)) if window.end <= samples.len() => window,
                            Ok(Ok(Range { end, .. })) | Err(end) => {
                                return Attempt::Wait(None, span.start + end)
                            }
                            // No header at the anchor: nothing to demodulate.
                            Ok(Err(_)) => continue,
                        };
                        decoded.extend(demodulate_window(tech, samples, fs, window, demod));
                    }
                    if decoded.len() != 1 {
                        return Attempt::Final(EdgeOutcome::ShipToCloud(decoded));
                    }
                    frame = decoded.pop().map(|f| DecodedFrame {
                        start: f.start + span.start,
                        ..f
                    });
                }
            }
            if let Some(f) = &frame {
                let lone = f.start - span.start..f.start - span.start + f.len;
                // A decided peak past the first cluster.
                let later = |p: usize| second.is_some_and(|s| p >= s) && before(p);
                let outside = |(i, at): (usize, &Vec<Peak>)| {
                    let reached = reached(&lone, bank.template(i).len(), guard);
                    at.iter()
                        .any(|p| later(p.index) && !reached.contains(&p.index))
                };
                if peaks.iter().enumerate().any(outside) {
                    return Attempt::Final(ship(f));
                }
                // A cluster inside the reach: is there a peak in F's residual?
                if second.is_some() && explained.is_none() {
                    explained = Some(self.explains(residual, samples, &span, f, fs));
                }
                if explained == Some(Some(false)) {
                    return Attempt::Final(ship(f));
                }
                let reach = self.reach(f, fs);
                if before(reach.end - span.start) && !late(reach) {
                    return match explained {
                        Some(None) => Attempt::Wait(Some(f.clone()), more),
                        _ => Attempt::Final(EdgeOutcome::DecodedLocally(f.clone())),
                    };
                }
            }
            let next = (walks.iter_mut().enumerate())
                .filter(|(_, (w, _))| open(w))
                .min_by_key(|(_, (w, _))| w.walked());
            let Some((i, (walk, stream))) = next else {
                return Attempt::Whole(match frame {
                    Some(f) => EdgeOutcome::DecodedLocally(f),
                    None => EdgeOutcome::ShipToCloud(Vec::new()),
                });
            };
            if !whole && walk.reads_to() >= samples.len() {
                return Attempt::Wait(frame, more);
            }
            if let Some(run) = walk.next_run() {
                stream.push(run, &mut peaks[i]);
            }
            if !open(walk) {
                stream.finish(&mut peaks[i]);
            }
        }
    }

    /// Whether cancelling `frame` from the `samples` that have arrived of
    /// `span` explains every cluster in the frame's reach: `Some(false)`
    /// at the residual's first decided peak there under any template (or
    /// if the frame cannot be aligned), `Some(true)` once every template
    /// has decided its reach clean, `None` if that needs samples that have
    /// not arrived. The template with the shortest blocks walks first, to
    /// its reach's end, as it costs least a lag: where one peak ships the
    /// span, the cheapest template to find it looks first. No lag before
    /// the longest template's reach sees the frame, so the residual starts
    /// there.
    fn explains(
        &self,
        residual: &mut Residual,
        samples: &[Cf32],
        span: &Range<usize>,
        frame: &DecodedFrame,
        fs: f64,
    ) -> Option<bool> {
        let whole = samples.len() >= span.len();
        let (bank, guard) = (self.registry.template_bank(fs), self.cluster_guard(fs));
        let tech = self
            .registry
            .get(frame.tech)
            .expect("its technology decoded it");
        let longest = (0..bank.len()).map(|i| bank.template(i).len()).max();
        let from = (frame.start - span.start).saturating_sub(longest.unwrap_or(0));
        let frame = &DecodedFrame {
            start: frame.start - span.start - from,
            ..frame.clone()
        };
        let Residual {
            samples: cancelled,
            reference,
            walks,
            peaks,
        } = residual;
        cancelled.clear();
        cancelled.extend_from_slice(&samples[from..]);
        let cancel =
            cancel_frame_into(cancelled, tech.as_ref(), frame, fs, CANCEL_SLACK, reference);
        if cancel.is_none() {
            return Some(false);
        }
        walks.resize_with(bank.len(), WalkScratch::default);
        let lone = frame.start..frame.start + frame.len;
        // Each template walks the residual from its reach's start.
        let mut walks: Vec<_> = (walks.iter_mut().enumerate())
            .map(|(i, s)| {
                let t = bank.template(i);
                let reach = reached(&lone, t.len(), guard);
                let (held, stream) = (
                    &cancelled[reach.start..],
                    PeakStream::new(0.25, t.len() / 2),
                );
                (
                    t.block_lags(),
                    t.walk(held, s),
                    stream,
                    reach.len(),
                    held.len(),
                )
            })
            .collect();
        let open = |(_, w, s, reach, _): &&mut (usize, NccWalk, PeakStream, usize, usize)| {
            s.decided() < *reach && (!whole || w.settled() < w.lags())
        };
        while let Some((_, walk, stream, reach, held)) =
            walks.iter_mut().filter(open).min_by_key(|w| w.0)
        {
            if !whole && walk.reads_to() >= *held {
                return None;
            }
            peaks.clear();
            if let Some(run) = walk.next_run() {
                stream.push(run, peaks);
            }
            if whole && walk.settled() == walk.lags() {
                stream.finish(peaks);
            }
            if peaks.iter().any(|p| p.index < *reach) {
                return Some(false);
            }
        }
        Some(true)
    }
}

/// Every technology's decided peaks — before lag `below`, if given — in
/// no order.
fn decided(peaks: &[Vec<Peak>], below: Option<usize>) -> impl Iterator<Item = usize> + Clone + '_ {
    let known = move |p: &usize| below.is_none_or(|b| *p < b);
    peaks.iter().flatten().map(|p| p.index).filter(known)
}

/// Where the decided peak clusters after the first start, in no order:
/// each at a peak more than `guard` samples past the one before it —
/// co-located peaks of correlated preambles count as one.
fn later_clusters(
    peaks: &[Vec<Peak>],
    below: Option<usize>,
    guard: usize,
) -> impl Iterator<Item = usize> + '_ {
    let at = decided(peaks, below);
    let first = at.clone().min();
    let opens = move |p: &usize| Some(*p) != first && at.clone().all(|q| q >= *p || *p - q > guard);
    decided(peaks, below).filter(opens)
}

/// The lags of an `m`-sample template that a frame occupying `frame`
/// reaches: from the first whose window overlaps it to its end plus the
/// guard.
fn reached(frame: &Range<usize>, m: usize, guard: usize) -> Range<usize> {
    frame.start.saturating_sub(m)..frame.end + guard
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
            later_clusters(&peaks, None, self.cluster_guard(fs)).count() > 0
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
        // The LoRa member past the XBee frame's end plus the guard.
        let xbee_first = [(TechId::XBee, AT), (TechId::LoRa, AT + 10_000)]
            .map(|(id, at)| TxEvent::new(reg.get(id).unwrap().clone(), vec![3; 8], at))
            .to_vec();
        let cases = [
            ("LoRa+XBee", pair, true),
            ("XBee+LoRa", xbee_first, true),
            // Its preamble's sidelobe comb and payload chirps peak past
            // its first cluster, inside its reach: its residual is clean.
            ("lone LoRa", lone(TechId::LoRa), false),
            ("lone XBee", lone(TechId::XBee), false),
            ("lone Z-Wave", lone(TechId::ZWave), false),
        ];
        for (what, events, ships) in cases {
            let cap = compose(&events, LEN, FS, np, &mut rng);
            let first = &events[0];
            let frame_end = AT + first.tech.modulate(&first.payload, FS).len();
            let attempt = |n: usize, late: bool| {
                let mut buffers = EdgeBuffers::default();
                edge.attempt(&cap.samples[..n], 0..LEN, FS, |_| late, None, &mut buffers)
            };
            // The head the attempt is handed: the frame's anchored window
            // and a LoRa block past it. A LoRa frame's window ends where
            // its header says the frame does, not LoRa's longest frame
            // past it: short of it, the attempt waits no further.
            let head = frame_end + 50_000;
            if first.tech.id() == TechId::LoRa {
                let waits = attempt(frame_end - 1_000, false);
                assert!(
                    matches!(waits, Attempt::Wait(_, at) if at <= frame_end + ANCHOR_PAD + 4),
                    "{what}: {waits:?}"
                );
            }
            match (attempt(head, false), ships) {
                (Attempt::Final(EdgeOutcome::ShipToCloud(f)), true) => {
                    // The first member decodes, and ships with the second:
                    // an XBee preamble left in a LoRa frame's residual, a
                    // LoRa preamble past an XBee frame's reach.
                    assert_eq!(f.len(), 1, "{what}: {f:?}");
                    assert_eq!(f[0].payload, first.payload, "{what}");
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
                        matches!(attempt(head, true), Attempt::Wait(Some(_), _)),
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
