//! The gateway half of the pipeline as one stage over a stream of
//! analog samples: digitize → detect → cut spans → edge attempt.
//!
//! A live session ([`crate::gateway_loop::run_gateway`]) is fed chunk by
//! chunk and flushes one fixed step of the capture at a time
//! ([`GatewayStage::feed`]); [`crate::pipeline::Galiot`] runs one flush
//! over a whole capture, the window being the capture. Either way each
//! lag is scored once, each peak is decided once over the session's
//! trace ([`DetectionStream`]), and a segment leaves with the first
//! flush decided past its bar, after which no detection can join it.
//! What differs — where an emitted segment goes — is the closures the
//! callers pass in (DESIGN.md §7, "The flush step").

use galiot_dsp::Cf32;
use galiot_gateway::{
    AnalogRing, AnalogView, Attempt, DetectionStream, EdgeBuffers, EdgeDecoder, EdgeOutcome,
    ExtractParams, LagScorer, RtlSdrFrontEnd, SlidingGain, UniversalDetector,
};
use galiot_phy::registry::Registry;
use galiot_phy::DecodedFrame;
use std::ops::Range;
use std::time::Instant;

use crate::config::GaliotConfig;
use crate::metrics::SharedMetrics;

/// The configured gateway stages. Immutable once built: what a session
/// carries from flush to flush is its [`StageBuffers`].
pub(crate) struct GatewayStage {
    fs: f64,
    front_end: RtlSdrFrontEnd,
    /// The universal preamble, behind the trait the tests' fakes share.
    scorer: Box<dyn LagScorer>,
    /// Extraction policy: the paper's 2× max frame, sized by the
    /// deployment's expected payloads.
    params: ExtractParams,
    /// `None` with edge decoding off: everything ships.
    edge: Option<EdgeDecoder>,
    /// W: a live flush takes its gain, and the detector its threshold,
    /// over the last W samples (four frames, two pre-guards and 128).
    window: usize,
    /// How far the capture moves between live flushes: one overlap-save
    /// block of the detector's template (24 577 samples at 1 Msps).
    step: usize,
}

/// What one gateway session — or one batch call — carries from flush
/// to flush.
pub(crate) struct StageBuffers {
    /// Capture index of the session's first sample.
    origin: usize,
    /// Samples the gain and the detector's threshold are taken over:
    /// the stage's window live, the whole capture in batch.
    window: usize,
    gain: SlidingGain,
    scan: DetectionStream,
    /// Where the detections of the span they merge into start, until it
    /// leaves: the span runs from a pre-guard before the first to two max
    /// frames past the last.
    merged: Vec<usize>,
    /// What the edge has made of that span so far. While it waits, it
    /// carries the capture index a flush must reach before the next
    /// attempt (`usize::MAX`: none until the span leaves).
    verdict: Attempt,
    /// A span's digitization — the head an attempt reads, or an emitted
    /// span — where the scan's does not hold it.
    span: Vec<Cf32>,
    /// Each edge attempt's correlation walks and demodulators.
    edge: EdgeBuffers,
    /// Every detection decided so far, in order, for the tests to check.
    #[cfg(test)]
    log: Vec<galiot_gateway::Detection>,
}

impl StageBuffers {
    /// The span the detections are merging into, if any.
    fn open(&self, p: ExtractParams) -> Option<Range<usize>> {
        let (first, last) = (self.merged.first()?, self.merged.last()?);
        Some(first.saturating_sub(p.pre_guard).max(self.origin)..last + 2 * p.max_frame_samples)
    }
}

/// A live session: the analog ring its flushes read, and its buffers.
pub(crate) struct Session {
    buffers: StageBuffers,
    /// The window as of the last flush, and what has arrived since.
    ring: AnalogRing,
}

/// One segment leaving the gateway stage.
pub(crate) struct Emitted<'a> {
    /// Capture index of `samples[0]`.
    pub(crate) start: usize,
    /// The digitized samples, in the session's buffers.
    pub(crate) samples: &'a [Cf32],
    /// The frame (start in capture coordinates) if the edge decoded
    /// the segment as a single clean packet; `None` ships it.
    pub(crate) edge_frame: Option<DecodedFrame>,
}

impl GatewayStage {
    pub(crate) fn new(config: &GaliotConfig, registry: &Registry) -> Self {
        let frame = registry
            .max_frame_samples_for(config.fs, config.max_expected_payload)
            .max(1);
        let params = ExtractParams::paper(frame);
        let scorer = UniversalDetector::new(registry, config.fs, config.detect_threshold);
        let window = 4 * frame + 2 * params.pre_guard + 128;
        GatewayStage {
            fs: config.fs,
            front_end: RtlSdrFrontEnd::new(config.front_end),
            edge: config.edge_decoding.then(|| {
                EdgeDecoder::new(registry.clone()).with_cluster_guard_s(config.edge_cluster_guard_s)
            }),
            step: scorer.peak_rule(window).block_lags,
            scorer: Box::new(scorer),
            params,
            window,
        }
    }

    /// Fresh buffers for a session whose first sample is capture index
    /// `origin`, with gain and threshold over `window` samples.
    pub(crate) fn buffers(&self, origin: usize, window: usize) -> StageBuffers {
        StageBuffers {
            origin,
            window,
            gain: SlidingGain::new(origin, window, window / self.step + 2),
            scan: DetectionStream::new(self.scorer.peak_rule(window), origin),
            merged: Vec::new(),
            verdict: Attempt::Wait(None, 0),
            span: Vec::new(),
            edge: EdgeBuffers::default(),
            #[cfg(test)]
            log: Vec::new(),
        }
    }

    /// A live session starting at capture index `origin`.
    pub(crate) fn session(&self, origin: usize) -> Session {
        Session {
            buffers: self.buffers(origin, self.window),
            ring: AnalogRing::new(origin, self.window + self.step),
        }
    }

    /// Feeds a live session `chunk`: one flush at every step boundary
    /// the chunk reaches (counted from the session's first sample) and,
    /// if `last`, one more where it ends.
    pub(crate) fn feed<E>(
        &self,
        s: &mut Session,
        mut chunk: &[Cf32],
        last: bool,
        metrics: &SharedMetrics,
        admit: &mut impl FnMut() -> Result<(), E>,
        emit: &mut impl FnMut(Emitted<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        loop {
            let due = self.step - (s.ring.end() - s.buffers.origin) % self.step;
            let (now, rest) = chunk.split_at(due.min(chunk.len()));
            s.ring.push(now);
            chunk = rest;
            let done = now.len() == due;
            if done || last {
                let view = s.ring.view();
                self.run(&mut s.buffers, view, !done, metrics, admit, emit)?;
            }
            if !done {
                return Ok(());
            }
            // Keep the window: the next gain reads back that far, and a
            // span still waiting starts inside it.
            s.ring.keep_last(self.window);
        }
    }

    /// One flush: the capture is known up to `analog`'s end. Detects
    /// over what the flush adds and merges the detections it decides into
    /// spans. One rule emits: the open span leaves once every lag before
    /// its bar is known — the horizon (the next detection, else all the
    /// flush decided, or, if `last`, the capture's end) is at or past the
    /// bar ([`GatewayStage::leaves`]) — and the detections from the bar on
    /// open the next span. The one exception is the ring: a span whose
    /// start is about to leave it goes as it stands, cut at the end, and
    /// carries on from the first detection whose extraction the cut
    /// truncated. An emitted span goes to `admit`, then with its edge
    /// verdict to `emit`; an `Err` from either ends the flush there.
    ///
    /// Books `detections`, `segments` (the admitted ones) and — on
    /// every way out — the flush's `gateway_busy_ns`.
    pub(crate) fn run<E>(
        &self,
        bufs: &mut StageBuffers,
        analog: AnalogView<'_>,
        last: bool,
        metrics: &SharedMetrics,
        admit: &mut impl FnMut() -> Result<(), E>,
        emit: &mut impl FnMut(Emitted<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let t0 = Instant::now();
        let (gain, end) = (bufs.gain.advance(&self.front_end, &analog), analog.end());
        // The span `span` leaves with the first `keep` merged detections.
        let mut out = |bufs: &mut StageBuffers, span: Range<usize>, keep: usize| {
            let latest = bufs.merged.drain(..keep).next_back().unwrap_or(0);
            // The span's verdict, leaving none for the next span.
            let mut verdict = std::mem::replace(&mut bufs.verdict, Attempt::Wait(None, 0));
            let span = span.start..span.end.min(end);
            admit()?;
            metrics.with(|m| m.segments += 1);
            let (fe, buf) = (&self.front_end, &mut bufs.span);
            let samples = bufs.scan.samples(fe, gain, &analog, span.clone(), buf);
            // Edge-first decode (paper, Sec. 4): handle clean single
            // packets locally, ship everything else. A span no attempt
            // concluded on is judged whole, barred by any detection at
            // or past its frame's end.
            if let (Attempt::Wait(frame, _), Some(edge)) = (&mut verdict, &self.edge) {
                let (late, frame) = (|r: Range<usize>| latest >= r.start, frame.take());
                verdict = edge.attempt(samples, span.clone(), self.fs, late, frame, &mut bufs.edge);
            }
            let edge_frame = match verdict {
                Attempt::Final(EdgeOutcome::DecodedLocally(frame))
                | Attempt::Whole(EdgeOutcome::DecodedLocally(frame)) => Some(frame),
                _ => None,
            };
            emit(Emitted {
                start: span.start,
                samples,
                edge_frame,
            })
        };
        let result = (|| {
            let scan = &mut bufs.scan;
            let detections = scan.flush(&*self.scorer, &self.front_end, gain, &analog, last);
            metrics.with(|m| m.detections += detections.len());
            #[cfg(test)]
            bufs.log.extend(&detections);
            let _extract = galiot_trace::span(galiot_trace::Stage::Extract, galiot_trace::NO_SEQ);
            for next in detections.into_iter().map(Some).chain([None]) {
                // Every lag before the horizon is known.
                let horizon = match next {
                    Some(d) => d.start,
                    None if last => usize::MAX,
                    None => bufs.scan.decided(),
                };
                while let Some((cut, bar)) =
                    (self.leaves(bufs, gain, &analog, last)).filter(|&(_, bar)| horizon >= bar)
                {
                    let keep = bufs.merged.partition_point(|&d| d < bar);
                    out(bufs, cut, keep)?;
                }
                let Some(d) = next else { break };
                let end = bufs.open(self.params).map(|o| o.end);
                match &mut bufs.verdict {
                    // The span grows past what was judged whole: it is
                    // judged again when it leaves.
                    Attempt::Whole(_) => bufs.verdict = Attempt::Wait(None, usize::MAX),
                    // An attempt that waits for the span's end waits for
                    // its new one.
                    Attempt::Wait(_, at) if end == Some(*at) => {
                        *at = d.start + 2 * self.params.max_frame_samples
                    }
                    _ => {}
                }
                bufs.merged.push(d.start);
            }
            // A span whose start is about to leave the ring goes as it
            // stands, and carries on from the first detection whose
            // extraction the cut truncated.
            if let Some(open) = (bufs.open(self.params)).filter(|o| o.start + bufs.window < end) {
                let reach = 2 * self.params.max_frame_samples;
                let keep = bufs.merged.iter().position(|&d| d + reach > end);
                out(bufs, open, keep.unwrap_or(bufs.merged.len()))?;
            }
            Ok(())
        })();
        metrics.with(|m| m.gateway_busy_ns += t0.elapsed().as_nanos() as u64);
        result
    }

    /// The open span's cut and its bar, the first lag at which a
    /// detection no longer joins it. A proven lone frame's span is cut at
    /// the end of its reach (the frame's end plus the guard,
    /// [`EdgeDecoder::reach`]) and barred a pre-guard past that, unless a
    /// detection in its reach or that pre-guard un-proves it; any other
    /// span reaches the paper's two max frames past its last detection,
    /// and a detection a pre-guard past that still joins.
    ///
    /// First the edge attempts the open span on what has arrived of it,
    /// once a flush while no attempt has concluded, once the span holds a
    /// block of every preamble's correlation (or, if `last`, all it
    /// will), and once the flush reaches the index the last attempt
    /// waits for (or is the last): the end of a demodulation window, or
    /// of a LoRa header that says where the window ends.
    fn leaves(
        &self,
        bufs: &mut StageBuffers,
        gain: f32,
        analog: &AnalogView<'_>,
        last: bool,
    ) -> Option<(Range<usize>, usize)> {
        let (end, open, pre) = (analog.end(), bufs.open(self.params)?, self.params.pre_guard);
        // Whether a detection lies in `reach` or a pre-guard past it.
        let joins = |merged: &[usize], r: &Range<usize>| {
            merged.iter().any(|&d| (r.start..r.end + pre).contains(&d))
        };
        if let (Some(edge), Attempt::Wait(frame, at)) = (&self.edge, &mut bufs.verdict) {
            let held = open.start..open.end.min(end);
            let head = if last { held.clone() } else { open.clone() };
            let due = *at <= end || (last && *at != usize::MAX);
            if due && (held.len() == head.len() || held.len() > edge.head(self.fs)) {
                let (fe, buf, frame) = (&self.front_end, &mut bufs.span, frame.take());
                let samples = bufs.scan.samples(fe, gain, analog, held, buf);
                let late = |r: Range<usize>| joins(&bufs.merged, &r);
                bufs.verdict = edge.attempt(samples, head, self.fs, late, frame, &mut bufs.edge);
            }
        }
        let verdict = (&self.edge, &bufs.verdict);
        if let (Some(edge), Attempt::Final(EdgeOutcome::DecodedLocally(frame))) = verdict {
            let reach = edge.reach(frame, self.fs);
            if !joins(&bufs.merged, &reach) {
                return Some((open.start..reach.end, reach.end + pre));
            }
            bufs.verdict = Attempt::Wait(Some(frame.clone()), usize::MAX);
        }
        let bar = open.end + pre + 1;
        Some((open, bar))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galiot_channel::{
        compose, forced_collision, random_payload, scenario_seed, snr_to_noise_power, TxEvent,
    };
    use galiot_dsp::corr::find_peaks;
    use galiot_gateway::{spans, Detection, FrontEndParams, PeakRule};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::convert::Infallible;
    use std::sync::{Arc, Mutex};

    /// Each `score_lags` call a scorer received: how many samples it
    /// read, and the scores it wrote.
    type Calls = Arc<Mutex<Vec<(usize, Vec<f32>)>>>;

    /// Passes every call through to `inner`, recording the scoring ones.
    struct Recorded<D> {
        inner: D,
        calls: Calls,
    }

    impl<D: LagScorer> LagScorer for Recorded<D> {
        fn peak_rule(&self, window_len: usize) -> PeakRule {
            self.inner.peak_rule(window_len)
        }

        fn score_lags(&self, capture: &[Cf32], trace: &mut Vec<f32>) {
            self.inner.score_lags(capture, trace);
            let mut calls = self.calls.lock().expect("a recording test panicked");
            calls.push((capture.len(), trace.clone()));
        }
    }

    /// The configured stage with `scorer`, recorded, in place of the
    /// universal preamble — flushing at the step it asks for — and the
    /// record.
    fn recorded_stage(
        config: &GaliotConfig,
        scorer: impl LagScorer + 'static,
    ) -> (GatewayStage, Calls) {
        let calls = Calls::default();
        let base = GatewayStage::new(config, &Registry::prototype());
        let step = scorer.peak_rule(base.window).block_lags;
        let scorer = Box::new(Recorded {
            inner: scorer,
            calls: calls.clone(),
        });
        let stage = GatewayStage {
            scorer,
            step,
            ..base
        };
        (stage, calls)
    }

    /// One emitted segment: how many flushes had run when it left, its
    /// capture range, its samples, its edge frame.
    type Emission = (usize, Range<usize>, Vec<Cf32>, Option<DecodedFrame>);

    /// What one live session did.
    struct Live {
        session: Session,
        emitted: Vec<Emission>,
        /// Every scoring call its scorer received.
        calls: Vec<(usize, Vec<f32>)>,
    }

    /// Feeds `analog` — a session's samples, from capture index `origin`
    /// on — in `chunk`-sample chunks, and closes the feed if `last`.
    fn feed(
        stage: &GatewayStage,
        calls: &Calls,
        origin: usize,
        analog: &[Cf32],
        chunk: usize,
        last: bool,
    ) -> Live {
        calls.lock().unwrap().clear();
        let (metrics, mut emitted) = (SharedMetrics::new(), Vec::new());
        let mut session = stage.session(origin);
        let mut admit = || Ok::<_, Infallible>(());
        let mut emit = |seg: Emitted<'_>| {
            let flushes = calls.lock().unwrap().len();
            let range = seg.start..seg.start + seg.samples.len();
            emitted.push((flushes, range, seg.samples.to_vec(), seg.edge_frame));
            Ok(())
        };
        for c in analog.chunks(chunk) {
            let Ok(()) = stage.feed(&mut session, c, false, &metrics, &mut admit, &mut emit);
        }
        if last {
            let Ok(()) = stage.feed(&mut session, &[], true, &metrics, &mut admit, &mut emit);
        }
        let m = metrics.snapshot();
        assert_eq!(m.detections, session.buffers.log.len());
        assert_eq!(m.segments, emitted.len());
        let calls = calls.lock().unwrap().clone();
        Live {
            session,
            emitted,
            calls,
        }
    }

    /// The first lag whose verdict a session that has scored `known`
    /// lags of `trace` cannot give yet: the first candidate of a run
    /// that a lag still unknown could join, else the newest lag (its
    /// candidacy waits for the next) — worked out over the whole trace.
    fn undecided(trace: &[f32], known: usize, threshold: f32, min_distance: usize) -> usize {
        let t = &trace[..known];
        let candidates: Vec<usize> = (1..known.saturating_sub(1))
            .filter(|&i| t[i] >= threshold && t[i - 1] <= t[i] && t[i + 1] < t[i])
            .collect();
        let mut run_start = 0;
        for (j, &c) in candidates.iter().enumerate() {
            if j == 0 || c - candidates[j - 1] >= min_distance {
                run_start = c;
            }
        }
        match candidates.last() {
            Some(&last) if known - 1 - last < min_distance => run_start,
            _ => known.saturating_sub(1),
        }
    }

    /// Holds one live session that was fed `analog` (its samples from
    /// capture index `origin` to its last flush) against its own trace:
    /// every flush scored one block of new lags; the detections are
    /// `find_peaks` over the whole trace with the window's threshold; the
    /// segments are `spans()` around them; and each left with the first
    /// flush after which no lag it could merge from was undecided.
    fn check(
        stage: &GatewayStage,
        m: usize,
        origin: usize,
        analog: &[Cf32],
        live: &Live,
        what: &str,
    ) {
        let (step, n, flushes) = (stage.step, analog.len(), live.calls.len());
        let end = |k: usize| if k + 1 == flushes { n } else { (k + 1) * step };
        let (mut trace, mut known) = (Vec::new(), 0);
        for (k, (read, lags)) in live.calls.iter().enumerate() {
            // The samples of the lags not scored yet, up to the flush's end.
            assert_eq!(*read, end(k) - known, "{what}: flush {k} read");
            known = (end(k) + 1).saturating_sub(m);
            trace.extend_from_slice(lags);
            assert_eq!(trace.len(), known, "{what}: flush {k} scored");
            if k > 0 && k + 1 < flushes {
                assert_eq!(
                    (*read, lags.len()),
                    (step + m - 1, step),
                    "{what}: one block"
                );
            }
        }
        let rule = stage.scorer.peak_rule(stage.window);
        let want: Vec<Detection> = find_peaks(&trace, rule.threshold, rule.min_distance)
            .into_iter()
            .map(Detection::from)
            .collect();
        let live_detections: Vec<Detection> = (live.session.buffers.log.iter())
            .map(|d| Detection {
                start: d.start - origin,
                ..*d
            })
            .collect();
        assert_eq!(live_detections, want, "{what}: detections");

        let (pre_guard, reach) = (stage.params.pre_guard, 2 * stage.params.max_frame_samples);
        let cut = spans(n, &want, stage.params);
        assert_eq!(live.emitted.len(), cut.len(), "{what}: segments");
        for ((flushed, range, samples, _), span) in live.emitted.iter().zip(&cut) {
            let rel = range.start - origin..range.end - origin;
            assert_eq!(rel, span.range, "{what}: span");
            // The settle point: no lag this span could still merge from
            // undecided — or its start leaving the ring, or the last flush.
            let hi = span.detections.last().expect("a span has detections").start + reach;
            let leaves = (0..flushes).find(|&k| {
                let known = (end(k) + 1).saturating_sub(m);
                k + 1 == flushes
                    || undecided(&trace, known, rule.threshold, rule.min_distance) > hi + pre_guard
                    || rel.start + stage.window < end(k)
            });
            assert_eq!(
                Some(*flushed - 1),
                leaves,
                "{what}: span {rel:?} left late or early"
            );
            if !stage.front_end.params().auto_gain {
                // One gain for every window: the samples are the span's.
                assert!(samples == &stage.front_end.digitize(&analog[rel]), "{what}");
            }
        }
    }

    /// A window to two of 18 dB noise with traffic `kind` in it,
    /// anywhere: none, a frame, two frames 30–100 k samples apart, or a
    /// LoRa + XBee cluster. (Clusters fit the ring: a segment cut when
    /// its start leaves it is the spikes test's business.)
    fn capture(stage: &GatewayStage, kind: usize, rng: &mut StdRng) -> Vec<Cf32> {
        let registry = Registry::prototype();
        let n = stage.window + rng.gen_range(0..stage.window);
        let frame = |at: usize, rng: &mut StdRng| {
            let tech = registry.techs()[rng.gen_range(0..3usize)].clone();
            TxEvent::new(tech, random_payload(rng.gen_range(4..=16), rng), at)
        };
        let at = rng.gen_range(0..n - 200_000);
        let events = match kind {
            0 => Vec::new(),
            1 => vec![frame(at, rng)],
            2 => vec![
                frame(at, rng),
                frame(at + rng.gen_range(30_000..100_000usize), rng),
            ],
            _ => forced_collision(
                &registry,
                8,
                &[0.0, 0.0],
                rng.gen_range(500..20_000),
                at,
                rng,
            ),
        };
        compose(&events, n, stage.fs, snr_to_noise_power(18.0, 0.0), rng).samples
    }

    #[test]
    fn live_sessions_detect_cut_and_emit_as_their_own_trace_says_at_any_chunking() {
        let quiet_edge = GaliotConfig {
            edge_decoding: false,
            ..GaliotConfig::prototype()
        };
        let fixed_gain = GaliotConfig {
            front_end: FrontEndParams {
                auto_gain: false,
                gain: 0.5,
                ..FrontEndParams::default()
            },
            ..quiet_edge.clone()
        };
        let registry = Registry::prototype();
        let mut segments = 0;
        for (c, config) in [quiet_edge, fixed_gain].iter().enumerate() {
            let detector = UniversalDetector::new(&registry, config.fs, config.detect_threshold);
            let m = detector.preamble().template.len();
            let (stage, calls) = recorded_stage(config, detector);
            let rule = stage.scorer.peak_rule(stage.window);
            assert!((rule.threshold - 0.0557).abs() < 5e-5, "{rule:?}");
            assert_eq!((stage.step, stage.window), (24_577, 436_416));
            for k in 0..24 {
                let seed = scenario_seed(0x5E77_0000 + (c * 100 + k) as u64);
                let mut rng = StdRng::seed_from_u64(seed);
                let analog = capture(&stage, k % 4, &mut rng);
                let auto_gain = config.front_end.auto_gain;
                let what = |how: &str| format!("auto gain {auto_gain}, seed {seed:#x}, {how}");
                let mut whole: Option<Vec<Emission>> = None;
                for chunk in [1, 7, 4_096, 65_536] {
                    let how = what(&format!("chunks of {chunk}"));
                    let live = feed(&stage, &calls, 0, &analog, chunk, true);
                    check(&stage, m, 0, &analog, &live, &how);
                    let first = whole.get_or_insert_with(|| live.emitted.clone());
                    assert!(
                        *first == live.emitted,
                        "{how}: not what chunks of 1 emitted"
                    );
                }
                // A restart mid-capture: the instance that dies emitted
                // what the whole session had by then; its successor is a
                // session of its own.
                let whole = whole.unwrap();
                let r = rng.gen_range(analog.len() / 3..2 * analog.len() / 3);
                let died = feed(&stage, &calls, 0, &analog[..r], 4_096, false);
                let flushes = died.calls.len();
                let by_then: Vec<Emission> =
                    (whole.iter().filter(|e| e.0 <= flushes)).cloned().collect();
                assert!(died.emitted == by_then, "{}", what("before the restart"));
                let restarted = feed(&stage, &calls, r, &analog[r..], 4_096, true);
                check(&stage, m, r, &analog[r..], &restarted, &what("restarted"));
                segments += whole.len();
            }
        }
        assert!(segments >= 24, "{segments} segments in 48 captures");
    }

    #[test]
    fn a_lone_frame_leaves_past_its_bar_and_a_collision_at_its_settle_point() {
        let config = GaliotConfig::prototype();
        let registry = Registry::prototype();
        let detector = UniversalDetector::new(&registry, config.fs, config.detect_threshold);
        let (stage, calls) = recorded_stage(&config, detector);
        let edge = stage.edge.as_ref().expect("edge decoding is on");
        let (pre_guard, reach) = (stage.params.pre_guard, 2 * stage.params.max_frame_samples);
        let bar = edge.cluster_guard(stage.fs) + pre_guard;
        let xbee = registry.get(galiot_phy::TechId::XBee).unwrap().clone();
        let mut rng = StdRng::seed_from_u64(scenario_seed(0x5E77_1000));
        let lone = vec![TxEvent::new(xbee, vec![0x5A; 8], 300_000)];
        let pair = forced_collision(&registry, 8, &[0.0, 1.0], 20_000, 300_000, &mut rng);
        for (what, events) in [("lone XBee", lone), ("LoRa+XBee", pair)] {
            let n = 2 * stage.window;
            let np = snr_to_noise_power(18.0, 0.0);
            let analog = compose(&events, n, stage.fs, np, &mut rng).samples;
            let live = feed(&stage, &calls, 0, &analog, 4_096, true);
            // The flush after which every lag before `at` is decided.
            let (mut trace, rule) = (Vec::new(), stage.scorer.peak_rule(stage.window));
            let flush_past = |trace: &mut Vec<f32>, at: usize| {
                trace.clear();
                (live.calls.iter()).position(|(_, lags)| {
                    trace.extend_from_slice(lags);
                    undecided(trace, trace.len(), rule.threshold, rule.min_distance) >= at
                })
            };
            let [(flushed, range, _, frame)] = &live.emitted[..] else {
                panic!(
                    "{what}: {:?}",
                    live.emitted.iter().map(|e| &e.1).collect::<Vec<_>>()
                );
            };
            match frame {
                Some(f) => {
                    // The span is cut at the frame's guard.
                    let end = f.start + f.len;
                    assert_eq!(range.end, end + bar - pre_guard, "{what}");
                    assert_eq!(
                        Some(*flushed - 1),
                        flush_past(&mut trace, end + bar),
                        "{what}"
                    );
                }
                None => {
                    let last = live.session.buffers.log.last().unwrap().start;
                    assert_eq!(range.end, last + reach, "{what}");
                    let settle = flush_past(&mut trace, last + reach + pre_guard + 1);
                    assert_eq!(Some(*flushed - 1), settle, "{what}");
                }
            }
            assert_eq!(frame.is_some(), what == "lone XBee", "{what}: {frame:?}");
        }
    }

    /// Scores every lag zero: an `m`-sample template read `block` lags a
    /// flush. Counts what it is asked, costs nothing.
    struct Lags {
        m: usize,
        block: usize,
    }

    impl LagScorer for Lags {
        fn peak_rule(&self, _window_len: usize) -> PeakRule {
            PeakRule {
                block_lags: self.block,
                threshold: 1.0,
                min_distance: 1,
            }
        }

        fn score_lags(&self, capture: &[Cf32], trace: &mut Vec<f32>) {
            trace.clear();
            trace.resize((capture.len() + 1).saturating_sub(self.m), 0.0);
        }
    }

    #[test]
    fn every_flush_scores_one_block_of_new_lags() {
        const M: usize = 8_192;
        const BLOCK: usize = 24_577;
        let detector = Lags { m: M, block: BLOCK };
        let (stage, calls) = recorded_stage(&GaliotConfig::prototype(), detector);
        assert_eq!(stage.step, BLOCK, "the step is the detector's block");
        let analog = vec![Cf32::ZERO; 10 * BLOCK + 1_234];
        let asked = |live: &Live| -> Vec<(usize, usize)> {
            (live.calls.iter())
                .map(|(read, lags)| (*read, lags.len()))
                .collect()
        };
        // The first flush reads its step, every later one the step and
        // the m − 1 samples before it — one overlap-save block — for a
        // block of lags; the last flush what is left.
        let mut want = vec![(BLOCK, BLOCK - M + 1)];
        want.extend([(BLOCK + M - 1, BLOCK); 9]);
        want.push((1_234 + M - 1, 1_234));
        for chunk in [1, 7, 4_096, 65_536, analog.len()] {
            let live = feed(&stage, &calls, 0, &analog, chunk, true);
            assert_eq!(asked(&live), want, "chunks of {chunk}");
        }
        // A restarted session starts over from its own first sample.
        let live = feed(&stage, &calls, 5_000, &analog[5_000..], 4_096, true);
        let got = asked(&live);
        assert_eq!(got[0], (BLOCK, BLOCK - M + 1));
        assert_eq!(got[1..9], [(BLOCK + M - 1, BLOCK); 8]);
        assert_eq!(got[9..], [(BLOCK - 3_766 + M - 1, BLOCK - 3_766)]);
        // A session shorter than the template scores nothing.
        let live = feed(&stage, &calls, 0, &analog[..M - 1], 7, true);
        assert_eq!(asked(&live), [(M - 1, 0)]);
        // A closed feed that ends on a step boundary flushes once more,
        // reading nothing new.
        let live = feed(&stage, &calls, 0, &analog[..2 * BLOCK], 7, true);
        assert_eq!(asked(&live).last(), Some(&(M - 1, 0)));
    }

    /// A one-sample template scoring each sample by its magnitude: every
    /// isolated nonzero sample is a peak, so a test puts detections
    /// exactly where it likes.
    struct Spikes;

    impl LagScorer for Spikes {
        fn peak_rule(&self, _window_len: usize) -> PeakRule {
            PeakRule {
                block_lags: 1_000,
                threshold: 0.5,
                min_distance: 300,
            }
        }

        fn score_lags(&self, capture: &[Cf32], trace: &mut Vec<f32>) {
            trace.clear();
            trace.extend(capture.iter().map(|z| z.abs()));
        }
    }

    #[test]
    fn a_segment_leaves_at_its_settle_point_or_when_it_would_leave_the_ring() {
        let config = GaliotConfig {
            front_end: FrontEndParams {
                auto_gain: false,
                gain: 1.0,
                dc_offset: 0.0,
                iq_gain_imbalance: 1.0,
                iq_phase_imbalance: 0.0,
                ..FrontEndParams::default()
            },
            edge_decoding: false,
            ..GaliotConfig::prototype()
        };
        let (stage, calls) = recorded_stage(&config, Spikes);
        let (step, window) = (stage.step, stage.window);
        let (pre_guard, reach) = (stage.params.pre_guard, 2 * stage.params.max_frame_samples);
        let n = 3_500_000;
        let mut analog = vec![Cf32::ZERO; n];
        let mut spike = |at: usize, v: f32| analog[at] = Cf32::from_re(v);
        // Flushes run by the first one to hold sample `at`.
        let by = |at: usize| (at + 1).div_ceil(step);
        // A lone detection's segment settles once the lags a detection
        // merging into it could sit on are known: the flush that holds
        // sample `hi + pre_guard + m` (m = 1).
        let settles = |d: usize| by(d + reach + pre_guard + 1);
        let mut want = Vec::new();
        let d1 = 100_000;
        spike(d1, 0.9);
        want.push((settles(d1), d1 - pre_guard..d1 + reach));
        // Two spans that overlap merge ...
        let (d2, d3) = (400_000, 500_000);
        spike(d2, 0.9);
        spike(d3, 0.9);
        want.push((settles(d3), d2 - pre_guard..d3 + reach));
        // ... one sample further apart they do not.
        let (d4, d5) = (900_000, 900_000 + reach + pre_guard + 1);
        spike(d4, 0.9);
        spike(d5, 0.9);
        want.push((settles(d4), d4 - pre_guard..d4 + reach));
        want.push((settles(d5), d5 - pre_guard..d5 + reach));
        // A weak candidate on the last lag that would merge, beaten by a
        // stronger one 200 lags on that would not: the segment waits for
        // that run to be decided, min_distance (300) past its last lag.
        let a = 1_560 * step - 1 - pre_guard - reach - 1;
        let (weak, strong) = (a + reach + pre_guard, a + reach + pre_guard + 200);
        assert_eq!(
            settles(a),
            1_560,
            "a lone spike at `a` settles on a flush boundary"
        );
        spike(a, 0.9);
        spike(weak, 0.6);
        spike(strong, 0.9);
        want.push((by(strong + 300), a - pre_guard..a + reach));
        want.push((settles(strong), strong - pre_guard..strong + reach));
        // A cluster longer than the ring holds: it leaves as it stands
        // when its start is about to drop out, and carries on from the
        // first detection whose extraction the cut truncated, where the
        // next detection merges into it.
        let (chain, hop) = (1_900_000, 150_000);
        for k in 0..4 {
            spike(chain + k * hop, 0.9);
        }
        let lo = chain - pre_guard;
        let leaves = (lo + window).div_ceil(step);
        assert!((lo + window) % step != 0 && chain + 2 * hop + reach > leaves * step);
        want.push((leaves, lo..leaves * step));
        let fourth = chain + 3 * hop;
        assert!(
            chain + hop + reach <= leaves * step,
            "the second's extraction is whole"
        );
        want.push((settles(fourth), chain + 2 * hop - pre_guard..fourth + reach));
        // A spike exactly `reach + pre_guard` past the last one still
        // merges: the default bar is closed. The pair spans the window
        // less 128 samples, so its start leaves the ring before the pair
        // settles, and it goes whole then.
        let (e1, e2) = (2_700_000, 2_700_000 + reach + pre_guard);
        spike(e1, 0.9);
        spike(e2, 0.9);
        let leaves = (e1 - pre_guard + window).div_ceil(step);
        assert!(leaves * step >= e2 + reach && leaves < settles(e2));
        want.push((leaves, e1 - pre_guard..e2 + reach));
        // The last flush cuts what is still open at the capture's end.
        let tail = n - 50_000;
        spike(tail, 0.9);
        for chunk in [7, 4_096, 65_536] {
            let live = feed(&stage, &calls, 0, &analog, chunk, true);
            let flushes = live.calls.len();
            assert_eq!(flushes, n / step + 1, "a last flush after the boundary");
            let mut want = want.clone();
            want.push((flushes, tail - pre_guard..n));
            let got: Vec<_> = (live.emitted.iter()).map(|e| (e.0, e.1.clone())).collect();
            assert_eq!(got, want, "chunks of {chunk}");
            let starts: Vec<usize> = live.session.buffers.log.iter().map(|d| d.start).collect();
            let mut placed = vec![d1, d2, d3, d4, d5, a, strong];
            placed.extend([chain, chain + hop, chain + 2 * hop, fourth, e1, e2, tail]);
            assert_eq!(starts, placed, "chunks of {chunk}: the weak candidate lost");
        }
    }
}
