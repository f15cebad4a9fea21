//! The gateway half of the pipeline as one stage over one analog
//! window: digitize → detect → cut spans → edge attempt.
//!
//! [`crate::pipeline::Galiot`] runs it once over a whole capture, a
//! live session's [`crate::gateway_loop::run_gateway`] once per flush
//! window; what differs between them — which spans are emitted now,
//! and where an emitted one goes — is the two closures they pass in.
//! Samples are never copied here: a segment is a range of the
//! digitized window, read in place by the edge attempt and handed to
//! the caller as a slice (DESIGN.md, "Who owns the samples").

use galiot_dsp::Cf32;
use galiot_gateway::{
    spans, Detection, EdgeDecoder, EdgeOutcome, ExtractParams, PacketDetector, RtlSdrFrontEnd,
};
use galiot_phy::registry::Registry;
use galiot_phy::DecodedFrame;
use std::ops::Range;
use std::time::Instant;

use crate::config::GaliotConfig;
use crate::metrics::SharedMetrics;
use crate::pipeline::build_detector;

/// The configured gateway stages. Immutable once built: what a session
/// carries from window to window is its [`StageBuffers`].
pub(crate) struct GatewayStage {
    fs: f64,
    front_end: RtlSdrFrontEnd,
    detector: Box<dyn PacketDetector>,
    /// Extraction policy: the paper's 2× max frame, sized by the
    /// deployment's expected payloads.
    pub(crate) params: ExtractParams,
    /// `None` with edge decoding off: everything ships.
    edge: Option<EdgeDecoder>,
}

/// The buffers one gateway session (or one batch call) digitizes and
/// correlates into, window after window.
#[derive(Default)]
pub(crate) struct StageBuffers {
    /// The last window, digitized.
    digital: Vec<Cf32>,
    /// The detector's correlation trace over the last window, kept so
    /// that the next window's detection resumes where the two overlap
    /// (DESIGN.md, "Who owns the samples").
    trace: Vec<f32>,
    /// Capture index of `trace[0]`.
    trace_origin: usize,
    /// Each edge attempt's correlation trace.
    edge_trace: Vec<f32>,
}

impl StageBuffers {
    /// Moves the lags the window `origin .. origin + len` shares with
    /// the last one to the front of `trace` and returns how many they
    /// are. Nothing is carried — and nothing of the old trace is left —
    /// unless the new window starts inside the old trace and reaches at
    /// least as far as the old window did, which is what makes every
    /// kept lag a lag of the new window too.
    fn carry(&mut self, origin: usize, len: usize) -> usize {
        // `digital` still holds the window the trace was computed over.
        let old_end = self.trace_origin + self.digital.len();
        let shift = origin
            .checked_sub(self.trace_origin)
            .filter(|&shift| shift <= self.trace.len() && origin + len >= old_end);
        match shift {
            Some(shift) => {
                self.trace.copy_within(shift.., 0);
                self.trace.truncate(self.trace.len() - shift);
            }
            None => self.trace.clear(),
        }
        self.trace_origin = origin;
        self.trace.len()
    }
}

/// One segment leaving the gateway stage.
pub(crate) struct Emitted<'a> {
    /// Capture index of `samples[0]`.
    pub(crate) start: usize,
    /// The digitized samples, still in the window's buffer.
    pub(crate) samples: &'a [Cf32],
    /// The frame (start in capture coordinates) if the edge decoded
    /// the segment as a single clean packet; `None` ships it.
    pub(crate) edge_frame: Option<DecodedFrame>,
}

impl GatewayStage {
    pub(crate) fn new(config: &GaliotConfig, registry: &Registry) -> Self {
        let window = registry
            .max_frame_samples_for(config.fs, config.max_expected_payload)
            .max(1);
        GatewayStage {
            fs: config.fs,
            front_end: RtlSdrFrontEnd::new(config.front_end),
            detector: build_detector(config, registry),
            params: ExtractParams::paper(window),
            edge: config.edge_decoding.then(|| {
                EdgeDecoder::new(registry.clone()).with_cluster_guard_s(config.edge_cluster_guard_s)
            }),
        }
    }

    /// Digitizes `analog` and runs detection only.
    pub(crate) fn detect(&self, analog: &[Cf32]) -> Vec<Detection> {
        self.scan(&mut StageBuffers::default(), analog, 0)
    }

    /// Digitizes the window whose first sample is capture index
    /// `origin` and detects over it, correlating only the lags
    /// `buffers` does not already hold from the window before.
    fn scan(&self, buffers: &mut StageBuffers, analog: &[Cf32], origin: usize) -> Vec<Detection> {
        let valid = buffers.carry(origin, analog.len());
        self.front_end.digitize_into(analog, &mut buffers.digital);
        self.detector
            .detect_resuming(&buffers.digital, self.fs, &mut buffers.trace, valid)
    }

    /// Runs the gateway stages over one window whose first sample is
    /// capture index `origin`. Each span extraction cuts is offered, as
    /// a capture range and in capture order, to `admit`; an admitted
    /// one gets its edge attempt and goes to `emit`. An `Err` from
    /// either closure ends the window there.
    ///
    /// Books `detections`, `segments` (the admitted ones) and — on
    /// every way out — the window's `gateway_busy_ns`.
    pub(crate) fn run<E>(
        &self,
        buffers: &mut StageBuffers,
        analog: &[Cf32],
        origin: usize,
        metrics: &SharedMetrics,
        mut admit: impl FnMut(Range<usize>) -> Result<bool, E>,
        mut emit: impl FnMut(Emitted<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let t0 = Instant::now();
        let result = (|| {
            let detections = self.scan(buffers, analog, origin);
            let (digital, edge_trace) = (&buffers.digital, &mut buffers.edge_trace);
            metrics.with(|m| m.detections += detections.len());
            for span in spans(digital.len(), &detections, self.params) {
                let start = origin + span.range.start;
                if !admit(start..origin + span.range.end)? {
                    continue;
                }
                metrics.with(|m| m.segments += 1);
                let samples = &digital[span.range];
                // Edge-first decode (paper, Sec. 4): handle clean single
                // packets locally, ship everything else.
                let edge_frame = self.edge.as_ref().and_then(|edge| {
                    match edge.process_slice(samples, start, self.fs, edge_trace) {
                        EdgeOutcome::DecodedLocally(frame) => Some(frame),
                        EdgeOutcome::ShipToCloud(_) => None,
                    }
                });
                emit(Emitted {
                    start,
                    samples,
                    edge_frame,
                })?;
            }
            Ok(())
        })();
        metrics.with(|m| m.gateway_busy_ns += t0.elapsed().as_nanos() as u64);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galiot_channel::{
        compose, forced_collision, random_payload, scenario_seed, snr_to_noise_power, TxEvent,
    };
    use galiot_gateway::{FrontEndParams, UniversalDetector};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::convert::Infallible;
    use std::sync::{Arc, Mutex};

    /// What a detector was asked and what it answered, call by call:
    /// `(valid, detections)`.
    type Calls = Arc<Mutex<Vec<(usize, Vec<Detection>)>>>;

    /// Passes every call through to `inner` and keeps a record of it.
    struct Recorded<D> {
        inner: D,
        calls: Calls,
    }

    impl<D: PacketDetector> PacketDetector for Recorded<D> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn detect_resuming(
            &self,
            capture: &[Cf32],
            fs: f64,
            trace: &mut Vec<f32>,
            valid: usize,
        ) -> Vec<Detection> {
            let detections = self.inner.detect_resuming(capture, fs, trace, valid);
            let mut calls = self.calls.lock().expect("a recording test panicked");
            calls.push((valid, detections.clone()));
            detections
        }

        fn complexity_per_sample(&self, fs: f64) -> f64 {
            self.inner.complexity_per_sample(fs)
        }
    }

    /// A resuming detector that never detects: it leaves one score per
    /// lag of an `m`-sample template, as the contract asks.
    struct Lags(usize);

    impl PacketDetector for Lags {
        fn name(&self) -> &'static str {
            "lags"
        }

        fn detect_resuming(
            &self,
            capture: &[Cf32],
            _fs: f64,
            trace: &mut Vec<f32>,
            _valid: usize,
        ) -> Vec<Detection> {
            trace.resize((capture.len() + 1).saturating_sub(self.0), 0.0);
            Vec::new()
        }

        fn complexity_per_sample(&self, _fs: f64) -> f64 {
            0.0
        }
    }

    /// The configured stage with `inner`, recorded, for a detector, and
    /// the record of its calls.
    fn recorded_stage(
        config: &GaliotConfig,
        inner: impl PacketDetector + 'static,
    ) -> (GatewayStage, Calls) {
        let calls = Calls::default();
        let stage = GatewayStage {
            detector: Box::new(Recorded {
                inner,
                calls: calls.clone(),
            }),
            ..GatewayStage::new(config, &Registry::prototype())
        };
        (stage, calls)
    }

    /// One admitted span and what became of it.
    type Outcome = (Range<usize>, Option<String>);

    /// Runs one window with every span admitted.
    fn run_window(
        stage: &GatewayStage,
        buffers: &mut StageBuffers,
        analog: &[Cf32],
        origin: usize,
    ) -> Vec<Outcome> {
        let mut ranges = Vec::new();
        let mut outcomes = Vec::new();
        let Ok(()) = stage.run(
            buffers,
            analog,
            origin,
            &SharedMetrics::new(),
            |range| {
                ranges.push(range);
                Ok::<_, Infallible>(true)
            },
            |seg| {
                let range = seg.start..seg.start + seg.samples.len();
                outcomes.push((range, seg.edge_frame.map(|f| format!("{f:?}"))));
                Ok(())
            },
        );
        let emitted: Vec<_> = outcomes.iter().map(|(range, _)| range.clone()).collect();
        assert_eq!(ranges, emitted, "every admitted span is emitted");
        outcomes
    }

    /// The live session's flush grid for `stage` (DESIGN.md §7):
    /// `(flush_len, stride)`.
    fn flush_grid(stage: &GatewayStage) -> (usize, usize) {
        let window = stage.params.max_frame_samples;
        let stride = 2 * window;
        (
            stride + 2 * window + 2 * stage.params.pre_guard + 128,
            stride,
        )
    }

    #[test]
    fn the_hint_is_the_overlap_and_nothing_after_an_invalidation() {
        const M: usize = 8_192;
        let (stage, calls) = recorded_stage(&GaliotConfig::prototype(), Lags(M));
        let (flush_len, stride) = flush_grid(&stage);
        let steady = flush_len - M + 1 - stride;
        let analog = vec![Cf32::ZERO; 2 * flush_len];
        let mut buffers = StageBuffers::default();
        let hint = |buffers: &mut StageBuffers, origin: usize, len: usize| {
            run_window(&stage, buffers, &analog[..len], origin);
            let (valid, _) = calls.lock().unwrap().pop().expect("one call per window");
            valid
        };

        // A session's life: nothing to resume, then the overlap — also
        // into the shorter window a closing feed leaves, as long as it
        // reaches as far as the one before.
        assert_eq!(hint(&mut buffers, 0, flush_len), 0);
        assert_eq!(hint(&mut buffers, stride, flush_len), steady);
        assert_eq!(hint(&mut buffers, 2 * stride, flush_len), steady);
        assert_eq!(hint(&mut buffers, 3 * stride, flush_len - stride), steady);
        assert_eq!(steady, flush_len - stride - M + 1, "all of its lags");
        // The same window again knows every lag.
        assert_eq!(
            hint(&mut buffers, 3 * stride, flush_len - stride),
            steady,
            "nothing moved"
        );

        // A window shorter than the template has no lags and leaves none.
        assert_eq!(hint(&mut buffers, 3 * stride, flush_len), steady);
        assert_eq!(hint(&mut buffers, 4 * stride, M - 1), 0);
        assert_eq!(hint(&mut buffers, 4 * stride, flush_len), 0);
        // The origin moved backwards.
        assert_eq!(hint(&mut buffers, 5 * stride, flush_len), steady);
        assert_eq!(hint(&mut buffers, 4 * stride, flush_len), 0);
        assert_eq!(hint(&mut buffers, 5 * stride, flush_len), steady);
        // The origin moved past the trace: onto its last lag is the
        // furthest a window can still resume from.
        let lags = flush_len - M + 1;
        assert_eq!(hint(&mut buffers, 5 * stride + lags - 1, flush_len), 1);
        assert_eq!(hint(&mut buffers, 5 * stride + 2 * lags, flush_len), 0);
        // A restarted session starts from fresh buffers.
        assert_eq!(hint(&mut StageBuffers::default(), 6 * stride, flush_len), 0);
        // A last window with fewer lags than were carried: it ends
        // before the one before it did.
        assert_eq!(hint(&mut buffers, 0, flush_len), 0);
        assert_eq!(hint(&mut buffers, stride, flush_len - stride - 1), 0);
    }

    /// A capture of three full flush windows and a shorter last one,
    /// with traffic `kind` somewhere in it.
    fn flush_sequence(stage: &GatewayStage, kind: usize, rng: &mut StdRng) -> Vec<Cf32> {
        let registry = Registry::prototype();
        let (flush_len, stride) = flush_grid(stage);
        let n = flush_len + 2 * stride + rng.gen_range(1..stride);
        let frame = |rng: &mut StdRng| {
            let tech = registry.techs()[rng.gen_range(0..3usize)].clone();
            let payload = random_payload(rng.gen_range(4..=16), rng);
            TxEvent::new(tech, payload, rng.gen_range(0..n - stride))
        };
        let events = match kind {
            0 => Vec::new(),
            1 => vec![frame(rng)],
            2 => vec![frame(rng), frame(rng)],
            // LoRa + XBee, overlapping.
            _ => {
                let at = rng.gen_range(0..n - stride);
                forced_collision(
                    &registry,
                    8,
                    &[0.0, 0.0],
                    rng.gen_range(500..20_000),
                    at,
                    rng,
                )
            }
        };
        compose(&events, n, stage.fs, snr_to_noise_power(18.0, 0.0), rng).samples
    }

    /// What a flush sequence must come to, window by window, worked out
    /// from whole-window traces alone. A lag's score is the one it had
    /// in the fresh trace of the first window to hold its samples whole
    /// (under auto gain a later window digitizes them with another
    /// gain, and scores them a little differently: which of two comb
    /// peaks of a LoRa preamble wins the suppression can change, so the
    /// fresh detections themselves are no reference there); detections
    /// are the detector's own peak picking over those scores, spans
    /// what extraction cuts around them.
    #[test]
    fn a_carried_trace_is_each_lags_first_score_and_detects_over_all_of_them() {
        let fixed_gain = GaliotConfig {
            front_end: FrontEndParams {
                auto_gain: false,
                gain: 0.5,
                ..FrontEndParams::default()
            },
            ..GaliotConfig::prototype()
        };
        let starts = |d: &[Detection]| d.iter().map(|d| d.start).collect::<Vec<_>>();
        let (mut resumed_lags, mut emitted) = (0, 0);
        for (c, config) in [GaliotConfig::prototype(), fixed_gain].iter().enumerate() {
            let auto_gain = config.front_end.auto_gain;
            let registry = Registry::prototype();
            let detector = || UniversalDetector::new(&registry, config.fs, config.detect_threshold);
            let (carrying, carried_calls) = recorded_stage(config, detector());
            let (fresh, fresh_calls) = recorded_stage(config, detector());
            let reference = detector();
            let (flush_len, stride) = flush_grid(&carrying);
            for sequence in 0..24 {
                let seed = scenario_seed(0xCA22_0000 + (c * 100 + sequence) as u64);
                let mut rng = StdRng::seed_from_u64(seed);
                let capture = flush_sequence(&carrying, sequence % 4, &mut rng);
                let (mut kept, mut reset) = (StageBuffers::default(), StageBuffers::default());
                // Every capture lag's score in the first window that had it.
                let mut first_seen: Vec<f32> = Vec::new();
                for origin in (0..capture.len() - flush_len + stride).step_by(stride) {
                    let window = &capture[origin..capture.len().min(origin + flush_len)];
                    let what = format!(
                        "auto_gain {auto_gain}, sequence {sequence} (seed {seed:#x}), \
                         window at {origin}"
                    );
                    reset.trace.clear();
                    let got = run_window(&carrying, &mut kept, window, origin);
                    let afresh = run_window(&fresh, &mut reset, window, origin);
                    let (valid, got_detections) = carried_calls.lock().unwrap().pop().unwrap();
                    let (none, fresh_detections) = fresh_calls.lock().unwrap().pop().unwrap();
                    assert_eq!(none, 0, "{what}: the reference resumes nothing");
                    assert_eq!(valid > 0, origin > 0, "{what}: resumed {valid} lags");
                    resumed_lags += valid;
                    emitted += got.len();

                    first_seen.extend_from_slice(&reset.trace[first_seen.len() - origin..]);
                    let mut scores = first_seen[origin..].to_vec();
                    assert_eq!(kept.trace.len(), scores.len(), "{what}");
                    for (lag, (g, w)) in kept.trace.iter().zip(&scores).enumerate() {
                        assert!(
                            (g - w).abs() <= 1e-6,
                            "{what}: lag {lag} holds {g}, first {w}"
                        );
                    }
                    let lags = scores.len();
                    let want =
                        reference.detect_resuming(&reset.digital, config.fs, &mut scores, lags);
                    assert_eq!(starts(&got_detections), starts(&want), "{what}: detections");
                    let cut = |detections: &[Detection]| {
                        spans(window.len(), detections, carrying.params)
                            .into_iter()
                            .map(|s| origin + s.range.start..origin + s.range.end)
                            .collect::<Vec<_>>()
                    };
                    let ranges = |o: &[Outcome]| o.iter().map(|o| o.0.clone()).collect::<Vec<_>>();
                    assert_eq!(ranges(&got), cut(&want), "{what}: spans");

                    if auto_gain {
                        // The edge reads this window's digitization
                        // whatever the trace says: where a re-scan cuts
                        // the same span, the same verdict.
                        for outcome in &got {
                            if let Some(same) = afresh.iter().find(|o| o.0 == outcome.0) {
                                assert_eq!(outcome, same, "{what}: edge verdict");
                            }
                        }
                    } else {
                        // With one gain for every window a sample
                        // digitizes alike in each, and the carry changes
                        // nothing a re-scan would find.
                        assert_eq!(got, afresh, "{what}: spans and edge verdicts");
                        assert_eq!(starts(&got_detections), starts(&fresh_detections), "{what}");
                        for (g, w) in got_detections.iter().zip(&fresh_detections) {
                            assert!((g.score - w.score).abs() <= 1e-6, "{what}: {g:?} / {w:?}");
                        }
                    }
                }
            }
        }
        assert!(
            resumed_lags > 0 && emitted >= 48,
            "{resumed_lags} lags, {emitted} segments"
        );
    }
}
