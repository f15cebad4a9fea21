//! The gateway half of the pipeline as one stage over one analog
//! window: digitize → detect → cut spans → edge attempt.
//!
//! [`crate::pipeline::Galiot`] runs it once over a whole capture, a
//! live session's [`crate::streaming::run_gateway`] once per flush
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
    digital: Vec<Cf32>,
    /// The detector's correlation trace, then each edge attempt's.
    trace: Vec<f32>,
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
        let digital = self.front_end.digitize(analog);
        self.detector.detect(&digital, self.fs)
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
        StageBuffers { digital, trace }: &mut StageBuffers,
        analog: &[Cf32],
        origin: usize,
        metrics: &SharedMetrics,
        mut admit: impl FnMut(Range<usize>) -> Result<bool, E>,
        mut emit: impl FnMut(Emitted<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let t0 = Instant::now();
        let result = (|| {
            self.front_end.digitize_into(analog, digital);
            let detections = self.detector.detect_with(digital, self.fs, trace);
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
                    match edge.process_slice(samples, start, self.fs, trace) {
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
