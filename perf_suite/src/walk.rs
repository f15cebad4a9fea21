//! The layer walk: `Galiot::process_capture` replayed stage by stage
//! from here, with an in-memory span around every call into a layer.
//!
//! A layer's self time is its span minus its children. What `decode`
//! does inside is priced by sibling *probe* spans on the same segments
//! (`classify`, `apply_kill`, `cancel_frame`); probes are flagged and
//! excluded from the self-time sums. The walk must return the frame
//! set `process_capture` returns, or the traced numbers describe some
//! other program.
//!
//! Deliberately not `galiot_trace::TraceSession`: that API is about to
//! change, and a change that claims a gain may not edit the benchmark.

use std::time::{Duration, Instant};

use galiot_cloud::{apply_kill, cancel_frame, classify, CloudDecoder};
use galiot_core::Galiot;
use galiot_gateway::{
    compress, decode_segment, decompress, encode_segment, extract, EdgeDecoder, EdgeOutcome,
    ExtractParams, PacketDetector, RtlSdrFrontEnd, ShippedSegment, UniversalDetector,
};
use galiot_phy::registry::Registry;

use crate::json::Json;
use crate::pass::{self, PassResult};
use crate::report::{median, percentile, Metric};
use crate::verify::Delivered;
use crate::workload::{Tile, Workload, FS};

/// Compression block length of the batch pipeline's backhaul.
const COMPRESS_BLOCK: usize = 1024;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Start, from the walk's origin.
    pub start: Duration,
    /// End, from the walk's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The segment the call worked on.
    pub segment: Option<usize>,
    /// Probe spans price the inside of `cloud.decode`; they are not
    /// part of the replayed pipeline.
    pub probe: bool,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Records spans in memory; written out when the walk ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span.
    fn span<T>(
        &mut self,
        name: &'static str,
        segment: Option<usize>,
        probe: bool,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let index = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            segment,
            probe,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        out
    }
}

/// What the walk produced.
pub struct Walk {
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// The frames the replayed pipeline recovered.
    pub frames: Vec<Delivered>,
    /// Detections the gateway raised.
    pub detections: usize,
    /// Segments extracted.
    pub segments: usize,
    /// Segments the edge decoded locally.
    pub edge_decoded: usize,
    /// Samples shipped to the cloud.
    pub shipped_samples: usize,
    /// Datagram bytes those samples travelled as.
    pub wire_bytes: usize,
    /// Per shipped segment: SIC rounds, kill applications, frames.
    pub decodes: Vec<(usize, usize, usize)>,
    /// FFT plan-cache hit rate over the walk.
    pub plan_cache_hit_rate: f64,
}

/// Replays the batch pipeline over `tile` with `workload`'s
/// configuration, stage by stage.
pub fn walk(workload: Workload, tile: &Tile) -> Walk {
    let config = workload.config(0);
    let registry = Registry::prototype();
    let front_end = RtlSdrFrontEnd::new(config.front_end);
    let detector = UniversalDetector::new(&registry, FS, config.detect_threshold);
    let edge = EdgeDecoder::new(registry.clone()).with_cluster_guard_s(config.edge_cluster_guard_s);
    let cloud = CloudDecoder::with_params(registry.clone(), config.cloud);
    let window = registry
        .max_frame_samples_for(FS, config.max_expected_payload)
        .max(1);

    let engine_before = galiot_dsp::engine::stats();
    let mut tracer = Tracer::new();
    let mut out = Walk {
        spans: Vec::new(),
        frames: Vec::new(),
        detections: 0,
        segments: 0,
        edge_decoded: 0,
        shipped_samples: 0,
        wire_bytes: 0,
        decodes: Vec::new(),
        plan_cache_hit_rate: 0.0,
    };
    tracer.span("walk", None, false, |t| {
        let digital = t.span("gateway.digitize", None, false, |_| {
            front_end.digitize(&tile.samples)
        });
        let detections = t.span("gateway.detect", None, false, |_| {
            detector.detect(&digital, FS)
        });
        let segments = t.span("gateway.extract", None, false, |_| {
            extract(&digital, &detections, ExtractParams::paper(window))
        });
        out.detections = detections.len();
        out.segments = segments.len();

        for (i, seg) in segments.into_iter().enumerate() {
            let id = Some(i);
            let outcome = t.span("gateway.edge", id, false, |_| edge.process(&seg, FS));
            if let EdgeOutcome::DecodedLocally(frame) = outcome {
                out.edge_decoded += 1;
                out.frames.push(Delivered {
                    tech: frame.tech,
                    payload: frame.payload,
                    start: frame.start,
                });
                continue;
            }
            out.shipped_samples += seg.samples.len();
            let compressed = t.span("gateway.compress", id, false, |_| {
                compress(&seg.samples, config.compression_bits, COMPRESS_BLOCK)
            });
            let shipped = ShippedSegment {
                gateway: Default::default(),
                seq: i as u64,
                start: seg.start,
                compressed,
            };
            let wire = t.span("gateway.wire_encode", id, false, |_| {
                encode_segment(&shipped)
            });
            out.wire_bytes += wire.len();
            let received = t.span("gateway.wire_decode", id, false, |_| {
                decode_segment(&wire).expect("a clean datagram decodes")
            });
            let at_cloud = t.span("gateway.decompress", id, false, |_| {
                decompress(&received.compressed)
            });
            let result = t.span("cloud.decode", id, false, |_| cloud.decode(&at_cloud, FS));
            out.decodes
                .push((result.rounds, result.kills, result.frames.len()));

            // Probes: the calls `decode` makes, priced on this segment.
            let candidates = t.span("cloud.classify", id, true, |_| {
                classify(&at_cloud, FS, &registry, config.cloud.classify_threshold)
            });
            if let (Some(victim), true) = (candidates.last(), candidates.len() > 1) {
                let tech = registry.get(victim.tech).expect("classified technology");
                let end = (victim.start + tech.max_frame_samples(FS)).min(at_cloud.len());
                t.span("cloud.kill", id, true, |_| {
                    apply_kill(
                        &at_cloud,
                        FS,
                        tech.as_ref(),
                        victim.start,
                        victim.start..end,
                    )
                });
            }
            let mut residual = at_cloud.clone();
            for (frame, _) in &result.frames {
                let tech = registry.get(frame.tech).expect("decoded technology");
                t.span("cloud.cancel", id, true, |_| {
                    cancel_frame(
                        &mut residual,
                        tech.as_ref(),
                        frame,
                        FS,
                        config.cloud.cancel_slack,
                    )
                });
            }
            for (frame, _) in result.frames {
                out.frames.push(Delivered {
                    tech: frame.tech,
                    payload: frame.payload,
                    start: frame.start + seg.start,
                });
            }
        }
    });
    let engine = galiot_dsp::engine::stats().since(&engine_before);
    out.plan_cache_hit_rate =
        engine.plan_hits as f64 / (engine.plan_hits + engine.plan_misses).max(1) as f64;
    out.spans = tracer.spans;
    out
}

impl Walk {
    /// Each span's self time: its duration minus its children's.
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration());
            }
        }
        own
    }

    /// Total probe time.
    fn probe_time(&self) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.probe)
            .map(Span::duration)
            .sum()
    }

    /// The replayed pipeline's wall time: the root span without probes.
    pub fn pipeline_s(&self) -> f64 {
        (self.spans[0].duration() - self.probe_time()).as_secs_f64()
    }

    /// Share of the pipeline's self time spent in spans whose name
    /// starts with `prefix`.
    pub fn self_share(&self, prefix: &str) -> f64 {
        let own = self.self_times();
        let sum = |keep: &dyn Fn(&Span) -> bool| -> f64 {
            self.spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| !s.probe && keep(s))
                .map(|(_, d)| d.as_secs_f64())
                .sum()
        };
        sum(&|s| s.name.starts_with(prefix)) / sum(&|_| true)
    }

    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect()
    }

    fn total_s(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum::<f64>() / 1e3
    }

    /// Whether the walk recovered exactly the frames `reference`
    /// (a `process_capture` pass over the same tile) delivered.
    pub fn same_frames_as(&self, reference: &[Delivered]) -> bool {
        let key = |d: &Delivered| (d.start, d.tech, d.payload.clone());
        let mut ours: Vec<_> = self.frames.iter().map(key).collect();
        let mut theirs: Vec<_> = reference.iter().map(key).collect();
        ours.sort();
        theirs.sort();
        ours == theirs
    }

    /// The layer metrics the walk yields. `batch` is the reference
    /// `process_capture` pass over the same tile.
    pub fn metrics(&self, tile: &Tile, batch: &PassResult) -> Vec<Metric> {
        let samples = tile.samples.len() as f64;
        let shipped = self.shipped_samples.max(1) as f64;
        let tried = self.segments.max(1) as f64;
        let decoded = self.decodes.len().max(1) as f64;
        let mean = |ms: Vec<f64>| ms.iter().sum::<f64>() / ms.len().max(1) as f64;
        let decode_ms = self.durations_ms("cloud.decode");
        let codec_s = self.total_s("gateway.wire_encode") + self.total_s("gateway.wire_decode");
        let per_decode = |f: fn(&(usize, usize, usize)) -> usize| {
            self.decodes.iter().map(f).sum::<usize>() as f64 / decoded
        };
        vec![
            Metric::single("dsp.plan_cache_hit_rate", self.plan_cache_hit_rate),
            Metric::single(
                "gateway.digitize_ns_per_sample",
                self.total_s("gateway.digitize") * 1e9 / samples,
            ),
            Metric::single(
                "gateway.detect_ns_per_sample",
                self.total_s("gateway.detect") * 1e9 / samples,
            ),
            Metric::single(
                "gateway.extract_us_per_segment",
                self.total_s("gateway.extract") * 1e6 / tried,
            ),
            Metric::single(
                "gateway.edge_ms_per_segment",
                mean(self.durations_ms("gateway.edge")),
            ),
            Metric::single(
                "gateway.compress_ns_per_sample",
                self.total_s("gateway.compress") * 1e9 / shipped,
            ),
            Metric::single(
                "gateway.decompress_ns_per_sample",
                self.total_s("gateway.decompress") * 1e9 / shipped,
            ),
            // Every byte is encoded once and decoded once.
            Metric::single(
                "gateway.wire_codec_ns_per_byte",
                codec_s * 1e9 / (2 * self.wire_bytes).max(1) as f64,
            ),
            Metric::single("gateway.detections", self.detections as f64),
            Metric::single("gateway.segments", self.segments as f64),
            Metric::single(
                "gateway.edge_decoded_share",
                self.edge_decoded as f64 / tried,
            ),
            Metric::single(
                "gateway.shipped_sample_share",
                self.shipped_samples as f64 / samples,
            ),
            Metric::single("cloud.decode_ms_per_segment_p50", median(&decode_ms)),
            Metric::single(
                "cloud.decode_ms_per_segment_max",
                percentile(&decode_ms, 100.0),
            ),
            Metric::single(
                "cloud.classify_ms_per_call",
                mean(self.durations_ms("cloud.classify")),
            ),
            Metric::single(
                "cloud.kill_ms_per_call",
                mean(self.durations_ms("cloud.kill")),
            ),
            Metric::single(
                "cloud.cancel_ms_per_frame",
                mean(self.durations_ms("cloud.cancel")),
            ),
            Metric::single("cloud.sic_rounds_per_segment", per_decode(|d| d.0)),
            Metric::single("cloud.kills_per_segment", per_decode(|d| d.1)),
            Metric::single("cloud.frames_per_decode", per_decode(|d| d.2)),
            Metric::single("core.walk_over_batch", self.pipeline_s() / batch.wall_s),
            Metric::single("walk.gateway_self_share", self.self_share("gateway.")),
            Metric::single(
                "walk.cloud_decode_self_share",
                self.self_share("cloud.decode"),
            ),
            Metric::single("walk.probe_ms", self.probe_time().as_secs_f64() * 1e3),
            Metric::single("walk.frames", self.frames.len() as f64),
        ]
    }

    /// The spans as chrome-trace JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> Json {
        let own = self.self_times();
        let events = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, own)| {
                let mut args = vec![
                    ("self_us", Json::Num(own.as_secs_f64() * 1e6)),
                    ("probe", Json::Bool(s.probe)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent", Json::Num(p as f64)));
                }
                if let Some(seg) = s.segment {
                    args.push(("segment", Json::Num(seg as f64)));
                }
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start.as_secs_f64() * 1e6)),
                    ("dur", Json::Num(s.duration().as_secs_f64() * 1e6)),
                    ("pid", Json::Num(1.0)),
                    // Probes on their own track so they do not read as
                    // children of the pipeline.
                    ("tid", Json::Num(if s.probe { 2.0 } else { 1.0 })),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }
}

/// The reference the walk is checked against: one `process_capture`
/// pass over the tile with the workload's configuration.
pub fn batch_reference(workload: Workload, tile: &Tile) -> PassResult {
    let system = Galiot::new(workload.config(0), Registry::prototype());
    pass::batch_pass(&system, tile)
}
