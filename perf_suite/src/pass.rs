//! One pass: a fresh pipeline, the tile fed through it by one
//! generator thread, every delivered frame stamped and scored.
//!
//! A *closed* pass pushes as fast as back-pressure allows and measures
//! capacity; a *paced* pass pushes on a schedule that does not slow
//! when the pipeline does and measures capture-to-delivery latency
//! from each chunk's due time.

use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use galiot_core::{FleetGaliot, Galiot, Metrics, PipelineFrame, SharedMetrics, StreamingGaliot};
use galiot_dsp::Cf32;
use galiot_phy::registry::Registry;

use crate::host::{self, AllocCount};
use crate::verify::{self, Delivered, Offered, Score};
use crate::workload::{PipelineKind, Tile, Workload, CHUNK, FS};

/// Noise-only air pushed after a paced pass's last replay so every
/// real frame leaves the gateway's rolling window before `finish()`.
pub const PACED_PAD: usize = 10 * CHUNK;

/// A running streaming or fleet pipeline.
enum Live {
    Streaming(StreamingGaliot),
    Fleet(FleetGaliot),
}

impl Live {
    fn start(workload: Workload, link_seed: u64, registry: Registry) -> Live {
        let config = workload.config(link_seed);
        match workload.pipeline() {
            PipelineKind::Streaming => Live::Streaming(StreamingGaliot::start(config, registry)),
            PipelineKind::Fleet => Live::Fleet(FleetGaliot::start(config, registry)),
            PipelineKind::Batch => unreachable!("batch workloads have no live pipeline"),
        }
    }

    fn push_chunk(&self, chunk: Vec<Cf32>) {
        match self {
            Live::Streaming(p) => p.push_chunk(chunk),
            Live::Fleet(p) => p.push_chunk(chunk),
        }
    }

    fn frames(&self) -> &Receiver<PipelineFrame> {
        match self {
            Live::Streaming(p) => p.frames(),
            Live::Fleet(p) => p.frames(),
        }
    }

    fn metrics(&self) -> &SharedMetrics {
        match self {
            Live::Streaming(p) => p.metrics(),
            Live::Fleet(p) => p.metrics(),
        }
    }

    fn finish(self) -> Vec<PipelineFrame> {
        match self {
            Live::Streaming(p) => p.finish(),
            Live::Fleet(p) => p.finish(),
        }
    }
}

/// What one pass measured.
pub struct PassResult {
    /// Seconds of air in the tile replays (the pad is not counted).
    pub air_s: f64,
    /// First `push_chunk` (or the `process_capture` call) to
    /// `finish()` (or return).
    pub wall_s: f64,
    /// Last `push_chunk` returning to `finish()` returning: the
    /// backlog at end of input. Zero for batch.
    pub drain_s: f64,
    /// Process user+system time over the pass.
    pub cpu_s: f64,
    /// Allocator requests over the pass.
    pub alloc: AllocCount,
    /// The pipeline's own counters after it joined.
    pub metrics: Metrics,
    /// The frames the pass delivered, in capture order.
    pub delivered: Vec<Delivered>,
    /// Those frames against ground truth.
    pub score: Score,
    /// The truth frames the pass lost, for the failure report.
    pub lost: Vec<Offered>,
    /// Latency of every correctly delivered frame, from the moment the
    /// chunk holding its last truth sample was offered to the pipeline
    /// — on schedule in a paced pass (capture-to-delivery), as soon as
    /// back-pressure allowed in a closed one (residence under
    /// saturation) — to its arrival on `frames()`.
    pub latency_ms: Vec<f64>,
    /// How late the generator pushed each chunk (paced passes).
    pub pace_lag_ms: Vec<f64>,
}

impl PassResult {
    /// Capture samples per wall second, in millions.
    pub fn capture_msps(&self) -> f64 {
        self.air_s * FS / self.wall_s / 1e6
    }
}

/// When chunk `index` is due at `pace`× real time, from the pass start.
fn due(index: usize, pace: f64) -> Duration {
    Duration::from_secs_f64(index as f64 * CHUNK as f64 / (pace * FS))
}

/// Latency of each correctly delivered frame: arrival minus the offer
/// time of the chunk holding the frame's last truth sample.
fn latencies(
    offered: &[Offered],
    score: &Score,
    arrivals: &[Duration],
    chunk_offered: &[Duration],
) -> Vec<f64> {
    score
        .claims
        .iter()
        .zip(arrivals)
        .filter_map(|(claim, arrival)| {
            let o = &offered[(*claim)?];
            let last_chunk = (o.start + o.len - 1) / CHUNK;
            Some((arrival.as_secs_f64() - chunk_offered[last_chunk].as_secs_f64()) * 1e3)
        })
        .collect()
}

/// The truth frames a pass did not deliver.
fn lost(offered: &[Offered], score: &Score) -> Vec<Offered> {
    score
        .unclaimed
        .iter()
        .map(|i| offered[*i].clone())
        .collect()
}

/// Runs one pass of a streaming or fleet workload. `pace` of `None` is
/// a closed loop; `Some(p)` is an open loop at `p`× real time followed
/// by `pad` (noise-only air, pushed on the same schedule).
pub fn live_pass(
    workload: Workload,
    tile: &Tile,
    replays: usize,
    link_seed: u64,
    pace: Option<f64>,
    pad: &[Cf32],
) -> PassResult {
    let offered = verify::offered(&tile.truth, tile.samples.len(), replays);
    let pipeline = Live::start(workload, link_seed, Registry::prototype());
    let metrics = pipeline.metrics().clone();
    let frames_rx = pipeline.frames().clone();

    host::arm_alloc();
    let cpu0 = host::cpu_time_s();
    let t0 = Instant::now();
    let (mut delivered, last_push, chunk_offered, pace_lag_ms) = std::thread::scope(|scope| {
        // One collector stamps arrivals; the channel disconnects when
        // the pipeline's last stage exits inside `finish()`.
        let collector = scope.spawn(move || {
            frames_rx
                .iter()
                .map(|f| (f, t0.elapsed()))
                .collect::<Vec<_>>()
        });
        let mut lag_ms = Vec::new();
        let mut chunk_offered = Vec::new();
        let chunks = (0..replays)
            .flat_map(|_| tile.samples.chunks(CHUNK))
            .chain(pad.chunks(CHUNK).filter(|_| pace.is_some()));
        for (i, chunk) in chunks.enumerate() {
            match pace {
                Some(pace) => {
                    let due = due(i, pace);
                    if let Some(wait) = due.checked_sub(t0.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    lag_ms.push((t0.elapsed().saturating_sub(due)).as_secs_f64() * 1e3);
                    chunk_offered.push(due);
                }
                None => chunk_offered.push(t0.elapsed()),
            }
            pipeline.push_chunk(chunk.to_vec());
        }
        let last_push = t0.elapsed();
        let rest = pipeline.finish();
        let done = t0.elapsed();
        let mut delivered = collector.join().expect("collector thread");
        delivered.extend(rest.into_iter().map(|f| (f, done)));
        (delivered, last_push, chunk_offered, lag_ms)
    });
    let wall = t0.elapsed();
    let cpu_s = host::cpu_time_s() - cpu0;
    let alloc = host::disarm_alloc();

    // The collector and `finish()` both drain one channel; restore
    // capture order for the report (scoring does not depend on it).
    delivered.sort_by_key(|(f, _)| f.frame.start);
    let keys: Vec<Delivered> = delivered.iter().map(|(f, _)| Delivered::from(f)).collect();
    let arrivals: Vec<Duration> = delivered.iter().map(|(_, at)| *at).collect();
    let score = verify::score(&offered, &keys);
    let latency_ms = latencies(&offered, &score, &arrivals, &chunk_offered);
    PassResult {
        air_s: replays as f64 * tile.air_s(),
        wall_s: wall.as_secs_f64(),
        drain_s: (wall - last_push).as_secs_f64(),
        cpu_s,
        alloc,
        metrics: metrics.snapshot(),
        delivered: keys,
        lost: lost(&offered, &score),
        score,
        latency_ms,
        pace_lag_ms,
    }
}

/// Runs one pass of the batch workload: `process_capture` over the
/// tile on the calling thread. The whole capture is offered at the call
/// and every frame is delivered on return, so each frame's latency is
/// the pass's wall time.
pub fn batch_pass(system: &Galiot, tile: &Tile) -> PassResult {
    let offered = verify::offered(&tile.truth, tile.samples.len(), 1);
    host::arm_alloc();
    let cpu0 = host::cpu_time_s();
    let t0 = Instant::now();
    let report = system.process_capture(&tile.samples);
    let wall = t0.elapsed();
    let cpu_s = host::cpu_time_s() - cpu0;
    let alloc = host::disarm_alloc();

    let keys: Vec<Delivered> = report.frames.iter().map(Delivered::from).collect();
    let score = verify::score(&offered, &keys);
    let matched = score.claims.iter().flatten().count();
    let latency_ms = vec![wall.as_secs_f64() * 1e3; matched];
    PassResult {
        air_s: tile.air_s(),
        wall_s: wall.as_secs_f64(),
        drain_s: 0.0,
        cpu_s,
        alloc,
        metrics: report.metrics,
        delivered: keys,
        lost: lost(&offered, &score),
        score,
        latency_ms,
        pace_lag_ms: Vec::new(),
    }
}

/// One closed-loop pass of any workload.
pub fn closed_pass(workload: Workload, tile: &Tile, link_seed: u64) -> PassResult {
    match workload.pipeline() {
        PipelineKind::Batch => {
            let system = Galiot::new(workload.config(link_seed), Registry::prototype());
            batch_pass(&system, tile)
        }
        _ => live_pass(workload, tile, workload.replays(), link_seed, None, &[]),
    }
}

/// Everything before steady state, timed once: the registry, its
/// template bank, pipeline construction and `start()`, and one
/// noise-only priming window (`window`, at least one gateway flush)
/// through to a clean shutdown.
pub fn setup_once(workload: Workload, window: &[Cf32]) -> f64 {
    let t0 = Instant::now();
    let registry = Registry::prototype();
    let _bank = registry.template_bank(FS);
    match workload.pipeline() {
        PipelineKind::Batch => {
            let system = Galiot::new(workload.config(0), registry);
            std::hint::black_box(system.process_capture(window));
        }
        _ => {
            let pipeline = Live::start(workload, 0, registry);
            for chunk in window.chunks(CHUNK) {
                pipeline.push_chunk(chunk.to_vec());
            }
            std::hint::black_box(pipeline.finish());
        }
    }
    t0.elapsed().as_secs_f64()
}
