//! One workload's untraced measurement — set-up repetitions, a warm-up,
//! the closed-loop passes, the paced pass — and the end-to-end metrics
//! derived from it.

use std::time::Instant;

use crate::host;
use crate::pass::{self, PassResult, PACED_PAD};
use crate::report::{iqr_share, median, percentile, Metric};
use crate::workload::{self, Paced, PipelineKind, Tile, Workload, CHUNK, FS};

/// Set-up repetitions per run; the first is cold (empty FFT plan
/// cache), the reported value is the median.
const SETUP_REPS: usize = 9;
/// Noise-only priming window of a set-up repetition: one gateway
/// flush window (436 416 samples) rounded up to whole chunks.
const SETUP_WINDOW: usize = 7 * CHUNK;

/// How many closed-loop passes to measure.
#[derive(Clone, Copy, Debug)]
pub enum Closed {
    /// Exactly this many.
    Passes(usize),
    /// As many whole passes as fit in this many seconds (a pass starts
    /// only if at least half of it fits), and never fewer than three.
    Seconds(f64),
}

/// What to run for one workload.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The closed-loop passes.
    pub closed: Closed,
    /// The paced pass, for the workloads that have one.
    pub paced: Option<Paced>,
}

impl Plan {
    /// The reference protocol: five measured passes, then the paced
    /// pass at the workload's own length.
    pub fn reference(workload: Workload) -> Plan {
        Plan {
            closed: Closed::Passes(5),
            paced: workload.paced(),
        }
    }

    /// The driver's protocol: `seconds` in all, of which the paced pass
    /// takes its fixed share first.
    pub fn seconds(workload: Workload, seconds: f64) -> Plan {
        let plan = Plan::reference(workload);
        let paced_s = plan.paced.map_or(0.0, |p| {
            let air_s = p.replays as f64 * workload.tile_air_s() + PACED_PAD as f64 / FS;
            air_s / p.pace
        });
        Plan {
            closed: Closed::Seconds(seconds - paced_s),
            ..plan
        }
    }

    /// A shortened protocol: `passes` closed passes and one replay of
    /// the paced pass.
    pub fn short(workload: Workload, passes: usize) -> Plan {
        Plan {
            closed: Closed::Passes(passes),
            paced: workload.paced().map(|p| Paced { replays: 1, ..p }),
        }
    }
}

/// Everything one workload's untraced run measured.
pub struct Measured {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// The generated tile (reused by the walk).
    pub tile: Tile,
    /// Time to generate the tile; reported, not gated.
    pub gen_s: f64,
    /// Set-up repetitions, the cold one first.
    pub setup_s: Vec<f64>,
    /// The measured closed-loop passes (the warm-up is not among them).
    pub closed: Vec<PassResult>,
    /// The paced pass (the workloads that have one).
    pub paced: Option<PassResult>,
    /// `VmHWM` at the end of the last measured closed pass.
    pub peak_rss_mb: f64,
}

/// Runs `plan` for `workload` at `seed`.
pub fn measure(workload: Workload, seed: u64, plan: Plan) -> Measured {
    let t0 = Instant::now();
    let tile = workload::build_tile(workload, seed);
    let gen_s = t0.elapsed().as_secs_f64();

    let window = workload::noise(SETUP_WINDOW, seed);
    let setup_s: Vec<f64> = (0..SETUP_REPS)
        .map(|_| pass::setup_once(workload, &window))
        .collect();

    // Warm-up: a prefix of the tile that meets every kind of frame.
    pass::closed_pass(workload, &tile.prefix(workload.warmup_len()), seed);

    let mut closed = Vec::new();
    let started = Instant::now();
    loop {
        let pass = pass::closed_pass(workload, &tile, seed);
        eprintln!(
            "{} pass {}: {:.3} s, {:.4} Msamples/s, cpu {:.2} s, {} failed, VmHWM {:.0} MB",
            workload.name(),
            closed.len(),
            pass.wall_s,
            pass.capture_msps(),
            pass.cpu_s,
            pass.score.failed(),
            host::peak_rss_mb()
        );
        closed.push(pass);
        let more = match plan.closed {
            Closed::Passes(n) => closed.len() < n,
            Closed::Seconds(budget) => {
                let spent = started.elapsed().as_secs_f64();
                let next_half = 0.5 * spent / closed.len() as f64;
                closed.len() < 3 || spent + next_half <= budget
            }
        };
        if !more {
            break;
        }
    }
    let peak_rss_mb = host::peak_rss_mb();

    let paced = plan.paced.map(|p| {
        let pad = workload::noise(PACED_PAD, seed ^ 0xA5);
        pass::live_pass(workload, &tile, p.replays, seed, Some(p.pace), &pad)
    });
    Measured {
        workload,
        seed,
        tile,
        gen_s,
        setup_s,
        closed,
        paced,
        peak_rss_mb,
    }
}

impl Measured {
    /// Every measured pass, closed and paced.
    pub fn passes(&self) -> impl Iterator<Item = &PassResult> {
        self.closed.iter().chain(&self.paced)
    }

    /// Truth frames offered over all measured passes.
    pub fn attempted(&self) -> usize {
        self.passes().map(|p| p.score.offered).sum()
    }

    /// Missed plus spurious frames over all measured passes.
    pub fn failed(&self) -> usize {
        self.passes().map(|p| p.score.failed()).sum()
    }

    /// The latency sample `delivery_*` metrics are taken from: the
    /// paced pass where there is one, else the closed passes pooled.
    pub fn delivery_ms(&self) -> Vec<f64> {
        match &self.paced {
            Some(p) => p.latency_ms.clone(),
            None => self
                .closed
                .iter()
                .flat_map(|p| p.latency_ms.clone())
                .collect(),
        }
    }

    fn per_pass(&self, f: impl Fn(&PassResult) -> f64) -> Vec<f64> {
        self.closed.iter().map(f).collect()
    }

    /// The end-to-end metrics, in table order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let offered = self.attempted() as f64;
        let missed: usize = self.passes().map(|p| p.score.missed).sum();
        let spurious: usize = self.passes().map(|p| p.score.spurious).sum();
        let matched = offered - missed as f64;
        vec![
            Metric::median_of("setup_s", self.setup_s.clone()),
            Metric::median_of("capture_msps", self.per_pass(PassResult::capture_msps)),
            Metric::median_of("cpu_s_per_capture_s", self.per_pass(|p| p.cpu_s / p.air_s)),
            // A single reading: its spread is `core.delivery_p90_ms`,
            // not a pass-to-pass spread for `diff` to weigh.
            Metric::single("delivery_p50_ms", median(&self.delivery_ms())),
            Metric::single("frames_missed_share", missed as f64 / offered),
            Metric::single("frames_spurious_share", spurious as f64 / offered),
            Metric::single("frames_delivered_share", matched / offered),
            Metric::single(
                "frames_exactly_once_share",
                matched / (matched + spurious as f64).max(1.0),
            ),
            Metric::median_of(
                "backhaul_bytes_per_capture_s",
                self.per_pass(|p| p.metrics.shipped_bytes as f64 / p.air_s),
            ),
            Metric::median_of(
                "alloc_mb_per_capture_s",
                self.per_pass(|p| p.alloc.bytes as f64 / 1e6 / p.air_s),
            ),
            Metric::single("peak_rss_mb", self.peak_rss_mb),
        ]
    }

    /// The layer metrics that come from the untraced passes: the
    /// `core.*` gauges and the cloud's redundancy waste. `batch_msps`
    /// is `process_capture`'s rate on the same tile.
    pub fn layer_metrics(&self, batch_msps: f64) -> Vec<Metric> {
        let delivery = self.delivery_ms();
        let lag: Vec<f64> = self
            .paced
            .iter()
            .flat_map(|p| p.pace_lag_ms.clone())
            .collect();
        let msps = self.per_pass(PassResult::capture_msps);
        let segments = |p: &PassResult| p.metrics.segments.max(1) as f64;
        // Segment decodes: the pool's count, or for the batch path (no
        // pool) the segments it shipped.
        let decodes = |p: &PassResult| match self.workload.pipeline() {
            PipelineKind::Batch => p.metrics.shipped_segments,
            _ => p.metrics.per_worker_segments.values().sum(),
        };
        let delivered = |p: &PassResult| (p.score.offered - p.score.missed).max(1);
        vec![
            Metric::median_of(
                "cloud.decodes_per_delivered_frame",
                self.per_pass(|p| decodes(p) as f64 / delivered(p) as f64),
            ),
            Metric::median_of(
                "cloud.dedup_suppressed_share",
                self.per_pass(|p| {
                    let m = &p.metrics;
                    m.dedup_suppressed as f64
                        / (m.fleet_delivered + m.dedup_suppressed).max(1) as f64
                }),
            ),
            Metric::median_of(
                "core.gateway_busy_share",
                self.per_pass(|p| p.metrics.gateway_busy_ns as f64 / 1e9 / p.wall_s),
            ),
            Metric::median_of(
                "core.cloud_busy_share",
                self.per_pass(|p| p.metrics.cloud_busy_ns as f64 / 1e9 / p.wall_s),
            ),
            Metric::median_of(
                "core.seg_queue_hwm",
                self.per_pass(|p| p.metrics.seg_queue_hwm as f64),
            ),
            Metric::median_of(
                "core.send_queue_hwm",
                self.per_pass(|p| p.metrics.send_queue_hwm as f64),
            ),
            Metric::median_of(
                "core.shipped_segments",
                self.per_pass(|p| p.metrics.shipped_segments as f64),
            ),
            Metric::median_of("core.finish_drain_ms", self.per_pass(|p| p.drain_s * 1e3)),
            Metric::single("core.streaming_over_batch", median(&msps) / batch_msps),
            Metric::single("core.delivery_p90_ms", percentile(&delivery, 90.0)),
            Metric::single("core.delivery_max_ms", percentile(&delivery, 100.0)),
            Metric::single("core.delivery_samples", delivery.len() as f64),
            Metric::single("core.pace_lag_p99_ms", percentile(&lag, 99.0)),
            Metric::median_of(
                "core.allocs_per_segment",
                self.per_pass(|p| p.alloc.calls as f64 / segments(p)),
            ),
            Metric::median_of(
                "core.alloc_bytes_per_sample",
                self.per_pass(|p| p.alloc.bytes as f64 / (p.air_s * FS)),
            ),
            Metric::single("core.pass_iqr_share", iqr_share(&msps)),
            Metric::single("core.setup_cold_s", self.setup_s[0]),
            Metric::single("core.gen_s", self.gen_s),
        ]
    }
}
