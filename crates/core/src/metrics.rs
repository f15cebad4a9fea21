//! System metrics: what the experiments measure.
//!
//! Counters fall into four groups: detection/decode outcomes, the
//! streaming pool (per-worker counts, queue high-water marks, busy
//! time), the DSP engine caches, and — since the fault-tolerant
//! backhaul — the segment transport: the degradation ladder
//! (`segments_downgraded`, `segments_shed`, `shipped_by_bits`,
//! `send_queue_hwm`), the ARQ (`arq_retransmits`, `arq_acked`,
//! `arq_lost`), and the wire itself (`wire_*`,
//! `dup_segments_dropped`). The transport accounting invariant —
//! every shipped segment is decoded by exactly one worker, shed, or
//! declared lost — is asserted by `tests/transport_conformance.rs`.
//! The run's shape is recorded as the engine resolved it:
//! `cloud_workers` from `config.pool.workers`, `ingest_shards` from
//! `config.fleet.shards`, `fleet_gateways` from the sessions started.

use galiot_gateway::LinkStats;
use galiot_phy::{DecodedFrame, TechId};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Dead-letter record for a segment the decode-pool supervisor
/// quarantined after exhausting its retry budget (DESIGN.md §17):
/// everything needed to reproduce the failing decode offline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Gateway the segment was captured by.
    pub gateway: u16,
    /// Epoch-tagged shipping sequence number.
    pub seq: u64,
    /// Capture-sample offset of the segment.
    pub start: u64,
    /// Segment length in samples — the quarantine-aware delivery oracle
    /// treats `[start, start + len)` as the window whose frames may be
    /// missing.
    pub len: usize,
    /// Per-attempt failure names, oldest first (`"panic"` or `"hung"`).
    pub attempts: Vec<&'static str>,
    /// FNV-1a hash of the shipped payload bytes, for matching the
    /// segment against a capture replay.
    pub payload_hash: u64,
    /// The decode-fault pattern seed in effect (the
    /// `GALIOT_DECODE_FAULTS` repro knob; 0 when injection was off).
    pub fault_seed: u64,
}

/// Counters accumulated over a run: a plain block of public fields,
/// written by the pipeline stage that owns each one and shared across
/// pipeline threads via [`SharedMetrics`]. `{:?}` is the run report;
/// stage latencies live in the `galiot_trace::Trace` of the session the
/// pipeline ran under, not here.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Detections raised by the gateway.
    pub detections: usize,
    /// Segments extracted and considered for decode.
    pub segments: usize,
    /// Frames decoded at the edge.
    pub edge_decoded: usize,
    /// Segments shipped to the cloud.
    pub shipped_segments: usize,
    /// Bytes shipped over the backhaul.
    pub shipped_bytes: u64,
    /// Frames decoded at the cloud.
    pub cloud_decoded: usize,
    /// Of the cloud frames, how many needed a kill filter.
    pub kill_recovered: usize,
    /// Payload bits recovered, per technology.
    pub payload_bits: BTreeMap<TechId, u64>,
    /// Capture samples processed.
    pub samples_processed: u64,
    /// Cloud decode workers the streaming pipeline ran with
    /// (`pool.workers` resolved; 0 for the batch pipeline, which has
    /// no pool).
    pub cloud_workers: usize,
    /// Frames decoded by each cloud worker, by worker index.
    pub per_worker_decoded: BTreeMap<usize, usize>,
    /// Segments decoded by each cloud worker, by worker index.
    pub per_worker_segments: BTreeMap<usize, usize>,
    /// Deepest the gateway→cloud segment queue ever got.
    pub seg_queue_hwm: usize,
    /// Most out-of-order segment results the reassembly stage ever
    /// buffered while waiting for an earlier sequence number.
    pub reassembly_hwm: usize,
    /// Time the gateway thread spent in detection/extraction/edge
    /// decode, in nanoseconds.
    pub gateway_busy_ns: u64,
    /// Total time cloud workers spent decoding, in nanoseconds
    /// (summed across workers, so this can exceed wall-clock).
    pub cloud_busy_ns: u64,
    /// Segments whose decode panicked inside a worker (the pool
    /// survives these; see the failure-injection tests).
    pub decode_poisoned: usize,
    /// FFT plan-cache hits in the DSP engine over the run (process-wide
    /// counters sampled before/after, so concurrent runs can bleed into
    /// each other's numbers; treat as indicative, not exact).
    pub plan_cache_hits: u64,
    /// FFT plan-cache misses (plans actually constructed) over the run.
    pub plan_cache_misses: u64,
    /// Preamble template banks synthesized over the run.
    pub template_bank_builds: u64,
    /// Template-bank cache hits over the run.
    pub template_bank_hits: u64,
    /// Segments shipped with fewer compression bits than configured
    /// because the send queue crossed its high-water mark.
    pub segments_downgraded: usize,
    /// Segments shed (dropped before transmission) by the send queue's
    /// lowest-power-first overflow policy.
    pub segments_shed: usize,
    /// Deepest the transport send queue ever got.
    pub send_queue_hwm: usize,
    /// Segments shipped, keyed by the compression bits they actually
    /// used (the degradation ladder makes this non-uniform).
    pub shipped_by_bits: BTreeMap<u32, u64>,
    /// ARQ retransmissions performed by the uplink sender.
    pub arq_retransmits: usize,
    /// Segments acknowledged end-to-end by the ARQ.
    pub arq_acked: usize,
    /// Segments the ARQ declared lost after exhausting retries.
    pub arq_lost: usize,
    /// Datagrams offered to the (possibly faulty) wire, both
    /// directions, including retransmissions.
    pub wire_datagrams_sent: u64,
    /// Datagram copies that actually came out of the wire.
    pub wire_datagrams_delivered: u64,
    /// Datagrams the wire dropped.
    pub wire_dropped: u64,
    /// Datagrams the wire delivered with flipped bits.
    pub wire_corrupted: u64,
    /// Extra copies the wire duplicated.
    pub wire_duplicated: u64,
    /// Datagrams the wire delivered out of order.
    pub wire_reordered: u64,
    /// Payload bytes offered to the wire (pre-impairment, including
    /// retransmissions).
    pub wire_bytes_sent: u64,
    /// Received datagrams rejected by framing/CRC/header validation.
    pub wire_decode_errors: usize,
    /// Duplicate segments (same sequence number) the receiver dropped
    /// before they reached the decode pool.
    pub dup_segments_dropped: usize,
    /// Successful SIC rounds executed by the cloud tier (one per
    /// recovered frame; reconciles with the `sic_round` stage
    /// histogram).
    pub sic_rounds: u64,
    /// Kill-filter applications attempted by the cloud tier
    /// (reconciles with the `kill_filter` stage histogram).
    pub kill_applications: u64,
    /// Gateway sessions the fleet ingest ran with (0 for the
    /// single-gateway pipelines, which have no fleet).
    pub fleet_gateways: usize,
    /// Routing shards the fleet ingest hashed (gateway, seq) onto
    /// (`fleet.shards` resolved; 0 for a sole session).
    pub ingest_shards: usize,
    /// Segments each fleet session pushed into the shared decode pool,
    /// keyed by gateway id.
    pub per_gateway_segments: BTreeMap<u16, usize>,
    /// Frames the shared pool decoded on behalf of each fleet session
    /// (pre-dedup), keyed by gateway id.
    pub per_gateway_decoded: BTreeMap<u16, usize>,
    /// Cross-gateway duplicate frames the fleet merge suppressed
    /// (kept the best-power copy, dropped the rest).
    pub dedup_suppressed: usize,
    /// Frames the fleet merge actually delivered (exactly-once, after
    /// dedup). `sum(per_gateway_decoded) == fleet_delivered +
    /// dedup_suppressed + crash_lost_frames` is asserted by
    /// `tests/fleet_conformance.rs` and `tests/failover_conformance.rs`.
    pub fleet_delivered: usize,
    /// Fleet gateway instances that hit an injected crash. (A session
    /// the liveness reaper declares dead shows up as `dead` in the
    /// registry snapshot instead — the reaper observes silence, not
    /// its cause.)
    pub sessions_crashed: usize,
    /// Crashed fleet sessions brought back up under a bumped epoch.
    pub sessions_restarted: usize,
    /// Segments attributed to a crashed session and dropped on its
    /// account: stale-epoch segments fenced at the ingest mux, plus
    /// results (including late gap notices) of a dead or superseded
    /// epoch discarded at the merge.
    pub crash_lost_segments: usize,
    /// Frames decoded on behalf of a crashed session but discarded
    /// because the session was already dead or superseded when they
    /// reported — the crash term closing the fleet delivery identity.
    pub crash_lost_frames: usize,
    /// Segment decode attempts the pool supervisor re-dispatched after
    /// a panic or lease expiry (one per `Retried` trace event).
    pub decode_retried: usize,
    /// Segments quarantined to a dead-letter record after exhausting
    /// `pool.retries` re-dispatches (one per `Quarantined` trace
    /// event; equals `quarantine_records.len()`).
    pub decode_quarantined: usize,
    /// Hung workers the supervisor abandoned and replaced with a
    /// fresh incarnation.
    pub workers_replaced: usize,
    /// Lease deadlines that expired — the supervisor declared the
    /// holding worker hung.
    pub decode_hung: usize,
    /// Frames decoded by late/stale attempts of already-quarantined
    /// segments: counted into `per_gateway_decoded` by the pool but
    /// never delivered, so they close the fleet identity
    /// `Σ per_gateway_decoded == fleet_delivered + dedup_suppressed +
    /// crash_lost_frames + quarantined_frames`.
    pub quarantined_frames: usize,
    /// Decode attempts that completed after their lease was already
    /// resolved (a replacement attempt won, or the segment was
    /// quarantined); their results were fenced off.
    pub decode_stale_results: usize,
    /// Segments the pool answered with another gateway's decode of the
    /// same capture span instead of decoding them again (parked on a
    /// live lease, or matched against a recently resolved one). Closes
    /// the segment-level identity *admitted == leases won +
    /// `decodes_shared` + `decode_quarantined`*; always 0 with one
    /// session.
    pub decodes_shared: usize,
    /// Dead-letter records, one per quarantined segment, in quarantine
    /// order.
    pub quarantine_records: Vec<QuarantineRecord>,
    /// Name of the SIMD kernel backend the DSP hot loops dispatched to
    /// (`scalar`, `sse4.1`, `avx2` or `fma` — see
    /// `galiot_dsp::kernels`), stamped whenever engine stats are
    /// recorded. Empty until a pipeline runs.
    pub dsp_backend: String,
}

impl Metrics {
    /// Records a decoded frame (either tier).
    pub fn record_frame(&mut self, frame: &DecodedFrame, at_edge: bool, via_kill: bool) {
        if at_edge {
            self.edge_decoded += 1;
        } else {
            self.cloud_decoded += 1;
            if via_kill {
                self.kill_recovered += 1;
            }
        }
        *self.payload_bits.entry(frame.tech).or_default() += frame.payload.len() as u64 * 8;
    }

    /// Total frames decoded across tiers.
    pub fn total_decoded(&self) -> usize {
        self.edge_decoded + self.cloud_decoded
    }

    /// Total payload bits recovered.
    pub fn total_payload_bits(&self) -> u64 {
        self.payload_bits.values().sum()
    }

    /// Goodput in bits per second of *capture time* (the Fig. 3(c)
    /// metric): recovered payload bits divided by the capture duration.
    pub fn goodput_bps(&self, fs: f64) -> f64 {
        if self.samples_processed == 0 {
            return 0.0;
        }
        let seconds = self.samples_processed as f64 / fs;
        self.total_payload_bits() as f64 / seconds
    }

    /// Fraction of capture samples shipped to the cloud, assuming
    /// `bits` per I/Q rail (2 rails) on the wire.
    pub fn shipped_fraction(&self, bits: u32) -> f64 {
        if self.samples_processed == 0 {
            return 0.0;
        }
        let shipped_samples = self.shipped_bytes as f64 * 8.0 / (2.0 * bits as f64);
        shipped_samples / self.samples_processed as f64
    }

    /// Folds a [`LinkStats`] block (one direction of a faulty link)
    /// into the wire counters.
    pub fn record_link_stats(&mut self, stats: &LinkStats) {
        self.wire_datagrams_sent += stats.sent;
        self.wire_datagrams_delivered += stats.delivered;
        self.wire_dropped += stats.dropped;
        self.wire_corrupted += stats.corrupted;
        self.wire_duplicated += stats.duplicated;
        self.wire_reordered += stats.reordered;
    }

    /// Fraction of FFT plan lookups served from the cache, or `None`
    /// when no lookups were recorded.
    pub fn plan_cache_hit_rate(&self) -> Option<f64> {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        (total > 0).then(|| self.plan_cache_hits as f64 / total as f64)
    }

    /// Copies the DSP engine counter deltas since `before` into this
    /// block (see [`galiot_dsp::engine::stats`]).
    pub fn record_engine_stats(&mut self, before: &galiot_dsp::engine::EngineStats) {
        self.dsp_backend = galiot_dsp::kernels::backend_name().to_string();
        let d = galiot_dsp::engine::stats().since(before);
        self.plan_cache_hits += d.plan_hits;
        self.plan_cache_misses += d.plan_misses;
        self.template_bank_builds += d.bank_builds;
        self.template_bank_hits += d.bank_hits;
    }

    /// Records a quarantine: bumps the counter and appends the
    /// dead-letter record so `decode_quarantined ==
    /// quarantine_records.len()` holds by construction.
    pub fn record_quarantine(&mut self, record: QuarantineRecord) {
        self.decode_quarantined += 1;
        self.quarantine_records.push(record);
    }

    /// Frames decoded across the worker pool, pre-deduplication — can
    /// exceed `cloud_decoded` when overlapping segment re-emissions
    /// decode the same frame twice and reassembly drops the repeat.
    pub fn pool_decoded(&self) -> usize {
        self.per_worker_decoded.values().sum()
    }
}

/// Thread-shared metrics handle for the streaming pipeline.
#[derive(Clone, Default)]
pub struct SharedMetrics(Arc<Mutex<Metrics>>);

impl SharedMetrics {
    /// Creates an empty shared block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with the metrics locked.
    pub fn with<R>(&self, f: impl FnOnce(&mut Metrics) -> R) -> R {
        f(&mut self.0.lock())
    }

    /// Snapshots the current counters.
    pub fn snapshot(&self) -> Metrics {
        self.0.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tech: TechId, bytes: usize) -> DecodedFrame {
        DecodedFrame {
            tech,
            payload: vec![0; bytes],
            start: 0,
            len: 100,
        }
    }

    #[test]
    fn record_and_totals() {
        let mut m = Metrics::default();
        m.record_frame(&frame(TechId::LoRa, 10), true, false);
        m.record_frame(&frame(TechId::XBee, 5), false, true);
        assert_eq!(m.total_decoded(), 2);
        assert_eq!(m.edge_decoded, 1);
        assert_eq!(m.cloud_decoded, 1);
        assert_eq!(m.kill_recovered, 1);
        assert_eq!(m.total_payload_bits(), 120);
        assert_eq!(m.payload_bits[&TechId::LoRa], 80);
    }

    #[test]
    fn goodput_uses_capture_time() {
        let mut m = Metrics {
            samples_processed: 1_000_000,
            ..Default::default()
        }; // 1 s at 1 Msps
        m.record_frame(&frame(TechId::ZWave, 125), true, false);
        assert!((m.goodput_bps(1e6) - 1000.0).abs() < 1e-6);
        assert_eq!(Metrics::default().goodput_bps(1e6), 0.0);
    }

    #[test]
    fn shipped_fraction_math() {
        let m = Metrics {
            samples_processed: 1_000_000,
            shipped_bytes: 200_000, // 100k samples at 8+8 bits
            ..Default::default()
        };
        assert!((m.shipped_fraction(8) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn plan_cache_hit_rate_math() {
        assert_eq!(Metrics::default().plan_cache_hit_rate(), None);
        let m = Metrics {
            plan_cache_hits: 3,
            plan_cache_misses: 1,
            ..Default::default()
        };
        assert_eq!(m.plan_cache_hit_rate(), Some(0.75));
    }

    #[test]
    fn link_stats_fold_into_the_wire_counters() {
        let mut m = Metrics {
            wire_decode_errors: 4,
            ..Default::default()
        };
        let stats = LinkStats {
            sent: 10,
            delivered: 9,
            dropped: 1,
            corrupted: 2,
            duplicated: 1,
            reordered: 3,
        };
        m.record_link_stats(&stats);
        m.record_link_stats(&stats);
        assert_eq!(m.wire_datagrams_sent, 20);
        assert_eq!(m.wire_datagrams_delivered, 18);
        assert_eq!(m.wire_dropped, 2);
        assert_eq!(m.wire_corrupted, 4);
        assert_eq!(m.wire_duplicated, 2);
        assert_eq!(m.wire_reordered, 6);
        assert_eq!(m.wire_decode_errors, 4);
    }

    #[test]
    fn quarantines_bump_the_counter_and_keep_the_record() {
        let record = QuarantineRecord {
            gateway: 3,
            seq: 9,
            start: 1024,
            len: 512,
            attempts: vec!["hung", "panic", "panic"],
            payload_hash: 0xDEAD,
            fault_seed: 77,
        };
        let mut m = Metrics::default();
        m.record_quarantine(record.clone());
        assert_eq!(m.decode_quarantined, 1);
        assert_eq!(m.quarantine_records, vec![record]);
    }

    #[test]
    fn shared_metrics_across_clones() {
        let s = SharedMetrics::new();
        let s2 = s.clone();
        s.with(|m| m.detections += 3);
        s2.with(|m| m.detections += 4);
        assert_eq!(s.snapshot().detections, 7);
    }
}
