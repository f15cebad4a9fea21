//! Trace conformance: the observability layer as a test oracle.
//!
//! A drained trace is not decoration — it must *agree with the
//! pipeline's own accounting*, exactly:
//!
//! * every `ship` event reaches a `decode`/`shed`/`lost` terminal
//!   (no segment is silently swallowed), and the per-kind totals equal
//!   the `Metrics` counters;
//! * per-thread span nesting is well-formed (a SIC round sits entirely
//!   inside its worker-decode span; guards never straddle stages);
//! * the per-stage latency histograms reconcile with the counters:
//!   `worker_decode.count == Σ per_worker_segments`,
//!   `sic_round.count == sic_rounds`,
//!   `kill_filter.count == kill_applications`, and so on — at every
//!   worker count;
//! * no ring overflowed, so none of the above is vacuous.
//!
//! Every pipeline run in this file happens *inside* a trace session.
//! A session's recorder belongs to the thread that started it and the
//! pipeline threads spawned under it, so the tests here run — and
//! trace — concurrently without seeing each other's records
//! (`concurrent_sessions_each_reconcile_and_ignore_untraced_work`).

use galiot::core::metrics::Metrics;
use galiot::prelude::*;
use galiot::trace::verify::{check_nesting, check_no_drops, check_ship_terminals, ShipAccounting};
use galiot::trace::{EventKind, Stage, Trace, TraceSession};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Barrier};
use std::thread;

const FS: f64 = 1_000_000.0;
const WORKER_COUNTS: [usize; 2] = [1, 4];

/// Scenario seed, overridable via `GALIOT_TEST_SEED` (see
/// EXPERIMENTS.md). The override is XOR-combined with each scenario's
/// default so distinct scenarios stay distinct under a sweep.
fn seed(default: u64) -> u64 {
    galiot::channel::scenario_seed(default)
}

/// A collision-bearing capture: three technologies, two colliding, so
/// the cloud tier (SIC + kill filters) is actually exercised.
fn collision_capture(s: u64) -> Vec<Cf32> {
    let mut rng = StdRng::seed_from_u64(s);
    let registry = Registry::prototype();
    let events = forced_collision(&registry, 10, &[0.0, 1.0], 20_000, 50_000, &mut rng);
    let np = snr_to_noise_power(25.0, 0.0);
    let cap = compose(&events, 700_000, FS, np, &mut rng);
    assert!(cap.has_collision());
    cap.samples
}

/// Runs one traced streaming pass and returns (trace, metrics).
fn traced_run(config: GaliotConfig, samples: &[Cf32]) -> (Trace, Metrics) {
    let session = TraceSession::start();
    let m = streaming_run(config, samples, || {});
    (session.finish(), m)
}

/// One streaming pass; `before_finish` runs with the whole capture
/// pushed and every pipeline thread still alive.
fn streaming_run(config: GaliotConfig, samples: &[Cf32], before_finish: impl FnOnce()) -> Metrics {
    let sys = StreamingGaliot::start(config, Registry::prototype());
    let metrics = sys.metrics().clone();
    for c in samples.chunks(65_536) {
        sys.push_chunk(c.to_vec());
    }
    before_finish();
    let _frames = sys.finish();
    metrics.snapshot()
}

/// The core reconciliation contract, shared by every scenario: the
/// trace's structural checks pass and its totals equal the metrics.
fn assert_reconciled(trace: &Trace, m: &Metrics, ctx: &str) -> ShipAccounting {
    check_no_drops(trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    check_nesting(trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let acc = check_ship_terminals(trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));

    let pool: usize = m.per_worker_segments.values().sum();
    assert_eq!(
        acc.shipped, m.shipped_segments as u64,
        "{ctx}: ship events vs shipped_segments: {acc:?} {m:?}"
    );
    assert_eq!(
        acc.decoded, pool as u64,
        "{ctx}: decode events vs pool segments: {acc:?} {m:?}"
    );
    assert_eq!(
        acc.shed, m.segments_shed as u64,
        "{ctx}: shed events vs segments_shed: {acc:?} {m:?}"
    );
    assert_eq!(
        acc.lost, m.arq_lost as u64,
        "{ctx}: lost events vs arq_lost: {acc:?} {m:?}"
    );

    // Histogram counts are the span counts — and both reconcile with
    // the pipeline's own counters.
    for stage in Stage::ALL {
        assert_eq!(
            trace.histogram(stage).count(),
            trace.span_count(stage),
            "{ctx}: {} histogram diverges from its span records",
            stage.name()
        );
    }
    assert_eq!(
        trace.histogram(Stage::WorkerDecode).count(),
        pool as u64,
        "{ctx}: worker_decode histogram vs per-worker segment counts"
    );
    assert_eq!(
        trace.histogram(Stage::SicRound).count(),
        m.sic_rounds,
        "{ctx}: sic_round histogram vs sic_rounds counter"
    );
    assert_eq!(
        trace.histogram(Stage::KillFilter).count(),
        m.kill_applications,
        "{ctx}: kill_filter histogram vs kill_applications counter"
    );
    acc
}

/// Direct (perfect-backhaul) shipping, across the worker matrix: every
/// shipped segment decodes, nothing is shed or lost, and every stage
/// histogram reconciles.
#[test]
fn direct_mode_trace_reconciles_with_metrics() {
    let samples = collision_capture(seed(40));
    for workers in WORKER_COUNTS {
        let ctx = format!("direct workers={workers}");
        let mut config = GaliotConfig::prototype().with_cloud_workers(workers);
        config.edge_decoding = false; // everything ships
        let (trace, m) = traced_run(config, &samples);

        assert!(m.shipped_segments > 0, "{ctx}: vacuous scenario");
        let acc = assert_reconciled(&trace, &m, &ctx);
        assert_eq!(acc.shed, 0, "{ctx}");
        assert_eq!(acc.lost, 0, "{ctx}");
        assert_eq!(acc.decoded, acc.shipped, "{ctx}: clean run must decode all");

        // Compression happens exactly once per shipped segment, and
        // reassembly advances exactly once per sequence number.
        assert_eq!(
            trace.histogram(Stage::Compress).count(),
            m.shipped_segments as u64,
            "{ctx}: compress histogram vs shipped_segments"
        );
        assert_eq!(
            trace.histogram(Stage::Reassembly).count(),
            m.shipped_segments as u64,
            "{ctx}: reassembly histogram vs shipped_segments"
        );
        // The gateway stages ran at all.
        for stage in [
            Stage::FrontendCapture,
            Stage::UniversalDetect,
            Stage::Extract,
        ] {
            assert!(
                trace.histogram(stage).count() > 0,
                "{ctx}: no {} spans recorded",
                stage.name()
            );
        }
        // SIC actually fired on a collision capture.
        assert!(m.sic_rounds > 0, "{ctx}: no SIC rounds on a collision");

        // The stats report carries the stage the run was dominated by.
        assert!(trace.stats_json().contains("\"worker_decode\""));
    }
}

/// The ARQ transport over a clean wire: `arq_send` spans count initial
/// transmissions plus retransmissions, receiver spans cover every
/// delivered datagram, and the terminal accounting still closes.
#[test]
fn transport_mode_arq_spans_reconcile() {
    let samples = collision_capture(seed(41));
    for workers in WORKER_COUNTS {
        let ctx = format!("transport workers={workers}");
        let mut t = TransportConfig::over_faulty_link(LinkFaults::none());
        t.arq.base_timeout_s = 0.050; // no spurious timeouts on a clean wire
        let mut config = GaliotConfig::prototype()
            .with_cloud_workers(workers)
            .with_transport(t);
        config.edge_decoding = false;
        let (trace, m) = traced_run(config, &samples);

        assert!(m.shipped_segments > 0, "{ctx}: vacuous scenario");
        let acc = assert_reconciled(&trace, &m, &ctx);
        assert_eq!(acc.lost, 0, "{ctx}: clean wire lost a segment: {m:?}");
        assert_eq!(acc.shed, 0, "{ctx}: unexpected shedding: {m:?}");

        // Every non-shed shipped segment is sent once, plus any
        // retransmissions the ARQ performed.
        assert_eq!(
            trace.histogram(Stage::ArqSend).count(),
            (m.shipped_segments - m.segments_shed) as u64 + m.arq_retransmits as u64,
            "{ctx}: arq_send spans vs sends+retransmits: {m:?}"
        );
        // A clean wire delivers every uplink datagram to the receiver.
        assert_eq!(
            trace.histogram(Stage::ArqRecv).count(),
            trace.histogram(Stage::ArqSend).count(),
            "{ctx}: receiver attempts vs sender transmissions: {m:?}"
        );
    }
}

/// Under a saturated uplink the send queue sheds — and the shed
/// segments show up in the trace as `shed` terminals, not as silence.
/// Five frames far enough apart to be five segments, all cut within a
/// fraction of the time the uplink needs to carry one.
#[test]
fn shed_segments_terminate_in_the_trace() {
    let mut rng = StdRng::seed_from_u64(seed(53));
    let registry = Registry::prototype();
    let zwave = registry.get(TechId::ZWave).unwrap().clone();
    let xbee = registry.get(TechId::XBee).unwrap().clone();
    let events: Vec<TxEvent> = (0..5)
        .map(|i| {
            let tech = if i % 2 == 0 { &zwave } else { &xbee };
            TxEvent::new(
                tech.clone(),
                vec![0x70 + i; 6],
                60_000 + i as usize * 230_000,
            )
        })
        .collect();
    let np = snr_to_noise_power(20.0, 0.0);
    let cap = compose(&events, 1_100_000, FS, np, &mut rng);

    let mut config = GaliotConfig::prototype().with_cloud_workers(1);
    config.edge_decoding = false;
    let mut t = TransportConfig::reliable();
    t.uplink_bps = Some(1e6);
    t.send_queue_cap = 2;
    t.degrade_hwm = 1;
    t.min_bits = 4;
    config = config.with_transport(t);

    let (trace, m) = traced_run(config, &cap.samples);
    let acc = assert_reconciled(&trace, &m, "shed");
    assert!(acc.shed > 0, "a saturated two-slot queue never shed: {m:?}");
    assert_eq!(
        acc.shipped,
        acc.decoded + acc.shed + acc.lost,
        "shed: {m:?}"
    );
}

/// With retries disabled over a heavily lossy wire, segments the ARQ
/// gives up on appear as `lost` terminals — exactly `arq_lost` many.
#[test]
fn lost_segments_terminate_in_the_trace() {
    let mut rng = StdRng::seed_from_u64(seed(52));
    let registry = Registry::prototype();
    let zwave = registry.get(TechId::ZWave).unwrap().clone();
    let events: Vec<TxEvent> = (0..6)
        .map(|i| {
            TxEvent::new(
                zwave.clone(),
                vec![0x60 + i; 6],
                120_000 + i as usize * 600_000,
            )
        })
        .collect();
    let np = snr_to_noise_power(20.0, 0.0);
    let cap = compose(&events, 3_800_000, FS, np, &mut rng);

    let mut t = TransportConfig::over_faulty_link(LinkFaults::lossy(0.35, seed(0xFA57)));
    t.ack_faults = LinkFaults::none();
    t.arq.max_retries = 0;
    t.arq.base_timeout_s = 0.050;
    let mut config = GaliotConfig::prototype()
        .with_cloud_workers(1)
        .with_transport(t);
    config.edge_decoding = false;

    let (trace, m) = traced_run(config, &cap.samples);
    let acc = assert_reconciled(&trace, &m, "lost");
    assert!(
        acc.lost > 0,
        "a 35% one-way link with zero retries should lose something: {m:?}"
    );
    // `>=` not `==`: under scheduler pressure an ack can arrive after
    // the zero-retry timeout already declared the segment lost, giving
    // that seq both a `lost` and a `decode` terminal. That duality is
    // the transport's documented behavior, not a trace defect.
    assert!(
        acc.decoded + acc.shed + acc.lost >= acc.shipped,
        "lost: {acc:?} {m:?}"
    );
}

/// A single segment's journey can be reconstructed from the trace by
/// its sequence number: shipped, decoded by a worker, reassembled — in
/// that order, with the worker-decode span between the two events.
#[test]
fn packet_journey_reconstructs_by_seq() {
    let samples = collision_capture(seed(42));
    let mut config = GaliotConfig::prototype().with_cloud_workers(4);
    config.edge_decoding = false;
    let (trace, m) = traced_run(config, &samples);
    assert!(m.shipped_segments > 0, "vacuous scenario");

    // Follow the first shipped segment.
    let seq = trace
        .events
        .iter()
        .find(|e| e.kind == EventKind::Ship)
        .expect("a ship event")
        .seq;
    let events = trace.events_for_seq(seq);
    let ship_t = events
        .iter()
        .find(|e| e.kind == EventKind::Ship)
        .expect("ship event for seq")
        .t_ns;
    let decode_t = events
        .iter()
        .find(|e| e.kind == EventKind::Decode)
        .expect("decode terminal for seq")
        .t_ns;
    assert!(ship_t <= decode_t, "shipped after decoded?");

    let spans = trace.spans_for_seq(seq);
    let worker = spans
        .iter()
        .find(|s| s.stage == Stage::WorkerDecode)
        .expect("worker_decode span for seq");
    assert!(
        ship_t <= worker.start_ns && worker.start_ns + worker.dur_ns <= decode_t,
        "worker-decode span must sit between ship and decode marks"
    );
    assert!(
        spans.iter().any(|s| s.stage == Stage::Reassembly),
        "reassembly span for seq"
    );

    // The journey renders into the chrome trace too.
    let json = trace.chrome_trace_json();
    assert!(
        json.contains("\"worker_decode\""),
        "chrome trace names stages"
    );
    assert!(
        json.contains(&format!("\"seq\":{seq}")),
        "chrome trace carries seqs"
    );
}

/// The regression test for session-owned tracing: a recorder is owned by its session
/// and inherited down the pipeline's own threads, so two pipelines
/// traced from two threads of one process *at the same time* each
/// reconcile exactly, and a third, untraced pipeline running beside
/// them shows up in neither trace. The barrier holds all three with
/// their captures pushed and their threads alive until the last one
/// gets there, so the overlap is forced, not hoped for.
#[test]
fn concurrent_sessions_each_reconcile_and_ignore_untraced_work() {
    let config = |workers| {
        let mut c = GaliotConfig::prototype().with_cloud_workers(workers);
        c.edge_decoding = false;
        c
    };
    // Captures first: nothing that can fail stands between a thread
    // and the barrier the other two wait on.
    let captures = [43, 44].map(|s| collision_capture(seed(s)));
    let all_running = Arc::new(Barrier::new(3));
    let traced: Vec<_> = [1, 2]
        .into_iter()
        .zip(captures.clone())
        .map(|(workers, samples)| {
            let all_running = Arc::clone(&all_running);
            thread::spawn(move || {
                let session = TraceSession::start();
                let m = streaming_run(config(workers), &samples, || {
                    all_running.wait();
                });
                (session.finish(), m)
            })
        })
        .collect();
    let untraced = streaming_run(config(2), &captures[0], || {
        all_running.wait();
    });
    assert!(
        untraced.sic_rounds > 0,
        "untraced pipeline did no cloud work"
    );
    assert!(!galiot::trace::enabled(), "a sibling session leaked here");

    for (i, handle) in traced.into_iter().enumerate() {
        let ctx = format!("concurrent session {i}");
        let (trace, m) = handle.join().expect("traced pipeline panicked");
        assert!(m.shipped_segments > 0, "{ctx}: vacuous scenario");
        assert!(m.sic_rounds > 0, "{ctx}: no SIC rounds on a collision");
        let acc = assert_reconciled(&trace, &m, &ctx);
        assert_eq!(acc.decoded, acc.shipped, "{ctx}: clean run must decode all");
        assert_eq!(
            trace.histogram(Stage::Compress).count(),
            m.shipped_segments as u64,
            "{ctx}: compress histogram vs shipped_segments"
        );
    }
}

/// A session only sees what ran inside it: records from earlier
/// sessions (every other test here) never leak into a fresh one.
/// (The disabled-path invisibility itself is covered by the trace
/// crate's own `disabled_recording_is_invisible` unit test.)
#[test]
fn sessions_are_isolated() {
    let trace = TraceSession::start().finish();
    assert_eq!(
        trace.spans.len(),
        0,
        "stale spans leaked: {:?}",
        trace.spans
    );
    assert_eq!(trace.events.len(), 0, "stale events leaked");
    assert!(trace.stage_histograms().all(|(_, h)| h.count() == 0));
}
