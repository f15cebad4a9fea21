//! Fleet conformance: N gateways hearing the same air must be
//! indistinguishable — to the frame consumer — from one gateway over a
//! lossless wire. The keystone invariant:
//!
//! > For every gateway count, worker count, shard count, and per-link
//! > fault seed, the fleet delivers exactly the single-gateway
//! > lossless batch frame set, each frame exactly once, in capture
//! > order.
//!
//! Alongside it, the fleet accounting contract: every frame decoded
//! anywhere in the fleet is either delivered or suppressed as a
//! cross-gateway duplicate
//! (`Σ per_gateway_decoded == fleet_delivered + dedup_suppressed`),
//! and the gateway-tagged trace reconciles with the metrics per
//! session (`shipped == decoded + shed + lost`, for every gateway).
//!
//! Fault patterns are seeded (override with `GALIOT_FAULT_SEED`; CI
//! pins and sweeps it) and scenario captures route through
//! `GALIOT_TEST_SEED` — see EXPERIMENTS.md.

use galiot::channel::scenario_seed;
use galiot::core::metrics::Metrics;
use galiot::core::PipelineFrame;
use galiot::prelude::*;
use galiot::trace::verify::{check_gateway_terminals, check_nesting, check_no_drops};
use galiot::trace::{Stage, Trace, TraceSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FS: f64 = 1_000_000.0;
const GATEWAY_COUNTS: [usize; 3] = [1, 2, 4];
const WORKER_COUNTS: [usize; 2] = [1, 4];
const LOSS_RATES: [f64; 3] = [0.0, 0.01, 0.05];

/// Fixed default fault seed; a set `GALIOT_FAULT_SEED` is XOR-combined
/// with it (the same sweep rule as `scenario_seed`). The fleet
/// decorrelates it further per session, so one knob sweeps every link
/// in the fleet at once.
fn fault_seed() -> u64 {
    galiot::channel::fault_seed(0xF1EE7)
}

/// A frame reduced to its conformance identity.
type FrameId = (TechId, Vec<u8>, usize);

fn frame_ids(frames: &[PipelineFrame]) -> Vec<FrameId> {
    frames
        .iter()
        .map(|f| (f.frame.tech, f.frame.payload.clone(), f.frame.start))
        .collect()
}

/// Streaming digitizes a segment at the gain of the window it settled
/// in, batch at the capture's, so sync estimates can move a few
/// samples; the dedup winner can additionally come from any session,
/// so the fleet gets double the single-pipeline slack.
const START_TOLERANCE: usize = 32;

fn assert_same_frames(fleet: &[FrameId], batch: &[FrameId], ctx: &str) {
    assert_eq!(
        fleet.len(),
        batch.len(),
        "{ctx}: frame count diverged\n fleet: {fleet:?}\n batch: {batch:?}"
    );
    let mut unmatched: Vec<&FrameId> = batch.iter().collect();
    for f in fleet {
        let pos = unmatched
            .iter()
            .position(|b| b.0 == f.0 && b.1 == f.1 && b.2.abs_diff(f.2) <= START_TOLERANCE);
        match pos {
            Some(i) => {
                unmatched.remove(i);
            }
            None => panic!("{ctx}: fleet frame {f:?} has no batch counterpart in {unmatched:?}"),
        }
    }
}

/// Conformance-grade transport (cf. `transport_conformance.rs`): the
/// full impairment mix at the given loss rate, ARQ generous enough to
/// always win, degradation ladder disabled.
fn repairable_transport(loss: f64, seed: u64) -> TransportConfig {
    let faults = LinkFaults {
        loss,
        corrupt: 0.02,
        duplicate: 0.05,
        reorder: 0.05,
        jitter_depth: 3,
        seed,
    };
    let mut t = TransportConfig::over_faulty_link(faults);
    t.arq.max_retries = 12;
    t.arq.base_timeout_s = 0.001;
    t.send_queue_cap = 1024;
    t.degrade_hwm = 1 << 20;
    t
}

/// The capture every scenario in this file runs: four well-separated
/// packets of two technologies — each decodes alone, so the lossless
/// batch set is unambiguous.
fn fleet_capture() -> Vec<Cf32> {
    let mut rng = StdRng::seed_from_u64(scenario_seed(60));
    let registry = Registry::prototype();
    let zwave = registry.get(TechId::ZWave).unwrap().clone();
    let xbee = registry.get(TechId::XBee).unwrap().clone();
    let events: Vec<TxEvent> = (0..2)
        .flat_map(|i| {
            [
                TxEvent::new(
                    zwave.clone(),
                    vec![0x91 + i; 6],
                    120_000 + i as usize * 700_000,
                ),
                TxEvent::new(
                    xbee.clone(),
                    vec![0xA1 + i; 6],
                    450_000 + i as usize * 700_000,
                ),
            ]
        })
        .collect();
    let np = snr_to_noise_power(20.0, 0.0);
    compose(&events, 1_600_000, FS, np, &mut rng).samples
}

/// The single-gateway lossless reference: the batch pipeline on the
/// same capture.
fn batch_reference(samples: &[Cf32], registry: &Registry) -> Vec<FrameId> {
    let mut base = GaliotConfig::prototype();
    base.edge_decoding = false;
    let batch = frame_ids(
        &Galiot::new(base, registry.clone())
            .process_capture(samples)
            .frames,
    );
    assert!(
        !batch.is_empty(),
        "batch recovered nothing — scenario is vacuous"
    );
    batch
}

/// Runs one traced fleet pass and returns (frames, trace, metrics).
fn traced_fleet_run(
    config: GaliotConfig,
    samples: &[Cf32],
) -> (Vec<PipelineFrame>, Trace, Metrics) {
    let session = TraceSession::start();
    let fleet = FleetGaliot::start(config, Registry::prototype());
    let metrics = fleet.metrics().clone();
    for c in samples.chunks(65_536) {
        fleet.push_chunk(c.to_vec());
    }
    let frames = fleet.finish();
    let trace = session.finish();
    (frames, trace, metrics.snapshot())
}

/// The full fleet contract for one run: exactly-once delivery of the
/// batch set in capture order, closed dedup accounting, and a
/// gateway-tagged trace that reconciles with the metrics per session.
fn assert_fleet_conformance(
    frames: &[PipelineFrame],
    trace: &Trace,
    m: &Metrics,
    batch: &[FrameId],
    n_gateways: usize,
    ctx: &str,
) {
    // Keystone: the fleet delivers the single-gateway lossless set.
    let delivered = frame_ids(frames);
    assert_same_frames(&delivered, batch, ctx);
    let starts: Vec<usize> = delivered.iter().map(|(_, _, s)| *s).collect();
    assert!(
        starts.windows(2).all(|w| w[1] + START_TOLERANCE >= w[0]),
        "{ctx}: frames out of capture order: {starts:?}"
    );

    // Dedup accounting closes: every frame decoded anywhere in the
    // fleet was delivered once, suppressed as a duplicate, or (when
    // failover is in play — see failover_conformance.rs) charged to a
    // crash.
    let offered: usize = m.per_gateway_decoded.values().sum();
    assert_eq!(
        offered,
        m.fleet_delivered + m.dedup_suppressed + m.crash_lost_frames,
        "{ctx}: fleet decode accounting leaks: {m:?}"
    );
    assert_eq!(
        m.fleet_delivered,
        frames.len(),
        "{ctx}: fleet_delivered vs delivered frames: {m:?}"
    );
    assert_eq!(m.fleet_gateways, n_gateways, "{ctx}");
    // Every session actually fed the ingest, and each delivered frame
    // had one copy per session to choose from.
    assert_eq!(
        m.per_gateway_segments.len(),
        n_gateways,
        "{ctx}: sessions missing from ingest accounting: {m:?}"
    );
    if n_gateways > 1 {
        assert!(
            m.dedup_suppressed >= (n_gateways - 1) * batch.len(),
            "{ctx}: fewer duplicates than redundant sessions imply: {m:?}"
        );
    }

    // The gateway-tagged trace is the independent witness: per
    // session, every shipped segment reached exactly one terminal.
    check_no_drops(trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    check_nesting(trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let by_gw = check_gateway_terminals(trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(by_gw.len(), n_gateways, "{ctx}: trace sessions: {by_gw:?}");
    let pool: usize = m.per_worker_segments.values().sum();
    let shipped: u64 = by_gw.values().map(|a| a.shipped).sum();
    let decoded: u64 = by_gw.values().map(|a| a.decoded).sum();
    let shed: u64 = by_gw.values().map(|a| a.shed).sum();
    let lost: u64 = by_gw.values().map(|a| a.lost).sum();
    assert_eq!(
        shipped, m.shipped_segments as u64,
        "{ctx}: trace vs shipped: {m:?}"
    );
    // A decode terminal is a decode won by that copy's own lease or a
    // sibling's decode shared with it (`decodes_shared`, 0 with one
    // session).
    assert_eq!(
        decoded,
        (pool + m.decodes_shared) as u64,
        "{ctx}: trace vs pool decodes + shared: {m:?}"
    );
    assert_eq!(shed, m.segments_shed as u64, "{ctx}: trace vs shed: {m:?}");
    assert_eq!(lost, m.arq_lost as u64, "{ctx}: trace vs lost: {m:?}");
    // And per session: the mux admitted exactly the segments whose
    // decode terminals the trace carries for that gateway.
    for (gw, acc) in &by_gw {
        assert_eq!(
            acc.decoded,
            *m.per_gateway_segments.get(gw).unwrap_or(&0) as u64,
            "{ctx}: gw{gw} trace decodes vs mux admissions: {by_gw:?} {m:?}"
        );
    }
}

/// The keystone matrix: gateways × workers × loss. Every cell must
/// deliver the batch set exactly once, with reconciled accounting.
#[test]
fn fleet_matches_single_gateway_batch_across_the_matrix() {
    let samples = fleet_capture();
    let registry = Registry::prototype();
    let batch = batch_reference(&samples, &registry);

    for n_gateways in GATEWAY_COUNTS {
        for workers in WORKER_COUNTS {
            for loss in LOSS_RATES {
                let ctx = format!("gateways={n_gateways} workers={workers} loss={loss}");
                let mut config = GaliotConfig::prototype()
                    .with_gateways(n_gateways)
                    .with_cloud_workers(workers);
                config.edge_decoding = false;
                if loss > 0.0 {
                    let seed = fault_seed() ^ (loss * 1000.0) as u64 ^ ((workers as u64) << 32);
                    config = config.with_transport(repairable_transport(loss, seed));
                }
                let (frames, trace, m) = traced_fleet_run(config, &samples);
                assert_fleet_conformance(&frames, &trace, &m, &batch, n_gateways, &ctx);
                if loss > 0.0 {
                    assert_eq!(m.arq_lost, 0, "{ctx}: ARQ gave a segment up: {m:?}");
                    assert!(
                        m.wire.sent > m.shipped_segments as u64,
                        "{ctx}: a lossy fleet run should retransmit: {m:?}"
                    );
                }
            }
        }
    }
}

/// Decode once: three gateways hear the same four packets over faulty
/// links, and the pool spends one decode per over-the-air span, not one
/// per copy — whichever copy arrives first, however far the ARQ skews
/// its siblings — while every copy still reaches the merge through its
/// own lane (the whole fleet contract above, `dedup_suppressed`
/// included, holds unchanged).
#[test]
fn redundant_copies_cost_one_decode_per_span() {
    let samples = fleet_capture();
    let registry = Registry::prototype();
    let batch = batch_reference(&samples, &registry);

    for workers in [1usize, 2] {
        let ctx = format!("decode-once workers={workers}");
        let mut config = GaliotConfig::prototype()
            .with_gateways(3)
            .with_cloud_workers(workers);
        config.edge_decoding = false;
        let seed = fault_seed() ^ 0xD0CE ^ ((workers as u64) << 32);
        config = config.with_transport(repairable_transport(0.05, seed));
        let (frames, trace, m) = traced_fleet_run(config, &samples);
        assert_fleet_conformance(&frames, &trace, &m, &batch, 3, &ctx);
        assert_eq!(m.arq_lost, 0, "{ctx}: ARQ gave a segment up: {m:?}");

        let one_gateway = *m.per_gateway_segments.values().max().unwrap();
        let admitted: usize = m.per_gateway_segments.values().sum();
        assert_eq!(admitted, 3 * one_gateway, "{ctx}: {m:?}");
        let pool: usize = m.per_worker_segments.values().sum();
        assert!(
            pool <= one_gateway + m.decode_retried,
            "{ctx}: {pool} decodes for {one_gateway} spans: {m:?}"
        );
        let decode_spans = trace
            .spans
            .iter()
            .filter(|s| s.stage == Stage::WorkerDecode)
            .count();
        assert_eq!(decode_spans, pool, "{ctx}: worker_decode spans vs pool");
        // Segment-level identity: every admitted copy was decoded
        // under its own lease, answered by a sibling's decode, or
        // quarantined (nothing here is).
        assert_eq!(
            admitted,
            pool + m.decodes_shared + m.decode_quarantined,
            "{ctx}: {m:?}"
        );
        assert_eq!(m.decode_quarantined, 0, "{ctx}: {m:?}");
    }
}

/// A gateway that is silent from the very first sample (crashed before
/// emitting anything — a radio that never came up) must not wedge the
/// fleet: the liveness reaper finalizes its merge watermark and the
/// survivors deliver the full batch set. The deeper failover matrix
/// lives in failover_conformance.rs; this pins the degenerate corner
/// where the dead session never produces a single clock event of its
/// own.
#[test]
fn fleet_survives_a_gateway_silent_from_the_start() {
    let samples = fleet_capture();
    let registry = Registry::prototype();
    let batch = batch_reference(&samples, &registry);

    let mut config = GaliotConfig::prototype()
        .with_gateways(4)
        .with_cloud_workers(4)
        .with_crash(0, 0, false)
        .with_liveness_horizon(12);
    config.edge_decoding = false;
    let (frames, trace, m) = traced_fleet_run(config, &samples);

    let ctx = "silent-from-start";
    let delivered = frame_ids(&frames);
    assert_same_frames(&delivered, &batch, ctx);
    let starts: Vec<usize> = delivered.iter().map(|(_, _, s)| *s).collect();
    assert!(
        starts.windows(2).all(|w| w[1] + START_TOLERANCE >= w[0]),
        "{ctx}: frames out of capture order: {starts:?}"
    );

    assert_eq!(m.sessions_crashed, 1, "{ctx}: {m:?}");
    assert_eq!(m.sessions_restarted, 0, "{ctx}: {m:?}");
    // The dead session never emitted, so it appears nowhere in the
    // ingest accounting or the trace — only the three survivors do.
    assert_eq!(
        m.per_gateway_segments.len(),
        3,
        "{ctx}: a silent session fed the ingest: {m:?}"
    );
    let offered: usize = m.per_gateway_decoded.values().sum();
    assert_eq!(
        offered,
        m.fleet_delivered + m.dedup_suppressed + m.crash_lost_frames,
        "{ctx}: fleet decode accounting leaks: {m:?}"
    );
    assert!(
        m.dedup_suppressed >= 2 * batch.len(),
        "{ctx}: each packet should have had three copies offered: {m:?}"
    );
    check_no_drops(&trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    check_nesting(&trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let by_gw = check_gateway_terminals(&trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(by_gw.len(), 3, "{ctx}: trace sessions: {by_gw:?}");
}

/// Shard routing is an implementation detail: any shard count delivers
/// the identical frame stream.
#[test]
fn shard_count_is_invisible_in_the_delivered_stream() {
    let samples = fleet_capture();
    let registry = Registry::prototype();
    let batch = batch_reference(&samples, &registry);

    let mut reference: Option<Vec<FrameId>> = None;
    for shards in [1usize, 2, 7] {
        let ctx = format!("shards={shards}");
        let mut config = GaliotConfig::prototype()
            .with_gateways(2)
            .with_cloud_workers(4)
            .with_ingest_shards(shards);
        config.edge_decoding = false;
        let (frames, trace, m) = traced_fleet_run(config, &samples);
        assert_fleet_conformance(&frames, &trace, &m, &batch, 2, &ctx);
        assert_eq!(m.ingest_shards, shards, "{ctx}");
        let ids = frame_ids(&frames);
        match &reference {
            None => reference = Some(ids),
            Some(r) => assert_eq!(&ids, r, "{ctx}: delivery changed with shard count"),
        }
    }
}

/// Edge-first decoding composes with the fleet: frames decoded at N
/// gateway edges are deduplicated exactly like cloud frames, and the
/// delivered set equals the edge-on batch reference.
#[test]
fn fleet_dedups_edge_decoded_frames_too() {
    let samples = fleet_capture();
    let registry = Registry::prototype();
    let batch = frame_ids(
        &Galiot::new(GaliotConfig::prototype(), registry.clone())
            .process_capture(&samples)
            .frames,
    );
    assert!(!batch.is_empty());

    let config = GaliotConfig::prototype()
        .with_gateways(2)
        .with_cloud_workers(2);
    let fleet = FleetGaliot::start(config, registry);
    let metrics = fleet.metrics().clone();
    for c in samples.chunks(65_536) {
        fleet.push_chunk(c.to_vec());
    }
    let frames = fleet.finish();
    let m = metrics.snapshot();

    assert_same_frames(&frame_ids(&frames), &batch, "edge-on fleet");
    assert!(
        frames.iter().any(|f| f.at_edge),
        "scenario exercised no edge decodes"
    );
    let offered: usize = m.per_gateway_decoded.values().sum();
    assert_eq!(
        offered,
        m.fleet_delivered + m.dedup_suppressed + m.crash_lost_frames,
        "{m:?}"
    );
    assert!(
        m.dedup_suppressed >= batch.len(),
        "second session's copies must be suppressed: {m:?}"
    );
}
