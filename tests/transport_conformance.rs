//! Transport conformance: streaming over an impaired backhaul must be
//! indistinguishable from the lossless batch pipeline whenever the ARQ
//! can repair the link — same frame set, same capture-order delivery,
//! at every worker count — and when it *cannot* repair the link (ARQ
//! disabled or retries exhausted), the segments declared lost must be
//! exactly the ones that never arrived: no silent gaps, no phantom
//! losses.
//!
//! The fault matrix is seeded (override with `GALIOT_FAULT_SEED`; CI
//! pins it) so every cell is reproducible; scenario captures route
//! through `GALIOT_TEST_SEED` (see EXPERIMENTS.md).

use galiot::channel::scenario_seed;
use galiot::core::Metrics;
use galiot::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FS: f64 = 1_000_000.0;
const WORKER_COUNTS: [usize; 2] = [1, 4];
const LOSS_RATES: [f64; 3] = [0.0, 0.01, 0.05];

/// Fixed default fault seed; a set `GALIOT_FAULT_SEED` is XOR-combined
/// with it (the same sweep rule as `scenario_seed`) so CI can pin or
/// sweep the impairment pattern explicitly.
fn fault_seed() -> u64 {
    galiot::channel::fault_seed(0xFA57)
}

/// A frame reduced to its conformance identity.
type FrameId = (TechId, Vec<u8>, usize);

fn frame_ids(frames: &[galiot::core::PipelineFrame]) -> Vec<FrameId> {
    frames
        .iter()
        .map(|f| (f.frame.tech, f.frame.payload.clone(), f.frame.start))
        .collect()
}

/// See `streaming_conformance.rs`: streaming digitizes a segment at the
/// gain of the window it settled in, so sync estimates can move a few
/// samples without changing what was decoded.
const START_TOLERANCE: usize = 16;

fn assert_same_frames(streamed: &[FrameId], batch: &[FrameId], ctx: &str) {
    assert_eq!(
        streamed.len(),
        batch.len(),
        "{ctx}: frame count diverged\n streaming: {streamed:?}\n batch: {batch:?}"
    );
    let mut unmatched: Vec<&FrameId> = batch.iter().collect();
    for f in streamed {
        let pos = unmatched
            .iter()
            .position(|b| b.0 == f.0 && b.1 == f.1 && b.2.abs_diff(f.2) <= START_TOLERANCE);
        match pos {
            Some(i) => {
                unmatched.remove(i);
            }
            None => panic!("{ctx}: streamed frame {f:?} has no batch counterpart in {unmatched:?}"),
        }
    }
}

/// The transport accounting contract: every segment the gateway
/// offered is either decoded by exactly one worker, shed by the send
/// queue, or declared lost by the ARQ.
fn assert_accounting(m: &Metrics, ctx: &str) {
    let pool: usize = m.per_worker_segments.values().sum();
    assert_eq!(
        m.shipped_segments,
        pool + m.segments_shed + m.arq_lost,
        "{ctx}: shipped ≠ pool + shed + lost: {m:?}"
    );
}

/// A conformance-grade transport: full impairment mix at the given
/// loss rate, ARQ generous enough to always win, degradation disabled
/// (the ladder changes wire fidelity, which is a different contract —
/// see `degradation_counters_stay_consistent`).
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

/// Runs one capture through the full loss × workers matrix and checks
/// streaming-over-faults ≡ lossless batch. `edge` controls edge
/// decoding on BOTH sides: off forces every segment across the
/// impaired wire; on keeps the paper's split (collision clusters still
/// ship — the edge only handles clean single packets).
fn assert_transport_conformance(samples: &[Cf32], registry: &Registry, edge: bool, label: &str) {
    let mut base = GaliotConfig::prototype();
    base.edge_decoding = edge;

    let batch = frame_ids(
        &Galiot::new(base.clone(), registry.clone())
            .process_capture(samples)
            .frames,
    );
    assert!(
        !batch.is_empty(),
        "{label}: batch recovered nothing — scenario is vacuous"
    );

    for loss in LOSS_RATES {
        for workers in WORKER_COUNTS {
            let ctx = format!("{label}: loss={loss} workers={workers}");
            let seed = fault_seed() ^ (loss * 1000.0) as u64 ^ ((workers as u64) << 32);
            let config = base
                .clone()
                .with_cloud_workers(workers)
                .with_transport(repairable_transport(loss, seed));
            let sys = StreamingGaliot::start(config, registry.clone());
            let metrics = sys.metrics().clone();
            for c in samples.chunks(65_536) {
                sys.push_chunk(c.to_vec());
            }
            let streamed = frame_ids(&sys.finish());

            let starts: Vec<usize> = streamed.iter().map(|(_, _, s)| *s).collect();
            let mut sorted = starts.clone();
            sorted.sort_unstable();
            assert_eq!(starts, sorted, "{ctx}: frames out of capture order");
            assert_same_frames(&streamed, &batch, &ctx);

            let m = metrics.snapshot();
            assert!(
                m.shipped_segments > 0,
                "{ctx}: nothing crossed the wire — scenario does not exercise the transport"
            );
            assert_eq!(m.arq_lost, 0, "{ctx}: ARQ gave a segment up: {m:?}");
            assert_eq!(m.segments_shed, 0, "{ctx}: unexpected shedding: {m:?}");
            assert_eq!(m.segments_downgraded, 0, "{ctx}: unexpected downgrade");
            assert_accounting(&m, &ctx);
            assert_eq!(
                m.arq_acked, m.shipped_segments,
                "{ctx}: every shipped segment must end acked: {m:?}"
            );
            if m.wire.dropped > 0 {
                assert!(
                    m.arq_retransmits > 0,
                    "{ctx}: the wire dropped datagrams but nothing was retransmitted: {m:?}"
                );
            }
            if loss > 0.0 {
                assert!(
                    m.wire.sent > m.shipped_segments as u64,
                    "{ctx}: a lossy run should need more datagrams than segments: {m:?}"
                );
            }
        }
    }
}

/// Scenario 1: well-separated multi-technology traffic — several
/// independent segments in flight, exercising windowed ARQ and
/// receiver-side reordering across workers.
#[test]
fn conformance_on_separated_multi_tech_traffic() {
    let mut rng = StdRng::seed_from_u64(scenario_seed(50));
    let registry = Registry::prototype();
    let zwave = registry.get(TechId::ZWave).unwrap().clone();
    let xbee = registry.get(TechId::XBee).unwrap().clone();
    let events: Vec<TxEvent> = (0..3)
        .flat_map(|i| {
            [
                TxEvent::new(
                    zwave.clone(),
                    vec![0x30 + i; 6],
                    100_000 + i as usize * 600_000,
                ),
                TxEvent::new(
                    xbee.clone(),
                    vec![0x40 + i; 6],
                    400_000 + i as usize * 600_000,
                ),
            ]
        })
        .collect();
    let np = snr_to_noise_power(20.0, 0.0);
    let cap = compose(&events, 2_000_000, FS, np, &mut rng);
    assert_transport_conformance(&cap.samples, &registry, false, "separated multi-tech");
}

/// Scenario 2: a cross-technology collision cluster — the large
/// SIC-bound segments the paper ships to the cloud, now over an
/// impaired wire. Edge decoding stays on (the paper's configuration —
/// it cannot handle a collision, so the cluster ships regardless);
/// the capture matches PR 1's streaming-conformance scenario.
#[test]
fn conformance_on_collision_cluster_over_faults() {
    let mut rng = StdRng::seed_from_u64(scenario_seed(40));
    let registry = Registry::prototype();
    let events = forced_collision(&registry, 10, &[0.0, 1.0], 20_000, 50_000, &mut rng);
    let np = snr_to_noise_power(25.0, 0.0);
    let cap = compose(&events, 700_000, FS, np, &mut rng);
    assert!(cap.has_collision());
    assert_transport_conformance(&cap.samples, &registry, true, "collision cluster");
}

/// With retries disabled over a heavily lossy one-way link, the
/// segments declared lost are exactly the ones missing from the
/// output: the transport never loses silently and never cries wolf.
#[test]
fn declared_lost_segments_are_exactly_the_missing_ones() {
    let mut rng = StdRng::seed_from_u64(scenario_seed(52));
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

    let mut base = GaliotConfig::prototype();
    base.edge_decoding = false;
    let batch = frame_ids(
        &Galiot::new(base.clone(), registry.clone())
            .process_capture(&cap.samples)
            .frames,
    );
    assert_eq!(batch.len(), 6, "each packet should decode alone: {batch:?}");

    // Loss only (no reorder/dup), acks perfect, zero retries, and a
    // timeout far above the ack round trip: exactly the datagrams the
    // seeded link drops become lost segments — deterministically.
    let mut t = TransportConfig::over_faulty_link(LinkFaults::lossy(0.35, fault_seed()));
    t.ack_faults = LinkFaults::none();
    t.arq.max_retries = 0;
    t.arq.base_timeout_s = 0.050;
    let config = base.with_cloud_workers(1).with_transport(t);

    let sys = StreamingGaliot::start(config, registry);
    let metrics = sys.metrics().clone();
    for c in cap.samples.chunks(65_536) {
        sys.push_chunk(c.to_vec());
    }
    let streamed = frame_ids(&sys.finish());
    let m = metrics.snapshot();

    // Every surviving frame matches a batch frame 1:1…
    let mut unmatched: Vec<&FrameId> = batch.iter().collect();
    for f in &streamed {
        let pos = unmatched
            .iter()
            .position(|b| b.0 == f.0 && b.1 == f.1 && b.2.abs_diff(f.2) <= START_TOLERANCE);
        match pos {
            Some(i) => {
                unmatched.remove(i);
            }
            None => panic!("streamed frame {f:?} is not in the batch set"),
        }
    }
    // …and the count of missing frames is exactly the declared losses.
    assert_eq!(
        batch.len() - streamed.len(),
        m.arq_lost,
        "missing frames ≠ declared-lost segments: {m:?}"
    );
    assert!(
        m.arq_lost > 0,
        "a 35% one-way link with zero retries should lose something: {m:?}"
    );
    assert_eq!(m.wire.dropped as usize, m.arq_lost, "{m:?}");
    assert_accounting(&m, "declared-lost");
}

/// Graceful degradation under a slow uplink: a congested send queue
/// first steps compression down, then sheds — and the counters stay
/// consistent with what was offered, decoded, and dropped.
#[test]
fn degradation_counters_stay_consistent() {
    let mut rng = StdRng::seed_from_u64(scenario_seed(53));
    let registry = Registry::prototype();
    let zwave = registry.get(TechId::ZWave).unwrap().clone();
    let xbee = registry.get(TechId::XBee).unwrap().clone();
    // Five frames far enough apart to be five segments.
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

    // A 1 Mbit/s paced uplink against back-to-back segments, with a
    // two-slot send queue: the ladder and the shedder must both fire.
    let mut config = GaliotConfig::prototype().with_cloud_workers(1);
    config.edge_decoding = false;
    let mut t = TransportConfig::reliable();
    t.uplink_bps = Some(1e6);
    t.send_queue_cap = 2;
    t.degrade_hwm = 1;
    t.min_bits = 4;
    config = config.with_transport(t);

    let sys = StreamingGaliot::start(config, registry);
    let metrics = sys.metrics().clone();
    for c in cap.samples.chunks(65_536) {
        sys.push_chunk(c.to_vec());
    }
    let frames = sys.finish();
    let m = metrics.snapshot();

    assert!(
        m.segments_downgraded > 0,
        "the compression ladder never stepped down: {m:?}"
    );
    assert!(
        m.segments_shed > 0,
        "the queue never shed under a saturated uplink: {m:?}"
    );
    assert!(m.send_queue_hwm >= 2, "{m:?}");
    // Per-bits counts must cover every shipped segment.
    assert_eq!(
        m.shipped_by_bits.values().sum::<u64>(),
        m.shipped_segments as u64,
        "{m:?}"
    );
    assert!(
        m.shipped_by_bits.keys().any(|&b| b < 8),
        "no segment actually used a degraded level: {m:?}"
    );
    assert_accounting(&m, "degradation");
    // Surviving frames still arrive in capture order.
    let starts: Vec<usize> = frames.iter().map(|f| f.frame.start).collect();
    let mut sorted = starts.clone();
    sorted.sort_unstable();
    assert_eq!(starts, sorted, "frames out of capture order");
}
