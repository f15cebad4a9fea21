//! Streaming ≡ batch conformance: the worker-pool streaming pipeline
//! must recover exactly the frame set of the batch pipeline — same
//! technologies, payloads and start offsets — for every worker count
//! and regardless of how the capture is chunked on the way in.
//!
//! This is the contract that makes the cloud tier elastically scalable
//! (the paper's Sec. 5 bet): adding workers may only change *when*
//! frames are decoded, never *what* is decoded or in what order it is
//! delivered.

use galiot::channel::{compose, forced_collision, scenario_seed, snr_to_noise_power, TxEvent};
use galiot::core::{Metrics, PipelineFrame};
use galiot::gateway::{PacketDetector, RtlSdrFrontEnd, UniversalDetector};
use galiot::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FS: f64 = 1_000_000.0;
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
/// Adversarial chunkings: sample-at-a-time, a tiny prime, and a
/// typical SDR USB transfer size.
const CHUNK_SIZES: [usize; 3] = [1, 7, 4096];

/// A frame reduced to its conformance identity.
type FrameId = (TechId, Vec<u8>, usize);

fn frame_ids(frames: &[PipelineFrame]) -> Vec<FrameId> {
    frames
        .iter()
        .map(|f| (f.frame.tech, f.frame.payload.clone(), f.frame.start))
        .collect()
}

fn run_batch(samples: &[Cf32], registry: &Registry, base: &GaliotConfig) -> Vec<FrameId> {
    let report = Galiot::new(base.clone(), registry.clone()).process_capture(samples);
    frame_ids(&report.frames)
}

fn run_streaming(
    samples: &[Cf32],
    registry: &Registry,
    base: &GaliotConfig,
    workers: usize,
    chunk: usize,
) -> Vec<FrameId> {
    let sys = StreamingGaliot::start(base.clone().with_cloud_workers(workers), registry.clone());
    for c in samples.chunks(chunk) {
        sys.push_chunk(c.to_vec());
    }
    frame_ids(&sys.finish())
}

/// Asserts the full workers × chunk-sizes matrix agrees with batch on
/// one capture, and that streaming delivery respects capture order.
/// Timing tolerance when matching streamed frames to batch frames.
///
/// The streaming gateway digitizes a segment at the gain of the window
/// it settled in while batch digitizes the whole capture at one gain,
/// so auto-gain and 8-bit quantization differ in the last bit — enough
/// to move a demodulator's sync estimate by a few samples
/// (microseconds at 1 Msps) without changing what was decoded. Payloads and technologies must still match
/// exactly, one to one.
const START_TOLERANCE: usize = 16;

/// 1:1-matches two frame sets: equal tech + payload, starts within
/// [`START_TOLERANCE`]. Panics with a diff on any unmatched frame.
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

fn assert_conformance(samples: &[Cf32], registry: &Registry, label: &str) {
    assert_conformance_with(
        &GaliotConfig::prototype(),
        &WORKER_COUNTS,
        &CHUNK_SIZES,
        samples,
        registry,
        label,
    );
}

/// [`assert_conformance`] for an arbitrary base configuration and
/// worker × chunk matrix.
fn assert_conformance_with(
    base: &GaliotConfig,
    worker_counts: &[usize],
    chunk_sizes: &[usize],
    samples: &[Cf32],
    registry: &Registry,
    label: &str,
) {
    let batch = run_batch(samples, registry, base);
    assert!(
        !batch.is_empty(),
        "{label}: batch recovered nothing — scenario is vacuous"
    );
    for &workers in worker_counts {
        for &chunk in chunk_sizes {
            let streamed = run_streaming(samples, registry, base, workers, chunk);
            // The ordering contract: streaming delivers in capture
            // order for any worker count (batch lists a collision
            // segment's frames in SIC power order instead).
            let starts: Vec<usize> = streamed.iter().map(|(_, _, s)| *s).collect();
            let mut sorted_starts = starts.clone();
            sorted_starts.sort_unstable();
            assert_eq!(
                starts, sorted_starts,
                "{label}: workers={workers} chunk={chunk}: frames out of capture order"
            );
            assert_same_frames(
                &streamed,
                &batch,
                &format!("{label}: workers={workers} chunk={chunk}"),
            );
        }
    }
}

/// Scenario 1: cross-technology collision with the power separation
/// Algorithm 1's SIC needs — the paper's headline case.
#[test]
fn conformance_on_two_tech_power_separated_collision() {
    let mut rng = StdRng::seed_from_u64(scenario_seed(40));
    let registry = Registry::prototype();
    let events = forced_collision(&registry, 10, &[0.0, 1.0], 20_000, 50_000, &mut rng);
    let np = snr_to_noise_power(25.0, 0.0);
    let cap = compose(&events, 700_000, FS, np, &mut rng);
    assert!(cap.has_collision());
    assert_conformance(&cap.samples, &registry, "two-tech collision");
}

/// Scenario 2: a collision cluster *and* clean packets in one capture,
/// exercising the edge/cloud split and the ordering across both paths.
#[test]
fn conformance_on_mixed_edge_and_cloud_traffic() {
    let mut rng = StdRng::seed_from_u64(scenario_seed(41));
    let registry = Registry::prototype();
    let xbee = registry.get(TechId::XBee).unwrap().clone();
    let zwave = registry.get(TechId::ZWave).unwrap().clone();
    let lora = registry.get(TechId::LoRa).unwrap().clone();
    let mut events = forced_collision(&registry, 8, &[0.0, 1.0], 15_000, 400_000, &mut rng);
    events.insert(0, TxEvent::new(xbee, vec![0xA1; 6], 80_000));
    events.push(TxEvent::new(zwave, vec![0xB2; 6], 900_000));
    events.push(TxEvent::new(lora, vec![0xC3; 6], 1_250_000));
    let np = snr_to_noise_power(20.0, 0.0);
    let cap = compose(&events, 1_700_000, FS, np, &mut rng);
    assert!(cap.has_collision());
    assert_conformance(&cap.samples, &registry, "mixed edge/cloud traffic");
}

/// Scenario 3: two separate collision clusters far apart — multiple
/// shipped segments in flight at once, so reassembly actually has to
/// reorder across workers.
#[test]
fn conformance_on_repeated_collision_clusters() {
    let mut rng = StdRng::seed_from_u64(scenario_seed(42));
    let registry = Registry::prototype();
    let mut events = forced_collision(&registry, 8, &[0.0, 1.0], 18_000, 60_000, &mut rng);
    events.extend(forced_collision(
        &registry,
        8,
        &[1.0, 0.0],
        18_000,
        900_000,
        &mut rng,
    ));
    let np = snr_to_noise_power(25.0, 0.0);
    let cap = compose(&events, 1_600_000, FS, np, &mut rng);
    assert!(cap.has_collision());
    assert_conformance(&cap.samples, &registry, "repeated collision clusters");
}

/// Streaming cuts the segments batch cuts — as many, as many of them
/// decoded at the edge — and recovers its frames, at every chunk size.
/// Returns the batch run's metrics.
fn assert_same_segments(samples: &[Cf32], registry: &Registry, label: &str) -> Metrics {
    let config = GaliotConfig::prototype().with_cloud_workers(2);
    let batch = Galiot::new(config.clone(), registry.clone()).process_capture(samples);
    let batch_frames = frame_ids(&batch.frames);
    assert!(!batch_frames.is_empty(), "{label}: vacuous scenario");
    for chunk in [7, 4_096, 65_536] {
        let sys = StreamingGaliot::start(config.clone(), registry.clone());
        let metrics = sys.metrics().clone();
        for c in samples.chunks(chunk) {
            sys.push_chunk(c.to_vec());
        }
        let streamed = frame_ids(&sys.finish());
        let ctx = format!("{label}: chunk={chunk}");
        let m = metrics.snapshot();
        assert_eq!(
            (m.segments, m.edge_decoded),
            (batch.metrics.segments, batch.metrics.edge_decoded),
            "{ctx}: segments, and those decoded at the edge"
        );
        assert_same_frames(&streamed, &batch_frames, &ctx);
    }
    batch.metrics
}

/// Where a gateway that flushed a 436 416-sample window every 205 312
/// samples (two frames) drew its windows: a segment whose head fell in
/// the last quarter of a stride was cut at the window's edge and cut
/// again from the next window (6 segments for 3 clusters, one frame
/// lost). A gateway that emits each segment where it settles has no
/// such place.
const OLD_STRIDE: usize = 205_312;

#[test]
fn clusters_whose_heads_fell_late_in_a_flush_stride_segment_as_in_batch() {
    let mut rng = StdRng::seed_from_u64(scenario_seed(45));
    let registry = Registry::prototype();
    let pre_guard = registry.max_frame_samples_for(FS, 32) / 8;
    let mut events = Vec::new();
    for k in [0, 2, 4] {
        // The segment's head, in the last quarter of the stride.
        let head = k * OLD_STRIDE + 180_000 + rng.gen_range(0..10_000usize);
        let powers = if k == 2 { [1.0, 0.0] } else { [0.0, 1.0] };
        let at = head + pre_guard;
        events.extend(forced_collision(
            &registry, 10, &powers, 20_000, at, &mut rng,
        ));
    }
    let np = snr_to_noise_power(18.0, 0.0);
    let cap = compose(&events, 7 * OLD_STRIDE, FS, np, &mut rng);
    assert_same_segments(&cap.samples, &registry, "clusters late in a stride");
}

/// Two frames whose spans touch: the second's detection lies within a
/// pre-guard past the first span's end, so batch cuts one segment. A
/// gateway whose settle guard (pre-guard + 64) was shorter than the
/// `m` samples a detection needs before it can be scored emitted the
/// first span alone when its flush ended there, and then both again.
#[test]
fn frames_whose_spans_touch_merge_into_one_segment_as_in_batch() {
    let mut rng = StdRng::seed_from_u64(scenario_seed(46));
    let registry = Registry::prototype();
    let xbee = registry.get(TechId::XBee).unwrap().clone();
    let zwave = registry.get(TechId::ZWave).unwrap().clone();
    // The old grid's second flush ended 641 728 samples in: 220 200
    // past the first frame, the second frame 214 000 past it — within a
    // pre-guard (12 832) of the first span's end (205 312), and not yet
    // scorable there.
    let first = 2 * OLD_STRIDE + 231_104 - 220_200;
    let events = vec![
        TxEvent::new(xbee, vec![0x5A; 8], first),
        TxEvent::new(zwave, vec![0xA5; 8], first + 214_000),
    ];
    let np = snr_to_noise_power(18.0, 0.0);
    let cap = compose(&events, first + 640_000, FS, np, &mut rng);
    assert_same_segments(&cap.samples, &registry, "touching spans");
}

/// The sibling of the cell above whose first span holds a collision —
/// an XBee and a Z-Wave frame 6 000 samples apart, two peak clusters
/// the edge ships at their settle point — so spans that touch are still
/// cut as batch cuts them now that a lone frame leaves at its own end:
/// a Z-Wave frame whose detection lies within a pre-guard past the
/// collision's span. (A LoRa + XBee cluster cannot stand in: the live
/// gateway's per-window threshold raises a different last detection on
/// LoRa's payload chirps than batch's, so their spans end apart.)
#[test]
fn a_collision_and_a_frame_whose_spans_touch_merge_into_one_segment_as_in_batch() {
    let registry = Registry::prototype();
    let config = GaliotConfig::prototype();
    let frame = registry.max_frame_samples_for(FS, config.max_expected_payload);
    let np = snr_to_noise_power(18.0, 0.0);
    let mut rng = StdRng::seed_from_u64(scenario_seed(47));
    let xbee = registry.get(TechId::XBee).unwrap().clone();
    let zwave = registry.get(TechId::ZWave).unwrap().clone();
    let mut events = vec![
        TxEvent::new(xbee, vec![0x5A; 8], 300_000),
        TxEvent::new(zwave.clone(), vec![0x3C; 8], 306_000),
    ];
    // Where the collision's span ends, from its own last detection.
    let alone = compose(&events, 800_000, FS, np, &mut rng).samples;
    let digital = RtlSdrFrontEnd::new(config.front_end).digitize(&alone);
    let detections = UniversalDetector::new(&registry, FS, 0.0).detect(&digital, FS);
    let span_end = detections.last().expect("the collision is detected").start + 2 * frame;
    events.push(TxEvent::new(zwave, vec![0xA5; 8], span_end + frame / 16));
    let cap = compose(&events, 800_000, FS, np, &mut rng);
    let batch = assert_same_segments(&cap.samples, &registry, "a collision and a frame");
    assert_eq!(batch.segments, 1, "the spans touch: one segment");
}

/// A lone XBee frame followed by a Z-Wave frame whose detections land
/// `offset` samples from the end of the window the XBee frame's lone
/// exit bars — its end, the edge's cluster guard and a pre-guard: the
/// batch metrics once live ≡ batch holds at every chunk size.
fn xbee_then_zwave(seed: u64, offset: isize) -> Metrics {
    let mut rng = StdRng::seed_from_u64(scenario_seed(seed));
    let registry = Registry::prototype();
    let xbee = registry.get(TechId::XBee).unwrap().clone();
    let zwave = registry.get(TechId::ZWave).unwrap().clone();
    let config = GaliotConfig::prototype();
    let pre_guard = registry.max_frame_samples_for(FS, config.max_expected_payload) / 8;
    let guard = (config.edge_cluster_guard_s * FS).round() as usize;
    let first = 300_000;
    let payload = vec![0x5A; 8];
    let bar_end = first + xbee.modulate(&payload, FS).len() + guard + pre_guard;
    let events = vec![
        TxEvent::new(xbee, payload, first),
        TxEvent::new(
            zwave,
            vec![0xA5; 8],
            bar_end.checked_add_signed(offset).unwrap(),
        ),
    ];
    let np = snr_to_noise_power(18.0, 0.0);
    let cap = compose(&events, first + 700_000, FS, np, &mut rng);
    assert_same_segments(
        &cap.samples,
        &registry,
        &format!("Z-Wave {offset} past the bar"),
    )
}

/// The Z-Wave frame's detections (one can sit 5 381 samples before the
/// frame) land inside the barred window: the lone exit is barred, the
/// span settles as one segment, ships, and the cloud decodes both.
#[test]
fn a_frame_detected_just_inside_a_lone_frames_bar_ships_with_it() {
    let m = xbee_then_zwave(48, -3_000);
    assert_eq!(
        (m.segments, m.edge_decoded, m.cloud_decoded),
        (1, 0, 2),
        "{m:?}"
    );
}

/// Every detection of the Z-Wave frame lands just past the barred
/// window: the XBee frame leaves at its own end, the Z-Wave frame opens
/// a segment of its own, and both are decoded at the edge.
#[test]
fn a_frame_detected_just_past_a_lone_frames_bar_is_a_segment_of_its_own() {
    let m = xbee_then_zwave(49, 6_000);
    assert_eq!(
        (m.segments, m.edge_decoded, m.cloud_decoded),
        (2, 2, 0),
        "{m:?}"
    );
}

/// One LoRa frame 300 000 samples into an 800 000-sample capture at
/// 18 dB, and `other` — a technology, its power and its offset from the
/// LoRa frame's start — if given: the batch metrics once live ≡ batch
/// holds at every chunk size.
fn lora_with(seed: u64, other: Option<(TechId, f32, usize)>) -> Metrics {
    let mut rng = StdRng::seed_from_u64(scenario_seed(seed));
    let registry = Registry::prototype();
    let lora = registry.get(TechId::LoRa).unwrap().clone();
    let mut events = vec![TxEvent::new(lora, vec![0x4C; 12], 300_000)];
    if let Some((id, power_db, offset)) = other {
        let tech = registry.get(id).unwrap().clone();
        events.push(TxEvent::new(tech, vec![0xB7; 8], 300_000 + offset).with_power_db(power_db));
    }
    let np = snr_to_noise_power(18.0, 0.0);
    let cap = compose(&events, 800_000, FS, np, &mut rng);
    let label = format!("LoRa with {other:?}");
    assert_same_segments(&cap.samples, &registry, &label)
}

/// A lone LoRa frame: its preamble's sidelobe comb and its payload chirps
/// peak as clusters inside its reach, which its cancellation explains —
/// it is decoded at the edge, live and in batch.
#[test]
fn a_lone_lora_frame_is_decoded_at_the_edge_as_in_batch() {
    let m = lora_with(50, None);
    assert_eq!(
        (m.segments, m.edge_decoded, m.cloud_decoded),
        (1, 1, 0),
        "{m:?}"
    );
}

/// A LoRa frame with an XBee frame 15 dB under it, inside it: the LoRa
/// frame decodes through the collision, but the XBee preamble is left in
/// its residual, so the span ships — live and in batch — and the cloud
/// decodes both.
#[test]
fn a_lora_frame_with_a_weak_frame_inside_it_ships_as_in_batch() {
    let m = lora_with(51, Some((TechId::XBee, -15.0, 15_000)));
    assert_eq!(
        (m.segments, m.edge_decoded, m.cloud_decoded),
        (1, 0, 2),
        "{m:?}"
    );
}

/// The pool's observability contract: per-worker decode counts and the
/// queue high-water marks are populated when segments flow through the
/// cloud tier.
#[test]
fn pool_metrics_are_observable() {
    let mut rng = StdRng::seed_from_u64(scenario_seed(43));
    let registry = Registry::prototype();
    let zwave = registry.get(TechId::ZWave).unwrap().clone();
    let xbee = registry.get(TechId::XBee).unwrap().clone();
    let events: Vec<TxEvent> = (0..3)
        .flat_map(|i| {
            [
                TxEvent::new(
                    zwave.clone(),
                    vec![0x10 + i; 6],
                    80_000 + i as usize * 500_000,
                ),
                TxEvent::new(
                    xbee.clone(),
                    vec![0x20 + i; 6],
                    300_000 + i as usize * 500_000,
                ),
            ]
        })
        .collect();
    let np = snr_to_noise_power(18.0, 0.0);
    let cap = compose(&events, 1_800_000, FS, np, &mut rng);

    // Edge decoding off: every segment must cross the backhaul, so the
    // pool counters have to move.
    let mut config = GaliotConfig::prototype().with_cloud_workers(2);
    config.edge_decoding = false;
    let sys = StreamingGaliot::start(config, registry);
    let metrics = sys.metrics().clone();
    for c in cap.samples.chunks(4096) {
        sys.push_chunk(c.to_vec());
    }
    let frames = sys.finish();
    let m = metrics.snapshot();

    assert!(
        frames.len() >= 4,
        "expected most packets decoded, got {}",
        frames.len()
    );
    assert_eq!(m.cloud_workers, 2);
    assert!(m.shipped_segments > 0, "{m:?}");
    assert!(
        m.seg_queue_hwm > 0,
        "segment queue high-water mark never moved: {m:?}"
    );
    assert!(m.pool_decoded() > 0, "no per-worker decode counts: {m:?}");
    assert!(
        m.per_worker_segments.values().all(|&n| n > 0) || m.per_worker_segments.len() == 1,
        "a worker sat idle on a multi-segment run: {:?}",
        m.per_worker_segments
    );
    assert!(m.cloud_busy_ns > 0 && m.gateway_busy_ns > 0, "{m:?}");
    assert_eq!(m.decode_poisoned, 0);
}
