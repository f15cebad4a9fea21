//! Single-layer microbenchmarks: the layer numbers that do not need a
//! pipeline — DSP kernels and the correlation engine, per-frame modem
//! cost, ARQ transport goodput, the fleet merge. Each is timed from
//! here around public calls and reported as a median of repetitions.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{bounded, unbounded};
use galiot_channel::{compose, random_payload, snr_to_noise_power, TxEvent};
use galiot_cloud::FleetMerge;
use galiot_core::metrics::SharedMetrics;
use galiot_core::transport::{spawn_arq_receiver, spawn_arq_sender, QueuedSegment, SendQueue};
use galiot_dsp::engine::Template;
use galiot_dsp::{kernels, Cf32};
use galiot_gateway::{LinkFaults, ShippedSegment};
use galiot_phy::registry::Registry;
use galiot_phy::TechId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{median, Metric};
use crate::workload::{Workload, FS};

/// Kernel vector length and FIR tap count (the sizes PR 8 tuned for).
const KERNEL_N: usize = 2048;
const FIR_TAPS: usize = 33;
/// Repetitions of each timed microbenchmark; the median is reported.
const REPS: usize = 9;

/// A unit-modulus tone: products of such vectors neither overflow nor
/// decay into denormals however often a kernel is re-applied.
fn tone(n: usize, step: f32) -> Vec<Cf32> {
    (0..n).map(|i| Cf32::cis(i as f32 * step)).collect()
}

/// Median seconds per call of `f` over [`REPS`] batches of `calls`.
fn time_calls(calls: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&batches)
}

/// `dsp.*`: the four hot kernels on the detected backend and the
/// overlap-save correlator.
fn dsp() -> Vec<Metric> {
    let x = tone(KERNEL_N, 0.013);
    let y = tone(KERNEL_N, 0.029);
    let taps: Vec<f32> = (0..FIR_TAPS).map(|i| 1.0 / (1.0 + i as f32)).collect();
    let melems = |s_per_call: f64| KERNEL_N as f64 / s_per_call / 1e6;

    let dot = time_calls(2000, || {
        black_box(kernels::dot_conj(black_box(&x), black_box(&y)));
    });
    let mut a = x.clone();
    let mul = time_calls(2000, || {
        kernels::mul_in_place(black_box(&mut a), black_box(&y[..]));
    });
    let mut out = vec![Cf32::ZERO; KERNEL_N];
    let fir = time_calls(500, || {
        kernels::fir_same(black_box(&taps), black_box(&x), black_box(&mut out));
    });
    let mut r = x.clone();
    let sub = time_calls(2000, || {
        // Alternating sign keeps `r` bounded over many calls.
        kernels::sub_scaled(black_box(&mut r), black_box(&y), Cf32::new(1e-3, -1e-3));
        kernels::sub_scaled(black_box(&mut r), black_box(&y), Cf32::new(-1e-3, 1e-3));
    }) / 2.0;

    let template = Template::new(&tone(4096, 0.37));
    let capture = tone(1_000_000, 0.011);
    let mut corr = Vec::new();
    let xcorr = time_calls(1, || {
        template.xcorr_into(black_box(&capture), &mut corr);
        black_box(&corr);
    });
    vec![
        Metric::single("dsp.dot_conj_melems", melems(dot)),
        Metric::single("dsp.mul_in_place_melems", melems(mul)),
        Metric::single("dsp.fir_same_melems", melems(fir)),
        Metric::single("dsp.sub_scaled_melems", melems(sub)),
        Metric::single("dsp.xcorr_msps", capture.len() as f64 / xcorr / 1e6),
    ]
}

/// `phy.*`: one clean 18 dB frame per technology, median of 20.
fn phy(seed: u64) -> Vec<Metric> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9417);
    let reg = Registry::prototype();
    let ms_per_demod = |tech: TechId, rng: &mut StdRng| -> f64 {
        let handle = reg.get(tech).expect("prototype technology").clone();
        let event = TxEvent::new(handle.clone(), random_payload(10, rng), 5_000);
        let len = 5_000 + handle.modulate(&event.payload, FS).len() + 20_000;
        let capture = compose(&[event], len, FS, snr_to_noise_power(18.0, 0.0), rng);
        let runs: Vec<f64> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                let frame = handle.demodulate(black_box(&capture.samples), FS);
                let dt = t0.elapsed().as_secs_f64() * 1e3;
                assert!(
                    black_box(frame).is_ok(),
                    "clean {tech} frame did not demodulate"
                );
                dt
            })
            .collect();
        median(&runs)
    };
    let lora = reg.get(TechId::LoRa).expect("LoRa").clone();
    let payload = random_payload(10, &mut rng);
    let lora_mod: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            black_box(lora.modulate(black_box(&payload), FS));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    vec![
        Metric::single("phy.lora_demod_ms", ms_per_demod(TechId::LoRa, &mut rng)),
        Metric::single("phy.xbee_demod_ms", ms_per_demod(TechId::XBee, &mut rng)),
        Metric::single("phy.zwave_demod_ms", ms_per_demod(TechId::ZWave, &mut rng)),
        Metric::single("phy.lora_mod_ms", median(&lora_mod)),
    ]
}

/// What one transport run measured.
struct TransportRun {
    goodput_mbps: f64,
    retransmits_per_segment: f64,
    wire_overhead_share: f64,
}

/// 64 segments × 16 384 samples through `SendQueue` → `spawn_arq_sender`
/// → `FaultyLink` → `spawn_arq_receiver`, with the fleet workload's ARQ
/// settings.
fn transport_run(faults: LinkFaults) -> TransportRun {
    const SEGMENTS: usize = 64;
    const SEG_SAMPLES: usize = 16_384;
    let arq = Workload::FleetRedundant.config(faults.seed).transport.arq;
    let samples = tone(SEG_SAMPLES, 0.41);
    let metrics = SharedMetrics::new();
    let queue = SendQueue::new(SEGMENTS);
    let (wire_tx, wire_rx) = bounded::<Vec<u8>>(64);
    let (ack_tx, ack_rx) = unbounded::<Vec<u8>>();
    let (seg_tx, seg_rx) = unbounded::<ShippedSegment>();

    let t0 = Instant::now();
    let sender = spawn_arq_sender(
        Arc::clone(&queue),
        wire_tx,
        ack_rx,
        arq,
        faults,
        None,
        metrics.clone(),
        |_| true,
    );
    let ack_faults = LinkFaults {
        seed: faults.seed ^ 0xACAC,
        ..faults
    };
    let receiver = spawn_arq_receiver(wire_rx, ack_tx, seg_tx, ack_faults, metrics.clone());
    for i in 0..SEGMENTS {
        queue.push(QueuedSegment {
            seg: ShippedSegment::pack(i as u64, i * SEG_SAMPLES, &samples, 8, 1024),
            power: 1.0,
        });
    }
    queue.close();
    sender.join().expect("ARQ sender thread");
    receiver.join().expect("ARQ receiver thread");
    let elapsed = t0.elapsed().as_secs_f64();

    let delivered: Vec<ShippedSegment> = seg_rx.try_iter().collect();
    assert_eq!(delivered.len(), SEGMENTS, "transport lost a segment");
    let payload_bytes: usize = delivered.iter().map(|s| s.wire_bytes()).sum();
    let m = metrics.snapshot();
    TransportRun {
        goodput_mbps: payload_bytes as f64 * 8.0 / elapsed / 1e6,
        retransmits_per_segment: m.arq_retransmits as f64 / SEGMENTS as f64,
        wire_overhead_share: m.wire_bytes_sent as f64 / payload_bytes as f64 - 1.0,
    }
}

/// `transport.*`: goodput over a perfect and over the fleet workload's
/// faulty link.
fn transport(seed: u64) -> Vec<Metric> {
    let perfect = transport_run(LinkFaults::none());
    let faulty = transport_run(Workload::FleetRedundant.config(seed).transport.data_faults);
    vec![
        Metric::single("transport.goodput_mbps_loss0", perfect.goodput_mbps),
        Metric::single("transport.goodput_mbps_loss1", faulty.goodput_mbps),
        Metric::single(
            "transport.retransmits_per_segment",
            faulty.retransmits_per_segment,
        ),
        Metric::single("transport.wire_overhead_share", faulty.wire_overhead_share),
    ]
}

/// `cloud.merge_ns_per_offer`: `FleetMerge::offer` + `advance` over
/// three lanes of 10 000 synthetic frames.
fn merge() -> Metric {
    const LANES: usize = 3;
    const FRAMES: usize = 10_000;
    const SPACING: usize = 50_000;
    let payloads: Vec<[u8; 8]> = (0..FRAMES).map(|i| (i as u64).to_le_bytes()).collect();
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut merge: FleetMerge<usize> = FleetMerge::new(LANES, 4_096);
            let mut released = 0usize;
            let t0 = Instant::now();
            for (i, payload) in payloads.iter().enumerate() {
                let start = i * SPACING;
                for lane in 0..LANES {
                    let power = 1.0 + lane as f32;
                    merge.offer(lane, TechId::XBee, payload, start + lane, power, i);
                    released += merge.advance(lane, start as u64).len();
                }
            }
            for lane in 0..LANES {
                released += merge.finish(lane).len();
            }
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(released, FRAMES, "merge is not exactly-once");
            dt * 1e9 / (LANES * FRAMES) as f64
        })
        .collect();
    Metric::single("cloud.merge_ns_per_offer", median(&runs))
}

/// Every microbenchmarked layer metric.
pub fn all(seed: u64) -> Vec<Metric> {
    let mut out = dsp();
    out.extend(phy(seed));
    out.extend(transport(seed));
    out.push(merge());
    out
}
