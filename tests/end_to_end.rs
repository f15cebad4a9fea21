//! Cross-crate integration tests: the full GalioT system driven
//! through the public facade, from simulated air to decoded payloads.

use galiot::channel::{
    compose, forced_collision, generate, scenario_seed, snr_to_noise_power, TrafficParams, TxEvent,
};
use galiot::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FS: f64 = 1_000_000.0;

#[test]
fn every_prototype_technology_roundtrips_through_the_pipeline() {
    let registry = Registry::prototype();
    let system = Galiot::new(GaliotConfig::prototype(), registry.clone());
    for (i, tech) in registry.techs().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(scenario_seed(100 + i as u64));
        let payload = vec![i as u8 + 1; 10];
        let ev = TxEvent::new(tech.clone(), payload.clone(), 60_000);
        let np = snr_to_noise_power(12.0, 0.0);
        let cap = compose(&[ev], 500_000, FS, np, &mut rng);
        let report = system.process_capture(&cap.samples);
        assert_eq!(
            report.frames.len(),
            1,
            "{}: {:?}",
            tech.id(),
            report.metrics
        );
        assert_eq!(report.frames[0].frame.tech, tech.id());
        assert_eq!(report.frames[0].frame.payload, payload);
    }
}

#[test]
fn full_overlap_collision_is_resolved_end_to_end() {
    let mut rng = StdRng::seed_from_u64(scenario_seed(7));
    let registry = Registry::prototype();
    let events = forced_collision(&registry, 10, &[0.0, 1.0], 20_000, 50_000, &mut rng);
    let truth: Vec<(TechId, Vec<u8>)> = events
        .iter()
        .map(|e| (e.tech.id(), e.payload.clone()))
        .collect();
    let np = snr_to_noise_power(25.0, 0.0);
    let cap = compose(&events, 700_000, FS, np, &mut rng);
    assert!(cap.has_collision());
    let system = Galiot::new(GaliotConfig::prototype(), registry);
    let report = system.process_capture(&cap.samples);
    let got: Vec<(TechId, Vec<u8>)> = report
        .frames
        .iter()
        .map(|f| (f.frame.tech, f.frame.payload.clone()))
        .collect();
    for t in &truth {
        assert!(got.contains(t), "missing {t:?} in {got:?}");
    }
}

#[test]
fn poisson_traffic_mostly_recovered_at_comfortable_snr() {
    let mut rng = StdRng::seed_from_u64(scenario_seed(8));
    let registry = Registry::prototype();
    let params = TrafficParams {
        rate_hz: 1.5,
        ..Default::default()
    };
    let events = generate(&registry, &params, 1.0, FS, &mut rng);
    let np = snr_to_noise_power(15.0, 0.0);
    let cap = compose(&events, 1_000_000, FS, np, &mut rng);
    let system = Galiot::new(GaliotConfig::prototype(), registry);
    let report = system.process_capture(&cap.samples);
    let correct = report
        .frames
        .iter()
        .filter(|f| {
            cap.truth
                .iter()
                .any(|t| t.tech == f.frame.tech && t.payload == f.frame.payload)
        })
        .count();
    // Same-technology co-channel overlaps are outside the paper's (and
    // physics') reach — GalioT decodes *cross*-technology collisions.
    // Count only frames that don't overlap a same-tech twin.
    let recoverable = cap
        .truth
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !cap.truth.iter().enumerate().any(|(j, b)| {
                *i != j
                    && a.tech == b.tech
                    && a.start < b.start + b.len
                    && b.start < a.start + a.len
            })
        })
        .count();
    assert!(
        correct * 10 >= recoverable * 7,
        "only {correct}/{recoverable} recoverable frames recovered"
    );
}

#[test]
fn batch_and_streaming_agree_on_the_same_capture() {
    let mut rng = StdRng::seed_from_u64(scenario_seed(9));
    let registry = Registry::prototype();
    let xbee = registry.get(TechId::XBee).unwrap().clone();
    let zwave = registry.get(TechId::ZWave).unwrap().clone();
    let events = vec![
        TxEvent::new(xbee, vec![0x11; 8], 150_000),
        TxEvent::new(zwave, vec![0x22; 8], 650_000),
    ];
    let np = snr_to_noise_power(15.0, 0.0);
    let cap = compose(&events, 1_000_000, FS, np, &mut rng);

    let batch =
        Galiot::new(GaliotConfig::prototype(), registry.clone()).process_capture(&cap.samples);
    let streaming = {
        let sys = StreamingGaliot::start(GaliotConfig::prototype(), registry);
        for chunk in cap.samples.chunks(65_536) {
            sys.push_chunk(chunk.to_vec());
        }
        sys.finish()
    };
    let collect = |frames: Vec<(TechId, Vec<u8>)>| {
        let mut v = frames;
        v.sort();
        v
    };
    let b = collect(
        batch
            .frames
            .iter()
            .map(|f| (f.frame.tech, f.frame.payload.clone()))
            .collect(),
    );
    let s = collect(
        streaming
            .iter()
            .map(|f| (f.frame.tech, f.frame.payload.clone()))
            .collect(),
    );
    assert_eq!(b, s, "batch and streaming recovered different frame sets");
    assert_eq!(b.len(), 2);
}

#[test]
fn compression_does_not_break_cloud_decoding() {
    // 4-bit backhaul compression (aggressive) must still decode.
    let mut rng = StdRng::seed_from_u64(scenario_seed(10));
    let registry = Registry::prototype();
    let lora = registry.get(TechId::LoRa).unwrap().clone();
    let ev = TxEvent::new(lora, vec![0x42; 12], 50_000);
    let np = snr_to_noise_power(15.0, 0.0);
    let cap = compose(&[ev], 500_000, FS, np, &mut rng);
    let config = GaliotConfig {
        compression_bits: 4,
        edge_decoding: false, // force the backhaul path
        ..GaliotConfig::prototype()
    };
    let report = Galiot::new(config, registry).process_capture(&cap.samples);
    assert_eq!(report.frames.len(), 1);
    assert_eq!(report.frames[0].frame.payload, vec![0x42; 12]);
    assert!(!report.frames[0].at_edge);
}
