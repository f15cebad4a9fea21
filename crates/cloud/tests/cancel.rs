//! `cancel_frame` as the cloud calls it: reconstruct-and-subtract on
//! captures composed through the channel model, noise included.

use galiot_channel::{compose, snr_to_noise_power, Impairments, TxEvent};
use galiot_cloud::cancel_frame;
use galiot_dsp::Cf32;
use galiot_phy::registry::Registry;
use galiot_phy::{DecodedFrame, TechId};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FS: f64 = 1_000_000.0;

#[test]
fn clean_frame_cancels_deeply() {
    let mut rng = StdRng::seed_from_u64(1);
    let reg = Registry::prototype();
    let xbee = reg.get(TechId::XBee).unwrap().clone();
    let ev = TxEvent::new(xbee.clone(), vec![5; 10], 8_000);
    let cap = compose(&[ev], 80_000, FS, 0.0, &mut rng);
    let frame = xbee.demodulate(&cap.samples, FS).unwrap();
    let mut residual = cap.samples.clone();
    let rep = cancel_frame(&mut residual, xbee.as_ref(), &frame, FS, 64).unwrap();
    assert!(
        rep.suppression_db() > 25.0,
        "only {} dB",
        rep.suppression_db()
    );
}

#[test]
fn cancellation_survives_phase_and_gain() {
    let mut rng = StdRng::seed_from_u64(2);
    let reg = Registry::prototype();
    let zwave = reg.get(TechId::ZWave).unwrap().clone();
    let imp = Impairments {
        phase: 1.1,
        ..Impairments::clean()
    };
    let ev = TxEvent::new(zwave.clone(), vec![9; 6], 4_000)
        .with_power_db(-7.0)
        .with_impairments(imp);
    let cap = compose(&[ev], 80_000, FS, 0.0, &mut rng);
    let frame = zwave.demodulate(&cap.samples, FS).unwrap();
    let mut residual = cap.samples.clone();
    let rep = cancel_frame(&mut residual, zwave.as_ref(), &frame, FS, 64).unwrap();
    assert!(
        rep.suppression_db() > 20.0,
        "only {} dB",
        rep.suppression_db()
    );
}

#[test]
fn cancellation_with_moderate_cfo_still_suppresses() {
    let mut rng = StdRng::seed_from_u64(3);
    let reg = Registry::prototype();
    let xbee = reg.get(TechId::XBee).unwrap().clone();
    let imp = Impairments {
        cfo_hz: 300.0,
        phase: 0.4,
        ..Impairments::clean()
    };
    let ev = TxEvent::new(xbee.clone(), vec![3; 8], 2_000).with_impairments(imp);
    let cap = compose(&[ev], 60_000, FS, 0.0, &mut rng);
    let frame = xbee.demodulate(&cap.samples, FS).unwrap();
    let mut residual = cap.samples.clone();
    let rep = cancel_frame(&mut residual, xbee.as_ref(), &frame, FS, 64).unwrap();
    assert!(
        rep.suppression_db() > 10.0,
        "only {} dB",
        rep.suppression_db()
    );
}

#[test]
fn cancelling_one_of_two_leaves_the_other() {
    let mut rng = StdRng::seed_from_u64(4);
    let reg = Registry::prototype();
    let xbee = reg.get(TechId::XBee).unwrap().clone();
    let zwave = reg.get(TechId::ZWave).unwrap().clone();
    // Far apart in time so both decode cleanly.
    let events = vec![
        TxEvent::new(xbee.clone(), vec![1; 8], 2_000),
        TxEvent::new(zwave.clone(), vec![2; 8], 60_000),
    ];
    let np = snr_to_noise_power(30.0, 0.0);
    let cap = compose(&events, 160_000, FS, np, &mut rng);
    let frame = xbee.demodulate(&cap.samples, FS).unwrap();
    let mut residual = cap.samples.clone();
    cancel_frame(&mut residual, xbee.as_ref(), &frame, FS, 64).unwrap();
    // Z-Wave must still decode from the residual.
    let z = zwave.demodulate(&residual, FS).expect("zwave survives");
    assert_eq!(z.payload, vec![2; 8]);
    // And XBee must now be gone.
    assert!(xbee.demodulate(&residual, FS).is_err());
}

#[test]
fn refuses_empty_or_misplaced() {
    let reg = Registry::prototype();
    let xbee = reg.get(TechId::XBee).unwrap().clone();
    let frame = DecodedFrame {
        tech: TechId::XBee,
        payload: vec![1],
        start: 1_000_000, // far outside
        len: 100,
    };
    let mut residual = vec![Cf32::ZERO; 1_000];
    assert!(cancel_frame(&mut residual, xbee.as_ref(), &frame, FS, 64).is_none());
    let mut empty: Vec<Cf32> = Vec::new();
    assert!(cancel_frame(&mut empty, xbee.as_ref(), &frame, FS, 64).is_none());
}
