//! Criterion benchmarks for the cloud stage — the cost side of
//! Figure 3(c): kill filters, strict SIC, and full Algorithm 1 on a
//! comparable-power two-technology collision.

use criterion::{criterion_group, criterion_main, Criterion};
use galiot_channel::{compose, snr_to_noise_power, TxEvent};
use galiot_cloud::{apply_kill, sic_decode, CloudDecoder, CloudParams};
use galiot_phy::registry::Registry;
use galiot_phy::TechId;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FS: f64 = 1_000_000.0;

fn collision() -> (Vec<galiot_dsp::Cf32>, Registry, usize, usize) {
    let mut rng = StdRng::seed_from_u64(2);
    let reg = Registry::prototype();
    let lora = reg.get(TechId::LoRa).unwrap().clone();
    let xbee = reg.get(TechId::XBee).unwrap().clone();
    let events = vec![
        TxEvent::new(lora, vec![0xEE; 10], 0),
        TxEvent::new(xbee, vec![0x77; 10], 30_000).with_power_db(1.0),
    ];
    let np = snr_to_noise_power(25.0, 0.0);
    let cap = compose(&events, 300_000, FS, np, &mut rng);
    let t = &cap.truth[0];
    (cap.samples, reg, t.start, t.len)
}

fn bench_cloud(c: &mut Criterion) {
    let mut g = c.benchmark_group("cloud_300k_samples");
    g.sample_size(10);
    let (cap, reg, lora_start, lora_len) = collision();

    let lora = reg.get(TechId::LoRa).unwrap().clone();
    g.bench_function("kill_css", |b| {
        b.iter(|| {
            apply_kill(
                &cap,
                FS,
                lora.as_ref(),
                lora_start,
                lora_start..lora_start + lora_len,
            )
        })
    });

    let xbee = reg.get(TechId::XBee).unwrap().clone();
    g.bench_function("kill_frequency", |b| {
        b.iter(|| apply_kill(&cap, FS, xbee.as_ref(), 30_000, 0..cap.len()))
    });

    let params = CloudParams::default();
    g.bench_function("sic_strict", |b| {
        b.iter(|| sic_decode(&cap, FS, &reg, &params))
    });

    let decoder = CloudDecoder::new(reg.clone());
    g.bench_function("algorithm1_clouddecode", |b| {
        b.iter(|| decoder.decode(&cap, FS))
    });
    g.finish();
}

criterion_group!(benches, bench_cloud);
criterion_main!(benches);
