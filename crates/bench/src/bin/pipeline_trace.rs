//! The trace-overhead regression gate: what the instrumentation costs
//! when *disabled*. The paper's gateway is a constrained box, so spans
//! must be free when nobody is looking; the run fails if the
//! traced-but-idle detector is more than 3% slower than the span-free
//! baseline over a seeded three-technology collision capture.
//!
//! Stage latencies of a traced pipeline are `perf_suite`'s (`--trace 1`
//! also writes a chrome trace).
//! Usage: `pipeline_trace [--trials N] [--seed S]`.

use std::time::Instant;

use galiot_bench::parse_args;
use galiot_channel::{compose, forced_collision, snr_to_noise_power, TxEvent};
use galiot_gateway::{Detection, PacketDetector, UniversalDetector};
use galiot_phy::registry::Registry;
use galiot_phy::TechId;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FS: f64 = 1_000_000.0;
/// Disabled-path overhead budget: 3% over the uninstrumented baseline.
const OVERHEAD_BUDGET: f64 = 0.03;
/// Fewest back-to-back `detect_raw` / `detect` pairs the gate takes the
/// median ratio of. (The best of three of each side read over budget on
/// about one run in four: a shared host runs the same call at two
/// speeds ~25 % apart, each for a few calls, and one side could catch
/// the fast one alone.)
const OVERHEAD_PAIRS: usize = 31;

/// The seeded workload: all three prototype technologies, one forced
/// cross-technology collision cluster plus separated traffic.
fn workload(seed: u64) -> Vec<galiot_dsp::Cf32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let registry = Registry::prototype();
    let mut events = forced_collision(&registry, 10, &[0.0, 1.0], 20_000, 50_000, &mut rng);
    let lora = registry.get(TechId::LoRa).unwrap().clone();
    let zwave = registry.get(TechId::ZWave).unwrap().clone();
    events.push(TxEvent::new(lora, vec![0x5A; 12], 300_000));
    events.push(TxEvent::new(zwave, vec![0xA5; 6], 650_000));
    let np = snr_to_noise_power(25.0, 0.0);
    compose(&events, 1_000_000, FS, np, &mut rng).samples
}

fn main() {
    let (trials, seed) = parse_args(3, 4040);
    let samples = workload(seed);

    // `detect_raw` is the span-free inherent method; the trait `detect`
    // adds the span guard, disarmed here: this thread has no recorder.
    // The two calls of a pair run back to back, each side first in
    // every other pair, so the host's speed is the same for both; the
    // median pair's ratio is the overhead. The best time of each side
    // is reported too.
    assert!(!galiot_trace::enabled(), "a trace session is live");
    let registry = Registry::prototype();
    let detector = UniversalDetector::new(&registry, FS, 0.0);
    let detections = detector.detect_raw(&samples, FS).len();
    let time = |detect: &dyn Fn() -> Vec<Detection>| {
        let t0 = Instant::now();
        let d = detect();
        let ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(d.len(), detections, "span wrapper changed the result");
        ns
    };
    let raw = || detector.detect_raw(&samples, FS);
    let disabled = || detector.detect(&samples, FS);
    let mut pairs: Vec<(u64, u64)> = (0..trials.max(OVERHEAD_PAIRS))
        .map(|pair| {
            if pair % 2 == 0 {
                (time(&raw), time(&disabled))
            } else {
                let d = time(&disabled);
                (time(&raw), d)
            }
        })
        .collect();
    let best_raw = pairs.iter().map(|p| p.0).min().unwrap_or(0);
    let best_disabled = pairs.iter().map(|p| p.1).min().unwrap_or(0);
    let ratio = |&(r, d): &(u64, u64)| d as f64 / r as f64;
    pairs.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    let overhead = ratio(&pairs[pairs.len() / 2]) - 1.0;
    println!(
        "# pipeline_trace: seed={seed} detections={detections} pairs={}",
        pairs.len()
    );
    println!(
        "# overhead: median pair {:+.2}% (best raw={best_raw}ns disabled={best_disabled}ns)",
        overhead * 100.0
    );

    assert!(
        overhead <= OVERHEAD_BUDGET,
        "disabled tracing costs {:.2}% (> {:.0}% budget): {best_disabled}ns vs {best_raw}ns",
        overhead * 100.0,
        OVERHEAD_BUDGET * 100.0
    );
}
