//! Reusable experiment engines behind the paper's figures.
//!
//! The `galiot-bench` binaries are thin wrappers that sweep these
//! engines over parameters and print table rows; keeping the engines
//! here lets integration tests exercise the same code paths the
//! figures are generated from.

use galiot_channel::{compose, forced_collision, snr_to_noise_power, Capture, TxEvent};
use galiot_cloud::{sic_decode, CloudDecoder, CloudParams};
use galiot_gateway::{
    score_detections, EnergyDetector, MatchedFilterBank, PacketDetector, RtlSdrFrontEnd,
    UniversalDetector,
};
use galiot_phy::registry::Registry;
use galiot_phy::TechId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::GaliotConfig;

/// Per-detector packet-detection counts for one SNR bin
/// (the data behind Figure 3(b)).
#[derive(Clone, Copy, Debug, Default)]
pub struct DetectionCounts {
    /// Packets transmitted.
    pub total: usize,
    /// Packets detected by energy thresholding.
    pub energy: usize,
    /// Packets detected by the universal preamble.
    pub universal: usize,
    /// Packets detected by the per-technology matched bank (optimal).
    pub matched: usize,
}

impl DetectionCounts {
    /// Detection ratios `(energy, universal, matched)`.
    pub fn ratios(&self) -> (f64, f64, f64) {
        let t = self.total.max(1) as f64;
        (
            self.energy as f64 / t,
            self.universal as f64 / t,
            self.matched as f64 / t,
        )
    }
}

/// Configuration for the detection experiment.
#[derive(Clone, Copy, Debug)]
pub struct DetectionConfig {
    /// Trials per SNR bin.
    pub trials: usize,
    /// Probability a trial is a collision (vs a single packet).
    pub collision_prob: f64,
    /// Scoring slack in samples.
    pub slack: usize,
    /// Energy detector threshold in dB over the noise floor.
    pub energy_threshold_db: f32,
    /// Matched-bank normalized-correlation threshold.
    pub matched_threshold: f32,
    /// Universal-preamble normalized-correlation threshold.
    pub universal_threshold: f32,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig {
            trials: 60,
            collision_prob: 0.4,
            slack: 2_048,
            energy_threshold_db: 6.0,
            // 0.0 = the analytic per-template noise threshold.
            matched_threshold: 0.0,
            universal_threshold: 0.0,
        }
    }
}

/// Builds one detection-trial capture: a single packet or a staggered
/// collision of 2-3 technologies, under AWGN at `snr_db`.
pub fn detection_capture(
    reg: &Registry,
    snr_db: f32,
    collision: bool,
    fs: f64,
    rng: &mut StdRng,
) -> Capture {
    let max_frame = reg.max_frame_samples_for(fs, 8);
    let total = 3 * max_frame + 40_000;
    let np = snr_to_noise_power(snr_db, 0.0);
    let events: Vec<TxEvent> = if collision {
        let n = rng.gen_range(2..=reg.len().min(3));
        let powers: Vec<f32> = (0..n).map(|_| rng.gen_range(-2.0..=2.0)).collect();
        let stagger = rng.gen_range(1_000..(max_frame / 4).max(1_001));
        forced_collision(reg, 8, &powers, stagger, 20_000, rng)
    } else {
        let tech = reg.techs()[rng.gen_range(0..reg.len())].clone();
        let start = rng.gen_range(10_000..total - max_frame - 1_000);
        vec![TxEvent::new(
            tech,
            galiot_channel::random_payload(8, rng),
            start,
        )]
    };
    compose(&events, total, fs, np, rng)
}

/// Runs the Figure 3(b) detection comparison for one SNR bin
/// `(lo_db, hi_db)`: the three detectors on identical captures through
/// the same 8-bit RTL-SDR front-end model.
pub fn detection_bin(
    reg: &Registry,
    lo_db: f32,
    hi_db: f32,
    cfg: &DetectionConfig,
    fs: f64,
    seed: u64,
) -> DetectionCounts {
    let mut rng = StdRng::seed_from_u64(seed);
    let front_end = RtlSdrFrontEnd::new(GaliotConfig::prototype().front_end);
    let energy = EnergyDetector {
        threshold_db: cfg.energy_threshold_db,
        ..EnergyDetector::default()
    };
    let matched = MatchedFilterBank::new(reg.clone(), cfg.matched_threshold);
    let universal = UniversalDetector::new(reg, fs, cfg.universal_threshold);

    let mut counts = DetectionCounts::default();
    for _ in 0..cfg.trials {
        let snr = rng.gen_range(lo_db..hi_db);
        let collision = rng.gen_bool(cfg.collision_prob);
        let cap = detection_capture(reg, snr, collision, fs, &mut rng);
        let digital = front_end.digitize(&cap.samples);
        let truth: Vec<(usize, usize)> = cap.truth.iter().map(|t| (t.start, t.len)).collect();
        counts.total += truth.len();
        for (det, tally) in [
            (energy.detect(&digital, fs), &mut counts.energy),
            (universal.detect(&digital, fs), &mut counts.universal),
            (matched.detect(&digital, fs), &mut counts.matched),
        ] {
            *tally += score_detections(&det, &truth, cfg.slack)
                .iter()
                .filter(|&&h| h)
                .count();
        }
    }
    counts
}

/// One Figure 3(c) data point: payload goodput of strict SIC vs GalioT
/// (Algorithm 1) on comparable-power collisions in an SNR regime.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThroughputPoint {
    /// Bits correctly recovered by strict SIC.
    pub sic_bits: usize,
    /// Bits correctly recovered by GalioT's CloudDecode.
    pub galiot_bits: usize,
    /// Bits transmitted (upper bound).
    pub offered_bits: usize,
    /// Total capture time simulated, seconds.
    pub seconds: f64,
}

impl ThroughputPoint {
    /// SIC goodput in bit/s.
    pub fn sic_bps(&self) -> f64 {
        self.sic_bits as f64 / self.seconds.max(1e-12)
    }

    /// GalioT goodput in bit/s.
    pub fn galiot_bps(&self) -> f64 {
        self.galiot_bits as f64 / self.seconds.max(1e-12)
    }

    /// Throughput gain of GalioT over SIC (linear factor).
    pub fn gain(&self) -> f64 {
        self.galiot_bits as f64 / (self.sic_bits.max(1)) as f64
    }
}

/// Runs the Figure 3(c) collision-decoding comparison for one SNR
/// regime `(lo_db, hi_db)`: comparable-power full-overlap collisions,
/// strict SIC vs Algorithm 1 on identical captures.
pub fn throughput_bin(
    reg: &Registry,
    lo_db: f32,
    hi_db: f32,
    trials: usize,
    fs: f64,
    seed: u64,
) -> ThroughputPoint {
    let mut rng = StdRng::seed_from_u64(seed);
    let decoder = CloudDecoder::new(reg.clone());
    let sic_params = CloudParams::default();
    let mut point = ThroughputPoint::default();

    for _ in 0..trials {
        let snr = rng.gen_range(lo_db..hi_db);
        let n = rng.gen_range(2..=reg.len().min(3));
        // Comparable powers within 2 dB of each other, random order.
        let powers: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        let stagger = rng.gen_range(2_000..30_000);
        let payload_len = rng.gen_range(8..=16);
        let events = forced_collision(reg, payload_len, &powers, stagger, 10_000, &mut rng);
        let truth: Vec<(TechId, Vec<u8>)> = events
            .iter()
            .map(|e| (e.tech.id(), e.payload.clone()))
            .collect();
        let max_frame = reg.max_frame_samples_for(fs, payload_len);
        let total = max_frame + 60_000;
        let np = snr_to_noise_power(snr, 0.0);
        let cap = compose(&events, total, fs, np, &mut rng);

        let correct_bits = |frames: Vec<(TechId, Vec<u8>)>| -> usize {
            frames
                .iter()
                .filter(|f| truth.contains(f))
                .map(|(_, p)| p.len() * 8)
                .sum()
        };

        let sic = sic_decode(&cap.samples, fs, reg, &sic_params);
        point.sic_bits += correct_bits(
            sic.frames
                .iter()
                .map(|f| (f.tech, f.payload.clone()))
                .collect(),
        );
        let gal = decoder.decode(&cap.samples, fs);
        point.galiot_bits += correct_bits(
            gal.frames
                .iter()
                .map(|(f, _)| (f.tech, f.payload.clone()))
                .collect(),
        );
        point.offered_bits += truth.iter().map(|(_, p)| p.len() * 8).sum::<usize>();
        point.seconds += total as f64 / fs;
    }
    point
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 1_000_000.0;

    #[test]
    fn detection_bin_orders_detectors_at_low_snr() {
        let reg = Registry::prototype();
        let cfg = DetectionConfig {
            trials: 6,
            ..Default::default()
        };
        let counts = detection_bin(&reg, -12.0, -8.0, &cfg, FS, 42);
        assert!(counts.total >= 6);
        // The paper's ordering below 0 dB: correlation >> energy.
        assert!(counts.universal > counts.energy, "{counts:?}");
        assert!(
            counts.matched >= counts.universal.saturating_sub(2),
            "{counts:?}"
        );
    }

    #[test]
    fn detection_bin_everyone_wins_at_high_snr() {
        let reg = Registry::prototype();
        let cfg = DetectionConfig {
            trials: 5,
            ..Default::default()
        };
        let counts = detection_bin(&reg, 15.0, 20.0, &cfg, FS, 43);
        let (e, u, m) = counts.ratios();
        assert!(e > 0.7, "energy {e}");
        assert!(u > 0.8, "universal {u}");
        assert!(m > 0.8, "matched {m}");
    }

    #[test]
    fn throughput_bin_shows_galiot_ahead() {
        let reg = Registry::prototype();
        let point = throughput_bin(&reg, 18.0, 25.0, 4, FS, 44);
        assert!(point.offered_bits > 0);
        assert!(
            point.galiot_bits >= point.sic_bits,
            "GalioT {} vs SIC {}",
            point.galiot_bits,
            point.sic_bits
        );
        assert!(point.galiot_bits > 0);
        assert!(point.galiot_bps() > 0.0);
    }
}
