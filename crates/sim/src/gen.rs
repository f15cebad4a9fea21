//! The scenario generator: a pure function from `(spec, seed)` to a
//! valid [`Scenario`].
//!
//! Purity is the whole contract — a repro bundle prints nothing but a
//! seed, so `generate(spec, seed)` must rebuild the identical scenario
//! on any machine. The only environment that leaks in is deliberate
//! and documented: the generated link-fault seed is folded through
//! `galiot_channel::fault_seed` (the `GALIOT_FAULT_SEED` XOR sweep),
//! and the *campaign* folds `GALIOT_TEST_SEED` into the per-scenario
//! seeds before they reach this function. Both knobs are echoed in
//! every repro bundle, so "same seed + same env" is exactly
//! reproducible.
//!
//! Sampled scenarios stay inside conformance-backed territory: SNR at
//! or above the regime where every clean packet decodes, collisions
//! only as cross-technology power-separated clusters (the shape
//! `forced_collision` pins), loss rates the repairable transport
//! provably wins against, and crashes only in fleets with eviction
//! enabled. [`generate`] ends with a `debug_assert` that the sample
//! passes [`Scenario::validate`].

use galiot_core::DecodeFaultKind;
use galiot_phy::registry::Registry;
use galiot_phy::TechId;

use crate::rng::SplitMix64;
use crate::scenario::{CrashPlan, DecodeFaultPlan, Scenario, TxSpec};
use crate::spec::CampaignSpec;

/// Chunk sizes scenarios stream their capture in: a small power of
/// two, a typical SDR USB transfer, and a 64 Ki-sample buffer. (The
/// conformance suites additionally pin chunk=1; it is far too slow for
/// randomized campaigns.)
const CHUNKS: [usize; 3] = [1_024, 4_096, 65_536];

/// Collision clusters run at this SNR or better: the regime the
/// SIC conformance scenarios pin (cf. `streaming_conformance.rs`).
const COLLISION_MIN_SNR_DB: f32 = 25.0;

/// Generates the scenario for `seed` within `spec`'s bounds.
///
/// Deterministic: same `(spec, seed, GALIOT_FAULT_SEED)` → same
/// scenario, field for field.
pub fn generate(spec: &CampaignSpec, seed: u64) -> Scenario {
    let root = SplitMix64::new(seed);
    let mut topo = root.fork(1);
    let mut txr = root.fork(2);
    let mut seeds = root.fork(3);

    let registry = Registry::prototype();
    let techs: Vec<TechId> = registry.techs().iter().map(|t| t.id()).collect();

    // Topology.
    let workers = topo.range_usize(1, spec.max_workers);
    let chunk = *topo.pick(&CHUNKS);
    let gateways = topo.range_usize(1, spec.max_gateways);
    let shards = *topo.pick(&[0usize, 1, 2, 3]);
    let edge_decoding = topo.chance(0.5);
    let liveness_horizon = topo.range_usize(12, 64) as u64;
    let loss = if topo.chance(spec.fault_prob) {
        topo.range_f64(0.005, spec.max_loss)
    } else {
        0.0
    };
    let crash = if gateways >= 2 && topo.chance(spec.crash_prob) {
        Some(CrashPlan {
            session: topo.range_usize(0, gateways - 1),
            after_segments: topo.range_usize(0, 4) as u64,
            restart: topo.chance(0.5),
        })
    } else {
        None
    };
    // Decode-pool faults draw from their own stream (fork 4): adding
    // the dimension leaves every other field of pre-existing seeds
    // byte-identical, so old repro bundles stay valid.
    let mut dfr = root.fork(4);
    let decode_faults = if dfr.chance(spec.decode_fault_prob) {
        let kind = *dfr.pick(&[
            DecodeFaultKind::Panic,
            DecodeFaultKind::Hang,
            DecodeFaultKind::Slow,
        ]);
        Some(DecodeFaultPlan {
            kind,
            period: dfr.range_usize(1, 3) as u64,
            // 1..=2 strikes heal on a retry; 3..=4 exhaust the ladder
            // (retries = 2) and exercise quarantine.
            sticky_attempts: dfr.range_usize(1, 4) as u32,
            // Fold the GALIOT_DECODE_FAULTS sweep in exactly once,
            // mirroring the link-fault seed rule below.
            seed: galiot_channel::decode_fault_seed(dfr.next_u64()),
        })
    } else {
        None
    };

    // Transmissions. A scenario either opens with a forced
    // cross-technology collision cluster (two techs, 1 dB power
    // separation, staggered preambles) or is collision-free; the
    // remaining transmissions are well-separated in either case.
    let n_txs = txr.range_usize(1, spec.max_txs);
    let collide = n_txs >= 2 && txr.chance(spec.collision_prob);
    let mut snr_db = txr.range_f64(spec.min_snr_db as f64, spec.max_snr_db as f64) as f32;
    if collide {
        snr_db = snr_db.max(COLLISION_MIN_SNR_DB);
    }

    let mut txs: Vec<TxSpec> = Vec::new();
    let mut cursor = txr.range_usize(5_000, 20_000);
    let mut i = 0;
    while i < n_txs {
        let in_cluster = collide && i < 2;
        let tech = if in_cluster {
            // Distinct technologies for the cluster pair.
            techs[i % techs.len()]
        } else {
            *txr.pick(&techs)
        };
        let handle = registry.get(tech).expect("prototype tech").clone();
        let mut payload_len = txr.range_usize(2, spec.max_payload);
        let mut payload: Vec<u8> = (0..payload_len).map(|_| txr.next_u64() as u8).collect();
        let mut sig_len = handle.modulate(&payload, Scenario::FS).len();
        if cursor + sig_len + 60_000 > spec.max_capture {
            // Out of room at this length; retry once at the minimum
            // payload, then stop placing.
            payload_len = 2;
            payload.truncate(payload_len);
            sig_len = handle.modulate(&payload, Scenario::FS).len();
            if cursor + sig_len + 60_000 > spec.max_capture {
                break;
            }
        }

        let (start, power_db) = if in_cluster && i == 1 {
            // Second cluster member: overlap the first with a
            // staggered preamble at 1 dB separation.
            let first = &txs[0];
            (first.start + txr.range_usize(12_000, 25_000), 1.0_f32)
        } else {
            (cursor, 0.0_f32)
        };
        // Standalone transmissions carry realistic transmitter
        // impairments; cluster members stay clean so SIC operates in
        // its conformance-pinned regime.
        let (cfo_ppm, phase) = if !in_cluster && txr.chance(0.4) {
            let mut imp = root.fork(100 + i as u64);
            (
                imp.range_f64(-0.5, 0.5),
                imp.range_f64(0.0, std::f64::consts::TAU) as f32,
            )
        } else {
            (0.0, 0.0)
        };

        let end = start + sig_len;
        txs.push(TxSpec {
            tech,
            payload,
            start,
            power_db,
            cfo_ppm,
            phase,
        });
        // Advance past the furthest frame end plus a guard gap that
        // keeps non-cluster transmissions unambiguously separate.
        cursor = cursor.max(end) + txr.range_usize(60_000, 120_000);
        i += 1;
    }

    let last_end = txs
        .iter()
        .map(|t| {
            t.start
                + registry
                    .get(t.tech)
                    .expect("prototype tech")
                    .modulate(&t.payload, Scenario::FS)
                    .len()
        })
        .max()
        .unwrap_or(0);
    let capture_len = (last_end + txr.range_usize(30_000, 60_000)).min(spec.max_capture);

    let scenario = Scenario {
        seed,
        capture_len,
        snr_db,
        noise_seed: seeds.next_u64(),
        txs,
        edge_decoding,
        workers,
        chunk,
        gateways,
        shards,
        loss,
        // Fold the GALIOT_FAULT_SEED sweep in exactly once, here: the
        // same rule every conformance suite applies to its fault seeds.
        fault_seed: galiot_channel::fault_seed(seeds.next_u64()),
        crash,
        decode_faults,
        liveness_horizon,
        deadline_s: spec.deadline_s,
    };
    debug_assert_eq!(
        scenario.validate(),
        Ok(()),
        "generator produced an invalid sample"
    );
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        let spec = CampaignSpec::default();
        for seed in 0..40u64 {
            let a = generate(&spec, seed);
            let b = generate(&spec, seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            a.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(!a.txs.is_empty(), "seed {seed}: no transmissions");
            assert!(a.capture_len <= spec.max_capture);
        }
    }

    #[test]
    fn distinct_seeds_explore_the_space() {
        let spec = CampaignSpec::default();
        let scenarios: Vec<Scenario> = (0..60).map(|s| generate(&spec, s)).collect();
        assert!(scenarios.iter().any(|s| s.gateways >= 2), "no fleets");
        assert!(scenarios.iter().any(|s| s.gateways == 1), "no singles");
        assert!(scenarios.iter().any(|s| s.loss > 0.0), "no faulty links");
        assert!(scenarios.iter().any(|s| s.loss == 0.0), "no clean links");
        assert!(scenarios.iter().any(|s| s.crash.is_some()), "no crashes");
        assert!(
            scenarios.iter().any(|s| s.decode_faults.is_some()),
            "no decode faults"
        );
        assert!(
            scenarios.iter().any(|s| s.decode_faults.is_none()),
            "no healthy pools"
        );
        assert!(
            scenarios
                .iter()
                .any(|s| s.decode_faults.is_some_and(|d| d.quarantines())),
            "no quarantining plans"
        );
        assert!(
            scenarios
                .iter()
                .any(|s| s.decode_faults.is_some_and(|d| !d.quarantines())),
            "no retry-healable plans"
        );
        assert!(scenarios.iter().any(|s| s.txs.len() >= 2), "no multi-tx");
        assert!(
            scenarios
                .iter()
                .any(|s| s.txs.iter().any(|t| t.is_impaired())),
            "no impairments"
        );
    }

    #[test]
    fn collision_clusters_keep_the_sic_regime() {
        let spec = CampaignSpec {
            collision_prob: 1.0,
            max_txs: 3,
            ..Default::default()
        };
        let mut saw_overlap = false;
        for seed in 0..30u64 {
            let s = generate(&spec, seed);
            if s.txs.len() >= 2 {
                assert!(
                    s.snr_db >= COLLISION_MIN_SNR_DB,
                    "seed {seed}: collision at {} dB",
                    s.snr_db
                );
                assert_ne!(s.txs[0].tech, s.txs[1].tech, "seed {seed}");
                assert!(
                    (s.txs[1].power_db - s.txs[0].power_db).abs() >= 1.0,
                    "seed {seed}: no power separation"
                );
                let reg = Registry::prototype();
                let len0 = reg
                    .get(s.txs[0].tech)
                    .unwrap()
                    .modulate(&s.txs[0].payload, Scenario::FS)
                    .len();
                saw_overlap |= s.txs[1].start < s.txs[0].start + len0;
            }
        }
        assert!(saw_overlap, "no cluster actually overlapped");
    }
}
