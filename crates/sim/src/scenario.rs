//! The scenario model: one fully-specified randomized experiment.
//!
//! A [`Scenario`] is self-describing — everything an oracle needs to
//! rebuild the capture and the system under test is in the struct, so
//! a failing scenario can be shrunk field-by-field and emitted as JSON
//! in a repro bundle. The JSON is write-only by design: replay goes
//! through the *seed* (regenerate with [`crate::gen::generate`]), not
//! through parsing, which keeps the bundle format free of a vendored
//! JSON parser while staying human-diffable.

use galiot_core::{ConfigError, DecodeFaultKind, DecodeFaultSpec, GaliotConfig, TransportConfig};
use galiot_gateway::LinkFaults;
use galiot_phy::registry::Registry;
use galiot_phy::TechId;

/// One scheduled transmission in a scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct TxSpec {
    /// The transmitting technology (must be in the prototype registry).
    pub tech: TechId,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// First sample of the frame in the capture.
    pub start: usize,
    /// Received power relative to the 0 dB reference, in dB.
    pub power_db: f32,
    /// Transmitter crystal error, ppm (0 = ideal crystal).
    pub cfo_ppm: f64,
    /// Fixed carrier phase, radians.
    pub phase: f32,
}

impl TxSpec {
    /// Whether this transmission carries any front-end impairment.
    pub fn is_impaired(&self) -> bool {
        self.cfo_ppm != 0.0 || self.phase != 0.0
    }
}

/// An injected gateway crash (mirrors `galiot_core::CrashSpec`, owned
/// here so scenarios stay serializable without a core dependency in
/// the JSON shape).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    /// Fleet session index that dies.
    pub session: usize,
    /// Segments the first instance emits before dying.
    pub after_segments: u64,
    /// Whether a replacement instance is started.
    pub restart: bool,
}

/// Injected decode-pool misbehavior (mirrors
/// `galiot_core::DecodeFaultSpec` plus the supervision knobs the
/// scenario pins, so the JSON shape stays self-describing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeFaultPlan {
    /// What a struck decode attempt does: panic, hang, or stale-slow.
    pub kind: DecodeFaultKind,
    /// Roughly one in `period` segments strikes.
    pub period: u64,
    /// Attempts (0-based) that keep striking; `>= retries + 1` drives
    /// struck segments all the way to quarantine.
    pub sticky_attempts: u32,
    /// Fault-pattern seed (after the `GALIOT_DECODE_FAULTS` sweep
    /// fold).
    pub seed: u64,
}

impl DecodeFaultPlan {
    /// The per-segment decode deadline fault scenarios run under —
    /// short enough that hang recovery fits the oracle watchdog
    /// budget, long enough that honest decodes never trip it even on a
    /// single-core box where every worker contends for the same CPU (a
    /// false hang on a clean attempt would quarantine real work and
    /// fail the equality oracles).
    pub const DEADLINE_S: f64 = 2.0;
    /// Re-dispatches before quarantine (the core default, pinned so
    /// repro bundles don't float with the default).
    pub const RETRIES: usize = 2;

    /// The core-facing spec this plan injects.
    pub fn spec(&self) -> DecodeFaultSpec {
        DecodeFaultSpec {
            kind: self.kind,
            period: self.period,
            sticky_attempts: self.sticky_attempts,
            seed: self.seed,
        }
    }

    /// Whether struck segments exhaust the retry ladder and quarantine
    /// (vs. succeeding on a later attempt).
    pub fn quarantines(&self) -> bool {
        self.sticky_attempts as usize > Self::RETRIES
    }
}

/// One fully-specified randomized experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// The seed this scenario was generated from (after the
    /// `GALIOT_TEST_SEED` sweep fold) — the replay handle.
    pub seed: u64,
    /// Capture length in samples at [`Scenario::FS`].
    pub capture_len: usize,
    /// Target SNR for the strongest transmission, dB.
    pub snr_db: f32,
    /// Seed of the AWGN generator.
    pub noise_seed: u64,
    /// The scheduled transmissions.
    pub txs: Vec<TxSpec>,
    /// Whether the gateway decodes at the edge before shipping.
    pub edge_decoding: bool,
    /// Cloud decode workers.
    pub workers: usize,
    /// Chunk size the capture is streamed in.
    pub chunk: usize,
    /// Gateway sessions in the fleet (1 = single gateway).
    pub gateways: usize,
    /// Ingest routing shards (0 = one per worker).
    pub shards: usize,
    /// Datagram loss rate of the gateway→cloud link (0 = perfect wire,
    /// which also disables the ARQ transport entirely).
    pub loss: f64,
    /// Seed of the link-fault pattern (after the `GALIOT_FAULT_SEED`
    /// sweep fold).
    pub fault_seed: u64,
    /// Injected gateway crash, if any (only generated for fleets).
    pub crash: Option<CrashPlan>,
    /// Injected decode-pool faults (panic/hang/slow), if any.
    pub decode_faults: Option<DecodeFaultPlan>,
    /// Fleet liveness horizon (registry events; 0 disables eviction).
    pub liveness_horizon: u64,
    /// Watchdog deadline for any single oracle check, seconds.
    pub deadline_s: f64,
}

impl Scenario {
    /// The capture rate every scenario runs at: the paper prototype's
    /// 1 Msps (the rate all three prototype technologies share).
    pub const FS: f64 = 1_000_000.0;

    /// Nominal carrier for converting crystal ppm to a CFO in Hz
    /// (the paper's 868 MHz band).
    pub const CARRIER_HZ: f64 = 868e6;

    /// The system-under-test configuration this scenario describes.
    pub fn config(&self) -> GaliotConfig {
        let mut c = GaliotConfig::prototype()
            .with_cloud_workers(self.workers)
            .with_gateways(self.gateways)
            .with_ingest_shards(self.shards)
            .with_liveness_horizon(self.liveness_horizon);
        c.edge_decoding = self.edge_decoding;
        if self.loss > 0.0 {
            c = c.with_transport(self.transport());
        }
        if let Some(crash) = self.crash {
            c = c.with_crash(crash.session, crash.after_segments, crash.restart);
        }
        if let Some(df) = self.decode_faults {
            c = c
                .with_decode_faults(df.spec())
                .with_decode_deadline(DecodeFaultPlan::DEADLINE_S)
                .with_decode_retries(DecodeFaultPlan::RETRIES);
        }
        c
    }

    /// The conformance-grade repairable transport for this scenario's
    /// loss rate: the full impairment mix with ARQ generous enough to
    /// always win and the degradation ladder disabled, on the
    /// deterministic virtual clock (cf. `transport_conformance.rs`).
    pub fn transport(&self) -> TransportConfig {
        let faults = LinkFaults {
            loss: self.loss,
            corrupt: 0.02,
            duplicate: 0.05,
            reorder: 0.05,
            jitter_depth: 3,
            seed: self.fault_seed,
        };
        let mut t = TransportConfig::over_faulty_link(faults);
        t.arq.max_retries = 12;
        t.arq.base_timeout_s = 0.001;
        t.arq.clock = galiot_core::ArqClock::deterministic();
        t.send_queue_cap = 1024;
        t.degrade_hwm = 1 << 20;
        t
    }

    /// Validates the scenario: the derived config must pass
    /// [`GaliotConfig::validate`] and every transmission must fit the
    /// capture (`compose` panics on overrun) and use a technology the
    /// prototype registry carries.
    pub fn validate(&self) -> Result<(), String> {
        self.config()
            .validate()
            .map_err(|e: ConfigError| e.to_string())?;
        let registry = Registry::prototype();
        for (i, tx) in self.txs.iter().enumerate() {
            let tech = registry
                .get(tx.tech)
                .ok_or_else(|| format!("tx{i}: {} not in prototype registry", tx.tech))?;
            let len = tech.modulate(&tx.payload, Self::FS).len();
            if tx.start + len > self.capture_len {
                return Err(format!(
                    "tx{i}: frame at {} ({len} samples) exceeds capture of {}",
                    tx.start, self.capture_len
                ));
            }
            if tx.payload.is_empty() {
                return Err(format!("tx{i}: empty payload"));
            }
        }
        if self.chunk == 0 {
            return Err("chunk must be >= 1".into());
        }
        if !(self.deadline_s.is_finite() && self.deadline_s > 0.0) {
            return Err(format!("deadline_s must be > 0 (got {})", self.deadline_s));
        }
        Ok(())
    }

    /// The scenario as a single JSON object (write-only; replay goes
    /// through the seed).
    pub fn to_json(&self) -> String {
        let mut txs = String::new();
        for (i, tx) in self.txs.iter().enumerate() {
            if i > 0 {
                txs.push(',');
            }
            txs.push_str(&format!(
                "{{\"tech\":\"{}\",\"payload\":{:?},\"start\":{},\"power_db\":{},\
                 \"cfo_ppm\":{},\"phase\":{}}}",
                tx.tech, tx.payload, tx.start, tx.power_db, tx.cfo_ppm, tx.phase
            ));
        }
        let crash = match self.crash {
            Some(c) => format!(
                "{{\"session\":{},\"after_segments\":{},\"restart\":{}}}",
                c.session, c.after_segments, c.restart
            ),
            None => "null".into(),
        };
        let decode_faults = match self.decode_faults {
            Some(d) => format!(
                "{{\"kind\":\"{}\",\"period\":{},\"sticky_attempts\":{},\"seed\":{}}}",
                d.kind.name(),
                d.period,
                d.sticky_attempts,
                d.seed
            ),
            None => "null".into(),
        };
        format!(
            "{{\"seed\":{},\"capture_len\":{},\"snr_db\":{},\"noise_seed\":{},\
             \"txs\":[{}],\"edge_decoding\":{},\"workers\":{},\"chunk\":{},\
             \"gateways\":{},\"shards\":{},\"loss\":{},\"fault_seed\":{},\
             \"crash\":{},\"decode_faults\":{},\"liveness_horizon\":{},\"deadline_s\":{}}}",
            self.seed,
            self.capture_len,
            self.snr_db,
            self.noise_seed,
            txs,
            self.edge_decoding,
            self.workers,
            self.chunk,
            self.gateways,
            self.shards,
            self.loss,
            self.fault_seed,
            crash,
            decode_faults,
            self.liveness_horizon,
            self.deadline_s
        )
    }
}

/// The four environment knobs that shape a campaign, captured at
/// run time so a repro bundle can state the *exact* environment a
/// failure needs (see EXPERIMENTS.md for the sweep semantics).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvKnobs {
    /// `GALIOT_TEST_SEED` — XOR-swept into every scenario seed.
    pub test_seed: Option<String>,
    /// `GALIOT_FAULT_SEED` — XOR-swept into every link-fault seed.
    pub fault_seed: Option<String>,
    /// `GALIOT_DECODE_FAULTS` — XOR-swept into every decode-fault seed.
    pub decode_fault_seed: Option<String>,
    /// `GALIOT_DSP_BACKEND` — forces the SIMD kernel backend.
    pub dsp_backend: Option<String>,
}

impl EnvKnobs {
    /// Captures the current process environment.
    pub fn capture() -> Self {
        EnvKnobs {
            test_seed: std::env::var("GALIOT_TEST_SEED").ok(),
            fault_seed: std::env::var("GALIOT_FAULT_SEED").ok(),
            decode_fault_seed: std::env::var("GALIOT_DECODE_FAULTS").ok(),
            dsp_backend: std::env::var("GALIOT_DSP_BACKEND").ok(),
        }
    }

    /// One line per knob, `<unset>` when absent — the repro bundle
    /// must echo all four so a failure replays from the bundle alone.
    pub fn render(&self) -> String {
        fn line(name: &str, v: &Option<String>) -> String {
            match v {
                Some(v) => format!("{name}={v}"),
                None => format!("{name}=<unset>"),
            }
        }
        format!(
            "{}\n{}\n{}\n{}",
            line("GALIOT_TEST_SEED", &self.test_seed),
            line("GALIOT_FAULT_SEED", &self.fault_seed),
            line("GALIOT_DECODE_FAULTS", &self.decode_fault_seed),
            line("GALIOT_DSP_BACKEND", &self.dsp_backend),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario {
            seed: 1,
            capture_len: 100_000,
            snr_db: 25.0,
            noise_seed: 2,
            txs: vec![TxSpec {
                tech: TechId::XBee,
                payload: vec![1, 2, 3],
                start: 10_000,
                power_db: 0.0,
                cfo_ppm: 0.0,
                phase: 0.0,
            }],
            edge_decoding: true,
            workers: 1,
            chunk: 65_536,
            gateways: 1,
            shards: 0,
            loss: 0.0,
            fault_seed: 3,
            crash: None,
            decode_faults: None,
            liveness_horizon: 64,
            deadline_s: 60.0,
        }
    }

    #[test]
    fn tiny_scenario_validates_and_serializes() {
        let s = tiny();
        s.validate().expect("valid");
        let json = s.to_json();
        for key in [
            "\"seed\":1",
            "\"txs\":[",
            "\"tech\":\"XBee\"",
            "\"crash\":null",
            "\"decode_faults\":null",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn decode_fault_plan_threads_into_config_and_json() {
        let mut s = tiny();
        s.decode_faults = Some(DecodeFaultPlan {
            kind: DecodeFaultKind::Hang,
            period: 2,
            sticky_attempts: 3,
            seed: 77,
        });
        s.validate().expect("valid with decode faults");
        let c = s.config();
        assert_eq!(c.pool.faults.kind, DecodeFaultKind::Hang);
        assert_eq!(c.pool.faults.period, 2);
        assert_eq!(c.pool.retries, DecodeFaultPlan::RETRIES);
        assert!((c.pool.deadline_s - DecodeFaultPlan::DEADLINE_S).abs() < 1e-12);
        assert!(s.decode_faults.unwrap().quarantines());
        let json = s.to_json();
        assert!(
            json.contains("\"decode_faults\":{\"kind\":\"hang\""),
            "{json}"
        );
        assert!(json.contains("\"sticky_attempts\":3"), "{json}");
    }

    #[test]
    fn overrun_and_degenerate_scenarios_are_rejected() {
        let mut s = tiny();
        s.txs[0].start = 99_000; // frame cannot fit
        assert!(s.validate().is_err());

        let mut s = tiny();
        s.chunk = 0;
        assert!(s.validate().is_err());

        let mut s = tiny();
        s.crash = Some(CrashPlan {
            session: 5,
            after_segments: 0,
            restart: false,
        });
        // Session 5 of a 1-gateway fleet: caught by config validation.
        assert!(s.validate().is_err());
    }

    #[test]
    fn env_knobs_render_all_four() {
        let k = EnvKnobs {
            test_seed: Some("7".into()),
            fault_seed: None,
            decode_fault_seed: Some("13".into()),
            dsp_backend: Some("scalar".into()),
        };
        let r = k.render();
        assert!(r.contains("GALIOT_TEST_SEED=7"));
        assert!(r.contains("GALIOT_FAULT_SEED=<unset>"));
        assert!(r.contains("GALIOT_DECODE_FAULTS=13"));
        assert!(r.contains("GALIOT_DSP_BACKEND=scalar"));
    }

    #[test]
    fn lossy_scenario_config_uses_repairable_transport() {
        let mut s = tiny();
        s.loss = 0.05;
        let c = s.config();
        assert!(c.transport.arq.enabled);
        assert_eq!(c.transport.arq.max_retries, 12);
        assert_eq!(c.transport.data_faults.loss, 0.05);
    }
}
