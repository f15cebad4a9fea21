//! End-to-end GalioT configuration, split along the layers that read
//! it: the gateway and backhaul knobs sit at the top level,
//! [`GaliotConfig::pool`] holds the decode pool's ([`PoolConfig`], in
//! [`crate::pool`]) and [`GaliotConfig::fleet`] the session topology's
//! ([`FleetConfig`], in [`crate::fleet`]). Each part validates its own
//! knobs; [`GaliotConfig::validate`] runs all three, and an error names
//! its field by path (`pool.deadline_s`, `fleet.gateways`).

use crate::fleet::{CrashSpec, FleetConfig};
use crate::pool::PoolConfig;
use crate::transport::TransportConfig;
use galiot_channel::DecodeFaultSpec;
use galiot_cloud::CloudParams;
use galiot_gateway::{FrontEndParams, LinkFaults};
use std::fmt;
use std::time::{Duration, Instant};

/// Why a [`GaliotConfig`] was rejected by [`GaliotConfig::validate`].
///
/// Every variant names a *silently-degenerate* configuration: one the
/// pipelines would accept without an immediate error but that cannot
/// behave as a deployment (or a randomized scenario generator) means
/// it to — a wedged fleet, a guard that never fires, a capture rate of
/// zero. `galiot-sim`'s `ScenarioGen` relies on these checks to reject
/// invalid samples instead of chasing phantom conformance failures.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A numeric knob that must be finite and strictly positive
    /// (e.g. `fs`, `pool.deadline_s`, `transport.uplink_bps`) is not.
    NonPositive {
        /// The field path.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A numeric knob that must be finite and non-negative
    /// (e.g. `edge_cluster_guard_s`, `detect_threshold`, the ARQ base
    /// timeout or a link-fault probability) is not.
    Negative {
        /// The field path.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A duration knob too long for the pipeline to represent: the
    /// longest wait it implies is refused by `Duration`, or does not
    /// fit an `Instant` deadline (e.g. `pool.deadline_s = 1e19`).
    Unrepresentable {
        /// The field path.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A count that must be at least one (e.g. `fleet.gateways`,
    /// `max_expected_payload`) is zero.
    ZeroCount {
        /// The field path.
        field: &'static str,
    },
    /// `compression_bits` (or the transport's degradation floor
    /// `min_bits`) outside the representable 1..=16 range, or a floor
    /// above the configured starting bits.
    BadCompressionBits {
        /// Configured bits per I/Q rail.
        bits: u32,
        /// Degradation-ladder floor.
        min_bits: u32,
    },
    /// A [`CrashSpec`] names a session index outside
    /// `0..fleet.gateways`: the crash would never fire and the scenario
    /// silently tests nothing.
    CrashSessionOutOfRange {
        /// The offending session index.
        session: usize,
        /// The configured fleet size.
        gateways: usize,
    },
    /// A no-restart [`CrashSpec`] while `fleet.liveness_horizon == 0`
    /// (eviction disabled): the dead session's merge watermark is
    /// never finalized and the fleet wedges instead of failing over.
    CrashWithoutEviction {
        /// The session whose crash could never be reaped.
        session: usize,
    },
    /// An enabled [`DecodeFaultSpec`] whose sticky window is zero: the
    /// spec would strike no attempt and the scenario silently tests
    /// nothing.
    DecodeFaultsWithoutAttempts,
    /// Impaired links (`transport.data_faults`, `transport.ack_faults`)
    /// or a paced uplink (`transport.uplink_bps`) with
    /// `transport.arq.enabled = false`: without the ARQ, segments
    /// bypass the transport, so the knob would be silently ignored.
    TransportWithoutArq {
        /// The field path of the ignored knob.
        field: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonPositive { field, value } => {
                write!(f, "{field} must be finite and > 0 (got {value})")
            }
            ConfigError::Negative { field, value } => {
                write!(f, "{field} must be finite and >= 0 (got {value})")
            }
            ConfigError::Unrepresentable { field, value } => {
                write!(
                    f,
                    "{field} is too long a duration to wait for (got {value})"
                )
            }
            ConfigError::ZeroCount { field } => {
                write!(f, "{field} must be at least 1 (got 0)")
            }
            ConfigError::BadCompressionBits { bits, min_bits } => write!(
                f,
                "compression bits must satisfy 1 <= min_bits <= bits <= 16 \
                 (got bits={bits}, min_bits={min_bits})"
            ),
            ConfigError::CrashSessionOutOfRange { session, gateways } => write!(
                f,
                "crash spec names session {session} but the fleet has only \
                 {gateways} gateway(s) (sessions 0..{gateways}); the crash would never fire"
            ),
            ConfigError::CrashWithoutEviction { session } => write!(
                f,
                "session {session} crashes without restart while fleet.liveness_horizon = 0 \
                 (eviction disabled): the fleet would wedge on its unfinalized watermark"
            ),
            ConfigError::DecodeFaultsWithoutAttempts => write!(
                f,
                "pool.faults is enabled (period > 0) with sticky_attempts = 0: \
                 no attempt would ever be struck"
            ),
            ConfigError::TransportWithoutArq { field } => write!(
                f,
                "{field} is set while transport.arq.enabled = false: segments \
                 bypass the transport without the ARQ, so it would be ignored"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// `value` must be finite and > 0.
pub(crate) fn positive(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(ConfigError::NonPositive { field, value })
    }
}

/// `value` must be finite and >= 0.
fn non_negative(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(ConfigError::Negative { field, value })
    }
}

/// The count `n` must be at least one.
pub(crate) fn at_least_one(field: &'static str, n: usize) -> Result<(), ConfigError> {
    if n > 0 {
        Ok(())
    } else {
        Err(ConfigError::ZeroCount { field })
    }
}

/// The knob `value` implies waits of up to `wait_s` seconds, which
/// must make a `Duration` and fit a deadline `Instant` from now: the
/// pipeline threads that wait panic otherwise.
pub(crate) fn waitable(field: &'static str, value: f64, wait_s: f64) -> Result<(), ConfigError> {
    match Duration::try_from_secs_f64(wait_s).map(|d| Instant::now().checked_add(d)) {
        Ok(Some(_)) => Ok(()),
        _ => Err(ConfigError::Unrepresentable { field, value }),
    }
}

/// Full system configuration.
#[derive(Clone, Debug)]
pub struct GaliotConfig {
    /// Capture sample rate in Hz (1 MHz in the paper's prototype).
    pub fs: f64,
    /// Front-end model parameters.
    pub front_end: FrontEndParams,
    /// The universal-preamble detector's normalized-correlation
    /// threshold; `0.0` selects the analytic noise threshold over the
    /// window a flush takes it over.
    pub detect_threshold: f32,
    /// Whether the edge tries to decode before shipping to the cloud.
    pub edge_decoding: bool,
    /// The edge decoder's collision cluster guard in seconds:
    /// preamble-correlation peaks closer than this count as one
    /// packet. Expressed in time so shipping decisions do not change
    /// with the capture rate (2.048 ms ≡ the historical 2,048-sample
    /// guard at the prototype's 1 Msps).
    pub edge_cluster_guard_s: f64,
    /// Largest payload (bytes) the deployment expects — sizes the
    /// shipped window ("twice the maximum packet length", Sec. 4)
    /// without assuming worst-case 255-byte LoRa frames.
    pub max_expected_payload: usize,
    /// Bits per I/Q rail on the backhaul (compression).
    pub compression_bits: u32,
    /// Cloud decoder parameters.
    pub cloud: CloudParams,
    /// The gateway→cloud segment transport: link impairments, ARQ,
    /// send-queue sizing, and the compression-degradation ladder. The
    /// default is a passthrough (perfect links, no ARQ) in which the
    /// streaming pipeline behaves exactly as it did before the
    /// transport existed.
    pub transport: TransportConfig,
    /// The supervised decode pool: worker count, lease deadline, retry
    /// budget and fault injection. The batch pipeline ignores it.
    pub pool: PoolConfig,
    /// The fleet's sessions: gateway count, ingest shards, injected
    /// crashes and the liveness horizon. Only [`crate::FleetGaliot`]
    /// reads it.
    pub fleet: FleetConfig,
}

impl Default for GaliotConfig {
    fn default() -> Self {
        GaliotConfig {
            fs: 1_000_000.0,
            front_end: FrontEndParams::default(),
            // 0.0 = the analytic noise threshold.
            detect_threshold: 0.0,
            edge_decoding: true,
            edge_cluster_guard_s: galiot_gateway::DEFAULT_CLUSTER_GUARD_S,
            max_expected_payload: 32,
            compression_bits: 8,
            cloud: CloudParams::default(),
            transport: TransportConfig::default(),
            pool: PoolConfig::default(),
            fleet: FleetConfig::default(),
        }
    }
}

impl GaliotConfig {
    /// The paper's prototype configuration: RTL-SDR front end at
    /// 1 Msps, universal-preamble detection, edge-first decoding,
    /// 8-bit compression.
    pub fn prototype() -> Self {
        Self::default()
    }

    /// Returns the configuration with an explicit cloud worker count
    /// ([`PoolConfig::workers`]).
    pub fn with_cloud_workers(mut self, workers: usize) -> Self {
        self.pool.workers = workers;
        self
    }

    /// Returns the configuration with the streaming backhaul routed
    /// over a faulty link (data direction uses `faults`; the ack
    /// direction inherits the same rates under a decorrelated seed)
    /// with windowed ARQ enabled to repair it.
    pub fn with_faulty_link(mut self, faults: LinkFaults) -> Self {
        self.transport = TransportConfig::over_faulty_link(faults);
        self
    }

    /// Returns the configuration with an explicit transport setup
    /// (full control over impairments, ARQ, and degradation knobs).
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// Returns the configuration with `gateways` fleet sessions
    /// ([`FleetConfig::gateways`]).
    pub fn with_gateways(mut self, gateways: usize) -> Self {
        self.fleet.gateways = gateways;
        self
    }

    /// Returns the configuration with an explicit ingest shard count
    /// ([`FleetConfig::shards`]).
    pub fn with_ingest_shards(mut self, shards: usize) -> Self {
        self.fleet.shards = shards;
        self
    }

    /// Returns the configuration with one injected gateway crash
    /// (fleet failover testing; see [`CrashSpec`]). May be called
    /// repeatedly to crash several sessions.
    pub fn with_crash(mut self, session: usize, after_segments: u64, restart: bool) -> Self {
        self.fleet.crashes.push(CrashSpec {
            session,
            after_segments,
            restart,
        });
        self
    }

    /// Returns the configuration with an explicit fleet liveness
    /// horizon (`0` disables liveness-driven eviction).
    pub fn with_liveness_horizon(mut self, horizon: u64) -> Self {
        self.fleet.liveness_horizon = horizon;
        self
    }

    /// Returns the configuration with an explicit decode lease
    /// deadline (seconds; must be positive to validate).
    pub fn with_decode_deadline(mut self, deadline_s: f64) -> Self {
        self.pool.deadline_s = deadline_s;
        self
    }

    /// Returns the configuration with an explicit decode retry budget
    /// (re-dispatches before quarantine; `0` quarantines immediately).
    pub fn with_decode_retries(mut self, retries: usize) -> Self {
        self.pool.retries = retries;
        self
    }

    /// Returns the configuration with deterministic decode-fault
    /// injection enabled (see [`galiot_channel::DecodeFaultSpec`]).
    pub fn with_decode_faults(mut self, faults: DecodeFaultSpec) -> Self {
        self.pool.faults = faults;
        self
    }

    /// Checks the configuration for silently-degenerate knob
    /// combinations (see [`ConfigError`] for the catalogue): its own
    /// knobs, then [`FleetConfig::validate`] and
    /// [`PoolConfig::validate`]. The pipeline constructors
    /// ([`crate::Galiot::new`], [`crate::StreamingGaliot::start`],
    /// [`crate::FleetGaliot::start`]) assert this, so an invalid
    /// configuration fails loudly at construction instead of wedging,
    /// panicking a pipeline thread, or quietly testing nothing.
    pub fn validate(&self) -> Result<(), ConfigError> {
        positive("fs", self.fs)?;
        non_negative("detect_threshold", self.detect_threshold as f64)?;
        non_negative("edge_cluster_guard_s", self.edge_cluster_guard_s)?;
        at_least_one("max_expected_payload", self.max_expected_payload)?;
        let bits = self.compression_bits;
        let min_bits = self.transport.min_bits;
        if bits == 0 || bits > 16 || min_bits == 0 || min_bits > bits {
            return Err(ConfigError::BadCompressionBits { bits, min_bits });
        }
        let t = &self.transport;
        at_least_one("transport.send_queue_cap", t.send_queue_cap)?;
        // The ARQ sender makes `Duration`s and deadlines of its
        // timeouts, which panics on a negative, non-finite or
        // overlong value (on its thread, mid-session).
        let (base, longest) = (t.arq.base_timeout_s, t.arq.longest_timeout_s());
        non_negative("transport.arq.base_timeout_s", base)?;
        waitable("transport.arq.base_timeout_s", base, longest)?;
        // A link draws against its probabilities, which panics on NaN.
        for (field, f) in [
            ("transport.data_faults", t.data_faults),
            ("transport.ack_faults", t.ack_faults),
        ] {
            for p in [f.loss, f.corrupt, f.duplicate, f.reorder] {
                non_negative(field, p)?;
            }
        }
        if let Some(bps) = t.uplink_bps {
            positive("transport.uplink_bps", bps)?;
            // The serialization delay of the longest datagram the wire
            // format can frame (its payload length is a `u32`).
            waitable("transport.uplink_bps", bps, u32::MAX as f64 * 8.0 / bps)?;
        }
        if !t.arq.enabled {
            for (field, ignored) in [
                ("transport.data_faults", !t.data_faults.is_perfect()),
                ("transport.ack_faults", !t.ack_faults.is_perfect()),
                ("transport.uplink_bps", t.uplink_bps.is_some()),
            ] {
                if ignored {
                    return Err(ConfigError::TransportWithoutArq { field });
                }
            }
        }
        self.fleet.validate()?;
        self.pool.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_paper_parameters() {
        let c = GaliotConfig::prototype();
        assert_eq!(c.fs, 1_000_000.0);
        assert_eq!(c.front_end.adc_bits, 8);
        assert!(c.edge_decoding);
    }

    #[test]
    fn default_transport_is_a_passthrough() {
        let c = GaliotConfig::prototype();
        assert!(c.transport.is_passthrough());
        let faulty = c.clone().with_faulty_link(LinkFaults::lossy(0.05, 7));
        assert!(!faulty.transport.is_passthrough());
        assert!(faulty.transport.arq.enabled);
        assert_eq!(faulty.transport.data_faults.loss, 0.05);
        assert_eq!(faulty.transport.ack_faults.loss, 0.05);
        assert_ne!(
            faulty.transport.ack_faults.seed, faulty.transport.data_faults.seed,
            "ack link must be decorrelated from the data link"
        );
    }

    #[test]
    fn cloud_workers_default_to_available_parallelism() {
        let c = GaliotConfig::prototype();
        assert_eq!(c.pool.workers, 0);
        assert!(c.pool.effective_workers() >= 1);
        assert_eq!(c.clone().with_cloud_workers(3).pool.effective_workers(), 3);
    }

    #[test]
    fn default_and_prototype_configs_validate() {
        GaliotConfig::default().validate().unwrap();
        GaliotConfig::prototype()
            .with_gateways(4)
            .with_cloud_workers(4)
            .with_crash(2, 3, true)
            .validate()
            .unwrap();
    }

    #[test]
    fn degenerate_knobs_are_rejected() {
        // fs must be finite and positive.
        let mut c = GaliotConfig::prototype();
        c.fs = 0.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositive { field: "fs", .. })
        ));
        c.fs = f64::NAN;
        assert!(c.validate().is_err());

        // A negative collision cluster guard can never fire.
        let mut c = GaliotConfig::prototype();
        c.edge_cluster_guard_s = -1.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::Negative {
                field: "edge_cluster_guard_s",
                ..
            })
        ));

        // Compression outside 1..=16 bits, or a floor above the start.
        let mut c = GaliotConfig::prototype();
        c.compression_bits = 0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadCompressionBits { .. })
        ));
        let mut c = GaliotConfig::prototype();
        c.compression_bits = 2;
        assert_eq!(
            c.validate(),
            Err(ConfigError::BadCompressionBits {
                bits: 2,
                min_bits: 4
            }),
            "degradation floor above the starting bits must be rejected"
        );

        // A zero-session fleet and an empty payload budget.
        let mut c = GaliotConfig::prototype();
        c.fleet.gateways = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::ZeroCount {
                field: "fleet.gateways"
            })
        );
        let mut c = GaliotConfig::prototype();
        c.max_expected_payload = 0;
        assert!(c.validate().is_err());

        // An ARQ timeout the sender cannot make a `Duration` of, and a
        // link probability it cannot draw against.
        let lossy = GaliotConfig::prototype().with_faulty_link(LinkFaults::lossy(0.05, 7));
        for bad in [f64::NAN, -0.5, f64::INFINITY] {
            let mut c = lossy.clone();
            c.transport.arq.base_timeout_s = bad;
            assert!(
                matches!(c.validate(), Err(ConfigError::Negative { .. })),
                "{:?}",
                c.transport.arq
            );
        }
        let mut c = lossy.clone();
        c.transport.data_faults.loss = f64::NAN;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::Negative {
                field: "transport.data_faults",
                ..
            })
        ));
        let mut c = lossy.clone();
        c.transport.ack_faults.reorder = f64::INFINITY;
        assert!(c.validate().is_err());

        // A pacing rate the sender cannot divide by.
        for bad in [0.0, -1e6, f64::NAN] {
            let mut c = lossy.clone();
            c.transport.uplink_bps = Some(bad);
            assert!(matches!(
                c.validate(),
                Err(ConfigError::NonPositive {
                    field: "transport.uplink_bps",
                    ..
                })
            ));
        }
        let mut c = lossy.clone();
        c.transport.uplink_bps = Some(1e6);
        c.validate().unwrap();

        // Durations too long to wait for, each of which once panicked a
        // pipeline thread: the pool's lease deadline in
        // `Duration::from_secs_f64` (1e20) or in its first
        // `Instant::now() + deadline` (1e19), the uplink's first
        // retransmit timeout and its first pacing sleep.
        for bad in [1e20, 1e19] {
            let c = GaliotConfig::prototype().with_decode_deadline(bad);
            assert_eq!(
                c.validate(),
                Err(ConfigError::Unrepresentable {
                    field: "pool.deadline_s",
                    value: bad
                })
            );
        }
        let mut c = lossy.clone();
        c.transport.arq.base_timeout_s = 1e20;
        assert_eq!(
            c.validate(),
            Err(ConfigError::Unrepresentable {
                field: "transport.arq.base_timeout_s",
                value: 1e20
            })
        );
        let mut c = lossy.clone();
        c.transport.uplink_bps = Some(1e-300);
        assert_eq!(
            c.validate(),
            Err(ConfigError::Unrepresentable {
                field: "transport.uplink_bps",
                value: 1e-300
            })
        );

        // ARQ off makes the transport a passthrough: an impaired link
        // would lose segments with no gap notice (stalling their
        // session's merge lane until `finish`) and a pacing rate would
        // never be applied.
        let mut cases = Vec::new();
        let mut c = lossy.clone();
        c.transport.arq.enabled = false;
        c.transport.ack_faults = LinkFaults::none();
        cases.push((c, "transport.data_faults"));
        let mut c = lossy;
        c.transport.arq.enabled = false;
        c.transport.data_faults = LinkFaults::none();
        cases.push((c, "transport.ack_faults"));
        let mut c = GaliotConfig::prototype();
        c.transport.uplink_bps = Some(1e6);
        cases.push((c, "transport.uplink_bps"));
        for (c, field) in cases {
            assert_eq!(
                c.validate(),
                Err(ConfigError::TransportWithoutArq { field })
            );
        }
    }

    #[test]
    fn crash_specs_are_cross_checked() {
        // A crash aimed past the fleet never fires.
        let c = GaliotConfig::prototype()
            .with_gateways(2)
            .with_crash(2, 0, false);
        assert_eq!(
            c.validate(),
            Err(ConfigError::CrashSessionOutOfRange {
                session: 2,
                gateways: 2
            })
        );
        // ... whatever its restart policy, and in the default fleet of
        // one too.
        assert_eq!(
            GaliotConfig::prototype().with_crash(1, 0, true).validate(),
            Err(ConfigError::CrashSessionOutOfRange {
                session: 1,
                gateways: 1
            })
        );
        // A no-restart crash with eviction disabled wedges the fleet.
        let c = GaliotConfig::prototype()
            .with_gateways(2)
            .with_liveness_horizon(0)
            .with_crash(0, 0, false);
        assert_eq!(
            c.validate(),
            Err(ConfigError::CrashWithoutEviction { session: 0 })
        );
        // The same crash with restart is fine: the replacement's
        // registration supersedes the dead epoch without the reaper.
        GaliotConfig::prototype()
            .with_gateways(2)
            .with_liveness_horizon(0)
            .with_crash(0, 0, true)
            .validate()
            .unwrap();
        // And a no-restart crash is fine while the reaper can evict it.
        GaliotConfig::prototype()
            .with_gateways(3)
            .with_ingest_shards(5)
            .with_liveness_horizon(16)
            .with_crash(1, 2, false)
            .validate()
            .unwrap();
    }

    #[test]
    fn decode_supervision_knobs_validate() {
        use galiot_channel::{DecodeFaultKind, DecodeFaultSpec};

        let c = GaliotConfig::prototype();
        assert_eq!(c.pool.retries, 2);
        assert!(c.pool.deadline_s > 0.0);
        assert!(!c.pool.faults.enabled());

        // A non-positive lease deadline is degenerate.
        let mut c = GaliotConfig::prototype();
        c.pool.deadline_s = 0.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositive {
                field: "pool.deadline_s",
                ..
            })
        ));
        c.pool.deadline_s = f64::NAN;
        assert!(c.validate().is_err());
        let c = GaliotConfig::prototype()
            .with_decode_deadline(0.25)
            .with_decode_retries(1);
        assert_eq!(c.pool.deadline_s, 0.25);
        assert_eq!(c.pool.retries, 1);

        // An enabled fault spec with an empty sticky window tests
        // nothing and is rejected.
        let c = GaliotConfig::prototype().with_decode_faults(DecodeFaultSpec {
            kind: DecodeFaultKind::Panic,
            period: 2,
            sticky_attempts: 0,
            seed: 7,
        });
        assert_eq!(c.validate(), Err(ConfigError::DecodeFaultsWithoutAttempts));
        let c = GaliotConfig::prototype().with_decode_faults(DecodeFaultSpec {
            kind: DecodeFaultKind::Slow,
            period: 3,
            sticky_attempts: 1,
            seed: 7,
        });
        c.validate().unwrap();
    }

    #[test]
    fn fleet_knobs_default_to_one_gateway_and_per_worker_shards() {
        let c = GaliotConfig::prototype().with_cloud_workers(4);
        let workers = c.pool.effective_workers();
        assert_eq!(c.fleet.gateways, 1);
        assert_eq!(c.fleet.shards, 0);
        assert_eq!(
            c.fleet.effective_shards(workers),
            4,
            "0 → one shard per worker"
        );
        let c = c.with_gateways(3).with_ingest_shards(16);
        assert_eq!(c.fleet.gateways, 3);
        assert_eq!(c.fleet.effective_shards(workers), 16);
    }
}
