//! End-to-end GalioT configuration.

use crate::transport::TransportConfig;
use galiot_channel::DecodeFaultSpec;
use galiot_cloud::CloudParams;
use galiot_gateway::{FrontEndParams, LinkFaults};
use std::fmt;

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
    /// (e.g. `fs`, `decode_deadline_s`, `transport.uplink_bps`) is not.
    NonPositive {
        /// The field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A numeric knob that must be finite and non-negative
    /// (e.g. `edge_cluster_guard_s`, `detect_threshold`, an ARQ timing
    /// or a link-fault probability) is not.
    Negative {
        /// The field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A count that must be at least one (e.g. `gateways`,
    /// `max_expected_payload`, an explicit ingest shard count) is zero.
    ZeroCount {
        /// The field name.
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
    /// A [`CrashSpec`] names a session index outside `0..gateways`:
    /// the crash would never fire and the scenario silently tests
    /// nothing.
    CrashSessionOutOfRange {
        /// The offending session index.
        session: usize,
        /// The configured fleet size.
        gateways: usize,
    },
    /// A no-restart [`CrashSpec`] while `liveness_horizon == 0`
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
                "session {session} crashes without restart while liveness_horizon = 0 \
                 (eviction disabled): the fleet would wedge on its unfinalized watermark"
            ),
            ConfigError::DecodeFaultsWithoutAttempts => write!(
                f,
                "decode_faults is enabled (period > 0) with sticky_attempts = 0: \
                 no attempt would ever be struck"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// One injected gateway crash for [`crate::FleetGaliot`] failover
/// testing: session `session` dies immediately before emitting its
/// `after_segments`-th segment (0 = silent from the first would-be
/// segment). With `restart` set the session supervisor brings a new
/// instance up under a bumped [`galiot_cloud::SessionRegistry`] epoch,
/// resuming the capture where the dead instance stopped consuming it.
/// Each spec fires at most once, on the session's first life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// Fleet session index (0-based, i.e. wire gateway `session + 1`).
    pub session: usize,
    /// Number of segments the first instance emits before dying.
    pub after_segments: u64,
    /// Whether a replacement instance is started after the crash.
    pub restart: bool,
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
    /// Number of parallel cloud decode workers in the streaming
    /// pipeline. `0` means "one per available CPU core"; `1`
    /// reproduces the historical single-threaded cloud tier. The
    /// batch pipeline ignores this knob.
    pub cloud_workers: usize,
    /// The gateway→cloud segment transport: link impairments, ARQ,
    /// send-queue sizing, and the compression-degradation ladder. The
    /// default is a passthrough (perfect links, no ARQ) in which the
    /// streaming pipeline behaves exactly as it did before the
    /// transport existed.
    pub transport: TransportConfig,
    /// Number of gateway sessions in [`crate::FleetGaliot`]'s fleet,
    /// each with its own sequence space, transport, and (in transport
    /// mode) decorrelated link-fault seeds. The single-gateway
    /// pipelines ignore this knob. Minimum 1.
    pub gateways: usize,
    /// Number of routing shards the fleet ingest hashes (gateway, seq)
    /// onto before folding shards onto workers. `0` means "one shard
    /// per worker". More shards than workers is legal and keeps
    /// routing stable across worker-count changes.
    pub ingest_shards: usize,
    /// Injected gateway crashes for fleet failover testing. Empty in
    /// production configurations.
    pub crashes: Vec<CrashSpec>,
    /// Fleet liveness horizon in registry logical-clock events: a
    /// session silent for more than this many events (while holding no
    /// in-flight credits) is declared dead, its merge watermark is
    /// finalized, and its credits are reclaimed. `0` disables
    /// liveness-driven eviction.
    pub liveness_horizon: u64,
    /// Per-segment decode lease deadline, seconds: a worker that has
    /// held one segment longer than this is declared hung by the pool
    /// supervisor, replaced, and the segment is re-dispatched. Must be
    /// positive; generous by default so healthy decodes never trip it.
    pub decode_deadline_s: f64,
    /// How many times the pool supervisor re-dispatches a failed
    /// (panicked or hung) decode before quarantining the segment to the
    /// dead-letter record. `0` quarantines on the first failure.
    pub decode_retries: usize,
    /// Deterministic decode-fault injection (panic/hang/slow) for
    /// supervisor testing. Disabled (`period == 0`) in production
    /// configurations; see [`galiot_channel::DecodeFaultSpec`].
    pub decode_faults: DecodeFaultSpec,
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
            cloud_workers: 0,
            transport: TransportConfig::default(),
            gateways: 1,
            ingest_shards: 0,
            crashes: Vec::new(),
            liveness_horizon: 64,
            decode_deadline_s: 5.0,
            decode_retries: 2,
            decode_faults: DecodeFaultSpec::disabled(),
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

    /// Returns the configuration with an explicit cloud worker count.
    pub fn with_cloud_workers(mut self, workers: usize) -> Self {
        self.cloud_workers = workers;
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

    /// The worker count [`crate::StreamingGaliot`] will actually spawn:
    /// `cloud_workers`, with `0` resolved to the machine's available
    /// parallelism.
    pub fn effective_cloud_workers(&self) -> usize {
        if self.cloud_workers > 0 {
            self.cloud_workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    /// Returns the configuration with `gateways` fleet sessions.
    pub fn with_gateways(mut self, gateways: usize) -> Self {
        self.gateways = gateways;
        self
    }

    /// Returns the configuration with an explicit ingest shard count.
    pub fn with_ingest_shards(mut self, shards: usize) -> Self {
        self.ingest_shards = shards;
        self
    }

    /// Returns the configuration with one injected gateway crash
    /// (fleet failover testing; see [`CrashSpec`]). May be called
    /// repeatedly to crash several sessions.
    pub fn with_crash(mut self, session: usize, after_segments: u64, restart: bool) -> Self {
        self.crashes.push(CrashSpec {
            session,
            after_segments,
            restart,
        });
        self
    }

    /// Returns the configuration with an explicit fleet liveness
    /// horizon (`0` disables liveness-driven eviction).
    pub fn with_liveness_horizon(mut self, horizon: u64) -> Self {
        self.liveness_horizon = horizon;
        self
    }

    /// Returns the configuration with an explicit decode lease
    /// deadline (seconds; must be positive to validate).
    pub fn with_decode_deadline(mut self, deadline_s: f64) -> Self {
        self.decode_deadline_s = deadline_s;
        self
    }

    /// Returns the configuration with an explicit decode retry budget
    /// (re-dispatches before quarantine; `0` quarantines immediately).
    pub fn with_decode_retries(mut self, retries: usize) -> Self {
        self.decode_retries = retries;
        self
    }

    /// Returns the configuration with deterministic decode-fault
    /// injection enabled (see [`galiot_channel::DecodeFaultSpec`]).
    pub fn with_decode_faults(mut self, faults: DecodeFaultSpec) -> Self {
        self.decode_faults = faults;
        self
    }

    /// The shard count the fleet ingest will actually route over:
    /// `ingest_shards`, with `0` resolved to one shard per effective
    /// worker.
    pub fn effective_ingest_shards(&self) -> usize {
        if self.ingest_shards > 0 {
            self.ingest_shards
        } else {
            self.effective_cloud_workers()
        }
    }

    /// Checks the configuration for silently-degenerate knob
    /// combinations (see [`ConfigError`] for the catalogue). The
    /// pipeline constructors ([`crate::Galiot::new`],
    /// [`crate::StreamingGaliot::start`], [`crate::FleetGaliot::start`])
    /// assert this, so an invalid configuration fails loudly at
    /// construction instead of wedging or quietly testing nothing.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn positive(field: &'static str, value: f64) -> Result<(), ConfigError> {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(ConfigError::NonPositive { field, value })
            }
        }
        fn non_negative(field: &'static str, value: f64) -> Result<(), ConfigError> {
            if value.is_finite() && value >= 0.0 {
                Ok(())
            } else {
                Err(ConfigError::Negative { field, value })
            }
        }
        positive("fs", self.fs)?;
        non_negative("detect_threshold", self.detect_threshold as f64)?;
        non_negative("edge_cluster_guard_s", self.edge_cluster_guard_s)?;
        if self.max_expected_payload == 0 {
            return Err(ConfigError::ZeroCount {
                field: "max_expected_payload",
            });
        }
        if self.gateways == 0 {
            return Err(ConfigError::ZeroCount { field: "gateways" });
        }
        let bits = self.compression_bits;
        let min_bits = self.transport.min_bits;
        if bits == 0 || bits > 16 || min_bits == 0 || min_bits > bits {
            return Err(ConfigError::BadCompressionBits { bits, min_bits });
        }
        let t = &self.transport;
        if t.send_queue_cap == 0 {
            return Err(ConfigError::ZeroCount {
                field: "transport.send_queue_cap",
            });
        }
        // The ARQ sender makes `Duration`s of these, which panics on a
        // negative or non-finite value (on its thread, mid-session).
        non_negative("transport.arq.base_timeout_s", t.arq.base_timeout_s)?;
        non_negative("transport.arq.max_timeout_s", t.arq.max_timeout_s)?;
        non_negative("transport.arq.backoff", t.arq.backoff)?;
        non_negative("transport.arq.jitter", t.arq.jitter)?;
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
        }
        for c in &self.crashes {
            if c.session >= self.gateways {
                return Err(ConfigError::CrashSessionOutOfRange {
                    session: c.session,
                    gateways: self.gateways,
                });
            }
            if !c.restart && self.liveness_horizon == 0 {
                return Err(ConfigError::CrashWithoutEviction { session: c.session });
            }
        }
        positive("decode_deadline_s", self.decode_deadline_s)?;
        if self.decode_faults.enabled() && self.decode_faults.sticky_attempts == 0 {
            return Err(ConfigError::DecodeFaultsWithoutAttempts);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ArqParams;

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
        assert_eq!(c.cloud_workers, 0);
        assert!(c.effective_cloud_workers() >= 1);
        assert_eq!(c.clone().with_cloud_workers(3).effective_cloud_workers(), 3);
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
        c.gateways = 0;
        assert!(c.validate().is_err());
        let mut c = GaliotConfig::prototype();
        c.max_expected_payload = 0;
        assert!(c.validate().is_err());

        // ARQ timings the sender cannot make a `Duration` of, and a link
        // probability it cannot draw against.
        let lossy = GaliotConfig::prototype().with_faulty_link(LinkFaults::lossy(0.05, 7));
        let arq_knobs: [fn(&mut ArqParams) -> &mut f64; 4] = [
            |a| &mut a.base_timeout_s,
            |a| &mut a.max_timeout_s,
            |a| &mut a.backoff,
            |a| &mut a.jitter,
        ];
        for knob in arq_knobs {
            for bad in [f64::NAN, -0.5, f64::INFINITY] {
                let mut c = lossy.clone();
                *knob(&mut c.transport.arq) = bad;
                assert!(
                    matches!(c.validate(), Err(ConfigError::Negative { .. })),
                    "{:?}",
                    c.transport.arq
                );
            }
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
        let mut c = lossy;
        c.transport.uplink_bps = Some(1e6);
        c.validate().unwrap();
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
        assert_eq!(c.decode_retries, 2);
        assert!(c.decode_deadline_s > 0.0);
        assert!(!c.decode_faults.enabled());

        // A non-positive lease deadline is degenerate.
        let mut c = GaliotConfig::prototype();
        c.decode_deadline_s = 0.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositive {
                field: "decode_deadline_s",
                ..
            })
        ));
        c.decode_deadline_s = f64::NAN;
        assert!(c.validate().is_err());
        let c = GaliotConfig::prototype()
            .with_decode_deadline(0.25)
            .with_decode_retries(1);
        assert_eq!(c.decode_deadline_s, 0.25);
        assert_eq!(c.decode_retries, 1);

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
        assert_eq!(c.gateways, 1);
        assert_eq!(c.ingest_shards, 0);
        assert_eq!(c.effective_ingest_shards(), 4, "0 → one shard per worker");
        let c = c.with_gateways(3).with_ingest_shards(16);
        assert_eq!(c.gateways, 3);
        assert_eq!(c.effective_ingest_shards(), 16);
    }
}
