//! # galiot-core — the GalioT system
//!
//! Reproduction of *"Revisiting Software Defined Radios in the IoT
//! Era"* (Narayanan & Kumar, HotNets '18). This crate assembles the
//! substrates — [`galiot_dsp`], [`galiot_phy`], [`galiot_channel`],
//! [`galiot_gateway`], [`galiot_cloud`] — into the end-to-end system a
//! downstream user runs:
//!
//! * [`pipeline::Galiot`] — batch processing of a capture: RTL-SDR
//!   front end, universal-preamble detection, extraction, edge-first
//!   decode, compressed backhaul, and Algorithm 1 at the cloud;
//! * [`fleet::FleetGaliot`] — the same stages as a live pipeline of
//!   threads and crossbeam channels: N gateway sessions feeding one
//!   supervised cloud decode pool, merged exactly-once in capture
//!   order; [`pool::StreamingGaliot`] is that engine started with
//!   a single session;
//! * [`experiment`] — the engines behind every figure of the paper;
//! * [`sensing`] — the Sec. 6 multi-technology wireless-sensing sketch;
//! * [`config`], [`metrics`] — knobs and counters.
//!
//! ```no_run
//! use galiot_core::{Galiot, GaliotConfig};
//! use galiot_phy::registry::Registry;
//!
//! let system = Galiot::new(GaliotConfig::prototype(), Registry::prototype());
//! let capture: Vec<galiot_dsp::Cf32> = vec![]; // samples from your SDR
//! let report = system.process_capture(&capture);
//! for f in &report.frames {
//!     println!("{}: {} bytes", f.frame.tech, f.frame.payload.len());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod experiment;
pub mod fleet;
mod gateway_loop;
pub mod metrics;
pub mod pipeline;
pub mod pool;
pub mod sensing;
pub mod spawn;
mod stage;
pub mod transport;

pub use config::{ConfigError, CrashSpec, GaliotConfig};
pub use fleet::FleetGaliot;
/// Re-export of the decode-fault injection spec so downstream users can
/// configure the supervised pool without depending on `galiot-channel`
/// directly.
pub use galiot_channel::{DecodeFaultKind, DecodeFaultSpec};
/// Re-export of the observability layer so downstream users can start
/// trace sessions without depending on `galiot-trace` directly.
pub use galiot_trace as trace;
pub use metrics::{Metrics, QuarantineRecord, SharedMetrics};
pub use pipeline::{Galiot, PipelineFrame, RunReport};
pub use pool::StreamingGaliot;
pub use spawn::{spawn_thread, SpawnError};
pub use transport::{
    degraded_bits, ArqClock, ArqParams, QueuedSegment, SendQueue, SendQueueTx, TransportConfig,
    ARQ_DEDUP_WINDOW,
};
