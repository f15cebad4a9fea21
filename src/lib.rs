//! # GalioT — a cloud-assisted software-defined-radio gateway for
//! low-power IoT
//!
//! A full reproduction of *"Revisiting Software Defined Radios in the
//! IoT Era"* (Revathy Narayanan & Swarun Kumar, HotNets '18): an
//! inexpensive SDR gateway that detects packets of any registered IoT
//! technology — including cross-technology collisions — with a single
//! universal-preamble correlation, ships the samples to a cloud
//! decoder, and separates collisions there with modulation-aware
//! "kill" filters plus successive interference cancellation.
//!
//! This crate is a facade: the system lives in the workspace crates,
//! re-exported here under one roof.
//!
//! ```no_run
//! use galiot::prelude::*;
//!
//! // The paper's prototype: LoRa + XBee + Z-Wave over one 1 MHz capture.
//! let system = Galiot::new(GaliotConfig::prototype(), Registry::prototype());
//! let capture: Vec<Cf32> = vec![]; // I/Q samples from your SDR
//! let report = system.process_capture(&capture);
//! for f in &report.frames {
//!     println!(
//!         "{} frame, {} bytes, recovered at the {}",
//!         f.frame.tech,
//!         f.frame.payload.len(),
//!         if f.at_edge { "edge" } else { "cloud" },
//!     );
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use galiot_channel as channel;
pub use galiot_cloud as cloud;
pub use galiot_core as core;
pub use galiot_dsp as dsp;
pub use galiot_gateway as gateway;
pub use galiot_phy as phy;
pub use galiot_trace as trace;

/// The names almost every user of the library needs.
pub mod prelude {
    pub use galiot_channel::{compose, forced_collision, snr_to_noise_power, TxEvent};
    pub use galiot_cloud::{CloudDecoder, Recovery};
    pub use galiot_core::{
        ArqClock, ArqParams, ConfigError, CrashSpec, FleetGaliot, Galiot, GaliotConfig,
        StreamingGaliot, TransportConfig,
    };
    pub use galiot_dsp::Cf32;
    pub use galiot_gateway::GatewayId;
    pub use galiot_gateway::{LinkFaults, PacketDetector, UniversalDetector};
    pub use galiot_phy::registry::Registry;
    pub use galiot_phy::{DecodedFrame, TechId, Technology};
}
