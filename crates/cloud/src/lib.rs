//! # galiot-cloud — joint multi-technology decoding (paper, Sec. 5)
//!
//! The cloud half of GalioT. Shipped segments are classified by
//! per-technology preamble correlation ([`classify()`](classify())), decoded
//! power-first with reconstruct-and-subtract cancellation ([`cancel_frame`],
//! [`sic`] — the paper's strawman baseline), and, where SIC stalls on
//! comparable-power collisions, unlocked by the modulation-aware kill
//! filters ([`kill`]: KILL-FREQUENCY, KILL-CSS, KILL-CODES). The whole
//! of Algorithm 1 is [`decode::CloudDecoder`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod decode;
pub mod ingest;
pub mod kill;
pub mod sic;

pub use classify::{classify, Classified, Classifier};
pub use decode::{CloudDecoder, CloudParams, CloudResult, DecodeBuffers, Recovery};
pub use galiot_phy::cancel::{cancel_frame, CancelReport};
pub use ingest::{
    shard_for, CreditGuard, FairnessGate, FleetMerge, GatewayId, SessionInfo, SessionRegistry,
};
pub use kill::{apply_kill, kill_codes, kill_css, kill_frequency, kill_frequency_adaptive};
pub use sic::{sic_decode, SicResult};
