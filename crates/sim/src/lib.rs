//! # galiot-sim — seeded randomized scenario campaigns
//!
//! The conformance suites pin a handful of hand-written scenarios;
//! this crate closes the gap between them and the space of deployments
//! the paper argues for: it *samples* that space. A [`scenario::Scenario`]
//! is a complete, self-describing experiment — transmissions, SNR,
//! impairments, worker/gateway/shard topology, link faults, injected
//! crashes — generated deterministically from a single `u64` seed by
//! [`gen::generate`]. An [`oracle`] registry runs every trusted
//! invariant the conformance suites encode (streaming ≡ batch,
//! fleet ≡ single gateway, forced-scalar ≡ detected SIMD backend,
//! trace ↔ metrics reconciliation, no-panic/deadline) against each
//! sampled scenario, and a greedy [`shrink()`]er minimizes any failure
//! into a self-contained repro: the seed, the minimized scenario as
//! JSON, and the exact environment knobs needed to replay it.
//!
//! The `sim_campaign` binary drives campaigns from the command line;
//! `tests/sim_campaign.rs` pins a small seeded campaign into tier 1.
//!
//! Everything here is deterministic given (spec, seed, environment):
//! the generator folds `GALIOT_TEST_SEED` / `GALIOT_FAULT_SEED` /
//! `GALIOT_DECODE_FAULTS` in through the same XOR sweep rule the
//! conformance suites use, and the repro bundle echoes all four knobs
//! (including `GALIOT_DSP_BACKEND`) so a failure replays from its
//! printed seed alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod gen;
pub mod oracle;
pub mod rng;
pub mod scenario;
pub mod shrink;
pub mod spec;

pub use campaign::{run_campaign, CampaignOptions, CampaignReport};
pub use gen::generate;
pub use oracle::{registry, Built, Oracle};
pub use rng::SplitMix64;
pub use scenario::{EnvKnobs, Scenario, TxSpec};
pub use shrink::shrink;
pub use spec::CampaignSpec;
