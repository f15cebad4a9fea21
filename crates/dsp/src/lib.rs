//! # galiot-dsp — the DSP substrate for GalioT
//!
//! Everything in the GalioT reproduction — the IoT PHY layers, the
//! channel simulator, the gateway's universal-preamble detector and the
//! cloud's kill filters — is built on the primitives in this crate:
//!
//! * [`num`] — a minimal complex sample type ([`Cf32`]) and dB helpers;
//! * [`fft`] — a planned radix-2 FFT;
//! * [`window`] / [`fir`] — window functions and windowed-sinc FIR
//!   design (low-pass), filtering and decimation;
//! * [`corr`] — direct and FFT cross-correlation, normalized matched
//!   filtering and peak picking (the heart of packet detection);
//! * [`engine`] — the correlation engine: a process-wide FFT plan
//!   cache, precomputed correlation templates ([`engine::Template`],
//!   [`engine::TemplateBank`]) and an overlap-save streaming
//!   correlator with per-thread scratch buffers;
//! * [`chirp`] — CSS up/down chirps and symbol chirps (LoRa, KILL-CSS);
//! * [`mix`] — NCO, frequency translation and tone estimation;
//! * [`pulse`] — Gaussian (GFSK), half-sine (O-QPSK) and RRC shaping;
//! * [`power`] — power/energy/SNR measurement and noise-floor
//!   estimation;
//! * [`psd`] — Welch PSD estimation and spectral peak-band finding;
//! * [`spectral`] — whole-block FFT band masks, the primitive behind
//!   the KILL-FREQUENCY and KILL-CSS interference filters.
//! * [`kernels`] — runtime-dispatched SIMD kernels (scalar / SSE4.1 /
//!   AVX2 / FMA) behind every hot inner loop above, differentially
//!   verified against the always-compiled scalar reference.
//!
//! The crate is dependency-free and purely CPU-bound — per the
//! project's networking guides, no async runtime is involved anywhere
//! in the signal path. `unsafe` is denied crate-wide except for the
//! `#[target_feature]` vector bodies in [`kernels`], which are only
//! reachable through the feature-checking dispatcher.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chirp;
pub mod corr;
pub mod engine;
pub mod fft;
pub mod fir;
pub mod kernels;
pub mod mix;
pub mod num;
pub mod power;
pub mod psd;
pub mod pulse;
pub mod spectral;
pub mod window;

pub use num::{db_to_lin, lin_to_db, Cf32};
