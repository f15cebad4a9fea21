//! # galiot-phy — IoT PHY layers for GalioT
//!
//! Modulators and demodulators for the technologies GalioT decodes,
//! all implementing the [`common::Technology`] trait:
//!
//! * [`lora`] — chirp spread spectrum with full FEC/interleaving chain;
//! * [`zwave`] — ITU-T G.9959 R2 BFSK;
//! * [`xbee`] — IEEE 802.15.4g MR-FSK (2-GFSK);
//! * [`ble`] — Bluetooth Low Energy 1M GFSK;
//! * [`sigfox`] — ultra-narrow-band D-BPSK;
//! * [`dsss`] — 802.15.4-style O-QPSK with 32-chip DSSS spreading.
//!
//! Shared machinery: [`bits`] (CRCs, whitening, packing), [`fec`]
//! (Hamming codes, gray mapping, interleaving), [`fsk`] (the generic
//! binary-FSK modem), [`registry`] (Table 1 of the paper and standard
//! technology instantiations), and [`cancel`] (subtracting a decoded
//! frame's remodulation, for the cloud's SIC and the gateway's edge).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod ble;
pub mod cancel;
pub mod common;
pub mod dsss;
pub mod fec;
pub mod fsk;
pub mod lora;
pub mod registry;
pub mod sigfox;
pub mod xbee;
pub mod zwave;

pub use common::{DecodedFrame, DemodScratch, ModClass, PhyError, TechId, Technology};
