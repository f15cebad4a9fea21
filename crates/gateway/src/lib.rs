//! # galiot-gateway — the GalioT gateway (paper, Sec. 4)
//!
//! An inexpensive software-radio front end ([`frontend`], modelling the
//! prototype's 8-bit RTL-SDR), universal packet detection
//! ([`universal`]) against the energy and matched-filter baselines
//! ([`detect`]), capture extraction around detections ([`extract()`](extract())),
//! the edge-first decode split ([`edge`]) and the compressed,
//! bandwidth-limited uplink to the cloud ([`backhaul`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backhaul;
pub mod detect;
pub mod edge;
pub mod extract;
pub mod frontend;
pub mod universal;

pub use backhaul::{
    compress, crc32, decode_ack, decode_segment, decompress, decompress_into, encode_ack,
    encode_segment, try_decompress, validate_header, CodecError, CompressedSegment, FaultyLink,
    GatewayId, LinkFaults, LinkStats, ShippedSegment, WireError, WIRE_VERSION, WIRE_VERSION_MIN,
};
pub use detect::{
    score_detections, Detection, DetectionStream, EnergyDetector, LagScorer, MatchedFilterBank,
    PacketDetector, PeakRule,
};
pub use edge::{Attempt, EdgeBuffers, EdgeDecoder, EdgeOutcome, DEFAULT_CLUSTER_GUARD_S};
pub use extract::{extract, spans, ExtractParams, Segment, Span};
pub use frontend::{
    AnalogRing, AnalogView, FrontEndParams, HoppingFrontEnd, RtlSdrFrontEnd, SlidingGain,
};
pub use universal::{build as build_universal_preamble, UniversalDetector, UniversalPreamble};
