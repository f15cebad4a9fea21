//! Backhaul: I/Q compression, the segment wire codec, and a model of
//! the unreliable home uplink.
//!
//! Streaming raw 1 Msps complex floats is 64 Mb/s — already beyond many
//! home uplinks, and the paper notes raw multi-technology captures
//! "could be huge (tens of Gbps)". The gateway therefore ships only
//! detected segments, re-quantized to a few bits with a per-block
//! scale. This module implements that compression, the versioned
//! datagram format segments travel in ([`encode_segment`] /
//! [`decode_segment`], CRC32-protected and length-framed), and a
//! deterministic impairment model of a *bad* uplink ([`FaultyLink`]:
//! loss, bit corruption, duplication, reordering) that the streaming
//! pipeline's ARQ layer is tested against.

use std::borrow::Cow;

use galiot_dsp::{kernels, Cf32};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Compressed representation of one I/Q segment.
#[derive(Clone, Debug, PartialEq)]
pub struct CompressedSegment {
    /// Bits per I (and per Q) sample.
    pub bits: u32,
    /// Per-block scale factors (one per block of `block_len` samples).
    pub scales: Vec<f32>,
    /// Block length in samples.
    pub block_len: usize,
    /// Packed sample codes (I then Q per sample, `bits` each),
    /// little-endian bit packing.
    pub data: Vec<u8>,
    /// Number of samples encoded.
    pub len: usize,
}

impl CompressedSegment {
    /// Size on the wire in bytes (codes + scales + 16-byte header).
    pub fn wire_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4 + 16
    }
}

/// Compresses a segment to `bits` bits per I/Q rail with per-block
/// automatic scaling (block floating point — what commercial
/// cloud-SDR links use).
///
/// # Panics
/// Panics unless `1 <= bits <= 16` and `block_len > 0`.
pub fn compress(samples: &[Cf32], bits: u32, block_len: usize) -> CompressedSegment {
    let _span = galiot_trace::span(galiot_trace::Stage::Compress, galiot_trace::NO_SEQ);
    assert!(block_len > 0, "block length must be positive");
    // The kernel (which checks `bits`) quantizes and packs straight
    // into these: the only allocations are the ones that travel.
    let mut scales = vec![0.0; samples.len().div_ceil(block_len)];
    let packed = kernels::packed_len(samples.len(), bits).expect("a slice's packed size fits");
    let mut data = vec![0; packed];
    kernels::compress(samples, bits, block_len, &mut scales, &mut data);
    CompressedSegment {
        bits,
        scales,
        block_len,
        data,
        len: samples.len(),
    }
}

/// Why a [`CompressedSegment`] header is internally inconsistent and
/// cannot be decoded safely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// `bits` outside the supported 1..=16 range.
    BadBits,
    /// `block_len` is zero.
    BadBlockLen,
    /// `scales` holds a different number of entries than
    /// `len.div_ceil(block_len)` blocks require.
    ScaleCountMismatch,
    /// `data` is not exactly the packed size `len` samples at `bits`
    /// bits per rail occupy.
    DataLenMismatch,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            CodecError::BadBits => "bits per rail outside 1..=16",
            CodecError::BadBlockLen => "zero block length",
            CodecError::ScaleCountMismatch => "scale count disagrees with len/block_len",
            CodecError::DataLenMismatch => "packed data size disagrees with len and bits",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for CodecError {}

/// The tolerant unpacking loop, appending `len` samples to `out`.
/// `bits` and `block_len` must already be sanitized (`1 <= bits <=
/// 16`, `block_len >= 1`); out-of-range scale or data reads are
/// tolerated (missing scales read as 0, missing bytes as 0). A
/// consistent header never gets here: [`kernels::decompress`] is this
/// loop at vector speed, held to it bit for bit.
fn unpack_codes(
    bits: u32,
    block_len: usize,
    scales: &[f32],
    data: &[u8],
    len: usize,
    out: &mut Vec<Cf32>,
) {
    let levels = ((1u32 << bits) / 2) as f32;
    let mask = (1u32 << bits) - 1;
    out.reserve(len);
    let mut acc: u32 = 0;
    let mut nbits: u32 = 0;
    let mut byte_iter = data.iter();
    let mut next_code = || -> u16 {
        while nbits < bits {
            acc |= (*byte_iter.next().unwrap_or(&0) as u32) << nbits;
            nbits += 8;
        }
        let code = (acc & mask) as u16;
        acc >>= bits;
        nbits -= bits;
        code
    };
    for i in 0..len {
        let scale = scales.get(i / block_len).copied().unwrap_or(0.0);
        let dq = |code: u16| -> f32 { ((code as f32 - (levels - 0.5)) / (levels - 0.5)) * scale };
        let re = dq(next_code());
        let im = dq(next_code());
        out.push(Cf32::new(re, im));
    }
}

/// Validates a compressed segment's header before decoding.
///
/// A hostile or corrupted header whose `scales`/`len`/`data` disagree
/// must not be trusted: the unchecked decode loop would index past the
/// packed codes (or past `scales`). Wire-facing paths use this; a
/// trusted in-process segment can keep calling [`decompress`].
pub fn validate_header(c: &CompressedSegment) -> Result<(), CodecError> {
    if !(1..=16).contains(&c.bits) {
        return Err(CodecError::BadBits);
    }
    if c.block_len == 0 {
        return Err(CodecError::BadBlockLen);
    }
    if c.scales.len() != c.len.div_ceil(c.block_len) {
        return Err(CodecError::ScaleCountMismatch);
    }
    // A declared `len` whose packed size overflows matches no buffer.
    if kernels::packed_len(c.len, c.bits) != Some(c.data.len()) {
        return Err(CodecError::DataLenMismatch);
    }
    Ok(())
}

/// Reconstructs samples from a compressed segment, rejecting
/// inconsistent headers instead of reading out of bounds.
pub fn try_decompress(c: &CompressedSegment) -> Result<Vec<Cf32>, CodecError> {
    validate_header(c)?;
    let mut out = Vec::new();
    decompress_valid(c, &mut out);
    Ok(out)
}

/// Decompresses a segment whose header [`validate_header`] accepted
/// into `out`, replacing its contents.
fn decompress_valid(c: &CompressedSegment, out: &mut Vec<Cf32>) {
    // No `clear()`: the kernel writes every sample.
    out.resize(c.len, Cf32::ZERO);
    kernels::decompress(c.bits, c.block_len, &c.scales, &c.data, out);
}

/// Reconstructs samples from a compressed segment.
///
/// Never panics: a segment whose header is internally inconsistent
/// (mismatched `scales`/`len`/`data`, zero `block_len`, out-of-range
/// `bits`) is decoded tolerantly — missing scales read as zero and
/// missing code bytes as silence — so the output always has the
/// declared `len`. Use [`try_decompress`] when the segment crossed a
/// wire and inconsistency should be surfaced as an error.
pub fn decompress(c: &CompressedSegment) -> Vec<Cf32> {
    let mut out = Vec::new();
    decompress_into(c, &mut out);
    out
}

/// [`decompress`] into a caller-held buffer (whatever it held is
/// replaced), which a decode worker reuses from one segment to the
/// next.
pub fn decompress_into(c: &CompressedSegment, out: &mut Vec<Cf32>) {
    match validate_header(c) {
        Ok(()) => decompress_valid(c, out),
        Err(_) => {
            out.clear();
            unpack_codes(
                c.bits.clamp(1, 16),
                c.block_len.max(1),
                &c.scales,
                &c.data,
                c.len,
                out,
            );
        }
    }
}

/// Identity of one gateway session within a fleet.
///
/// Rides in the wire header of every datagram so the cloud can keep
/// independent per-session sequence spaces. Id `0` is reserved for
/// single-gateway deployments (and is what every pre-fleet v1 encoder
/// implicitly wrote into the then-reserved header bytes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GatewayId(pub u16);

impl std::fmt::Display for GatewayId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gw{}", self.0)
    }
}

/// One unit of gateway→cloud traffic: a compressed segment plus the
/// metadata the cloud tier needs to decode it independently and put
/// its frames back in capture order.
///
/// `seq` is assigned by the gateway in emission order; the cloud's
/// reassembly stage uses it to restore capture order no matter which
/// decode worker finishes first. `start` locates the segment in
/// absolute capture coordinates so decoded frame offsets survive the
/// trip. `gateway` namespaces `seq`: two sessions may emit the same
/// sequence numbers and the cloud must never conflate them.
#[derive(Clone, Debug, PartialEq)]
pub struct ShippedSegment {
    /// Emitting gateway session.
    pub gateway: GatewayId,
    /// Gateway emission sequence number (0-based, dense per gateway).
    pub seq: u64,
    /// First sample index of the segment in the original capture.
    pub start: usize,
    /// The compressed I/Q payload.
    pub compressed: CompressedSegment,
}

impl ShippedSegment {
    /// Compresses `samples` into a shippable unit (gateway 0).
    pub fn pack(seq: u64, start: usize, samples: &[Cf32], bits: u32, block_len: usize) -> Self {
        ShippedSegment {
            gateway: GatewayId(0),
            seq,
            start,
            compressed: compress(samples, bits, block_len),
        }
    }

    /// Re-tags the segment as coming from `gateway`.
    pub fn with_gateway(mut self, gateway: GatewayId) -> Self {
        self.gateway = gateway;
        self
    }

    /// Size on the wire in bytes (compressed payload + 16-byte
    /// sequencing/offset header).
    pub fn wire_bytes(&self) -> usize {
        self.compressed.wire_bytes() + 16
    }

    /// Reconstructs the I/Q samples at the cloud side.
    pub fn unpack(&self) -> Vec<Cf32> {
        decompress(&self.compressed)
    }

    /// [`ShippedSegment::unpack`] into a caller-held buffer.
    pub fn unpack_into(&self, out: &mut Vec<Cf32>) {
        decompress_into(&self.compressed, out)
    }
}

// ---------------------------------------------------------------------
// Wire codec: versioned datagrams with length framing and CRC32.
// ---------------------------------------------------------------------

/// CRC32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE 802.3) of `bytes` — the checksum every backhaul
/// datagram carries in its trailer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Magic prefix of every backhaul datagram.
pub const WIRE_MAGIC: [u8; 4] = *b"GIoT";
/// Current wire-format version: v2 carries the emitting [`GatewayId`]
/// in the two header bytes that v1 kept reserved (and zeroed).
pub const WIRE_VERSION: u8 = 2;
/// Oldest wire-format version still accepted on decode. v1 datagrams
/// parse with gateway id 0, which is exactly what their single-gateway
/// encoders meant.
pub const WIRE_VERSION_MIN: u8 = 1;
/// Datagram kind byte: a shipped segment.
const KIND_DATA: u8 = 1;
/// Datagram kind byte: an acknowledgement.
const KIND_ACK: u8 = 2;
/// Fixed header: magic(4) + version(1) + kind(1) + gateway(2).
const HEADER_LEN: usize = 8;
/// Data datagram fields after the header: seq(8) + start(8) + bits(4)
/// + block_len(4) + len(8) + n_scales(4) + data_len(4).
const DATA_FIELDS_LEN: usize = 40;
/// CRC32 trailer length.
const TRAILER_LEN: usize = 4;

/// Why a received datagram was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Shorter than the smallest well-formed datagram of its kind.
    TooShort,
    /// Magic prefix mismatch.
    BadMagic,
    /// Unknown wire-format version.
    BadVersion,
    /// Unknown datagram kind, or the kind the caller did not expect.
    BadKind,
    /// The datagram length disagrees with the lengths its header
    /// declares (truncated or padded in transit).
    LengthMismatch,
    /// CRC32 trailer mismatch (bits flipped in transit).
    BadCrc,
    /// The framing was intact but the decoded header is internally
    /// inconsistent.
    Header(CodecError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TooShort => f.write_str("datagram too short"),
            WireError::BadMagic => f.write_str("bad magic"),
            WireError::BadVersion => f.write_str("unsupported wire version"),
            WireError::BadKind => f.write_str("unexpected datagram kind"),
            WireError::LengthMismatch => f.write_str("length framing mismatch"),
            WireError::BadCrc => f.write_str("CRC32 mismatch"),
            WireError::Header(e) => write!(f, "inconsistent segment header: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn get_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn header(kind: u8, gateway: GatewayId) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_VERSION);
    out.push(kind);
    out.extend_from_slice(&gateway.0.to_le_bytes());
    out
}

/// Checks the fixed header and returns the datagram kind plus the
/// emitting gateway. Versions `WIRE_VERSION_MIN..=WIRE_VERSION` are
/// accepted; v1 encoders zeroed the gateway bytes, so reading them
/// unconditionally yields gateway 0 for genuine v1 traffic.
fn check_header(bytes: &[u8]) -> Result<(u8, GatewayId), WireError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(WireError::TooShort);
    }
    if bytes[..4] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    if bytes[4] < WIRE_VERSION_MIN || bytes[4] > WIRE_VERSION {
        return Err(WireError::BadVersion);
    }
    let kind = bytes[5];
    if kind != KIND_DATA && kind != KIND_ACK {
        return Err(WireError::BadKind);
    }
    let gateway = GatewayId(u16::from_le_bytes([bytes[6], bytes[7]]));
    Ok((kind, gateway))
}

/// Verifies the CRC32 trailer over everything before it.
fn check_crc(bytes: &[u8]) -> Result<(), WireError> {
    let body = bytes.len() - TRAILER_LEN;
    if crc32(&bytes[..body]) != get_u32(bytes, body) {
        return Err(WireError::BadCrc);
    }
    Ok(())
}

/// Serializes a shipped segment into one versioned, CRC32-protected,
/// length-framed datagram (the actual on-the-wire representation —
/// [`ShippedSegment::wire_bytes`] is the pre-existing analytic
/// estimate and stays slightly smaller).
pub fn encode_segment(seg: &ShippedSegment) -> Vec<u8> {
    let c = &seg.compressed;
    let mut out = header(KIND_DATA, seg.gateway);
    out.reserve(DATA_FIELDS_LEN + 4 * c.scales.len() + c.data.len() + TRAILER_LEN);
    put_u64(&mut out, seg.seq);
    put_u64(&mut out, seg.start as u64);
    put_u32(&mut out, c.bits);
    put_u32(&mut out, c.block_len as u32);
    put_u64(&mut out, c.len as u64);
    put_u32(&mut out, c.scales.len() as u32);
    put_u32(&mut out, c.data.len() as u32);
    for s in &c.scales {
        put_u32(&mut out, s.to_bits());
    }
    out.extend_from_slice(&c.data);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Parses and validates one data datagram back into a
/// [`ShippedSegment`].
///
/// Every failure mode is an `Err`, never a panic or garbage samples:
/// framing is checked against the declared lengths, the CRC32 trailer
/// catches corruption, and the decoded header must satisfy
/// [`validate_header`] before any sample is reconstructed.
pub fn decode_segment(bytes: &[u8]) -> Result<ShippedSegment, WireError> {
    let (kind, gateway) = check_header(bytes)?;
    if kind != KIND_DATA {
        return Err(WireError::BadKind);
    }
    if bytes.len() < HEADER_LEN + DATA_FIELDS_LEN + TRAILER_LEN {
        return Err(WireError::TooShort);
    }
    let f = HEADER_LEN;
    let n_scales = get_u32(bytes, f + 32) as usize;
    let data_len = get_u32(bytes, f + 36) as usize;
    let expect = HEADER_LEN + DATA_FIELDS_LEN + 4 * n_scales + data_len + TRAILER_LEN;
    if bytes.len() != expect {
        return Err(WireError::LengthMismatch);
    }
    check_crc(bytes)?;
    let seq = get_u64(bytes, f);
    let start = get_u64(bytes, f + 8) as usize;
    let bits = get_u32(bytes, f + 16);
    let block_len = get_u32(bytes, f + 20) as usize;
    let len = get_u64(bytes, f + 24) as usize;
    let scales_at = f + DATA_FIELDS_LEN;
    let scales: Vec<f32> = (0..n_scales)
        .map(|i| f32::from_bits(get_u32(bytes, scales_at + 4 * i)))
        .collect();
    let data = bytes[scales_at + 4 * n_scales..bytes.len() - TRAILER_LEN].to_vec();
    let compressed = CompressedSegment {
        bits,
        scales,
        block_len,
        data,
        len,
    };
    validate_header(&compressed).map_err(WireError::Header)?;
    Ok(ShippedSegment {
        gateway,
        seq,
        start,
        compressed,
    })
}

/// Serializes an acknowledgement from `gateway`'s session for
/// sequence number `seq`.
pub fn encode_ack(gateway: GatewayId, seq: u64) -> Vec<u8> {
    let mut out = header(KIND_ACK, gateway);
    put_u64(&mut out, seq);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Parses and validates one ack datagram, returning the session it
/// belongs to and the acked sequence number.
pub fn decode_ack(bytes: &[u8]) -> Result<(GatewayId, u64), WireError> {
    let (kind, gateway) = check_header(bytes)?;
    if kind != KIND_ACK {
        return Err(WireError::BadKind);
    }
    if bytes.len() != HEADER_LEN + 8 + TRAILER_LEN {
        return Err(WireError::LengthMismatch);
    }
    check_crc(bytes)?;
    Ok((gateway, get_u64(bytes, HEADER_LEN)))
}

// ---------------------------------------------------------------------
// FaultyLink: a deterministic, seedable impairment model.
// ---------------------------------------------------------------------

/// Impairment rates of an unreliable backhaul link. All probabilities
/// are per datagram and independently drawn from a seeded generator,
/// so a given `(faults, traffic)` pair always misbehaves identically.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability a datagram is silently dropped.
    pub loss: f64,
    /// Probability a surviving datagram has 1–3 random bits flipped.
    pub corrupt: f64,
    /// Probability a surviving datagram is delivered twice.
    pub duplicate: f64,
    /// Probability a surviving copy is held back and delivered after
    /// up to [`LinkFaults::jitter_depth`] later datagrams (delay
    /// jitter expressed in queue positions, which is what reorders).
    pub reorder: f64,
    /// Maximum datagrams a held-back copy can lag.
    pub jitter_depth: usize,
    /// Seed of the link's fault generator.
    pub seed: u64,
}

impl LinkFaults {
    /// A perfect link: nothing dropped, corrupted, duplicated or
    /// reordered.
    pub fn none() -> Self {
        LinkFaults {
            loss: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            jitter_depth: 0,
            seed: 0,
        }
    }

    /// A link that only loses datagrams, at rate `loss`.
    pub fn lossy(loss: f64, seed: u64) -> Self {
        LinkFaults {
            loss,
            seed,
            ..LinkFaults::none()
        }
    }

    /// A link with every impairment on at the given base rate: loss at
    /// `rate`, corruption/duplication/reordering at `rate / 2`, delay
    /// jitter up to 3 queue positions.
    pub fn harsh(rate: f64, seed: u64) -> Self {
        LinkFaults {
            loss: rate,
            corrupt: rate / 2.0,
            duplicate: rate / 2.0,
            reorder: rate / 2.0,
            jitter_depth: 3,
            seed,
        }
    }

    /// Whether this link never misbehaves.
    pub fn is_perfect(&self) -> bool {
        self.loss <= 0.0 && self.corrupt <= 0.0 && self.duplicate <= 0.0 && self.reorder <= 0.0
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        Self::none()
    }
}

/// Counters of what a [`FaultyLink`] did to the traffic it carried.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Datagrams offered to the link.
    pub sent: u64,
    /// Datagram copies that came out the far end.
    pub delivered: u64,
    /// Datagrams silently dropped.
    pub dropped: u64,
    /// Delivered copies with flipped bits.
    pub corrupted: u64,
    /// Extra copies delivered by duplication.
    pub duplicated: u64,
    /// Copies delivered out of order.
    pub reordered: u64,
}

impl LinkStats {
    /// Folds another stats block into this one.
    pub fn merge(&mut self, other: &LinkStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
    }
}

/// A deterministic unreliable link: datagrams go in, and a possibly
/// smaller, corrupted, duplicated and reordered set comes out.
///
/// The model is synchronous so tests stay deterministic: each
/// [`FaultyLink::transmit`] returns the datagrams arriving *now*
/// (after this send), and held-back copies ride out with later
/// transmits. [`FaultyLink::drain`] flushes whatever is still in
/// flight when traffic stops.
#[derive(Debug)]
pub struct FaultyLink {
    faults: LinkFaults,
    rng: StdRng,
    /// Held-back copies: (transmits remaining before release, bytes).
    held: Vec<(usize, Vec<u8>)>,
    /// What the link has done so far.
    pub stats: LinkStats,
}

impl FaultyLink {
    /// Creates a link with the given impairment rates, seeded from
    /// `faults.seed`.
    pub fn new(faults: LinkFaults) -> Self {
        FaultyLink {
            rng: StdRng::seed_from_u64(faults.seed),
            faults,
            held: Vec::new(),
            stats: LinkStats::default(),
        }
    }

    /// Offers one datagram; returns every datagram that arrives at the
    /// far end as a consequence (possibly none, possibly several,
    /// possibly older held-back traffic).
    ///
    /// A datagram handed over by value is forwarded as it is: bytes
    /// are copied only for a borrowed datagram that gets through, and
    /// for the extra copy a duplication makes.
    pub fn transmit<'a>(&mut self, datagram: impl Into<Cow<'a, [u8]>>) -> Vec<Vec<u8>> {
        self.stats.sent += 1;
        let mut out: Vec<Vec<u8>> = Vec::new();

        if self.rng.gen_bool(self.faults.loss.clamp(0.0, 1.0)) {
            self.stats.dropped += 1;
        } else {
            let mut datagram: Cow<[u8]> = datagram.into();
            if !datagram.is_empty() && self.rng.gen_bool(self.faults.corrupt.clamp(0.0, 1.0)) {
                let flips = self.rng.gen_range(1usize..=3);
                let bytes = datagram.to_mut();
                for _ in 0..flips {
                    let bit = self.rng.gen_range(0..bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                self.stats.corrupted += 1;
            }
            let duplicate = self.rng.gen_bool(self.faults.duplicate.clamp(0.0, 1.0));
            if duplicate {
                self.stats.duplicated += 1;
            }
            let extra = duplicate.then(|| datagram.to_vec());
            for copy in extra.into_iter().chain([datagram.into_owned()]) {
                let depth = self.faults.jitter_depth;
                if depth > 0 && self.rng.gen_bool(self.faults.reorder.clamp(0.0, 1.0)) {
                    let lag = self.rng.gen_range(1..=depth);
                    self.held.push((lag, copy));
                    self.stats.reordered += 1;
                } else {
                    out.push(copy);
                }
            }
        }

        // Age held-back copies; release the expired ones *after* the
        // current datagram so they genuinely arrive late.
        let mut still_held = Vec::new();
        for (lag, bytes) in self.held.drain(..) {
            if lag <= 1 {
                out.push(bytes);
            } else {
                still_held.push((lag - 1, bytes));
            }
        }
        self.held = still_held;

        self.stats.delivered += out.len() as u64;
        out
    }

    /// Flushes every held-back copy (the link going idle long enough
    /// that all delayed traffic lands).
    pub fn drain(&mut self) -> Vec<Vec<u8>> {
        let out: Vec<Vec<u8>> = self.held.drain(..).map(|(_, b)| b).collect();
        self.stats.delivered += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galiot_dsp::power::mean_power;

    fn tone(n: usize, amp: f32) -> Vec<Cf32> {
        (0..n).map(|i| Cf32::cis(i as f32 * 0.31) * amp).collect()
    }

    #[test]
    fn roundtrip_error_is_small_at_8_bits() {
        let sig = tone(4096, 0.7);
        let c = compress(&sig, 8, 256);
        let out = decompress(&c);
        assert_eq!(out.len(), sig.len());
        let err: f32 = out
            .iter()
            .zip(&sig)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f32>()
            / sig.len() as f32;
        assert!(err / mean_power(&sig) < 1e-4, "relative error {err}");
    }

    #[test]
    fn four_bit_compression_halves_size_and_still_resembles() {
        let sig = tone(4096, 0.7);
        let c8 = compress(&sig, 8, 256);
        let c4 = compress(&sig, 4, 256);
        // Code payload halves; scales+header overhead is constant.
        assert!(c4.wire_bytes() * 2 <= c8.wire_bytes() + 2 * (16 + c4.scales.len() * 4));
        let out = decompress(&c4);
        let err: f32 = out
            .iter()
            .zip(&sig)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f32>()
            / sig.len() as f32;
        assert!(err / mean_power(&sig) < 0.02, "relative error {err}");
    }

    #[test]
    fn block_scaling_tracks_amplitude_swings() {
        // Quiet block then loud block: block floating point must keep
        // relative error bounded in both.
        let mut sig = tone(512, 0.01);
        sig.extend(tone(512, 1.0));
        let c = compress(&sig, 8, 512);
        let out = decompress(&c);
        for (range, amp) in [(0..512, 0.01f32), (512..1024, 1.0)] {
            let err: f32 = out[range.clone()]
                .iter()
                .zip(&sig[range])
                .map(|(a, b)| (*a - *b).norm_sqr())
                .sum::<f32>()
                / 512.0;
            assert!(
                err < 1e-4 * amp * amp * 2.0 + 1e-9,
                "err {err} at amp {amp}"
            );
        }
    }

    #[test]
    fn wire_bytes_accounts_for_overhead() {
        let sig = tone(1000, 0.5);
        let c = compress(&sig, 8, 250);
        // 1000 samples * 2 rails * 1 byte + 4 scales * 4 + 16 header.
        assert_eq!(c.wire_bytes(), 2000 + 16 + 16);
    }

    #[test]
    fn empty_segment_compresses_to_header() {
        let c = compress(&[], 8, 64);
        assert_eq!(c.len, 0);
        assert!(decompress(&c).is_empty());
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn rejects_zero_bits() {
        let _ = compress(&tone(10, 1.0), 0, 4);
    }

    // --- header validation (PR 3 bugfix: decompress trusted the
    // header and could index past the packed codes) ---

    #[test]
    fn mismatched_scales_decompress_without_panic() {
        let mut c = compress(&tone(1000, 0.5), 8, 100);
        c.scales.truncate(3); // header now lies: 10 blocks, 3 scales
        assert_eq!(
            validate_header(&c),
            Err(CodecError::ScaleCountMismatch),
            "inconsistency must be detectable"
        );
        assert!(try_decompress(&c).is_err());
        // The tolerant decoder survives and keeps the declared length.
        assert_eq!(decompress(&c).len(), 1000);
    }

    #[test]
    fn zero_block_len_decompresses_without_panic() {
        let mut c = compress(&tone(64, 0.5), 6, 16);
        c.block_len = 0;
        assert_eq!(try_decompress(&c), Err(CodecError::BadBlockLen));
        assert_eq!(decompress(&c).len(), 64);
    }

    #[test]
    fn hostile_bits_decompress_without_panic() {
        let mut c = compress(&tone(64, 0.5), 8, 16);
        c.bits = 31; // would shift-overflow the unchecked decoder
        assert_eq!(try_decompress(&c), Err(CodecError::BadBits));
        assert_eq!(decompress(&c).len(), 64);
    }

    #[test]
    fn data_length_mismatch_is_an_error_not_a_guess() {
        let mut c = compress(&tone(256, 0.5), 8, 64);
        c.data.truncate(c.data.len() - 5);
        assert_eq!(try_decompress(&c), Err(CodecError::DataLenMismatch));
        assert_eq!(decompress(&c).len(), 256);
    }

    #[test]
    fn a_declared_length_that_wraps_the_packed_size_is_rejected() {
        // 2 * (1 << 59) * 16 wraps to 0 — the size of `data` — so
        // unchecked arithmetic would accept the header and then try to
        // allocate 2^59 samples.
        let c = CompressedSegment {
            bits: 16,
            len: 1 << 59,
            block_len: 1 << 59,
            scales: vec![1.0],
            data: vec![],
        };
        assert_eq!(validate_header(&c), Err(CodecError::DataLenMismatch));
        assert_eq!(try_decompress(&c), Err(CodecError::DataLenMismatch));
    }

    #[test]
    fn the_kernel_decodes_what_the_tolerant_loop_decodes() {
        // Consistent headers take the kernel, inconsistent ones the
        // tolerant loop: on a consistent header they must agree.
        for (bits, block_len, n) in [(8, 1024, 5_000), (3, 7, 100), (16, 256, 257), (1, 1, 9)] {
            let c = compress(&tone(n, 0.7), bits, block_len);
            let mut tolerant = Vec::new();
            unpack_codes(
                c.bits,
                c.block_len,
                &c.scales,
                &c.data,
                c.len,
                &mut tolerant,
            );
            let bits_of = |v: &[Cf32]| -> Vec<(u32, u32)> {
                v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
            };
            assert_eq!(bits_of(&decompress(&c)), bits_of(&tolerant));
            // Into a reused buffer, whatever it held.
            let mut reused = vec![Cf32::new(9.0, 9.0); 7_000];
            decompress_into(&c, &mut reused);
            assert_eq!(bits_of(&reused), bits_of(&tolerant));
        }
    }

    #[test]
    fn consistent_segments_validate_and_roundtrip() {
        let sig = tone(777, 0.8);
        let c = compress(&sig, 7, 50);
        assert_eq!(validate_header(&c), Ok(()));
        assert_eq!(try_decompress(&c).unwrap().len(), sig.len());
    }

    // --- wire codec ---

    #[test]
    fn wire_roundtrip_is_byte_exact() {
        let sig = tone(1234, 0.6);
        let seg = ShippedSegment::pack(42, 98_765, &sig, 8, 256);
        let bytes = encode_segment(&seg);
        let back = decode_segment(&bytes).unwrap();
        assert_eq!(back.seq, 42);
        assert_eq!(back.start, 98_765);
        assert_eq!(back.compressed.bits, 8);
        assert_eq!(back.compressed.scales, seg.compressed.scales);
        assert_eq!(back.compressed.data, seg.compressed.data);
        assert_eq!(encode_segment(&back), bytes);
    }

    #[test]
    fn wire_rejects_any_single_bit_flip() {
        let seg = ShippedSegment::pack(7, 1000, &tone(200, 0.5), 6, 64);
        let clean = encode_segment(&seg);
        // Flip a bit in a few representative regions: magic, kind,
        // each header field, a scale, the payload, the CRC itself.
        for &at in &[0, 5, 9, 30, 49, clean.len() / 2, clean.len() - 1] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x10;
            assert!(
                decode_segment(&bytes).is_err(),
                "flip at byte {at} went undetected"
            );
        }
    }

    #[test]
    fn wire_rejects_truncation_and_padding() {
        let seg = ShippedSegment::pack(7, 1000, &tone(100, 0.5), 8, 64);
        let clean = encode_segment(&seg);
        for keep in [0, 3, 11, clean.len() - 1] {
            assert!(decode_segment(&clean[..keep]).is_err());
        }
        let mut padded = clean.clone();
        padded.push(0);
        assert!(decode_segment(&padded).is_err());
    }

    #[test]
    fn ack_roundtrips_and_kinds_do_not_cross() {
        let ack = encode_ack(GatewayId(9), u64::MAX - 3);
        assert_eq!(decode_ack(&ack).unwrap(), (GatewayId(9), u64::MAX - 3));
        assert_eq!(decode_segment(&ack), Err(WireError::BadKind));
        let seg = encode_segment(&ShippedSegment::pack(1, 0, &tone(10, 0.5), 8, 8));
        assert_eq!(decode_ack(&seg), Err(WireError::BadKind));
    }

    #[test]
    fn gateway_id_rides_the_header_of_both_kinds() {
        let seg = ShippedSegment::pack(5, 40, &tone(64, 0.5), 8, 16).with_gateway(GatewayId(513));
        let bytes = encode_segment(&seg);
        assert_eq!(bytes[4], WIRE_VERSION);
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), 513);
        let back = decode_segment(&bytes).unwrap();
        assert_eq!(back.gateway, GatewayId(513));
        assert_eq!(encode_segment(&back), bytes);

        let (gw, seq) = decode_ack(&encode_ack(GatewayId(7), 11)).unwrap();
        assert_eq!((gw, seq), (GatewayId(7), 11));
    }

    #[test]
    fn v1_datagrams_still_decode_as_gateway_zero() {
        // A v1 encoder is today's encoder with the version byte set to
        // 1 and zeroed reserved bytes; re-sign the CRC after the edit.
        let seg = ShippedSegment::pack(21, 300, &tone(128, 0.5), 8, 32);
        let mut bytes = encode_segment(&seg);
        bytes[4] = 1;
        bytes[6] = 0;
        bytes[7] = 0;
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        let back = decode_segment(&bytes).unwrap();
        assert_eq!(back.gateway, GatewayId(0));
        assert_eq!(back.seq, 21);
        assert_eq!(back.compressed, seg.compressed);

        // Versions outside [min, current] are rejected even when the
        // CRC is re-signed to match.
        for v in [0u8, WIRE_VERSION + 1, 255] {
            let mut bad = encode_segment(&seg);
            bad[4] = v;
            let body = bad.len() - 4;
            let crc = crc32(&bad[..body]);
            bad[body..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(decode_segment(&bad), Err(WireError::BadVersion));
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    // --- FaultyLink ---

    #[test]
    fn perfect_link_is_transparent() {
        let mut link = FaultyLink::new(LinkFaults::none());
        for i in 0..50u8 {
            let out = link.transmit(&[i]);
            assert_eq!(out, vec![vec![i]]);
        }
        assert!(link.drain().is_empty());
        assert_eq!(link.stats.sent, 50);
        assert_eq!(link.stats.delivered, 50);
        assert_eq!(link.stats.dropped + link.stats.corrupted, 0);
    }

    #[test]
    fn link_stats_merge_field_by_field() {
        let stats = LinkStats {
            sent: 10,
            delivered: 9,
            dropped: 1,
            corrupted: 2,
            duplicated: 1,
            reordered: 3,
        };
        let mut total = LinkStats::default();
        total.merge(&stats);
        total.merge(&stats);
        assert_eq!(
            total,
            LinkStats {
                sent: 20,
                delivered: 18,
                dropped: 2,
                corrupted: 4,
                duplicated: 2,
                reordered: 6,
            }
        );
    }

    #[test]
    fn lossy_link_drops_at_roughly_the_configured_rate() {
        let mut link = FaultyLink::new(LinkFaults::lossy(0.2, 99));
        let mut delivered = 0usize;
        for i in 0..1000u32 {
            delivered += link.transmit(&i.to_le_bytes()).len();
        }
        assert_eq!(link.stats.dropped as usize + delivered, 1000);
        assert!(
            (150..=250).contains(&(1000 - delivered)),
            "dropped {}",
            1000 - delivered
        );
    }

    #[test]
    fn faulty_link_is_deterministic_for_a_seed() {
        let run = |seed: u64| -> Vec<Vec<u8>> {
            let mut link = FaultyLink::new(LinkFaults::harsh(0.2, seed));
            let mut out = Vec::new();
            for i in 0..200u32 {
                out.extend(link.transmit(&i.to_le_bytes()));
            }
            out.extend(link.drain());
            out
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should diverge");
    }

    #[test]
    fn harsh_link_reorders_and_duplicates() {
        let mut link = FaultyLink::new(LinkFaults::harsh(0.3, 11));
        let mut arrivals: Vec<u32> = Vec::new();
        for i in 0..400u32 {
            for d in link.transmit(&i.to_le_bytes()) {
                arrivals.push(u32::from_le_bytes(d[..4].try_into().unwrap()));
            }
        }
        for d in link.drain() {
            arrivals.push(u32::from_le_bytes(d[..4].try_into().unwrap()));
        }
        assert!(link.stats.duplicated > 0, "{:?}", link.stats);
        assert!(link.stats.reordered > 0, "{:?}", link.stats);
        assert!(link.stats.dropped > 0, "{:?}", link.stats);
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        assert_ne!(arrivals, sorted, "no reordering ever observed");
        // Nothing stuck: every non-dropped datagram eventually arrived.
        assert_eq!(
            link.stats.delivered,
            400 - link.stats.dropped + link.stats.duplicated
        );
    }

    #[test]
    fn a_datagram_handed_over_by_value_is_forwarded_not_copied() {
        let mut link = FaultyLink::new(LinkFaults::none());
        let datagram = vec![7u8; 4_096];
        let at = datagram.as_ptr();
        let out = link.transmit(datagram);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].as_ptr(),
            at,
            "the link copied a datagram it only forwards"
        );
        // Held back, it is still the same allocation when released.
        let mut jitter = FaultyLink::new(LinkFaults {
            reorder: 1.0,
            jitter_depth: 1,
            ..LinkFaults::none()
        });
        let datagram = vec![9u8; 4_096];
        let at = datagram.as_ptr();
        let out = jitter.transmit(datagram);
        assert_eq!(out.len(), 1, "a lag of one is released after this transmit");
        assert_eq!(out[0].as_ptr(), at);
        // By value or borrowed, the fault draws are the same.
        let run = |owned: bool| -> Vec<Vec<u8>> {
            let mut link = FaultyLink::new(LinkFaults::harsh(0.3, 17));
            let mut out = Vec::new();
            for i in 0..300u32 {
                let d = i.to_le_bytes().repeat(8);
                out.extend(if owned {
                    link.transmit(d)
                } else {
                    link.transmit(&d)
                });
            }
            out.extend(link.drain());
            out
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn corrupting_link_defeats_neither_crc_nor_framing() {
        let mut link = FaultyLink::new(LinkFaults {
            corrupt: 1.0,
            ..LinkFaults::none()
        });
        let seg = ShippedSegment::pack(3, 500, &tone(300, 0.5), 8, 64);
        let clean = encode_segment(&seg);
        let mut mangled = 0;
        for _ in 0..50 {
            for d in link.transmit(&clean) {
                // (An even number of flips landing on one bit can
                // cancel; only actually-mangled copies must be caught.)
                if d != clean {
                    mangled += 1;
                    assert!(
                        decode_segment(&d).is_err(),
                        "a corrupted datagram slipped past CRC32"
                    );
                }
            }
        }
        assert!(mangled >= 45, "corrupt=1.0 barely corrupted: {mangled}");
    }
}
