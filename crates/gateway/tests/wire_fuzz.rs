//! Differential fuzz harness for the backhaul wire codec.
//!
//! The codec's contract is asymmetric: `encode_*` may assume a valid
//! segment, but `decode_*` faces the wire — bit flips, truncation,
//! padding, header-field tampering, version skew — and must answer
//! every malformed datagram with an `Err`, never a panic, never
//! garbage samples. These properties drive randomized traffic through
//! both directions and check the two sides against each other:
//! decoding an encoding reproduces the segment byte-exactly
//! (canonical form), and anything the decoder does accept re-encodes
//! to a datagram the decoder accepts again with identical fields.
//!
//! Corruption cases keep segments small (≲3 KB on the wire): CRC32
//! (IEEE) has Hamming distance ≥ 4 up to 91,607 bits, so *any* 1–3
//! flipped bits in a datagram this size are guaranteed detectable —
//! the properties below are exhaustive claims, not probabilistic ones.

use galiot_dsp::Cf32;
use galiot_gateway::{
    decode_ack, decode_segment, encode_ack, encode_segment, GatewayId, ShippedSegment,
    WIRE_VERSION, WIRE_VERSION_MIN,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a small, valid segment from fuzz inputs. `bits` spans the
/// whole compression ladder; samples come from a seeded RNG so cases
/// are reproducible.
fn segment(
    gw: u16,
    seq: u64,
    start: u32,
    bits: u32,
    n_samples: usize,
    seed: u64,
) -> ShippedSegment {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples: Vec<Cf32> = (0..n_samples)
        .map(|_| Cf32::new(rng.gen::<f32>() * 2.0 - 1.0, rng.gen::<f32>() * 2.0 - 1.0))
        .collect();
    ShippedSegment::pack(seq, start as usize, &samples, bits, 256).with_gateway(GatewayId(gw))
}

/// Re-signs a tampered datagram so it reaches the semantic checks
/// behind the CRC gate.
fn resign(bytes: &mut [u8]) {
    let body = bytes.len() - 4;
    let crc = galiot_gateway::crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn segments_roundtrip_and_encoding_is_canonical(
        gw in any::<u16>(),
        seq in any::<u64>(),
        start in any::<u32>(),
        bits in 1u32..=8,
        n in 1usize..512,
        seed in any::<u64>(),
    ) {
        let seg = segment(gw, seq, start, bits, n, seed);
        let bytes = encode_segment(&seg);
        let back = decode_segment(&bytes).expect("own encoding must decode");
        prop_assert_eq!(&back, &seg);
        // Canonical form: re-encoding the decoded segment is byte-exact.
        prop_assert_eq!(encode_segment(&back), bytes);
        // And the samples reconstruct without panicking, at full length.
        prop_assert_eq!(back.unpack().len(), n);
    }

    #[test]
    fn any_one_to_three_bit_flips_are_rejected(
        gw in any::<u16>(),
        seq in any::<u64>(),
        n in 1usize..256,
        n_flips in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let bytes = encode_segment(&segment(gw, seq, 0, 8, n, seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF11F);
        let mut corrupted = bytes.clone();
        let total_bits = corrupted.len() * 8;
        let mut flipped = std::collections::HashSet::new();
        while flipped.len() < n_flips {
            flipped.insert(rng.gen_range(0..total_bits));
        }
        for bit in &flipped {
            corrupted[bit / 8] ^= 1 << (bit % 8);
        }
        // ≤ 3 flips within CRC32's HD-4 envelope: detection is
        // guaranteed, whichever validation layer trips first.
        prop_assert!(decode_segment(&corrupted).is_err());
    }

    #[test]
    fn truncation_and_padding_are_rejected(
        gw in any::<u16>(),
        n in 1usize..256,
        cut in any::<u64>(),
        pad in 1usize..16,
        seed in any::<u64>(),
    ) {
        let bytes = encode_segment(&segment(gw, 1, 0, 6, n, seed));
        let cut = (cut as usize) % bytes.len();
        prop_assert!(decode_segment(&bytes[..cut]).is_err());
        let mut padded = bytes.clone();
        padded.extend(std::iter::repeat_n(0u8, pad));
        prop_assert!(decode_segment(&padded).is_err());
    }

    #[test]
    fn arbitrary_byte_soup_never_panics(
        soup in proptest::collection::vec(any::<u8>(), 0..2048),
        with_magic in any::<bool>(),
    ) {
        let mut bytes = soup;
        if with_magic && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(b"GIoT");
        }
        // Either outcome is fine; reaching it without a panic is the
        // property. An accepted datagram must re-encode acceptably.
        if let Ok(seg) = decode_segment(&bytes) {
            prop_assert_eq!(decode_segment(&encode_segment(&seg)).as_ref(), Ok(&seg));
        }
        if let Ok((gw, seq)) = decode_ack(&bytes) {
            prop_assert_eq!(decode_ack(&encode_ack(gw, seq)), Ok((gw, seq)));
        }
    }

    #[test]
    fn header_field_tampering_resigned_never_panics(
        gw in any::<u16>(),
        field in 0usize..8,
        value in any::<u8>(),
        n in 1usize..128,
        seed in any::<u64>(),
    ) {
        let seg = segment(gw, 7, 64, 4, n, seed);
        let mut bytes = encode_segment(&seg);
        bytes[field] = value;
        resign(&mut bytes);
        // Rejection is always acceptable; on acceptance the tampering
        // was semantically inert (e.g. a version within the accepted
        // range, or a gateway-id rewrite) and the re-encoding must be
        // accepted with identical fields.
        if let Ok(tampered) = decode_segment(&bytes) {
            prop_assert_eq!(decode_segment(&encode_segment(&tampered)).as_ref(), Ok(&tampered));
            prop_assert_eq!(tampered.seq, seg.seq);
            prop_assert_eq!(&tampered.compressed, &seg.compressed);
        }
    }

    #[test]
    fn wrapped_length_fields_are_rejected(
        gw in any::<u16>(),
        n in 1usize..128,
        wraps in 1u64..32,
        seed in any::<u64>(),
    ) {
        // At 16 bits a rail the packed size is `32 * len / 8` bytes: a
        // declared `len` that is `wraps << 59` too large multiplies
        // (wrapping) to the very size the datagram carries, so only
        // checked arithmetic — or the scale count — can tell.
        let seg = segment(gw, 7, 64, 16, n, seed);
        let mut bytes = encode_segment(&seg);
        let len_at = 8 + 24;
        let declared = n as u64 + (wraps << 59);
        bytes[len_at..len_at + 8].copy_from_slice(&declared.to_le_bytes());
        resign(&mut bytes);
        prop_assert!(decode_segment(&bytes).is_err());
    }

    #[test]
    fn version_skew_accepts_the_window_and_rejects_the_rest(
        gw in any::<u16>(),
        version in any::<u8>(),
        n in 1usize..128,
        seed in any::<u64>(),
    ) {
        let seg = segment(gw, 3, 0, 8, n, seed);
        let mut bytes = encode_segment(&seg);
        bytes[4] = version;
        if version == 1 {
            // v1 kept the gateway bytes reserved-and-zeroed; a true v1
            // encoder writes gateway 0 and must decode as gateway 0.
            bytes[6] = 0;
            bytes[7] = 0;
        }
        resign(&mut bytes);
        let decoded = decode_segment(&bytes);
        if (WIRE_VERSION_MIN..=WIRE_VERSION).contains(&version) {
            let got = decoded.expect("in-window version must decode");
            let expect_gw = if version == 1 { GatewayId(0) } else { seg.gateway };
            prop_assert_eq!(got.gateway, expect_gw);
            prop_assert_eq!(&got.compressed, &seg.compressed);
        } else {
            prop_assert!(decoded.is_err(), "version {} must be rejected", version);
        }
    }

    #[test]
    fn acks_roundtrip_and_tampered_acks_are_rejected(
        gw in any::<u16>(),
        seq in any::<u64>(),
        bit in any::<u64>(),
    ) {
        let bytes = encode_ack(GatewayId(gw), seq);
        prop_assert_eq!(decode_ack(&bytes), Ok((GatewayId(gw), seq)));
        // Kinds must not cross: an ack is not a segment.
        prop_assert!(decode_segment(&bytes).is_err());
        let mut corrupted = bytes.clone();
        let bit = (bit as usize) % (corrupted.len() * 8);
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(decode_ack(&corrupted).is_err());
        // Truncation at any point is rejected too.
        prop_assert!(decode_ack(&bytes[..bytes.len() - 1]).is_err());
    }
}
