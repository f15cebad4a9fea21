//! Golden wire bytes: what a segment looks like on the backhaul, pinned.
//!
//! `compress` runs on the active `galiot_dsp::kernels` backend, so this
//! is the test CI repeats under `GALIOT_DSP_BACKEND=scalar`, `sse4.1`
//! and `avx2` to show every tier puts the same bytes on the wire
//! (`kernel_diff` holds the kernels to the scalar reference; this holds
//! the whole path — pack, encode, CRC — to values recorded before the
//! codec was a kernel). A datagram's trailer is the CRC32 of everything
//! before it, so `(length, trailer)` pins every byte.

use galiot_dsp::Cf32;
use galiot_gateway::{decode_segment, encode_segment, GatewayId, ShippedSegment};

/// A deterministic, rail-asymmetric signal with a wide dynamic range:
/// a chirping tone under a slow envelope, plus an LCG's worth of noise,
/// a dead block, and a clipped spike.
fn signal(n: usize) -> Vec<Cf32> {
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    let mut noise = || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((lcg >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    };
    (0..n)
        .map(|i| {
            let t = i as f32;
            let envelope = 0.05 + 0.9 * (t * 1.0e-3).sin().abs();
            let z = Cf32::cis(t * 0.31 + t * t * 1.0e-6) * envelope;
            match i {
                2_048..=3_071 => Cf32::ZERO,
                5_000 => Cf32::new(40.0, -0.0),
                _ => z + Cf32::new(noise() * 0.1, noise() * 0.03),
            }
        })
        .collect()
}

#[test]
fn packed_segments_put_the_recorded_bytes_on_the_wire() {
    // (bits, block length, samples) -> (datagram length, CRC32 trailer).
    type Shape = (u32, usize, usize);
    let golden: [(Shape, (usize, u32)); 7] = [
        ((8, 1024, 10_007), (20_106, 0xC86CA7D4)),
        ((8, 256, 4_096), (8_308, 0xB9B39C5C)),
        ((6, 1024, 10_007), (15_103, 0x3FC0937C)),
        ((4, 1024, 10_007), (10_099, 0xBD7E36C5)),
        ((3, 7, 1_001), (1_375, 0x469B8814)),
        ((1, 1024, 9_999), (2_592, 0x3CC352B2)),
        ((16, 1, 513), (4_156, 0x73D057EB)),
    ];
    let samples = signal(10_007);
    let mut recorded = Vec::new();
    for ((bits, block_len, n), _) in golden {
        let seg = ShippedSegment::pack(42, 1_000_000, &samples[..n], bits, block_len)
            .with_gateway(GatewayId(3));
        let wire = encode_segment(&seg);
        let trailer = u32::from_le_bytes(wire[wire.len() - 4..].try_into().unwrap());
        recorded.push(((bits, block_len, n), (wire.len(), trailer)));
        // And the bytes mean what was packed.
        assert_eq!(decode_segment(&wire).as_ref(), Ok(&seg));
    }
    assert_eq!(
        recorded,
        golden,
        "backend {}",
        galiot_dsp::kernels::backend_name()
    );
}
