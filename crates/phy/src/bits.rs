//! Bit-level utilities shared by the PHY implementations: bit packing,
//! CRCs, checksums, whitening LFSRs and Manchester coding.

/// Unpacks bytes to bits, most-significant bit first (the on-air order
//  of 802.15.4g, Z-Wave and LoRa headers).
pub fn bytes_to_bits_msb(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for k in (0..8).rev() {
            bits.push((b >> k) & 1);
        }
    }
    bits
}

/// Packs bits (values 0/1), most-significant bit first, into bytes.
/// Trailing bits that do not fill a byte are dropped.
pub fn bits_to_bytes_msb(bits: &[u8]) -> Vec<u8> {
    bits.chunks_exact(8)
        .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | (b & 1)))
        .collect()
}

/// Unpacks bytes to bits, least-significant bit first (BLE on-air order).
pub fn bytes_to_bits_lsb(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for k in 0..8 {
            bits.push((b >> k) & 1);
        }
    }
    bits
}

/// Packs bits, least-significant bit first, into bytes.
/// Trailing bits that do not fill a byte are dropped.
pub fn bits_to_bytes_lsb(bits: &[u8]) -> Vec<u8> {
    bits.chunks_exact(8)
        .map(|c| {
            c.iter()
                .enumerate()
                .fold(0u8, |acc, (k, &b)| acc | ((b & 1) << k))
        })
        .collect()
}

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection) — the
/// FCS of IEEE 802.15.4g MR-FSK PHYs and LoRa's payload CRC family.
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in data {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// CRC-16/AUG-CCITT variant with zero init, as used by ITU-T G.9959
/// (Z-Wave) R3 frames.
pub fn crc16_zwave(data: &[u8]) -> u16 {
    let mut crc: u16 = 0x1D0F;
    for &b in data {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// The 8-bit XOR checksum of G.9959 R1/R2 Z-Wave frames:
/// `0xFF XOR b0 XOR b1 ...`.
pub fn checksum_zwave(data: &[u8]) -> u8 {
    data.iter().fold(0xFFu8, |acc, &b| acc ^ b)
}

/// CRC-24 as used by BLE (poly 0x00065B, 24-bit init from the link
/// layer; we use the advertising-channel init 0x555555).
pub fn crc24_ble(data: &[u8]) -> u32 {
    let mut crc: u32 = 0x555555;
    for &b in data {
        for k in 0..8 {
            let bit = ((b >> k) & 1) as u32 ^ ((crc >> 23) & 1);
            crc = (crc << 1) & 0xFF_FFFF;
            if bit != 0 {
                crc ^= 0x00_065B;
            }
        }
    }
    crc
}

/// A PN9 whitening sequence generator (poly x^9 + x^5 + 1, init
/// 0x1FF) as used by 802.15.4g FSK data whitening and LoRa-style
/// payload whitening. XOR the output stream with the data bits.
#[derive(Clone, Debug)]
pub struct Pn9 {
    state: u16,
}

impl Pn9 {
    /// Creates the generator with the standard all-ones seed.
    pub fn new() -> Self {
        Pn9 { state: 0x1FF }
    }

    /// Returns the next whitening bit and advances the register.
    pub fn next_bit(&mut self) -> u8 {
        let out = (self.state & 1) as u8;
        let fb = (self.state & 1) ^ ((self.state >> 5) & 1);
        self.state = (self.state >> 1) | (fb << 8);
        out
    }

    /// XORs the whitening stream over `bits` in place.
    pub fn whiten(&mut self, bits: &mut [u8]) {
        for b in bits {
            *b ^= self.next_bit();
        }
    }
}

impl Default for Pn9 {
    fn default() -> Self {
        Self::new()
    }
}

/// BLE data whitening LFSR (poly x^7 + x^4 + 1) seeded from the channel
/// index with bit 6 set.
#[derive(Clone, Debug)]
pub struct BleWhitener {
    state: u8,
}

impl BleWhitener {
    /// Creates the whitener for a BLE `channel` (0..=39).
    pub fn new(channel: u8) -> Self {
        BleWhitener {
            state: 0x40 | (channel & 0x3F),
        }
    }

    /// Returns the next whitening bit and advances the register.
    pub fn next_bit(&mut self) -> u8 {
        let out = (self.state >> 6) & 1;
        let mut s = (self.state << 1) & 0x7F;
        if out != 0 {
            s ^= 0x11; // taps at positions 4 and 0
        }
        self.state = s;
        out
    }

    /// XORs the whitening stream over `bits` in place.
    pub fn whiten(&mut self, bits: &mut [u8]) {
        for b in bits {
            *b ^= self.next_bit();
        }
    }
}

/// Manchester-encodes bits (IEEE convention: 0 -> 01, 1 -> 10), as used
/// by Z-Wave R1.
pub fn manchester_encode(bits: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bits.len() * 2);
    for &b in bits {
        if b & 1 == 1 {
            out.extend_from_slice(&[1, 0]);
        } else {
            out.extend_from_slice(&[0, 1]);
        }
    }
    out
}

/// Decodes a Manchester bit stream; invalid pairs (00/11) decode by the
/// first half-bit, which is the maximum-likelihood fallback for a
/// single corrupted half.
pub fn manchester_decode(half_bits: &[u8]) -> Vec<u8> {
    half_bits.chunks_exact(2).map(|p| p[0] & 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msb_roundtrip() {
        let data = [0xA5u8, 0x01, 0xFF, 0x00, 0x3C];
        assert_eq!(bits_to_bytes_msb(&bytes_to_bits_msb(&data)), data);
    }

    #[test]
    fn lsb_roundtrip() {
        let data = [0xA5u8, 0x01, 0xFF, 0x00, 0x3C];
        assert_eq!(bits_to_bytes_lsb(&bytes_to_bits_lsb(&data)), data);
    }

    #[test]
    fn msb_bit_order() {
        assert_eq!(bytes_to_bits_msb(&[0x80]), vec![1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(bytes_to_bits_lsb(&[0x80]), vec![0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn partial_trailing_bits_dropped() {
        assert_eq!(bits_to_bytes_msb(&[1, 0, 1]), Vec::<u8>::new());
        let mut bits = bytes_to_bits_msb(&[0xAB]);
        bits.push(1);
        assert_eq!(bits_to_bytes_msb(&bits), vec![0xAB]);
    }

    #[test]
    fn crc16_ccitt_check_value() {
        // Standard check: CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16_ccitt(b"123456789"), 0x29B1);
    }

    #[test]
    fn crc16_zwave_check_value() {
        // CRC-16/AUG-CCITT("123456789") = 0xE5CC.
        assert_eq!(crc16_zwave(b"123456789"), 0xE5CC);
    }

    #[test]
    fn crc16_detects_single_bit_errors() {
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let good = crc16_ccitt(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data;
                bad[byte] ^= 1 << bit;
                assert_ne!(crc16_ccitt(&bad), good);
            }
        }
    }

    #[test]
    fn zwave_checksum_self_cancels() {
        // ck = 0xFF ^ xor(data), so the checksum of data||ck is zero —
        // the receiver-side validity check.
        let data = [0x12u8, 0x34, 0x56];
        let mut with = data.to_vec();
        with.push(checksum_zwave(&data));
        assert_eq!(checksum_zwave(&with), 0);
    }

    #[test]
    fn crc24_is_stable_and_error_sensitive() {
        let a = crc24_ble(&[0x01, 0x02, 0x03]);
        let b = crc24_ble(&[0x01, 0x02, 0x03]);
        assert_eq!(a, b);
        assert!(a <= 0xFF_FFFF);
        assert_ne!(crc24_ble(&[0x01, 0x02, 0x07]), a);
    }

    #[test]
    fn pn9_period_and_balance() {
        // PN9 has period 511 with 256 ones and 255 zeros.
        let mut g = Pn9::new();
        let seq: Vec<u8> = (0..511).map(|_| g.next_bit()).collect();
        let ones: usize = seq.iter().map(|&b| b as usize).sum();
        assert_eq!(ones, 256);
        // Period check: next 511 bits repeat.
        let seq2: Vec<u8> = (0..511).map(|_| g.next_bit()).collect();
        assert_eq!(seq, seq2);
    }

    #[test]
    fn whitening_is_involutive() {
        let mut bits = bytes_to_bits_msb(&[0xDE, 0xAD, 0xBE, 0xEF]);
        let orig = bits.clone();
        Pn9::new().whiten(&mut bits);
        assert_ne!(bits, orig);
        Pn9::new().whiten(&mut bits);
        assert_eq!(bits, orig);
    }

    #[test]
    fn ble_whitening_is_involutive_per_channel() {
        for ch in [0u8, 17, 37, 39] {
            let mut bits = bytes_to_bits_lsb(&[0x42, 0x00, 0xFF]);
            let orig = bits.clone();
            BleWhitener::new(ch).whiten(&mut bits);
            BleWhitener::new(ch).whiten(&mut bits);
            assert_eq!(bits, orig);
        }
    }

    #[test]
    fn ble_whitening_differs_across_channels() {
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        BleWhitener::new(1).whiten(&mut a);
        BleWhitener::new(2).whiten(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn manchester_roundtrip() {
        let bits = [1u8, 0, 0, 1, 1, 1, 0, 0];
        let enc = manchester_encode(&bits);
        assert_eq!(enc.len(), 16);
        assert_eq!(manchester_decode(&enc), bits);
    }

    #[test]
    fn manchester_has_transition_every_bit() {
        let enc = manchester_encode(&[0, 0, 1, 1]);
        for p in enc.chunks_exact(2) {
            assert_ne!(p[0], p[1]);
        }
    }
}
