//! Bluetooth Low Energy: 1 Mb/s GFSK link layer (advertising channel).
//!
//! Frame: 1-byte preamble (`0xAA`), 4-byte access address
//! (`0x8E89BED6` for advertising), PDU header (type byte + length
//! byte), payload, CRC-24 — all transmitted LSB-first and data-whitened
//! with the channel-seeded 7-bit LFSR. GFSK at BT = 0.3, ±250 kHz
//! deviation.
//!
//! BLE needs a capture rate of at least 2 Msps, so it is not part of
//! the 1 MHz / 868 MHz collision experiments; it exists to exercise
//! preamble coalescing in the universal-preamble builder (its `0xAA`
//! preamble is the `01010101` pattern of Table 1) and the framework's
//! extensibility claim.

use galiot_dsp::spectral::Band;
use galiot_dsp::Cf32;

use crate::bits::{bits_to_bytes_lsb, bytes_to_bits_lsb, crc24_ble, BleWhitener};
use crate::common::{DecodedFrame, DemodScratch, ModClass, PhyError, TechId, Technology};
use crate::fsk::{fsk_technology, FskFramed, FskModem, FskParams, FskSync};

/// The advertising-channel access address.
pub const ACCESS_ADDRESS: u32 = 0x8E89_BED6;
/// Preamble byte for an access address with LSB 0.
pub const PREAMBLE: u8 = 0xAA;

/// BLE link-layer parameters.
#[derive(Clone, Copy, Debug)]
pub struct BleParams {
    /// Bit rate (1 Mb/s for LE 1M).
    pub bitrate: f64,
    /// GFSK deviation (±250 kHz).
    pub deviation_hz: f64,
    /// Channel index 0..=39 (seeds the whitener).
    pub channel: u8,
    /// Channel center offset within the capture band, Hz.
    pub center_offset_hz: f64,
}

impl Default for BleParams {
    fn default() -> Self {
        BleParams {
            bitrate: 1_000_000.0,
            deviation_hz: 250_000.0,
            channel: 37,
            center_offset_hz: 0.0,
        }
    }
}

/// The BLE technology implementation.
#[derive(Clone, Debug)]
pub struct BlePhy {
    sync: FskSync,
    params: BleParams,
}

impl BlePhy {
    /// Creates a BLE PHY.
    ///
    /// # Panics
    /// Panics if `channel > 39`.
    pub fn new(params: BleParams) -> Self {
        assert!(params.channel <= 39, "BLE channel must be 0..=39");
        let modem = FskModem::new(FskParams {
            bitrate: params.bitrate,
            deviation_hz: params.deviation_hz,
            bt: Some(0.3),
            center_offset_hz: params.center_offset_hz,
        });
        let mut sync = bytes_to_bits_lsb(&[PREAMBLE]);
        sync.extend(bytes_to_bits_lsb(&ACCESS_ADDRESS.to_le_bytes()));
        BlePhy {
            sync: FskSync::new(modem, sync, 8),
            params,
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &BleParams {
        &self.params
    }
}

impl Technology for BlePhy {
    fsk_technology!();

    fn id(&self) -> TechId {
        TechId::Ble
    }

    fn bitrate(&self) -> f64 {
        self.params.bitrate
    }

    fn modulate(&self, payload: &[u8], fs: f64) -> Vec<Cf32> {
        assert!(payload.len() <= self.max_payload_len(), "payload too long");
        // PDU: header (type 0x02 = ADV_NONCONN_IND, length), payload.
        let mut pdu = vec![0x02u8, payload.len() as u8];
        pdu.extend_from_slice(payload);
        let crc = crc24_ble(&pdu);
        let mut body_bits = bytes_to_bits_lsb(&pdu);
        // CRC transmitted MSB of the 24-bit value first per spec order;
        // we serialize it LSB-first like the PDU for symmetry.
        body_bits.extend(bytes_to_bits_lsb(&[
            (crc & 0xFF) as u8,
            ((crc >> 8) & 0xFF) as u8,
            ((crc >> 16) & 0xFF) as u8,
        ]));
        BleWhitener::new(self.params.channel).whiten(&mut body_bits);

        let mut bits = self.sync.bits.clone();
        bits.extend(body_bits);
        (self.sync.modem)
            .modulate_bits(&bits, fs)
            .expect("sample rate too low for BLE")
    }

    fn max_frame_samples(&self, fs: f64) -> usize {
        let bits = (1 + 4 + 2 + self.max_payload_len() + 3) * 8;
        (self.sync.modem)
            .bits_to_samples(bits, fs)
            .expect("sample rate too low for BLE")
    }

    fn max_payload_len(&self) -> usize {
        // Legacy advertising PDU payload bound.
        37
    }

    fn preamble_description(&self) -> &'static str {
        "4 bytes '01010101' (preamble + access address)"
    }

    fn kill_recipe(&self, _fs: f64) -> crate::common::KillRecipe {
        let p = self.sync.modem.params();
        let w = 0.6 * p.bitrate;
        crate::common::KillRecipe::Frequency(vec![
            Band::centered(p.center_offset_hz - p.deviation_hz, w),
            Band::centered(p.center_offset_hz + p.deviation_hz, w),
        ])
    }
}

impl FskFramed for BlePhy {
    /// The PDU header: type and length bytes, whitened.
    fn header_bits(&self) -> usize {
        16
    }

    fn frame_bits(&self, header: &[u8]) -> Result<usize, PhyError> {
        let mut header = header.to_vec();
        BleWhitener::new(self.params.channel).whiten(&mut header);
        let len = bits_to_bytes_lsb(&header)[1] as usize;
        if len > self.max_payload_len() {
            return Err(PhyError::MalformedHeader("PDU length"));
        }
        // Header, payload and CRC-24.
        Ok((2 + len + 3) * 8)
    }

    fn payload(&self, bits: &[u8]) -> Result<Vec<u8>, PhyError> {
        // The whole body is dewhitened at once, so the whitener stream
        // stays aligned.
        let mut bits = bits.to_vec();
        BleWhitener::new(self.params.channel).whiten(&mut bits);
        let body = bits_to_bytes_lsb(&bits);
        let (pdu, crc) = body.split_at(body.len() - 3);
        if crc24_ble(pdu) != u32::from_le_bytes([crc[0], crc[1], crc[2], 0]) {
            return Err(PhyError::CrcMismatch);
        }
        Ok(pdu[2..].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 8_000_000.0;

    fn phy() -> BlePhy {
        BlePhy::new(BleParams::default())
    }

    #[test]
    fn clean_roundtrip() {
        let p = phy();
        let payload = b"ble adv".to_vec();
        let frame = p.demodulate(&p.modulate(&payload, FS), FS).expect("decode");
        assert_eq!(frame.payload, payload);
        assert_eq!(frame.tech, TechId::Ble);
    }

    #[test]
    fn roundtrip_embedded() {
        let p = phy();
        let payload = vec![0xDE, 0xAD];
        let sig = p.modulate(&payload, FS);
        let mut capture = vec![Cf32::ZERO; sig.len() + 4_000];
        for (k, &s) in sig.iter().enumerate() {
            capture[1_777 + k] = s;
        }
        let frame = p.demodulate(&capture, FS).expect("decode");
        assert_eq!(frame.payload, payload);
        assert!(frame.start.abs_diff(1_777) <= 2);
    }

    #[test]
    fn whitening_differs_by_channel_but_roundtrips() {
        for ch in [0u8, 11, 37, 39] {
            let p = BlePhy::new(BleParams {
                channel: ch,
                ..Default::default()
            });
            let payload = vec![ch, 0x55, 0xAA];
            let frame = p.demodulate(&p.modulate(&payload, FS), FS).expect("decode");
            assert_eq!(frame.payload, payload, "channel {ch}");
        }
    }

    #[test]
    fn wrong_channel_fails_crc() {
        let tx = BlePhy::new(BleParams {
            channel: 37,
            ..Default::default()
        });
        let rx = BlePhy::new(BleParams {
            channel: 38,
            ..Default::default()
        });
        let sig = tx.modulate(&[1, 2, 3, 4], FS);
        assert!(matches!(
            rx.demodulate(&sig, FS),
            Err(PhyError::CrcMismatch) | Err(PhyError::MalformedHeader(_))
        ));
    }

    #[test]
    fn empty_payload_roundtrip() {
        let p = phy();
        let frame = p.demodulate(&p.modulate(&[], FS), FS).expect("decode");
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn low_sample_rate_is_rejected() {
        let p = phy();
        assert!(matches!(
            p.demodulate(&[Cf32::ZERO; 10_000], 1_000_000.0),
            Err(PhyError::BadConfig(_)) | Err(PhyError::CaptureTooShort)
        ));
    }

    #[test]
    #[should_panic(expected = "channel")]
    fn bad_channel_panics() {
        let _ = BlePhy::new(BleParams {
            channel: 40,
            ..Default::default()
        });
    }
}
