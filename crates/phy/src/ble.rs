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

use galiot_dsp::engine::FsCache;
use galiot_dsp::spectral::Band;
use galiot_dsp::Cf32;

use crate::bits::{bits_to_bytes_lsb, bytes_to_bits_lsb, crc24_ble, BleWhitener};
use crate::common::{DecodedFrame, ModClass, PhyError, TechId, Technology};
use crate::fsk::{FskModem, FskParams};

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
    modem: FskModem,
    params: BleParams,
    /// Discriminator-domain preamble+access-address template, shaped
    /// once per sample rate rather than on every demodulation attempt.
    sync: FsCache<Vec<f32>>,
}

impl BlePhy {
    /// Creates a BLE PHY.
    ///
    /// # Panics
    /// Panics if `channel > 39`.
    pub fn new(params: BleParams) -> Self {
        assert!(params.channel <= 39, "BLE channel must be 0..=39");
        BlePhy {
            modem: FskModem::new(FskParams {
                bitrate: params.bitrate,
                deviation_hz: params.deviation_hz,
                bt: Some(0.3),
                center_offset_hz: params.center_offset_hz,
            }),
            params,
            sync: FsCache::new(),
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &BleParams {
        &self.params
    }

    fn sync_bits() -> Vec<u8> {
        let mut bits = bytes_to_bits_lsb(&[PREAMBLE]);
        bits.extend(bytes_to_bits_lsb(&ACCESS_ADDRESS.to_le_bytes()));
        bits
    }
}

impl Technology for BlePhy {
    fn id(&self) -> TechId {
        TechId::Ble
    }

    fn modulation(&self) -> ModClass {
        ModClass::Fsk
    }

    fn center_offset_hz(&self) -> f64 {
        self.params.center_offset_hz
    }

    fn occupied_band(&self) -> Band {
        let p = self.modem.params();
        Band::centered(p.center_offset_hz, 2.0 * (p.deviation_hz + p.bitrate / 2.0))
    }

    fn bitrate(&self) -> f64 {
        self.params.bitrate
    }

    fn preamble_waveform(&self, fs: f64) -> Vec<Cf32> {
        self.modem
            .modulate_bits(&Self::sync_bits(), fs)
            .expect("sample rate too low for BLE preamble")
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

        let mut bits = Self::sync_bits();
        bits.extend(body_bits);
        self.modem
            .modulate_bits(&bits, fs)
            .expect("sample rate too low for BLE")
    }

    fn demodulate(&self, capture: &[Cf32], fs: f64) -> Result<DecodedFrame, PhyError> {
        let soft = self.modem.discriminate(capture, fs)?;
        let sync_bits = Self::sync_bits();
        let template = self.sync.get_or(fs, || {
            self.modem
                .sync_template(&sync_bits, fs)
                .expect("sample rate checked by discriminate")
        });
        let (start, _) = self
            .modem
            .find_sync(&soft, &template, 0.55)
            .ok_or(PhyError::SyncNotFound)?;
        let sps = self.modem.sps(fs)?;
        let pdu_at = start + sync_bits.len() * sps;

        // Header: 2 bytes whitened.
        let mut hdr_bits = self
            .modem
            .slice_bits(&soft, pdu_at, 16, fs)
            .ok_or(PhyError::Truncated)?;
        BleWhitener::new(self.params.channel).whiten(&mut hdr_bits);
        let hdr = bits_to_bytes_lsb(&hdr_bits);
        let len = hdr[1] as usize;
        if len > self.max_payload_len() {
            return Err(PhyError::MalformedHeader("PDU length"));
        }

        // Re-read the whole whitened body (header + payload + CRC) so
        // the whitener stream stays aligned.
        let body_bits_n = (2 + len + 3) * 8;
        let mut body_bits = self
            .modem
            .slice_bits(&soft, pdu_at, body_bits_n, fs)
            .ok_or(PhyError::Truncated)?;
        BleWhitener::new(self.params.channel).whiten(&mut body_bits);
        let body = bits_to_bytes_lsb(&body_bits);
        let pdu = &body[..2 + len];
        let rx_crc = body[2 + len] as u32
            | (body[2 + len + 1] as u32) << 8
            | (body[2 + len + 2] as u32) << 16;
        if crc24_ble(pdu) != rx_crc {
            return Err(PhyError::CrcMismatch);
        }
        Ok(DecodedFrame {
            tech: TechId::Ble,
            payload: pdu[2..].to_vec(),
            start,
            len: (sync_bits.len() + body_bits_n) * sps,
        })
    }

    fn max_frame_samples(&self, fs: f64) -> usize {
        let bits = (1 + 4 + 2 + self.max_payload_len() + 3) * 8;
        self.modem
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
        let p = self.modem.params();
        let w = 0.6 * p.bitrate;
        crate::common::KillRecipe::Frequency(vec![
            Band::centered(p.center_offset_hz - p.deviation_hz, w),
            Band::centered(p.center_offset_hz + p.deviation_hz, w),
        ])
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
