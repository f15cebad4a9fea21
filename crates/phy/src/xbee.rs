//! XBee: IEEE 802.15.4g MR-FSK (sub-GHz) PHY, as used by XBee-PRO 900
//! and the TI CC1310 modules of the paper's prototype.
//!
//! Frame: 4-byte `0x55` preamble, 2-byte SFD `0x90 0x4E`, 2-byte PHR
//! carrying an 11-bit frame length, then the PN9-whitened PSDU
//! (payload + CRC-16/CCITT FCS). Modulation is 2-GFSK at 50 kb/s with
//! modulation index 1 (±25 kHz deviation), BT = 0.5.

use galiot_dsp::spectral::Band;
use galiot_dsp::Cf32;

use crate::bits::{bits_to_bytes_msb, bytes_to_bits_msb, crc16_ccitt, Pn9};
use crate::common::{DecodedFrame, DemodScratch, ModClass, PhyError, TechId, Technology};
use crate::fsk::{fsk_technology, FskFramed, FskModem, FskParams, FskSync};

/// Preamble bytes (Table 1: 4 bytes of `01010101`).
pub const PREAMBLE: [u8; 4] = [0x55; 4];
/// Start-of-frame delimiter.
pub const SFD: [u8; 2] = [0x90, 0x4E];

/// XBee / 802.15.4g MR-FSK parameters.
#[derive(Clone, Copy, Debug)]
pub struct XbeeParams {
    /// Bit rate (50 kb/s standard mode).
    pub bitrate: f64,
    /// FSK deviation in Hz (±25 kHz for modulation index 1).
    pub deviation_hz: f64,
    /// Gaussian BT product (0.5 per 802.15.4g).
    pub bt: f32,
    /// Channel center offset within the capture band, Hz.
    pub center_offset_hz: f64,
}

impl Default for XbeeParams {
    fn default() -> Self {
        XbeeParams {
            bitrate: 50_000.0,
            deviation_hz: 25_000.0,
            bt: 0.5,
            center_offset_hz: 0.0,
        }
    }
}

/// The XBee technology implementation.
#[derive(Clone, Debug)]
pub struct XbeePhy {
    sync: FskSync,
}

impl XbeePhy {
    /// Creates an XBee PHY.
    pub fn new(params: XbeeParams) -> Self {
        let modem = FskModem::new(FskParams {
            bitrate: params.bitrate,
            deviation_hz: params.deviation_hz,
            bt: Some(params.bt),
            center_offset_hz: params.center_offset_hz,
        });
        let mut sync = bytes_to_bits_msb(&PREAMBLE);
        sync.extend(bytes_to_bits_msb(&SFD));
        XbeePhy {
            sync: FskSync::new(modem, sync, PREAMBLE.len() * 8),
        }
    }
}

impl Technology for XbeePhy {
    fsk_technology!();

    fn id(&self) -> TechId {
        TechId::XBee
    }

    fn bitrate(&self) -> f64 {
        self.sync.modem.params().bitrate
    }

    fn modulate(&self, payload: &[u8], fs: f64) -> Vec<Cf32> {
        let mut out = Vec::new();
        self.modulate_into(payload, fs, &mut out);
        out
    }

    fn modulate_into(&self, payload: &[u8], fs: f64, out: &mut Vec<Cf32>) {
        assert!(payload.len() <= self.max_payload_len(), "payload too long");
        // PSDU = payload || FCS, whitened.
        let fcs = crc16_ccitt(payload);
        let mut psdu = payload.to_vec();
        psdu.push((fcs >> 8) as u8);
        psdu.push((fcs & 0xFF) as u8);
        let mut psdu_bits = bytes_to_bits_msb(&psdu);
        Pn9::new().whiten(&mut psdu_bits);

        // PHR: 5 reserved/mode bits = 0, 11-bit frame length (PSDU bytes).
        let len = psdu.len() as u16;
        let phr = [(len >> 8) as u8 & 0x07, (len & 0xFF) as u8];

        let mut bits = self.sync.bits.clone();
        bits.extend(bytes_to_bits_msb(&phr));
        bits.extend(psdu_bits);
        (self.sync.modem)
            .modulate_bits_into(&bits, fs, out)
            .expect("sample rate too low for XBee")
    }

    fn max_frame_samples(&self, fs: f64) -> usize {
        let bits = (PREAMBLE.len() + SFD.len() + 2 + self.max_payload_len() + 2) * 8;
        (self.sync.modem.bits_to_samples(bits, fs)).expect("sample rate too low for XBee")
    }

    fn max_payload_len(&self) -> usize {
        // 802.15.4g allows 2047-byte PSDUs; keep the classic 127-byte
        // MAC bound, which the XBee modules enforce.
        125
    }

    fn preamble_description(&self) -> &'static str {
        "4 bytes '01010101'"
    }

    fn kill_recipe(&self, _fs: f64) -> crate::common::KillRecipe {
        // 2-GFSK concentrates energy at the mark/space tones, but the
        // Gaussian shaping (BT 0.5) spreads it more than hard BFSK —
        // the kill bands must reach toward DC to catch the transition
        // energy.
        let p = self.sync.modem.params();
        let w = 1.2 * p.bitrate;
        crate::common::KillRecipe::Frequency(vec![
            Band::centered(p.center_offset_hz - p.deviation_hz, w),
            Band::centered(p.center_offset_hz + p.deviation_hz, w),
        ])
    }
}

impl FskFramed for XbeePhy {
    fn header_bits(&self) -> usize {
        16
    }

    fn frame_bits(&self, phr: &[u8]) -> Result<usize, PhyError> {
        let phr = bits_to_bytes_msb(phr);
        let len = (((phr[0] & 0x07) as usize) << 8) | phr[1] as usize;
        if len < 2 || len > self.max_payload_len() + 2 {
            return Err(PhyError::MalformedHeader("PHR length"));
        }
        Ok(16 + len * 8)
    }

    fn payload(&self, bits: &[u8]) -> Result<Vec<u8>, PhyError> {
        let mut psdu_bits = bits[16..].to_vec();
        Pn9::new().whiten(&mut psdu_bits);
        let psdu = bits_to_bytes_msb(&psdu_bits);
        let (payload, fcs) = psdu.split_at(psdu.len() - 2);
        if crc16_ccitt(payload) != u16::from_be_bytes([fcs[0], fcs[1]]) {
            return Err(PhyError::CrcMismatch);
        }
        Ok(payload.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 1_000_000.0;

    fn phy() -> XbeePhy {
        XbeePhy::new(XbeeParams::default())
    }

    #[test]
    fn clean_roundtrip() {
        let p = phy();
        let payload = b"xbee frame".to_vec();
        let frame = p.demodulate(&p.modulate(&payload, FS), FS).expect("decode");
        assert_eq!(frame.payload, payload);
        assert_eq!(frame.tech, TechId::XBee);
    }

    #[test]
    fn roundtrip_embedded_with_offset() {
        let p = XbeePhy::new(XbeeParams {
            center_offset_hz: 200_000.0,
            ..Default::default()
        });
        let payload = vec![0u8, 255, 1, 2, 3];
        let sig = p.modulate(&payload, FS);
        let mut capture = vec![Cf32::ZERO; sig.len() + 9_000];
        for (k, &s) in sig.iter().enumerate() {
            capture[4_321 + k] = s;
        }
        let frame = p.demodulate(&capture, FS).expect("decode");
        assert_eq!(frame.payload, payload);
        assert!(frame.start.abs_diff(4_321) <= 2, "start {}", frame.start);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let p = phy();
        let frame = p.demodulate(&p.modulate(&[], FS), FS).expect("decode");
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn max_payload_roundtrip() {
        let p = phy();
        let payload = vec![0xA7; 125];
        let frame = p.demodulate(&p.modulate(&payload, FS), FS).expect("decode");
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn corruption_is_detected() {
        let p = phy();
        let mut sig = p.modulate(b"data!", FS);
        let n = sig.len();
        // Conjugate a chunk of the PSDU region: this inverts the
        // instantaneous frequency (sign negation would only flip phase,
        // which a discriminator rightly ignores).
        for z in &mut sig[n - 800..n - 400] {
            *z = z.conj();
        }
        assert!(matches!(
            p.demodulate(&sig, FS),
            Err(PhyError::CrcMismatch) | Err(PhyError::MalformedHeader(_))
        ));
    }

    #[test]
    fn noise_only_rejected() {
        let p = phy();
        let capture: Vec<Cf32> = (0..30_000)
            .map(|i| {
                Cf32::new(
                    ((i * 2654435761u64 as usize) as f32).sin() * 0.3,
                    ((i * 40503) as f32).cos() * 0.3,
                )
            })
            .collect();
        assert!(p.demodulate(&capture, FS).is_err());
    }

    #[test]
    #[should_panic(expected = "payload too long")]
    fn oversize_payload_panics() {
        let _ = phy().modulate(&[0; 126], FS);
    }

    #[test]
    fn occupied_band_is_carson() {
        let b = phy().occupied_band();
        assert!((b.width() - 100_000.0).abs() < 1.0);
    }
}
