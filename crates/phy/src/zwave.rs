//! Z-Wave: ITU-T G.9959 PHY/MAC, all three rate profiles.
//!
//! Frame: a run of `0x55` preamble bytes ("m bytes" in the paper's
//! Table 1), start-of-frame byte `0xF0`, then the MPDU: 4-byte home
//! ID, source node ID, 2-byte frame control, length byte (counts the
//! whole MPDU including its check field), destination node ID, payload
//! and the check field. Rate profiles per G.9959:
//!
//! | profile | data rate | coding | deviation | check |
//! |---|---|---|---|---|
//! | R1 | 9.6 kb/s | Manchester | ±20 kHz | 8-bit XOR checksum |
//! | R2 | 40 kb/s | NRZ | ±20 kHz | 8-bit XOR checksum |
//! | R3 | 100 kb/s | NRZ, GFSK BT 0.6 | ±29 kHz | CRC-16 (AUG-CCITT) |

use galiot_dsp::spectral::Band;
use galiot_dsp::Cf32;

use crate::bits::{
    bits_to_bytes_msb, bytes_to_bits_msb, checksum_zwave, crc16_zwave, manchester_decode,
    manchester_encode,
};
use crate::common::{DecodedFrame, DemodScratch, ModClass, PhyError, TechId, Technology};
use crate::fsk::{fsk_technology, FskFramed, FskModem, FskParams, FskSync};

/// Number of `0x55` preamble bytes (G.9959 requires >= 10).
pub const PREAMBLE_LEN: usize = 10;
/// Start-of-frame delimiter.
pub const SOF: u8 = 0xF0;
/// MPDU header bytes before the payload: home ID (4) + src (1) +
/// frame control (2) + length (1) + dst (1).
pub const MPDU_HEADER_LEN: usize = 9;

/// G.9959 rate profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZwaveRate {
    /// 9.6 kb/s, Manchester coded, BFSK ±20 kHz, XOR checksum.
    R1,
    /// 40 kb/s, NRZ, BFSK ±20 kHz, XOR checksum.
    R2,
    /// 100 kb/s, NRZ, GFSK (BT 0.6) ±29 kHz, CRC-16.
    R3,
}

impl ZwaveRate {
    /// Data bit rate in b/s.
    pub fn bitrate(self) -> f64 {
        match self {
            ZwaveRate::R1 => 9_600.0,
            ZwaveRate::R2 => 40_000.0,
            ZwaveRate::R3 => 100_000.0,
        }
    }

    /// On-air symbol (half-bit for R1) rate in baud.
    fn baud(self) -> f64 {
        match self {
            ZwaveRate::R1 => 19_200.0, // two Manchester half-bits per bit
            other => other.bitrate(),
        }
    }

    /// FSK deviation in Hz.
    pub fn deviation_hz(self) -> f64 {
        match self {
            ZwaveRate::R3 => 29_000.0,
            _ => 20_000.0,
        }
    }

    fn bt(self) -> Option<f32> {
        match self {
            ZwaveRate::R3 => Some(0.6),
            _ => None,
        }
    }

    /// Size of the check field in bytes.
    fn check_len(self) -> usize {
        match self {
            ZwaveRate::R3 => 2,
            _ => 1,
        }
    }

    /// Data bits -> on-air line bits for this profile.
    fn line_code(self, bits: &[u8]) -> Vec<u8> {
        match self {
            ZwaveRate::R1 => manchester_encode(bits),
            _ => bits.to_vec(),
        }
    }

    /// On-air line bits -> data bits.
    fn line_decode(self, line: &[u8]) -> Vec<u8> {
        match self {
            ZwaveRate::R1 => manchester_decode(line),
            _ => line.to_vec(),
        }
    }

    /// Line bits per data bit.
    fn line_factor(self) -> usize {
        match self {
            ZwaveRate::R1 => 2,
            _ => 1,
        }
    }
}

/// Z-Wave (G.9959) parameters.
#[derive(Clone, Copy, Debug)]
pub struct ZwaveParams {
    /// Rate profile.
    pub rate: ZwaveRate,
    /// Channel center offset within the capture band, Hz.
    pub center_offset_hz: f64,
    /// 4-byte network home ID stamped into transmitted frames.
    pub home_id: [u8; 4],
    /// Source node ID.
    pub src_node: u8,
    /// Destination node ID.
    pub dst_node: u8,
}

impl Default for ZwaveParams {
    fn default() -> Self {
        ZwaveParams {
            rate: ZwaveRate::R2,
            center_offset_hz: 0.0,
            home_id: [0xC0, 0xFF, 0xEE, 0x01],
            src_node: 1,
            dst_node: 2,
        }
    }
}

/// The Z-Wave technology implementation.
#[derive(Clone, Debug)]
pub struct ZwavePhy {
    sync: FskSync,
    params: ZwaveParams,
}

impl ZwavePhy {
    /// Creates a Z-Wave PHY.
    pub fn new(params: ZwaveParams) -> Self {
        let modem = FskModem::new(FskParams {
            bitrate: params.rate.baud(),
            deviation_hz: params.rate.deviation_hz(),
            bt: params.rate.bt(),
            center_offset_hz: params.center_offset_hz,
        });
        let mut sync = vec![0x55u8; PREAMBLE_LEN];
        sync.push(SOF);
        let sync = params.rate.line_code(&bytes_to_bits_msb(&sync));
        let preamble = PREAMBLE_LEN * 8 * params.rate.line_factor();
        ZwavePhy {
            sync: FskSync::new(modem, sync, preamble),
            params,
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &ZwaveParams {
        &self.params
    }

    fn build_mpdu(&self, payload: &[u8]) -> Vec<u8> {
        let len = MPDU_HEADER_LEN + payload.len() + self.params.rate.check_len();
        let mut mpdu = Vec::with_capacity(len);
        mpdu.extend_from_slice(&self.params.home_id);
        mpdu.push(self.params.src_node);
        mpdu.extend_from_slice(&[0x41, 0x01]); // frame control: singlecast, seq 1
        mpdu.push(len as u8);
        mpdu.push(self.params.dst_node);
        mpdu.extend_from_slice(payload);
        match self.params.rate {
            ZwaveRate::R3 => {
                let crc = crc16_zwave(&mpdu);
                mpdu.push((crc >> 8) as u8);
                mpdu.push((crc & 0xFF) as u8);
            }
            _ => mpdu.push(checksum_zwave(&mpdu)),
        }
        mpdu
    }

    fn check_mpdu(&self, mpdu: &[u8]) -> bool {
        let n = mpdu.len();
        match self.params.rate {
            ZwaveRate::R3 => {
                if n < 2 {
                    return false;
                }
                let rx = ((mpdu[n - 2] as u16) << 8) | mpdu[n - 1] as u16;
                crc16_zwave(&mpdu[..n - 2]) == rx
            }
            _ => !mpdu.is_empty() && checksum_zwave(&mpdu[..n - 1]) == mpdu[n - 1],
        }
    }
}

impl Technology for ZwavePhy {
    fsk_technology!();

    fn id(&self) -> TechId {
        TechId::ZWave
    }

    fn bitrate(&self) -> f64 {
        self.params.rate.bitrate()
    }

    fn modulate(&self, payload: &[u8], fs: f64) -> Vec<Cf32> {
        let mut out = Vec::new();
        self.modulate_into(payload, fs, &mut out);
        out
    }

    fn modulate_into(&self, payload: &[u8], fs: f64, out: &mut Vec<Cf32>) {
        assert!(payload.len() <= self.max_payload_len(), "payload too long");
        let mut line = self.sync.bits.clone();
        line.extend(
            self.params
                .rate
                .line_code(&bytes_to_bits_msb(&self.build_mpdu(payload))),
        );
        (self.sync.modem)
            .modulate_bits_into(&line, fs, out)
            .expect("sample rate too low for Z-Wave")
    }

    fn max_frame_samples(&self, fs: f64) -> usize {
        let data_bits = (PREAMBLE_LEN + 1) * 8
            + (MPDU_HEADER_LEN + self.max_payload_len() + self.params.rate.check_len()) * 8;
        let line_bits = data_bits * self.params.rate.line_factor();
        (self.sync.modem.bits_to_samples(line_bits, fs)).expect("sample rate too low for Z-Wave")
    }

    fn max_payload_len(&self) -> usize {
        // G.9959 R1/R2 MPDUs are at most 64 bytes (R3 allows 170; we
        // keep the common bound so frames stay profile-portable).
        64 - MPDU_HEADER_LEN - 2
    }

    fn preamble_description(&self) -> &'static str {
        "m bytes '01010101'"
    }

    fn kill_recipe(&self, _fs: f64) -> crate::common::KillRecipe {
        // Hard BFSK at modulation index ~1 carries strong spectral
        // lines at the tones; moderately narrow notches suffice.
        let p = self.sync.modem.params();
        let w = 0.75 * p.bitrate;
        crate::common::KillRecipe::Frequency(vec![
            Band::centered(p.center_offset_hz - p.deviation_hz, w),
            Band::centered(p.center_offset_hz + p.deviation_hz, w),
        ])
    }
}

impl FskFramed for ZwavePhy {
    /// The MPDU through its length byte, its eighth.
    fn header_bits(&self) -> usize {
        8 * 8 * self.params.rate.line_factor()
    }

    fn frame_bits(&self, head: &[u8]) -> Result<usize, PhyError> {
        let len = bits_to_bytes_msb(&self.params.rate.line_decode(head))[7] as usize;
        let min_len = MPDU_HEADER_LEN + self.params.rate.check_len();
        if len < min_len || len > min_len + self.max_payload_len() {
            return Err(PhyError::MalformedHeader("MPDU length"));
        }
        Ok(len * 8 * self.params.rate.line_factor())
    }

    fn payload(&self, line: &[u8]) -> Result<Vec<u8>, PhyError> {
        let mpdu = bits_to_bytes_msb(&self.params.rate.line_decode(line));
        if !self.check_mpdu(&mpdu) {
            return Err(PhyError::CrcMismatch);
        }
        Ok(mpdu[MPDU_HEADER_LEN..mpdu.len() - self.params.rate.check_len()].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 1_000_000.0;

    fn phy() -> ZwavePhy {
        ZwavePhy::new(ZwaveParams::default())
    }

    fn phy_at(rate: ZwaveRate) -> ZwavePhy {
        ZwavePhy::new(ZwaveParams {
            rate,
            ..Default::default()
        })
    }

    #[test]
    fn clean_roundtrip() {
        let p = phy();
        let payload = vec![0x20, 0x01, 0xFF]; // basic set on
        let frame = p.demodulate(&p.modulate(&payload, FS), FS).expect("decode");
        assert_eq!(frame.payload, payload);
        assert_eq!(frame.tech, TechId::ZWave);
    }

    #[test]
    fn all_rate_profiles_roundtrip() {
        for rate in [ZwaveRate::R1, ZwaveRate::R2, ZwaveRate::R3] {
            let p = phy_at(rate);
            let payload = vec![0x42, 0x13, 0x37, 0x00, 0xFF];
            let frame = p
                .demodulate(&p.modulate(&payload, FS), FS)
                .unwrap_or_else(|e| panic!("{rate:?}: {e}"));
            assert_eq!(frame.payload, payload, "{rate:?}");
        }
    }

    #[test]
    fn r1_is_manchester_coded() {
        // The R1 waveform must be ~2x longer than R2 at 4.17x slower
        // bit rate (2 half-bits per bit at about half of R2's baud).
        let r1 = phy_at(ZwaveRate::R1).modulate(&[1, 2, 3], FS);
        let r2 = phy_at(ZwaveRate::R2).modulate(&[1, 2, 3], FS);
        let ratio = r1.len() as f64 / r2.len() as f64;
        assert!(
            (ratio - 40_000.0 / 19_200.0 * 2.0).abs() < 0.2,
            "ratio {ratio}"
        );
    }

    #[test]
    fn r3_uses_crc16() {
        let p = phy_at(ZwaveRate::R3);
        let mpdu = p.build_mpdu(&[0xAA]);
        let n = mpdu.len();
        let rx = ((mpdu[n - 2] as u16) << 8) | mpdu[n - 1] as u16;
        assert_eq!(crc16_zwave(&mpdu[..n - 2]), rx);
        assert!(p.check_mpdu(&mpdu));
    }

    #[test]
    fn roundtrip_embedded_at_offset() {
        let p = ZwavePhy::new(ZwaveParams {
            center_offset_hz: -250_000.0,
            ..Default::default()
        });
        let payload = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let sig = p.modulate(&payload, FS);
        let mut capture = vec![Cf32::ZERO; sig.len() + 20_000];
        for (k, &s) in sig.iter().enumerate() {
            capture[11_111 + k] = s;
        }
        let frame = p.demodulate(&capture, FS).expect("decode");
        assert_eq!(frame.payload, payload);
        assert!(frame.start.abs_diff(11_111) <= 2);
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
        let payload = vec![0x3C; p.max_payload_len()];
        let frame = p.demodulate(&p.modulate(&payload, FS), FS).expect("decode");
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn checksum_failure_detected() {
        for rate in [ZwaveRate::R1, ZwaveRate::R2, ZwaveRate::R3] {
            let p = phy_at(rate);
            let mut sig = p.modulate(&[9, 9, 9, 9], FS);
            let n = sig.len();
            // Conjugation inverts the FSK tones (negation would not).
            for z in &mut sig[n - 600..n - 300] {
                *z = z.conj();
            }
            assert!(
                matches!(
                    p.demodulate(&sig, FS),
                    Err(PhyError::CrcMismatch) | Err(PhyError::MalformedHeader(_))
                ),
                "{rate:?} accepted corrupt frame"
            );
        }
    }

    #[test]
    fn mpdu_length_field_is_consistent() {
        let p = phy();
        let mpdu = p.build_mpdu(&[0xAA, 0xBB]);
        assert_eq!(mpdu.len(), mpdu[7] as usize);
        assert_eq!(checksum_zwave(&mpdu), 0);
    }

    #[test]
    fn frame_carries_home_and_node_ids() {
        let p = phy();
        let mpdu = p.build_mpdu(&[]);
        assert_eq!(&mpdu[..4], &p.params().home_id);
        assert_eq!(mpdu[4], p.params().src_node);
        assert_eq!(mpdu[8], p.params().dst_node);
    }

    #[test]
    fn r1_and_r2_preambles_coalesce_poorly_with_r3() {
        // Same technology, different deviations: the kill bands move.
        let r2 = phy_at(ZwaveRate::R2);
        let r3 = phy_at(ZwaveRate::R3);
        match (r2.kill_recipe(FS), r3.kill_recipe(FS)) {
            (crate::common::KillRecipe::Frequency(a), crate::common::KillRecipe::Frequency(b)) => {
                assert!((a[1].lo - b[1].lo).abs() > 1_000.0);
            }
            _ => panic!("expected frequency recipes"),
        }
    }
}
