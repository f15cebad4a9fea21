//! SigFox-style ultra-narrow-band D-BPSK PHY.
//!
//! SigFox uplinks are differential BPSK at 100 b/s in a ~100 Hz
//! channel. Frame: a 19-bit `1010...` preamble, a 13-bit frame sync
//! word, one length byte, payload and CRC-16. Differential encoding
//! (bit 1 = π phase flip, bit 0 = no change) makes the demodulator
//! insensitive to absolute carrier phase; the UNB occupancy makes the
//! PSK branch of KILL-FREQUENCY trivial — all energy sits in one
//! narrow band around the carrier.
//!
//! The default bit rate here is 1 kb/s rather than SigFox's 100 b/s:
//! at 100 b/s a single frame spans multiple seconds of capture, which
//! bloats simulation buffers without changing any code path (the rate
//! is a parameter; 100 b/s works if you can afford the samples).

use galiot_dsp::corr::ncc_real;
use galiot_dsp::fir::Fir;
use galiot_dsp::mix::mix;
use galiot_dsp::spectral::Band;
use galiot_dsp::window::Window;
use galiot_dsp::Cf32;

use crate::bits::{bits_to_bytes_msb, bytes_to_bits_msb, crc16_ccitt};
use crate::common::{DecodedFrame, ModClass, PhyError, TechId, Technology};

/// The 19-bit alternating preamble.
pub const PREAMBLE_BITS: usize = 19;
/// The 13-bit frame sync word (SigFox uses 0b1001101011110-like codes).
pub const FRAME_SYNC: [u8; 13] = [1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 0];

/// SigFox-style PHY parameters.
#[derive(Clone, Copy, Debug)]
pub struct SigfoxParams {
    /// Bit rate in b/s (100 for real SigFox; 1000 by default here).
    pub bitrate: f64,
    /// Channel center offset within the capture band, Hz.
    pub center_offset_hz: f64,
}

impl Default for SigfoxParams {
    fn default() -> Self {
        SigfoxParams {
            bitrate: 1_000.0,
            center_offset_hz: 0.0,
        }
    }
}

/// The SigFox-style technology implementation.
#[derive(Clone, Debug)]
pub struct SigfoxPhy {
    params: SigfoxParams,
}

impl SigfoxPhy {
    /// Creates a SigFox-style PHY.
    ///
    /// # Panics
    /// Panics if the bit rate is non-positive.
    pub fn new(params: SigfoxParams) -> Self {
        assert!(params.bitrate > 0.0, "bitrate must be positive");
        SigfoxPhy { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &SigfoxParams {
        &self.params
    }

    fn sps(&self, fs: f64) -> Result<usize, PhyError> {
        let sps = (fs / self.params.bitrate).round() as usize;
        if sps < 4 {
            return Err(PhyError::BadConfig("sample rate below 4 samples/bit"));
        }
        Ok(sps)
    }

    fn sync_bits() -> Vec<u8> {
        let mut bits: Vec<u8> = (0..PREAMBLE_BITS).map(|i| ((i + 1) % 2) as u8).collect();
        bits.extend_from_slice(&FRAME_SYNC);
        bits
    }

    /// Differentially encodes data bits to absolute BPSK phases
    /// (0 or 1 half-turns), starting from phase 0.
    fn diff_encode(bits: &[u8]) -> Vec<u8> {
        let mut phase = 0u8;
        bits.iter()
            .map(|&b| {
                phase ^= b & 1;
                phase
            })
            .collect()
    }

    fn modulate_bits(&self, bits: &[u8], fs: f64) -> Result<Vec<Cf32>, PhyError> {
        let sps = self.sps(fs)?;
        let phases = Self::diff_encode(bits);
        let mut out = Vec::with_capacity(phases.len() * sps);
        // Smooth the phase transition over 1/8 of a bit to bound
        // occupied bandwidth (raised-cosine phase ramp).
        let ramp = (sps / 8).max(1);
        let mut prev = 1.0f32; // +1 phase
        for &p in &phases {
            let cur = if p & 1 == 1 { -1.0 } else { 1.0 };
            for k in 0..sps {
                let v = if k < ramp && prev != cur {
                    let x = k as f32 / ramp as f32;
                    prev + (cur - prev) * 0.5 * (1.0 - (std::f32::consts::PI * x).cos())
                } else {
                    cur
                };
                out.push(Cf32::from_re(v));
            }
            prev = cur;
        }
        if self.params.center_offset_hz != 0.0 {
            Ok(mix(&out, self.params.center_offset_hz, fs))
        } else {
            Ok(out)
        }
    }

    /// Differential soft metric per sample: the real part of
    /// `x[n] * conj(x[n - sps])`, positive for "no flip" (bit 0).
    fn diff_soft(&self, capture: &[Cf32], fs: f64) -> Result<Vec<f32>, PhyError> {
        let sps = self.sps(fs)?;
        if capture.len() < 3 * sps {
            return Err(PhyError::CaptureTooShort);
        }
        let base = mix(capture, -self.params.center_offset_hz, fs);
        let cutoff = (2.0 * self.params.bitrate).min(0.45 * fs);
        let ntaps = (fs / self.params.bitrate / 2.0) as usize | 1;
        let fir = Fir::lowpass(
            cutoff,
            fs,
            ntaps.clamp(33, crate::common::MAX_DEMOD_FIR_TAPS),
            Window::Hamming,
        );
        let filt = fir.filter(&base);
        let mut soft = vec![0.0f32; filt.len()];
        for i in sps..filt.len() {
            soft[i] = (filt[i] * filt[i - sps].conj()).re;
        }
        Ok(soft)
    }
}

impl Technology for SigfoxPhy {
    fn id(&self) -> TechId {
        TechId::SigFox
    }

    fn modulation(&self) -> ModClass {
        ModClass::Psk
    }

    fn center_offset_hz(&self) -> f64 {
        self.params.center_offset_hz
    }

    fn occupied_band(&self) -> Band {
        Band::centered(self.params.center_offset_hz, 4.0 * self.params.bitrate)
    }

    fn bitrate(&self) -> f64 {
        self.params.bitrate
    }

    fn preamble_waveform(&self, fs: f64) -> Vec<Cf32> {
        self.modulate_bits(&Self::sync_bits(), fs)
            .expect("sample rate too low for SigFox preamble")
    }

    fn modulate(&self, payload: &[u8], fs: f64) -> Vec<Cf32> {
        assert!(payload.len() <= self.max_payload_len(), "payload too long");
        let mut bits = Self::sync_bits();
        bits.extend(bytes_to_bits_msb(&[payload.len() as u8]));
        let crc = crc16_ccitt(payload);
        bits.extend(bytes_to_bits_msb(payload));
        bits.extend(bytes_to_bits_msb(&[(crc >> 8) as u8, (crc & 0xFF) as u8]));
        self.modulate_bits(&bits, fs)
            .expect("sample rate too low for SigFox")
    }

    fn demodulate(&self, capture: &[Cf32], fs: f64) -> Result<DecodedFrame, PhyError> {
        let sps = self.sps(fs)?;
        let soft = self.diff_soft(capture, fs)?;

        // Sync template in the differential domain: +1 where
        // consecutive bits repeat, -1 where they flip. The first bit
        // has no reference; skip it.
        let sync_bits = Self::sync_bits();
        let mut template = Vec::with_capacity((sync_bits.len() - 1) * sps);
        for &b in &sync_bits[1..] {
            let v = if b & 1 == 1 { -1.0f32 } else { 1.0 };
            template.extend(std::iter::repeat_n(v, sps));
        }
        let ncc = ncc_real(&soft, &template);
        let (peak_at, peak) = ncc
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &v)| (i, v))
            .ok_or(PhyError::CaptureTooShort)?;
        if peak < 0.5 {
            return Err(PhyError::SyncNotFound);
        }
        // The template starts at bit #1's differential output, i.e.
        // one bit after the frame start.
        let start = peak_at.saturating_sub(sps);

        let read_bits = |from_bit: usize, n: usize| -> Option<Vec<u8>> {
            let mut bits = Vec::with_capacity(n);
            for k in 0..n {
                let at = start + (from_bit + k) * sps;
                let lo = at + sps / 4;
                let hi = at + (3 * sps) / 4;
                if hi > soft.len() {
                    return None;
                }
                let m: f32 = soft[lo..hi].iter().sum::<f32>() / (hi - lo) as f32;
                bits.push(u8::from(m < 0.0));
            }
            Some(bits)
        };

        let hdr_at = sync_bits.len();
        let len_bits = read_bits(hdr_at, 8).ok_or(PhyError::Truncated)?;
        let len = bits_to_bytes_msb(&len_bits)[0] as usize;
        if len > self.max_payload_len() {
            return Err(PhyError::MalformedHeader("length"));
        }
        let body_bits = read_bits(hdr_at + 8, (len + 2) * 8).ok_or(PhyError::Truncated)?;
        let body = bits_to_bytes_msb(&body_bits);
        let payload = body[..len].to_vec();
        let rx_crc = ((body[len] as u16) << 8) | body[len + 1] as u16;
        if crc16_ccitt(&payload) != rx_crc {
            return Err(PhyError::CrcMismatch);
        }
        let total_bits = sync_bits.len() + 8 + (len + 2) * 8;
        Ok(DecodedFrame {
            tech: TechId::SigFox,
            payload,
            start,
            len: total_bits * sps,
        })
    }

    fn max_frame_samples(&self, fs: f64) -> usize {
        let bits = PREAMBLE_BITS + FRAME_SYNC.len() + 8 + (self.max_payload_len() + 2) * 8;
        bits * self.sps(fs).expect("sample rate too low for SigFox")
    }

    fn max_payload_len(&self) -> usize {
        // SigFox uplink payloads are at most 12 bytes.
        12
    }

    fn preamble_description(&self) -> &'static str {
        "19-bit '1010...' + 13-bit frame sync"
    }

    fn kill_recipe(&self, _fs: f64) -> crate::common::KillRecipe {
        // PSK "concentrates energy on a specific band of operation"
        // (Sec. 5) — for UNB D-BPSK that band is tiny, so removing it
        // barely touches co-channel wideband technologies.
        crate::common::KillRecipe::Frequency(vec![self.occupied_band()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 100_000.0; // 100 sps at the 1 kb/s default

    fn phy() -> SigfoxPhy {
        SigfoxPhy::new(SigfoxParams::default())
    }

    #[test]
    fn clean_roundtrip() {
        let p = phy();
        let payload = vec![0x12, 0x34, 0x56, 0x78];
        let frame = p.demodulate(&p.modulate(&payload, FS), FS).expect("decode");
        assert_eq!(frame.payload, payload);
        assert_eq!(frame.tech, TechId::SigFox);
    }

    #[test]
    fn roundtrip_embedded_with_offset() {
        let p = SigfoxPhy::new(SigfoxParams {
            center_offset_hz: 10_000.0,
            ..Default::default()
        });
        let payload = vec![0xCA, 0xFE];
        let sig = p.modulate(&payload, FS);
        let mut capture = vec![Cf32::ZERO; sig.len() + 3_000];
        for (k, &s) in sig.iter().enumerate() {
            capture[1_234 + k] = s;
        }
        let frame = p.demodulate(&capture, FS).expect("decode");
        assert_eq!(frame.payload, payload);
        // Start is approximate: the phase-ramp smoothing (sps/8) and
        // the narrow channel filter both blur the sync peak slightly.
        assert!(frame.start.abs_diff(1_234) <= 25, "start {}", frame.start);
    }

    #[test]
    fn phase_rotation_does_not_matter() {
        // Differential encoding: a constant unknown phase offset (any
        // receiver LO phase) must not affect decoding.
        let p = phy();
        let payload = vec![7u8; 12];
        let sig = p.modulate(&payload, FS);
        let rotated: Vec<Cf32> = sig.iter().map(|&z| z * Cf32::cis(1.234)).collect();
        let frame = p.demodulate(&rotated, FS).expect("decode");
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn max_payload_roundtrip() {
        let p = phy();
        let payload = vec![0xFF; 12];
        let frame = p.demodulate(&p.modulate(&payload, FS), FS).expect("decode");
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let p = phy();
        let frame = p.demodulate(&p.modulate(&[], FS), FS).expect("decode");
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn corruption_detected() {
        let p = phy();
        let mut sig = p.modulate(&[1, 2, 3, 4, 5], FS);
        let n = sig.len();
        for z in &mut sig[n - 1_500..n - 800] {
            *z = -*z;
        }
        assert!(matches!(
            p.demodulate(&sig, FS),
            Err(PhyError::CrcMismatch) | Err(PhyError::MalformedHeader(_))
        ));
    }

    #[test]
    fn band_is_ultra_narrow() {
        assert!(phy().occupied_band().width() <= 4_000.0);
    }

    #[test]
    #[should_panic(expected = "payload too long")]
    fn oversize_rejected() {
        let _ = phy().modulate(&[0; 13], FS);
    }
}
