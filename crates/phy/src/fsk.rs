//! A generic binary (G)FSK modem.
//!
//! XBee (802.15.4g MR-FSK), Z-Wave (G.9959) and BLE all modulate bits
//! as binary frequency shifts, differing only in rate, deviation,
//! Gaussian shaping and framing. This module implements the shared
//! waveform layer and the one reader of a frame's sync and header
//! (`FskSync`); the per-technology modules describe their framing
//! (`FskFramed`) on top.
//!
//! Demodulation uses a quadrature discriminator (instantaneous
//! frequency) followed by zero-mean normalized correlation against the
//! shaped preamble pattern for bit synchronization — the zero-mean
//! statistic makes sync immune to carrier-frequency offset, which
//! appears on a discriminator output as a DC shift.

use galiot_dsp::corr::ncc_real_into;
use galiot_dsp::engine::FsCache;
use galiot_dsp::fir::Fir;
use galiot_dsp::mix::mix_into;
use galiot_dsp::pulse::gaussian_filter;
use galiot_dsp::window::Window;
use galiot_dsp::Cf32;

use crate::common::{DecodedFrame, DemodScratch, PhyError, Technology};

/// Waveform-level parameters of a binary FSK technology.
#[derive(Clone, Copy, Debug)]
pub struct FskParams {
    /// Nominal bit rate in bits/s. The effective rate is quantized to
    /// an integer number of samples per bit at the capture rate.
    pub bitrate: f64,
    /// Frequency deviation in Hz: bit 1 transmits at `+deviation`,
    /// bit 0 at `-deviation` (before shaping).
    pub deviation_hz: f64,
    /// Gaussian shaping bandwidth-time product; `None` means hard
    /// (unshaped) BFSK.
    pub bt: Option<f32>,
    /// Channel center offset within the capture band, Hz.
    pub center_offset_hz: f64,
}

/// The reusable FSK waveform engine.
#[derive(Clone, Debug)]
pub struct FskModem {
    params: FskParams,
    /// The discriminator's channel filter, designed once per sample
    /// rate rather than on every demodulation attempt.
    channel_fir: FsCache<Fir>,
}

impl FskModem {
    /// Creates a modem.
    ///
    /// # Panics
    /// Panics if rates or deviation are non-positive.
    pub fn new(params: FskParams) -> Self {
        assert!(params.bitrate > 0.0, "bitrate must be positive");
        assert!(params.deviation_hz > 0.0, "deviation must be positive");
        FskModem {
            params,
            channel_fir: FsCache::new(),
        }
    }

    /// The parameters this modem was built with.
    pub fn params(&self) -> &FskParams {
        &self.params
    }

    /// Integer samples per bit at capture rate `fs`.
    ///
    /// Returns an error if `fs` is too low to carry the signal
    /// (fewer than 2 samples per bit or Nyquist below the deviation).
    pub fn sps(&self, fs: f64) -> Result<usize, PhyError> {
        let sps = (fs / self.params.bitrate).round() as usize;
        if sps < 2 {
            return Err(PhyError::BadConfig("sample rate below 2 samples/bit"));
        }
        if self.params.deviation_hz + self.params.center_offset_hz.abs() > fs / 2.0 {
            return Err(PhyError::BadConfig("deviation beyond Nyquist"));
        }
        Ok(sps)
    }

    /// The shaped, per-sample frequency pulse train (`+1`/`-1` scaled)
    /// for a bit sequence — both the modulator's input and the sync
    /// template's shape.
    fn shaped_nrz(&self, bits: &[u8], sps: usize) -> Vec<f32> {
        let mut nrz = Vec::with_capacity(bits.len() * sps);
        for &b in bits {
            let v = if b & 1 == 1 { 1.0f32 } else { -1.0 };
            nrz.extend(std::iter::repeat_n(v, sps));
        }
        match self.params.bt {
            Some(bt) => gaussian_filter(bt, sps, 3).filter_real(&nrz),
            None => nrz,
        }
    }

    /// Modulates a bit sequence to unit-amplitude complex baseband at
    /// rate `fs`, centered at the configured channel offset.
    pub fn modulate_bits(&self, bits: &[u8], fs: f64) -> Result<Vec<Cf32>, PhyError> {
        let mut out = Vec::new();
        self.modulate_bits_into(bits, fs, &mut out)?;
        Ok(out)
    }

    /// [`FskModem::modulate_bits`] into `out`: whatever it held is
    /// discarded, and it comes back with the waveform.
    pub(crate) fn modulate_bits_into(
        &self,
        bits: &[u8],
        fs: f64,
        out: &mut Vec<Cf32>,
    ) -> Result<(), PhyError> {
        let sps = self.sps(fs)?;
        let freq = self.shaped_nrz(bits, sps);
        let k = 2.0 * std::f64::consts::PI * self.params.deviation_hz / fs;
        let co = 2.0 * std::f64::consts::PI * self.params.center_offset_hz / fs;
        let mut phase = 0.0f64;
        out.clear();
        out.reserve_exact(freq.len());
        for f in freq {
            out.push(Cf32::cis(phase as f32));
            phase += k * f as f64 + co;
            if phase > std::f64::consts::TAU {
                phase -= std::f64::consts::TAU;
            } else if phase < -std::f64::consts::TAU {
                phase += std::f64::consts::TAU;
            }
        }
        Ok(())
    }

    /// Quadrature-discriminates a capture into `scratch.soft`: mixes the
    /// channel to DC, band-limits it, and writes per-sample instantaneous
    /// frequency normalized so `+1.0` corresponds to `+deviation`, mixing
    /// and filtering in the scratch's buffers. `scratch.soft` holds the
    /// output for `capture[..from]` (nothing at 0), and only what it
    /// lacks is computed: the samples past `from`, and those within the
    /// channel filter's reach of it, which saw silence there.
    pub(crate) fn discriminate_into(
        &self,
        capture: &[Cf32],
        from: usize,
        fs: f64,
        scratch: &mut DemodScratch,
    ) -> Result<(), PhyError> {
        let sps = self.sps(fs)?;
        if capture.len() < 2 * sps {
            return Err(PhyError::CaptureTooShort);
        }
        let DemodScratch {
            mixed,
            filtered,
            soft,
            ..
        } = scratch;
        let fir = self.channel_fir.get_or(fs, || {
            // Carson bandwidth: deviation + bitrate.
            let cutoff = (self.params.deviation_hz + self.params.bitrate).min(0.45 * fs);
            let ntaps = (4 * sps + 1).clamp(33, 257);
            Fir::lowpass(cutoff, fs, ntaps, Window::Hamming)
        });
        // Outputs below `keep` stand; the filter restarts a reach before
        // the first output to redo, which needs its predecessor too.
        let reach = fir.len() / 2;
        let keep = from.saturating_sub(reach);
        let at = keep.saturating_sub(reach + 1);
        mix_into(&capture[at..], -self.params.center_offset_hz, fs, mixed);
        fir.filter_into(mixed, filtered);
        let k = fs as f32 / (2.0 * std::f32::consts::PI * self.params.deviation_hz as f32);
        soft.truncate(keep);
        soft.reserve_exact(capture.len() - keep);
        if keep == 0 {
            soft.push(0.0);
        }
        for w in filtered[keep.max(1) - 1 - at..].windows(2) {
            soft.push((w[1] * w[0].conj()).arg() * k);
        }
        Ok(())
    }

    /// Builds the discriminator-domain sync template for a known bit
    /// pattern (preamble + SFD).
    pub fn sync_template(&self, bits: &[u8], fs: f64) -> Result<Vec<f32>, PhyError> {
        let sps = self.sps(fs)?;
        Ok(self.shaped_nrz(bits, sps))
    }

    /// Locates `template` (from [`FskModem::sync_template`]) inside the
    /// discriminator output in `scratch.soft`, correlating in the
    /// scratch's buffers. Returns `(start_sample, ncc_peak)` of the best
    /// alignment, or `None` if no correlation exceeds `threshold`.
    pub(crate) fn find_sync_in(
        &self,
        scratch: &mut DemodScratch,
        template: &[f32],
        threshold: f32,
    ) -> Option<(usize, f32)> {
        let DemodScratch {
            soft,
            ncc,
            ncc_scratch,
            ..
        } = scratch;
        ncc_real_into(soft, template, ncc, ncc_scratch);
        best_sync(ncc, threshold)
    }

    /// Hard-decides `nbits` bits from a discriminator output starting
    /// at sample `start`, integrating the middle half of each bit
    /// period. Returns `None` if the capture ends first.
    pub fn slice_bits(&self, soft: &[f32], start: usize, nbits: usize, fs: f64) -> Option<Vec<u8>> {
        let sps = self.sps(fs).ok()?;
        if nbits == 0 {
            return Some(Vec::new());
        }
        let lo = sps / 4;
        let hi = ((3 * sps) / 4).max(lo + 1);
        // Only the integration window of each bit must fit — a sync
        // estimate a sample or two late must not reject a frame that
        // ends exactly at the capture boundary.
        if start + (nbits - 1) * sps + hi > soft.len() {
            return None;
        }
        let mut bits = Vec::with_capacity(nbits);
        for k in 0..nbits {
            let w = &soft[start + k * sps + lo..start + k * sps + hi];
            let mean: f32 = w.iter().sum::<f32>() / w.len() as f32;
            bits.push(u8::from(mean >= 0.0));
        }
        Some(bits)
    }

    /// Convenience: number of samples `nbits` occupy at rate `fs`.
    pub fn bits_to_samples(&self, nbits: usize, fs: f64) -> Result<usize, PhyError> {
        Ok(nbits * self.sps(fs)?)
    }
}

/// The best alignment in a sync correlation, if it reaches `threshold`.
fn best_sync(ncc: &[f32], threshold: f32) -> Option<(usize, f32)> {
    ncc.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .filter(|&(_, &v)| v >= threshold)
        .map(|(i, &v)| (i, v))
}

/// The receiver the framed FSK technologies share: their modem, the
/// line bits of their preamble and sync word, and the sync's
/// discriminator template, shaped once per sample rate.
#[derive(Clone, Debug)]
pub(crate) struct FskSync {
    pub(crate) modem: FskModem,
    /// Preamble and sync word, in line bits.
    pub(crate) bits: Vec<u8>,
    /// The repeating preamble's line bits, along which the preamble's
    /// correlation can peak.
    pub(crate) preamble: usize,
    template: FsCache<Vec<f32>>,
}

impl FskSync {
    /// A receiver for frames opening with `bits`, of which the first
    /// `preamble` repeat.
    pub(crate) fn new(modem: FskModem, bits: Vec<u8>, preamble: usize) -> Self {
        let template = FsCache::new();
        FskSync {
            modem,
            bits,
            preamble,
            template,
        }
    }

    /// The one header reader: discriminates `capture` into
    /// `scratch.soft` and finds the sync and `phy`'s header there,
    /// returning the frame's start and its line bits past the sync word.
    pub(crate) fn read_header(
        &self,
        phy: &impl FskFramed,
        capture: &[Cf32],
        fs: f64,
        scratch: &mut DemodScratch,
    ) -> Result<(usize, usize), PhyError> {
        self.modem.discriminate_into(capture, 0, fs, scratch)?;
        let template = self.template.get_or(fs, || {
            (self.modem.sync_template(&self.bits, fs)).expect("sample rate checked by discriminate")
        });
        let found = self.modem.find_sync_in(scratch, &template, 0.55);
        let (start, _) = found.ok_or(PhyError::SyncNotFound)?;
        let at = start + self.modem.bits_to_samples(self.bits.len(), fs)?;
        let header = (self.modem).slice_bits(&scratch.soft, at, phy.header_bits(), fs);
        Ok((start, phy.frame_bits(&header.ok_or(PhyError::Truncated)?)?))
    }

    /// `phy`'s frame whose header [`FskSync::read_header`] read, from the
    /// discriminator output `soft`.
    pub(crate) fn read_frame(
        &self,
        phy: &impl FskFramed,
        (start, bits): (usize, usize),
        fs: f64,
        soft: &[f32],
    ) -> Result<DecodedFrame, PhyError> {
        let at = start + self.modem.bits_to_samples(self.bits.len(), fs)?;
        let line = (self.modem.slice_bits(soft, at, bits, fs)).ok_or(PhyError::Truncated)?;
        Ok(DecodedFrame {
            tech: phy.id(),
            payload: phy.payload(&line)?,
            start,
            len: self.modem.bits_to_samples(self.bits.len() + bits, fs)?,
        })
    }
}

/// A technology framed as the shared reader reads it: preamble and sync
/// word ([`FskSync`]), a header that gives the frame's length, the rest
/// of the frame.
pub(crate) trait FskFramed: Technology {
    /// Line bits from the end of the sync word through the length.
    fn header_bits(&self) -> usize;
    /// The frame's line bits past the sync word, read from its header's.
    fn frame_bits(&self, header: &[u8]) -> Result<usize, PhyError>;
    /// The payload the frame's line bits past the sync word carry.
    fn payload(&self, bits: &[u8]) -> Result<Vec<u8>, PhyError>;
}

/// The [`Technology`] methods a framed FSK technology — one with an
/// [`FskSync`] in its `sync` field — takes from the shared reader: its
/// class, channel and band, its preamble, and its demodulation, over a
/// whole capture and anchored in a window its header bounds
/// ([`crate::common::header_window`]): [`Technology::frame_end`] reads
/// the head once, and [`Technology::demodulate_rest`] extends that
/// read's discriminator output over the rest of the window.
macro_rules! fsk_technology {
    () => {
        fn modulation(&self) -> ModClass {
            ModClass::Fsk
        }

        fn center_offset_hz(&self) -> f64 {
            self.sync.modem.params().center_offset_hz
        }

        fn occupied_band(&self) -> Band {
            // Carson bandwidth: 2 (deviation + bitrate/2).
            let p = self.sync.modem.params();
            Band::centered(p.center_offset_hz, 2.0 * (p.deviation_hz + p.bitrate / 2.0))
        }

        fn preamble_waveform(&self, fs: f64) -> Vec<Cf32> {
            (self.sync.modem.modulate_bits(&self.sync.bits, fs))
                .expect("sample rate too low for the preamble")
        }

        fn demodulate(&self, capture: &[Cf32], fs: f64) -> Result<DecodedFrame, PhyError> {
            self.demodulate_with(capture, fs, &mut DemodScratch::default())
        }

        fn demodulate_with(
            &self,
            capture: &[Cf32],
            fs: f64,
            scratch: &mut DemodScratch,
        ) -> Result<DecodedFrame, PhyError> {
            let header = self.sync.read_header(self, capture, fs, scratch)?;
            self.sync.read_frame(self, header, fs, &scratch.soft)
        }

        fn header_samples(&self, fs: f64) -> Option<usize> {
            let sync = &self.sync;
            let bits = sync.preamble + sync.bits.len() + self.header_bits() + 1;
            sync.modem.bits_to_samples(bits, fs).ok()
        }

        fn frame_end(
            &self,
            capture: &[Cf32],
            fs: f64,
            scratch: &mut DemodScratch,
        ) -> Result<usize, PhyError> {
            scratch.header = None;
            let (start, bits) = self.sync.read_header(self, capture, fs, scratch)?;
            scratch.header = Some((capture.len(), start, bits));
            let sync = &self.sync;
            Ok(start + sync.modem.bits_to_samples(sync.bits.len() + bits, fs)?)
        }

        fn demodulate_rest(
            &self,
            capture: &[Cf32],
            fs: f64,
            scratch: &mut DemodScratch,
        ) -> Result<DecodedFrame, PhyError> {
            let Some((head, start, bits)) = scratch.header.take() else {
                return self.demodulate_with(capture, fs, scratch);
            };
            if capture.len() > head {
                (self.sync.modem).discriminate_into(capture, head, fs, scratch)?;
            }
            scratch.soft.truncate(capture.len());
            self.sync.read_frame(self, (start, bits), fs, &scratch.soft)
        }
    };
}
pub(crate) use fsk_technology;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::bytes_to_bits_msb;
    use galiot_dsp::corr::ncc_real;

    const FS: f64 = 1_000_000.0;

    /// The discriminator output of `capture`, at `FS`.
    fn soft(m: &FskModem, capture: &[Cf32], fs: f64) -> Result<Vec<f32>, PhyError> {
        let mut scratch = DemodScratch::default();
        m.discriminate_into(capture, 0, fs, &mut scratch)?;
        Ok(scratch.soft)
    }

    fn modem(bt: Option<f32>) -> FskModem {
        FskModem::new(FskParams {
            bitrate: 50_000.0,
            deviation_hz: 25_000.0,
            bt,
            center_offset_hz: 0.0,
        })
    }

    #[test]
    fn sps_computed() {
        assert_eq!(modem(None).sps(FS).unwrap(), 20);
        assert_eq!(modem(None).sps(500_000.0).unwrap(), 10);
    }

    #[test]
    fn sps_rejects_low_rate() {
        assert!(matches!(
            modem(None).sps(60_000.0),
            Err(PhyError::BadConfig(_))
        ));
    }

    #[test]
    fn modulated_signal_is_unit_amplitude() {
        let bits = bytes_to_bits_msb(&[0xA5, 0x3C]);
        let sig = modem(Some(0.5)).modulate_bits(&bits, FS).unwrap();
        assert_eq!(sig.len(), bits.len() * 20);
        for z in &sig {
            assert!((z.abs() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn slicing_no_bits_reads_nothing() {
        // A zero-length field (a header that declares an empty body)
        // fits anywhere, even past the end of the output.
        let m = modem(None);
        assert_eq!(m.slice_bits(&[0.5; 100], 0, 0, FS), Some(Vec::new()));
        assert_eq!(m.slice_bits(&[], 7, 0, FS), Some(Vec::new()));
    }

    #[test]
    fn bfsk_bits_roundtrip_clean() {
        let m = modem(None);
        let bits = bytes_to_bits_msb(&[0x55, 0x55, 0xF0, 0x96, 0x0F, 0xAA]);
        let sig = m.modulate_bits(&bits, FS).unwrap();
        let soft = soft(&m, &sig, FS).unwrap();
        let out = m.slice_bits(&soft, 0, bits.len(), FS).unwrap();
        // The first bit may be clipped by the filter edge; compare the rest.
        assert_eq!(&out[1..], &bits[1..]);
    }

    #[test]
    fn gfsk_bits_roundtrip_clean() {
        let m = modem(Some(0.5));
        let bits = bytes_to_bits_msb(&[0x55, 0x55, 0xDE, 0xAD, 0xBE, 0xEF]);
        let sig = m.modulate_bits(&bits, FS).unwrap();
        let soft = soft(&m, &sig, FS).unwrap();
        let out = m.slice_bits(&soft, 0, bits.len(), FS).unwrap();
        assert_eq!(&out[1..], &bits[1..]);
    }

    #[test]
    fn roundtrip_with_channel_offset() {
        let m = FskModem::new(FskParams {
            bitrate: 40_000.0,
            deviation_hz: 20_000.0,
            bt: None,
            center_offset_hz: 150_000.0,
        });
        let bits = bytes_to_bits_msb(&[0x55, 0xC3, 0x5A]);
        let sig = m.modulate_bits(&bits, FS).unwrap();
        let soft = soft(&m, &sig, FS).unwrap();
        let out = m.slice_bits(&soft, 0, bits.len(), FS).unwrap();
        assert_eq!(&out[1..], &bits[1..]);
    }

    #[test]
    fn a_head_extended_discriminates_as_the_whole_capture() {
        // Only the output past the head, and the channel filter's reach
        // before its end, is computed again; it must be the output of
        // one pass over the whole capture, bit for bit.
        let m = modem(Some(0.5));
        let bits = bytes_to_bits_msb(&[0x55, 0x55, 0x90, 0x4E, 0xDE, 0xAD, 0xBE, 0xEF]);
        let mut capture = vec![Cf32::ZERO; 300];
        capture.extend(m.modulate_bits(&bits, FS).unwrap());
        capture.extend([Cf32::new(0.3, -0.1); 300]);
        let whole = soft(&m, &capture, FS).unwrap();
        let mut scratch = DemodScratch::default();
        for head in [40, 41, 120, 777, 1_500, capture.len() - 1] {
            m.discriminate_into(&capture[..head], 0, FS, &mut scratch)
                .unwrap();
            m.discriminate_into(&capture, head, FS, &mut scratch)
                .unwrap();
            assert_eq!(scratch.soft, whole, "head {head}");
        }
    }

    #[test]
    fn sync_finds_embedded_frame() {
        let m = modem(Some(0.5));
        let pre = bytes_to_bits_msb(&[0x55, 0x55, 0x55, 0x55, 0x90, 0x4E]);
        let frame_bits: Vec<u8> = pre
            .iter()
            .copied()
            .chain(bytes_to_bits_msb(&[0x42, 0x13, 0x37]))
            .collect();
        let frame = m.modulate_bits(&frame_bits, FS).unwrap();
        // Embed at an odd offset inside silence.
        let mut capture = vec![Cf32::ZERO; 12_000];
        for (k, &s) in frame.iter().enumerate() {
            capture[3_217 + k] = s;
        }
        let soft = soft(&m, &capture, FS).unwrap();
        let template = m.sync_template(&pre, FS).unwrap();
        let (start, peak) = best_sync(&ncc_real(&soft, &template), 0.5).unwrap();
        assert!(peak > 0.8, "peak {peak}");
        // Bit slicing from the found start recovers the payload bits.
        let data_start = start + m.bits_to_samples(pre.len(), FS).unwrap();
        let out = m.slice_bits(&soft, data_start, 24, FS).unwrap();
        assert_eq!(crate::bits::bits_to_bytes_msb(&out), vec![0x42, 0x13, 0x37]);
    }

    #[test]
    fn sync_robust_to_cfo() {
        // 500 Hz CFO: discriminator shifts by 500/25k = 0.02 in soft
        // units plus template mismatch; zero-mean NCC must still lock.
        let m = modem(Some(0.5));
        let pre = bytes_to_bits_msb(&[0x55, 0x55, 0x55, 0x55, 0x90, 0x4E]);
        let frame = m.modulate_bits(&pre, FS).unwrap();
        let mut capture = vec![Cf32::ZERO; 8_000];
        for (k, &s) in frame.iter().enumerate() {
            capture[2_000 + k] = s;
        }
        let shifted = galiot_dsp::mix::mix(&capture, 500.0, FS);
        let soft = soft(&m, &shifted, FS).unwrap();
        let template = m.sync_template(&pre, FS).unwrap();
        let (start, _) = best_sync(&ncc_real(&soft, &template), 0.5).unwrap();
        assert!(start.abs_diff(2_000) <= 2, "start {start}");
    }

    #[test]
    fn slice_bits_refuses_overrun() {
        let m = modem(None);
        let soft = vec![0.5f32; 100];
        assert!(m.slice_bits(&soft, 0, 10, FS).is_none());
    }

    #[test]
    fn discriminate_refuses_tiny_capture() {
        let m = modem(None);
        assert!(matches!(
            soft(&m, &[Cf32::ONE; 10], FS),
            Err(PhyError::CaptureTooShort)
        ));
    }
}
