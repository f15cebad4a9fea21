//! LoRa: chirp-spread-spectrum PHY.
//!
//! The full transmit chain — payload CRC-16, PN9 whitening, Hamming
//! FEC, diagonal interleaving, gray mapping, and CSS symbol chirps with
//! the classic preamble (repeated up-chirps), two sync-word symbols and
//! a 2.25-symbol down-chirp SFD. The receiver runs the textbook
//! dechirp-and-FFT demodulator with up/down-chirp fine synchronization
//! that separates timing error from carrier-frequency offset.
//!
//! The chain is self-consistent rather than bit-exact with Semtech
//! silicon (whose whitening/interleaver details are undocumented), but
//! every stage of the real PHY is present, which is what the kill
//! filters and detection experiments exercise.

use galiot_dsp::chirp::{downchirp, extend_symbol_chirp, upchirp};
use galiot_dsp::engine::FsCache;
use galiot_dsp::fft::Fft;
use galiot_dsp::fir::Fir;
use galiot_dsp::kernels;
use galiot_dsp::mix::{mix, mix_in_place, mix_into};
use galiot_dsp::spectral::Band;
use galiot_dsp::window::Window;
use galiot_dsp::Cf32;

use crate::bits::{bits_to_bytes_msb, bytes_to_bits_msb, crc16_ccitt, Pn9};
use crate::common::{DecodedFrame, DemodScratch, ModClass, PhyError, TechId, Technology};
use crate::fec::{
    deinterleave, gray_decode, gray_encode, hamming_decode, hamming_encode, interleave, CodeRate,
};

/// Number of preamble up-chirps (the paper's Table 1: "sequence of 1s").
pub const PREAMBLE_SYMBOLS: usize = 8;
/// The two sync-word symbol values following the preamble.
pub const SYNC_SYMBOLS: [u32; 2] = [24, 32];

/// LoRa PHY parameters.
#[derive(Clone, Copy, Debug)]
pub struct LoraParams {
    /// Spreading factor, 7..=12. Symbols carry `sf` bits.
    pub sf: u32,
    /// Channel bandwidth in Hz (125 kHz in the prototype band).
    pub bw: f64,
    /// Coding rate 4/(4+cr).
    pub cr: CodeRate,
    /// Channel center offset within the capture band, Hz.
    pub center_offset_hz: f64,
}

impl Default for LoraParams {
    fn default() -> Self {
        LoraParams {
            sf: 7,
            bw: 125_000.0,
            cr: CodeRate::new(4),
            center_offset_hz: 0.0,
        }
    }
}

/// What the demodulator designs once per sample rate rather than on
/// every attempt: the anti-alias filter and the elementary chirps at
/// rate `bw`.
#[derive(Debug)]
struct DemodTables {
    /// `None` when the capture rate already equals `bw`.
    channel_fir: Option<Fir>,
    up: Vec<Cf32>,
    down: Vec<Cf32>,
}

/// The LoRa technology implementation.
#[derive(Clone, Debug)]
pub struct LoraPhy {
    params: LoraParams,
    demod: FsCache<DemodTables>,
}

impl LoraPhy {
    /// Creates a LoRa PHY.
    ///
    /// # Panics
    /// Panics if `sf` is outside 7..=12 or `bw` is non-positive.
    pub fn new(params: LoraParams) -> Self {
        assert!((7..=12).contains(&params.sf), "SF must be 7..=12");
        assert!(params.bw > 0.0, "bandwidth must be positive");
        LoraPhy {
            params,
            demod: FsCache::new(),
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &LoraParams {
        &self.params
    }

    /// Symbols per second.
    pub fn symbol_rate(&self) -> f64 {
        self.params.bw / (1u64 << self.params.sf) as f64
    }

    /// Oversampling factor and samples per symbol at capture rate `fs`.
    fn geometry(&self, fs: f64) -> Result<(usize, usize), PhyError> {
        let os = fs / self.params.bw;
        if os < 1.0 || (os - os.round()).abs() > 1e-9 {
            return Err(PhyError::BadConfig("fs must be an integer multiple of bw"));
        }
        let os = os.round() as usize;
        let sps = os << self.params.sf;
        Ok((os, sps))
    }

    /// Encodes payload bytes to gray-mapped symbol values.
    fn encode_symbols(&self, payload: &[u8]) -> Vec<u32> {
        let sf = self.params.sf;
        // Header: [len, cr | crc-present flag, xor checksum], always CR 4/8.
        let header = [
            payload.len() as u8,
            0x10 | self.params.cr.cr(),
            payload.len() as u8 ^ (0x10 | self.params.cr.cr()) ^ 0xFF,
        ];
        let hdr_rate = CodeRate::new(4);

        // Payload || CRC-16, whitened.
        let crc = crc16_ccitt(payload);
        let mut body = payload.to_vec();
        body.push((crc >> 8) as u8);
        body.push((crc & 0xFF) as u8);
        let mut body_bits = bytes_to_bits_msb(&body);
        Pn9::new().whiten(&mut body_bits);

        let mut symbols = Vec::new();
        symbols.extend(self.encode_section(&bytes_to_bits_msb(&header), hdr_rate, sf));
        symbols.extend(self.encode_section(&body_bits, self.params.cr, sf));
        symbols
    }

    /// FEC + interleave + gray one section of bits.
    fn encode_section(&self, bits: &[u8], rate: CodeRate, sf: u32) -> Vec<u32> {
        // Nibbles, MSB-first; pad with zero nibbles to a whole block.
        let mut nibbles: Vec<u8> = bits
            .chunks(4)
            .map(|c| {
                c.iter()
                    .enumerate()
                    .fold(0u8, |acc, (k, &b)| acc | ((b & 1) << (3 - k)))
            })
            .collect();
        while !nibbles.len().is_multiple_of(sf as usize) {
            nibbles.push(0);
        }
        let mut symbols = Vec::new();
        for block in nibbles.chunks(sf as usize) {
            let codewords: Vec<Vec<u8>> = block.iter().map(|&n| hamming_encode(n, rate)).collect();
            for s in interleave(&codewords, sf, rate) {
                symbols.push(gray_encode(s));
            }
        }
        symbols
    }

    /// Number of data symbols a `len`-byte payload occupies.
    fn data_symbols(&self, payload_len: usize) -> usize {
        let sf = self.params.sf as usize;
        let hdr_blocks = 6_usize.div_ceil(sf); // 3 header bytes = 6 nibbles
        let body_nibbles = (payload_len + 2) * 2; // payload + CRC16
        let body_blocks = body_nibbles.div_ceil(sf);
        hdr_blocks * CodeRate::new(4).codeword_len() + body_blocks * self.params.cr.codeword_len()
    }

    /// Decodes a gray-mapped symbol stream section back to bits.
    fn decode_section(
        &self,
        symbols: &[u32],
        rate: CodeRate,
        sf: u32,
    ) -> Result<Vec<u8>, PhyError> {
        let cwl = rate.codeword_len();
        if !symbols.len().is_multiple_of(cwl) {
            return Err(PhyError::MalformedHeader("symbol count not block-aligned"));
        }
        let mut bits = Vec::new();
        for block in symbols.chunks(cwl) {
            let ungrayed: Vec<u32> = block.iter().map(|&s| gray_decode(s)).collect();
            let codewords = deinterleave(&ungrayed, sf, rate);
            for cw in codewords {
                let (nibble, _) = hamming_decode(&cw, rate);
                bits.extend_from_slice(&[
                    (nibble >> 3) & 1,
                    (nibble >> 2) & 1,
                    (nibble >> 1) & 1,
                    nibble & 1,
                ]);
            }
        }
        Ok(bits)
    }

    /// The cached demodulator tables for capture rate `fs`
    /// (oversampling factor `os`).
    fn demod_tables(&self, fs: f64, os: usize) -> std::sync::Arc<DemodTables> {
        self.demod.get_or(fs, || {
            let n = 1usize << self.params.sf;
            let bw = self.params.bw;
            // Pass the full +-bw/2 chirp band; edge content aliases onto
            // itself after decimation, which CSS is cyclic in by design.
            let channel_fir = (os > 1).then(|| {
                let ntaps = (6 * os + 1).clamp(33, crate::common::MAX_DEMOD_FIR_TAPS);
                Fir::lowpass(0.49 * bw, fs, ntaps, Window::Hamming)
            });
            DemodTables {
                channel_fir,
                up: upchirp(bw, n, bw),
                down: downchirp(bw, n, bw),
            }
        })
    }

    /// Channelizes a capture to the LoRa baseband at rate `bw` in
    /// `scratch.base`: mix down (off DC only), anti-alias, decimate by
    /// the oversampling factor.
    fn channelize(
        &self,
        capture: &[Cf32],
        fs: f64,
        os: usize,
        fir: Option<&Fir>,
        scratch: &mut DemodScratch,
    ) {
        let DemodScratch { mixed, base, .. } = scratch;
        let input = if self.params.center_offset_hz != 0.0 {
            mix_into(capture, -self.params.center_offset_hz, fs, mixed);
            &mixed[..]
        } else {
            capture
        };
        match fir {
            Some(fir) => fir.decimate_into(input, os, base),
            None => {
                base.clear();
                base.extend_from_slice(input);
            }
        }
    }

    /// Dechirps one window with `chirp` in `buf`, returning
    /// `(peak bin, complex peak, quality)` where quality is the peak
    /// bin's share of the window energy (≈1 for a clean aligned chirp,
    /// ≈ln(n)/n for noise).
    fn dechirp_peak(
        &self,
        window: &[Cf32],
        chirp: &[Cf32],
        plan: &Fft,
        buf: &mut Vec<Cf32>,
    ) -> (usize, Cf32, f32) {
        let n = window.len().min(chirp.len());
        buf.clear();
        buf.extend_from_slice(&window[..n]);
        kernels::mul_in_place(buf, &chirp[..n]);
        plan.forward(buf);
        let bin = galiot_dsp::fft::peak_bin(buf);
        let total: f32 = kernels::energy_f32(buf);
        let q = if total > 0.0 {
            buf[bin].norm_sqr() / total
        } else {
            0.0
        };
        (bin, buf[bin], q)
    }

    /// The demodulator: the frame, or with `body` false the frame with
    /// its extent read from the header and its payload left unread.
    fn read(
        &self,
        capture: &[Cf32],
        fs: f64,
        scratch: &mut DemodScratch,
        body: bool,
    ) -> Result<DecodedFrame, PhyError> {
        let (os, _) = self.geometry(fs)?;
        let sf = self.params.sf;
        let n = 1usize << sf; // samples per symbol at rate bw
        let bw = self.params.bw;

        let tables = self.demod_tables(fs, os);
        let (up, down) = (&tables.up, &tables.down);
        self.channelize(capture, fs, os, tables.channel_fir.as_ref(), scratch);
        let (base, buf) = (&mut scratch.base, &mut scratch.symbol);
        if base.len() < (PREAMBLE_SYMBOLS + 5) * n {
            return Err(PhyError::CaptureTooShort);
        }

        // Shared cached plan: every demod call (and every cloud worker)
        // reuses one 2^sf-point plan instead of re-planning per frame.
        let plan = galiot_dsp::engine::plan(n);

        // --- Coarse sync: dechirp windows on an n-sample grid. Any
        // full window inside the preamble (a continuous repetition of
        // identical up-chirps) dechirps to one clean bin
        // b = (m + cfo) mod n, where m is the window's offset past the
        // symbol boundary. A run of consistent, high-quality windows
        // marks the preamble; this is immune to CFO, unlike waveform
        // correlation.
        let nwin = base.len() / n;
        let wins: Vec<(usize, f32)> = (0..nwin)
            .map(|i| {
                let (bin, _, q) = self.dechirp_peak(&base[i * n..(i + 1) * n], down, &plan, buf);
                (bin, q)
            })
            .collect();
        let q_thr = 0.03f32.max(3.0 * (n as f32).ln() / n as f32 / 3.0);
        let mut best_run: Option<(usize, usize)> = None; // (start win, len)
        let mut i = 0;
        while i < nwin {
            if wins[i].1 < q_thr {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < nwin && wins[j].1 >= q_thr && bin_dist(wins[j].0, wins[i].0, n) <= 1 {
                j += 1;
            }
            let len = j - i;
            if best_run.is_none_or(|(_, l)| len > l) {
                best_run = Some((i, len));
            }
            i = j.max(i + 1);
        }
        let (run_start, run_len) = best_run.ok_or(PhyError::SyncNotFound)?;
        if run_len < PREAMBLE_SYMBOLS.saturating_sub(3).max(3) {
            return Err(PhyError::SyncNotFound);
        }
        let b_up = wins[run_start + run_len / 2].0; // representative bin

        // --- Fine sync: hypothesis test. b_up = (m + cfo) mod n with
        // |cfo| bounded; for each candidate (m, extra symbol slip k),
        // the two sync-word symbols must decode to SYNC_SYMBOLS shifted
        // by the implied CFO.
        let p_i = run_start * n;
        let max_cfo_bins = 8i64;
        let nn = n as i64;
        let mut found: Option<(usize, i64)> = None; // (t_pre, cfo_bins)
                                                    // Smallest |cfo| hypotheses first.
        let mut dcs: Vec<i64> = (-max_cfo_bins..=max_cfo_bins).collect();
        dcs.sort_by_key(|d| d.abs());
        'search: for k in 0..2i64 {
            for &cfo in &dcs {
                let m = ((b_up as i64 - cfo) % nn + nn) % nn;
                let t = p_i as i64 - m + k * nn;
                if t < 0 {
                    continue;
                }
                let t_pre = t as usize;
                let sync_at = t_pre + PREAMBLE_SYMBOLS * n;
                let sfd_at = sync_at + SYNC_SYMBOLS.len() * n;
                if sfd_at + 2 * n > base.len() {
                    continue;
                }
                // Sync-word symbols must match (they shift by +cfo,
                // like the preamble, so they pin the symbol values)...
                let mut ok = true;
                for (s, &expect) in SYNC_SYMBOLS.iter().enumerate() {
                    let w = &base[sync_at + s * n..sync_at + (s + 1) * n];
                    let (bin, _, q) = self.dechirp_peak(w, down, &plan, buf);
                    let want = ((expect as i64 + cfo) % nn + nn) % nn;
                    if q < q_thr || bin_dist(bin, want as usize, n) > 1 {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    continue;
                }
                // ... and the down-chirp SFD must sit at bin cfo when
                // dechirped with an up-chirp. A timing slip of s
                // samples shifts up-dechirp bins by -s but down-dechirp
                // bins by +s, so this check breaks the (timing, CFO)
                // degeneracy the up-side checks alone cannot resolve.
                for s in 0..2usize {
                    let w = &base[sfd_at + s * n..sfd_at + (s + 1) * n];
                    let (bin, _, q) = self.dechirp_peak(w, up, &plan, buf);
                    let want = ((cfo % nn) + nn) % nn;
                    if q < q_thr || bin_dist(bin, want as usize, n) > 1 {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    found = Some((t_pre, cfo));
                    break 'search;
                }
            }
        }
        let (start, cfo_bins) = found.ok_or(PhyError::SyncNotFound)?;

        // --- Fractional CFO from the phase drift of consecutive
        // preamble dechirp peaks (each symbol advances the peak phase
        // by 2*pi*f_frac*T, i.e. by 2*pi*frac_bins).
        let mut drift = Cf32::ZERO;
        let mut prev: Option<Cf32> = None;
        for ksym in 1..PREAMBLE_SYMBOLS - 1 {
            let s = start + ksym * n;
            if s + n > base.len() {
                break;
            }
            let (_, c, _) = self.dechirp_peak(&base[s..s + n], down, &plan, buf);
            if let Some(p) = prev {
                drift += c * p.conj();
            }
            prev = Some(c);
        }
        let frac_bins = drift.arg() as f64 / (2.0 * std::f64::consts::PI);
        let cfo_hz = (cfo_bins as f64 + frac_bins) * bw / n as f64;
        if cfo_hz.abs() > 1e-3 {
            mix_in_place(base, -cfo_hz, bw, 0.0);
        }
        let base: &[Cf32] = base;

        // Data begins after preamble + sync + 2.25 downchirp SFD.
        let data_start = start + (PREAMBLE_SYMBOLS + SYNC_SYMBOLS.len()) * n + 2 * n + n / 4;

        // Header block first (always CR 4/8).
        let hdr_rate = CodeRate::new(4);
        let sf_us = sf as usize;
        let hdr_blocks = 6_usize.div_ceil(sf_us);
        let hdr_syms = hdr_blocks * hdr_rate.codeword_len();
        let mut read_symbols = |from: usize, count: usize| -> Result<Vec<u32>, PhyError> {
            let mut syms = Vec::with_capacity(count);
            for k in 0..count {
                let s = from + k * n;
                if s + n > base.len() {
                    return Err(PhyError::Truncated);
                }
                // A data symbol's value is its dechirped peak bin.
                syms.push(self.dechirp_peak(&base[s..s + n], down, &plan, buf).0 as u32);
            }
            Ok(syms)
        };
        let hdr_symbols = read_symbols(data_start, hdr_syms)?;
        let hdr_bits = self.decode_section(&hdr_symbols, hdr_rate, sf)?;
        let hdr_bytes = bits_to_bytes_msb(&hdr_bits);
        if hdr_bytes.len() < 3 {
            return Err(PhyError::MalformedHeader("short header"));
        }
        let (len, flags, check) = (hdr_bytes[0], hdr_bytes[1], hdr_bytes[2]);
        if len ^ flags ^ check != 0xFF {
            return Err(PhyError::MalformedHeader("header checksum"));
        }
        let cr = flags & 0x0F;
        if !(1..=4).contains(&cr) {
            return Err(PhyError::MalformedHeader("coding rate"));
        }
        let rate = CodeRate::new(cr);
        if len as usize > self.max_payload_len() {
            return Err(PhyError::MalformedHeader("length"));
        }

        // Body: payload + CRC16, whitened.
        let body_nibbles = (len as usize + 2) * 2;
        let body_blocks = body_nibbles.div_ceil(sf_us);
        let body_syms = body_blocks * rate.codeword_len();
        let total_syms = PREAMBLE_SYMBOLS + SYNC_SYMBOLS.len() + 2 + hdr_syms + body_syms;
        let frame = DecodedFrame {
            tech: TechId::LoRa,
            payload: Vec::new(),
            start: start * os,
            len: total_syms * n * os + (n / 4) * os,
        };
        if !body {
            return Ok(frame);
        }
        let body_symbols = read_symbols(data_start + hdr_syms * n, body_syms)?;
        let mut body_bits = self.decode_section(&body_symbols, rate, sf)?;
        Pn9::new().whiten(&mut body_bits);
        let body = bits_to_bytes_msb(&body_bits);
        if body.len() < len as usize + 2 {
            return Err(PhyError::Truncated);
        }
        let payload = body[..len as usize].to_vec();
        let rx_crc = ((body[len as usize] as u16) << 8) | body[len as usize + 1] as u16;
        if crc16_ccitt(&payload) != rx_crc {
            return Err(PhyError::CrcMismatch);
        }

        Ok(DecodedFrame { payload, ..frame })
    }
}

/// Circular distance between two bins modulo `n`.
fn bin_dist(a: usize, b: usize, n: usize) -> usize {
    let d = (a + n - b) % n;
    d.min(n - d)
}

impl Technology for LoraPhy {
    fn id(&self) -> TechId {
        TechId::LoRa
    }

    fn modulation(&self) -> ModClass {
        ModClass::Css
    }

    fn center_offset_hz(&self) -> f64 {
        self.params.center_offset_hz
    }

    fn occupied_band(&self) -> Band {
        Band::centered(self.params.center_offset_hz, self.params.bw)
    }

    fn bitrate(&self) -> f64 {
        self.params.sf as f64 * self.params.cr.rate() * self.symbol_rate()
    }

    fn preamble_waveform(&self, fs: f64) -> Vec<Cf32> {
        let (_, sps) = self
            .geometry(fs)
            .expect("fs must be integer multiple of bw");
        let up = upchirp(self.params.bw, sps, fs);
        let mut out = Vec::with_capacity(PREAMBLE_SYMBOLS * sps);
        for _ in 0..PREAMBLE_SYMBOLS {
            out.extend_from_slice(&up);
        }
        if self.params.center_offset_hz != 0.0 {
            out = mix(&out, self.params.center_offset_hz, fs);
        }
        out
    }

    fn modulate(&self, payload: &[u8], fs: f64) -> Vec<Cf32> {
        let mut out = Vec::new();
        self.modulate_into(payload, fs, &mut out);
        out
    }

    fn modulate_into(&self, payload: &[u8], fs: f64, out: &mut Vec<Cf32>) {
        assert!(
            payload.len() <= self.max_payload_len(),
            "payload exceeds LoRa maximum"
        );
        let (_, sps) = self
            .geometry(fs)
            .expect("fs must be integer multiple of bw");
        let bw = self.params.bw;
        let up = upchirp(bw, sps, fs);
        let down = downchirp(bw, sps, fs);
        let data = self.encode_symbols(payload);

        let symbols = PREAMBLE_SYMBOLS + SYNC_SYMBOLS.len() + 2 + data.len();
        out.clear();
        out.reserve_exact(symbols * sps + sps / 4);
        for _ in 0..PREAMBLE_SYMBOLS {
            out.extend_from_slice(&up);
        }
        for &s in &SYNC_SYMBOLS {
            extend_symbol_chirp(out, &up, s, self.params.sf);
        }
        // SFD: 2.25 down-chirps.
        out.extend_from_slice(&down);
        out.extend_from_slice(&down);
        out.extend_from_slice(&down[..sps / 4]);
        for sym in data {
            extend_symbol_chirp(out, &up, sym, self.params.sf);
        }
        if self.params.center_offset_hz != 0.0 {
            mix_in_place(out, self.params.center_offset_hz, fs, 0.0);
        }
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
        self.read(capture, fs, scratch, true)
    }

    fn header_samples(&self, fs: f64) -> Option<usize> {
        let (_, sps) = self.geometry(fs).ok()?;
        let hdr_syms = 6_usize.div_ceil(self.params.sf as usize) * CodeRate::new(4).codeword_len();
        // A preamble's correlation can peak as much as a preamble before
        // it; then the preamble, sync word, SFD rounded up and header,
        // and the symbol fine sync can slip.
        Some((2 * PREAMBLE_SYMBOLS + SYNC_SYMBOLS.len() + 3 + hdr_syms + 1) * sps)
    }

    fn frame_end(
        &self,
        capture: &[Cf32],
        fs: f64,
        scratch: &mut DemodScratch,
    ) -> Result<usize, PhyError> {
        let frame = self.read(capture, fs, scratch, false)?;
        Ok(frame.start + frame.len)
    }

    fn max_frame_samples(&self, fs: f64) -> usize {
        let (_, sps) = self
            .geometry(fs)
            .expect("fs must be integer multiple of bw");
        let syms = PREAMBLE_SYMBOLS
            + SYNC_SYMBOLS.len()
            + 3 // SFD (2.25 rounded up)
            + self.data_symbols(self.max_payload_len());
        syms * sps
    }

    fn max_payload_len(&self) -> usize {
        255
    }

    fn preamble_description(&self) -> &'static str {
        "sequence of 1s (repeated up-chirps)"
    }

    fn kill_recipe(&self, _fs: f64) -> crate::common::KillRecipe {
        crate::common::KillRecipe::Css {
            bw: self.params.bw,
            sf: self.params.sf,
            center_offset_hz: self.params.center_offset_hz,
            head_symbols: PREAMBLE_SYMBOLS + SYNC_SYMBOLS.len(),
            sfd_symbols: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 1_000_000.0;

    fn phy() -> LoraPhy {
        LoraPhy::new(LoraParams::default())
    }

    #[test]
    fn clean_roundtrip() {
        let p = phy();
        let payload = b"hello galiot".to_vec();
        let sig = p.modulate(&payload, FS);
        let frame = p.demodulate(&sig, FS).expect("decode");
        assert_eq!(frame.payload, payload);
        assert_eq!(frame.tech, TechId::LoRa);
        assert_eq!(frame.start, 0);
    }

    #[test]
    fn roundtrip_with_offset_and_padding() {
        let p = phy();
        let payload = vec![0xAA, 0x00, 0xFF, 0x42];
        let sig = p.modulate(&payload, FS);
        let mut capture = vec![Cf32::ZERO; sig.len() + 40_000];
        for (k, &s) in sig.iter().enumerate() {
            capture[17_531 + k] = s;
        }
        let frame = p.demodulate(&capture, FS).expect("decode");
        assert_eq!(frame.payload, payload);
        // Start reported at capture rate; decimation grid quantizes by os=8.
        assert!(frame.start.abs_diff(17_531) <= 8, "start {}", frame.start);
    }

    #[test]
    fn roundtrip_at_bw_rate() {
        // os = 1: capture rate equals bandwidth.
        let p = LoraPhy::new(LoraParams {
            bw: 125_000.0,
            ..Default::default()
        });
        let payload = vec![1, 2, 3];
        let sig = p.modulate(&payload, 125_000.0);
        let frame = p.demodulate(&sig, 125_000.0).expect("decode");
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn roundtrip_all_coding_rates() {
        for cr in 1..=4u8 {
            let p = LoraPhy::new(LoraParams {
                cr: CodeRate::new(cr),
                ..Default::default()
            });
            let payload = vec![0x5A; 8];
            let sig = p.modulate(&payload, FS);
            let frame = p
                .demodulate(&sig, FS)
                .unwrap_or_else(|e| panic!("cr {cr}: {e}"));
            assert_eq!(frame.payload, payload, "cr {cr}");
        }
    }

    #[test]
    fn roundtrip_higher_sf() {
        let p = LoraPhy::new(LoraParams {
            sf: 9,
            ..Default::default()
        });
        let payload = b"sf9".to_vec();
        let sig = p.modulate(&payload, FS);
        let frame = p.demodulate(&sig, FS).expect("decode");
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn roundtrip_with_cfo() {
        // 2 kHz CFO ~ 2 bins at SF7/125k; the up/down estimator must fix it.
        let p = phy();
        let payload = vec![9, 8, 7, 6, 5];
        let sig = p.modulate(&payload, FS);
        let mut capture = vec![Cf32::ZERO; sig.len() + 10_000];
        for (k, &s) in sig.iter().enumerate() {
            capture[4_096 + k] = s;
        }
        let shifted = mix(&capture, 2_000.0, FS);
        let frame = p.demodulate(&shifted, FS).expect("decode under CFO");
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let p = phy();
        let sig = p.modulate(&[], FS);
        let frame = p.demodulate(&sig, FS).expect("decode");
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let p = phy();
        let sig = p.modulate(b"payload", FS);
        // Zero out a few data symbols near the end (past header).
        let n = sig.len();
        let mut bad = sig;
        for z in &mut bad[n - 3000..n - 1000] {
            *z = Cf32::ZERO;
        }
        match p.demodulate(&bad, FS) {
            Err(PhyError::CrcMismatch) | Err(PhyError::MalformedHeader(_)) => {}
            other => panic!("expected CRC/Header error, got {other:?}"),
        }
    }

    #[test]
    fn noise_only_capture_is_rejected() {
        let p = phy();
        // Deterministic pseudo-noise.
        let capture: Vec<Cf32> = (0..60_000)
            .map(|i| {
                let x = ((i as u64).wrapping_mul(6364136223846793005).wrapping_add(1) >> 33) as f32
                    / (1u64 << 31) as f32
                    - 1.0;
                let y = ((i as u64 ^ 0xdead).wrapping_mul(6364136223846793005) >> 33) as f32
                    / (1u64 << 31) as f32
                    - 1.0;
                Cf32::new(x * 0.1, y * 0.1)
            })
            .collect();
        assert!(p.demodulate(&capture, FS).is_err());
    }

    #[test]
    fn bitrate_matches_formula() {
        let p = phy();
        // SF7, CR 4/8, 125 kHz: 7 * 0.5 * 125000/128 = 3417.97 bps.
        assert!((p.bitrate() - 3_417.97).abs() < 1.0);
    }

    #[test]
    fn rejects_non_integer_oversampling() {
        let p = phy();
        assert!(matches!(
            p.demodulate(&[Cf32::ZERO; 100_000], 1_100_000.0),
            Err(PhyError::BadConfig(_))
        ));
    }

    #[test]
    fn max_frame_samples_bounds_modulated_length() {
        let p = phy();
        let sig = p.modulate(&vec![0x55; 255], FS);
        assert!(sig.len() <= p.max_frame_samples(FS));
        // ... and isn't absurdly conservative (within 25%).
        assert!(sig.len() * 5 >= p.max_frame_samples(FS) * 4);
    }

    #[test]
    fn the_header_window_holds_the_frame_the_longest_window_gives() {
        use crate::common::{anchored_window, header_window, MAX_DEMOD_FIR_TAPS};
        let (p, pad) = (phy(), MAX_DEMOD_FIR_TAPS + 64);
        let scratch = &mut DemodScratch::default();
        for (len, at) in [(0, 5_000), (10, 40_321), (60, 9_999)] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let frame = p.modulate(&payload, FS);
            let mut capture = vec![Cf32::new(0.01, -0.02); 800_000];
            for (dst, &src) in capture[at..].iter_mut().zip(&frame) {
                *dst += src;
            }
            // A preamble peak a few symbols off the frame's start, as a
            // correlation's sidelobe comb puts one.
            for anchor in [at - 4_096..=at - 4_096, at..=at + 3_072] {
                let whole = anchored_window(&p, FS, anchor.clone(), pad, capture.len());
                let want = p.demodulate(&capture[whole.clone()], FS).unwrap();
                let cut = header_window(
                    &p,
                    &capture,
                    FS,
                    anchor.clone(),
                    pad,
                    capture.len(),
                    scratch,
                )
                .unwrap()
                .unwrap();
                assert_eq!(cut.start, whole.start);
                assert_eq!(
                    cut.end,
                    whole.start + want.start + want.len + pad,
                    "{len} bytes"
                );
                let got = p.demodulate(&capture[cut.clone()], FS).unwrap();
                assert_eq!(
                    (got.start, got.len, &got.payload),
                    (want.start, want.len, &payload)
                );
                // Short of the header it asks for more.
                let short = &capture[..anchor.end() + 20_000];
                let asks = header_window(&p, short, FS, anchor, pad, capture.len(), scratch);
                assert!(matches!(asks, Err(n) if n > short.len()), "{asks:?}");
            }
        }
    }

    #[test]
    fn preamble_waveform_is_plain_upchirps() {
        let p = phy();
        let pre = p.preamble_waveform(FS);
        assert_eq!(pre.len(), PREAMBLE_SYMBOLS * 1024);
        // Dechirping any symbol window yields bin 0.
        let down = downchirp(125_000.0, 1024, FS);
        let mut buf: Vec<Cf32> = pre[0..1024]
            .iter()
            .zip(&down)
            .map(|(&a, &b)| a * b)
            .collect();
        galiot_dsp::fft::fft(&mut buf);
        assert_eq!(galiot_dsp::fft::peak_bin(&buf), 0);
    }
}
