//! The common PHY abstraction every technology implements.
//!
//! A [`Technology`] turns payload bytes into a complex baseband
//! waveform at the *gateway* sample rate (with the technology's channel
//! placed at a configurable frequency offset inside the capture band)
//! and back. The universal-preamble detector, the kill filters and the
//! SIC engine all manipulate technologies exclusively through this
//! trait, which is what makes GalioT extensible "through simple
//! software updates" (paper, Sec. 1).

use galiot_dsp::corr::NccScratch;
use galiot_dsp::spectral::Band;
use galiot_dsp::Cf32;
use std::fmt;

/// Identifies a radio technology.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TechId {
    /// LoRa (chirp spread spectrum, Semtech/LoRa Alliance).
    LoRa,
    /// Z-Wave (ITU-T G.9959 BFSK/GFSK).
    ZWave,
    /// XBee-style IEEE 802.15.4g MR-FSK (2-GFSK).
    XBee,
    /// Bluetooth Low Energy (GFSK).
    Ble,
    /// SigFox-style ultra-narrow-band D-BPSK.
    SigFox,
    /// IEEE 802.15.4-style O-QPSK with DSSS chip spreading.
    OqpskDsss,
}

impl TechId {
    /// All identifiers, in registry order.
    pub const ALL: [TechId; 6] = [
        TechId::LoRa,
        TechId::ZWave,
        TechId::XBee,
        TechId::Ble,
        TechId::SigFox,
        TechId::OqpskDsss,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            TechId::LoRa => "LoRa",
            TechId::ZWave => "Z-Wave",
            TechId::XBee => "XBee",
            TechId::Ble => "BLE",
            TechId::SigFox => "SigFox",
            TechId::OqpskDsss => "O-QPSK/DSSS",
        }
    }
}

impl fmt::Display for TechId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The modulation class a technology belongs to — this is what selects
/// the kill filter in Algorithm 1 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModClass {
    /// Chirp spread spectrum (KILL-CSS).
    Css,
    /// Frequency-shift keying, binary or Gaussian-shaped
    /// (KILL-FREQUENCY on the mark/space tones).
    Fsk,
    /// Phase-shift keying (KILL-FREQUENCY on the occupied band).
    Psk,
    /// Direct-sequence spreading with (near-)orthogonal codes
    /// (KILL-CODES).
    DsssCodes,
}

impl fmt::Display for ModClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModClass::Css => "CSS",
            ModClass::Fsk => "FSK",
            ModClass::Psk => "PSK",
            ModClass::DsssCodes => "DSSS",
        };
        f.write_str(s)
    }
}

/// Errors a demodulator can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PhyError {
    /// No preamble/sync word found in the capture.
    SyncNotFound,
    /// Sync found but the frame runs past the end of the capture.
    Truncated,
    /// Frame decoded but its CRC/checksum failed.
    CrcMismatch,
    /// A header field was inconsistent (bad length, reserved bits...).
    MalformedHeader(&'static str),
    /// The capture is too short to contain any frame of this PHY.
    CaptureTooShort,
    /// Configuration error (e.g. sample rate below the PHY's minimum).
    BadConfig(&'static str),
}

impl fmt::Display for PhyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhyError::SyncNotFound => write!(f, "preamble/sync not found"),
            PhyError::Truncated => write!(f, "frame truncated by capture boundary"),
            PhyError::CrcMismatch => write!(f, "CRC mismatch"),
            PhyError::MalformedHeader(what) => write!(f, "malformed header: {what}"),
            PhyError::CaptureTooShort => write!(f, "capture too short"),
            PhyError::BadConfig(what) => write!(f, "bad configuration: {what}"),
        }
    }
}

impl std::error::Error for PhyError {}

/// How to "kill" (surgically remove) a technology's signal from a
/// collision, based on its modulation — the dispatch data behind the
/// paper's KILL-FREQUENCY / KILL-CSS / KILL-CODES filters (Sec. 5).
#[derive(Clone, Debug)]
pub enum KillRecipe {
    /// Suppress these spectral bands — FSK technologies concentrate
    /// energy at their mark/space tones, PSK at its occupied band.
    Frequency(Vec<Band>),
    /// Multiply by a down-chirp so the CSS signal collapses to
    /// narrowband tones, notch those, re-chirp. The frame-anatomy
    /// fields let the filter align its symbol windows to each region
    /// of a CSS frame (up-chirp head, down-chirp SFD, quarter-shifted
    /// data grid).
    Css {
        /// Chirp bandwidth in Hz.
        bw: f64,
        /// Spreading factor (symbols are cyclic shifts of 2^sf steps).
        sf: u32,
        /// Channel center offset within the capture, Hz.
        center_offset_hz: f64,
        /// Up-chirp-family symbols at the frame head (preamble + sync).
        head_symbols: usize,
        /// Whole down-chirp symbols in the SFD (followed by a quarter).
        sfd_symbols: usize,
    },
    /// Project symbol-aligned windows onto the technology's code
    /// reference waveforms and subtract the projection.
    Codes {
        /// Reference waveforms, one per code, at the capture rate, at DC.
        refs: Vec<Vec<Cf32>>,
        /// Samples per code symbol at the capture rate.
        sps: usize,
        /// Channel center offset within the capture, Hz.
        center_offset_hz: f64,
    },
}

/// A successfully decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodedFrame {
    /// Which technology produced it.
    pub tech: TechId,
    /// The recovered payload bytes.
    pub payload: Vec<u8>,
    /// Sample index (in the capture handed to the demodulator) where
    /// the frame's preamble begins.
    pub start: usize,
    /// Number of capture samples the frame occupies.
    pub len: usize,
}

/// The intermediates of a demodulation, in buffers a caller keeps from
/// one attempt to the next — a cloud decode worker across segments, a
/// gateway session across edge attempts — so that an attempt writes
/// into memory already held instead of allocating for its window.
///
/// Buffers are sized by the longest window seen. No demodulator reads
/// what an earlier call left in them — each is cleared before it is
/// filled, so a result never depends on the scratch it was computed in —
/// except [`Technology::demodulate_rest`], which continues from the
/// header [`Technology::frame_end`] read.
#[derive(Debug, Default)]
pub struct DemodScratch {
    /// The capture mixed to the channel's center.
    pub(crate) mixed: Vec<Cf32>,
    /// The channel filter's output, at the capture rate.
    pub(crate) filtered: Vec<Cf32>,
    /// LoRa: the decimated baseband at rate `bw`.
    pub(crate) base: Vec<Cf32>,
    /// LoRa: the symbol window being dechirped.
    pub(crate) symbol: Vec<Cf32>,
    /// FSK: the discriminator output.
    pub(crate) soft: Vec<f32>,
    /// FSK: the sync correlation, and its working memory.
    pub(crate) ncc: Vec<f32>,
    pub(crate) ncc_scratch: NccScratch,
    /// FSK: the header [`Technology::frame_end`] read last — the samples
    /// it discriminated, the frame's start and its line bits past the
    /// sync word.
    pub(crate) header: Option<(usize, usize, usize)>,
}

/// A radio technology: modulator, demodulator and the metadata the
/// gateway and cloud need (preamble waveform, occupied band, class).
///
/// All waveforms are complex baseband at the sample rate `fs` passed in
/// (the gateway capture rate, 1 MHz in the paper's prototype), with the
/// technology's channel centered at [`Technology::center_offset_hz`]
/// relative to the capture center.
pub trait Technology: Send + Sync {
    /// Identity of this technology.
    fn id(&self) -> TechId;

    /// Modulation class, selecting the kill filter.
    fn modulation(&self) -> ModClass;

    /// Channel center offset within the capture band, in Hz.
    fn center_offset_hz(&self) -> f64;

    /// The band this technology occupies within the capture (around
    /// [`Technology::center_offset_hz`]).
    fn occupied_band(&self) -> Band;

    /// Nominal over-the-air bit rate (payload bits per second is lower
    /// once framing/FEC overheads are counted).
    fn bitrate(&self) -> f64;

    /// The modulated preamble+sync waveform at rate `fs` — the template
    /// both the matched-filter bank and the universal preamble build on.
    fn preamble_waveform(&self, fs: f64) -> Vec<Cf32>;

    /// Modulates one frame carrying `payload`, returning unit-power
    /// baseband samples at rate `fs`.
    fn modulate(&self, payload: &[u8], fs: f64) -> Vec<Cf32>;

    /// [`Technology::modulate`] into `out`, a buffer the caller keeps
    /// from one call to the next: whatever it held is discarded, and it
    /// comes back with the frame's samples. The default copies a fresh
    /// modulation in.
    fn modulate_into(&self, payload: &[u8], fs: f64, out: &mut Vec<Cf32>) {
        out.clear();
        out.extend_from_slice(&self.modulate(payload, fs));
    }

    /// Attempts to decode the first frame of this technology inside
    /// `capture` (complex baseband at rate `fs`).
    fn demodulate(&self, capture: &[Cf32], fs: f64) -> Result<DecodedFrame, PhyError>;

    /// [`Technology::demodulate`] with its intermediates in `scratch`,
    /// which the caller keeps from one call to the next: the same
    /// result, bit for bit, without allocating for the capture once the
    /// scratch has grown to it. The default ignores the scratch.
    fn demodulate_with(
        &self,
        capture: &[Cf32],
        fs: f64,
        _scratch: &mut DemodScratch,
    ) -> Result<DecodedFrame, PhyError> {
        self.demodulate(capture, fs)
    }

    /// The samples from a peak of a frame's preamble correlation through
    /// the frame's header, for a technology whose header gives the
    /// frame's length ([`Technology::frame_end`]); `None` where it does
    /// not.
    fn header_samples(&self, _fs: f64) -> Option<usize> {
        None
    }

    /// Where the first frame of this technology in `capture` ends, read
    /// from its sync and header alone: the end of the frame
    /// [`Technology::demodulate`] would return, its payload unread. `Err`
    /// where no header is found, or the technology has none. What the
    /// read leaves in `scratch` is what [`Technology::demodulate_rest`]
    /// continues from.
    fn frame_end(
        &self,
        _capture: &[Cf32],
        _fs: f64,
        _scratch: &mut DemodScratch,
    ) -> Result<usize, PhyError> {
        Err(PhyError::MalformedHeader("no length header"))
    }

    /// Demodulates the frame whose header [`Technology::frame_end`] read
    /// last into `scratch`, from the head of `capture`, continuing from
    /// that read rather than reading the head again. The default
    /// demodulates `capture` afresh ([`Technology::demodulate_with`]).
    fn demodulate_rest(
        &self,
        capture: &[Cf32],
        fs: f64,
        scratch: &mut DemodScratch,
    ) -> Result<DecodedFrame, PhyError> {
        self.demodulate_with(capture, fs, scratch)
    }

    /// Upper bound on the number of samples a maximum-length frame
    /// occupies at rate `fs` — the gateway ships twice this around each
    /// detection (paper, Sec. 4).
    fn max_frame_samples(&self, fs: f64) -> usize;

    /// Maximum payload length in bytes accepted by [`Technology::modulate`].
    fn max_payload_len(&self) -> usize;

    /// A short description of the sync/preamble structure for Table 1.
    fn preamble_description(&self) -> &'static str;

    /// The "kill" filter that removes this technology from a collision
    /// (paper, Sec. 5), built for capture rate `fs`.
    fn kill_recipe(&self, fs: f64) -> KillRecipe;
}

/// Upper bound on the tap count of any demodulator's channel filter
/// (the PHYs clamp their designs to it). A demodulator's output is only
/// trustworthy this far inside the slice it was handed, so callers that
/// cut a capture down to one frame pad the cut by at least this much.
pub const MAX_DEMOD_FIR_TAPS: usize = 513;

/// Windows cut out of a capture start on multiples of this many
/// samples. A demodulator that decimates and slices symbols on a fixed
/// grid from the first sample it is handed (LoRa: by `fs / bw`, then
/// `2^sf` chips) recovers no fractional timing, so whether a marginal
/// frame decodes depends on where its slice starts; a window must hand
/// it the phase and grid the whole capture would have, not draw new
/// ones. 1024 is the longest symbol of the prototype technologies at
/// the prototype rate (LoRa SF7 at 8x oversampling); for longer symbols
/// only the decimation phase is preserved.
pub const WINDOW_ALIGN: usize = 1024;

/// The slice of a `capture_len`-sample capture that a frame of `tech`
/// can occupy when its preamble starts somewhere in `anchor`, widened
/// by `pad` samples each side (and down to [`WINDOW_ALIGN`]).
pub fn anchored_window(
    tech: &dyn Technology,
    fs: f64,
    anchor: std::ops::RangeInclusive<usize>,
    pad: usize,
    capture_len: usize,
) -> std::ops::Range<usize> {
    let hi = anchor
        .end()
        .saturating_add(tech.max_frame_samples(fs))
        .saturating_add(pad)
        .min(capture_len);
    let lo = anchor.start().saturating_sub(pad) / WINDOW_ALIGN * WINDOW_ALIGN;
    lo.min(hi)..hi
}

/// The [`anchored_window`] cut where the frame's header says it ends,
/// read from its head — the window's first samples through
/// [`Technology::header_samples`] past `anchor`, and `pad` — of
/// `capture`; uncut where the technology has no length header. `Ok(Err)`
/// where it has one and none is read at the anchor: nothing past the
/// head is worth demodulating. `Err` carries the capture length the head
/// needs while `capture` is shorter. The read stays in `scratch` for
/// [`demodulate_window`].
pub fn header_window(
    tech: &dyn Technology,
    capture: &[Cf32],
    fs: f64,
    anchor: std::ops::RangeInclusive<usize>,
    pad: usize,
    capture_len: usize,
    scratch: &mut DemodScratch,
) -> Result<Result<std::ops::Range<usize>, PhyError>, usize> {
    let window = anchored_window(tech, fs, anchor.clone(), pad, capture_len);
    let Some(header) = tech.header_samples(fs) else {
        return Ok(Ok(window));
    };
    let head_end = anchor.end().saturating_add(header).saturating_add(pad);
    let head = window.start..head_end.min(window.end);
    let held = capture.get(head.clone()).ok_or(head.end)?;
    Ok(tech
        .frame_end(held, fs, scratch)
        .map(|end| window.start..(head.start + end).saturating_add(pad).min(window.end)))
}

/// Demodulates the frame in `window` of `capture` whose header
/// [`header_window`] read into `scratch` when it cut the window
/// ([`Technology::demodulate_rest`]), with [`DecodedFrame::start`]
/// re-based to `capture` coordinates.
pub fn demodulate_window(
    tech: &dyn Technology,
    capture: &[Cf32],
    fs: f64,
    window: std::ops::Range<usize>,
    scratch: &mut DemodScratch,
) -> Result<DecodedFrame, PhyError> {
    let mut frame = tech.demodulate_rest(&capture[window.clone()], fs, scratch)?;
    frame.start += window.start;
    Ok(frame)
}

/// Demodulates the frame of `tech` whose preamble a classifier placed
/// in `anchor`, on the [`header_window`] only, with
/// [`DecodedFrame::start`] re-based to `capture` coordinates. Cost
/// follows the frame, not the capture — an anchor where no header is
/// read costs its head — and a second frame of the same technology
/// elsewhere in the capture cannot capture the sync search.
pub fn demodulate_anchored(
    tech: &dyn Technology,
    capture: &[Cf32],
    fs: f64,
    anchor: std::ops::RangeInclusive<usize>,
    pad: usize,
) -> Result<DecodedFrame, PhyError> {
    let scratch = &mut DemodScratch::default();
    demodulate_anchored_with(tech, capture, fs, anchor, pad, scratch)
}

/// [`demodulate_anchored`] with the demodulator's intermediates in
/// `scratch`.
pub fn demodulate_anchored_with(
    tech: &dyn Technology,
    capture: &[Cf32],
    fs: f64,
    anchor: std::ops::RangeInclusive<usize>,
    pad: usize,
    scratch: &mut DemodScratch,
) -> Result<DecodedFrame, PhyError> {
    let len = capture.len();
    let window = header_window(tech, capture, fs, anchor, pad, len, scratch)
        .expect("a window inside the capture holds its head")?;
    demodulate_window(tech, capture, fs, window, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xbee::{XbeeParams, XbeePhy};

    const FS: f64 = 1_000_000.0;
    const PAD: usize = MAX_DEMOD_FIR_TAPS + 64;

    /// `len` silent samples with one XBee frame starting at `at`
    /// (cut off where the capture ends).
    fn xbee_at(at: usize, len: usize, payload: &[u8]) -> Vec<Cf32> {
        let mut capture = vec![Cf32::ZERO; len];
        let frame = XbeePhy::new(XbeeParams::default()).modulate(payload, FS);
        for (dst, &src) in capture[at..].iter_mut().zip(&frame) {
            *dst = src;
        }
        capture
    }

    #[test]
    fn anchored_demodulation_reports_capture_coordinates() {
        let xbee = XbeePhy::new(XbeeParams::default());
        let capture = xbee_at(150_000, 200_000, b"anchored");
        let frame =
            demodulate_anchored(&xbee, &capture, FS, 150_003..=150_003, PAD).expect("decode");
        assert_eq!(frame.payload, b"anchored");
        assert!(frame.start.abs_diff(150_000) <= 2, "start {}", frame.start);
        // The window is the frame's neighbourhood, not the capture.
        let window = anchored_window(&xbee, FS, 150_003..=150_003, PAD, capture.len());
        assert_eq!(window.start % WINDOW_ALIGN, 0);
        assert!((150_003 - PAD - window.start) < WINDOW_ALIGN);
        assert!(window.len() < xbee.max_frame_samples(FS) + 2 * PAD + WINDOW_ALIGN);
        // An anchor range opens the window at its first lag and sizes
        // it from its last.
        let wide = anchored_window(&xbee, FS, 100_000..=150_003, PAD, capture.len());
        let opens = (100_000 - PAD) / WINDOW_ALIGN * WINDOW_ALIGN;
        assert_eq!((wide.start, wide.end), (opens, window.end));
    }

    #[test]
    fn anchor_within_pad_of_either_end_of_the_capture() {
        let xbee = XbeePhy::new(XbeeParams::default());
        // Closer to sample 0 than the pad: the window clips at 0.
        let head = xbee_at(40, 30_000, b"head");
        let frame = demodulate_anchored(&xbee, &head, FS, 40..=40, PAD).expect("decode at head");
        assert_eq!(frame.payload, b"head");
        assert!(frame.start.abs_diff(40) <= 2, "start {}", frame.start);
        // The frame's last sample is the capture's last: the window
        // clips at the end and the whole frame is still inside.
        let n = xbee.modulate(b"tail", FS).len();
        let tail = xbee_at(30_000 - n, 30_000, b"tail");
        let at = 30_000 - n;
        let frame = demodulate_anchored(&xbee, &tail, FS, at..=at, PAD).expect("decode at tail");
        assert_eq!(frame.payload, b"tail");
        assert!(
            frame.start.abs_diff(30_000 - n) <= 2,
            "start {}",
            frame.start
        );
    }

    #[test]
    fn frame_cut_by_the_capture_end_is_an_error_not_a_panic() {
        let xbee = XbeePhy::new(XbeeParams::default());
        let n = xbee.modulate(&[7; 40], FS).len();
        // Cut mid-payload, mid-header, mid-preamble and down to nothing.
        for keep in [n - 200, 1_200, 300, 30, 1] {
            let len = 20_000 + keep;
            let capture = xbee_at(20_000, len, &[7; 40]);
            let got = demodulate_anchored(&xbee, &capture, FS, 20_000..=20_000, PAD);
            assert!(
                matches!(
                    got,
                    Err(PhyError::Truncated | PhyError::CaptureTooShort | PhyError::SyncNotFound)
                ),
                "{keep} samples kept: {got:?}"
            );
        }
        // Anchors at and past the end: an empty window, never a slice
        // out of range, and a head that ends with the capture however
        // far past it the anchor's header would reach.
        let capture = xbee_at(1_000, 10_000, b"x");
        let scratch = &mut DemodScratch::default();
        for tech in crate::registry::Registry::prototype().techs() {
            let tech = tech.as_ref();
            for anchor in [9_999, 10_000, usize::MAX - PAD, usize::MAX] {
                let (at, len) = (anchor..=anchor, capture.len());
                let label = format!("{} anchored at {anchor}", tech.id());
                assert!(anchored_window(tech, FS, at.clone(), PAD, len).end <= len);
                assert!(demodulate_anchored(tech, &capture, FS, at.clone(), PAD).is_err());
                let cut = header_window(tech, &capture, FS, at.clone(), PAD, len, scratch);
                assert!(matches!(cut, Ok(Err(_))), "{label}: {cut:?}");
                // Of a capture still arriving, the head waits for the
                // capture's end, and no further.
                let arrived = &capture[..5_000];
                let asks = header_window(tech, arrived, FS, at, PAD, len, scratch);
                assert_eq!(asks, Err(len), "{label}");
            }
        }
    }

    /// `len` samples of uniform complex noise at `power`, with each
    /// `(waveform, at, gain)` added in.
    fn capture(len: usize, power: f32, frames: &[(&[Cf32], usize, f32)], seed: u64) -> Vec<Cf32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Uniform on [-a, a) has power a^2 / 3 per component.
        let a = (1.5 * power).sqrt();
        let mut capture: Vec<Cf32> = (0..len)
            .map(|_| Cf32::new(rng.gen_range(-a..a), rng.gen_range(-a..a)))
            .collect();
        for &(frame, at, gain) in frames {
            for (dst, &src) in capture[at..].iter_mut().zip(frame) {
                *dst += src * gain;
            }
        }
        capture
    }

    /// Fills every buffer of `scratch` whose type allows it with NaN, at
    /// more than `len` samples: whatever a call reads of it shows.
    fn poison(scratch: &mut DemodScratch, len: usize) {
        let nan = Cf32::new(f32::NAN, f32::NAN);
        for buf in [
            &mut scratch.mixed,
            &mut scratch.filtered,
            &mut scratch.base,
            &mut scratch.symbol,
        ] {
            *buf = vec![nan; len + 4_099];
        }
        for buf in [&mut scratch.soft, &mut scratch.ncc] {
            *buf = vec![f32::NAN; len + 4_099];
        }
        // A header read that never happened.
        scratch.header = Some((len + 4_099, 7, 64));
    }

    #[test]
    fn a_reused_scratch_demodulates_every_capture_as_a_fresh_one() {
        let registry = crate::registry::Registry::prototype();
        let [lora, xbee, zwave] = [TechId::LoRa, TechId::XBee, TechId::ZWave]
            .map(|id| registry.get(id).expect("prototype technology").clone());
        let lora_frame = lora.modulate(b"reused scratch", FS);
        let xbee_frame = xbee.modulate(&[0x5A; 24], FS);
        let zwave_frame = zwave.modulate(b"zw", FS);
        // A LoRa+XBee collision with a Z-Wave frame clear of it, a short
        // capture holding one clean frame, noise, and the first again:
        // buffers grown long, then reused short, then long again.
        let collision = capture(
            400_000,
            0.01,
            &[
                (&lora_frame, 20_000, 1.0),
                (&xbee_frame, 45_000, 2.0),
                (&zwave_frame, 300_000, 1.0),
            ],
            1,
        );
        let clean = capture(30_000, 0.001, &[(&zwave_frame, 4_000, 1.0)], 2);
        let noise = capture(120_000, 1.0, &[], 3);
        let sequence = [&collision, &clean, &noise, &collision];
        for tech in [&lora, &xbee, &zwave] {
            let (mut scratch, mut decoded) = (DemodScratch::default(), 0);
            for (k, samples) in sequence.iter().enumerate() {
                let fresh = tech.demodulate(samples, FS);
                let label = format!("{} on capture {k}", tech.id());
                // As the previous call left the scratch...
                let reused = tech.demodulate_with(samples, FS, &mut scratch);
                assert_eq!(reused, fresh, "{label}");
                // ...and with every buffer longer and full of NaN.
                poison(&mut scratch, samples.len());
                let poisoned = tech.demodulate_with(samples, FS, &mut scratch);
                assert_eq!(poisoned, fresh, "{label}, poisoned scratch");
                decoded += usize::from(fresh.is_ok());
                // Anchored, as the decoders call it.
                let anchor = 20_000..=45_000;
                let fresh = demodulate_anchored(tech.as_ref(), samples, FS, anchor.clone(), PAD);
                let reused =
                    demodulate_anchored_with(tech.as_ref(), samples, FS, anchor, PAD, &mut scratch);
                assert_eq!(reused, fresh, "{label}, anchored");
            }
            // LoRa and XBee decode out of the collision, Z-Wave where it
            // is clean: the comparison is not only of errors.
            assert!(decoded >= 2, "{} decoded {decoded} times", tech.id());
        }
    }

    #[test]
    fn tech_ids_are_distinct_and_named() {
        let mut names: Vec<&str> = TechId::ALL.iter().map(|t| t.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), TechId::ALL.len());
    }

    #[test]
    fn errors_format() {
        let msgs = [
            PhyError::SyncNotFound.to_string(),
            PhyError::Truncated.to_string(),
            PhyError::CrcMismatch.to_string(),
            PhyError::MalformedHeader("len").to_string(),
            PhyError::CaptureTooShort.to_string(),
            PhyError::BadConfig("fs").to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }

    #[test]
    fn modclass_display() {
        assert_eq!(ModClass::Css.to_string(), "CSS");
        assert_eq!(ModClass::Fsk.to_string(), "FSK");
        assert_eq!(ModClass::Psk.to_string(), "PSK");
        assert_eq!(ModClass::DsssCodes.to_string(), "DSSS");
    }
}
