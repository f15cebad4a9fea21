//! RTL-SDR front-end model.
//!
//! The paper's gateway is a ~$20 RTL-SDR: an 8-bit tuner capturing
//! 1 MHz of the 868 MHz band. The dominant effects of that hardware on
//! detection are the coarse 8-bit quantization, the tuner's DC spike,
//! a little IQ imbalance, and the gain setting that trades clipping
//! against quantization noise — all modelled here so the detection
//! experiments see what the prototype saw.
//!
//! A live gateway keeps the latest analog samples in an [`AnalogRing`]
//! and takes its auto gain over a window that slides one step at a time
//! ([`SlidingGain`]): each sample's power is summed once, as it arrives,
//! and only what the gateway reads is digitized
//! ([`RtlSdrFrontEnd::digitize_range`]).

use std::collections::VecDeque;
use std::ops::Range;

use galiot_dsp::kernels::Adc;
use galiot_dsp::Cf32;

/// RTL-SDR front-end parameters.
#[derive(Clone, Copy, Debug)]
pub struct FrontEndParams {
    /// ADC bit depth (8 for the RTL2832U).
    pub adc_bits: u32,
    /// Linear gain applied before quantization. With `auto_gain` the
    /// capture is scaled so its RMS sits at [`FrontEndParams::target_rms`]
    /// of full scale instead.
    pub gain: f32,
    /// Enable automatic gain (scale RMS to `target_rms` of full scale).
    pub auto_gain: bool,
    /// Target RMS as a fraction of full scale for auto gain.
    pub target_rms: f32,
    /// DC offset added by the tuner (fraction of full scale).
    pub dc_offset: f32,
    /// IQ amplitude imbalance (Q gain relative to I, 1.0 = none).
    pub iq_gain_imbalance: f32,
    /// IQ phase imbalance in radians (0 = none).
    pub iq_phase_imbalance: f32,
}

impl Default for FrontEndParams {
    fn default() -> Self {
        FrontEndParams {
            adc_bits: 8,
            gain: 1.0,
            auto_gain: true,
            target_rms: 0.2,
            dc_offset: 0.004,
            iq_gain_imbalance: 1.01,
            iq_phase_imbalance: 0.01,
        }
    }
}

/// The RTL-SDR front-end model.
#[derive(Clone, Debug)]
pub struct RtlSdrFrontEnd {
    params: FrontEndParams,
}

impl RtlSdrFrontEnd {
    /// Creates a front end.
    ///
    /// # Panics
    /// Panics unless `1 <= adc_bits <= 16`.
    pub fn new(params: FrontEndParams) -> Self {
        assert!(
            (1..=16).contains(&params.adc_bits),
            "ADC depth must be 1..=16 bits"
        );
        RtlSdrFrontEnd { params }
    }

    /// An ideal front end (float passthrough) for A/B experiments.
    pub fn ideal() -> Self {
        RtlSdrFrontEnd::new(FrontEndParams {
            adc_bits: 16,
            auto_gain: true,
            dc_offset: 0.0,
            iq_gain_imbalance: 1.0,
            iq_phase_imbalance: 0.0,
            ..Default::default()
        })
    }

    /// The parameters in use.
    pub fn params(&self) -> &FrontEndParams {
        &self.params
    }

    /// Digitizes an analog capture: gain, IQ impairments, DC offset,
    /// clipping to full scale, and quantization to the ADC grid.
    /// Output remains in float full-scale units (`-1.0..=1.0` grid).
    pub fn digitize(&self, analog: &[Cf32]) -> Vec<Cf32> {
        let mut out = Vec::new();
        self.digitize_into(analog, &mut out);
        out
    }

    /// [`RtlSdrFrontEnd::digitize`] into a caller-held buffer.
    pub fn digitize_into(&self, analog: &[Cf32], out: &mut Vec<Cf32>) {
        let energy = match self.params.auto_gain {
            true => galiot_dsp::kernels::energy_f64(analog),
            false => 0.0,
        };
        let gain = self.gain(energy, analog.len());
        out.resize(analog.len(), Cf32::ZERO);
        self.digitize_at(gain, analog, out);
    }

    /// The gain a window of `len` analog samples holding `energy`
    /// (`sum |z|^2`) is digitized at: with auto gain, what brings the
    /// window's RMS to the target; otherwise the fixed gain. A gateway
    /// session sums a sliding window's energy step by step.
    pub fn gain(&self, energy: f64, len: usize) -> f32 {
        let p = &self.params;
        if !p.auto_gain {
            return p.gain;
        }
        // `power::mean_power`'s arithmetic, on a sum taken elsewhere.
        let power = if len == 0 {
            0.0
        } else {
            (energy / len as f64) as f32
        };
        let rms = power.sqrt();
        if rms > 0.0 {
            p.target_rms / rms
        } else {
            1.0
        }
    }

    /// Digitizes `analog` into `out` (of the same length) at `gain`: a
    /// stretch of a window whose gain was set by [`RtlSdrFrontEnd::gain`].
    pub fn digitize_at(&self, gain: f32, analog: &[Cf32], out: &mut [Cf32]) {
        let _span = galiot_trace::span(galiot_trace::Stage::FrontendCapture, galiot_trace::NO_SEQ);
        let p = &self.params;
        let adc = Adc {
            gain,
            // Q rail gain error + phase skew leaking I into Q.
            iq_gain: p.iq_gain_imbalance,
            iq_skew: p.iq_phase_imbalance.sin(),
            dc: p.dc_offset,
            levels: (1u32 << p.adc_bits) as f32 / 2.0, // per polarity
        };
        galiot_dsp::kernels::digitize(&adc, analog, out);
    }

    /// Digitizes capture range `r` of `analog` at `gain` into `out`,
    /// which is resized to fit exactly rather than grown by doubling.
    pub fn digitize_range(
        &self,
        gain: f32,
        analog: &AnalogView<'_>,
        r: Range<usize>,
        out: &mut Vec<Cf32>,
    ) {
        out.reserve_exact(r.len().saturating_sub(out.len()));
        out.resize(r.len(), Cf32::ZERO);
        let mut at = 0;
        for part in analog.slices(r).into_iter().filter(|s| !s.is_empty()) {
            self.digitize_at(gain, part, &mut out[at..at + part.len()]);
            at += part.len();
        }
    }

    /// Splits a digitized capture into the fixed-size URB-style chunks
    /// an RTL-SDR delivers (the streaming pipeline consumes these).
    pub fn chunks(capture: Vec<Cf32>, chunk: usize) -> Vec<Vec<Cf32>> {
        assert!(chunk > 0, "chunk size must be positive");
        let mut out = Vec::with_capacity(capture.len().div_ceil(chunk));
        let mut rest = capture;
        while rest.len() > chunk {
            let tail = rest.split_off(chunk);
            out.push(rest);
            rest = tail;
        }
        if !rest.is_empty() {
            out.push(rest);
        }
        out
    }
}

/// A stretch of the analog capture held as two slices — a ring's
/// contents, or one slice and nothing — from capture index `start`.
#[derive(Clone, Copy, Debug)]
pub struct AnalogView<'a> {
    /// Capture index of the first sample.
    pub start: usize,
    /// The samples, in capture order.
    pub parts: [&'a [Cf32]; 2],
}

impl<'a> AnalogView<'a> {
    /// A whole capture.
    pub fn whole(capture: &'a [Cf32]) -> Self {
        AnalogView {
            start: 0,
            parts: [capture, &[]],
        }
    }

    /// Capture index just past the last sample.
    pub fn end(&self) -> usize {
        self.start + self.parts[0].len() + self.parts[1].len()
    }

    /// Capture range `r`, which must lie in the view, as two slices.
    pub fn slices(&self, r: Range<usize>) -> [&'a [Cf32]; 2] {
        let [a, b] = self.parts;
        let (lo, hi) = (r.start - self.start, r.end - self.start);
        let (a_lo, a_hi) = (lo.min(a.len()), hi.min(a.len()));
        [&a[a_lo..a_hi], &b[lo - a_lo..hi - a_hi]]
    }

    /// `sum |z|^2` over capture range `r` (one f64 reduction a slice).
    pub fn energy(&self, r: Range<usize>) -> f64 {
        (self.slices(r).into_iter())
            .filter(|s| !s.is_empty())
            .map(galiot_dsp::kernels::energy_f64)
            .sum()
    }
}

/// The latest analog samples of a live capture, in a ring allocated once:
/// appended as they arrive, dropped from the front, never moved.
#[derive(Clone, Debug)]
pub struct AnalogRing {
    samples: VecDeque<Cf32>,
    /// Capture index of `samples[0]`.
    start: usize,
}

impl AnalogRing {
    /// An empty ring whose first sample will be capture index `start`,
    /// with room for `capacity` samples.
    pub fn new(start: usize, capacity: usize) -> Self {
        AnalogRing {
            samples: VecDeque::with_capacity(capacity),
            start,
        }
    }

    /// Capture index just past the newest sample.
    pub fn end(&self) -> usize {
        self.start + self.samples.len()
    }

    /// Appends the next samples of the capture.
    pub fn push(&mut self, samples: &[Cf32]) {
        self.samples.extend(samples);
    }

    /// Drops all but the newest `n` samples.
    pub fn keep_last(&mut self, n: usize) {
        let old = self.samples.len().saturating_sub(n);
        self.samples.drain(..old);
        self.start += old;
    }

    /// What the ring holds.
    pub fn view(&self) -> AnalogView<'_> {
        let (a, b) = self.samples.as_slices();
        AnalogView {
            start: self.start,
            parts: [a, b],
        }
    }
}

/// Auto gain over a window that slides along a capture a step at a time
/// (steps fixed to capture position by the caller). Each step's analog
/// energy is summed once, as it arrives; a window's is the sum over the
/// steps it covers whole plus its head, read back from the samples. In
/// the one-step case (a whole capture) that is [`RtlSdrFrontEnd::digitize`]'s
/// gain, bit for bit.
#[derive(Clone, Debug)]
pub struct SlidingGain {
    /// Window length in samples.
    window: usize,
    /// Capture index of the first sample: no window reaches before it.
    origin: usize,
    /// Capture index the last step ended at.
    end: usize,
    /// `(first sample, energy)` of each step the window may still cover.
    steps: VecDeque<(usize, f64)>,
}

impl SlidingGain {
    /// Gain over the last `window` samples of a capture that starts at
    /// capture index `origin`, with room for `steps` steps.
    pub fn new(origin: usize, window: usize, steps: usize) -> Self {
        SlidingGain {
            window,
            origin,
            end: origin,
            steps: VecDeque::with_capacity(steps),
        }
    }

    /// Books the samples from where the last step ended to `analog`'s
    /// end as the next step, and returns the gain of the window that
    /// ends there. `analog` must reach back to that window's start.
    pub fn advance(&mut self, front_end: &RtlSdrFrontEnd, analog: &AnalogView<'_>) -> f32 {
        let end = analog.end();
        self.steps
            .push_back((self.end, analog.energy(self.end..end)));
        self.end = end;
        let start = end.saturating_sub(self.window).max(self.origin);
        while self.steps.front().is_some_and(|&(at, _)| at < start) {
            self.steps.pop_front();
        }
        let whole = self.steps.front().map_or(end, |&(at, _)| at);
        let head = analog.energy(start..whole);
        let energy = self.steps.iter().fold(head, |sum, &(_, e)| sum + e);
        front_end.gain(energy, end - start)
    }
}

/// A frequency-hopping front end — one of the paper's Sec. 6 gateway
/// design-space options: rather than one wide front end, a narrower
/// receiver "with a few frontends that dynamically learns the schedule"
/// time-multiplexes across sub-bands. This model splits the capture
/// bandwidth into `n_subbands` equal slices and, for each dwell, keeps
/// only the slice the tuner is parked on; everything outside is lost —
/// which is exactly the detection/collision cost the experiment
/// measures against the hardware saving.
#[derive(Clone, Debug)]
pub struct HoppingFrontEnd {
    inner: RtlSdrFrontEnd,
    /// Number of equal sub-bands the capture bandwidth is split into.
    pub n_subbands: usize,
    /// Samples spent parked on each sub-band before hopping.
    pub dwell_samples: usize,
}

impl HoppingFrontEnd {
    /// Creates a hopping front end over an RTL-SDR model.
    ///
    /// # Panics
    /// Panics unless `n_subbands >= 1` and `dwell_samples >= 1`.
    pub fn new(inner: RtlSdrFrontEnd, n_subbands: usize, dwell_samples: usize) -> Self {
        assert!(n_subbands >= 1, "need at least one sub-band");
        assert!(dwell_samples >= 1, "dwell must be positive");
        HoppingFrontEnd {
            inner,
            n_subbands,
            dwell_samples,
        }
    }

    /// The sub-band visited on dwell `d` (round-robin schedule).
    pub fn band(&self, d: usize, fs: f64) -> galiot_dsp::spectral::Band {
        let k = d % self.n_subbands;
        let w = fs / self.n_subbands as f64;
        galiot_dsp::spectral::Band::new(-fs / 2.0 + k as f64 * w, -fs / 2.0 + (k + 1) as f64 * w)
    }

    /// Digitizes a capture through the hopping tuner: per dwell, only
    /// the active sub-band survives.
    pub fn digitize(&self, analog: &[Cf32], fs: f64) -> Vec<Cf32> {
        if self.n_subbands == 1 {
            return self.inner.digitize(analog);
        }
        let mut masked = Vec::with_capacity(analog.len());
        for (d, chunk) in analog.chunks(self.dwell_samples).enumerate() {
            let band = self.band(d, fs);
            masked.extend(galiot_dsp::spectral::select_bands(chunk, fs, &[band]));
        }
        self.inner.digitize(&masked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galiot_dsp::power::mean_power;

    fn tone(n: usize, amp: f32) -> Vec<Cf32> {
        (0..n).map(|i| Cf32::cis(i as f32 * 0.37) * amp).collect()
    }

    #[test]
    fn auto_gain_normalizes_rms() {
        let fe = RtlSdrFrontEnd::new(FrontEndParams::default());
        for &amp in &[0.001f32, 1.0, 50.0] {
            let out = fe.digitize(&tone(4096, amp));
            let rms = mean_power(&out).sqrt();
            assert!((rms - 0.2).abs() < 0.05, "amp {amp}: rms {rms}");
        }
    }

    #[test]
    fn quantization_grid_is_respected() {
        let fe = RtlSdrFrontEnd::new(FrontEndParams {
            adc_bits: 8,
            auto_gain: false,
            gain: 1.0,
            dc_offset: 0.0,
            iq_gain_imbalance: 1.0,
            iq_phase_imbalance: 0.0,
            ..Default::default()
        });
        let out = fe.digitize(&tone(256, 0.5));
        for z in &out {
            let steps_re = z.re * 128.0;
            assert!((steps_re - steps_re.round()).abs() < 1e-4);
        }
    }

    #[test]
    fn clipping_bounds_output() {
        let fe = RtlSdrFrontEnd::new(FrontEndParams {
            auto_gain: false,
            gain: 10.0,
            ..Default::default()
        });
        let out = fe.digitize(&tone(128, 1.0));
        for z in &out {
            assert!(z.re.abs() <= 1.0 + 1e-6 && z.im.abs() <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn quantization_noise_shrinks_with_bits() {
        let analog = tone(8192, 0.5);
        let err = |bits: u32| {
            let fe = RtlSdrFrontEnd::new(FrontEndParams {
                adc_bits: bits,
                auto_gain: false,
                gain: 1.0,
                dc_offset: 0.0,
                iq_gain_imbalance: 1.0,
                iq_phase_imbalance: 0.0,
                ..Default::default()
            });
            let out = fe.digitize(&analog);
            out.iter()
                .zip(&analog)
                .map(|(a, b)| (*a - *b).norm_sqr())
                .sum::<f32>()
        };
        assert!(err(4) > 10.0 * err(8));
        assert!(err(8) > 10.0 * err(12));
    }

    #[test]
    fn ideal_front_end_is_nearly_transparent() {
        let fe = RtlSdrFrontEnd::ideal();
        let analog = tone(2048, 0.3);
        let out = fe.digitize(&analog);
        // Up to the auto-gain scale, shape is preserved: correlation ~ 1.
        let dot: f32 = out
            .iter()
            .zip(&analog)
            .map(|(a, b)| (*a * b.conj()).re)
            .sum();
        let na = mean_power(&out).sqrt() * (out.len() as f32).sqrt();
        let nb = mean_power(&analog).sqrt() * (analog.len() as f32).sqrt();
        assert!(dot / (na * nb) > 0.9999);
    }

    #[test]
    fn dc_offset_shows_up_at_dc() {
        let fe = RtlSdrFrontEnd::new(FrontEndParams {
            auto_gain: false,
            gain: 1.0,
            dc_offset: 0.05,
            ..Default::default()
        });
        let out = fe.digitize(&vec![Cf32::ZERO; 1024]);
        let mean: Cf32 = out.iter().copied().sum::<Cf32>() / 1024.0;
        assert!((mean.re - 0.05).abs() < 0.01);
    }

    #[test]
    fn impairments_land_on_the_right_rail() {
        // Q carries its own gain error plus the I leakage of the phase
        // skew; DC is added to both rails after that.
        let fe = RtlSdrFrontEnd::new(FrontEndParams {
            adc_bits: 16,
            auto_gain: false,
            gain: 1.0,
            dc_offset: 0.05,
            iq_gain_imbalance: 1.2,
            iq_phase_imbalance: 0.3,
            ..Default::default()
        });
        let out = fe.digitize(&[Cf32::new(0.5, 0.25)]);
        assert!((out[0].re - 0.55).abs() < 1e-4, "{:?}", out[0]);
        let q = 1.2 * (0.25 + 0.3f32.sin() * 0.5) + 0.05;
        assert!((out[0].im - q).abs() < 1e-4, "{:?} vs {q}", out[0]);
    }

    #[test]
    fn digitize_into_reuses_a_buffer_of_any_length() {
        // Bit-exactness of the kernel is `galiot-dsp`'s `kernel_diff`;
        // this holds the wrapper: a reused buffer longer or shorter than
        // the capture ends up exactly what `digitize` allocates.
        let fe = RtlSdrFrontEnd::new(FrontEndParams::default());
        let mut reused = vec![Cf32::ONE; 1_000];
        for analog in [tone(77, 0.013), tone(4_099, 0.4), Vec::new()] {
            fe.digitize_into(&analog, &mut reused);
            assert_eq!(reused, fe.digitize(&analog));
        }
    }

    #[test]
    fn a_window_digitized_in_stretches_at_its_gain_is_the_window_digitized_whole() {
        // What a gateway session does: the gain from an energy summed
        // elsewhere, the samples digitized a stretch at a time.
        for auto_gain in [true, false] {
            let fe = RtlSdrFrontEnd::new(FrontEndParams {
                auto_gain,
                gain: 0.7,
                ..FrontEndParams::default()
            });
            for analog in [tone(5_003, 0.013), tone(1, 3.0), Vec::new()] {
                let energy = galiot_dsp::kernels::energy_f64(&analog);
                let gain = fe.gain(energy, analog.len());
                let mut out = vec![Cf32::ZERO; analog.len()];
                let (a, b) = analog.split_at(analog.len() / 3);
                let (oa, ob) = out.split_at_mut(a.len());
                fe.digitize_at(gain, a, oa);
                fe.digitize_at(gain, b, ob);
                assert_eq!(out, fe.digitize(&analog), "auto gain {auto_gain}");
            }
        }
        // Silence and an empty window keep unit gain.
        let fe = RtlSdrFrontEnd::new(FrontEndParams::default());
        assert_eq!((fe.gain(0.0, 10), fe.gain(0.0, 0)), (1.0, 1.0));
    }

    #[test]
    fn a_sliding_gain_over_a_ring_is_the_gain_of_its_window() {
        let fe = RtlSdrFrontEnd::new(FrontEndParams::default());
        let analog: Vec<Cf32> = (0..50_000)
            .map(|i| Cf32::cis(i as f32 * 0.37) * (1.0 + (i / 7_000) as f32))
            .collect();
        // One step over a whole capture: `digitize`'s gain, bit for bit.
        let mut once = SlidingGain::new(0, analog.len(), 1);
        let gain = once.advance(&fe, &AnalogView::whole(&analog));
        let mut out = Vec::new();
        fe.digitize_range(gain, &AnalogView::whole(&analog), 0..analog.len(), &mut out);
        assert_eq!(out, fe.digitize(&analog));
        // A step at a time through a ring that wraps: the gain of the
        // last `window` samples (no further back than the first), and
        // any range of the ring digitized at it as if it were one slice.
        let (origin, window, step) = (3_000, 12_000, 1_700);
        let mut ring = AnalogRing::new(origin, window + step);
        let mut sliding = SlidingGain::new(origin, window, window / step + 2);
        for end in (origin + step..=analog.len()).step_by(step) {
            ring.push(&analog[ring.end()..end]);
            let view = ring.view();
            let got = sliding.advance(&fe, &view);
            let start = end.saturating_sub(window).max(origin);
            let want = fe.gain(
                galiot_dsp::kernels::energy_f64(&analog[start..end]),
                end - start,
            );
            assert!(
                (got / want - 1.0).abs() < 1e-5,
                "window to {end}: {got} / {want}"
            );
            let r = view.start + 5..end - 3;
            fe.digitize_range(got, &view, r.clone(), &mut out);
            let mut whole = vec![Cf32::ZERO; r.len()];
            fe.digitize_at(got, &analog[r], &mut whole);
            assert_eq!(out, whole, "window to {end}");
            ring.keep_last(window);
            assert_eq!(
                (ring.view().start, ring.end()),
                (end - window.min(end - origin), end)
            );
        }
    }

    #[test]
    fn chunking_preserves_content() {
        let cap = tone(1000, 0.1);
        let chunks = RtlSdrFrontEnd::chunks(cap.clone(), 256);
        assert_eq!(chunks.len(), 4);
        let glued: Vec<Cf32> = chunks.into_iter().flatten().collect();
        assert_eq!(glued, cap);
    }

    #[test]
    #[should_panic(expected = "ADC depth")]
    fn rejects_zero_bits() {
        let _ = RtlSdrFrontEnd::new(FrontEndParams {
            adc_bits: 0,
            ..Default::default()
        });
    }

    #[test]
    fn hopping_single_band_is_plain_frontend() {
        let fe = RtlSdrFrontEnd::ideal();
        let hop = HoppingFrontEnd::new(fe.clone(), 1, 1_000);
        let sig = tone(4_096, 0.3);
        assert_eq!(hop.digitize(&sig, 1e6), fe.digitize(&sig));
    }

    #[test]
    fn hopping_keeps_only_the_active_subband() {
        let fs = 1e6;
        let hop = HoppingFrontEnd::new(RtlSdrFrontEnd::ideal(), 2, 4_096);
        // A tone in the upper half-band (+200 kHz): visible only on
        // dwells parked there (odd dwells: band k=1 covers 0..+500k).
        let sig = galiot_dsp::mix::mix(&vec![Cf32::from_re(0.3); 16_384], 200e3, fs);
        let out = hop.digitize(&sig, fs);
        // Dwell 0 covers -500..0 kHz: tone suppressed.
        let p0 = mean_power(&out[500..3_600]);
        // Dwell 1 covers 0..+500 kHz: tone present.
        let p1 = mean_power(&out[4_596..7_700]);
        assert!(p1 > 20.0 * p0, "active {p1} vs parked {p0}");
    }

    #[test]
    fn hopping_schedule_is_round_robin() {
        let hop = HoppingFrontEnd::new(RtlSdrFrontEnd::ideal(), 4, 100);
        let fs = 1e6;
        assert_eq!(hop.band(0, fs).lo, -500_000.0);
        assert_eq!(hop.band(3, fs).hi, 500_000.0);
        assert_eq!(hop.band(4, fs).lo, hop.band(0, fs).lo);
    }

    #[test]
    #[should_panic(expected = "sub-band")]
    fn hopping_rejects_zero_bands() {
        let _ = HoppingFrontEnd::new(RtlSdrFrontEnd::ideal(), 0, 100);
    }
}
