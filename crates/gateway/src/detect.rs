//! Packet detection at the gateway: the common interface plus the two
//! baselines the paper compares against — energy detection and the
//! per-technology matched-filter bank ("the optimal solution" that
//! "scales poorly", Sec. 4) — which Fig. 3(b) runs at the detection
//! level only.
//!
//! GalioT's own detector lives in [`crate::universal`]; it is also the
//! [`LagScorer`] a live gateway's [`DetectionStream`] scores with.

use std::ops::Range;

use galiot_dsp::corr::{find_peaks, Peak, PeakStream};
use galiot_dsp::power::{noise_floor, sliding_power};
use galiot_dsp::{db_to_lin, Cf32};
use galiot_phy::registry::Registry;
use galiot_phy::TechId;

use crate::frontend::{AnalogView, RtlSdrFrontEnd};

/// One detected packet (or collision) in a capture.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Detection {
    /// Sample index near which the packet begins.
    pub start: usize,
    /// Detector-specific confidence score.
    pub score: f32,
    /// Technology attribution if the detector can make one
    /// (the matched bank can; energy and universal cannot —
    /// classification is the cloud's job, paper Sec. 4).
    pub tech: Option<TechId>,
}

impl From<Peak> for Detection {
    /// A correlation peak as a detection without attribution.
    fn from(p: Peak) -> Self {
        Detection {
            start: p.index,
            score: p.value,
            tech: None,
        }
    }
}

/// A packet detector running at the gateway.
pub trait PacketDetector: Send + Sync {
    /// Detector name for reports.
    fn name(&self) -> &'static str;

    /// Scans a capture and returns detections in time order.
    fn detect(&self, capture: &[Cf32], fs: f64) -> Vec<Detection> {
        self.detect_with(capture, fs, &mut Vec::new())
    }

    /// [`PacketDetector::detect`] with the correlation trace written
    /// into `trace`, a buffer the caller keeps from one capture to the
    /// next: a trace is one float per capture sample, the largest thing
    /// a detection pass would otherwise allocate. What `trace` holds
    /// going in is discarded, what it holds afterwards is unspecified.
    fn detect_with(&self, capture: &[Cf32], fs: f64, trace: &mut Vec<f32>) -> Vec<Detection>;

    /// Approximate cost in multiply-accumulates per capture sample —
    /// the scaling metric of the paper's argument (the universal
    /// preamble's cost stays flat as technologies are added; the
    /// matched bank's grows linearly).
    fn complexity_per_sample(&self, fs: f64) -> f64;
}

/// A detector that scores each lag from the samples under it alone, and
/// whose detections over a window of `window_len` samples are
/// `find_peaks(trace, threshold, min_distance)` over the trace it
/// writes. A live gateway scores each lag once, a block at a time, and
/// picks peaks as the lags arrive ([`DetectionStream`]).
pub trait LagScorer: Send + Sync {
    /// How detections are picked from the trace over a window of
    /// `window_len` samples.
    fn peak_rule(&self, window_len: usize) -> PeakRule;

    /// Writes one score per lag of `capture` into `trace`, replacing
    /// what it held (none when the template does not fit).
    fn score_lags(&self, capture: &[Cf32], trace: &mut Vec<f32>);
}

/// How a [`LagScorer`] picks detections from its trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeakRule {
    /// Lags one overlap-save block of the template scores: the fewest
    /// new lags worth correlating at once.
    pub block_lags: usize,
    /// [`find_peaks`]'s threshold for the window.
    pub threshold: f32,
    /// [`find_peaks`]'s suppression distance.
    pub min_distance: usize,
}

/// A [`LagScorer`] over a live capture that arrives one flush at a
/// time: each flush digitizes, at the gain of the window it ends, the
/// lags the scorer has not scored yet — the flush's new samples and the
/// `m − 1` before them: one overlap-save block when flushes are
/// [`PeakRule::block_lags`] apart — and a [`PeakStream`] decides the
/// peaks over the stream's trace as the lags arrive. The detections,
/// each returned once and in capture order, are `find_peaks` over all
/// of it with the rule's threshold. A last flush decides everything:
/// one last flush over a whole capture is
/// [`crate::UniversalDetector`]'s [`PacketDetector::detect_with`] over
/// [`RtlSdrFrontEnd::digitize`], bit for bit.
pub struct DetectionStream {
    /// Capture index of the stream's first sample.
    origin: usize,
    peaks: PeakStream,
    /// What the last flush digitized, from capture index `digital_start`.
    digital: Vec<Cf32>,
    digital_start: usize,
    /// The scorer's scores over `digital`.
    trace: Vec<f32>,
}

impl DetectionStream {
    /// A stream from capture index `origin` that picks peaks by `rule`.
    pub fn new(rule: PeakRule, origin: usize) -> Self {
        DetectionStream {
            origin,
            peaks: PeakStream::new(rule.threshold, rule.min_distance),
            digital: Vec::new(),
            digital_start: origin,
            trace: Vec::new(),
        }
    }

    /// Capture index before which every detection has been decided.
    pub fn decided(&self) -> usize {
        self.origin + self.peaks.decided()
    }

    /// One flush, at `gain`, over `analog`: the capture up to the
    /// flush's end, reaching back over the window. Returns the
    /// detections it decides.
    pub fn flush(
        &mut self,
        scorer: &dyn LagScorer,
        front_end: &RtlSdrFrontEnd,
        gain: f32,
        analog: &AnalogView<'_>,
        last: bool,
    ) -> Vec<Detection> {
        let (origin, from) = (self.origin, self.origin + self.peaks.seen());
        front_end.digitize_range(gain, analog, from..analog.end(), &mut self.digital);
        self.digital_start = from;
        scorer.score_lags(&self.digital, &mut self.trace);
        let mut picked = Vec::new();
        self.peaks.push(&self.trace, &mut picked);
        if last {
            self.peaks.finish(&mut picked);
        }
        (picked.into_iter())
            .map(|p| Detection {
                start: origin + p.index,
                ..p.into()
            })
            .collect()
    }

    /// Capture range `r` digitized at `gain`: read from the last flush's
    /// digitization where that holds it (a whole capture's always
    /// does), else digitized from `analog` into `buf`.
    pub fn samples<'a>(
        &'a self,
        front_end: &RtlSdrFrontEnd,
        gain: f32,
        analog: &AnalogView<'_>,
        r: Range<usize>,
        buf: &'a mut Vec<Cf32>,
    ) -> &'a [Cf32] {
        match r.start.checked_sub(self.digital_start) {
            Some(at) => &self.digital[at..at + r.len()],
            None => {
                front_end.digitize_range(gain, analog, r, buf);
                buf
            }
        }
    }
}

/// The energy-threshold baseline: sliding window power against an
/// estimated noise floor (the scheme of the existing multi-technology
/// literature the paper cites as reference 14).
#[derive(Clone, Debug)]
pub struct EnergyDetector {
    /// Sliding window length in samples.
    pub window: usize,
    /// Detection threshold above the estimated noise floor, in dB.
    pub threshold_db: f32,
    /// Minimum gap between separate detections, in samples.
    pub min_gap: usize,
}

impl Default for EnergyDetector {
    fn default() -> Self {
        EnergyDetector {
            window: 256,
            threshold_db: 6.0,
            min_gap: 2_048,
        }
    }
}

impl PacketDetector for EnergyDetector {
    fn name(&self) -> &'static str {
        "energy"
    }

    fn detect_with(&self, capture: &[Cf32], _fs: f64, _trace: &mut Vec<f32>) -> Vec<Detection> {
        // The baseline is not on the gateway's hot path: it keeps its
        // own power trace.
        let power = sliding_power(capture, self.window);
        if power.is_empty() {
            return Vec::new();
        }
        let floor = noise_floor(capture, self.window, 10).max(1e-30);
        let thr = floor * db_to_lin(self.threshold_db);
        let mut detections = Vec::new();
        let mut above_until: Option<usize> = None;
        for (i, &p) in power.iter().enumerate() {
            if p >= thr {
                match above_until {
                    Some(last) if i.saturating_sub(last) < self.min_gap => {}
                    _ => detections.push(Detection {
                        start: i,
                        score: p / floor,
                        tech: None,
                    }),
                }
                above_until = Some(i);
            }
        }
        detections
    }

    fn complexity_per_sample(&self, _fs: f64) -> f64 {
        // One MAC per sample for the running sum.
        1.0
    }
}

/// The optimal baseline: a bank of per-technology matched filters over
/// each technology's own preamble, with normalized correlation.
pub struct MatchedFilterBank {
    registry: Registry,
    /// Normalized-correlation threshold for a peak to count. Zero
    /// selects the analytic per-technology threshold
    /// ([`ncc_noise_threshold`] with `auto_factor`), which is what
    /// makes long-preamble technologies detectable deep in the noise
    /// without flooding short-preamble ones with false alarms.
    pub threshold: f32,
    /// Factor for the analytic threshold when `threshold == 0`.
    pub auto_factor: f32,
    /// Non-maximum-suppression distance in samples; if zero, half the
    /// technology's own template length is used.
    pub min_distance: usize,
}

impl MatchedFilterBank {
    /// Builds the bank over a registry with a fixed threshold
    /// (`0.0` = analytic per-technology thresholds).
    pub fn new(registry: Registry, threshold: f32) -> Self {
        MatchedFilterBank {
            registry,
            threshold,
            auto_factor: 1.4,
            min_distance: 0,
        }
    }

    /// The registry the bank correlates for.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The detection pass without the tracing span: the baseline the
    /// trace-overhead regression bench compares against. Production
    /// callers use the [`PacketDetector`] impl.
    pub fn detect_raw(&self, capture: &[Cf32], fs: f64) -> Vec<Detection> {
        self.detect_raw_with(capture, fs, &mut Vec::new())
    }

    /// [`MatchedFilterBank::detect_raw`] with one reused trace buffer
    /// for every technology's correlation.
    fn detect_raw_with(&self, capture: &[Cf32], fs: f64, ncc: &mut Vec<f32>) -> Vec<Detection> {
        let mut detections: Vec<Detection> = Vec::new();
        // Bank entries are index-aligned with techs(); templates carry
        // their forward FFT, so each pass is correlate-only.
        let bank = self.registry.template_bank(fs);
        for (i, tech) in self.registry.techs().iter().enumerate() {
            let template = bank.template(i);
            if template.len() > capture.len() {
                continue;
            }
            template.xcorr_normalized_into(capture, ncc);
            let min_distance = match self.min_distance {
                0 => (template.len() / 2).max(512),
                d => d,
            };
            let threshold = if self.threshold > 0.0 {
                self.threshold
            } else {
                ncc_noise_threshold(capture.len(), template.len(), self.auto_factor)
            };
            let (tech, found) = (Some(tech.id()), find_peaks(ncc, threshold, min_distance));
            detections.extend(found.into_iter().map(|p| Detection { tech, ..p.into() }));
        }
        detections.sort_by_key(|d| d.start);
        detections
    }
}

impl PacketDetector for MatchedFilterBank {
    fn name(&self) -> &'static str {
        "matched-bank"
    }

    fn detect_with(&self, capture: &[Cf32], fs: f64, trace: &mut Vec<f32>) -> Vec<Detection> {
        let _span = galiot_trace::span(galiot_trace::Stage::MatchedDetect, galiot_trace::NO_SEQ);
        // One buffer serves every technology's correlation in turn.
        self.detect_raw_with(capture, fs, trace)
    }

    fn complexity_per_sample(&self, fs: f64) -> f64 {
        // One correlation tap per template sample per technology
        // (FFT implementations lower the constant, not the scaling).
        let bank = self.registry.template_bank(fs);
        (0..bank.len()).map(|i| bank.template(i).len() as f64).sum()
    }
}

/// Analytic normalized-correlation threshold for a target false-alarm
/// level on noise-only captures.
///
/// Against white noise, each lag's NCC against a `window_len`-sample
/// template is approximately `CN(0, 1/window_len)`; the maximum over
/// `capture_len` lags concentrates near
/// `sqrt(ln(capture_len) / window_len)`. `factor` (≈1.3-1.6) sets how
/// far above that maximum the threshold sits. This is why a longer
/// preamble (LoRa) is detectable far deeper in the noise than a short
/// one (XBee) at equal false-alarm rate.
pub fn ncc_noise_threshold(capture_len: usize, window_len: usize, factor: f32) -> f32 {
    let l = (capture_len.max(2) as f32).ln();
    factor * (l / window_len.max(1) as f32).sqrt()
}

/// Match detections against ground-truth packet intervals: a truth
/// packet `(start, len)` counts as detected if any detection falls in
/// `[start - slack, start + len)`. Returns the per-packet hit flags.
pub fn score_detections(
    detections: &[Detection],
    truth: &[(usize, usize)],
    slack: usize,
) -> Vec<bool> {
    truth
        .iter()
        .map(|&(start, len)| {
            detections
                .iter()
                .any(|d| d.start + slack >= start && d.start < start + len)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use galiot_channel::{compose, TxEvent};
    use galiot_phy::registry::Registry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FS: f64 = 1_000_000.0;

    fn one_xbee_capture(snr_db: f32, seed: u64) -> (Vec<Cf32>, usize, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let ev = TxEvent::new(xbee, vec![0x42; 12], 20_000);
        let np = galiot_channel::snr_to_noise_power(snr_db, 0.0);
        let cap = compose(&[ev], 80_000, FS, np, &mut rng);
        let t = &cap.truth[0];
        (cap.samples, t.start, t.len)
    }

    #[test]
    fn energy_detects_strong_packet() {
        let (cap, start, len) = one_xbee_capture(20.0, 1);
        let det = EnergyDetector::default().detect(&cap, FS);
        assert!(!det.is_empty());
        let hits = score_detections(&det, &[(start, len)], 512);
        assert!(hits[0]);
    }

    #[test]
    fn energy_misses_below_noise_floor() {
        let (cap, start, len) = one_xbee_capture(-15.0, 2);
        let det = EnergyDetector::default().detect(&cap, FS);
        let hits = score_detections(&det, &[(start, len)], 512);
        assert!(!hits[0], "energy detector should fail at -15 dB");
    }

    #[test]
    fn energy_quiet_capture_has_no_detections() {
        let mut rng = StdRng::seed_from_u64(3);
        let noise = galiot_channel::awgn(60_000, 1.0, &mut rng);
        let det = EnergyDetector::default().detect(&noise, FS);
        assert!(det.len() <= 1, "false alarms: {}", det.len());
    }

    #[test]
    fn matched_bank_detects_and_attributes() {
        let (cap, start, len) = one_xbee_capture(5.0, 4);
        let bank = MatchedFilterBank::new(Registry::prototype(), 0.5);
        let det = bank.detect(&cap, FS);
        let hits = score_detections(&det, &[(start, len)], 512);
        assert!(hits[0]);
        // The strongest detection should attribute to XBee.
        let best = det
            .iter()
            .max_by(|a, b| a.score.total_cmp(&b.score))
            .unwrap();
        assert_eq!(best.tech, Some(TechId::XBee));
    }

    #[test]
    fn matched_bank_survives_low_snr() {
        let (cap, start, len) = one_xbee_capture(-8.0, 5);
        let bank = MatchedFilterBank::new(Registry::prototype(), 0.18);
        let det = bank.detect(&cap, FS);
        let hits = score_detections(&det, &[(start, len)], 1024);
        assert!(hits[0], "matched bank should still detect at -8 dB");
    }

    #[test]
    fn complexity_scales_with_registry_size() {
        let small = MatchedFilterBank::new(Registry::prototype(), 0.5);
        let mut big_reg = Registry::prototype();
        big_reg.push(Registry::extended().get(TechId::OqpskDsss).unwrap().clone());
        let big = MatchedFilterBank::new(big_reg, 0.5);
        assert!(big.complexity_per_sample(FS) > small.complexity_per_sample(FS));
        assert_eq!(EnergyDetector::default().complexity_per_sample(FS), 1.0);
    }

    #[test]
    fn score_detections_slack() {
        let det = [Detection {
            start: 90,
            score: 1.0,
            tech: None,
        }];
        // Slightly early detection counts within slack...
        assert_eq!(score_detections(&det, &[(100, 50)], 20), vec![true]);
        // ...but not beyond it...
        assert_eq!(score_detections(&det, &[(100, 50)], 5), vec![false]);
        // ...and a detection inside the packet interval always counts.
        assert_eq!(score_detections(&det, &[(80, 50)], 5), vec![true]);
        // A detection after the packet ended does not.
        assert_eq!(score_detections(&det, &[(10, 50)], 5), vec![false]);
    }
}
