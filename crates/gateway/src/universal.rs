//! The universal preamble — GalioT's gateway-side contribution
//! (paper, Sec. 4).
//!
//! Construction follows the paper's two steps:
//!
//! 1. **Coalesce** preambles that are "common": preamble waveforms
//!    whose pairwise normalized correlation exceeds a threshold form a
//!    group, represented by the *shortest* member (several IoT
//!    technologies share the `01010101` pattern by design, Table 1).
//! 2. **Sum** the representative preambles, each zero-padded to the
//!    maximum representative length, into the single universal
//!    preamble `P = Σ Pᵢ`.
//!
//! Because the representatives are mutually (near-)orthogonal,
//! correlating a capture against `P` produces a distinct peak for a
//! packet of *any* registered technology — and multiple peaks for a
//! collision — at the cost of a single correlation, independent of the
//! number of technologies.

use galiot_dsp::corr::{find_peaks, xcorr_normalized};
use galiot_dsp::engine::Template;
use galiot_dsp::power::normalize_power;
use galiot_dsp::Cf32;
use galiot_phy::registry::Registry;
use galiot_phy::TechId;

use crate::detect::{Detection, LagScorer, PacketDetector, PeakRule};

/// The result of the coalescing step: which technologies share a
/// representative.
#[derive(Clone, Debug)]
pub struct PreambleGroup {
    /// Members of the group.
    pub members: Vec<TechId>,
    /// The member whose (shortest) preamble represents the group.
    pub representative: TechId,
    /// Length of the representative waveform in samples.
    pub rep_len: usize,
}

/// A constructed universal preamble.
#[derive(Clone, Debug)]
pub struct UniversalPreamble {
    /// The summed template waveform.
    pub template: Vec<Cf32>,
    /// The coalesced groups it was built from.
    pub groups: Vec<PreambleGroup>,
}

/// Builds the universal preamble for a registry at capture rate `fs`.
///
/// `coalesce_threshold` is the normalized-correlation level above which
/// two preambles are considered "common" (0.6 is a good default: the
/// `01010101` FSK preambles of same-rate technologies correlate near
/// 1.0, cross-modulation pairs near 0).
pub fn build(reg: &Registry, fs: f64, coalesce_threshold: f32) -> UniversalPreamble {
    // The registry's template bank already holds every preamble
    // waveform at this rate; construction borrows them instead of
    // re-synthesizing each PHY.
    let bank = reg.template_bank(fs);
    let waveforms: Vec<(TechId, &[Cf32])> = reg
        .techs()
        .iter()
        .enumerate()
        .map(|(i, t)| (t.id(), bank.waveform(i)))
        .collect();

    // Union-find-lite over the correlation graph.
    let n = waveforms.len();
    let mut group_of: Vec<usize> = (0..n).collect();
    for i in 0..n {
        for j in i + 1..n {
            let (a, b) = (waveforms[i].1, waveforms[j].1);
            let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
            if short.is_empty() || long.is_empty() {
                continue;
            }
            let ncc = xcorr_normalized(long, short);
            let peak = ncc.iter().copied().fold(0.0f32, f32::max);
            if peak >= coalesce_threshold {
                let (gi, gj) = (group_of[i], group_of[j]);
                let target = gi.min(gj);
                for g in group_of.iter_mut() {
                    if *g == gi || *g == gj {
                        *g = target;
                    }
                }
            }
        }
    }

    // Build groups; representative = shortest member.
    let mut groups: Vec<PreambleGroup> = Vec::new();
    let mut reps: Vec<&[Cf32]> = Vec::new();
    let mut seen: Vec<usize> = Vec::new();
    for (i, &(id, wf)) in waveforms.iter().enumerate() {
        let g = group_of[i];
        if let Some(pos) = seen.iter().position(|&s| s == g) {
            groups[pos].members.push(id);
            if wf.len() < groups[pos].rep_len {
                groups[pos].representative = id;
                groups[pos].rep_len = wf.len();
                reps[pos] = wf;
            }
        } else {
            seen.push(g);
            groups.push(PreambleGroup {
                members: vec![id],
                representative: id,
                rep_len: wf.len(),
            });
            reps.push(wf);
        }
    }

    // Sum representatives zero-padded to the maximum length, each
    // normalized to unit power first so no group dominates.
    let max_len = reps.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut template = vec![Cf32::ZERO; max_len];
    for r in &reps {
        let mut w = r.to_vec();
        normalize_power(&mut w, 1.0);
        for (t, s) in template.iter_mut().zip(w) {
            *t += s;
        }
    }
    UniversalPreamble { template, groups }
}

/// GalioT's universal-preamble packet detector: one normalized
/// correlation against the summed template.
pub struct UniversalDetector {
    preamble: UniversalPreamble,
    /// The summed template with its forward FFT precomputed at the
    /// engine block size — every detection pass is correlate-only (no
    /// synthesis, no planning, and into a reused trace buffer no
    /// allocation beyond the detections).
    template: Template,
    /// Normalized-correlation threshold for a peak to count. Zero
    /// selects the analytic noise threshold
    /// ([`crate::detect::ncc_noise_threshold`] with `auto_factor`).
    pub threshold: f32,
    /// Factor for the analytic threshold when `threshold == 0`.
    pub auto_factor: f32,
    /// Non-maximum-suppression distance in samples.
    pub min_distance: usize,
}

impl UniversalDetector {
    /// Builds the detector for a registry at capture rate `fs`.
    pub fn new(reg: &Registry, fs: f64, threshold: f32) -> Self {
        let preamble = build(reg, fs, 0.6);
        // Periodic preambles (LoRa's repeated chirps, FSK 0x55 runs)
        // produce decaying correlation sub-peaks at symbol offsets;
        // suppressing within half a template collapses them into one
        // detection per packet.
        let min_distance = (preamble.template.len() / 2).max(512);
        let template = Template::new(&preamble.template);
        UniversalDetector {
            preamble,
            template,
            threshold,
            auto_factor: 1.4,
            min_distance,
        }
    }

    /// Builds the detector with the analytic noise threshold.
    pub fn auto(reg: &Registry, fs: f64) -> Self {
        Self::new(reg, fs, 0.0)
    }

    /// The constructed preamble (template + groups).
    pub fn preamble(&self) -> &UniversalPreamble {
        &self.preamble
    }

    /// The detection pass without the tracing span: the baseline the
    /// trace-overhead regression bench compares against. Production
    /// callers use the [`PacketDetector`] impl.
    pub fn detect_raw(&self, capture: &[Cf32], _fs: f64) -> Vec<Detection> {
        self.peaks(&self.template.xcorr_normalized(capture), capture.len())
    }

    /// The detections in `trace`, the scores of a `window_len`-sample
    /// capture.
    fn peaks(&self, trace: &[f32], window_len: usize) -> Vec<Detection> {
        let rule = self.peak_rule(window_len);
        find_peaks(trace, rule.threshold, rule.min_distance)
            .into_iter()
            .map(Detection::from)
            .collect()
    }
}

impl PacketDetector for UniversalDetector {
    fn name(&self) -> &'static str {
        "universal-preamble"
    }

    fn detect_with(&self, capture: &[Cf32], _fs: f64, trace: &mut Vec<f32>) -> Vec<Detection> {
        self.score_lags(capture, trace);
        self.peaks(trace, capture.len())
    }

    fn complexity_per_sample(&self, _fs: f64) -> f64 {
        // One correlation, regardless of how many technologies are
        // registered — the paper's scaling claim.
        self.preamble.template.len() as f64
    }
}

impl LagScorer for UniversalDetector {
    /// The fixed threshold, or the analytic one for `window_len` lags.
    fn peak_rule(&self, window_len: usize) -> PeakRule {
        let threshold = if self.threshold > 0.0 {
            self.threshold
        } else {
            let m = self.preamble.template.len();
            crate::detect::ncc_noise_threshold(window_len, m, self.auto_factor)
        };
        PeakRule {
            block_lags: self.template.block_lags(),
            threshold,
            min_distance: self.min_distance,
        }
    }

    fn score_lags(&self, capture: &[Cf32], trace: &mut Vec<f32>) {
        let _span = galiot_trace::span(galiot_trace::Stage::UniversalDetect, galiot_trace::NO_SEQ);
        self.template.xcorr_normalized_into(capture, trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::score_detections;
    use galiot_channel::{compose, snr_to_noise_power, TxEvent};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FS: f64 = 1_000_000.0;

    #[test]
    fn build_produces_nonempty_template() {
        let reg = Registry::prototype();
        let up = build(&reg, FS, 0.6);
        assert!(!up.template.is_empty());
        // LoRa's 8-symbol preamble is the longest representative.
        assert_eq!(up.template.len(), 8 * 1024);
    }

    #[test]
    fn distinct_modulations_stay_separate_groups() {
        let reg = Registry::prototype();
        let up = build(&reg, FS, 0.6);
        // LoRa (CSS) must not coalesce with the FSK technologies.
        let lora_group = up
            .groups
            .iter()
            .find(|g| g.members.contains(&TechId::LoRa))
            .unwrap();
        assert_eq!(lora_group.members, vec![TechId::LoRa]);
    }

    #[test]
    fn complexity_is_independent_of_registry_size() {
        let small = UniversalDetector::new(&Registry::prototype(), FS, 0.2);
        let big = UniversalDetector::new(&Registry::extended(), FS, 0.2);
        // Template length is the max representative length, which the
        // added techs (shorter preambles) do not change.
        assert_eq!(
            small.complexity_per_sample(FS),
            big.complexity_per_sample(FS)
        );
    }

    #[test]
    fn detects_each_prototype_technology() {
        let reg = Registry::prototype();
        let det = UniversalDetector::new(&reg, FS, 0.12);
        for tech in reg.techs() {
            let mut rng = StdRng::seed_from_u64(tech.id() as u64 + 10);
            let ev = TxEvent::new(tech.clone(), vec![0x5A; 8], 30_000);
            let np = snr_to_noise_power(5.0, 0.0);
            let cap = compose(&[ev], 300_000, FS, np, &mut rng);
            let t = &cap.truth[0];
            let d = det.detect(&cap.samples, FS);
            let hits = score_detections(&d, &[(t.start, t.len)], 2_048);
            assert!(hits[0], "{} not detected at 5 dB", tech.id());
        }
    }

    #[test]
    fn detects_collision_as_multiple_peaks_or_hits() {
        let reg = Registry::prototype();
        let det = UniversalDetector::new(&reg, FS, 0.12);
        let mut rng = StdRng::seed_from_u64(77);
        let events =
            galiot_channel::forced_collision(&reg, 8, &[0.0, 0.0, 0.0], 4_000, 30_000, &mut rng);
        let np = snr_to_noise_power(10.0, 0.0);
        let cap = compose(&events, 400_000, FS, np, &mut rng);
        let d = det.detect(&cap.samples, FS);
        let truth: Vec<(usize, usize)> = cap.truth.iter().map(|t| (t.start, t.len)).collect();
        let hits = score_detections(&d, &truth, 2_048);
        let n_hit = hits.iter().filter(|&&h| h).count();
        assert!(n_hit >= 2, "only {n_hit}/3 collision members detected");
    }

    #[test]
    fn noise_only_capture_is_quiet() {
        let reg = Registry::prototype();
        let det = UniversalDetector::new(&reg, FS, 0.12);
        let mut rng = StdRng::seed_from_u64(99);
        let noise = galiot_channel::awgn(300_000, 1.0, &mut rng);
        let d = det.detect(&noise, FS);
        assert!(d.len() <= 1, "false alarms: {}", d.len());
    }

    #[test]
    fn same_modulation_same_rate_coalesces() {
        // Two XBee-style techs (identical preamble waveform) must
        // coalesce into one group.
        use galiot_phy::xbee::{XbeeParams, XbeePhy};
        use std::sync::Arc;
        let mut reg = Registry::new();
        reg.push(Arc::new(XbeePhy::new(XbeeParams::default())));
        reg.push(Arc::new(XbeePhy::new(XbeeParams::default())));
        let up = build(&reg, FS, 0.6);
        assert_eq!(up.groups.len(), 1);
        assert_eq!(up.groups[0].members.len(), 2);
    }
}
