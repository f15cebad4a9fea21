//! Signal classification at the cloud.
//!
//! The gateway deliberately does not learn which technologies are
//! inside a detection (paper, Sec. 4, "can outsource this task to the
//! cloud"). The cloud identifies them by correlating the segment
//! against each technology's own preamble and estimating per-signal
//! received power from the matched-filter response.
//!
//! Successive cancellation re-classifies the residual after every
//! subtracted frame, but a subtraction only changes the samples of that
//! frame. [`Classifier`] therefore keeps each technology's correlation
//! trace and re-scores only the lags a cancellation touched;
//! [`classify()`] is its one-shot form.

use std::sync::Arc;

use galiot_dsp::engine::TemplateBank;
use galiot_dsp::kernels;
use galiot_dsp::Cf32;
use galiot_phy::registry::Registry;
use galiot_phy::{DecodedFrame, TechId};

use galiot_phy::cancel::{CancelReport, Residual, ResidualBuffers};

/// One classified signal inside a segment.
#[derive(Clone, Copy, Debug)]
pub struct Classified {
    /// Which technology.
    pub tech: TechId,
    /// Sample offset of its preamble inside the segment.
    pub start: usize,
    /// Where a demodulator should start looking for the frame: `start`,
    /// unless a lag at least a template length and at most one of the
    /// technology's longest frames earlier scores within 10 % of it. A
    /// frame's own tail can look like its preamble (a LoRa frame whose
    /// last interleaver block is padding ends in eight plain up-chirps)
    /// and outscore the real one by noise; the frame then begins at the
    /// earlier lag. A look-alike farther back cannot be that frame's
    /// preamble.
    pub search_from: usize,
    /// Normalized correlation score in [0, 1].
    pub score: f32,
    /// Estimated received amplitude (linear) from the matched filter.
    pub amplitude: f32,
}

/// How close to the best preamble correlation an earlier lag must score
/// to count as a possible start of the same frame. Two preamble-like
/// stretches of one frame sit at one SNR, so their scores differ by
/// noise alone — a few percent wherever anything decodes. Only lags a
/// whole template away are compared, so a preamble's own
/// autocorrelation sidelobes never qualify; an unrelated earlier frame
/// that does only widens the demodulator's window.
const LOOKALIKE_SHARE: f32 = 0.9;

impl Classified {
    /// Estimated received power (linear).
    pub fn power(&self) -> f32 {
        self.amplitude * self.amplitude
    }
}

/// Classifies the technologies present in a segment.
///
/// Returns one entry per technology whose preamble correlation exceeds
/// `threshold`, sorted by estimated power, strongest first — the decode
/// order of Algorithm 1 ("dependent only on the power of the signal").
pub fn classify(segment: &[Cf32], fs: f64, registry: &Registry, threshold: f32) -> Vec<Classified> {
    Classifier::new(segment, fs, registry, threshold).candidates()
}

/// A segment's residual together with every technology's normalized
/// preamble-correlation trace over it, kept consistent across
/// cancellations.
///
/// The residual is a [`Residual`]: a cancellation dirties only the lags
/// [`CancelReport::dirty`] names, and [`Classifier::cancel`] re-correlates
/// those alone (a LoRa frame dirties about a fifth of a collision
/// segment, an XBee frame a fiftieth).
pub struct Classifier<'a> {
    registry: &'a Registry,
    /// One template bank per (registry, fs): preamble waveforms and
    /// their forward FFTs are synthesized once, not per segment.
    bank: Arc<TemplateBank>,
    fs: f64,
    threshold: f32,
    /// Per technology, in registry order; empty where the template is
    /// empty or longer than the segment.
    traces: Vec<Vec<f32>>,
    residual: Residual<'a>,
}

/// What a [`Classifier`] writes: one correlation trace per technology,
/// one float per segment sample, and its residual's buffers. A decode
/// worker hands the same buffers to every segment's classifier
/// ([`Classifier::reusing`]) and takes them back afterwards
/// ([`Classifier::into_buffers`]), inside its [`crate::DecodeBuffers`].
#[derive(Debug, Default)]
pub(crate) struct ClassifierBuffers {
    traces: Vec<Vec<f32>>,
    residual: ResidualBuffers,
}

impl<'a> Classifier<'a> {
    /// Correlates `segment` against every technology's preamble.
    pub fn new(segment: &'a [Cf32], fs: f64, registry: &'a Registry, threshold: f32) -> Self {
        Self::reusing(segment, fs, registry, threshold, Default::default())
    }

    /// [`Classifier::new`] writing its traces, and later its residual,
    /// into `buffers` (whatever they held is discarded) instead of
    /// allocating them.
    pub(crate) fn reusing(
        segment: &'a [Cf32],
        fs: f64,
        registry: &'a Registry,
        threshold: f32,
        buffers: ClassifierBuffers,
    ) -> Self {
        let bank = registry.template_bank(fs);
        let mut traces = buffers.traces;
        traces.resize_with(bank.len(), Vec::new);
        for (i, trace) in traces.iter_mut().enumerate() {
            bank.template(i).xcorr_normalized_into(segment, trace);
        }
        Classifier {
            registry,
            bank,
            fs,
            threshold,
            traces,
            residual: Residual::new(segment, buffers.residual),
        }
    }

    /// Gives the buffers back for the next segment.
    pub(crate) fn into_buffers(self) -> ClassifierBuffers {
        ClassifierBuffers {
            traces: self.traces,
            residual: self.residual.into_buffers(),
        }
    }

    /// The segment with every cancelled frame subtracted.
    pub fn residual(&self) -> &[Cf32] {
        self.residual.samples()
    }

    /// The technologies present in the residual: one entry per
    /// technology whose strongest preamble correlation reaches the
    /// threshold, sorted by estimated power, strongest first.
    pub fn candidates(&self) -> Vec<Classified> {
        let mut found = Vec::new();
        for (i, tech) in self.registry.techs().iter().enumerate() {
            let trace = &self.traces[i];
            let Some((start, score)) = peak(trace) else {
                continue;
            };
            if score < self.threshold {
                continue;
            }
            let template = self.bank.template(i);
            let from = start.saturating_sub(tech.max_frame_samples(self.fs));
            let search_from = peak(&trace[from..start.saturating_sub(template.len()).max(from)])
                .filter(|&(_, v)| v >= LOOKALIKE_SHARE * score)
                .map_or(start, |(i, _)| from + i);
            // Amplitude from the raw matched-filter output at the peak:
            // corr = a * E_template for a scaled template copy. A direct
            // dot product at the known lag beats an FFT correlation whose
            // only used output is lag zero.
            let h = template.waveform();
            let dot = kernels::dot_conj(&self.residual()[start..start + h.len()], h);
            let e = template.energy();
            let amplitude = if e > 0.0 { dot.abs() / e } else { 0.0 };
            found.push(Classified {
                tech: tech.id(),
                start,
                search_from,
                score,
                amplitude,
            });
        }
        found.sort_by(|a, b| b.amplitude.total_cmp(&a.amplitude));
        found
    }

    /// Subtracts a decoded frame from the residual ([`Residual::cancel`])
    /// and overwrites each trace's dirty lags with their re-correlation.
    /// `None`, with the residual unchanged, if the frame cannot be aligned.
    pub fn cancel(&mut self, frame: &DecodedFrame, slack: usize) -> Option<CancelReport> {
        let tech = self.registry.get(frame.tech)?;
        let report = self.residual.cancel(tech.as_ref(), frame, self.fs, slack)?;
        for (i, trace) in self.traces.iter_mut().enumerate() {
            let template = self.bank.template(i);
            let dirty = report.dirty(template.len());
            let fresh = self.residual.rescore(template, dirty.clone());
            if !fresh.is_empty() {
                trace[dirty.start..][..fresh.len()].copy_from_slice(fresh);
            }
        }
        Some(report)
    }
}

/// Index and value of the largest score in a trace (the last one on an
/// exact tie; scores are never NaN).
///
/// Every round scans every trace twice, so the scan is shaped for the
/// vectorizer: block maxima over independent lanes first, then an index
/// search inside the one winning block.
fn peak(trace: &[f32]) -> Option<(usize, f32)> {
    const BLOCK: usize = 1024;
    fn block_max(block: &[f32]) -> f32 {
        let mut lanes = [f32::NEG_INFINITY; 16];
        let chunks = block.chunks_exact(lanes.len());
        let rest = chunks.remainder();
        for chunk in chunks {
            for (lane, &v) in lanes.iter_mut().zip(chunk) {
                *lane = lane.max(v);
            }
        }
        lanes
            .iter()
            .chain(rest)
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }
    let (block, max) = trace
        .chunks(BLOCK)
        .map(block_max)
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))?;
    let from = block * BLOCK;
    let at = trace[from..].iter().take(BLOCK).rposition(|&v| v == max)?;
    Some((from + at, max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use galiot_channel::{compose, forced_collision, snr_to_noise_power, TxEvent};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FS: f64 = 1_000_000.0;

    #[test]
    fn single_tech_is_identified() {
        let mut rng = StdRng::seed_from_u64(1);
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let ev = TxEvent::new(xbee, vec![1, 2, 3], 10_000);
        let np = snr_to_noise_power(10.0, 0.0);
        let cap = compose(&[ev], 100_000, FS, np, &mut rng);
        let found = classify(&cap.samples, FS, &reg, 0.3);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].tech, TechId::XBee);
        assert!(found[0].start.abs_diff(10_000) <= 4);
        // Unit-power transmit: amplitude near 1.
        assert!(
            (found[0].amplitude - 1.0).abs() < 0.2,
            "{}",
            found[0].amplitude
        );
    }

    #[test]
    fn a_look_alike_farther_back_than_a_frame_is_not_taken() {
        // A weaker copy of the XBee preamble half a frame, then more than
        // a whole frame, before a stronger one: the first may be where
        // the stronger one's frame begins, the second may not.
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let (preamble, reach) = (xbee.preamble_waveform(FS), xbee.max_frame_samples(FS));
        for (gap, widened) in [(reach / 2, true), (reach + 5_000, false)] {
            let mut rng = StdRng::seed_from_u64(7);
            let (decoy, at) = (2_000, 2_000 + gap);
            let mut segment = galiot_channel::awgn(at + 10_000, 0.01, &mut rng);
            for (k, &s) in preamble.iter().enumerate() {
                segment[decoy + k] += s * 0.3;
                segment[at + k] += s;
            }
            let found = classify(&segment, FS, &reg, 0.5);
            let c = found.iter().find(|c| c.tech == TechId::XBee).unwrap();
            assert_eq!(c.start, at, "gap {gap}");
            assert_eq!(c.search_from, if widened { decoy } else { at }, "gap {gap}");
        }
    }

    #[test]
    fn collision_members_are_all_identified() {
        let mut rng = StdRng::seed_from_u64(2);
        let reg = Registry::prototype();
        let events = forced_collision(&reg, 8, &[0.0, 0.0, 0.0], 3_000, 10_000, &mut rng);
        let np = snr_to_noise_power(15.0, 0.0);
        let cap = compose(&events, 400_000, FS, np, &mut rng);
        let found = classify(&cap.samples, FS, &reg, 0.15);
        let ids: Vec<TechId> = found.iter().map(|c| c.tech).collect();
        for want in [TechId::LoRa, TechId::XBee, TechId::ZWave] {
            assert!(ids.contains(&want), "{want} missing from {ids:?}");
        }
    }

    #[test]
    fn ordering_follows_power() {
        let mut rng = StdRng::seed_from_u64(3);
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let zwave = reg.get(TechId::ZWave).unwrap().clone();
        let events = vec![
            TxEvent::new(xbee, vec![1; 8], 5_000).with_power_db(-10.0),
            TxEvent::new(zwave, vec![2; 8], 60_000).with_power_db(0.0),
        ];
        let np = snr_to_noise_power(20.0, -10.0);
        let cap = compose(&events, 200_000, FS, np, &mut rng);
        let found = classify(&cap.samples, FS, &reg, 0.2);
        assert!(found.len() >= 2, "{found:?}");
        assert_eq!(found[0].tech, TechId::ZWave, "strongest first");
        assert!(found[0].amplitude > found[1].amplitude);
    }

    #[test]
    fn noise_only_yields_nothing() {
        let mut rng = StdRng::seed_from_u64(4);
        let reg = Registry::prototype();
        let noise = galiot_channel::awgn(200_000, 1.0, &mut rng);
        let found = classify(&noise, FS, &reg, 0.3);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn peak_is_the_last_largest_element() {
        assert_eq!(peak(&[]), None);
        assert_eq!(peak(&[0.25]), Some((0, 0.25)));
        // Across block and lane boundaries, with ties: the naive scan
        // is the specification.
        let mut trace: Vec<f32> = (0..5_000)
            .map(|i| ((i * 7919) % 1009) as f32 / 2018.0)
            .collect();
        for at in [0, 15, 16, 1023, 1024, 2047, 4999] {
            trace[at] = 0.75;
            let naive = trace
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, &v)| (i, v));
            assert_eq!(peak(&trace), naive, "peak planted at {at}");
            assert_eq!(peak(&trace[..at + 1]), Some((at, 0.75)));
        }
    }

    #[test]
    fn short_segment_is_handled() {
        let reg = Registry::prototype();
        let found = classify(&[Cf32::ZERO; 100], FS, &reg, 0.3);
        assert!(found.is_empty());
    }
}
