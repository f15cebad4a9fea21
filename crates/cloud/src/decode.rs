//! Algorithm 1 — `CloudDecode` (paper, Sec. 5).
//!
//! The full GalioT cloud decoder: power-ordered decoding with
//! reconstruct-and-subtract (SIC), and — where SIC stalls — the kill
//! filters: remove the weakest orthogonal technology by its modulation
//! class, decode the survivors, then cancel *their* reconstructed
//! waveforms from the original residual so the killed technology itself
//! becomes recoverable. Decode order depends only on power, never on
//! technology, exactly as the paper requires.

use galiot_dsp::Cf32;
use galiot_phy::common::{anchored_window, demodulate_anchored_with, MAX_DEMOD_FIR_TAPS};
use galiot_phy::registry::Registry;
use galiot_phy::{DecodedFrame, DemodScratch, TechId};

use crate::classify::{Classifier, ClassifierBuffers};
use crate::kill::apply_kill_window;

/// Cloud decoder tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct CloudParams {
    /// Classification (preamble correlation) threshold.
    pub classify_threshold: f32,
    /// Alignment slack for cancellation, in samples.
    pub cancel_slack: usize,
    /// Hard bound on decode rounds.
    pub max_rounds: usize,
}

impl Default for CloudParams {
    fn default() -> Self {
        CloudParams {
            classify_threshold: 0.12,
            cancel_slack: 64,
            max_rounds: 12,
        }
    }
}

/// How one frame was recovered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recovery {
    /// Decoded directly from the residual (plain SIC round).
    Direct,
    /// Decoded after applying the kill filter of `victim`.
    AfterKill {
        /// The technology whose kill filter unlocked the decode.
        victim: TechId,
    },
}

/// Result of a CloudDecode run.
#[derive(Clone, Debug, Default)]
pub struct CloudResult {
    /// Frames recovered, with how each was obtained.
    pub frames: Vec<(DecodedFrame, Recovery)>,
    /// Decode rounds executed.
    pub rounds: usize,
    /// Number of kill-filter applications.
    pub kills: usize,
}

impl CloudResult {
    /// Just the decoded frames.
    pub fn decoded(&self) -> Vec<&DecodedFrame> {
        self.frames.iter().map(|(f, _)| f).collect()
    }

    /// Total payload bits recovered.
    pub fn payload_bits(&self) -> usize {
        self.frames.iter().map(|(f, _)| f.payload.len() * 8).sum()
    }
}

/// Everything a decode writes besides the frames it returns: the
/// classifier's correlation traces and its residual, the demodulators'
/// intermediates and the kill filters' output. A decode worker keeps
/// one from segment to segment ([`CloudDecoder::decode_reusing`]), so
/// that once they have grown to its segments a decode allocates little
/// beyond its frames and their remodulations.
#[derive(Debug, Default)]
pub struct DecodeBuffers {
    classifier: ClassifierBuffers,
    demod: DemodScratch,
    killed: Vec<Cf32>,
}

/// The GalioT cloud decoder.
pub struct CloudDecoder {
    registry: Registry,
    params: CloudParams,
}

impl CloudDecoder {
    /// Creates a decoder over a registry with default parameters.
    pub fn new(registry: Registry) -> Self {
        CloudDecoder {
            registry,
            params: CloudParams::default(),
        }
    }

    /// Creates a decoder with explicit parameters.
    pub fn with_params(registry: Registry, params: CloudParams) -> Self {
        CloudDecoder { registry, params }
    }

    /// The registry in use.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Runs Algorithm 1 on a segment.
    ///
    /// Per decode round, following the paper's pseudo-code line by
    /// line: pick the highest-powered classified signal `S_i` (step 4);
    /// try to decode it directly (step 5) and cancel it on success
    /// (step 6 — SIC). If that fails, take the *least*-powered other
    /// signal `S_j` (step 7), apply the kill filter matching `S_j`'s
    /// modulation class (steps 8-13), and retry `S_i` on the killed
    /// copy — moving to the next-least `S_j` while that fails
    /// (step 14). If `S_i` is unrecoverable under every kill, move to
    /// the next-highest-powered `S_i` and repeat (steps 15-16).
    ///
    /// Every step works on the frame it concerns, not on the segment:
    /// `S_i` is demodulated on the window the classifier anchored it
    /// to, `S_j` is killed on that window only, and a cancellation
    /// re-classifies only the lags it touched.
    pub fn decode(&self, segment: &[Cf32], fs: f64) -> CloudResult {
        self.decode_reusing(segment, fs, &mut DecodeBuffers::default())
    }

    /// [`CloudDecoder::decode`] writing its intermediates into
    /// `buffers`, which a decode worker keeps from one segment to the
    /// next: the same result, bit for bit. Whatever they held is never
    /// read, `segment` is never written, and a decode that panics
    /// leaves them empty.
    pub fn decode_reusing(
        &self,
        segment: &[Cf32],
        fs: f64,
        buffers: &mut DecodeBuffers,
    ) -> CloudResult {
        let mut result = CloudResult::default();
        let mut already: Vec<(TechId, Vec<u8>)> = Vec::new();
        let slack = self.params.cancel_slack;
        let pad = anchor_pad(slack);
        let DecodeBuffers {
            classifier,
            mut demod,
            mut killed,
        } = std::mem::take(buffers);
        let mut classifier = Classifier::reusing(
            segment,
            fs,
            &self.registry,
            self.params.classify_threshold,
            classifier,
        );

        while result.rounds < self.params.max_rounds {
            // One span per *successful* round, so the sic_round
            // histogram count reconciles exactly with `rounds`; the
            // final nothing-left probe is discarded.
            let round_span =
                galiot_trace::span(galiot_trace::Stage::SicRound, galiot_trace::NO_SEQ);
            let candidates = classifier.candidates();
            if candidates.is_empty() {
                round_span.discard();
                break;
            }
            let mut round: Option<(DecodedFrame, Recovery)> = None;
            // Steps 4/15-16: S_i in descending power order.
            's_i: for (i, s_i) in candidates.iter().enumerate() {
                let Some(tech) = self.registry.get(s_i.tech) else {
                    continue;
                };
                let tech = tech.as_ref();
                // Demodulates S_i where the classifier anchored it, in
                // samples that begin at segment sample `offset`;
                // rejects payloads already recovered.
                let mut try_decode = |samples: &[Cf32], offset: usize| {
                    let anchor = s_i.search_from - offset..=s_i.start - offset;
                    let mut frame =
                        demodulate_anchored_with(tech, samples, fs, anchor, pad, &mut demod)
                            .ok()?;
                    if already
                        .iter()
                        .any(|(t, p)| *t == frame.tech && *p == frame.payload)
                    {
                        return None;
                    }
                    frame.start += offset;
                    Some(frame)
                };
                // Step 5: direct decode of S_i.
                if let Some(frame) = try_decode(classifier.residual(), 0) {
                    if classifier.cancel(&frame, slack).is_some() {
                        round = Some((frame, Recovery::Direct));
                        break 's_i;
                    }
                }
                // Steps 7-14: kill the least-powered other signal and
                // retry S_i; escalate victims while it keeps failing.
                let window =
                    anchored_window(tech, fs, s_i.search_from..=s_i.start, pad, segment.len());
                for (j, s_j) in candidates.iter().enumerate().rev() {
                    if i == j {
                        continue;
                    }
                    let Some(vtech) = self.registry.get(s_j.tech) else {
                        continue;
                    };
                    let span_end = s_j.start + vtech.max_frame_samples(fs);
                    let offset = apply_kill_window(
                        classifier.residual(),
                        fs,
                        vtech.as_ref(),
                        s_j.start,
                        s_j.start..span_end.min(segment.len()),
                        window.clone(),
                        &mut killed,
                    );
                    result.kills += 1;
                    if let Some(frame) = try_decode(&killed, offset) {
                        // Cancel from the residual itself (not the
                        // killed copy) so S_j's own signal is preserved
                        // for later rounds.
                        if classifier.cancel(&frame, slack).is_some() {
                            round = Some((frame, Recovery::AfterKill { victim: s_j.tech }));
                            break 's_i;
                        }
                    }
                }
            }
            match round {
                Some((frame, how)) => {
                    already.push((frame.tech, frame.payload.clone()));
                    result.frames.push((frame, how));
                    result.rounds += 1;
                }
                None => {
                    round_span.discard();
                    break;
                }
            }
        }
        *buffers = DecodeBuffers {
            classifier: classifier.into_buffers(),
            demod,
            killed,
        };
        result
    }
}

/// How far either side of a classifier anchor the demodulator is given
/// samples: its channel filter's settling time, plus the alignment
/// error cancellation later tolerates for the same frame.
pub(crate) fn anchor_pad(cancel_slack: usize) -> usize {
    MAX_DEMOD_FIR_TAPS + cancel_slack
}

#[cfg(test)]
mod tests {
    use super::*;
    use galiot_channel::{compose, forced_collision, snr_to_noise_power, TxEvent};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FS: f64 = 1_000_000.0;

    fn payloads(result: &CloudResult) -> Vec<(TechId, Vec<u8>)> {
        result
            .frames
            .iter()
            .map(|(f, _)| (f.tech, f.payload.clone()))
            .collect()
    }

    #[test]
    fn decodes_single_clean_frame() {
        let mut rng = StdRng::seed_from_u64(1);
        let reg = Registry::prototype();
        let zwave = reg.get(TechId::ZWave).unwrap().clone();
        let ev = TxEvent::new(zwave, vec![4, 4, 4], 3_000);
        let np = snr_to_noise_power(15.0, 0.0);
        let cap = compose(&[ev], 80_000, FS, np, &mut rng);
        let dec = CloudDecoder::new(reg);
        let res = dec.decode(&cap.samples, FS);
        assert_eq!(res.frames.len(), 1);
        assert_eq!(res.frames[0].0.payload, vec![4, 4, 4]);
        assert_eq!(res.frames[0].1, Recovery::Direct);
    }

    #[test]
    fn resolves_equal_power_lora_xbee_collision_via_kill() {
        let mut rng = StdRng::seed_from_u64(2);
        let reg = Registry::prototype();
        let lora = reg.get(TechId::LoRa).unwrap().clone();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let pl_l = vec![0x11u8; 10];
        let pl_x = vec![0x22u8; 12];
        let events = vec![
            TxEvent::new(lora, pl_l.clone(), 0),
            TxEvent::new(xbee, pl_x.clone(), 25_000),
        ];
        let np = snr_to_noise_power(25.0, 0.0);
        let cap = compose(&events, 400_000, FS, np, &mut rng);
        let dec = CloudDecoder::new(reg);
        let res = dec.decode(&cap.samples, FS);
        let got = payloads(&res);
        assert!(got.contains(&(TechId::LoRa, pl_l)), "{got:?}");
        assert!(got.contains(&(TechId::XBee, pl_x)), "{got:?}");
    }

    #[test]
    fn resolves_three_way_prototype_collision() {
        // The paper's headline scenario: LoRa, XBee and Z-Wave all
        // overlapping at comparable power.
        let mut rng = StdRng::seed_from_u64(3);
        let reg = Registry::prototype();
        let events = forced_collision(&reg, 8, &[0.0, -1.0, -2.0], 5_000, 4_096, &mut rng);
        let truth: Vec<(TechId, Vec<u8>)> = events
            .iter()
            .map(|e| (e.tech.id(), e.payload.clone()))
            .collect();
        let np = snr_to_noise_power(25.0, 0.0);
        let cap = compose(&events, 500_000, FS, np, &mut rng);
        let dec = CloudDecoder::new(reg);
        let res = dec.decode(&cap.samples, FS);
        let got = payloads(&res);
        let hits = truth.iter().filter(|t| got.contains(t)).count();
        assert!(hits >= 2, "only {hits}/3 recovered: {got:?}");
    }

    #[test]
    fn kill_recovery_is_attributed() {
        // XBee buried under LoRa at equal power is only recoverable
        // after KILL-CSS; the result must say so.
        let mut rng = StdRng::seed_from_u64(4);
        let reg = Registry::prototype();
        let lora = reg.get(TechId::LoRa).unwrap().clone();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let events = vec![
            TxEvent::new(lora, vec![0xEE; 10], 0),
            TxEvent::new(xbee, vec![0x77; 12], 30_000),
        ];
        let np = snr_to_noise_power(30.0, 0.0);
        let cap = compose(&events, 400_000, FS, np, &mut rng);
        let dec = CloudDecoder::new(reg);
        let res = dec.decode(&cap.samples, FS);
        let xbee_rec = res
            .frames
            .iter()
            .find(|(f, _)| f.tech == TechId::XBee)
            .map(|(_, r)| *r);
        match xbee_rec {
            Some(Recovery::AfterKill { victim }) => assert_eq!(victim, TechId::LoRa),
            Some(Recovery::Direct) => {
                // Acceptable only if LoRa was decoded and cancelled first.
                assert_eq!(res.frames[0].0.tech, TechId::LoRa);
            }
            None => panic!("XBee not recovered: {:?}", res.frames),
        }
        assert!(res.payload_bits() > 0);
    }

    #[test]
    fn two_frames_of_one_technology_are_both_recovered_strongest_first() {
        // The classifier reports one anchor per technology per round:
        // two rounds, two windows, and each frame's start re-based from
        // its window to segment coordinates.
        let mut rng = StdRng::seed_from_u64(galiot_channel::scenario_seed(6));
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let events = vec![
            TxEvent::new(xbee.clone(), vec![0xA1; 12], 30_000).with_power_db(-6.0),
            TxEvent::new(xbee, vec![0xB2; 12], 180_000),
        ];
        let np = snr_to_noise_power(20.0, -6.0);
        let cap = compose(&events, 260_000, FS, np, &mut rng);
        let res = CloudDecoder::new(reg).decode(&cap.samples, FS);
        let got: Vec<(Vec<u8>, usize)> = res
            .frames
            .iter()
            .map(|(f, _)| (f.payload.clone(), f.start))
            .collect();
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!(got[0].0, vec![0xB2; 12], "strongest first: {got:?}");
        assert!(got[0].1.abs_diff(180_000) <= 4, "{got:?}");
        assert_eq!(got[1].0, vec![0xA1; 12]);
        assert!(got[1].1.abs_diff(30_000) <= 4, "{got:?}");
        assert_eq!(res.rounds, 2);
    }

    #[test]
    fn frame_whose_tail_outscores_its_preamble_is_still_decoded() {
        // A 9-byte LoRa payload leaves one data nibble in the last
        // interleaver block; when it whitens to zero the frame ends in
        // eight plain up-chirps — a second "preamble". Here the real
        // one is attenuated so the tail wins the classifier's peak
        // pick outright; the demodulator must still be pointed at the
        // whole frame.
        let reg = Registry::prototype();
        let lora = reg.get(TechId::LoRa).unwrap().clone();
        let preamble = lora.preamble_waveform(FS);
        let m = preamble.len();
        let (payload, frame) = (0..=255u8)
            .map(|b| {
                let payload = vec![b; 9];
                let frame = lora.modulate(&payload, FS);
                (payload, frame)
            })
            .find(|(_, frame)| {
                let tail = &frame[frame.len() - m..];
                galiot_dsp::kernels::dot_conj(tail, &preamble).abs() > 0.99 * m as f32
            })
            .expect("some 9-byte payload ends in a zero block");
        let mut rng = StdRng::seed_from_u64(7);
        let mut samples = galiot_channel::awgn(120_000, snr_to_noise_power(6.0, 0.0), &mut rng);
        let at = 16_000;
        for (k, &z) in frame.iter().enumerate() {
            samples[at + k] += if k < m { z * 0.8 } else { z };
        }
        let found = crate::classify(&samples, FS, &reg, 0.12);
        let c = found.iter().find(|c| c.tech == TechId::LoRa).unwrap();
        assert_eq!(c.start, at + frame.len() - m, "the tail is the peak");
        assert_eq!(c.search_from, at, "the search opens at the real preamble");
        let res = CloudDecoder::new(reg).decode(&samples, FS);
        let got = payloads(&res);
        assert!(got.contains(&(TechId::LoRa, payload)), "{got:?}");
        assert!(res.frames[0].0.start.abs_diff(at) <= 8);
    }

    #[test]
    fn noise_only_returns_empty() {
        let mut rng = StdRng::seed_from_u64(5);
        let reg = Registry::prototype();
        let noise = galiot_channel::awgn(200_000, 1.0, &mut rng);
        let dec = CloudDecoder::new(reg);
        let res = dec.decode(&noise, FS);
        assert!(res.frames.is_empty());
    }

    #[test]
    fn outperforms_sic_on_comparable_power_collision() {
        // The quantitative heart of Fig. 3(c): count frames recovered
        // by SIC alone vs CloudDecode over several comparable-power
        // collisions.
        let reg = Registry::prototype();
        let mut sic_total = 0usize;
        let mut galiot_total = 0usize;
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            // XBee a hair stronger than LoRa: strict SIC must decode
            // XBee first, fails under the comparable-power LoRa, and
            // stalls; Algorithm 1 kills LoRa and recovers both.
            let events = forced_collision(&reg, 8, &[0.0, 1.0], 20_000, 4_096, &mut rng);
            let truth: Vec<(TechId, Vec<u8>)> = events
                .iter()
                .map(|e| (e.tech.id(), e.payload.clone()))
                .collect();
            let np = snr_to_noise_power(25.0, 0.0);
            let cap = compose(&events, 500_000, FS, np, &mut rng);
            let sic =
                crate::sic::sic_decode(&cap.samples, FS, &reg, &crate::sic::SicParams::default());
            let gal = CloudDecoder::new(reg.clone()).decode(&cap.samples, FS);
            sic_total += sic
                .frames
                .iter()
                .filter(|f| truth.contains(&(f.tech, f.payload.clone())))
                .count();
            galiot_total += payloads(&gal).iter().filter(|t| truth.contains(t)).count();
        }
        assert!(
            galiot_total > sic_total,
            "GalioT {galiot_total} vs SIC {sic_total}"
        );
    }
}
