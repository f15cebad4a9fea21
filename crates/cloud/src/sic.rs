//! Successive interference cancellation — the baseline the paper
//! compares against (Sec. 5: "a strawman approach").
//!
//! Strongest-first decoding with reconstruct-and-subtract, exactly as
//! the strawman is defined: decode the highest-power signal, subtract
//! it, repeat — and **stop when the strongest signal fails to decode**,
//! because everything weaker is buried under it. This is the failure
//! the paper pins down ("SIC fails when multiple transmitters are
//! received at low power with comparable signal strengths"): when the
//! strongest signal cannot be decoded under its comparable-power
//! interferers, SIC has no way to make progress. Algorithm 1 escapes
//! through the kill filters, which remove interference *without*
//! decoding it first.

use galiot_dsp::Cf32;
use galiot_phy::cancel::anchor_pad;
use galiot_phy::common::demodulate_anchored;
use galiot_phy::registry::Registry;
use galiot_phy::{DecodedFrame, TechId};

use crate::classify::Classifier;
use crate::CloudParams;

/// Result of a SIC run.
#[derive(Clone, Debug, Default)]
pub struct SicResult {
    /// Frames recovered, in decode order.
    pub frames: Vec<DecodedFrame>,
    /// Number of decode rounds executed.
    pub rounds: usize,
}

/// Runs SIC on a segment: classify, decode strongest-first, cancel,
/// repeat until nothing more decodes. Built from the same incremental
/// classifier and anchored demodulation as [`crate::CloudDecoder`], and
/// tuned by the same [`CloudParams`], so the two differ by algorithm
/// only.
pub fn sic_decode(
    segment: &[Cf32],
    fs: f64,
    registry: &Registry,
    params: &CloudParams,
) -> SicResult {
    let mut result = SicResult::default();
    let mut already: Vec<(TechId, Vec<u8>)> = Vec::new();
    let pad = anchor_pad(params.cancel_slack);
    let mut classifier = Classifier::new(segment, fs, registry, params.classify_threshold);

    while result.rounds < params.max_rounds {
        // One span per successful round (the stall probe is
        // discarded), mirroring the CloudDecode instrumentation.
        let round_span = galiot_trace::span(galiot_trace::Stage::SicRound, galiot_trace::NO_SEQ);
        let frame = (|| {
            let candidates = classifier.candidates();
            // Strict SIC: only the strongest remaining signal is eligible.
            let strongest = candidates.first()?;
            let tech = registry.get(strongest.tech)?;
            let frame = demodulate_anchored(
                tech.as_ref(),
                classifier.residual(),
                fs,
                strongest.search_from..=strongest.start,
                pad,
            )
            .ok()?;
            if already
                .iter()
                .any(|(t, p)| *t == frame.tech && *p == frame.payload)
            {
                return None;
            }
            classifier.cancel(&frame, params.cancel_slack)?;
            Some(frame)
        })();
        let Some(frame) = frame else {
            round_span.discard();
            break;
        };
        already.push((frame.tech, frame.payload.clone()));
        result.frames.push(frame);
        result.rounds += 1;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use galiot_channel::{compose, snr_to_noise_power, TxEvent};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FS: f64 = 1_000_000.0;

    #[test]
    fn sic_decodes_time_separated_frames() {
        let mut rng = StdRng::seed_from_u64(1);
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let zwave = reg.get(TechId::ZWave).unwrap().clone();
        let events = vec![
            TxEvent::new(xbee, vec![1; 8], 2_000),
            TxEvent::new(zwave, vec![2; 8], 60_000),
        ];
        let np = snr_to_noise_power(20.0, 0.0);
        let cap = compose(&events, 200_000, FS, np, &mut rng);
        let res = sic_decode(&cap.samples, FS, &reg, &CloudParams::default());
        assert_eq!(res.frames.len(), 2, "{res:?}");
    }

    #[test]
    fn sic_resolves_power_separated_collision() {
        // Classic SIC win: a strong LoRa over a weak... here a strong
        // LoRa frame fully overlapping a weaker XBee: decode LoRa
        // (CSS is interference-tolerant), cancel, recover XBee.
        let mut rng = StdRng::seed_from_u64(2);
        let reg = Registry::prototype();
        let lora = reg.get(TechId::LoRa).unwrap().clone();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let events = vec![
            TxEvent::new(lora, vec![0xAA; 10], 0).with_power_db(0.0),
            TxEvent::new(xbee, vec![0xBB; 10], 30_000).with_power_db(-3.0),
        ];
        let np = snr_to_noise_power(25.0, -3.0);
        let cap = compose(&events, 400_000, FS, np, &mut rng);
        let res = sic_decode(&cap.samples, FS, &reg, &CloudParams::default());
        let ids: Vec<TechId> = res.frames.iter().map(|f| f.tech).collect();
        assert!(ids.contains(&TechId::LoRa), "{ids:?}");
        assert!(ids.contains(&TechId::XBee), "{ids:?}");
    }

    #[test]
    fn sic_stalls_on_comparable_power_fsk_collision() {
        // Two same-band FSK technologies at equal power: neither
        // decodes under the other, so SIC recovers at most one — this
        // is the failure mode the kill filters exist for (paper:
        // "SIC fails when multiple transmitters are received at low
        // power with comparable signal strengths").
        let mut rng = StdRng::seed_from_u64(3);
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let zwave = reg.get(TechId::ZWave).unwrap().clone();
        let events = vec![
            TxEvent::new(xbee, vec![1; 16], 1_000),
            TxEvent::new(zwave, vec![2; 16], 1_500),
        ];
        let np = snr_to_noise_power(20.0, 0.0);
        let cap = compose(&events, 80_000, FS, np, &mut rng);
        let res = sic_decode(&cap.samples, FS, &reg, &CloudParams::default());
        assert!(
            res.frames.len() < 2,
            "SIC should stall, got {:?}",
            res.frames.len()
        );
    }

    #[test]
    fn sic_on_noise_returns_nothing() {
        let mut rng = StdRng::seed_from_u64(4);
        let reg = Registry::prototype();
        let noise = galiot_channel::awgn(150_000, 1.0, &mut rng);
        let res = sic_decode(&noise, FS, &reg, &CloudParams::default());
        assert!(res.frames.is_empty());
    }

    #[test]
    fn round_limit_is_respected() {
        let mut rng = StdRng::seed_from_u64(5);
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let events: Vec<TxEvent> = (0..4)
            .map(|i| TxEvent::new(xbee.clone(), vec![i as u8; 4], 5_000 + i * 40_000))
            .collect();
        let cap = compose(&events, 200_000, FS, 0.0, &mut rng);
        let params = CloudParams {
            max_rounds: 2,
            ..Default::default()
        };
        let res = sic_decode(&cap.samples, FS, &reg, &params);
        assert!(res.frames.len() <= 2);
    }
}
