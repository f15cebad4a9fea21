//! Ground-truth scorer: every pass's delivered frames are matched
//! against what the generator transmitted. Failures are counted, never
//! panicked on — a pass that loses a frame is a data point.

use galiot_channel::TruthRecord;
use galiot_core::PipelineFrame;
use galiot_phy::TechId;

/// How far a decoder's reported frame start may sit from the truth
/// (the pipelines' own dedup slack).
pub const START_SLACK: usize = 4_096;

/// One transmitted frame in pass coordinates (replay offset applied).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Offered {
    /// Technology that transmitted.
    pub tech: TechId,
    /// Payload sent.
    pub payload: Vec<u8>,
    /// First sample of the frame in the pass.
    pub start: usize,
    /// Samples the frame occupies.
    pub len: usize,
}

/// One delivered frame, reduced to what identifies it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivered {
    /// Technology the decoder reported.
    pub tech: TechId,
    /// Recovered payload.
    pub payload: Vec<u8>,
    /// Reported start, absolute pass coordinates.
    pub start: usize,
}

impl From<&PipelineFrame> for Delivered {
    fn from(f: &PipelineFrame) -> Self {
        Delivered {
            tech: f.frame.tech,
            payload: f.frame.payload.clone(),
            start: f.frame.start,
        }
    }
}

/// The truth of a pass: the tile's records once per replay, each
/// replay shifted by the tile length.
pub fn offered(truth: &[TruthRecord], tile_len: usize, replays: usize) -> Vec<Offered> {
    (0..replays)
        .flat_map(|r| {
            truth.iter().map(move |t| Offered {
                tech: t.tech,
                payload: t.payload.clone(),
                start: t.start + r * tile_len,
                len: t.len,
            })
        })
        .collect()
}

/// The outcome of scoring one pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Score {
    /// Truth frames offered.
    pub offered: usize,
    /// Truth frames not delivered.
    pub missed: usize,
    /// Delivered frames matching no truth record, plus duplicates.
    pub spurious: usize,
    /// Of `spurious`: frames matching a truth record already matched
    /// (an exactly-once violation).
    pub duplicate: usize,
    /// For each delivered frame, the index of the truth record it
    /// claimed (`None` for spurious and duplicate frames).
    pub claims: Vec<Option<usize>>,
    /// Indices of the truth records nothing claimed.
    pub unclaimed: Vec<usize>,
}

impl Score {
    /// Missed plus spurious: the pass's failed operations.
    pub fn failed(&self) -> usize {
        self.missed + self.spurious
    }
}

fn matches(o: &Offered, d: &Delivered) -> bool {
    o.tech == d.tech && o.start.abs_diff(d.start) <= START_SLACK && o.payload == d.payload
}

/// Scores `delivered` (any order) against `offered`. A truth record is
/// claimed by at most one delivered frame; a second claimant is a
/// duplicate.
pub fn score(offered: &[Offered], delivered: &[Delivered]) -> Score {
    let mut claimed = vec![false; offered.len()];
    let mut score = Score {
        offered: offered.len(),
        ..Score::default()
    };
    for d in delivered {
        let free = offered
            .iter()
            .enumerate()
            .position(|(i, o)| !claimed[i] && matches(o, d));
        match free {
            Some(i) => {
                claimed[i] = true;
                score.claims.push(Some(i));
            }
            None => {
                score.spurious += 1;
                if offered.iter().any(|o| matches(o, d)) {
                    score.duplicate += 1;
                }
                score.claims.push(None);
            }
        }
    }
    score.unclaimed = (0..offered.len()).filter(|i| !claimed[*i]).collect();
    score.missed = score.unclaimed.len();
    score
}

#[cfg(test)]
mod tests {
    use super::*;

    const TILE: usize = 1_000_000;

    fn truth() -> Vec<TruthRecord> {
        [
            (TechId::XBee, vec![1, 2, 3], 100_000),
            (TechId::ZWave, vec![4, 5], 400_000),
            (TechId::LoRa, vec![6], 700_000),
        ]
        .into_iter()
        .map(|(tech, payload, start)| TruthRecord {
            tech,
            payload,
            start,
            len: 10_000,
            power_db: 0.0,
        })
        .collect()
    }

    fn exact(offered: &[Offered]) -> Vec<Delivered> {
        offered
            .iter()
            .map(|o| Delivered {
                tech: o.tech,
                payload: o.payload.clone(),
                start: o.start,
            })
            .collect()
    }

    #[test]
    fn offered_shifts_each_replay_by_the_tile_length() {
        let o = offered(&truth(), TILE, 2);
        assert_eq!(o.len(), 6);
        assert_eq!(o[0].start, 100_000);
        assert_eq!(o[3].start, 1_100_000);
        assert_eq!(o[3].payload, o[0].payload);
    }

    #[test]
    fn reordered_delivery_scores_clean() {
        let o = offered(&truth(), TILE, 2);
        let mut d = exact(&o);
        d.reverse();
        d.swap(1, 4);
        let s = score(&o, &d);
        assert_eq!((s.missed, s.spurious, s.duplicate), (0, 0, 0));
        assert_eq!(s.failed(), 0);
        // The claims follow the delivered order back to the truth.
        assert_eq!(s.claims[0], Some(5));
        assert!(s.claims.iter().all(|c| c.is_some()));
    }

    #[test]
    fn duplicated_frame_is_spurious_and_flagged_duplicate() {
        let o = offered(&truth(), TILE, 1);
        let mut d = exact(&o);
        d.push(d[1].clone());
        let s = score(&o, &d);
        assert_eq!((s.missed, s.spurious, s.duplicate), (0, 1, 1));
        assert_eq!(s.claims.last(), Some(&None));
        assert!(s.unclaimed.is_empty());
    }

    #[test]
    fn start_slack_is_inclusive_and_one_past_it_misses() {
        let o = offered(&truth(), TILE, 1);
        let mut d = exact(&o);
        d[0].start += START_SLACK;
        d[1].start -= START_SLACK;
        assert_eq!(score(&o, &d).failed(), 0);
        d[0].start += 1;
        let s = score(&o, &d);
        assert_eq!((s.missed, s.spurious, s.duplicate), (1, 1, 0));
    }

    #[test]
    fn wrong_replay_does_not_match() {
        // Both frames of replay 1 reported at replay 0's position: one
        // claims replay 0's record, the other is a duplicate, and
        // replay 1's record is missed.
        let o = offered(&truth(), TILE, 2);
        let mut d = exact(&o);
        d[3].start -= TILE;
        let s = score(&o, &d);
        assert_eq!((s.missed, s.spurious, s.duplicate), (1, 1, 1));
        // A replay that was never offered matches nothing at all.
        let o1 = offered(&truth(), TILE, 1);
        let s1 = score(&o1, &exact(&o)[3..]);
        assert_eq!((s1.missed, s1.spurious, s1.duplicate), (3, 3, 0));
    }

    #[test]
    fn wrong_payload_or_technology_is_spurious_and_the_truth_missed() {
        let o = offered(&truth(), TILE, 1);
        let mut d = exact(&o);
        d[0].payload[0] ^= 0xFF;
        d[2].tech = TechId::XBee;
        let s = score(&o, &d);
        assert_eq!((s.missed, s.spurious, s.duplicate), (2, 2, 0));
        assert_eq!(s.offered, 3);
    }

    #[test]
    fn nothing_delivered_misses_everything() {
        let o = offered(&truth(), TILE, 1);
        let s = score(&o, &[]);
        assert_eq!((s.missed, s.spurious), (3, 0));
        assert!(s.claims.is_empty());
        assert_eq!(s.unclaimed, vec![0, 1, 2]);
    }
}
