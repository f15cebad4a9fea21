//! Deterministic decode-fault injection for the cloud worker pool.
//!
//! The supervised decode pool (DESIGN.md §17) needs a way to *provoke*
//! the failures it recovers from — panicking, hanging, and pathologically
//! slow decodes — without giving up determinism. A [`DecodeFaultSpec`]
//! picks victim segments as a pure function of `(seed, gateway, seq)`,
//! so the same spec strikes the same segments on every machine and under
//! every worker interleaving, and the `GALIOT_DECODE_FAULTS` environment
//! knob sweeps the pattern with the same XOR rule as the other seed
//! knobs (see EXPERIMENTS.md).

/// What an injected decode fault does to the worker attempt it strikes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeFaultKind {
    /// The decode panics ("poison"): caught by the worker, reported as
    /// a failed attempt immediately.
    Panic,
    /// The decode wedges and never returns on its own: only the
    /// supervisor's lease deadline can recover the segment.
    Hang,
    /// The decode completes, but only after sleeping well past the
    /// lease deadline — exercising the stale-result fencing path.
    Slow,
}

impl DecodeFaultKind {
    /// Stable lower-case name (used in reports and repro bundles).
    pub fn name(self) -> &'static str {
        match self {
            DecodeFaultKind::Panic => "panic",
            DecodeFaultKind::Hang => "hang",
            DecodeFaultKind::Slow => "slow",
        }
    }
}

/// A deterministic decode-fault pattern: roughly one in [`period`]
/// segments is struck, and the first [`sticky_attempts`] decode
/// attempts of a struck segment fault before it decodes cleanly.
///
/// With `sticky_attempts <= decode_retries` a struck segment is
/// eventually delivered through the retry ladder; with
/// `sticky_attempts > decode_retries` it is quarantined. `period == 0`
/// disables injection entirely (the default configuration).
///
/// [`period`]: DecodeFaultSpec::period
/// [`sticky_attempts`]: DecodeFaultSpec::sticky_attempts
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeFaultSpec {
    /// The failure mode injected into struck attempts.
    pub kind: DecodeFaultKind,
    /// Strike density: segments whose keyed hash is `0 mod period`
    /// fault. 1 strikes every segment; 0 disables injection.
    pub period: u64,
    /// How many leading attempts of a struck segment fault before the
    /// segment decodes cleanly (min 1 for an enabled spec).
    pub sticky_attempts: u32,
    /// Pattern seed. Fold test defaults through [`crate::decode_fault_seed`]
    /// so `GALIOT_DECODE_FAULTS` sweeps the pattern.
    pub seed: u64,
}

impl DecodeFaultSpec {
    /// The no-op spec: never strikes anything.
    pub const fn disabled() -> Self {
        DecodeFaultSpec {
            kind: DecodeFaultKind::Panic,
            period: 0,
            sticky_attempts: 1,
            seed: 0,
        }
    }

    /// Whether this spec injects anything at all.
    pub fn enabled(&self) -> bool {
        self.period > 0
    }

    /// Whether attempt number `attempt` (0-based) at decoding segment
    /// `(gateway, seq)` faults. Pure: independent of worker identity,
    /// dispatch order, and wall-clock time.
    pub fn strikes(&self, gateway: u16, seq: u64, attempt: u32) -> bool {
        if self.period == 0 || attempt >= self.sticky_attempts {
            return false;
        }
        let key = self
            .seed
            .wrapping_add((gateway as u64) << 48 ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        mix(key).is_multiple_of(self.period)
    }
}

impl Default for DecodeFaultSpec {
    fn default() -> Self {
        DecodeFaultSpec::disabled()
    }
}

/// SplitMix64 finalizer: a full-avalanche bijection, so consecutive
/// seqs land on decorrelated residues.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spec_never_strikes() {
        let s = DecodeFaultSpec::disabled();
        assert!(!s.enabled());
        for seq in 0..100 {
            assert!(!s.strikes(1, seq, 0));
        }
    }

    #[test]
    fn strikes_are_deterministic_and_sticky() {
        let s = DecodeFaultSpec {
            kind: DecodeFaultKind::Panic,
            period: 3,
            sticky_attempts: 2,
            seed: 42,
        };
        for seq in 0..200 {
            for attempt in 0..4 {
                assert_eq!(s.strikes(2, seq, attempt), s.strikes(2, seq, attempt));
                // Past the sticky window the segment decodes cleanly.
                if attempt >= 2 {
                    assert!(!s.strikes(2, seq, attempt));
                }
            }
            // Stickiness: the strike decision is per-segment, shared by
            // every attempt inside the window.
            assert_eq!(s.strikes(2, seq, 0), s.strikes(2, seq, 1));
        }
    }

    #[test]
    fn period_one_strikes_everything_and_density_tracks_period() {
        let all = DecodeFaultSpec {
            kind: DecodeFaultKind::Hang,
            period: 1,
            sticky_attempts: 1,
            seed: 7,
        };
        assert!((0..50).all(|seq| all.strikes(1, seq, 0)));

        let sparse = DecodeFaultSpec { period: 4, ..all };
        let hits = (0..4000).filter(|&seq| sparse.strikes(1, seq, 0)).count();
        // ~1000 expected; allow generous slack for hash variance.
        assert!((600..1400).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn pattern_depends_on_seed_and_gateway() {
        let a = DecodeFaultSpec {
            kind: DecodeFaultKind::Slow,
            period: 2,
            sticky_attempts: 1,
            seed: 1,
        };
        let b = DecodeFaultSpec { seed: 2, ..a };
        let differs = (0..200).any(|seq| a.strikes(1, seq, 0) != b.strikes(1, seq, 0));
        assert!(differs, "seed does not shape the pattern");
        let differs = (0..200).any(|seq| a.strikes(1, seq, 0) != a.strikes(2, seq, 0));
        assert!(differs, "gateway does not shape the pattern");
    }
}
