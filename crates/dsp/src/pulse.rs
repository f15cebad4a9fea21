//! Pulse shaping for the FSK/PSK modulators.
//!
//! GFSK technologies (XBee, Z-Wave R2+, BLE) shape their frequency
//! pulse with a Gaussian filter characterized by its bandwidth-time
//! product BT; 802.15.4 O-QPSK uses half-sine chip shaping. Both
//! shapes live here.

use crate::fir::Fir;

/// Gaussian frequency-pulse filter taps for GFSK.
///
/// * `bt` — bandwidth-time product (0.3 for BLE, 0.5 for 802.15.4g).
/// * `sps` — samples per symbol.
/// * `span` — filter length in symbols (typically 2-4).
///
/// Taps are normalized to unit sum so the shaped NRZ stream keeps its
/// nominal deviation.
pub fn gaussian_taps(bt: f32, sps: usize, span: usize) -> Vec<f32> {
    assert!(bt > 0.0, "BT product must be positive");
    assert!(sps >= 1 && span >= 1, "sps and span must be >= 1");
    let n = sps * span + 1;
    let mid = (n - 1) as f32 / 2.0;
    // Standard GMSK Gaussian pulse: h(t) ~ exp(-2 pi^2 B^2 t^2 / ln 2),
    // with t in symbol periods and B = BT.
    let ln2 = std::f32::consts::LN_2;
    let k = 2.0 * std::f32::consts::PI * std::f32::consts::PI * bt * bt / ln2;
    let mut taps: Vec<f32> = (0..n)
        .map(|i| {
            let t = (i as f32 - mid) / sps as f32;
            (-k * t * t).exp()
        })
        .collect();
    let sum: f32 = taps.iter().sum();
    for t in &mut taps {
        *t /= sum;
    }
    taps
}

/// A Gaussian pulse-shaping filter ready to apply to an NRZ frequency
/// stream (one `+1`/`-1` value per sample).
pub fn gaussian_filter(bt: f32, sps: usize, span: usize) -> Fir {
    Fir::from_taps(gaussian_taps(bt, sps, span))
}

/// Half-sine chip pulse of `sps` samples, peak 1.0, as used by
/// IEEE 802.15.4 O-QPSK chip shaping.
pub fn half_sine(sps: usize) -> Vec<f32> {
    (0..sps)
        .map(|i| (std::f32::consts::PI * i as f32 / sps as f32).sin())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_taps_sum_to_one() {
        for &(bt, sps, span) in &[(0.3f32, 8usize, 3usize), (0.5, 4, 2), (1.0, 16, 4)] {
            let taps = gaussian_taps(bt, sps, span);
            let sum: f32 = taps.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "bt={bt} sum={sum}");
        }
    }

    #[test]
    fn gaussian_is_symmetric_and_peaked() {
        let taps = gaussian_taps(0.5, 8, 3);
        let n = taps.len();
        for i in 0..n {
            assert!((taps[i] - taps[n - 1 - i]).abs() < 1e-6);
        }
        let mid = n / 2;
        assert!(taps.iter().all(|&t| t <= taps[mid]));
    }

    #[test]
    fn smaller_bt_is_wider_pulse() {
        // Lower BT spreads energy further from center.
        let tight = gaussian_taps(1.0, 8, 4);
        let wide = gaussian_taps(0.3, 8, 4);
        let edge = 4; // samples from each edge
        let tight_edge: f32 = tight[..edge]
            .iter()
            .chain(&tight[tight.len() - edge..])
            .sum();
        let wide_edge: f32 = wide[..edge].iter().chain(&wide[wide.len() - edge..]).sum();
        assert!(wide_edge > tight_edge);
    }

    #[test]
    fn gaussian_smooths_nrz_transitions() {
        let fir = gaussian_filter(0.5, 8, 3);
        // NRZ stream: 4 symbols +1, 4 symbols -1, at 8 sps.
        let mut nrz = vec![1.0f32; 32];
        nrz.extend(std::iter::repeat_n(-1.0, 32));
        let shaped = fir.filter_real(&nrz);
        // The shaped signal must pass through intermediate values.
        assert!(shaped.iter().any(|&v| v.abs() < 0.5));
        // And settle to +-1 in steady state.
        assert!((shaped[16] - 1.0).abs() < 0.01);
        assert!((shaped[48] + 1.0).abs() < 0.01);
    }

    #[test]
    fn half_sine_shape() {
        let p = half_sine(16);
        assert_eq!(p.len(), 16);
        assert!(p[0].abs() < 1e-6);
        assert!((p[8] - 1.0).abs() < 1e-6);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "BT")]
    fn gaussian_rejects_bad_bt() {
        let _ = gaussian_taps(0.0, 8, 3);
    }
}
