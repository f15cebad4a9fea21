//! Signal reconstruction and subtraction — the cancellation half of
//! successive interference cancellation.
//!
//! A decoded frame is remodulated, re-aligned against the residual at
//! sample resolution, and subtracted with per-block complex gains. The
//! block-wise gain estimate absorbs the unknown amplitude, phase and
//! (slowly rotating) residual CFO of the original transmission without
//! explicit CFO estimation.
//!
//! The cloud's SIC rounds cancel every frame they decode; the gateway's
//! edge cancels the one frame it decodes to see whether anything else
//! is left in the span.

use galiot_dsp::corr::xcorr_fft_into;
use galiot_dsp::kernels;
use galiot_dsp::Cf32;

use crate::{DecodedFrame, Technology};

/// Cancellation quality report.
#[derive(Clone, Copy, Debug)]
pub struct CancelReport {
    /// Sample offset the reference was aligned to.
    pub aligned_at: usize,
    /// Samples subtracted, starting at `aligned_at`.
    pub len: usize,
    /// Energy in the overlap before subtraction.
    pub energy_before: f32,
    /// Energy in the overlap after subtraction.
    pub energy_after: f32,
    /// The estimated complex channel gain (energy-weighted mean of the
    /// per-block gains). Beyond cancellation, this is the "wireless
    /// channel retrieved from I/Q samples" the paper's Sec. 6 proposes
    /// mining for sensing.
    pub mean_gain: Cf32,
    /// Estimated residual CFO in radians/sample.
    pub cfo_rad_per_sample: f32,
}

impl CancelReport {
    /// The samples of the residual the subtraction changed — everything
    /// outside is bit-identical to before the call.
    pub fn span(&self) -> std::ops::Range<usize> {
        self.aligned_at..self.aligned_at + self.len
    }

    /// Suppression achieved, in dB (positive = energy removed).
    pub fn suppression_db(&self) -> f32 {
        if self.energy_after <= 0.0 {
            return f32::INFINITY;
        }
        10.0 * (self.energy_before / self.energy_after).log10()
    }
}

/// Subtracts a decoded frame's waveform from `residual` in place.
///
/// The frame's start bounds the alignment search to
/// `[frame.start - slack, frame.start + slack]`. Returns a report, or
/// `None` if the reference cannot be aligned inside the residual.
pub fn cancel_frame(
    residual: &mut [Cf32],
    tech: &dyn Technology,
    frame: &DecodedFrame,
    fs: f64,
    slack: usize,
) -> Option<CancelReport> {
    cancel_frame_into(residual, tech, frame, fs, slack, &mut Vec::new())
}

/// [`cancel_frame`] remodulating the frame into `reference`, a buffer
/// the caller keeps from one cancellation to the next (whatever it held
/// is never read): the same subtraction, bit for bit.
pub fn cancel_frame_into(
    residual: &mut [Cf32],
    tech: &dyn Technology,
    frame: &DecodedFrame,
    fs: f64,
    slack: usize,
    reference: &mut Vec<Cf32>,
) -> Option<CancelReport> {
    tech.modulate_into(&frame.payload, fs, reference);
    let reference = &mut reference[..];
    if reference.is_empty() || residual.is_empty() {
        return None;
    }
    // Alignment search window around the hint. Correlating the whole
    // frame coherently would self-destruct under residual CFO (the
    // integrand rotates through full turns), so alignment combines
    // short-block correlations non-coherently: per candidate lag, sum
    // |<residual, ref_block>|^2 over blocks spread across the frame.
    let lo = frame.start.saturating_sub(slack);
    let hi = (frame.start + slack + reference.len()).min(residual.len());
    if lo >= hi || hi - lo < reference.len() {
        return None;
    }
    let lags = hi - lo - reference.len() + 1;
    let block_n = 512.min(reference.len());
    let nblocks = (reference.len() / block_n).clamp(1, 8);
    let stride = if nblocks > 1 {
        (reference.len() - block_n) / (nblocks - 1)
    } else {
        0
    };
    let mut score = vec![0.0f64; lags];
    let mut corr = Vec::new();
    for b in 0..nblocks {
        let o = b * stride;
        let seg_end = (lo + o + block_n + lags - 1).min(residual.len());
        if lo + o >= seg_end || seg_end - (lo + o) < block_n {
            continue;
        }
        xcorr_fft_into(
            &residual[lo + o..seg_end],
            &reference[o..o + block_n],
            &mut corr,
        );
        for (i, c) in corr.iter().take(lags).enumerate() {
            score[i] += c.norm_sqr() as f64;
        }
    }
    let best = score
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)?;
    let at = lo + best;
    let n = reference.len().min(residual.len() - at);

    let energy_before: f32 = kernels::energy_f32(&residual[at..at + n]);

    // --- Residual CFO estimation: the transmitter's crystal error
    // makes the received frame rotate against the CFO-free reference.
    // Track the phase of <residual, reference> over short blocks and
    // fit a weighted linear slope; 256-sample blocks resolve CFOs up to
    // ~2 kHz at 1 Msps without unwrap ambiguity.
    let track = 256usize.min(n.max(1));
    let mut phases: Vec<(f32, f32, f32)> = Vec::new(); // (t, phase, weight)
    let mut k = 0;
    while k + track <= n {
        let num = kernels::dot_conj(&residual[at + k..at + k + track], &reference[k..k + track]);
        if num.abs() > 0.0 {
            phases.push(((k + track / 2) as f32, num.arg(), num.abs()));
        }
        k += track;
    }
    let omega = if phases.len() >= 2 {
        // Unwrap, then weighted least squares through the points.
        let mut unwrapped = Vec::with_capacity(phases.len());
        let mut prev = phases[0].1;
        let mut acc = phases[0].1;
        unwrapped.push(acc);
        for p in &phases[1..] {
            let mut d = p.1 - prev;
            while d > std::f32::consts::PI {
                d -= std::f32::consts::TAU;
            }
            while d < -std::f32::consts::PI {
                d += std::f32::consts::TAU;
            }
            acc += d;
            prev = p.1;
            unwrapped.push(acc);
        }
        let wsum: f32 = phases.iter().map(|p| p.2).sum();
        let tm: f32 = phases.iter().map(|p| p.0 * p.2).sum::<f32>() / wsum;
        let pm: f32 = unwrapped
            .iter()
            .zip(&phases)
            .map(|(&u, p)| u * p.2)
            .sum::<f32>()
            / wsum;
        let mut num_s = 0.0f32;
        let mut den_s = 0.0f32;
        for (&u, p) in unwrapped.iter().zip(&phases) {
            num_s += p.2 * (p.0 - tm) * (u - pm);
            den_s += p.2 * (p.0 - tm) * (p.0 - tm);
        }
        if den_s > 0.0 {
            num_s / den_s
        } else {
            0.0
        }
    } else {
        0.0
    };

    // Derotate the reference by the estimated CFO, then subtract with
    // per-block complex gains (which absorb amplitude, phase and any
    // residual drift the linear fit missed). The remodulation is ours:
    // derotate it where it lies.
    for (i, r) in reference.iter_mut().enumerate() {
        *r *= Cf32::cis(omega * i as f32);
    }
    let block = (n / 16).clamp(256, 2048).min(n.max(1));
    let mut k = 0;
    let mut gain_acc = Cf32::ZERO;
    let mut gain_w = 0.0f32;
    while k < n {
        let end = (k + block).min(n);
        let num = kernels::dot_conj(&residual[at + k..at + end], &reference[k..end]);
        let den = kernels::energy_f32(&reference[k..end]);
        if den > 0.0 {
            let g = num / den;
            gain_acc += g * den;
            gain_w += den;
            kernels::sub_scaled(&mut residual[at + k..at + end], &reference[k..end], g);
        }
        k = end;
    }
    let energy_after: f32 = kernels::energy_f32(&residual[at..at + n]);
    Some(CancelReport {
        aligned_at: at,
        len: n,
        energy_before,
        energy_after,
        mean_gain: if gain_w > 0.0 {
            gain_acc / gain_w
        } else {
            Cf32::ZERO
        },
        cfo_rad_per_sample: omega,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::TechId;

    const FS: f64 = 1_000_000.0;

    // The cancellation's own behaviour is tested where the cloud calls
    // it, on channel-model captures (`galiot-cloud`'s `tests/cancel.rs`).
    #[test]
    fn a_reused_reference_buffer_cancels_as_a_fresh_one() {
        let mut reference = vec![Cf32::new(f32::NAN, f32::NAN); 300_000];
        for id in [TechId::LoRa, TechId::XBee, TechId::ZWave] {
            let tech = Registry::prototype().get(id).unwrap().clone();
            // A frame at 9 000 of 120 000 silent samples, its gain and
            // phase off and rotating at 150 Hz.
            let step = std::f32::consts::TAU * 150.0 / FS as f32;
            let mut cap = vec![Cf32::ZERO; 120_000];
            for (k, (dst, &src)) in cap[9_000..]
                .iter_mut()
                .zip(&tech.modulate(b"reused", FS))
                .enumerate()
            {
                *dst = src * Cf32::cis(0.3) * 0.8 * Cf32::cis(step * k as f32);
            }
            let frame = tech.demodulate(&cap, FS).unwrap();
            let (mut want, mut residual) = (cap.clone(), cap);
            let fresh = cancel_frame(&mut want, tech.as_ref(), &frame, FS, 64).unwrap();
            let reused =
                cancel_frame_into(&mut residual, tech.as_ref(), &frame, FS, 64, &mut reference)
                    .unwrap();
            assert!(residual == want, "{id}");
            assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "{id}");
        }
    }
}
