//! Signal reconstruction and subtraction — the cancellation half of
//! successive interference cancellation.
//!
//! A decoded frame is remodulated, re-aligned against the residual at
//! sample resolution, and subtracted with per-block complex gains. The
//! block-wise gain estimate absorbs the unknown amplitude, phase and
//! (slowly rotating) residual CFO of the original transmission without
//! explicit CFO estimation.
//!
//! [`Residual`] is Algorithm 1's step 6 — cancel a decoded frame, then
//! re-classify what is left — built once: the cloud's SIC rounds cancel
//! every frame they decode through it, and the gateway's edge cancels
//! the one frame it decodes to see whether anything else is left in the
//! span.

use std::ops::Range;

use galiot_dsp::corr::xcorr_fft_into;
use galiot_dsp::engine::Template;
use galiot_dsp::kernels;
use galiot_dsp::Cf32;

use crate::common::MAX_DEMOD_FIR_TAPS;
use crate::{DecodedFrame, Technology};

/// How far from its decoded start a frame's remodulation is aligned when
/// it is cancelled, in samples: the cloud's default `cancel_slack`, and
/// the edge's.
pub const CANCEL_SLACK: usize = 64;

/// How far either side of its anchor a demodulator is given samples: its
/// channel filter's settling time, plus the alignment error cancellation
/// later tolerates for the same frame.
pub fn anchor_pad(cancel_slack: usize) -> usize {
    MAX_DEMOD_FIR_TAPS + cancel_slack
}

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
    /// The lags of an `m`-sample template's trace over the residual that
    /// the subtraction dirtied: every lag whose window `i..i + m` overlaps
    /// the samples it changed, `aligned_at..aligned_at + len` (everything
    /// outside is bit-identical to before the call). Every other lag reads
    /// only samples the subtraction left as they were.
    pub fn dirty(&self, m: usize) -> Range<usize> {
        (self.aligned_at + 1).saturating_sub(m)..self.aligned_at + self.len
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
fn cancel_frame_into(
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

/// What a [`Residual`] writes, kept by its caller from one capture to the
/// next (whatever it held is never read).
#[derive(Debug, Default)]
pub struct ResidualBuffers {
    /// The capture with every cancelled frame subtracted.
    samples: Vec<Cf32>,
    /// The last cancelled frame's remodulation.
    reference: Vec<Cf32>,
    /// The lags of the last re-correlation.
    fresh: Vec<f32>,
}

/// A capture with decoded frames cancelled from it, re-correlated where
/// the caller asks: Algorithm 1's step 6, which the cloud's classifier
/// runs after every frame it decodes and the edge runs on the one frame
/// it keeps.
///
/// The residual is the caller's capture until the first cancellation
/// writes to it; then the capture is copied into buffers of its own, so
/// a capture nothing is cancelled from is never copied and the caller's
/// samples are never written.
pub struct Residual<'a> {
    capture: &'a [Cf32],
    /// `buffers.samples` is empty until the first cancellation.
    buffers: ResidualBuffers,
}

impl<'a> Residual<'a> {
    /// The residual of `capture`, nothing cancelled yet, writing into
    /// `buffers`.
    pub fn new(capture: &'a [Cf32], mut buffers: ResidualBuffers) -> Self {
        buffers.samples.clear();
        Residual { capture, buffers }
    }

    /// Gives the buffers back for the next capture.
    pub fn into_buffers(self) -> ResidualBuffers {
        self.buffers
    }

    /// The capture with every cancelled frame subtracted.
    pub fn samples(&self) -> &[Cf32] {
        match &self.buffers.samples[..] {
            [] => self.capture,
            written => written,
        }
    }

    /// Subtracts a decoded frame ([`cancel_frame`]), remodulating it into
    /// a buffer of the residual's. `None`, with the residual unchanged, if
    /// the frame cannot be aligned.
    pub fn cancel(
        &mut self,
        tech: &dyn Technology,
        frame: &DecodedFrame,
        fs: f64,
        slack: usize,
    ) -> Option<CancelReport> {
        let (samples, capture) = (&mut self.buffers.samples, self.capture);
        if samples.is_empty() {
            samples.reserve_exact(capture.len());
            samples.extend_from_slice(capture);
        }
        cancel_frame_into(samples, tech, frame, fs, slack, &mut self.buffers.reference)
    }

    /// The normalized correlation of `template` over the residual at
    /// `lags`, those past the last lag where it fits left out: correlated
    /// over the residual's samples `lags.start..lags.end + m - 1` alone,
    /// so its overlap-save blocks start at `lags.start`.
    pub fn rescore(&mut self, template: &Template, lags: Range<usize>) -> &[f32] {
        let mut fresh = std::mem::take(&mut self.buffers.fresh);
        let (residual, m) = (self.samples(), template.len());
        let end = lags.end.min((residual.len() + 1).saturating_sub(m));
        fresh.clear();
        if m > 0 && lags.start < end {
            template.xcorr_normalized_into(&residual[lags.start..end + m - 1], &mut fresh);
        }
        self.buffers.fresh = fresh;
        &self.buffers.fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::TechId;

    const FS: f64 = 1_000_000.0;

    #[test]
    fn a_cancellation_dirties_exactly_the_lags_it_reports() {
        use rand::{Rng, SeedableRng};
        // A LoRa frame with an XBee frame inside it, in uniform noise
        // 18 dB under either; each is cancelled in turn from one residual.
        let reg = Registry::prototype();
        let bank = reg.template_bank(FS);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let a = (1.5f32 * 0.016).sqrt();
        let capture: Vec<Cf32> = (0..120_000)
            .map(|_| Cf32::new(rng.gen_range(-a..a), rng.gen_range(-a..a)))
            .collect();
        let (mut capture, pristine) = (capture.clone(), capture);
        let mut frames = Vec::new();
        for (id, at, gain) in [
            (TechId::LoRa, 6_000, Cf32::cis(0.4)),
            (TechId::XBee, 21_000, Cf32::cis(-1.1) * 0.7),
        ] {
            let waveform = reg.get(id).unwrap().modulate(b"dirty", FS);
            for (dst, &src) in capture[at..].iter_mut().zip(&waveform) {
                *dst += src * gain;
            }
            let (payload, len) = (b"dirty".to_vec(), waveform.len());
            frames.push(DecodedFrame {
                tech: id,
                payload,
                start: at,
                len,
            });
        }
        let with_both = capture.clone();
        let mut traces: Vec<_> = (0..bank.len())
            .map(|i| bank.template(i).xcorr_normalized(&capture))
            .collect();
        let mut residual = Residual::new(&capture, ResidualBuffers::default());
        for frame in &frames {
            let tech = reg.get(frame.tech).unwrap();
            let before = residual.samples().to_vec();
            let report = residual.cancel(tech.as_ref(), frame, FS, CANCEL_SLACK);
            let report = report.unwrap();
            // How many samples the cancellation changed before each index.
            let mut changed = vec![0usize];
            for (x, y) in before.iter().zip(residual.samples()) {
                changed.push(changed.last().unwrap() + usize::from(x != y));
            }
            let span = report.aligned_at..report.aligned_at + report.len;
            assert_eq!(changed[span.start], 0, "{}", frame.tech);
            assert_eq!(changed[span.end], changed[before.len()], "{}", frame.tech);
            let fresh: Vec<_> = (0..bank.len())
                .map(|i| bank.template(i).xcorr_normalized(residual.samples()))
                .collect();
            for (i, trace) in traces.iter_mut().enumerate() {
                let (template, m) = (bank.template(i), bank.template(i).len());
                let dirty = report.dirty(m);
                // Dirty: exactly the lags whose window holds a changed sample.
                for lag in 0..trace.len() {
                    let seen = changed[lag + m] > changed[lag];
                    assert_eq!(dirty.contains(&lag), seen, "{} lag {lag}", frame.tech);
                }
                let rescored = residual.rescore(template, dirty.clone());
                trace[dirty.start..dirty.start + rescored.len()].copy_from_slice(rescored);
                // Every lag, kept or re-correlated, is the whole residual's.
                for (lag, (&kept, &want)) in trace.iter().zip(&fresh[i]).enumerate() {
                    assert!(
                        (kept - want).abs() <= 1e-4,
                        "{} template {i} lag {lag}: {kept} vs {want}",
                        frame.tech
                    );
                }
            }
        }
        assert!(capture == with_both && capture != pristine);
    }

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
