//! The "kill" filters (paper, Sec. 5): modulation-aware removal of one
//! technology from a collision so the others become decodable — the
//! step that lets GalioT proceed where plain SIC stalls.

use galiot_dsp::fft::Fft;
use galiot_dsp::kernels;
use galiot_dsp::mix::{mix_in_place, mix_into};
use galiot_dsp::spectral::{stft_frame, suppress_bands, suppress_bands_framed_into, Band};
use galiot_dsp::Cf32;
use galiot_phy::common::{KillRecipe, WINDOW_ALIGN};
use galiot_phy::Technology;

/// KILL-FREQUENCY: suppress the spectral bands where an FSK/PSK
/// technology concentrates its energy.
pub fn kill_frequency(samples: &[Cf32], fs: f64, bands: &[Band]) -> Vec<Cf32> {
    suppress_bands(samples, fs, bands)
}

/// Adaptive KILL-FREQUENCY: *learns* where the interference
/// concentrates instead of using a registry recipe — the first step
/// toward the paper's "generalized set of filters that span a
/// wide-range of available IoT radio technologies" (Sec. 5).
///
/// Estimates the PSD of `span` (Welch) and suppresses the bands that
/// stand `threshold_factor` above the 90th-percentile bin power.
/// Referencing a high percentile — rather than the median/noise floor —
/// makes any co-channel *wideband* signal's plateau the baseline, so
/// only energy that genuinely concentrates (the KILL-FREQUENCY class)
/// is removed and a spread-spectrum victim is never notched to death.
/// Returns the filtered samples and the learned bands.
pub fn kill_frequency_adaptive(
    samples: &[Cf32],
    fs: f64,
    span: std::ops::Range<usize>,
    threshold_factor: f32,
) -> (Vec<Cf32>, Vec<Band>) {
    let lo = span.start.min(samples.len());
    let hi = span.end.min(samples.len());
    if hi <= lo {
        return (samples.to_vec(), Vec::new());
    }
    let psd = galiot_dsp::psd::welch_psd(&samples[lo..hi], fs, 1024);
    let threshold = psd.percentile(90) * threshold_factor;
    let candidates =
        galiot_dsp::psd::find_bands_above(&psd, threshold, 4.0 * fs / 1024.0, fs / 1024.0);
    // Keep the densest bands up to a total-width budget.
    let budget = 0.4 * fs;
    let mut width = 0.0;
    let mut bands = Vec::new();
    for b in candidates {
        if width + b.width() > budget {
            continue;
        }
        width += b.width();
        bands.push(b);
    }
    if bands.is_empty() {
        return (samples.to_vec(), bands);
    }
    (suppress_bands(samples, fs, &bands), bands)
}

/// KILL-CSS: collapse a CSS signal to narrowband tones by multiplying
/// with the inverted elementary chirp, notch the tones, and restore the
/// rest of the spectrum by re-chirping (Sec. 5, filter 2).
///
/// * `grid_start` — the classifier's estimate of the CSS frame's
///   preamble start (anchors the symbol grid).
/// * `span` — the region to process (the classified frame extent);
///   samples outside are untouched.
/// * `head_symbols` / `sfd_symbols` — the frame anatomy from the
///   [`KillRecipe`]: up-chirp symbols at the head, whole down-chirp
///   SFD symbols (followed by a quarter symbol), after which the data
///   grid runs shifted by that quarter.
///
/// Per window the two strongest dechirped tone clusters (a cyclically
/// shifted chirp folds into a main tone plus its wrap-around alias)
/// are zeroed with a small guard band.
#[allow(clippy::too_many_arguments)]
pub fn kill_css(
    samples: &[Cf32],
    fs: f64,
    bw: f64,
    sf: u32,
    center_offset_hz: f64,
    grid_start: usize,
    span: std::ops::Range<usize>,
    head_symbols: usize,
    sfd_symbols: usize,
) -> Vec<Cf32> {
    let mut out = Vec::new();
    kill_css_into(
        samples,
        fs,
        bw,
        sf,
        center_offset_hz,
        grid_start,
        span,
        head_symbols,
        sfd_symbols,
        &mut out,
    );
    out
}

/// [`kill_css`] into a caller-held buffer: whatever `out` held is
/// discarded, and it comes back as long as `samples`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn kill_css_into(
    samples: &[Cf32],
    fs: f64,
    bw: f64,
    sf: u32,
    center_offset_hz: f64,
    grid_start: usize,
    span: std::ops::Range<usize>,
    head_symbols: usize,
    sfd_symbols: usize,
    out: &mut Vec<Cf32>,
) {
    let os = (fs / bw).round() as usize;
    let sps = os << sf;
    if os == 0 || (fs / bw - os as f64).abs() > 1e-9 || samples.len() < sps {
        // Cannot form a symbol grid: return input unchanged.
        copy_into(samples, out);
        return;
    }
    let base = out;
    if center_offset_hz != 0.0 {
        mix_into(samples, -center_offset_hz, fs, base);
    } else {
        copy_into(samples, base);
    }
    let down = galiot_dsp::chirp::downchirp(bw, sps, fs);
    let up = galiot_dsp::chirp::upchirp(bw, sps, fs);
    let plan = galiot_dsp::engine::plan(sps.next_power_of_two());
    let scratch = &mut NotchScratch::default();

    let lo = span.start.min(base.len());
    let hi = span.end.min(base.len());

    // Head (preamble + sync): up-chirps aligned to grid_start.
    let head_end = (grid_start + head_symbols * sps).min(hi);
    dechirp_notch_pass(
        base,
        &down,
        &up,
        &plan,
        os,
        grid_start,
        lo..head_end,
        scratch,
    );
    // SFD: whole down-chirps right after the head...
    let sfd_start = grid_start + head_symbols * sps;
    let sfd_end = (sfd_start + sfd_symbols * sps).min(hi);
    let sfd = sfd_start.min(hi)..sfd_end;
    dechirp_notch_pass(base, &up, &down, &plan, os, sfd_start, sfd, scratch);
    // ...plus one quarter-shifted window that catches the trailing
    // quarter down-chirp (it up-dechirps to a tone alongside whatever
    // tail of the previous down-chirp remains).
    let tail_grid = sfd_start + sfd_symbols * sps - (3 * sps) / 4;
    let tail_end = (tail_grid + sps).min(hi);
    let tail = tail_grid.min(hi)..tail_end;
    dechirp_notch_pass(base, &up, &down, &plan, os, tail_grid, tail, scratch);
    // Data: up-chirp symbols on the quarter-shifted grid.
    let data_start = sfd_start + sfd_symbols * sps + sps / 4;
    let data = data_start.min(hi)..hi;
    dechirp_notch_pass(base, &down, &up, &plan, os, data_start, data, scratch);

    if center_offset_hz != 0.0 {
        mix_in_place(base, center_offset_hz, fs, 0.0);
    }
}

/// Replaces what `out` held with a copy of `samples`, sized exactly.
fn copy_into(samples: &[Cf32], out: &mut Vec<Cf32>) {
    out.clear();
    out.reserve_exact(samples.len());
    out.extend_from_slice(samples);
}

/// The symbol-sized working memory of [`dechirp_notch_pass`], shared by
/// the passes of one kill.
#[derive(Default)]
struct NotchScratch {
    /// The dechirped window.
    window: Vec<Cf32>,
    /// Its zero-padded spectrum.
    spectrum: Vec<Cf32>,
    /// The tone [`project_out_tone`] removes.
    phasors: Vec<Cf32>,
}

/// One dechirp-project-rechirp pass over symbol-grid windows.
///
/// Multiplying a window by `fwd` (the conjugate of the chirp family to
/// kill) collapses an aligned, cyclically-shifted chirp into *two tone
/// segments*: frequency `f1` until the chirp's wrap instant, then
/// `f2 = f1 - sign * bw` for the remainder, where
/// `t_wrap = T (1 - sign * f1 / bw)` and `sign` is +1 when killing
/// up-chirps with a down-chirp and −1 for the converse. Each tone is
/// removed by exact least-squares projection over its own segment —
/// unlike FFT-bin notching this leaves no spectral leakage from the
/// mid-window transition.
///
/// A window is only touched while its strongest dechirped bin
/// genuinely dominates (a collapsed chirp is a near-pure tone; any
/// other signal dechirps to spread energy), which keeps the filter
/// from shredding collision survivors.
#[allow(clippy::too_many_arguments)]
fn dechirp_notch_pass(
    base: &mut [Cf32],
    fwd: &[Cf32],
    inv: &[Cf32],
    plan: &Fft,
    os: usize,
    grid_start: usize,
    span: std::ops::Range<usize>,
    scratch: &mut NotchScratch,
) {
    let sps = fwd.len();
    let padded = plan.len();
    // `fwd` is a down-chirp (sweeping high -> low) when killing
    // up-chirps. Orientation comes from the *sweep direction*: the
    // instantaneous frequency at the start versus the end of `fwd`.
    let d0 = (fwd[1] * fwd[0].conj()).arg();
    let d1 = (fwd[sps - 1] * fwd[sps - 2].conj()).arg();
    let sign = if d0 > d1 { 1.0f64 } else { -1.0 };
    let bw_norm = 1.0 / os as f64; // bw / fs
    let lo = span.start.min(base.len());
    let hi = span.end.min(base.len());
    let phase = grid_start % sps;
    let mut w = if lo <= phase {
        phase
    } else {
        phase + ((lo - phase).div_ceil(sps)) * sps
    };
    let NotchScratch {
        window: d,
        spectrum: buf,
        phasors,
    } = scratch;
    buf.clear();
    buf.resize(padded, Cf32::ZERO);
    while w + sps <= hi {
        d.clear();
        d.extend_from_slice(&base[w..w + sps]);
        kernels::mul_in_place(d, fwd);
        let mut any = false;
        for _ in 0..2 {
            buf[..sps].copy_from_slice(d);
            for b in buf.iter_mut().skip(sps) {
                *b = Cf32::ZERO;
            }
            plan.forward(buf);
            let total: f32 = kernels::energy_f32(buf);
            if total <= 0.0 {
                break;
            }
            let peak = galiot_dsp::fft::peak_bin(buf);
            if buf[peak].norm_sqr() / total < 0.04 {
                break;
            }
            // Fine frequency via parabolic interpolation of the
            // magnitude around the peak (cyclic neighbours).
            let m = |b: usize| buf[b % padded].abs();
            let (ml, mc, mr) = (m(peak + padded - 1), m(peak), m(peak + 1));
            let denom = ml - 2.0 * mc + mr;
            let delta = if denom.abs() > 1e-12 {
                (0.5 * (ml - mr) / denom).clamp(-0.5, 0.5)
            } else {
                0.0
            };
            // Normalized frequency (cycles/sample) of the peak tone.
            let fb = {
                let b = peak as f64 + delta as f64;
                let b = if b > padded as f64 / 2.0 {
                    b - padded as f64
                } else {
                    b
                };
                b / padded as f64
            };
            // Map to the first-segment tone f1 with sign*f1 in [0, bw).
            let f1 = if sign * fb >= 0.0 {
                fb
            } else {
                fb + sign * bw_norm
            };
            let f2 = f1 - sign * bw_norm;
            let frac = (sign * f1 / bw_norm).clamp(0.0, 1.0);
            let t_wrap = ((1.0 - frac) * sps as f64).round() as usize;
            project_out_tone(&mut d[..t_wrap.min(sps)], f1, phasors);
            if t_wrap < sps {
                project_out_tone(&mut d[t_wrap..], f2, phasors);
            }
            any = true;
        }
        if any {
            kernels::mul_in_place(d, inv);
            base[w..w + sps].copy_from_slice(d);
        }
        w += sps;
    }
}

/// Removes the least-squares projection of `seg` onto the unit tone
/// `e^{i 2 pi f n}` (`f` in cycles/sample), building the tone in
/// `phasors`.
fn project_out_tone(seg: &mut [Cf32], f: f64, phasors: &mut Vec<Cf32>) {
    if seg.is_empty() {
        return;
    }
    let step = 2.0 * std::f64::consts::PI * f;
    let mut ph = 0.0f64;
    phasors.clear();
    phasors.extend((0..seg.len()).map(|_| {
        let p = Cf32::cis(ph as f32);
        ph += step;
        if ph > std::f64::consts::TAU {
            ph -= std::f64::consts::TAU;
        } else if ph < -std::f64::consts::TAU {
            ph += std::f64::consts::TAU;
        }
        p
    }));
    let num = kernels::dot_conj(seg, phasors);
    let g = num / seg.len() as f32;
    kernels::sub_scaled(seg, phasors, g);
}

/// KILL-CODES: for each code-symbol window, project the signal onto the
/// best-matching code reference and subtract the projection (Sec. 5,
/// filter 3). Works whether or not the coded frame itself is decodable.
pub fn kill_codes(
    samples: &[Cf32],
    fs: f64,
    refs: &[Vec<Cf32>],
    sps: usize,
    center_offset_hz: f64,
    grid_start: usize,
    span: std::ops::Range<usize>,
) -> Vec<Cf32> {
    let mut out = Vec::new();
    kill_codes_into(
        samples,
        fs,
        refs,
        sps,
        center_offset_hz,
        grid_start,
        span,
        &mut out,
    );
    out
}

/// [`kill_codes`] into a caller-held buffer: whatever `out` held is
/// discarded, and it comes back as long as `samples`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn kill_codes_into(
    samples: &[Cf32],
    fs: f64,
    refs: &[Vec<Cf32>],
    sps: usize,
    center_offset_hz: f64,
    grid_start: usize,
    span: std::ops::Range<usize>,
    out: &mut Vec<Cf32>,
) {
    let base = out;
    if refs.is_empty() || sps == 0 || samples.len() < sps {
        copy_into(samples, base);
        return;
    }
    if center_offset_hz != 0.0 {
        mix_into(samples, -center_offset_hz, fs, base);
    } else {
        copy_into(samples, base);
    }
    let lo = span.start.min(base.len());
    let hi = span.end.min(base.len());
    let phase = grid_start % sps;
    let mut w = if lo <= phase {
        phase
    } else {
        phase + ((lo - phase).div_ceil(sps)) * sps
    };
    while w + sps <= hi {
        // Best-matching reference by normalized projection energy.
        let mut best: Option<(usize, Cf32)> = None;
        let mut best_metric = 0.0f32;
        for (ri, r) in refs.iter().enumerate() {
            let n = sps.min(r.len());
            let num = kernels::dot_conj(&base[w..w + n], &r[..n]);
            let den = kernels::energy_f32(&r[..n]);
            if den <= 0.0 {
                continue;
            }
            let metric = num.norm_sqr() / den;
            if metric > best_metric {
                best_metric = metric;
                best = Some((ri, num / den));
            }
        }
        if let Some((ri, g)) = best {
            let r = &refs[ri];
            let n = sps.min(r.len());
            kernels::sub_scaled(&mut base[w..w + n], &r[..n], g);
        }
        w += sps;
    }
    if center_offset_hz != 0.0 {
        mix_in_place(base, center_offset_hz, fs, 0.0);
    }
}

/// Applies the kill filter of `tech` to a segment.
///
/// `grid_start` is the classifier's estimate of where the victim's
/// frame begins (its symbol grid anchor); `span` bounds the processing
/// to the victim's extent.
pub fn apply_kill(
    samples: &[Cf32],
    fs: f64,
    tech: &dyn Technology,
    grid_start: usize,
    span: std::ops::Range<usize>,
) -> Vec<Cf32> {
    let mut killed = Vec::new();
    apply_kill_window(
        samples,
        fs,
        tech,
        grid_start,
        span,
        0..samples.len(),
        &mut killed,
    );
    killed
}

/// [`apply_kill`] on one window of a segment: what a decoder that only
/// needs the samples a *target* frame occupies pays for, instead of
/// filtering the whole segment whatever the victim's extent.
///
/// Writes the filtered copy into `killed` (whatever it held is
/// discarded) and returns the segment index of its first sample. That
/// index is `window.start`, except that grid-anchored
/// filters (KILL-CSS, KILL-CODES) reach back to `grid_start` (down to
/// [`WINDOW_ALIGN`], like any window) when the victim begins before the
/// window, so the victim's frame anatomy is laid out from its real
/// anchor. KILL-FREQUENCY keeps the STFT frame
/// size the whole segment would have used, so its band edges are the
/// same at any window length.
pub(crate) fn apply_kill_window(
    samples: &[Cf32],
    fs: f64,
    tech: &dyn Technology,
    grid_start: usize,
    span: std::ops::Range<usize>,
    window: std::ops::Range<usize>,
    killed: &mut Vec<Cf32>,
) -> usize {
    let _span = galiot_trace::span(galiot_trace::Stage::KillFilter, galiot_trace::NO_SEQ);
    let hi = window.end.min(samples.len());
    let recipe = tech.kill_recipe(fs);
    let lo = match recipe {
        KillRecipe::Css { .. } | KillRecipe::Codes { .. } if grid_start < window.start => {
            grid_start / WINDOW_ALIGN * WINDOW_ALIGN
        }
        _ => window.start,
    }
    .min(hi);
    let cut = &samples[lo..hi];
    // The grid-anchored filters have `lo <= grid_start`; a span that
    // begins before the cut simply clips to it.
    let grid = grid_start.saturating_sub(lo);
    let span = span.start.saturating_sub(lo)..span.end.saturating_sub(lo);
    match recipe {
        KillRecipe::Frequency(bands) => {
            suppress_bands_framed_into(cut, fs, &bands, stft_frame(samples.len()), killed)
        }
        KillRecipe::Css {
            bw,
            sf,
            center_offset_hz,
            head_symbols,
            sfd_symbols,
        } => kill_css_into(
            cut,
            fs,
            bw,
            sf,
            center_offset_hz,
            grid,
            span,
            head_symbols,
            sfd_symbols,
            killed,
        ),
        KillRecipe::Codes {
            refs,
            sps,
            center_offset_hz,
        } => kill_codes_into(cut, fs, &refs, sps, center_offset_hz, grid, span, killed),
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use galiot_channel::{compose, TxEvent};
    use galiot_dsp::power::mean_power;
    use galiot_phy::dsss::{DsssParams, DsssPhy};
    use galiot_phy::lora::{LoraParams, LoraPhy};
    use galiot_phy::registry::Registry;
    use galiot_phy::xbee::{XbeeParams, XbeePhy};
    use galiot_phy::TechId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    const FS: f64 = 1_000_000.0;

    fn suppression_db(before: &[Cf32], after: &[Cf32], span: std::ops::Range<usize>) -> f32 {
        let b = mean_power(&before[span.clone()]);
        let a = mean_power(&after[span]);
        10.0 * (b / a.max(1e-20)).log10()
    }

    #[test]
    fn kill_frequency_removes_fsk() {
        let mut rng = StdRng::seed_from_u64(1);
        let xbee: Arc<XbeePhy> = Arc::new(XbeePhy::new(XbeeParams::default()));
        let ev = TxEvent::new(xbee.clone(), vec![0x5A; 16], 4_000);
        let cap = compose(&[ev], 60_000, FS, 0.0, &mut rng);
        let t = &cap.truth[0];
        let killed = apply_kill(
            &cap.samples,
            FS,
            xbee.as_ref(),
            t.start,
            0..cap.samples.len(),
        );
        let s = suppression_db(&cap.samples, &killed, t.start + 500..t.start + t.len - 500);
        assert!(s > 10.0, "only {s} dB suppressed");
    }

    #[test]
    fn kill_css_removes_lora() {
        let mut rng = StdRng::seed_from_u64(2);
        let lora: Arc<LoraPhy> = Arc::new(LoraPhy::new(LoraParams::default()));
        let ev = TxEvent::new(lora.clone(), vec![0xA5; 12], 8_192);
        let cap = compose(&[ev], 400_000, FS, 0.0, &mut rng);
        let t = &cap.truth[0];
        let killed = apply_kill(
            &cap.samples,
            FS,
            lora.as_ref(),
            t.start,
            t.start..t.start + t.len,
        );
        let s = suppression_db(&cap.samples, &killed, t.start..t.start + t.len - 2048);
        assert!(s > 12.0, "only {s} dB suppressed");
    }

    #[test]
    fn kill_css_preserves_out_of_grid_region() {
        let mut rng = StdRng::seed_from_u64(3);
        let lora: Arc<LoraPhy> = Arc::new(LoraPhy::new(LoraParams::default()));
        let ev = TxEvent::new(lora.clone(), vec![1; 4], 10_240);
        let cap = compose(&[ev], 300_000, FS, 0.0, &mut rng);
        let t = &cap.truth[0];
        let killed = apply_kill(
            &cap.samples,
            FS,
            lora.as_ref(),
            t.start,
            t.start..t.start + t.len,
        );
        // Samples before the span are bit-identical.
        assert_eq!(cap.samples[..t.start], killed[..t.start]);
    }

    #[test]
    fn windowed_kill_css_matches_the_whole_segment_filter() {
        // A LoRa victim that begins before the target's window: the
        // window reaches back to the victim's grid anchor, and from
        // there every whole symbol is filtered exactly as the
        // whole-segment call filters it.
        let mut rng = StdRng::seed_from_u64(7);
        let lora: Arc<LoraPhy> = Arc::new(LoraPhy::new(LoraParams::default()));
        let ev = TxEvent::new(lora.clone(), vec![0x3C; 10], 8_200 + 1_024);
        let cap = compose(&[ev], 200_000, FS, 0.01, &mut rng);
        let t = &cap.truth[0];
        let span = t.start..t.start + t.len;
        let whole = apply_kill(&cap.samples, FS, lora.as_ref(), t.start, span.clone());
        let window = 30_000..52_000;
        let mut cut = Vec::new();
        let offset = apply_kill_window(
            &cap.samples,
            FS,
            lora.as_ref(),
            t.start,
            span,
            window.clone(),
            &mut cut,
        );
        assert_eq!(offset, 9_216, "reaches back to the grid anchor, aligned");
        assert_eq!(cut.len(), window.end - offset);
        // The last, partial symbol window of the cut is left alone.
        let sps = 1024;
        let upto = window.end - sps;
        assert_eq!(cut[..upto - offset], whole[offset..upto]);
        // A victim that begins inside the window needs no reach-back.
        let offset = apply_kill_window(
            &cap.samples,
            FS,
            lora.as_ref(),
            t.start,
            t.start..t.start + t.len,
            2_000..40_000,
            &mut cut,
        );
        assert_eq!(offset, 2_000);
        assert_eq!(cut[..30_000], whole[2_000..32_000]);
    }

    #[test]
    fn windowed_kill_frequency_suppresses_like_the_whole_segment_filter() {
        let mut rng = StdRng::seed_from_u64(8);
        let xbee: Arc<XbeePhy> = Arc::new(XbeePhy::new(XbeeParams::default()));
        let ev = TxEvent::new(xbee.clone(), vec![0x5A; 100], 60_000);
        let cap = compose(&[ev], 272_000, FS, 0.0, &mut rng);
        let t = &cap.truth[0];
        let mut cut = Vec::new();
        let offset = apply_kill_window(
            &cap.samples,
            FS,
            xbee.as_ref(),
            t.start,
            t.start..t.start + t.len,
            62_000..70_000,
            &mut cut,
        );
        assert_eq!((offset, cut.len()), (62_000, 8_000));
        // An 8 k window would pick a 1024-point STFT on its own; the
        // segment's 4096-point frame is what gives these band edges.
        let inner = 64_000..68_000;
        let before = mean_power(&cap.samples[inner.clone()]);
        let after = mean_power(&cut[inner.start - offset..inner.end - offset]);
        let s = 10.0 * (before / after.max(1e-20)).log10();
        assert!(s > 10.0, "only {s} dB suppressed");
    }

    #[test]
    fn kill_codes_removes_dsss() {
        let mut rng = StdRng::seed_from_u64(4);
        let dsss: Arc<DsssPhy> = Arc::new(DsssPhy::new(DsssParams::default()));
        let ev = TxEvent::new(dsss.clone(), vec![0x3C; 10], 2_560);
        let cap = compose(&[ev], 200_000, FS, 0.0, &mut rng);
        let t = &cap.truth[0];
        let killed = apply_kill(
            &cap.samples,
            FS,
            dsss.as_ref(),
            t.start,
            t.start..t.start + t.len,
        );
        let s = suppression_db(&cap.samples, &killed, t.start..t.start + t.len - 256);
        assert!(s > 10.0, "only {s} dB suppressed");
    }

    #[test]
    fn killing_fsk_leaves_lora_decodable() {
        // The headline mechanism: a full-overlap XBee x LoRa collision;
        // killing XBee's tones must leave LoRa decodable.
        let mut rng = StdRng::seed_from_u64(5);
        let reg = Registry::prototype();
        let lora = reg.get(TechId::LoRa).unwrap().clone();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let payload = vec![0x42u8; 10];
        let events = vec![
            TxEvent::new(lora.clone(), payload.clone(), 0),
            TxEvent::new(xbee.clone(), vec![0x99; 16], 20_000),
        ];
        let cap = compose(&events, 400_000, FS, 0.0, &mut rng);
        let killed = apply_kill(
            &cap.samples,
            FS,
            xbee.as_ref(),
            20_000,
            0..cap.samples.len(),
        );
        let frame = lora
            .demodulate(&killed, FS)
            .expect("LoRa after KILL-FREQUENCY");
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn killing_lora_leaves_fsk_decodable() {
        // The reverse: kill LoRa's chirps, decode the buried XBee.
        let mut rng = StdRng::seed_from_u64(6);
        let reg = Registry::prototype();
        let lora = reg.get(TechId::LoRa).unwrap().clone();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let payload = vec![0x77u8; 12];
        let events = vec![
            TxEvent::new(lora.clone(), vec![0xEE; 10], 0),
            TxEvent::new(xbee.clone(), payload.clone(), 30_000),
        ];
        let cap = compose(&events, 400_000, FS, 0.0, &mut rng);
        // XBee alone under the LoRa chirps is not decodable...
        assert!(xbee.demodulate(&cap.samples, FS).is_err());
        // ...until KILL-CSS removes LoRa.
        let t = &cap.truth[0];
        let killed = apply_kill(
            &cap.samples,
            FS,
            lora.as_ref(),
            t.start,
            t.start..t.start + t.len,
        );
        let frame = xbee.demodulate(&killed, FS).expect("XBee after KILL-CSS");
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn adaptive_kill_learns_unknown_fsk_tones() {
        // An interferer with a deviation no registry recipe knows:
        // the adaptive filter must find and remove its tone bands.
        let mut rng = StdRng::seed_from_u64(21);
        let rogue: Arc<XbeePhy> = Arc::new(XbeePhy::new(XbeeParams {
            deviation_hz: 33_000.0, // non-standard tone placement
            bitrate: 9_600.0,       // narrowband: energy concentrates
            ..Default::default()
        }));
        let ev = TxEvent::new(rogue, vec![0x55; 20], 2_000);
        let cap = compose(&[ev], 300_000, FS, 0.001, &mut rng);
        let t = &cap.truth[0];
        let (killed, bands) =
            kill_frequency_adaptive(&cap.samples, FS, t.start..t.start + t.len, 3.0);
        assert!(!bands.is_empty(), "no bands learned");
        // The learned bands bracket the rogue deviation.
        assert!(
            bands.iter().any(|b| b.contains(33_000.0))
                || bands.iter().any(|b| b.contains(-33_000.0)),
            "{bands:?}"
        );
        let s = suppression_db(
            &cap.samples,
            &killed,
            t.start + 2_000..t.start + t.len - 2_000,
        );
        assert!(s > 8.0, "only {s} dB suppressed");
    }

    #[test]
    fn adaptive_kill_unlocks_lora_under_unknown_interferer() {
        let mut rng = StdRng::seed_from_u64(22);
        let reg = Registry::prototype();
        let lora = reg.get(TechId::LoRa).unwrap().clone();
        let rogue: Arc<XbeePhy> = Arc::new(XbeePhy::new(XbeeParams {
            deviation_hz: 18_000.0, // tones inside LoRa's band
            bitrate: 9_600.0,
            ..Default::default()
        }));
        let payload = vec![0x5Au8; 10];
        let events = vec![
            TxEvent::new(lora.clone(), payload.clone(), 0),
            // Long rogue burst spanning the LoRa frame, 6 dB hotter.
            TxEvent::new(rogue, vec![0xA5; 80], 5_000).with_power_db(6.0),
        ];
        let cap = compose(&events, 700_000, FS, 0.001, &mut rng);
        // LoRa does not decode under the hot in-band interferer...
        // (if it does on some seeds, the kill must at least not hurt).
        let (killed, bands) = kill_frequency_adaptive(&cap.samples, FS, 0..cap.samples.len(), 3.0);
        assert!(!bands.is_empty());
        let frame = lora
            .demodulate(&killed, FS)
            .expect("LoRa after adaptive kill");
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn adaptive_kill_on_noise_is_nearly_identity() {
        let mut rng = StdRng::seed_from_u64(23);
        let noise = galiot_channel::awgn(40_000, 1.0, &mut rng);
        let (out, bands) = kill_frequency_adaptive(&noise, FS, 0..noise.len(), 3.0);
        // White noise has no coherent bands above 8x median worth
        // keeping; whatever slivers are found must be narrow.
        let width: f64 = bands.iter().map(|b| b.width()).sum();
        assert!(width < 0.1 * FS, "killed {width} Hz of noise");
        assert_eq!(out.len(), noise.len());
    }

    #[test]
    fn degenerate_inputs_pass_through() {
        let lora = LoraPhy::new(LoraParams::default());
        let out = kill_css(&[Cf32::ONE; 100], FS, 125_000.0, 7, 0.0, 0, 0..100, 10, 2);
        assert_eq!(out.len(), 100); // too short for one symbol: unchanged
        let out = kill_codes(&[Cf32::ONE; 10], FS, &[], 0, 0.0, 0, 0..10);
        assert_eq!(out.len(), 10);
        let _ = lora;
    }
}
