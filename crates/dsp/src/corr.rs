//! Cross-correlation and matched filtering.
//!
//! Packet detection — both the per-technology matched-filter bank the
//! paper calls "optimal" and GalioT's universal-preamble detector — is
//! sliding cross-correlation of the capture against a template. Both a
//! direct form (for short templates / tests) and an FFT overlap form
//! (for the streaming detectors) are provided, along with normalized
//! correlation and peak picking.

use crate::num::Cf32;

/// Sliding cross-correlation, direct form.
///
/// `out[i] = sum_k x[i + k] * conj(h[k])` for every full overlap
/// (`out.len() == x.len() - h.len() + 1`). Returns an empty vector if
/// the template is longer than the signal. Each lag is a
/// [`crate::kernels::dot_conj`] reduction on the active SIMD backend.
pub fn xcorr_direct(x: &[Cf32], h: &[Cf32]) -> Vec<Cf32> {
    if h.is_empty() || x.len() < h.len() {
        return Vec::new();
    }
    let backend = crate::kernels::active();
    let n = x.len() - h.len() + 1;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(backend.dot_conj(&x[i..i + h.len()], h));
    }
    out
}

/// Sliding cross-correlation via FFT, identical output to
/// [`xcorr_direct`] (to floating-point tolerance).
///
/// Cost is `O((N+M) log M)` instead of `O(N M)`; the detectors use
/// this form on every capture block. Since the correlation-engine
/// rewrite this delegates to [`crate::engine::xcorr_cached`]: FFT
/// plans come from the process-wide cache and long signals run
/// overlap-save on a template-sized block, so no call re-plans
/// twiddles or transforms at capture size. Hold a
/// [`crate::engine::Template`] instead when correlating the same
/// template repeatedly — that also memoizes the template's spectrum.
pub fn xcorr_fft(x: &[Cf32], h: &[Cf32]) -> Vec<Cf32> {
    crate::engine::xcorr_cached(x, h)
}

/// [`xcorr_fft`] into a caller-held buffer: whatever `out` held is
/// discarded, and it comes back with one correlation per lag.
pub fn xcorr_fft_into(x: &[Cf32], h: &[Cf32], out: &mut Vec<Cf32>) {
    crate::engine::xcorr_cached_into(x, h, out)
}

/// Normalized sliding cross-correlation magnitude in `[0, 1]`.
///
/// `out[i] = |<x_i, h>| / (|x_i| |h|)` where `x_i` is the window of
/// `x` starting at `i`. Windows with negligible energy (relative to
/// the strongest window) return 0 rather than amplifying noise.
pub fn xcorr_normalized(x: &[Cf32], h: &[Cf32]) -> Vec<f32> {
    if h.is_empty() || x.len() < h.len() {
        return Vec::new();
    }
    let raw = xcorr_fft(x, h);
    let h_energy: f32 = h.iter().map(|z| z.norm_sqr()).sum();
    // Sliding window energy of x via prefix sums: per-sample |z|^2 on
    // the SIMD backend (bit-exact), then the same sequential f64
    // accumulation as ever so the prefix is backend-independent.
    let mut sq = vec![0.0f32; x.len()];
    crate::kernels::norm_sqr_into(x, &mut sq);
    let mut prefix = Vec::with_capacity(x.len() + 1);
    prefix.push(0.0f64);
    let mut acc = 0.0f64;
    for &s in &sq {
        acc += s as f64;
        prefix.push(acc);
    }
    let m = h.len();
    let mut out = Vec::with_capacity(raw.len());
    let max_win = (0..raw.len())
        .map(|i| prefix[i + m] - prefix[i])
        .fold(0.0f64, f64::max);
    let floor = (max_win * 1e-9).max(1e-30);
    for (i, r) in raw.iter().enumerate() {
        let win = prefix[i + m] - prefix[i];
        if win <= floor {
            out.push(0.0);
        } else {
            let denom = (win * h_energy as f64).sqrt() as f32;
            out.push((r.abs() / denom).min(1.0));
        }
    }
    out
}

/// A detected correlation peak.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Peak {
    /// Sample index of the peak (start-of-template alignment).
    pub index: usize,
    /// Peak value (normalized correlation or raw magnitude, per caller).
    pub value: f32,
}

/// Finds local maxima above `threshold`, suppressing any later peak
/// closer than `min_distance` samples to a previously accepted,
/// stronger peak. Peaks are returned in index order.
///
/// Only true *interior* maxima qualify: the first and last sample are
/// never peaks, because a monotone ramp cut off at a segment or chunk
/// boundary would otherwise register a phantom detection there (the
/// real peak lies in the neighbouring block, which will report it).
pub fn find_peaks(corr: &[f32], threshold: f32, min_distance: usize) -> Vec<Peak> {
    let mut stream = PeakStream::new(threshold, min_distance);
    let mut peaks = Vec::new();
    stream.push(corr, &mut peaks);
    stream.finish(&mut peaks);
    peaks
}

/// [`find_peaks`] over a trace that arrives a stretch at a time, each
/// peak decided once and as soon as no later lag can change it.
///
/// The greedy suppression never reaches across a gap of `min_distance`
/// between two candidates, so candidates fall into *runs* (each within
/// `min_distance` of the one before) that are suppressed independently:
/// a run is decided — by `find_peaks`'s own rule, strongest first — once
/// `min_distance` lags past its last candidate are known. Pushing a
/// trace whole and finishing is `find_peaks`.
#[derive(Clone, Debug)]
pub struct PeakStream {
    threshold: f32,
    min_distance: usize,
    /// Lags pushed so far.
    seen: usize,
    /// The last two lags pushed. The newest is not a candidate yet: the
    /// interior-maximum test waits for its right neighbour.
    tail: [f32; 2],
    /// The candidates of the run not yet decided, in index order.
    run: Vec<Peak>,
}

impl PeakStream {
    /// A stream with [`find_peaks`]'s `threshold` and `min_distance`.
    pub fn new(threshold: f32, min_distance: usize) -> Self {
        PeakStream {
            threshold,
            min_distance,
            seen: 0,
            tail: [0.0; 2],
            run: Vec::new(),
        }
    }

    /// Lags pushed so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Every lag before this index has its final verdict (peak or not);
    /// none from it on has.
    pub fn decided(&self) -> usize {
        self.run
            .first()
            .map_or(self.seen.saturating_sub(1), |p| p.index)
    }

    /// Appends the next lags of the trace and pushes every peak this
    /// decides onto `peaks`, in index order.
    pub fn push(&mut self, lags: &[f32], peaks: &mut Vec<Peak>) {
        let Some(&next) = lags.first() else { return };
        // The lag held back last time has its right neighbour now (the
        // trace's first lag is never a peak).
        if self.seen >= 2 {
            let [left, v] = self.tail;
            self.test(self.seen - 1, left, v, next, peaks);
        }
        // Nearly every lag of a detector's correlation is below threshold,
        // so a block is first asked one vectorizable question — does any
        // lag reach it? — and the per-lag maximum test runs only where the
        // answer is yes. (`|`, not `||`: no early exit, no branch per lag.)
        const BLOCK: usize = 64;
        for (b, block) in lags.chunks(BLOCK).enumerate() {
            if !block
                .iter()
                .fold(false, |hit, &v| hit | (v >= self.threshold))
            {
                continue;
            }
            for k in b * BLOCK..b * BLOCK + block.len() {
                if k + 1 == lags.len() || (k == 0 && self.seen == 0) {
                    continue;
                }
                let left = if k == 0 { self.tail[1] } else { lags[k - 1] };
                self.test(self.seen + k, left, lags[k], lags[k + 1], peaks);
            }
        }
        self.tail = match lags {
            [.., a, b] => [*a, *b],
            _ => [self.tail[1], next],
        };
        self.seen += lags.len();
        // No lag still untested lies within reach of the run's last one.
        if let Some(last) = self.run.last() {
            if self.seen - 1 - last.index >= self.min_distance {
                self.decide(peaks);
            }
        }
    }

    /// The trace has ended (its last lag is no peak): decides the open
    /// run.
    pub fn finish(&mut self, peaks: &mut Vec<Peak>) {
        self.decide(peaks);
    }

    /// Lag `index`, between `left` and `right`: a candidate, which may
    /// close the run before it.
    fn test(&mut self, index: usize, left: f32, v: f32, right: f32, peaks: &mut Vec<Peak>) {
        if v >= self.threshold && left <= v && right < v {
            if let Some(last) = self.run.last() {
                if index - last.index >= self.min_distance {
                    self.decide(peaks);
                }
            }
            self.run.push(Peak { index, value: v });
        }
    }

    /// Greedy non-maximum suppression over the run, strongest first
    /// (ties in index order), in place.
    fn decide(&mut self, peaks: &mut Vec<Peak>) {
        self.run.sort_by(|a, b| b.value.total_cmp(&a.value));
        let mut accepted = 0;
        for i in 0..self.run.len() {
            let c = self.run[i];
            let (kept, _) = self.run.split_at(accepted);
            if kept
                .iter()
                .all(|a| a.index.abs_diff(c.index) >= self.min_distance)
            {
                self.run[accepted] = c;
                accepted += 1;
            }
        }
        self.run.truncate(accepted);
        self.run.sort_by_key(|p| p.index);
        peaks.append(&mut self.run);
    }
}

/// Zero-mean normalized cross-correlation (NCC) of real sequences,
/// in `[-1, 1]`.
///
/// `out[i] = <x_i - mean(x_i), h - mean(h)> / (||x_i - mean|| ||h - mean||)`
/// over windows `x_i` of `x`. Subtracting the window mean makes the
/// statistic immune to any constant offset in `x` — which is how FSK
/// bit-sync on a frequency-discriminator output stays robust to
/// carrier-frequency offset (CFO shows up there as a DC shift).
///
/// Computed with one FFT correlation plus prefix sums, `O(N log N)`.
pub fn ncc_real(x: &[f32], h: &[f32]) -> Vec<f32> {
    let mut out = Vec::new();
    ncc_real_into(x, h, &mut out, &mut NccScratch::default());
    out
}

/// The working memory of [`ncc_real_into`]: the template and signal as
/// complex sequences, their raw correlation and the prefix sums, kept
/// by a caller from one call to the next.
#[derive(Clone, Debug, Default)]
pub struct NccScratch {
    hz: Vec<Cf32>,
    xz: Vec<Cf32>,
    raw: Vec<Cf32>,
    p1: Vec<f64>,
    p2: Vec<f64>,
}

/// [`ncc_real`] into a caller-held buffer, with its intermediates in
/// `scratch`: whatever either held is discarded, and `out` comes back
/// with one score per lag.
pub fn ncc_real_into(x: &[f32], h: &[f32], out: &mut Vec<f32>, scratch: &mut NccScratch) {
    out.clear();
    if h.len() < 2 || x.len() < h.len() {
        return;
    }
    let NccScratch {
        hz,
        xz,
        raw,
        p1,
        p2,
    } = scratch;
    let m = h.len();
    let mean_h: f32 = h.iter().sum::<f32>() / m as f32;
    hz.clear();
    hz.reserve_exact(m);
    hz.extend(h.iter().map(|&v| Cf32::from_re(v - mean_h)));
    let h_norm: f32 = hz.iter().map(|z| z.re * z.re).sum::<f32>().sqrt();
    if h_norm <= 0.0 {
        out.resize(x.len() - m + 1, 0.0);
        return;
    }
    xz.clear();
    xz.reserve_exact(x.len());
    xz.extend(x.iter().map(|&v| Cf32::from_re(v)));
    // <x_i, h - mean_h> == <x_i - mean_i, h - mean_h> since h is zero-mean.
    xcorr_fft_into(xz, hz, raw);
    // Sliding sums for window mean and variance (f64 prefix sums).
    p1.clear();
    p2.clear();
    p1.reserve_exact(x.len() + 1);
    p2.reserve_exact(x.len() + 1);
    p1.push(0.0f64);
    p2.push(0.0f64);
    let (mut a1, mut a2) = (0.0f64, 0.0f64);
    for &v in x {
        a1 += v as f64;
        a2 += (v as f64) * (v as f64);
        p1.push(a1);
        p2.push(a2);
    }
    out.reserve_exact(raw.len());
    for (i, r) in raw.iter().enumerate() {
        let s1 = p1[i + m] - p1[i];
        let s2 = p2[i + m] - p2[i];
        let var = (s2 - s1 * s1 / m as f64).max(0.0);
        let x_norm = (var as f32).sqrt();
        if x_norm <= 1e-12 {
            out.push(0.0);
        } else {
            out.push((r.re / (x_norm * h_norm)).clamp(-1.0, 1.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(v: &[f32]) -> Vec<Cf32> {
        v.iter().map(|&r| Cf32::from_re(r)).collect()
    }

    #[test]
    fn direct_matches_hand_computation() {
        let x = seq(&[1.0, 2.0, 3.0, 4.0]);
        let h = seq(&[1.0, 1.0]);
        let out = xcorr_direct(&x, &h);
        assert_eq!(out.len(), 3);
        assert!((out[0].re - 3.0).abs() < 1e-5);
        assert!((out[1].re - 5.0).abs() < 1e-5);
        assert!((out[2].re - 7.0).abs() < 1e-5);
    }

    #[test]
    fn fft_matches_direct() {
        let x: Vec<Cf32> = (0..200)
            .map(|i| Cf32::new((i as f32 * 0.7).sin(), (i as f32 * 0.31).cos()))
            .collect();
        let h: Vec<Cf32> = (0..31)
            .map(|i| Cf32::new((i as f32 * 1.3).cos(), -(i as f32 * 0.11).sin()))
            .collect();
        let a = xcorr_direct(&x, &h);
        let b = xcorr_fft(&x, &h);
        assert_eq!(a.len(), b.len());
        for (p, q) in a.iter().zip(b.iter()) {
            assert!((*p - *q).abs() < 1e-3, "{p:?} vs {q:?}");
        }
    }

    #[test]
    fn template_found_at_embedded_offset() {
        let h: Vec<Cf32> = (0..32).map(|i| Cf32::cis(i as f32 * 0.9)).collect();
        let mut x = vec![Cf32::ZERO; 300];
        for (k, &hv) in h.iter().enumerate() {
            x[137 + k] = hv;
        }
        let corr = xcorr_fft(&x, &h);
        let idx = (0..corr.len()).max_by(|&a, &b| corr[a].abs().total_cmp(&corr[b].abs()));
        assert_eq!(idx, Some(137));
    }

    #[test]
    fn normalized_peak_is_one_for_exact_match() {
        let h: Vec<Cf32> = (0..64).map(|i| Cf32::cis(i as f32 * 0.37)).collect();
        let mut x = vec![Cf32::ZERO; 256];
        for (k, &hv) in h.iter().enumerate() {
            x[90 + k] = hv * 3.0; // scaled copy: normalization removes gain
        }
        let norm = xcorr_normalized(&x, &h);
        let peak = norm
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert_eq!(peak.0, 90);
        assert!(*peak.1 > 0.999);
    }

    #[test]
    fn normalized_is_bounded() {
        let h: Vec<Cf32> = (0..16).map(|i| Cf32::cis(i as f32)).collect();
        let x: Vec<Cf32> = (0..200).map(|i| Cf32::cis(i as f32 * 1.7) * 2.0).collect();
        for v in xcorr_normalized(&x, &h) {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn find_peaks_respects_threshold_and_distance() {
        let mut corr = vec![0.0f32; 100];
        corr[10] = 0.9;
        corr[12] = 0.8; // within min_distance of the stronger 10
        corr[50] = 0.7;
        corr[90] = 0.3; // below threshold
        let peaks = find_peaks(&corr, 0.5, 5);
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].index, 10);
        assert_eq!(peaks[1].index, 50);
    }

    #[test]
    fn find_peaks_keeps_separated_equal_peaks() {
        let mut corr = vec![0.0f32; 100];
        corr[20] = 0.8;
        corr[70] = 0.8;
        let peaks = find_peaks(&corr, 0.5, 10);
        assert_eq!(peaks.len(), 2);
    }

    /// `find_peaks` before it streamed: every interior maximum over the
    /// whole trace, then one greedy suppression over all of them.
    fn find_peaks_whole(corr: &[f32], threshold: f32, min_distance: usize) -> Vec<Peak> {
        let mut candidates: Vec<Peak> = (1..corr.len().saturating_sub(1))
            .filter(|&i| {
                let v = corr[i];
                v >= threshold && corr[i - 1] <= v && corr[i + 1] < v
            })
            .map(|i| Peak {
                index: i,
                value: corr[i],
            })
            .collect();
        candidates.sort_by(|a, b| b.value.total_cmp(&a.value));
        let mut accepted: Vec<Peak> = Vec::new();
        for c in candidates {
            if accepted
                .iter()
                .all(|a| a.index.abs_diff(c.index) >= min_distance)
            {
                accepted.push(c);
            }
        }
        accepted.sort_by_key(|p| p.index);
        accepted
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn a_trace_pushed_in_pieces_peaks_as_find_peaks_over_it_whole(
            // Few levels: plateaus, ties and runs of near candidates.
            levels in proptest::collection::vec(0u8..8, 0..400),
            cuts in proptest::collection::vec(0usize..400, 0..8),
            threshold in 0u8..7,
            min_distance in 0usize..60,
        ) {
            let corr: Vec<f32> = levels.iter().map(|&v| f32::from(v) / 4.0).collect();
            let threshold = f32::from(threshold) / 4.0;
            let want = find_peaks_whole(&corr, threshold, min_distance);
            proptest::prop_assert_eq!(&find_peaks(&corr, threshold, min_distance), &want);

            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(corr.len())).collect();
            cuts.sort_unstable();
            cuts.push(corr.len());
            let mut stream = PeakStream::new(threshold, min_distance);
            let (mut got, mut at) = (Vec::new(), 0);
            for cut in cuts {
                stream.push(&corr[at..cut], &mut got);
                at = cut;
                proptest::prop_assert_eq!(stream.seen(), at);
                // What is decided is final: exactly the peaks the whole
                // trace has there, and nothing past it.
                let decided = stream.decided();
                let settled: Vec<Peak> =
                    want.iter().copied().filter(|p| p.index < decided).collect();
                proptest::prop_assert_eq!(&got, &settled);
            }
            stream.finish(&mut got);
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn a_run_of_candidates_waits_for_min_distance_quiet_lags() {
        let mut stream = PeakStream::new(0.5, 10);
        let mut peaks = Vec::new();
        let mut trace = [0.0f32; 40];
        trace[5] = 0.8;
        trace[12] = 0.9; // within 10 of lag 5: one run, and it wins
        stream.push(&trace[..14], &mut peaks);
        assert_eq!(stream.decided(), 5, "the run is open");
        stream.push(&trace[14..22], &mut peaks);
        assert!(peaks.is_empty(), "lag 21 is within reach of lag 12");
        stream.push(&trace[22..23], &mut peaks);
        assert_eq!(
            peaks,
            vec![Peak {
                index: 12,
                value: 0.9
            }]
        );
        assert_eq!(stream.decided(), 22, "lag 22 waits for its neighbour");
    }

    #[test]
    fn find_peaks_rejects_boundary_ramps() {
        // A monotone edge ramp — what a correlation looks like when a
        // packet's peak falls just past a segment/chunk boundary — must
        // not produce a phantom peak at either end.
        let rising: Vec<f32> = (0..50).map(|i| i as f32 / 49.0).collect();
        assert!(find_peaks(&rising, 0.1, 4).is_empty(), "phantom at tail");
        let falling: Vec<f32> = rising.iter().rev().copied().collect();
        assert!(find_peaks(&falling, 0.1, 4).is_empty(), "phantom at head");
        // An interior peak on the same data is still found.
        let mut bump = rising;
        bump[25] = 2.0;
        let peaks = find_peaks(&bump, 0.1, 4);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 25);
        // Degenerate lengths cannot host an interior maximum.
        assert!(find_peaks(&[1.0], 0.1, 1).is_empty());
        assert!(find_peaks(&[1.0, 2.0], 0.1, 1).is_empty());
    }

    #[test]
    fn ncc_finds_pattern_under_dc_offset() {
        // Template: a +1/-1 pattern; signal: the pattern + a large DC
        // shift (models CFO on a discriminator output).
        let h: Vec<f32> = [1.0f32, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0]
            .iter()
            .flat_map(|&b| std::iter::repeat_n(b, 10))
            .collect();
        let mut x = vec![5.0f32; 400]; // constant region, zero variance handled
        for (k, &v) in h.iter().enumerate() {
            x[200 + k] = v + 5.0;
        }
        let ncc = ncc_real(&x, &h);
        let (idx, val) = ncc
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert_eq!(idx, 200);
        assert!(*val > 0.999, "peak {val}");
    }

    #[test]
    fn ncc_is_bounded_and_sign_sensitive() {
        let h = vec![1.0f32, -1.0, 1.0, -1.0, 1.0, -1.0];
        let x: Vec<f32> = (0..100).map(|i| ((i % 2) as f32) * 2.0 - 1.0).collect();
        let ncc = ncc_real(&x, &h);
        for v in &ncc {
            assert!((-1.0..=1.0).contains(v));
        }
        // Alternating signal correlates at +-1 depending on parity.
        assert!(ncc.iter().any(|&v| v > 0.999));
        assert!(ncc.iter().any(|&v| v < -0.999));
    }

    #[test]
    fn ncc_degenerate_inputs() {
        assert!(ncc_real(&[1.0], &[1.0, 2.0]).is_empty());
        assert!(ncc_real(&[1.0, 2.0, 3.0], &[]).is_empty());
        // Constant template has zero norm -> all zeros.
        let out = ncc_real(&[1.0, 2.0, 3.0, 4.0], &[2.0, 2.0]);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        let h: Vec<Cf32> = seq(&[1.0, 2.0, 3.0]);
        assert!(xcorr_direct(&seq(&[1.0]), &h).is_empty());
        assert!(xcorr_fft(&seq(&[1.0, 2.0]), &h).is_empty());
        assert!(xcorr_normalized(&[], &h).is_empty());
    }
}
