//! Capture extraction: what the gateway actually ships.
//!
//! Around every detection the gateway conservatively slices "samples
//! corresponding to twice the maximum packet length across
//! technologies" (paper, Sec. 4), merging overlapping slices so a
//! collision travels as one segment.

use std::ops::Range;

use galiot_dsp::Cf32;

use crate::detect::Detection;

/// A contiguous slice of capture shipped to the edge/cloud.
#[derive(Clone, Debug)]
pub struct Segment {
    /// First sample index in the original capture.
    pub start: usize,
    /// The samples.
    pub samples: Vec<Cf32>,
    /// The detections that produced this segment.
    pub detections: Vec<Detection>,
}

impl Segment {
    /// End sample index (exclusive) in the original capture.
    pub fn end(&self) -> usize {
        self.start + self.samples.len()
    }
}

/// Extraction policy.
#[derive(Clone, Copy, Debug)]
pub struct ExtractParams {
    /// Maximum frame length across registered technologies, in samples
    /// (see `Registry::max_frame_samples`).
    pub max_frame_samples: usize,
    /// Samples kept before the detection point (preamble guard).
    pub pre_guard: usize,
}

impl ExtractParams {
    /// The paper's policy: two max-frame-lengths after the detection,
    /// an eighth before it.
    pub fn paper(max_frame_samples: usize) -> Self {
        ExtractParams {
            max_frame_samples,
            pre_guard: max_frame_samples / 8,
        }
    }
}

/// Where one segment lies in a capture: what extraction decides,
/// before (and usually instead of) copying any sample out.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The segment's samples, as a range of the capture.
    pub range: Range<usize>,
    /// The detections that produced this segment.
    pub detections: Vec<Detection>,
}

/// Cuts spans around detections in a capture of `capture_len` samples,
/// merging any that overlap. Readers slice the capture they hold with
/// each span's range; [`extract`] is this plus one copy per segment.
pub fn spans(capture_len: usize, detections: &[Detection], p: ExtractParams) -> Vec<Span> {
    let _span = galiot_trace::span(galiot_trace::Stage::Extract, galiot_trace::NO_SEQ);
    if detections.is_empty() || capture_len == 0 {
        return Vec::new();
    }
    let mut sorted: Vec<Detection> = detections.to_vec();
    sorted.sort_by_key(|d| d.start);

    // Build windows then merge.
    let mut spans: Vec<Span> = Vec::new();
    for d in sorted {
        let lo = d.start.saturating_sub(p.pre_guard);
        let hi = (d.start + 2 * p.max_frame_samples).min(capture_len);
        match spans.last_mut() {
            Some(last) if lo <= last.range.end => {
                last.range.end = last.range.end.max(hi);
                last.detections.push(d);
            }
            _ => spans.push(Span {
                range: lo..hi,
                detections: vec![d],
            }),
        }
    }
    spans.retain(|s| !s.range.is_empty());
    spans
}

/// Cuts segments around detections, merging any that overlap: the
/// [`spans`] of the capture, each with its samples copied out.
pub fn extract(capture: &[Cf32], detections: &[Detection], p: ExtractParams) -> Vec<Segment> {
    spans(capture.len(), detections, p)
        .into_iter()
        .map(|s| Segment {
            start: s.range.start,
            samples: capture[s.range].to_vec(),
            detections: s.detections,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(start: usize) -> Detection {
        Detection {
            start,
            score: 1.0,
            tech: None,
        }
    }

    fn capture(n: usize) -> Vec<Cf32> {
        (0..n).map(|i| Cf32::from_re(i as f32)).collect()
    }

    #[test]
    fn single_detection_cuts_expected_window() {
        let cap = capture(100_000);
        let p = ExtractParams {
            max_frame_samples: 10_000,
            pre_guard: 1_000,
        };
        let segs = extract(&cap, &[det(30_000)], p);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].start, 29_000);
        assert_eq!(segs[0].end(), 50_000);
        // Content is the original samples.
        assert_eq!(segs[0].samples[0].re, 29_000.0);
    }

    #[test]
    fn overlapping_detections_merge() {
        let cap = capture(200_000);
        let p = ExtractParams {
            max_frame_samples: 10_000,
            pre_guard: 1_000,
        };
        let segs = extract(&cap, &[det(30_000), det(35_000)], p);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].detections.len(), 2);
        assert_eq!(segs[0].end(), 55_000);
    }

    #[test]
    fn distant_detections_stay_separate() {
        let cap = capture(500_000);
        let p = ExtractParams {
            max_frame_samples: 10_000,
            pre_guard: 1_000,
        };
        let segs = extract(&cap, &[det(30_000), det(300_000)], p);
        assert_eq!(segs.len(), 2);
    }

    #[test]
    fn window_clips_at_capture_edges() {
        let cap = capture(25_000);
        let p = ExtractParams {
            max_frame_samples: 10_000,
            pre_guard: 1_000,
        };
        let segs = extract(&cap, &[det(500), det(24_000)], p);
        assert_eq!(segs.len(), 2);
        // Leading window clips at the capture start...
        assert_eq!(segs[0].start, 0);
        // ...and the trailing window clips at the capture end.
        assert_eq!(segs[1].end(), 25_000);
    }

    proptest::proptest! {
        #[test]
        fn spans_are_extract_without_the_copies(
            capture_len in 0usize..60_000,
            // Unsorted, clustered, and past the capture's end.
            starts in proptest::collection::vec(0usize..70_000, 0..12),
            max_frame_samples in 1usize..9_000,
            pre_guard in 0usize..3_000,
        ) {
            let cap = capture(capture_len);
            let dets: Vec<Detection> = starts
                .iter()
                .enumerate()
                .map(|(i, &start)| Detection { start, score: i as f32, tech: None })
                .collect();
            let p = ExtractParams { max_frame_samples, pre_guard };
            let segments = extract(&cap, &dets, p);
            let spans = spans(cap.len(), &dets, p);
            proptest::prop_assert_eq!(segments.len(), spans.len());
            for (seg, span) in segments.iter().zip(&spans) {
                proptest::prop_assert_eq!(seg.start..seg.end(), span.range.clone());
                proptest::prop_assert_eq!(&seg.detections, &span.detections);
                proptest::prop_assert!(seg.samples == cap[span.range.clone()]);
            }
            // Spans are disjoint, in capture order and inside the capture.
            for pair in spans.windows(2) {
                proptest::prop_assert!(pair[0].range.end < pair[1].range.start);
            }
            proptest::prop_assert!(spans.iter().all(|s| s.range.end <= cap.len()));
        }
    }

    #[test]
    fn empty_inputs() {
        let p = ExtractParams::paper(1_000);
        assert!(extract(&[], &[det(0)], p).is_empty());
        assert!(extract(&capture(100), &[], p).is_empty());
    }
}
