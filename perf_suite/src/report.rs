//! The metric tables (names, units, directions, bounds), the small
//! statistics the suite reports, and the report value type.

use crate::json::Json;

/// Which way a metric gets better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what `diff` and the driver gate on.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before it is a regression.
    pub bound: f64,
    /// A worsening smaller than this (in the metric's unit) is never a
    /// regression, whatever its share.
    pub floor: f64,
    /// Whether the driver gates on it (`BENCHMARK.json` lists it). The
    /// two failure shares are zero on a healthy run, which the driver's
    /// spread rule cannot take; their complements are gated instead.
    pub gated: bool,
}

/// The end-to-end metrics, in report order.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25, 0.05, true),
    e2e(
        "capture_msps",
        "Msamples/s",
        Better::Higher,
        0.25,
        0.0,
        true,
    ),
    e2e("cpu_s_per_capture_s", "s/s", Better::Lower, 0.25, 0.0, true),
    e2e("delivery_p50_ms", "ms", Better::Lower, 0.25, 0.0, true),
    e2e(
        "frames_missed_share",
        "share",
        Better::Lower,
        0.0,
        0.0,
        false,
    ),
    e2e(
        "frames_spurious_share",
        "share",
        Better::Lower,
        0.0,
        0.0,
        false,
    ),
    e2e(
        "frames_delivered_share",
        "share",
        Better::Higher,
        0.01,
        0.0,
        true,
    ),
    e2e(
        "frames_exactly_once_share",
        "share",
        Better::Higher,
        0.01,
        0.0,
        true,
    ),
    e2e(
        "backhaul_bytes_per_capture_s",
        "bytes/s",
        Better::Lower,
        0.1,
        0.0,
        true,
    ),
    e2e(
        "alloc_mb_per_capture_s",
        "MB/s",
        Better::Lower,
        0.25,
        0.0,
        true,
    ),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25, 0.0, true),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
    gated: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        floor,
        gated,
    }
}

/// The per-layer metrics, `(name, unit, direction)`, in report order.
/// They carry no bound: they explain a movement, they do not gate it.
pub const PER_LAYER: [(&str, &str, Better); 57] = [
    ("dsp.dot_conj_melems", "Melem/s", Better::Higher),
    ("dsp.mul_in_place_melems", "Melem/s", Better::Higher),
    ("dsp.fir_same_melems", "Melem/s", Better::Higher),
    ("dsp.sub_scaled_melems", "Melem/s", Better::Higher),
    ("dsp.xcorr_msps", "Msamples/s", Better::Higher),
    ("dsp.plan_cache_hit_rate", "share", Better::Higher),
    ("phy.lora_demod_ms", "ms", Better::Lower),
    ("phy.xbee_demod_ms", "ms", Better::Lower),
    ("phy.zwave_demod_ms", "ms", Better::Lower),
    ("phy.lora_mod_ms", "ms", Better::Lower),
    ("gateway.digitize_ns_per_sample", "ns", Better::Lower),
    ("gateway.detect_ns_per_sample", "ns", Better::Lower),
    ("gateway.extract_us_per_segment", "us", Better::Lower),
    ("gateway.edge_ms_per_segment", "ms", Better::Lower),
    ("gateway.compress_ns_per_sample", "ns", Better::Lower),
    ("gateway.decompress_ns_per_sample", "ns", Better::Lower),
    ("gateway.wire_codec_ns_per_byte", "ns", Better::Lower),
    ("gateway.detections", "count", Better::Lower),
    ("gateway.segments", "count", Better::Lower),
    ("gateway.edge_decoded_share", "share", Better::Higher),
    ("gateway.shipped_sample_share", "share", Better::Lower),
    ("transport.goodput_mbps_loss0", "Mbit/s", Better::Higher),
    ("transport.goodput_mbps_loss1", "Mbit/s", Better::Higher),
    ("transport.retransmits_per_segment", "count", Better::Lower),
    ("transport.wire_overhead_share", "share", Better::Lower),
    ("cloud.decode_ms_per_segment_p50", "ms", Better::Lower),
    ("cloud.decode_ms_per_segment_max", "ms", Better::Lower),
    ("cloud.classify_ms_per_call", "ms", Better::Lower),
    ("cloud.kill_ms_per_call", "ms", Better::Lower),
    ("cloud.cancel_ms_per_frame", "ms", Better::Lower),
    ("cloud.sic_rounds_per_segment", "count", Better::Lower),
    ("cloud.kills_per_segment", "count", Better::Lower),
    ("cloud.frames_per_decode", "count", Better::Higher),
    ("cloud.decodes_per_delivered_frame", "count", Better::Lower),
    ("cloud.dedup_suppressed_share", "share", Better::Lower),
    ("cloud.merge_ns_per_offer", "ns", Better::Lower),
    ("core.gateway_busy_share", "share", Better::Lower),
    ("core.cloud_busy_share", "share", Better::Lower),
    ("core.seg_queue_hwm", "count", Better::Lower),
    ("core.send_queue_hwm", "count", Better::Lower),
    ("core.shipped_segments", "count", Better::Lower),
    ("core.finish_drain_ms", "ms", Better::Lower),
    ("core.streaming_over_batch", "ratio", Better::Higher),
    ("core.delivery_p90_ms", "ms", Better::Lower),
    ("core.delivery_max_ms", "ms", Better::Lower),
    ("core.delivery_samples", "count", Better::Higher),
    ("core.pace_lag_p99_ms", "ms", Better::Lower),
    ("core.allocs_per_segment", "count", Better::Lower),
    ("core.alloc_bytes_per_sample", "bytes", Better::Lower),
    ("core.pass_iqr_share", "share", Better::Lower),
    ("core.walk_over_batch", "ratio", Better::Lower),
    ("core.setup_cold_s", "s", Better::Lower),
    ("core.gen_s", "s", Better::Lower),
    ("walk.gateway_self_share", "share", Better::Higher),
    ("walk.cloud_decode_self_share", "share", Better::Higher),
    ("walk.probe_ms", "ms", Better::Lower),
    ("walk.frames", "count", Better::Higher),
];

/// The unit of a metric from either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or_else(|| panic!("metric {name} is in neither table"))
}

/// A measured metric: the reported value and, where the value is a
/// median, the samples it is the median of.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The reported value.
    pub value: f64,
    /// The samples behind the value (per pass, per repetition); empty
    /// for single readings.
    pub samples: Vec<f64>,
}

impl Metric {
    /// A single reading.
    pub fn single(name: &'static str, value: f64) -> Self {
        Metric {
            name,
            value,
            samples: Vec::new(),
        }
    }

    /// The median of `samples`.
    pub fn median_of(name: &'static str, samples: Vec<f64>) -> Self {
        Metric {
            name,
            value: median(&samples),
            samples,
        }
    }

    /// `{"value": .., "unit": ..}` — the driver's shape.
    pub fn to_driver_json(&self) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::Str(unit_of(self.name).to_string())),
        ])
    }

    /// The report's shape: value, unit and samples.
    pub fn to_report_json(&self) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::Str(unit_of(self.name).to_string())),
            ("samples", Json::nums(&self.samples)),
        ])
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method the driver uses). `None` under two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Distance between the first and third quartile as a share of the
/// median; 0 when there are under two samples or the median is 0.
pub fn iqr_share(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// The `p`-th percentile (0–100) by nearest rank; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(unit_of(n).len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<Json> { doc.get(key).unwrap().as_arr().unwrap().to_vec() };

        let gated: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.gated).collect();
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), gated.len());
        for (entry, m) in e2e.iter().zip(gated) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(entry.get("better").unwrap().as_str(), Some(m.better.word()));
            assert_eq!(entry.get("bound").unwrap().as_f64(), Some(m.bound));
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(m.0));
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.1));
            assert_eq!(entry.get("better").unwrap().as_str(), Some(m.2.word()));
        }
        let workloads: Vec<String> = listed("workloads")
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }
}
