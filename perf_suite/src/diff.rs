//! `perf_suite diff A.json B.json`: one row per workload × end-to-end
//! metric, judged against the bounds in [`crate::report::END_TO_END`].

use crate::json::Json;
use crate::report::{iqr_share, Better, EndToEnd, END_TO_END};

/// What a row concludes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regression,
    /// A side's pass-to-pass spread exceeds the bound and the two
    /// sides' passes overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reading {
    /// The reported value.
    pub value: f64,
    /// Per-pass samples behind it, if it is a median of passes.
    pub samples: Vec<f64>,
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better); 0 when `a` is 0 and `b` is not worse.
fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a != 0.0 {
        delta / a.abs()
    } else if delta > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

fn range(samples: &[f64]) -> Option<(f64, f64)> {
    let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (!samples.is_empty()).then_some((lo, hi))
}

/// Judges one metric.
pub fn judge(m: &EndToEnd, a: &Reading, b: &Reading) -> Verdict {
    let noisy = iqr_share(&a.samples) > m.bound || iqr_share(&b.samples) > m.bound;
    let overlap = match (range(&a.samples), range(&b.samples)) {
        (Some((a_lo, a_hi)), Some((b_lo, b_hi))) => a_lo <= b_hi && b_lo <= a_hi,
        _ => false,
    };
    if noisy && overlap {
        return Verdict::Unresolved;
    }
    let worse = worse_by(m, a.value, b.value);
    if worse > m.bound && (b.value - a.value).abs() > m.floor {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

fn reading(workload: &Json, metric: &str) -> Option<Reading> {
    let entry = workload.get("end_to_end")?.get(metric)?;
    Some(Reading {
        value: entry.get("value")?.as_f64()?,
        samples: entry
            .get("samples")
            .and_then(Json::as_arr)
            .map(|s| s.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
    })
}

fn failed_share(workload: &Json) -> f64 {
    let num = |key| workload.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    num("failed") / num("attempted").max(1.0)
}

/// Compares two suite reports, prints the table, and returns whether B
/// holds up: no regression and no larger failed share.
pub fn diff(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = |doc: &Json| -> Result<Vec<Json>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("report has no \"workloads\" array")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let name = |w: &Json| {
        w.get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let mut holds = true;
    let mut compared = 0;
    println!(
        "{:<16} {:<30} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for w_a in &wa {
        let Some(w_b) = wb.iter().find(|w| name(w) == name(w_a)) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(r_a), Some(r_b)) = (reading(w_a, m.name), reading(w_b, m.name)) else {
                continue;
            };
            let verdict = judge(m, &r_a, &r_b);
            holds &= verdict != Verdict::Regression;
            compared += 1;
            println!(
                "{:<16} {:<30} {:>14.5} {:>14.5} {:>+8.1}% {:>6.0}%  {}",
                name(w_a),
                m.name,
                r_a.value,
                r_b.value,
                100.0 * worse_by(m, r_a.value, r_b.value),
                100.0 * m.bound,
                verdict.word()
            );
        }
        let (f_a, f_b) = (failed_share(w_a), failed_share(w_b));
        if f_b > f_a {
            holds = false;
            println!(
                "{:<16} failed share grew: {f_a:.4} -> {f_b:.4}  REGRESSION",
                name(w_a)
            );
        }
    }
    if compared == 0 {
        return Err("the two reports share no workload".into());
    }
    Ok(holds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn flat(value: f64) -> Reading {
        Reading {
            value,
            samples: vec![value; 5],
        }
    }

    #[test]
    fn bounds_apply_in_the_metric_direction() {
        let msps = metric("capture_msps"); // higher is better
        let bound = msps.bound;
        assert_eq!(
            judge(msps, &flat(1.0), &flat(1.0 - bound * 0.9)),
            Verdict::Ok
        );
        assert_eq!(
            judge(msps, &flat(1.0), &flat(1.0 - bound * 1.1)),
            Verdict::Regression
        );
        assert_eq!(judge(msps, &flat(1.0), &flat(2.0)), Verdict::Ok);
        let cpu = metric("cpu_s_per_capture_s"); // lower is better
        assert_eq!(
            judge(cpu, &flat(2.0), &flat(2.0 * (1.0 + cpu.bound * 1.1))),
            Verdict::Regression
        );
        assert_eq!(judge(cpu, &flat(2.0), &flat(1.0)), Verdict::Ok);
    }

    #[test]
    fn setup_floor_forgives_small_absolute_changes() {
        let setup = metric("setup_s");
        // +50 % but only +0.03 s: under the 0.05 s floor.
        assert_eq!(judge(setup, &flat(0.06), &flat(0.09)), Verdict::Ok);
        assert_eq!(judge(setup, &flat(0.6), &flat(0.9)), Verdict::Regression);
    }

    #[test]
    fn zero_tolerance_shares_regress_on_any_loss() {
        let missed = metric("frames_missed_share");
        assert_eq!(judge(missed, &flat(0.0), &flat(0.0)), Verdict::Ok);
        assert_eq!(judge(missed, &flat(0.0), &flat(0.01)), Verdict::Regression);
        assert_eq!(judge(missed, &flat(0.2), &flat(0.1)), Verdict::Ok);
    }

    #[test]
    fn wide_overlapping_passes_are_unresolved_and_clear_wins_are_not() {
        let msps = metric("capture_msps");
        let noisy = |value: f64, samples: &[f64]| Reading {
            value,
            samples: samples.to_vec(),
        };
        let a = noisy(1.0, &[0.6, 0.8, 1.0, 1.3, 1.6]);
        let b = noisy(0.7, &[0.5, 0.6, 0.7, 0.9, 1.1]);
        assert_eq!(judge(msps, &a, &b), Verdict::Unresolved);
        // Same spread, but every pass of B below every pass of A.
        let c = noisy(0.3, &[0.2, 0.25, 0.3, 0.35, 0.5]);
        assert_eq!(judge(msps, &a, &c), Verdict::Regression);
        // Tight passes: the median speaks.
        assert_eq!(judge(msps, &flat(1.0), &flat(0.5)), Verdict::Regression);
    }

    #[test]
    fn diff_reads_reports_and_flags_a_larger_failed_share() {
        let report = |msps: f64, failed: f64| {
            Json::parse(&format!(
                r#"{{"workloads":[{{"name":"w","attempted":10,"failed":{failed},
                "end_to_end":{{"capture_msps":{{"value":{msps},"unit":"Msamples/s","samples":[{msps},{msps}]}}}}}}]}}"#
            ))
            .unwrap()
        };
        assert_eq!(diff(&report(1.0, 0.0), &report(1.0, 0.0)), Ok(true));
        assert_eq!(diff(&report(1.0, 0.0), &report(0.5, 0.0)), Ok(false));
        assert_eq!(diff(&report(1.0, 0.0), &report(1.0, 1.0)), Ok(false));
        assert!(diff(
            &report(1.0, 0.0),
            &Json::obj([("workloads", Json::Arr(vec![]))])
        )
        .is_err());
        assert!(diff(&Json::Null, &report(1.0, 0.0)).is_err());
    }
}
