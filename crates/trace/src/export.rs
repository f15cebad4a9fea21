//! Trace exporters: `chrome://tracing` JSON and a per-stage stats
//! report.
//!
//! The chrome format is the "JSON array format" understood by
//! `chrome://tracing`, Perfetto, and Speedscope: one `X` (complete)
//! event per span with microsecond `ts`/`dur`, one `i` (instant)
//! event per lifecycle mark, plus `M` metadata records naming each
//! thread. Segment sequence numbers ride in `args.seq`, so following
//! one packet across threads is a search for its seq.
//!
//! The stats report is a per-stage summary — count / p50 / p95 / p99 /
//! max / mean — plus totals per event kind and the ring drop count.

use crate::{EventKind, Trace, NO_SEQ};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn push_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

fn seq_args(seq: u64) -> String {
    if seq == NO_SEQ {
        String::new()
    } else {
        format!(",\"args\":{{\"seq\":{seq}}}")
    }
}

/// Serialize a [`Trace`] to `chrome://tracing` JSON.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(128 * (trace.spans.len() + trace.events.len()) + 256);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for t in &trace.threads {
        push_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            t.tid,
            escape(&t.name)
        );
    }
    for s in &trace.spans {
        push_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"galiot\",\"ph\":\"X\",\
             \"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}{}}}",
            s.stage.name(),
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.tid,
            seq_args(s.seq)
        );
    }
    for e in &trace.events {
        push_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"galiot\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{:.3},\"pid\":1,\"tid\":{}{}}}",
            e.kind.name(),
            e.t_ns as f64 / 1e3,
            e.tid,
            seq_args(e.seq)
        );
    }
    out.push_str("]}");
    out
}

/// Write the chrome trace for `trace` to `path`.
pub fn write_chrome_trace(trace: &Trace, path: &Path) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json(trace))
}

/// Per-stage/per-event stats report as a JSON object.
pub fn stats_json(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("{\"stages\":{");
    let mut first = true;
    for (stage, h) in trace.stage_histograms() {
        if h.count() == 0 {
            continue;
        }
        push_sep(&mut out, &mut first);
        out.push_str(&summary_json(stage.name(), h));
    }
    out.push_str("},\"events\":{");
    let mut first = true;
    for kind in EventKind::ALL {
        push_sep(&mut out, &mut first);
        let _ = write!(out, "\"{}\":{}", kind.name(), trace.event_count(kind));
    }
    let _ = write!(out, "}},\"dropped\":{}}}", trace.dropped);
    out
}

/// Render one stage's summary as a JSON object fragment
/// (`"name":{…}`), as [`stats_json`] lists them.
pub fn summary_json(stage_name: &str, h: &crate::Histogram) -> String {
    let s = h.summary();
    format!(
        "\"{}\":{{\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\
         \"max_ns\":{},\"mean_ns\":{:.1}}}",
        escape(stage_name),
        s.count,
        s.p50_ns,
        s.p95_ns,
        s.p99_ns,
        s.max_ns,
        s.mean_ns
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{event, span, Stage, TraceSession};

    #[test]
    fn chrome_export_contains_spans_events_and_thread_names() {
        let session = TraceSession::start();
        {
            let _s = span(Stage::Compress, 3);
            event(EventKind::Ship, 3);
        }
        let trace = session.finish();
        let json = chrome_trace_json(&trace);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"compress\""));
        assert!(json.contains("\"name\":\"ship\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"seq\":3"));
    }

    #[test]
    fn stats_report_includes_counts_and_drops() {
        let session = TraceSession::start();
        {
            let _s = span(Stage::Extract, NO_SEQ);
        }
        event(EventKind::Shed, 9);
        let trace = session.finish();
        let json = stats_json(&trace);
        assert!(json.contains("\"extract\":{\"count\":1"));
        assert!(json.contains("\"shed\":1"));
        assert!(json.contains("\"dropped\":0"));
        // Untouched stages are omitted from the report.
        assert!(!json.contains("kill_filter"));
    }
}
