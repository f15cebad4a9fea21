//! `perf_suite` — GalioT's one seeded benchmark.
//!
//! ```text
//! perf_suite run [--all | --workload W] [--seed S] [--quick] [--out DIR]
//! perf_suite walk --workload W [--seed S] [--out DIR]
//! perf_suite diff A.json B.json
//! perf_suite selfcheck [--seed S] [--out DIR]
//! perf_suite --workload W --seed S --seconds N --trace 0|1     (the driver's contract)
//! ```
//!
//! See `perf_suite/README.md` for the workloads, the metric glossary
//! and which layer number should move which end-to-end number.

mod diff;
mod host;
mod json;
mod layers;
mod measure;
mod pass;
mod report;
mod verify;
mod walk;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use host::HostFacts;
use json::Json;
use measure::{Measured, Plan};
use pass::PassResult;
use report::{Metric, END_TO_END, PER_LAYER};
use walk::Walk;
use workload::{Tile, Workload, DEFAULT_SEED};

#[global_allocator]
static ALLOCATOR: host::CountingAlloc = host::CountingAlloc;

/// The walk's timing must stay this close to `process_capture`'s, or
/// its spans describe a different program.
const WALK_OVER_BATCH: std::ops::RangeInclusive<f64> = 0.9..=1.1;

/// One workload's finished report.
struct WorkloadReport {
    workload: Workload,
    attempted: usize,
    failed: usize,
    spurious: usize,
    passes: usize,
    end_to_end: Vec<Metric>,
    /// Empty when only the untraced half ran.
    per_layer: Vec<Metric>,
    /// The walk recovered `process_capture`'s frame set.
    walk_matches_batch: bool,
    /// Chrome-trace JSON of the walk.
    trace: Option<Json>,
}

impl WorkloadReport {
    fn layer(&self, name: &str) -> Option<f64> {
        self.per_layer
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The outputs produced are correct: every delivered frame matches
    /// a transmitted one, exactly once, and the walk reproduced the
    /// batch pipeline. A frame the decoder could not recover is a
    /// failed operation (`failed`), not a wrong output.
    fn correct(&self) -> bool {
        self.spurious == 0 && self.walk_matches_batch
    }

    fn to_json(&self) -> Json {
        let metrics =
            |list: &[Metric]| Json::obj(list.iter().map(|m| (m.name, m.to_report_json())));
        Json::obj([
            ("name", Json::Str(self.workload.name().into())),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("measured_passes", Json::Num(self.passes as f64)),
            ("walk_matches_batch", Json::Bool(self.walk_matches_batch)),
            ("end_to_end", metrics(&self.end_to_end)),
            ("per_layer", metrics(&self.per_layer)),
        ])
    }

    fn print(&self) {
        println!(
            "== {} — {} passes, {} frames offered, {} failed",
            self.workload.name(),
            self.passes,
            self.attempted,
            self.failed
        );
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .for_each(print_metric);
    }
}

fn print_metric(m: &Metric) {
    let unit = report::unit_of(m.name);
    println!("  {:<36} {:>16.6} {unit}", m.name, m.value);
}

/// The untraced half: the end-to-end metrics.
fn end_to_end_report(m: &Measured) -> WorkloadReport {
    WorkloadReport {
        workload: m.workload,
        attempted: m.attempted(),
        failed: m.failed(),
        spurious: m.passes().map(|p| p.score.spurious).sum(),
        passes: m.closed.len(),
        end_to_end: m.end_to_end(),
        per_layer: Vec::new(),
        walk_matches_batch: true,
        trace: None,
    }
}

/// The walk next to its `process_capture` reference. Timing noise on
/// a shared host is one-sided, so while their ratio is out of range
/// both are repeated, up to `rounds` times, and the fastest of each is
/// kept.
fn walk_with_reference(workload: Workload, tile: &Tile, rounds: usize) -> (Walk, PassResult) {
    let mut batch = walk::batch_reference(workload, tile);
    let mut walked = walk::walk(workload, tile);
    for _ in 1..rounds {
        if WALK_OVER_BATCH.contains(&(walked.pipeline_s() / batch.wall_s)) {
            break;
        }
        let again = walk::batch_reference(workload, tile);
        if again.wall_s < batch.wall_s {
            batch = again;
        }
        let again = walk::walk(workload, tile);
        if again.pipeline_s() < walked.pipeline_s() {
            walked = again;
        }
    }
    (walked, batch)
}

/// The traced half: microbenchmarks, the batch reference, the walk,
/// and the layer metrics the untraced passes carry; in table order.
fn add_layers(report: &mut WorkloadReport, m: &Measured, walk_rounds: usize) {
    let mut found = layers::all(m.seed);
    let (walked, batch) = walk_with_reference(m.workload, &m.tile, walk_rounds);
    found.extend(walked.metrics(&m.tile, &batch));
    found.extend(m.layer_metrics(batch.capture_msps()));
    report.walk_matches_batch = walked.same_frames_as(&batch.delivered);
    report.trace = Some(walked.chrome_trace());
    report.per_layer = PER_LAYER
        .iter()
        .map(|(name, _, _)| {
            found
                .iter()
                .find(|f| f.name == *name)
                .unwrap_or_else(|| panic!("layer metric {name} was not measured"))
                .clone()
        })
        .collect();
}

/// A report file: the host facts and one entry per workload.
fn suite_json(host: Json, workloads: Vec<Json>) -> Json {
    Json::obj([
        ("suite", Json::Str("galiot perf_suite".into())),
        ("schema", Json::Num(1.0)),
        ("host", host),
        ("workloads", Json::Arr(workloads)),
    ])
}

fn host_json(host: &HostFacts) -> Json {
    Json::obj([
        ("nproc", Json::Num(host.nproc as f64)),
        ("dsp_backend", Json::Str(host.dsp_backend.into())),
        ("rustc", Json::Str(host.rustc.clone())),
        ("git_commit", Json::Str(host.git_commit.clone())),
        ("seed", Json::Num(host.seed as f64)),
    ])
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Parsed command-line flags.
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: PathBuf,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out: PathBuf::from("perf_suite/out"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--all" => flags.workload = None,
            "--quick" => flags.quick = true,
            "--workload" => {
                let name = value("a workload name")?;
                flags.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                flags.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--out" => flags.out = PathBuf::from(value("a directory")?),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

/// `run --workload W`: the reference protocol over one workload, in
/// this process; prints every metric, writes the report and the walk
/// trace.
fn run_one(w: Workload, flags: &Flags) -> Result<bool, String> {
    let host = HostFacts::gather(flags.seed);
    let plan = if flags.quick {
        Plan::short(w, 1)
    } else {
        Plan::reference(w)
    };
    let measured = measure::measure(w, flags.seed, plan);
    let mut report = end_to_end_report(&measured);
    add_layers(&mut report, &measured, 3);
    report.print();
    println!(
        "# host: nproc {} · dsp {} · {} · commit {} · seed {}",
        host.nproc, host.dsp_backend, host.rustc, host.git_commit, host.seed
    );
    let mut ok = true;
    if !report.correct() || report.failed > 0 {
        ok = false;
        eprintln!(
            "{}: {} failed frames, walk matches batch: {}",
            w.name(),
            report.failed,
            report.walk_matches_batch
        );
        for (i, pass) in measured.passes().enumerate() {
            for lost in &pass.lost {
                eprintln!("  pass {i}: lost {} frame at {}", lost.tech, lost.start);
            }
        }
    }
    let ratio = report.layer("core.walk_over_batch").unwrap_or(1.0);
    if !WALK_OVER_BATCH.contains(&ratio) {
        ok = false;
        eprintln!(
            "{}: core.walk_over_batch {ratio:.3} is outside [0.9, 1.1]",
            w.name()
        );
    }
    if let Some(trace) = &report.trace {
        write_json(&flags.out.join(format!("trace_{}.json", w.name())), trace)?;
    }
    write_json(
        &flags.out.join(format!("{}.json", w.name())),
        &suite_json(host_json(&host), vec![report.to_json()]),
    )?;
    Ok(ok)
}

/// `run --all`: every workload, each in a process of its own — peak
/// RSS is a process-wide high-water mark, and allocator state left by
/// one workload must not colour the next — then the per-workload
/// reports merged into `suite.json`. Returns whether every workload
/// passed, and the suite report.
fn run_all(flags: &Flags, out: &Path) -> Result<(bool, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut ok = true;
    let mut host = Json::Null;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", w.name(), "--seed"])
            .arg(flags.seed.to_string())
            .arg("--out")
            .arg(out);
        if flags.quick {
            child.arg("--quick");
        }
        let status = child
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        ok &= status.success();
        let report = read_report(&out.join(format!("{}.json", w.name())))?;
        host = report.get("host").cloned().unwrap_or(Json::Null);
        workloads.extend(
            report
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("a workload report has no \"workloads\" array")?
                .iter()
                .cloned(),
        );
    }
    let suite = suite_json(host, workloads);
    write_json(&out.join("suite.json"), &suite)?;
    println!("# reports in {}", out.display());
    Ok((ok, suite))
}

/// `run`.
fn cmd_run(flags: &Flags) -> Result<bool, String> {
    match flags.workload {
        Some(w) => run_one(w, flags),
        None => run_all(flags, &flags.out).map(|(ok, _)| ok),
    }
}

/// `walk`: only the layer walk of one workload, against its batch
/// reference.
fn cmd_walk(flags: &Flags) -> Result<bool, String> {
    let w = flags.workload.ok_or("walk needs --workload")?;
    let tile = workload::build_tile(w, flags.seed);
    let (walked, batch) = walk_with_reference(w, &tile, 3);
    walked.metrics(&tile, &batch).iter().for_each(print_metric);
    write_json(
        &flags.out.join(format!("trace_{}.json", w.name())),
        &walked.chrome_trace(),
    )?;
    let same = walked.same_frames_as(&batch.delivered);
    let ratio = walked.pipeline_s() / batch.wall_s;
    if !same {
        eprintln!("walk and process_capture recovered different frames");
    }
    if !WALK_OVER_BATCH.contains(&ratio) {
        eprintln!("core.walk_over_batch {ratio:.3} is outside [0.9, 1.1]");
    }
    Ok(same && WALK_OVER_BATCH.contains(&ratio))
}

fn read_report(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `diff A.json B.json`.
fn cmd_diff(flags: &Flags) -> Result<bool, String> {
    let [_, a, b] = flags.positional.as_slice() else {
        return Err("usage: perf_suite diff A.json B.json".into());
    };
    diff::diff(&read_report(Path::new(a))?, &read_report(Path::new(b))?)
}

/// `selfcheck`: the whole set twice on the same build, diffed.
fn cmd_selfcheck(flags: &Flags) -> Result<bool, String> {
    let (ok_a, a) = run_all(flags, &flags.out.join("selfcheck_a"))?;
    let (ok_b, b) = run_all(flags, &flags.out.join("selfcheck_b"))?;
    Ok(diff::diff(&a, &b)? && ok_a && ok_b)
}

/// The driver's contract: one workload, `--seconds` of measurement,
/// one JSON object as the last line of standard output.
fn cmd_driver(flags: &Flags) -> Result<bool, String> {
    let w = flags.workload.ok_or("--workload is required")?;
    let seconds = flags.seconds.ok_or("--seconds is required")?;
    let report = if flags.trace {
        // The traced run: the walk and the microbenchmarks carry the
        // layer numbers; two closed passes and one paced replay feed
        // the `core.*` gauges.
        let measured = measure::measure(w, flags.seed, Plan::short(w, 2));
        let mut report = end_to_end_report(&measured);
        add_layers(&mut report, &measured, 1);
        report
    } else {
        end_to_end_report(&measure::measure(w, flags.seed, Plan::seconds(w, seconds)))
    };
    let metrics: Vec<(&str, Json)> = if flags.trace {
        report
            .per_layer
            .iter()
            .map(|m| (m.name, m.to_driver_json()))
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter(|def| def.gated)
            .filter_map(|def| report.end_to_end.iter().find(|m| m.name == def.name))
            .map(|m| (m.name, m.to_driver_json()))
            .collect()
    };
    let line = Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.to_line());
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result =
        parse_flags(&args).and_then(|flags| match flags.positional.first().map(String::as_str) {
            Some("run") => cmd_run(&flags),
            Some("walk") => cmd_walk(&flags),
            Some("diff") => cmd_diff(&flags),
            Some("selfcheck") => cmd_selfcheck(&flags),
            None if flags.seconds.is_some() => cmd_driver(&flags),
            _ => Err("usage: perf_suite run|walk|diff|selfcheck [flags], or \
                 perf_suite --workload W --seed S --seconds N --trace 0|1"
                .into()),
        });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf_suite: {message}");
            ExitCode::from(2)
        }
    }
}
