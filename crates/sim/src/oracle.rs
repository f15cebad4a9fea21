//! The oracle registry: every trusted invariant, run per scenario.
//!
//! Each [`Oracle`] is a named differential or accounting check lifted
//! from a conformance suite (see the suite named on each entry): the
//! suites prove the invariant on hand-written scenarios, the campaign
//! asserts it holds across the sampled space. Checks return
//! `Err(String)` instead of panicking so the shrinker can probe
//! candidates quietly; [`guarded_check`] additionally fences every
//! check behind a panic catcher and a watchdog deadline, so a hung or
//! crashing pipeline becomes a reported failure, not a dead campaign.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use galiot_channel::{compose, snr_to_noise_power, Impairments, TxEvent};
use galiot_core::metrics::Metrics;
use galiot_core::{FleetGaliot, Galiot, PipelineFrame, StreamingGaliot};
use galiot_dsp::kernels::{self, Backend};
use galiot_dsp::Cf32;
use galiot_phy::registry::Registry;
use galiot_phy::TechId;
use galiot_trace::verify::{
    check_gateway_terminals, check_nesting, check_no_drops, check_ship_terminals,
};
use galiot_trace::{Stage, Trace, TraceSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scenario::Scenario;

/// A frame reduced to its conformance identity (cf. the conformance
/// suites).
pub type FrameId = (TechId, Vec<u8>, usize);

/// Start-sample slack when matching a streamed frame to its batch
/// counterpart (per-window digitization moves sync estimates a few
/// samples; cf. `streaming_conformance.rs`).
const STREAM_TOLERANCE: usize = 16;
/// The fleet gets double the slack: the dedup winner can come from any
/// session (cf. `fleet_conformance.rs`).
const FLEET_TOLERANCE: usize = 32;

/// The scenario's capture and batch reference, built once and shared
/// by every oracle run against it.
pub struct Built {
    /// The composed complex-baseband capture.
    pub samples: Vec<Cf32>,
    /// The technology registry (prototype).
    pub registry: Registry,
    /// The batch pipeline's frame set under the scenario's config —
    /// the reference every differential oracle compares against.
    pub batch: Vec<FrameId>,
}

/// Composes the scenario's capture and runs the batch reference.
pub fn build(scenario: &Scenario) -> Built {
    let registry = Registry::prototype();
    let events: Vec<TxEvent> = scenario
        .txs
        .iter()
        .map(|tx| {
            let handle = registry.get(tx.tech).expect("validated tech").clone();
            let mut imp = Impairments::crystal(tx.cfo_ppm, Scenario::CARRIER_HZ);
            imp.phase = tx.phase;
            TxEvent::new(handle, tx.payload.clone(), tx.start)
                .with_power_db(tx.power_db)
                .with_impairments(imp)
        })
        .collect();
    let noise = snr_to_noise_power(scenario.snr_db, 0.0);
    let mut rng = StdRng::seed_from_u64(scenario.noise_seed);
    let capture = compose(&events, scenario.capture_len, Scenario::FS, noise, &mut rng);
    let batch = frame_ids(
        &Galiot::new(scenario.config(), registry.clone())
            .process_capture(&capture.samples)
            .frames,
    );
    Built {
        samples: capture.samples,
        registry,
        batch,
    }
}

fn frame_ids(frames: &[PipelineFrame]) -> Vec<FrameId> {
    frames
        .iter()
        .map(|f| (f.frame.tech, f.frame.payload.clone(), f.frame.start))
        .collect()
}

/// 1:1-matches two frame sets (equal tech + payload, starts within
/// `tol`); mirrors the conformance suites' `assert_same_frames` with
/// an `Err` instead of a panic.
fn same_frames(got: &[FrameId], want: &[FrameId], tol: usize, ctx: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{ctx}: frame count diverged: got {} want {}\n got: {got:?}\n want: {want:?}",
            got.len(),
            want.len()
        ));
    }
    let mut unmatched: Vec<&FrameId> = want.iter().collect();
    for f in got {
        match unmatched
            .iter()
            .position(|b| b.0 == f.0 && b.1 == f.1 && b.2.abs_diff(f.2) <= tol)
        {
            Some(i) => {
                unmatched.remove(i);
            }
            None => {
                return Err(format!(
                    "{ctx}: frame {f:?} has no counterpart in {unmatched:?}"
                ))
            }
        }
    }
    Ok(())
}

/// The delivery-order contract: starts non-decreasing within `tol`.
fn capture_order(frames: &[FrameId], tol: usize, ctx: &str) -> Result<(), String> {
    let starts: Vec<usize> = frames.iter().map(|(_, _, s)| *s).collect();
    if starts.windows(2).all(|w| w[1] + tol >= w[0]) {
        Ok(())
    } else {
        Err(format!("{ctx}: frames out of capture order: {starts:?}"))
    }
}

fn err_if(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Err(msg())
    } else {
        Ok(())
    }
}

/// One named invariant: `applies` gates it on scenario shape, `check`
/// decides. Both are plain `fn` pointers so oracles can cross the
/// watchdog thread boundary.
#[derive(Clone, Copy)]
pub struct Oracle {
    /// Stable name (used in reports, `--oracle` filters and repros).
    pub name: &'static str,
    /// One-line description of the invariant.
    pub describe: &'static str,
    /// Whether the oracle is meaningful for this scenario.
    pub applies: fn(&Scenario) -> bool,
    /// The invariant itself.
    pub check: fn(&Scenario, &Built) -> Result<(), String>,
}

/// The trusted oracle registry, in execution order.
pub fn registry() -> Vec<Oracle> {
    vec![
        Oracle {
            name: "no_panic_deadline",
            describe: "pipelines complete in budget without panicking or poisoning workers",
            applies: |_| true,
            check: check_no_panic,
        },
        Oracle {
            name: "streaming_batch",
            describe: "streaming delivers exactly the batch frame set, in capture order",
            // A quarantining fault plan is *allowed* to drop frames
            // (the decode_quarantine oracle bounds which ones);
            // healable plans must still deliver the full set through
            // the retry ladder.
            applies: |s| !s.decode_faults.is_some_and(|d| d.quarantines()),
            check: check_streaming_batch,
        },
        Oracle {
            name: "fleet_batch",
            describe: "the fleet delivers the single-gateway set exactly once, accounting closed",
            applies: |s| s.gateways >= 2 && !s.decode_faults.is_some_and(|d| d.quarantines()),
            check: check_fleet_batch,
        },
        Oracle {
            name: "decode_quarantine",
            describe:
                "quarantine loses only the quarantined windows' frames, with closed accounting",
            applies: |s| s.decode_faults.is_some_and(|d| d.quarantines()),
            check: check_decode_quarantine,
        },
        Oracle {
            name: "backend_scalar",
            describe:
                "forced-scalar kernels decode the identical frame set as the detected SIMD backend",
            applies: |_| Backend::detect() != Backend::Scalar,
            check: check_backend_scalar,
        },
        Oracle {
            name: "trace_metrics",
            describe:
                "a traced streaming run reconciles trace terminals and histograms with metrics",
            applies: |_| true,
            check: check_trace_metrics,
        },
    ]
}

/// A deliberately broken oracle for exercising the shrinker and the
/// repro pipeline end to end (only reachable via `--oracle
/// broken-dev`; never in [`registry`]). Fails on any scenario with
/// two or more transmissions, so its minimal failing scenario has
/// exactly two.
pub fn broken_dev() -> Oracle {
    Oracle {
        name: "broken-dev",
        describe: "dev-only: fails whenever a scenario has >= 2 transmissions",
        applies: |_| true,
        check: |s, _| {
            err_if(s.txs.len() >= 2, || {
                format!("broken-dev: scenario has {} transmissions", s.txs.len())
            })
        },
    }
}

/// Looks an oracle up by name, including the dev-only ones.
pub fn find(name: &str) -> Option<Oracle> {
    registry()
        .into_iter()
        .chain(std::iter::once(broken_dev()))
        .find(|o| o.name == name)
}

// ---------------------------------------------------------------- checks

/// `no_panic_deadline` (panics and deadlines themselves are enforced
/// by [`guarded_check`]'s fence around *every* oracle; this check adds
/// the in-pipeline half): a streaming run consumes the whole capture
/// and no worker panics and gets poisoned along the way.
fn check_no_panic(scenario: &Scenario, built: &Built) -> Result<(), String> {
    let sys = StreamingGaliot::start(scenario.config(), built.registry.clone());
    let metrics = sys.metrics().clone();
    for c in built.samples.chunks(scenario.chunk) {
        sys.push_chunk(c.to_vec());
    }
    let _ = sys.finish();
    let m = metrics.snapshot();
    // Injected panic faults poison attempts on purpose; only a
    // fault-free scenario may demand a spotless pool.
    if scenario.decode_faults.is_none() {
        err_if(m.decode_poisoned != 0, || {
            format!(
                "{} cloud workers panicked and were poisoned",
                m.decode_poisoned
            )
        })?;
    }
    err_if(m.samples_processed != built.samples.len() as u64, || {
        format!(
            "gateway consumed {} of {} samples",
            m.samples_processed,
            built.samples.len()
        )
    })
}

/// `streaming_batch` (cf. `streaming_conformance.rs`): the worker-pool
/// streaming pipeline recovers exactly the batch frame set at the
/// scenario's worker count and chunking, delivered in capture order.
fn check_streaming_batch(scenario: &Scenario, built: &Built) -> Result<(), String> {
    let sys = StreamingGaliot::start(scenario.config(), built.registry.clone());
    for c in built.samples.chunks(scenario.chunk) {
        sys.push_chunk(c.to_vec());
    }
    let streamed = frame_ids(&sys.finish());
    capture_order(&streamed, STREAM_TOLERANCE, "streaming")?;
    same_frames(
        &streamed,
        &built.batch,
        STREAM_TOLERANCE,
        "streaming vs batch",
    )
}

/// `fleet_batch` (cf. `fleet_conformance.rs` / `failover_conformance.rs`):
/// N gateways hearing the same air deliver the single-gateway set
/// exactly once, the dedup/crash accounting identity closes, and the
/// gateway-tagged trace reconciles with the metrics per session.
fn check_fleet_batch(scenario: &Scenario, built: &Built) -> Result<(), String> {
    let session = TraceSession::start();
    let fleet = FleetGaliot::start(scenario.config(), built.registry.clone());
    let metrics = fleet.metrics().clone();
    for c in built.samples.chunks(scenario.chunk) {
        fleet.push_chunk(c.to_vec());
    }
    let frames = fleet.finish();
    let trace = session.finish();
    let m = metrics.snapshot();

    let delivered = frame_ids(&frames);
    capture_order(&delivered, FLEET_TOLERANCE, "fleet")?;
    same_frames(&delivered, &built.batch, FLEET_TOLERANCE, "fleet vs batch")?;

    // The dedup/crash/quarantine accounting identity.
    let offered: usize = m.per_gateway_decoded.values().sum();
    err_if(
        offered
            != m.fleet_delivered + m.dedup_suppressed + m.crash_lost_frames + m.quarantined_frames,
        || format!("fleet decode accounting leaks: {m:?}"),
    )?;
    err_if(m.fleet_delivered != frames.len(), || {
        format!("fleet_delivered vs delivered frames: {m:?}")
    })?;
    err_if(m.fleet_gateways != scenario.gateways, || {
        format!(
            "fleet_gateways {} vs configured {}",
            m.fleet_gateways, scenario.gateways
        )
    })?;
    if let Some(crash) = scenario.crash {
        err_if(m.sessions_restarted > m.sessions_crashed, || {
            format!("more restarts than crashes: {m:?}")
        })?;
        // A crash at segment 0 of a restartless session must actually
        // have been evicted for the run to finish; reaching here with
        // closed accounting is the invariant, but the counters must
        // agree a crash was at least scheduled coherently.
        err_if(m.sessions_crashed > 1, || {
            format!(
                "one CrashSpec({crash:?}) produced {} crashes",
                m.sessions_crashed
            )
        })?;
    }

    // Trace ↔ metrics, per gateway session.
    check_no_drops(&trace)?;
    check_nesting(&trace)?;
    let by_gw = check_gateway_terminals(&trace)?;
    let pool: usize = m.per_worker_segments.values().sum();
    let shipped: u64 = by_gw.values().map(|a| a.shipped).sum();
    let decoded: u64 = by_gw.values().map(|a| a.decoded).sum();
    let shed: u64 = by_gw.values().map(|a| a.shed).sum();
    let lost: u64 = by_gw.values().map(|a| a.lost).sum();
    err_if(shipped != m.shipped_segments as u64, || {
        format!("trace shipped {shipped} vs metrics {}", m.shipped_segments)
    })?;
    // Every completed pool attempt is a win, a poisoned attempt, or a
    // stale result fenced after resolution (hung attempts never
    // complete and appear in none of them); every trace decode
    // terminal is a win or a sibling's win shared with that copy.
    err_if(
        decoded + (m.decode_poisoned + m.decode_stale_results) as u64
            != (pool + m.decodes_shared) as u64,
        || {
            format!(
                "trace decodes {decoded} + poisoned {} + stale {} vs pool attempts {pool} + shared {}",
                m.decode_poisoned, m.decode_stale_results, m.decodes_shared
            )
        },
    )?;
    // The segment-level identity, from the counters alone: every
    // admitted copy was decoded under its own lease, answered by a
    // sibling's decode, or quarantined.
    // (Leases won = pool attempts − poisoned − stale, moved across the
    // equation so a broken run reports instead of underflowing.)
    let admitted: usize = m.per_gateway_segments.values().sum();
    err_if(
        admitted + m.decode_poisoned + m.decode_stale_results
            != pool + m.decodes_shared + m.decode_quarantined,
        || {
            format!(
                "admitted {admitted} + poisoned {} + stale {} vs pool attempts {pool} \
                 + shared {} + quarantined {}: {m:?}",
                m.decode_poisoned, m.decode_stale_results, m.decodes_shared, m.decode_quarantined
            )
        },
    )?;
    err_if(shed != m.segments_shed as u64, || {
        format!("trace shed {shed} vs metrics {}", m.segments_shed)
    })?;
    err_if(lost != m.arq_lost as u64, || {
        format!("trace lost {lost} vs metrics {}", m.arq_lost)
    })?;
    for (gw, acc) in &by_gw {
        let admitted = *m.per_gateway_segments.get(gw).unwrap_or(&0) as u64;
        err_if(acc.decoded != admitted, || {
            format!(
                "gw{gw}: trace decodes {} vs mux admissions {admitted}",
                acc.decoded
            )
        })?;
    }
    // A repairable transport must actually repair.
    err_if(scenario.loss > 0.0 && m.arq_lost != 0, || {
        format!("ARQ gave a segment up under repairable faults: {m:?}")
    })
}

/// `decode_quarantine` (cf. `failure_injection.rs`): under a fault
/// plan that exhausts the retry ladder, delivery is allowed to lose
/// frames — but only frames whose capture position falls inside a
/// quarantined segment's window, everything delivered still matches
/// the batch reference in capture order, and the quarantine
/// bookkeeping closes (`decode_quarantined == quarantine_records`,
/// every record carries a full attempt history, and the fleet decode
/// identity balances with `quarantined_frames`).
fn check_decode_quarantine(scenario: &Scenario, built: &Built) -> Result<(), String> {
    let retries = scenario.config().decode_retries;

    let sys = StreamingGaliot::start(scenario.config(), built.registry.clone());
    let metrics = sys.metrics().clone();
    for c in built.samples.chunks(scenario.chunk) {
        sys.push_chunk(c.to_vec());
    }
    let streamed = frame_ids(&sys.finish());
    let m = metrics.snapshot();
    capture_order(&streamed, STREAM_TOLERANCE, "quarantined streaming")?;
    lost_only_to_quarantine(&streamed, &built.batch, STREAM_TOLERANCE, &m, "streaming")?;
    quarantine_bookkeeping(&m, retries)?;

    if scenario.gateways >= 2 {
        let fleet = FleetGaliot::start(scenario.config(), built.registry.clone());
        let metrics = fleet.metrics().clone();
        for c in built.samples.chunks(scenario.chunk) {
            fleet.push_chunk(c.to_vec());
        }
        let delivered = frame_ids(&fleet.finish());
        let m = metrics.snapshot();
        capture_order(&delivered, FLEET_TOLERANCE, "quarantined fleet")?;
        lost_only_to_quarantine(&delivered, &built.batch, FLEET_TOLERANCE, &m, "fleet")?;
        quarantine_bookkeeping(&m, retries)?;
        let offered: usize = m.per_gateway_decoded.values().sum();
        err_if(
            offered
                != m.fleet_delivered
                    + m.dedup_suppressed
                    + m.crash_lost_frames
                    + m.quarantined_frames,
            || format!("fleet decode accounting leaks under quarantine: {m:?}"),
        )?;
    }
    Ok(())
}

/// Matches `got` 1:1 into `want` (no spurious deliveries), then
/// demands every *undelivered* reference frame start inside some
/// quarantined segment's `[start, start + len)` window: quarantine may
/// cost exactly its own windows, never a healthy segment's frames.
fn lost_only_to_quarantine(
    got: &[FrameId],
    want: &[FrameId],
    tol: usize,
    m: &Metrics,
    ctx: &str,
) -> Result<(), String> {
    let mut missing: Vec<&FrameId> = want.iter().collect();
    for f in got {
        match missing
            .iter()
            .position(|b| b.0 == f.0 && b.1 == f.1 && b.2.abs_diff(f.2) <= tol)
        {
            Some(i) => {
                missing.remove(i);
            }
            None => {
                return Err(format!(
                    "{ctx}: delivered frame {f:?} has no batch counterpart"
                ))
            }
        }
    }
    for f in missing {
        let covered = m.quarantine_records.iter().any(|r| {
            let lo = (r.start as usize).saturating_sub(tol);
            let hi = r.start as usize + r.len + tol;
            (lo..hi).contains(&f.2)
        });
        err_if(!covered, || {
            format!(
                "{ctx}: frame {f:?} lost outside every quarantined window: {:?}",
                m.quarantine_records
            )
        })?;
    }
    Ok(())
}

/// The quarantine ledger invariants shared by both topologies.
fn quarantine_bookkeeping(m: &Metrics, retries: usize) -> Result<(), String> {
    err_if(m.decode_quarantined != m.quarantine_records.len(), || {
        format!(
            "decode_quarantined {} vs {} dead-letter records",
            m.decode_quarantined,
            m.quarantine_records.len()
        )
    })?;
    for r in &m.quarantine_records {
        err_if(r.attempts.len() != retries + 1, || {
            format!(
                "quarantine record for gw{} seq {} shows {} attempts, \
                 expected the full ladder of {}",
                r.gateway,
                r.seq,
                r.attempts.len(),
                retries + 1
            )
        })?;
    }
    Ok(())
}

/// `backend_scalar` (cf. `backend_conformance.rs`): kernels are
/// bit-exact across backends, so a batch run forced onto the scalar
/// reference must produce the *identical* frame list as the ambient
/// (detected or env-forced) backend.
fn check_backend_scalar(scenario: &Scenario, built: &Built) -> Result<(), String> {
    let prev = kernels::set_backend(Backend::Scalar);
    let scalar = frame_ids(
        &Galiot::new(scenario.config(), built.registry.clone())
            .process_capture(&built.samples)
            .frames,
    );
    kernels::set_backend(prev);
    err_if(scalar != built.batch, || {
        format!(
            "forced-scalar batch diverged from {} backend\n scalar: {scalar:?}\n {}: {:?}",
            prev.name(),
            prev.name(),
            built.batch
        )
    })
}

/// `trace_metrics` (cf. `trace_conformance.rs`): a traced streaming
/// run's terminals and histograms reconcile exactly with the
/// pipeline's own counters.
fn check_trace_metrics(scenario: &Scenario, built: &Built) -> Result<(), String> {
    let session = TraceSession::start();
    let sys = StreamingGaliot::start(scenario.config(), built.registry.clone());
    let metrics = sys.metrics().clone();
    for c in built.samples.chunks(scenario.chunk) {
        sys.push_chunk(c.to_vec());
    }
    let _ = sys.finish();
    let trace = session.finish();
    let m = metrics.snapshot();
    reconcile(&trace, &m)
}

/// The shared trace ↔ metrics reconciliation contract.
fn reconcile(trace: &Trace, m: &Metrics) -> Result<(), String> {
    check_no_drops(trace)?;
    check_nesting(trace)?;
    let acc = check_ship_terminals(trace)?;
    let pool: usize = m.per_worker_segments.values().sum();
    err_if(acc.shipped != m.shipped_segments as u64, || {
        format!(
            "ship events {} vs shipped_segments {}",
            acc.shipped, m.shipped_segments
        )
    })?;
    err_if(
        acc.decoded + (m.decode_poisoned + m.decode_stale_results) as u64 != pool as u64,
        || {
            format!(
                "decode events {} + poisoned {} + stale {} vs pool attempts {pool}",
                acc.decoded, m.decode_poisoned, m.decode_stale_results
            )
        },
    )?;
    err_if(acc.retried != m.decode_retried as u64, || {
        format!(
            "retried events {} vs decode_retried {}",
            acc.retried, m.decode_retried
        )
    })?;
    err_if(acc.quarantined != m.decode_quarantined as u64, || {
        format!(
            "quarantined events {} vs decode_quarantined {}",
            acc.quarantined, m.decode_quarantined
        )
    })?;
    err_if(m.decode_quarantined != m.quarantine_records.len(), || {
        format!(
            "decode_quarantined {} vs {} dead-letter records",
            m.decode_quarantined,
            m.quarantine_records.len()
        )
    })?;
    err_if(acc.shed != m.segments_shed as u64, || {
        format!(
            "shed events {} vs segments_shed {}",
            acc.shed, m.segments_shed
        )
    })?;
    err_if(acc.lost != m.arq_lost as u64, || {
        format!("lost events {} vs arq_lost {}", acc.lost, m.arq_lost)
    })?;
    for stage in Stage::ALL {
        err_if(
            trace.histogram(stage).count() != trace.span_count(stage),
            || format!("{} histogram diverges from its span records", stage.name()),
        )?;
    }
    err_if(
        trace.histogram(Stage::WorkerDecode).count() != pool as u64,
        || "worker_decode histogram vs per-worker segment counts".into(),
    )?;
    err_if(
        trace.histogram(Stage::SicRound).count() != m.sic_rounds,
        || "sic_round histogram vs sic_rounds counter".into(),
    )?;
    err_if(
        trace.histogram(Stage::KillFilter).count() != m.kill_applications,
        || "kill_filter histogram vs kill_applications counter".into(),
    )
}

// ----------------------------------------------------------- the fence

/// Runs `oracle.check` on `scenario` behind the panic/deadline fence:
/// the check executes on a watchdog thread; a panic becomes
/// `Err("panicked: …")` and blowing the scenario's `deadline_s` becomes
/// `Err("deadline: …")` (the hung thread is abandoned — its liveness
/// is exactly what the oracle just disproved).
///
/// Also restores the ambient kernel backend afterwards, so a check
/// that died mid-`set_backend` cannot poison subsequent runs.
pub fn guarded_check(
    oracle: &Oracle,
    scenario: &Scenario,
    built: &Arc<Built>,
) -> Result<(), String> {
    let ambient = kernels::active();
    let (tx, rx) = mpsc::channel();
    let s = scenario.clone();
    let b = Arc::clone(built);
    let check = oracle.check;
    std::thread::Builder::new()
        .name(format!("oracle-{}", oracle.name))
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| check(&s, &b))).unwrap_or_else(|p| {
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                Err(format!("panicked: {msg}"))
            });
            let _ = tx.send(result);
        })
        .expect("spawn oracle watchdog");
    let outcome = match rx.recv_timeout(Duration::from_secs_f64(scenario.deadline_s)) {
        Ok(r) => r,
        Err(_) => Err(format!(
            "deadline: oracle `{}` exceeded {} s (thread abandoned)",
            oracle.name, scenario.deadline_s
        )),
    };
    kernels::set_backend(ambient);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TxSpec;

    fn tiny() -> Scenario {
        Scenario {
            seed: 9,
            capture_len: 120_000,
            snr_db: 25.0,
            noise_seed: 4,
            txs: vec![TxSpec {
                tech: TechId::XBee,
                payload: vec![0xA5, 0x5A, 0x11],
                start: 20_000,
                power_db: 0.0,
                cfo_ppm: 0.0,
                phase: 0.0,
            }],
            edge_decoding: false,
            workers: 2,
            chunk: 4_096,
            gateways: 1,
            shards: 0,
            loss: 0.0,
            fault_seed: 5,
            crash: None,
            decode_faults: None,
            liveness_horizon: 64,
            deadline_s: 60.0,
        }
    }

    #[test]
    fn registry_names_are_unique_and_findable() {
        let names: Vec<&str> = registry().iter().map(|o| o.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len(), "duplicate oracle names");
        for n in names {
            assert!(find(n).is_some(), "{n} not findable");
        }
        assert!(find("broken-dev").is_some());
        assert!(find("no-such-oracle").is_none());
        assert!(
            registry().iter().all(|o| o.name != "broken-dev"),
            "dev oracle leaked into the trusted registry"
        );
    }

    #[test]
    fn tiny_scenario_passes_streaming_and_trace_oracles() {
        let s = tiny();
        s.validate().expect("valid");
        let built = Arc::new(build(&s));
        assert!(!built.batch.is_empty(), "vacuous capture");
        for oracle in registry() {
            if !(oracle.applies)(&s) {
                continue;
            }
            guarded_check(&oracle, &s, &built).unwrap_or_else(|e| panic!("{}: {e}", oracle.name));
        }
    }

    #[test]
    fn quarantining_plan_swaps_equality_oracles_for_the_quarantine_oracle() {
        use crate::scenario::DecodeFaultPlan;
        use galiot_core::DecodeFaultKind;

        let mut s = tiny();
        // Strike every segment, persistently past the retry ladder:
        // the run must quarantine rather than deliver, and every
        // applicable oracle must still pass.
        s.decode_faults = Some(DecodeFaultPlan {
            kind: DecodeFaultKind::Panic,
            period: 1,
            sticky_attempts: 4,
            seed: 3,
        });
        s.validate().expect("valid");
        assert!(!(find("streaming_batch").expect("oracle").applies)(&s));
        assert!(!(find("fleet_batch").expect("oracle").applies)(&s));
        assert!((find("decode_quarantine").expect("oracle").applies)(&s));

        let built = Arc::new(build(&s));
        assert!(!built.batch.is_empty(), "vacuous capture");
        for oracle in registry() {
            if !(oracle.applies)(&s) {
                continue;
            }
            guarded_check(&oracle, &s, &built).unwrap_or_else(|e| panic!("{}: {e}", oracle.name));
        }
    }

    #[test]
    fn broken_dev_fails_exactly_on_multi_tx() {
        let one = tiny();
        let built = Arc::new(build(&one));
        assert!((broken_dev().check)(&one, &built).is_ok());
        let mut two = tiny();
        two.txs.push(TxSpec {
            start: 80_000,
            ..two.txs[0].clone()
        });
        assert!((broken_dev().check)(&two, &built).is_err());
    }

    #[test]
    fn the_fence_reports_panics_and_deadlines() {
        let panicker = Oracle {
            name: "panicker",
            describe: "",
            applies: |_| true,
            check: |_, _| panic!("boom {}", 7),
        };
        let s = tiny();
        let built = Arc::new(build(&s));
        let err = guarded_check(&panicker, &s, &built).expect_err("panic fenced");
        assert!(err.contains("panicked") && err.contains("boom 7"), "{err}");

        let sleeper = Oracle {
            name: "sleeper",
            describe: "",
            applies: |_| true,
            check: |_, _| {
                std::thread::sleep(Duration::from_secs(30));
                Ok(())
            },
        };
        let mut fast = s;
        fast.deadline_s = 0.2;
        let err = guarded_check(&sleeper, &fast, &built).expect_err("deadline fenced");
        assert!(err.contains("deadline"), "{err}");
    }
}
