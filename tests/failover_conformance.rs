//! Failover conformance: a fleet that loses a gateway mid-stream must
//! keep its promises to the survivors. The keystone invariant:
//!
//! > For every gateway count, crash point, restart policy, and loss
//! > rate, every frame heard by a surviving session is delivered
//! > exactly once, in capture order, without waiting for teardown —
//! > and the crash is fully accounted:
//! > `Σ per_gateway_decoded == fleet_delivered + dedup_suppressed +
//! > crash_lost_frames + quarantined_frames`.
//!
//! The matrix injects a crash into session 0 (wire gateway 1) at a
//! configured segment index, with and without restart, over clean and
//! lossy links. Dead sessions must be evicted by the liveness reaper —
//! finalizing their merge watermark so capture-order release resumes —
//! and restarted sessions re-register under a bumped epoch whose
//! segments are distinguishable in the trace (`check_epoch_terminals`).
//!
//! Every cell runs under a hard wall-clock deadline: a hung fleet is
//! itself a conformance failure.
//!
//! Fault patterns are seeded (override with `GALIOT_FAULT_SEED`; CI
//! pins and sweeps it) and scenario captures route through
//! `GALIOT_TEST_SEED` — see EXPERIMENTS.md.

use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use galiot::channel::scenario_seed;
use galiot::cloud::SessionInfo;
use galiot::core::metrics::Metrics;
use galiot::core::{DecodeFaultKind, DecodeFaultSpec, PipelineFrame};
use galiot::dsp::spectral::Band;
use galiot::phy::common::KillRecipe;
use galiot::phy::registry::TechHandle;
use galiot::phy::{ModClass, PhyError};
use galiot::prelude::*;
use galiot::trace::verify::{
    check_epoch_terminals, check_gateway_terminals, check_nesting, check_no_drops,
};
use galiot::trace::{Trace, TraceSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FS: f64 = 1_000_000.0;

/// Wire id of the session the matrix crashes (session index 0).
const CRASHED_GW: u16 = 1;

/// Liveness horizon for every cell: small enough that the survivors'
/// own traffic after an early crash crosses it, large enough that a
/// healthy session's gaps (the other sessions' interleaved clock
/// events) never do.
const HORIZON: u64 = 12;

/// Hard per-cell wall-clock budget. A stalled release gate or a
/// deadlocked teardown trips this rather than hanging the suite.
const CELL_DEADLINE: Duration = Duration::from_secs(180);

/// Serializes the suite, for *timing* only (each cell's
/// [`TraceSession`] sees just its own fleet): every test here runs a
/// full multi-gateway fleet (channelizer + mux + decode pool + merge,
/// all CPU-bound). On a small box, letting them contend turns the
/// wall-clock budgets above into lottery tickets — the cells are
/// timing assertions, so they run one at a time (ROADMAP, *clock*).
static SUITE: Mutex<()> = Mutex::new(());

fn suite_lock() -> MutexGuard<'static, ()> {
    SUITE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fault_seed() -> u64 {
    galiot::channel::fault_seed(0xF1EE7)
}

/// A frame reduced to its conformance identity.
type FrameId = (TechId, Vec<u8>, usize);

fn frame_ids(frames: &[PipelineFrame]) -> Vec<FrameId> {
    frames
        .iter()
        .map(|f| (f.frame.tech, f.frame.payload.clone(), f.frame.start))
        .collect()
}

const START_TOLERANCE: usize = 32;

fn assert_same_frames(fleet: &[FrameId], batch: &[FrameId], ctx: &str) {
    assert_eq!(
        fleet.len(),
        batch.len(),
        "{ctx}: frame count diverged\n fleet: {fleet:?}\n batch: {batch:?}"
    );
    let mut unmatched: Vec<&FrameId> = batch.iter().collect();
    for f in fleet {
        let pos = unmatched
            .iter()
            .position(|b| b.0 == f.0 && b.1 == f.1 && b.2.abs_diff(f.2) <= START_TOLERANCE);
        match pos {
            Some(i) => {
                unmatched.remove(i);
            }
            None => panic!("{ctx}: fleet frame {f:?} has no batch counterpart in {unmatched:?}"),
        }
    }
}

/// Conformance-grade transport (cf. `fleet_conformance.rs`): the full
/// impairment mix at the given loss rate, ARQ generous enough to
/// always win, degradation ladder disabled.
fn repairable_transport(loss: f64, seed: u64) -> TransportConfig {
    let faults = LinkFaults {
        loss,
        corrupt: 0.02,
        duplicate: 0.05,
        reorder: 0.05,
        jitter_depth: 3,
        seed,
    };
    let mut t = TransportConfig::over_faulty_link(faults);
    t.arq.max_retries = 12;
    t.arq.base_timeout_s = 0.001;
    t.send_queue_cap = 1024;
    t.degrade_hwm = 1 << 20;
    t
}

/// Eight well-separated packets of two technologies: one detected
/// segment per packet per session, so crash points index cleanly into
/// each session's segment stream. Longer and denser than the
/// `fleet_conformance.rs` capture on purpose: the liveness reaper
/// measures silence in fleet clock events, so proving mid-stream
/// eviction needs enough survivor traffic *after* the crash to cross
/// the horizon while the capture is still flowing.
fn fleet_capture() -> Vec<Cf32> {
    let mut rng = StdRng::seed_from_u64(scenario_seed(61));
    let registry = Registry::prototype();
    let zwave = registry.get(TechId::ZWave).unwrap().clone();
    let xbee = registry.get(TechId::XBee).unwrap().clone();
    let events: Vec<TxEvent> = (0..8)
        .map(|i| {
            let tech = if i % 2 == 0 { &zwave } else { &xbee };
            TxEvent::new(
                tech.clone(),
                vec![0x61 + i; 6],
                120_000 + i as usize * 300_000,
            )
        })
        .collect();
    let np = snr_to_noise_power(20.0, 0.0);
    compose(&events, 2_400_000, FS, np, &mut rng).samples
}

/// The single-gateway lossless reference: the batch pipeline on the
/// same capture.
fn batch_reference(samples: &[Cf32], registry: &Registry) -> Vec<FrameId> {
    let mut base = GaliotConfig::prototype();
    base.edge_decoding = false;
    let batch = frame_ids(
        &Galiot::new(base, registry.clone())
            .process_capture(samples)
            .frames,
    );
    assert!(
        !batch.is_empty(),
        "batch recovered nothing — scenario is vacuous"
    );
    batch
}

/// One cell of the failover matrix.
#[derive(Clone, Copy)]
struct Cell {
    gateways: usize,
    /// Segment index at which session 0 crashes (it dies *before*
    /// emitting this segment).
    crash_after: u64,
    restart: bool,
    loss: f64,
    /// The early-dead 4-gateway cells additionally prove the reaper
    /// un-stalls release *before* teardown: most of the batch must
    /// arrive on the live frame channel prior to `finish()`.
    expect_unstall: bool,
    label: &'static str,
}

/// Everything one fleet run produced, captured inside the watchdog.
struct CellOutcome {
    frames: Vec<PipelineFrame>,
    pre_finish: usize,
    sessions: Vec<SessionInfo>,
    trace: Trace,
    metrics: Metrics,
}

/// Runs `f` on its own thread and panics if it misses the deadline —
/// a hung fleet must fail the cell, not the whole suite's patience.
fn run_with_deadline<T: Send + 'static>(ctx: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(CELL_DEADLINE) {
        Ok(v) => {
            let _ = handle.join();
            v
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("cell thread exited without sending"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{ctx}: fleet run exceeded the {CELL_DEADLINE:?} deadline — failover stalled")
        }
    }
}

/// Feeds the capture to a fleet running under [`HORIZON`]. Liveness
/// counts logical events, and a session is on that clock from the
/// moment it registers: fed at memory speed, the other sessions can
/// put a whole horizon of admissions and results on it while one
/// session's first segment is still hopping threads towards the mux,
/// and a healthy session is reaped before it was ever heard. So the
/// feed goes chunk by chunk, in step with the gateways, until every
/// session has emitted its first segment (one each in this capture's
/// first flush: registrations, admissions and results make at most
/// ten events), waits for each to be admitted, and only then lets go.
fn feed(fleet: &FleetGaliot, samples: &[Cf32], gateways: usize) {
    let metrics = fleet.metrics().clone();
    let wait_for = |done: &dyn Fn(&Metrics) -> bool| {
        while !done(&metrics.snapshot()) {
            thread::sleep(Duration::from_millis(1));
        }
    };
    let mut chunks = samples.chunks(65_536);
    let mut fed = 0;
    for c in chunks.by_ref() {
        fleet.push_chunk(c.to_vec());
        // A gateway takes a chunk only after the flush the previous
        // one triggered, so consumed chunks have their segments counted.
        fed += (c.len() * gateways) as u64;
        wait_for(&|m| m.samples_processed == fed);
        if metrics.snapshot().segments >= gateways {
            break;
        }
    }
    wait_for(&|m| m.per_gateway_segments.len() == gateways);
    for c in chunks {
        fleet.push_chunk(c.to_vec());
    }
}

/// One traced fleet pass with the cell's crash injected. When the cell
/// expects mid-stream un-stalling, frames are drained from the live
/// channel (with a generous polling budget) *before* `finish()` so a
/// stalled release gate is observable.
fn run_cell(cell: Cell, batch_len: usize) -> CellOutcome {
    let samples = fleet_capture();
    run_with_deadline(cell.label, move || {
        let mut config = GaliotConfig::prototype()
            .with_gateways(cell.gateways)
            .with_cloud_workers(4)
            .with_crash(0, cell.crash_after, cell.restart)
            .with_liveness_horizon(HORIZON);
        config.edge_decoding = false;
        if cell.loss > 0.0 {
            let seed = fault_seed() ^ (cell.loss * 1000.0) as u64 ^ ((cell.gateways as u64) << 32);
            config = config.with_transport(repairable_transport(cell.loss, seed));
        }
        let session = TraceSession::start();
        let fleet = FleetGaliot::start(config, Registry::prototype());
        let metrics = fleet.metrics().clone();
        feed(&fleet, &samples, cell.gateways);
        let mut frames: Vec<PipelineFrame> = Vec::new();
        if cell.expect_unstall {
            // The capture's tail (its last unsettled segment) legitimately
            // stays buffered until teardown, so only the front of the
            // batch can release mid-stream — but a fleet stalled on
            // the dead session's watermark releases *nothing*.
            let budget = Instant::now() + Duration::from_secs(60);
            while frames.len() < batch_len / 2 && Instant::now() < budget {
                if let Ok(f) = fleet.frames().recv_timeout(Duration::from_millis(100)) {
                    frames.push(f);
                }
            }
        }
        let pre_finish = frames.len();
        let sessions = fleet.sessions();
        frames.extend(fleet.finish());
        let trace = session.finish();
        CellOutcome {
            frames,
            pre_finish,
            sessions,
            trace,
            metrics: metrics.snapshot(),
        }
    })
}

/// The full failover contract for one cell.
fn assert_failover_cell(out: &CellOutcome, cell: Cell, batch: &[FrameId]) {
    let ctx = cell.label;
    let m = &out.metrics;

    // Keystone: survivors cover the whole capture, so the delivered
    // set is still exactly the single-gateway lossless batch, in
    // capture order, despite the crash.
    let delivered = frame_ids(&out.frames);
    assert_same_frames(&delivered, batch, ctx);
    let starts: Vec<usize> = delivered.iter().map(|(_, _, s)| *s).collect();
    assert!(
        starts.windows(2).all(|w| w[1] + START_TOLERANCE >= w[0]),
        "{ctx}: frames out of capture order: {starts:?}"
    );

    // The crash fired exactly once, and restart policy was honoured.
    assert_eq!(m.sessions_crashed, 1, "{ctx}: injected crash missed: {m:?}");
    assert_eq!(
        m.sessions_restarted, cell.restart as usize,
        "{ctx}: restart accounting: {m:?}"
    );

    // Closed loss accounting: every frame decoded anywhere was
    // delivered, suppressed as a duplicate, charged to the crash, or
    // quarantined (no cell here injects decode faults, so the last
    // term must stay zero — asserted below — but the identity is the
    // full four-way fleet invariant).
    let offered: usize = m.per_gateway_decoded.values().sum();
    assert_eq!(
        offered,
        m.fleet_delivered + m.dedup_suppressed + m.crash_lost_frames + m.quarantined_frames,
        "{ctx}: fleet decode accounting leaks: {m:?}"
    );
    assert_eq!(
        m.quarantined_frames, 0,
        "{ctx}: quarantine fired without injected decode faults: {m:?}"
    );
    assert_eq!(
        m.fleet_delivered,
        out.frames.len(),
        "{ctx}: fleet_delivered vs delivered frames: {m:?}"
    );
    // Each packet still had one copy per fully-surviving session to
    // choose from.
    assert!(
        m.dedup_suppressed >= cell.gateways.saturating_sub(2) * batch.len(),
        "{ctx}: fewer duplicates than the survivors imply: {m:?}"
    );
    assert_eq!(
        m.per_gateway_segments.len(),
        cell.gateways,
        "{ctx}: sessions missing from ingest accounting: {m:?}"
    );

    // Mid-stream un-stall proof: the reaper finalized the dead lane's
    // watermark while the capture was still flowing, so all but the
    // final packet released *before* teardown.
    if cell.expect_unstall {
        assert!(
            out.pre_finish >= batch.len() / 2,
            "{ctx}: only {} of {} frames released before finish — \
             release gate stayed stalled on the dead session",
            out.pre_finish,
            batch.len()
        );
    }

    // Registry view: a crashed-unrestarted session the reaper evicted
    // is marked dead; a restarted one is alive again.
    let crashed = out
        .sessions
        .iter()
        .find(|s| s.gateway == GatewayId(CRASHED_GW))
        .unwrap_or_else(|| panic!("{ctx}: crashed session missing from registry"));
    if cell.restart {
        assert!(!crashed.dead, "{ctx}: restarted session left for dead");
    }
    if cell.expect_unstall {
        assert!(
            crashed.dead,
            "{ctx}: reaper never declared the session dead"
        );
    }

    // The gateway-tagged trace reconciles with the metrics: every
    // shipped segment reached exactly one terminal, and losses split
    // between the ARQ and the crash fence.
    check_no_drops(&out.trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    check_nesting(&out.trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let by_gw = check_gateway_terminals(&out.trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(
        by_gw.len(),
        cell.gateways,
        "{ctx}: trace sessions: {by_gw:?}"
    );
    let pool: usize = m.per_worker_segments.values().sum();
    let shipped: u64 = by_gw.values().map(|a| a.shipped).sum();
    let decoded: u64 = by_gw.values().map(|a| a.decoded).sum();
    let lost: u64 = by_gw.values().map(|a| a.lost).sum();
    assert_eq!(
        shipped, m.shipped_segments as u64,
        "{ctx}: trace vs shipped: {m:?}"
    );
    // A decode terminal is a decode won by that copy's own lease or a
    // sibling's decode shared with it (`decodes_shared`, 0 with one
    // session).
    assert_eq!(
        decoded,
        (pool + m.decodes_shared) as u64,
        "{ctx}: trace vs pool decodes + shared: {m:?}"
    );
    assert!(
        lost >= m.arq_lost as u64 && lost <= (m.arq_lost + m.crash_lost_segments) as u64,
        "{ctx}: trace lost terminals ({lost}) outside arq_lost + crash fence: {m:?}"
    );
    for (gw, acc) in &by_gw {
        assert_eq!(
            acc.decoded,
            *m.per_gateway_segments.get(gw).unwrap_or(&0) as u64,
            "{ctx}: gw{gw} trace decodes vs mux admissions: {by_gw:?} {m:?}"
        );
    }

    // Epoch accounting: a restarted session ships under a bumped
    // epoch; without restart only epoch 0 ever reaches the wire.
    let by_life = check_epoch_terminals(&out.trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let epochs: Vec<u64> = by_life
        .keys()
        .filter(|(gw, _)| *gw == CRASHED_GW)
        .map(|(_, e)| *e)
        .collect();
    if cell.restart {
        assert_eq!(
            epochs,
            vec![0, 1],
            "{ctx}: restarted session should ship under epochs 0 and 1: {by_life:?}"
        );
        let reborn = &by_life[&(CRASHED_GW, 1)];
        assert!(
            reborn.shipped > 0,
            "{ctx}: restarted epoch shipped nothing: {by_life:?}"
        );
    } else {
        assert_eq!(
            epochs,
            vec![0],
            "{ctx}: unrestarted session leaked a bumped epoch: {by_life:?}"
        );
    }
}

/// The capture must give each session at least four detected segments,
/// or the matrix's crash points (1, 2, 3) could silently never fire.
/// (`assert_failover_cell` also checks `sessions_crashed == 1`, but
/// this pins the *reason* a future capture tweak breaks the matrix.)
#[test]
fn capture_supports_the_crash_points() {
    let _serial = suite_lock();
    let samples = fleet_capture();
    let mut config = GaliotConfig::prototype().with_gateways(1);
    config.edge_decoding = false;
    let fleet = FleetGaliot::start(config, Registry::prototype());
    let metrics = fleet.metrics().clone();
    for c in samples.chunks(65_536) {
        fleet.push_chunk(c.to_vec());
    }
    let _ = fleet.finish();
    let m = metrics.snapshot();
    let per_session = *m.per_gateway_segments.get(&1).unwrap_or(&0);
    assert!(
        per_session >= 4,
        "capture yields only {per_session} segments per session; \
         the crash-point matrix needs at least 4: {m:?}"
    );
}

/// The keystone matrix: gateways × crash point × restart policy ×
/// loss. Session 0 dies early (before segment 1), mid-stream (before
/// segment 2), or while the ARQ is still repairing earlier segments
/// (before segment 3, lossy link).
#[test]
fn fleet_survives_the_crash_matrix() {
    let _serial = suite_lock();
    let samples = fleet_capture();
    let registry = Registry::prototype();
    let batch = batch_reference(&samples, &registry);

    #[rustfmt::skip]
    let cells = [
        Cell { gateways: 4, crash_after: 1, restart: false, loss: 0.00, expect_unstall: true,  label: "early-dead" },
        Cell { gateways: 4, crash_after: 1, restart: false, loss: 0.01, expect_unstall: true,  label: "early-dead-lossy" },
        Cell { gateways: 2, crash_after: 1, restart: false, loss: 0.00, expect_unstall: false, label: "early-dead-2gw" },
        Cell { gateways: 2, crash_after: 1, restart: false, loss: 0.01, expect_unstall: false, label: "early-dead-2gw-lossy" },
        Cell { gateways: 4, crash_after: 2, restart: false, loss: 0.00, expect_unstall: false, label: "mid-dead" },
        Cell { gateways: 4, crash_after: 2, restart: false, loss: 0.01, expect_unstall: false, label: "mid-dead-lossy" },
        Cell { gateways: 4, crash_after: 3, restart: false, loss: 0.01, expect_unstall: false, label: "arq-dead" },
        Cell { gateways: 4, crash_after: 1, restart: true,  loss: 0.00, expect_unstall: false, label: "early-restart" },
        Cell { gateways: 4, crash_after: 1, restart: true,  loss: 0.01, expect_unstall: false, label: "early-restart-lossy" },
        Cell { gateways: 2, crash_after: 1, restart: true,  loss: 0.00, expect_unstall: false, label: "early-restart-2gw" },
        Cell { gateways: 4, crash_after: 2, restart: true,  loss: 0.01, expect_unstall: false, label: "mid-restart-lossy" },
        // Restart cells crash no later than segment 2 so the reborn
        // epoch still has air left to hear: the crash forfeits the
        // buffered-unflushed window, and a crash at the final segment
        // would leave the new epoch nothing to ship.
        Cell { gateways: 2, crash_after: 2, restart: true,  loss: 0.01, expect_unstall: false, label: "arq-restart-2gw" },
    ];
    for cell in cells {
        let out = run_cell(cell, batch.len());
        assert_failover_cell(&out, cell, &batch);
    }
}

/// On the air this is the wrapped PHY (same preamble, same modulator,
/// so detection and extraction engage normally), but its demodulator
/// panics inside the cloud worker — the "poisoned segment" of the
/// worker-pool failure model (cf. `failure_injection.rs`).
struct PanickingPhy(TechHandle);

impl Technology for PanickingPhy {
    fn id(&self) -> TechId {
        self.0.id()
    }
    fn modulation(&self) -> ModClass {
        self.0.modulation()
    }
    fn center_offset_hz(&self) -> f64 {
        self.0.center_offset_hz()
    }
    fn occupied_band(&self) -> Band {
        self.0.occupied_band()
    }
    fn bitrate(&self) -> f64 {
        self.0.bitrate()
    }
    fn preamble_waveform(&self, fs: f64) -> Vec<Cf32> {
        self.0.preamble_waveform(fs)
    }
    fn modulate(&self, payload: &[u8], fs: f64) -> Vec<Cf32> {
        self.0.modulate(payload, fs)
    }
    fn demodulate(&self, _capture: &[Cf32], _fs: f64) -> Result<DecodedFrame, PhyError> {
        panic!("injected demodulator fault");
    }
    fn max_frame_samples(&self, fs: f64) -> usize {
        self.0.max_frame_samples(fs)
    }
    fn max_payload_len(&self) -> usize {
        self.0.max_payload_len()
    }
    fn preamble_description(&self) -> &'static str {
        self.0.preamble_description()
    }
    fn kill_recipe(&self, fs: f64) -> KillRecipe {
        self.0.kill_recipe(fs)
    }
}

/// Satellite regression: every poisoned decode must return its
/// fairness credit. Each session ships more segments than its pool
/// quota (8) and every one of them detonates inside a worker, on
/// every attempt of the retry ladder — so each shipped segment runs
/// the full `1 + decode_retries` attempts and is then quarantined,
/// which is where the credit comes back. A single leaked credit per
/// exhausted segment would exhaust the quota and wedge the mux —
/// tripping the cell deadline instead of finishing.
#[test]
fn poisoned_decodes_do_not_leak_fairness_credits() {
    let _serial = suite_lock();
    let mut rng = StdRng::seed_from_u64(scenario_seed(62));
    let real = Registry::prototype();
    let xbee = real.get(TechId::XBee).unwrap().clone();
    let mut poisoned = Registry::new();
    poisoned.push(Arc::new(PanickingPhy(xbee.clone())) as TechHandle);

    // 12 packets per session > the quota of 8 in-flight credits.
    let events: Vec<TxEvent> = (0..12)
        .map(|i| {
            TxEvent::new(
                xbee.clone(),
                vec![i as u8; 5],
                60_000 + i as usize * 120_000,
            )
        })
        .collect();
    let np = snr_to_noise_power(18.0, 0.0);
    let samples = compose(&events, 1_600_000, FS, np, &mut rng).samples;

    let (frames, m) = run_with_deadline("poisoned-credits", move || {
        let mut config = GaliotConfig::prototype()
            .with_gateways(2)
            .with_cloud_workers(2);
        config.edge_decoding = false; // force every segment through the pool
        let fleet = FleetGaliot::start(config, poisoned);
        let metrics = fleet.metrics().clone();
        for c in samples.chunks(65_536) {
            fleet.push_chunk(c.to_vec());
        }
        (fleet.finish(), metrics.snapshot())
    });

    assert!(
        frames.is_empty(),
        "poisoned decode produced frames: {frames:?}"
    );
    // Both sessions pushed past the quota, so a per-blast leak could
    // not have survived to completion.
    for (gw, n) in &m.per_gateway_segments {
        assert!(
            *n > 8,
            "gw{gw} shipped only {n} segments — scenario no longer \
             exceeds the fairness quota: {m:?}"
        );
    }
    assert!(m.decode_poisoned >= 2 * 9, "too few blasts: {m:?}");
    // Every attempt panicked, so each shipped segment walked the whole
    // ladder: `1 + decode_retries` recorded pool attempts, the last
    // two of which were re-dispatches, ending in quarantine (which is
    // what returned the credit).
    let shipped: usize = m.per_gateway_segments.values().sum();
    let attempts = 1 + GaliotConfig::prototype().pool.retries;
    assert_eq!(
        m.per_worker_segments.values().sum::<usize>(),
        attempts * shipped,
        "pool attempts diverge from the retry ladder: {m:?}"
    );
    assert_eq!(
        m.decode_retried,
        (attempts - 1) * shipped,
        "re-dispatch accounting: {m:?}"
    );
    assert_eq!(
        m.decode_quarantined, shipped,
        "every exhausted segment must be quarantined: {m:?}"
    );
    assert_eq!(
        m.quarantine_records.len(),
        shipped,
        "dead-letter records diverge from quarantines: {m:?}"
    );
}

// ------------------------------------------------------------------
// Shared decode leases (DESIGN.md §17): copies of one over-the-air
// span ride on one decode. The cells below hold such leases open (or
// poison them) while a member's session dies, and demand what the
// matrix above demands — nothing heard by a survivor is lost, nothing
// leaks — plus the segment-level identity
// `admitted == leases won + decodes_shared + decode_quarantined`.

/// Leases won by a decode, from the counters: completed pool attempts
/// that were neither poisoned nor fenced as stale.
fn leases_won(m: &Metrics) -> usize {
    m.per_worker_segments.values().sum::<usize>() - m.decode_poisoned - m.decode_stale_results
}

fn assert_segment_identity(m: &Metrics, ctx: &str) {
    let admitted: usize = m.per_gateway_segments.values().sum();
    assert_eq!(
        admitted,
        leases_won(m) + m.decodes_shared + m.decode_quarantined,
        "{ctx}: admitted copies vs won + shared + quarantined: {m:?}"
    );
}

/// A member's session dies while the lease it rides on is still open.
/// Every lease's first attempt hangs for the whole decode deadline, so
/// the copies the doomed session shipped before its crash point are
/// all inside the pool — as a lease's primary with followers attached,
/// or parked behind a sibling, whichever arrival order made them; the
/// first and the last session are crashed in turn so both roles occur
/// — when its gateway dies. The contract does not depend on the role:
/// the dead session loses only its own deliveries, its parked copies
/// keep it off the reaper's list until they are answered, and the
/// survivors still get one decode per span between them.
#[test]
fn shared_leases_outlive_a_member_sessions_crash() {
    let _serial = suite_lock();
    let samples = fleet_capture();
    let batch = batch_reference(&samples, &Registry::prototype());

    for crash_session in [0usize, 2] {
        let ctx = format!("shared-crash session {crash_session}");
        let samples = samples.clone();
        let (frames, trace, m) = run_with_deadline(&ctx, move || {
            let mut config = GaliotConfig::prototype()
                .with_gateways(3)
                .with_cloud_workers(2)
                .with_crash(crash_session, 2, false)
                .with_liveness_horizon(HORIZON)
                .with_decode_deadline(0.5)
                .with_decode_faults(DecodeFaultSpec {
                    kind: DecodeFaultKind::Hang,
                    period: 1,
                    sticky_attempts: 1,
                    seed: 0x5AFE,
                });
            config.edge_decoding = false;
            let session = TraceSession::start();
            let fleet = FleetGaliot::start(config, Registry::prototype());
            let metrics = fleet.metrics().clone();
            feed(&fleet, &samples, 3);
            let frames = fleet.finish();
            (frames, session.finish(), metrics.snapshot())
        });

        let delivered = frame_ids(&frames);
        assert_same_frames(&delivered, &batch, &ctx);
        let starts: Vec<usize> = delivered.iter().map(|(_, _, s)| *s).collect();
        assert!(
            starts.windows(2).all(|w| w[1] + START_TOLERANCE >= w[0]),
            "{ctx}: frames out of capture order: {starts:?}"
        );
        assert_eq!(m.sessions_crashed, 1, "{ctx}: injected crash missed: {m:?}");
        let offered: usize = m.per_gateway_decoded.values().sum();
        assert_eq!(
            offered,
            m.fleet_delivered + m.dedup_suppressed + m.crash_lost_frames + m.quarantined_frames,
            "{ctx}: fleet decode accounting leaks: {m:?}"
        );
        assert_eq!(
            m.decode_quarantined, 0,
            "{ctx}: a healing hang quarantined: {m:?}"
        );
        assert!(m.decodes_shared > 0, "{ctx}: nothing was shared: {m:?}");
        assert_segment_identity(&m, &ctx);
        // One decode per span the fleet heard, each after one hang.
        let spans = *m.per_gateway_segments.values().max().unwrap();
        assert_eq!(leases_won(&m), spans, "{ctx}: {m:?}");
        assert_eq!(m.decode_hung, spans, "{ctx}: {m:?}");
        // Every copy that reached the pool got its own terminal.
        let by_gw = check_gateway_terminals(&trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        for (gw, acc) in &by_gw {
            assert_eq!(
                acc.decoded,
                *m.per_gateway_segments.get(gw).unwrap_or(&0) as u64,
                "{ctx}: gw{gw} trace decodes vs mux admissions: {by_gw:?} {m:?}"
            );
        }
    }
}

/// A decode-fault plan that panics every attempt at gateway 1's and
/// gateway 2's copy of each of a session's first `seqs` segments and
/// never at gateway 3's, found by walking seeds (strikes are a pure
/// hash of `(seed, gateway, seq)`; at period 2 one seed in `4^seqs *
/// 2^seqs` fits).
fn poison_all_but_gateway_3(seqs: u64) -> DecodeFaultSpec {
    (0u64..)
        .map(|seed| DecodeFaultSpec {
            kind: DecodeFaultKind::Panic,
            period: 2,
            sticky_attempts: u32::MAX,
            seed,
        })
        .find(|spec| {
            (0..seqs).all(|seq| {
                spec.strikes(1, seq, 0) && spec.strikes(2, seq, 0) && !spec.strikes(3, seq, 0)
            })
        })
        .expect("the seed walk is unbounded")
}

/// Two of every span's three copies are poison. Whenever one of them
/// opens the lease it is walked down the ladder and dead-lettered with
/// its gap notice, and the next parked copy is promoted with a fresh
/// ladder — so diversity pays exactly here: gateway 3's clean copy
/// always gets (or already gave) a decode, and not one frame is lost.
#[test]
fn a_poisoned_primary_costs_its_siblings_nothing() {
    let _serial = suite_lock();
    let samples = fleet_capture();
    let batch = batch_reference(&samples, &Registry::prototype());
    const SEQS: u64 = 8;
    let faults = poison_all_but_gateway_3(SEQS);

    let ctx = "poisoned-primary";
    let (frames, trace, m) = run_with_deadline(ctx, move || {
        let mut config = GaliotConfig::prototype()
            .with_gateways(3)
            .with_cloud_workers(2)
            .with_decode_faults(faults);
        config.edge_decoding = false;
        let session = TraceSession::start();
        let fleet = FleetGaliot::start(config, Registry::prototype());
        let metrics = fleet.metrics().clone();
        for c in samples.chunks(65_536) {
            fleet.push_chunk(c.to_vec());
        }
        let frames = fleet.finish();
        (frames, session.finish(), metrics.snapshot())
    });

    for (gw, n) in &m.per_gateway_segments {
        assert!(
            *n as u64 <= SEQS,
            "gw{gw} shipped {n} segments, past the {SEQS} the fault plan covers: {m:?}"
        );
    }
    assert_same_frames(&frame_ids(&frames), &batch, ctx);
    let offered: usize = m.per_gateway_decoded.values().sum();
    assert_eq!(
        offered,
        m.fleet_delivered + m.dedup_suppressed + m.crash_lost_frames + m.quarantined_frames,
        "{ctx}: fleet decode accounting leaks: {m:?}"
    );
    assert_segment_identity(&m, ctx);
    // Only poisoned copies were ever quarantined, each after the full
    // ladder, each with its record and its trace terminal.
    let attempts = 1 + GaliotConfig::prototype().pool.retries;
    assert_eq!(
        m.decode_poisoned,
        attempts * m.decode_quarantined,
        "{ctx}: {m:?}"
    );
    assert_eq!(
        m.quarantine_records.len(),
        m.decode_quarantined,
        "{ctx}: {m:?}"
    );
    for r in &m.quarantine_records {
        assert!(
            r.gateway == 1 || r.gateway == 2,
            "{ctx}: clean copy quarantined: {r:?}"
        );
        assert_eq!(r.attempts.len(), attempts, "{ctx}: {r:?}");
    }
    let by_gw = check_gateway_terminals(&trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let quarantined: u64 = by_gw.values().map(|a| a.quarantined).sum();
    assert_eq!(quarantined, m.decode_quarantined as u64, "{ctx}: {by_gw:?}");
    // Gateway 3's copy of every span was decoded or answered, never
    // dead-lettered; the other two sessions' copies each met one fate.
    assert_eq!(by_gw[&3].quarantined, 0, "{ctx}: {by_gw:?}");
    for (gw, acc) in &by_gw {
        assert_eq!(
            acc.decoded + acc.quarantined,
            *m.per_gateway_segments.get(gw).unwrap_or(&0) as u64,
            "{ctx}: gw{gw} fates vs mux admissions: {by_gw:?} {m:?}"
        );
    }
}

/// The credit regression above, for copies that never get a decode of
/// their own: with a healthy registry every span is decoded once and
/// the sibling copy — parked on the live lease or answered from memory
/// — must hand its fairness credit back when its shared result is
/// queued. Each session ships more than its quota, so a credit leaked
/// per shared delivery would wedge the mux and trip the deadline.
#[test]
fn shared_deliveries_do_not_leak_fairness_credits() {
    let _serial = suite_lock();
    let mut rng = StdRng::seed_from_u64(scenario_seed(63));
    let registry = Registry::prototype();
    let xbee = registry.get(TechId::XBee).unwrap().clone();
    let events: Vec<TxEvent> = (0..12)
        .map(|i| {
            TxEvent::new(
                xbee.clone(),
                vec![i as u8; 5],
                60_000 + i as usize * 300_000,
            )
        })
        .collect();
    let np = snr_to_noise_power(18.0, 0.0);
    let samples = compose(&events, 3_600_000, FS, np, &mut rng).samples;

    let (frames, m) = run_with_deadline("shared-credits", move || {
        let mut config = GaliotConfig::prototype()
            .with_gateways(2)
            .with_cloud_workers(2);
        config.edge_decoding = false;
        let fleet = FleetGaliot::start(config, registry);
        let metrics = fleet.metrics().clone();
        for c in samples.chunks(65_536) {
            fleet.push_chunk(c.to_vec());
        }
        (fleet.finish(), metrics.snapshot())
    });

    assert_eq!(frames.len(), 12, "a healthy fleet lost frames: {m:?}");
    for (gw, n) in &m.per_gateway_segments {
        assert!(
            *n > 8,
            "gw{gw} shipped only {n} segments — scenario no longer \
             exceeds the fairness quota: {m:?}"
        );
    }
    assert!(
        m.decodes_shared > 8,
        "fewer shared deliveries than the quota: {m:?}"
    );
    assert_segment_identity(&m, "shared-credits");
}

/// Satellite: the same failover cell under the virtual ARQ clock — a
/// crash during retransmission with zero wall-clock jitter in the
/// timeout schedule still converges and conforms.
#[test]
fn virtual_clock_failover_cell_conforms() {
    let _serial = suite_lock();
    let samples = fleet_capture();
    let registry = Registry::prototype();
    let batch = batch_reference(&samples, &registry);
    let cell = Cell {
        gateways: 4,
        crash_after: 2,
        restart: true,
        loss: 0.01,
        expect_unstall: false,
        label: "virtual-clock-restart",
    };
    let out = run_with_deadline(cell.label, {
        let samples = samples.clone();
        move || {
            let mut t = repairable_transport(cell.loss, fault_seed());
            t.arq.clock = ArqClock::deterministic();
            let mut config = GaliotConfig::prototype()
                .with_gateways(cell.gateways)
                .with_cloud_workers(4)
                .with_crash(0, cell.crash_after, cell.restart)
                .with_liveness_horizon(HORIZON)
                .with_transport(t);
            config.edge_decoding = false;
            let session = TraceSession::start();
            let fleet = FleetGaliot::start(config, Registry::prototype());
            let metrics = fleet.metrics().clone();
            feed(&fleet, &samples, cell.gateways);
            let sessions = fleet.sessions();
            let frames = fleet.finish();
            let trace = session.finish();
            CellOutcome {
                frames,
                pre_finish: 0,
                sessions,
                trace,
                metrics: metrics.snapshot(),
            }
        }
    });
    assert_failover_cell(&out, cell, &batch);
}
