//! The cloud half of the live pipeline — the supervised decode pool
//! and what travels to and from it — plus [`StreamingGaliot`], the
//! one-gateway front door. The gateway half, the flush loop and its
//! shipping policy, is `crate::gateway_loop`.
//!
//! There is one live engine, [`crate::fleet`]: it spawns the threads,
//! wires each session's transport, restores order and tears down.
//! `StreamingGaliot` is that engine started with a single session; the
//! topology diagram and the rules that follow from "one session" live
//! in the fleet module docs. This module and the gateway loop hold
//! what every session runs regardless of how many there are.
//!
//! Per the project's networking guides, this CPU-bound signal path uses
//! plain threads and channels rather than an async runtime: each stage
//! is pure computation, and backpressure comes from the bounded
//! channels.
//!
//! The paper's bet is that "cloud computational resources are elastic":
//! the gateway stays dumb and cheap while the cloud absorbs the
//! expensive kill-filter/SIC work. That only pays off if the cloud tier
//! actually scales, so each worker owns a private [`CloudDecoder`] and
//! segments fan out across the pool. Decode order inside the pool is
//! nondeterministic; the merge restores gateway emission order via
//! per-segment sequence numbers before anything reaches the output
//! channel, so the observable frame stream is identical for any worker
//! count (the conformance tests pin this).
//!
//! # The supervised pool
//!
//! Workers are not trusted to come back: every dispatched segment
//! holds a *lease* whose deadline is [`PoolConfig::deadline_s`].
//! The supervisor (DESIGN.md §17) detects a hung worker when its lease
//! expires, abandons and replaces the thread (same `wid` lineage,
//! bumped incarnation in the thread name), and re-dispatches the
//! segment to a healthy worker; panicked decodes are re-dispatched
//! too. After [`PoolConfig::retries`] re-dispatches fail, the segment is
//! quarantined to a dead-letter [`QuarantineRecord`] and an empty
//! result carrying its watermark is synthesized, so in-order delivery
//! (and the liveness reaper) never stalls behind a poison segment.
//!
//! In a fleet the lease is also the unit of *sharing*: copies of one
//! over-the-air span shipped by different gateways ride on one lease
//! (or are answered from a short memory of resolved ones) and each is
//! delivered the one decode's frames under its own `(gateway, seq)`;
//! a decode that recovers nothing, or is quarantined, promotes the
//! next copy to a lease of its own.
//!
//! # Parity with the batch pipeline
//!
//! The gateway half is the function [`crate::pipeline::Galiot`] runs
//! (`crate::stage`), flushed once per fixed step of the capture:
//! digitize → universal-preamble detection →
//! extraction → edge-first decode, then block-floating-point
//! compression of what ships. Workers decompress before decoding, so
//! the cloud sees bit-identical samples to the batch backhaul path.
//! A segment is emitted once no later detection can merge into it
//! ("settled"), which keeps streaming segmentation equal to batch
//! segmentation for captures whose collision clusters fit the gateway's
//! analog ring.

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use galiot_channel::{DecodeFaultKind, DecodeFaultSpec};
use galiot_cloud::{shard_for, CloudDecoder, DecodeBuffers, Recovery};
use galiot_dsp::Cf32;
use galiot_gateway::{GatewayId, ShippedSegment};
use galiot_phy::registry::Registry;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use crate::config::{positive, waitable, ConfigError, GaliotConfig};
use crate::fleet::{FleetConfig, FleetGaliot};
use crate::metrics::{QuarantineRecord, SharedMetrics};
use crate::pipeline::PipelineFrame;
use crate::spawn::{spawn_thread, SpawnError};
use std::sync::Arc;

/// The supervised decode pool's knobs ([`GaliotConfig::pool`]). The
/// pool is built from these plus the capture rate and the cloud
/// decoder, never from the whole configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PoolConfig {
    /// Number of parallel cloud decode workers. `0` means "one per
    /// available CPU core"; `1` reproduces the historical
    /// single-threaded cloud tier.
    pub workers: usize,
    /// Per-segment decode lease deadline, seconds: a worker that has
    /// held one segment longer than this is declared hung by the pool
    /// supervisor, replaced, and the segment is re-dispatched. Must be
    /// positive; generous by default so healthy decodes never trip it.
    pub deadline_s: f64,
    /// How many times the pool supervisor re-dispatches a failed
    /// (panicked or hung) decode before quarantining the segment to the
    /// dead-letter record. `0` quarantines on the first failure.
    pub retries: usize,
    /// Deterministic decode-fault injection (panic/hang/slow) for
    /// supervisor testing. Disabled (`period == 0`) in production
    /// configurations; see [`galiot_channel::DecodeFaultSpec`].
    pub faults: DecodeFaultSpec,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 0,
            deadline_s: 5.0,
            retries: 2,
            faults: DecodeFaultSpec::disabled(),
        }
    }
}

impl PoolConfig {
    /// The worker count the pool will actually spawn: `workers`, with
    /// `0` resolved to the machine's available parallelism.
    pub fn effective_workers(&self) -> usize {
        match self.workers {
            0 => thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// Rejects a lease deadline that is not positive or is too long to
    /// wait for, and an enabled fault spec that would strike nothing.
    pub fn validate(&self) -> Result<(), ConfigError> {
        positive("pool.deadline_s", self.deadline_s)?;
        waitable("pool.deadline_s", self.deadline_s, self.deadline_s)?;
        if self.faults.enabled() && self.faults.sticky_attempts == 0 {
            return Err(ConfigError::DecodeFaultsWithoutAttempts);
        }
        Ok(())
    }
}

/// Start-offset slack when deduplicating copies of one over-the-air
/// frame: re-decodes from a session's overlapping segment emissions
/// and the same frame heard by several gateways.
pub(crate) const DEDUP_SLACK: usize = 4_096;

/// Resolved shared decodes the pool supervisor remembers (span →
/// frames, power) to answer a copy that reaches the pool after its
/// sibling's decode finished — the fleet's common case, since a decode
/// takes tens of milliseconds and ARQ links skew arrivals by more.
/// Like the merge's release memory it is a fixed FIFO: a copy later
/// than this many other spans is simply decoded itself.
const SHARED_MEMORY: usize = 64;

/// Quarantined leases the supervisor remembers (FIFO) so that a spent
/// attempt's late success can still be booked to the quarantine. Only
/// a lease with a spent attempt can receive a late report at all, only
/// a quarantined one needs it attributed, and the attempt in question
/// is a hung worker about to wake or be abandoned — a short memory
/// suffices, and a report later than it is merely counted stale.
const FENCE_MEMORY: usize = 256;

/// One segment's decode outcome travelling to the merge.
pub(crate) struct SegmentResult {
    /// Emitting session's wire id.
    pub(crate) gateway: GatewayId,
    pub(crate) seq: u64,
    pub(crate) frames: Vec<PipelineFrame>,
    /// Capture start of the segment in absolute samples — the session
    /// watermark the fleet merge advances on. `None` means unknown
    /// (e.g. a lost-segment gap notice), which holds release back;
    /// `Some(0)` is genuine progress from a segment starting at
    /// capture sample 0 — the two must not share a sentinel.
    pub(crate) watermark: Option<u64>,
    /// Mean received power of the segment's samples — the fleet
    /// merge's best-copy criterion. 0.0 when no samples were decoded.
    pub(crate) power: f32,
}

/// What flows over the result channel: decode outcomes, plus fleet
/// control messages that must be ordered against them (crossbeam
/// channels are FIFO per sender, and the session supervisor emits the
/// control message before any of the new instance's traffic).
pub(crate) enum ResultMsg {
    /// One segment's decode outcome.
    Segment(SegmentResult),
    /// A crashed fleet session restarted under a bumped epoch; its
    /// new instance numbers segments from `seq_base`.
    SessionRestarted { gateway: GatewayId, seq_base: u64 },
}

impl ResultMsg {
    /// An empty result that only moves the session's sequence window
    /// past a segment nothing was decoded from (lost, shed or
    /// quarantined). `watermark` is the segment's capture start where
    /// known.
    pub(crate) fn gap(gateway: GatewayId, seq: u64, watermark: Option<u64>) -> Self {
        ResultMsg::Segment(SegmentResult {
            gateway,
            seq,
            frames: Vec::new(),
            watermark,
            power: 0.0,
        })
    }
}

/// A segment in flight between ingest and a decode worker, carrying
/// the [`FairnessGate`](galiot_cloud::FairnessGate) credit its session
/// holds for it. The credit travels *with* the segment so
/// that whoever drops the segment — the worker after decode, a
/// panicked worker's unwind, or a torn-down queue — returns the credit
/// via the guard's `Drop`, closing every leak path.
pub(crate) struct PoolItem {
    /// Shared, not copied, with every decode attempt dispatched for it.
    pub(crate) seg: Arc<ShippedSegment>,
    pub(crate) credit: Option<galiot_cloud::CreditGuard>,
}

impl From<ShippedSegment> for PoolItem {
    fn from(seg: ShippedSegment) -> Self {
        PoolItem {
            seg: Arc::new(seg),
            credit: None,
        }
    }
}

/// A running one-gateway GalioT pipeline: the fleet engine
/// ([`FleetGaliot`]) started with a single session whose wire id is
/// `GatewayId(0)`. It ignores `config.fleet`, which describes a fleet.
///
/// Feed raw capture chunks with [`StreamingGaliot::push_chunk`], close
/// the intake with [`StreamingGaliot::finish`], and collect decoded
/// frames from the output receiver.
pub struct StreamingGaliot(FleetGaliot);

impl StreamingGaliot {
    /// Starts the engine with one session.
    ///
    /// # Panics
    /// Panics if `config` fails [`GaliotConfig::validate`] — a
    /// silently-degenerate configuration must fail at construction,
    /// not hang a live pipeline.
    pub fn start(config: GaliotConfig, registry: Registry) -> Self {
        let sole = FleetConfig::default();
        let engine = FleetGaliot::start_sessions(config, registry, &[GatewayId(0)], &sole);
        StreamingGaliot(engine)
    }

    /// Feeds one capture chunk; blocks if the pipeline is saturated.
    pub fn push_chunk(&self, chunk: Vec<Cf32>) {
        self.0.push_chunk(chunk)
    }

    /// The decoded-frame output channel. Frames arrive in gateway
    /// emission (capture) order regardless of the worker count.
    pub fn frames(&self) -> &Receiver<PipelineFrame> {
        self.0.frames()
    }

    /// Shared metrics handle.
    pub fn metrics(&self) -> &SharedMetrics {
        self.0.metrics()
    }

    /// Closes the intake, waits for the whole pipeline, and returns all
    /// remaining decoded frames (in capture order).
    pub fn finish(self) -> Vec<PipelineFrame> {
        self.0.finish()
    }
}

// ---------------------------------------------------------------------
// The supervised decode pool (DESIGN.md §17)
// ---------------------------------------------------------------------

/// Attempt-history names recorded in lease histories and dead-letter
/// records.
const FAIL_PANIC: &str = "panic";
const FAIL_HUNG: &str = "hung";

/// One dispatch of a segment lease to a worker incarnation.
struct Attempt {
    lease: u64,
    attempt: u32,
    seg: Arc<ShippedSegment>,
}

/// What a completed decode attempt produced.
enum Outcome {
    Decoded {
        frames: Vec<PipelineFrame>,
        power: f32,
        rounds: u64,
        kills: u64,
    },
    Panicked,
}

/// A worker's report for one *completed* attempt. A hung attempt never
/// reports — the supervisor's lease deadline is the only recovery.
struct Done {
    wid: usize,
    incarnation: u64,
    lease: u64,
    attempt: u32,
    outcome: Outcome,
    busy_ns: u64,
}

/// Supervisor-side state for one worker slot: a `wid` lineage whose
/// thread is replaced (incarnation bumped) when it wedges.
struct WorkerSlot {
    incarnation: u64,
    tx: Sender<Attempt>,
    /// Set when the supervisor abandons this incarnation; an injected
    /// hang polls it so abandoned fault threads exit instead of
    /// leaking.
    abandoned: Arc<AtomicBool>,
    /// Lease currently dispatched to this incarnation, with its decode
    /// deadline.
    busy: Option<(u64, Instant)>,
    handle: Option<thread::JoinHandle<()>>,
}

/// An in-flight segment lease: the primary segment (kept for
/// re-dispatch) with its fairness credit, the retry ladder's position,
/// and the other gateways' copies of the same capture span riding on
/// this decode.
struct Lease {
    primary: PoolItem,
    /// 0-based attempt currently dispatched (or queued for dispatch).
    attempt: u32,
    /// Failure names of every spent attempt, oldest first.
    history: Vec<&'static str>,
    /// Parked copies, each still holding its own `(gateway, seq)` and
    /// credit (so its session is not silent to the liveness reaper),
    /// in arrival order: the promotion order if the primary fails.
    followers: VecDeque<PoolItem>,
}

/// A shared decode's outcome, remembered for late copies of its span.
struct SharedResult {
    gateway: GatewayId,
    start: usize,
    len: usize,
    frames: Vec<PipelineFrame>,
    power: f32,
}

/// Whether `seg` is another gateway's copy of the capture span
/// `[start, start + len)` (both ends within [`DEDUP_SLACK`]).
fn same_span(seg: &ShippedSegment, gateway: GatewayId, start: usize, len: usize) -> bool {
    seg.gateway != gateway
        && seg.start.abs_diff(start) <= DEDUP_SLACK
        && (seg.start + seg.compressed.len).abs_diff(start + len) <= DEDUP_SLACK
}

/// The decode-pool supervisor: owns the worker slots, the lease table,
/// and the retry/quarantine ladder. Runs on its own thread.
///
/// The supervisor owns dispatch: workers get private rendezvous
/// channels and only ever hold one attempt, so every in-flight decode
/// has a lease with a deadline (`pool.deadline_s`). On lease
/// expiry the holding worker is declared hung, abandoned, and replaced
/// (same `wid`, bumped incarnation in the thread name); the segment is
/// re-dispatched — as are panicked decodes — up to
/// `pool.retries` times before it is quarantined to a
/// dead-letter record and replaced by an empty result carrying its
/// watermark, so capture-order delivery never stalls.
///
/// `n_shards == 0` means a sole session: no shard affinity (any idle
/// worker takes the next segment) and no sibling lookup. With shards —
/// a fleet — first attempts keep the deterministic `(gateway, seq) →
/// shard → worker` mapping and only retries roam, and a segment whose
/// capture span another gateway's live lease already covers joins that
/// lease instead of being decoded again (DESIGN.md §17, "Shared
/// leases").
pub(crate) struct Supervisor {
    pool: PoolConfig,
    fs: f64,
    /// Cloned into every worker incarnation.
    decoder: CloudDecoder,
    n_shards: usize,
    n_workers: usize,
    intake_cap: usize,
    result_tx: Sender<ResultMsg>,
    metrics: SharedMetrics,
    /// Kept so `done_rx` never disconnects while slots churn.
    done_tx: Sender<Done>,
    done_rx: Receiver<Done>,
    /// Indexed by `wid`; `None` once a slot's replacement failed for
    /// good (the pool then runs degraded).
    slots: Vec<Option<WorkerSlot>>,
    /// Leases awaiting (re-)dispatch to any idle worker.
    runq: VecDeque<u64>,
    /// Shard-affine first attempts awaiting their preferred worker.
    prefq: Vec<VecDeque<u64>>,
    leases: HashMap<u64, Lease>,
    /// Quarantined leases `(id, gateway)`, newest last, at most
    /// [`FENCE_MEMORY`].
    quarantined: VecDeque<(u64, u16)>,
    /// Newest last, at most [`SHARED_MEMORY`].
    shared: VecDeque<SharedResult>,
    next_lease: u64,
}

impl Supervisor {
    /// A supervisor of `pool.effective_workers()` workers decoding
    /// captures at `fs` with `decoder`, with no worker slots yet
    /// ([`Supervisor::run`] spawns them). Results, including
    /// synthesized quarantine gap notices, go to `result_tx`.
    pub(crate) fn new(
        pool: PoolConfig,
        fs: f64,
        decoder: CloudDecoder,
        intake_cap: usize,
        n_shards: usize,
        result_tx: Sender<ResultMsg>,
        metrics: SharedMetrics,
    ) -> Self {
        let (done_tx, done_rx) = unbounded::<Done>();
        let n_workers = pool.effective_workers();
        Supervisor {
            pool,
            fs,
            decoder,
            n_shards,
            n_workers,
            intake_cap: intake_cap.max(1),
            result_tx,
            metrics,
            done_tx,
            done_rx,
            slots: Vec::with_capacity(n_workers),
            runq: VecDeque::new(),
            prefq: (0..n_workers).map(|_| VecDeque::new()).collect(),
            leases: HashMap::new(),
            quarantined: VecDeque::new(),
            shared: VecDeque::new(),
            next_lease: 0,
        }
    }

    /// Starts the supervisor thread, which spawns the workers. Ship
    /// [`PoolItem`]s into the returned intake; dropping every intake
    /// sender drains and stops the pool.
    pub(crate) fn spawn(self) -> (Sender<PoolItem>, thread::JoinHandle<()>) {
        let (intake_tx, intake_rx) = bounded::<PoolItem>(self.intake_cap);
        let supervisor = spawn_thread("galiot-pool-supervisor", move || self.run(intake_rx))
            .unwrap_or_else(|e| panic!("decode pool startup: {e}"));
        (intake_tx, supervisor)
    }

    fn run(mut self, intake_rx: Receiver<PoolItem>) {
        for wid in 0..self.n_workers {
            match self.spawn_slot(wid, 0) {
                Ok(slot) => self.slots.push(Some(slot)),
                // A machine that cannot spawn one worker cannot run.
                Err(e) => panic!("decode pool startup: {e}"),
            }
        }
        let mut intake_open = true;
        loop {
            self.dispatch();
            if !intake_open && self.leases.is_empty() && self.queued() == 0 {
                break;
            }
            // One blocking wait per iteration, on whichever channel is
            // actionable. With an idle worker and queue room the next
            // useful event is an intake arrival; otherwise only worker
            // completions (or a lease deadline) can make progress.
            let accepting = intake_open && self.queued() < self.intake_cap;
            let idle_any = self.slots.iter().flatten().any(|s| s.busy.is_none());
            let busy_any = self.slots.iter().flatten().any(|s| s.busy.is_some());
            let timeout = self.next_timeout();
            if accepting && idle_any {
                // While decodes are also in flight, tick fast so their
                // completions (drained below) free workers promptly.
                let wait = if busy_any {
                    timeout.min(Duration::from_millis(25))
                } else {
                    timeout
                };
                match intake_rx.recv_timeout(wait) {
                    Ok(item) => self.admit(item),
                    Err(RecvTimeoutError::Disconnected) => intake_open = false,
                    Err(RecvTimeoutError::Timeout) => {}
                }
            } else {
                // Timeout and (unreachable — the supervisor holds a
                // done sender) disconnect both just fall through to
                // the deadline check.
                if let Ok(done) = self.done_rx.recv_timeout(timeout) {
                    self.on_done(done);
                }
            }
            // Drain completions before judging deadlines, so an
            // attempt that finished inside its lease is never declared
            // hung however late the supervisor wakes.
            while let Ok(done) = self.done_rx.try_recv() {
                self.on_done(done);
            }
            self.check_deadlines();
        }
        // Retire the current incarnations: dropping the attempt
        // senders ends their recv loops; all are idle here.
        for slot in std::mem::take(&mut self.slots).into_iter().flatten() {
            drop(slot.tx);
            if let Some(h) = slot.handle {
                let _ = h.join();
            }
        }
    }

    /// Segments queued but not yet dispatched — the admission gate
    /// mirrors the bounded worker channel the pool replaced.
    fn queued(&self) -> usize {
        self.runq.len() + self.prefq.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Sleep until the earliest in-flight lease deadline (min 1 ms so
    /// an already-late deadline still yields to channel traffic), or a
    /// coarse idle tick.
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        self.slots
            .iter()
            .flatten()
            .filter_map(|s| s.busy.map(|(_, d)| d))
            .min()
            .map(|d| {
                d.saturating_duration_since(now)
                    .max(Duration::from_millis(1))
            })
            .unwrap_or(Duration::from_millis(200))
    }

    /// Whether sibling copies can exist: the engine routes by shard
    /// exactly when it runs more than one session.
    fn is_fleet(&self) -> bool {
        self.n_shards > 0
    }

    /// Admits one segment. In a fleet, a copy of a capture span that
    /// another gateway's live lease covers — queued, in flight or on
    /// its retry ladder — parks on that lease as a follower, and a copy
    /// of a span decoded recently is answered from memory; everything
    /// else (always, for a sole session) opens a lease at once.
    fn admit(&mut self, item: PoolItem) {
        if self.is_fleet() {
            let seg = &item.seg;
            let live = self
                .leases
                .iter()
                .filter(|(_, l)| {
                    let p = &l.primary.seg;
                    same_span(seg, p.gateway, p.start, p.compressed.len)
                })
                .map(|(&id, _)| id)
                .min();
            if let Some(id) = live {
                let lease = self.leases.get_mut(&id).expect("matched lease is live");
                lease.followers.push_back(item);
                return;
            }
            let remembered = self
                .shared
                .iter()
                .rev()
                .find(|r| same_span(seg, r.gateway, r.start, r.len))
                .map(|r| (r.frames.clone(), r.power));
            if let Some((frames, power)) = remembered {
                self.metrics.with(|m| m.decodes_shared += 1);
                self.deliver(item, frames, power);
                return;
            }
        }
        self.open_lease(item, VecDeque::new());
    }

    /// Opens a lease with a fresh attempt ladder and queues its first
    /// attempt (shard-affine when the pool routes by shard).
    fn open_lease(&mut self, primary: PoolItem, followers: VecDeque<PoolItem>) {
        let id = self.next_lease;
        self.next_lease += 1;
        let seg = &primary.seg;
        let pref = (self.n_shards > 0)
            .then(|| shard_for(seg.gateway, seg.seq, self.n_shards) % self.n_workers)
            .filter(|&w| self.slots[w].is_some());
        self.leases.insert(
            id,
            Lease {
                primary,
                attempt: 0,
                history: Vec::new(),
                followers,
            },
        );
        match pref {
            Some(w) => self.prefq[w].push_back(id),
            None => self.runq.push_back(id),
        }
    }

    /// Resolves a lease whose decode yielded nothing to share (no
    /// frame, or quarantine): the first parked copy becomes the primary
    /// of a new lease and the rest stay attached to it, so a poisoned
    /// or empty copy costs its siblings nothing but the wait.
    fn promote(&mut self, mut followers: VecDeque<PoolItem>) {
        if let Some(next) = followers.pop_front() {
            self.open_lease(next, followers);
        }
    }

    /// Hands queued leases to idle workers: each slot serves its
    /// affinity queue first, then the global (retry) queue.
    fn dispatch(&mut self) {
        for wid in 0..self.slots.len() {
            let idle = matches!(&self.slots[wid], Some(s) if s.busy.is_none());
            if !idle {
                continue;
            }
            let Some(id) = self.prefq[wid]
                .pop_front()
                .or_else(|| self.runq.pop_front())
            else {
                continue;
            };
            self.dispatch_to(wid, id);
        }
    }

    fn dispatch_to(&mut self, wid: usize, id: u64) {
        let (attempt_no, seg) = {
            let lease = self.leases.get(&id).expect("queued lease exists");
            (lease.attempt, lease.primary.seg.clone())
        };
        let sent = self.slots[wid]
            .as_ref()
            .expect("dispatch to a live slot")
            .tx
            .send(Attempt {
                lease: id,
                attempt: attempt_no,
                seg,
            })
            .is_ok();
        if !sent {
            // The worker died outside a decode (its channel closed
            // without a Done) — requeue and replace the incarnation.
            self.runq.push_front(id);
            self.replace_worker(wid);
            return;
        }
        let deadline = Instant::now() + Duration::from_secs_f64(self.pool.deadline_s);
        self.slots[wid].as_mut().expect("slot just used").busy = Some((id, deadline));
    }

    /// Declares workers whose lease deadline has passed hung: abandon
    /// and replace the thread, then walk the lease down the retry
    /// ladder (unless a stale attempt already resolved it).
    fn check_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<(usize, u64)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(wid, s)| {
                let (id, deadline) = s.as_ref()?.busy?;
                (deadline <= now).then_some((wid, id))
            })
            .collect();
        for (wid, id) in expired {
            self.metrics.with(|m| m.decode_hung += 1);
            self.replace_worker(wid);
            if self.leases.contains_key(&id) {
                self.fail_attempt(id, FAIL_HUNG);
            }
            // else: a stale attempt of an already-resolved lease hung;
            // replacing the worker is the whole remedy.
        }
    }

    /// Abandons a slot's current incarnation and spawns its successor.
    /// The wedged thread is parked detached — the abandoned flag tells
    /// an *injected* hang to exit; a genuinely wedged decode can never
    /// be joined anyway.
    fn replace_worker(&mut self, wid: usize) {
        let Some(old) = self.slots[wid].take() else {
            return;
        };
        old.abandoned.store(true, Ordering::Release);
        drop(old.tx);
        drop(old.handle);
        match self.spawn_slot(wid, old.incarnation + 1) {
            Ok(slot) => {
                self.slots[wid] = Some(slot);
                self.metrics.with(|m| m.workers_replaced += 1);
            }
            Err(e) => {
                // Degraded but alive: the lineage ends, its affinity
                // queue drains to the survivors.
                let orphans = std::mem::take(&mut self.prefq[wid]);
                self.runq.extend(orphans);
                if self.slots.iter().all(Option::is_none) {
                    panic!("decode pool lost every worker: {e}");
                }
            }
        }
    }

    fn spawn_slot(&self, wid: usize, incarnation: u64) -> Result<WorkerSlot, SpawnError> {
        // Rendezvous-sized: the supervisor only dispatches to idle
        // incarnations, so this send never blocks and a worker never
        // buffers a second segment it could wedge on.
        let (tx, rx) = bounded::<Attempt>(1);
        let abandoned = Arc::new(AtomicBool::new(false));
        let flag = abandoned.clone();
        let done_tx = self.done_tx.clone();
        let (decoder, pool, fs) = (self.decoder.clone(), self.pool, self.fs);
        let handle = spawn_thread(&format!("galiot-cloud-{wid}.{incarnation}"), move || {
            run_pool_worker(wid, incarnation, decoder, fs, pool, rx, done_tx, flag)
        })?;
        Ok(WorkerSlot {
            incarnation,
            tx,
            abandoned,
            busy: None,
            handle: Some(handle),
        })
    }

    fn on_done(&mut self, done: Done) {
        // Per-attempt accounting first: every completed attempt is one
        // pool segment whatever its fate, so the WorkerDecode span
        // histogram, per_worker_segments, and the SIC/kill counters
        // reconcile even for stale and poisoned attempts.
        let (rounds, kills) = match &done.outcome {
            Outcome::Decoded { rounds, kills, .. } => (*rounds, *kills),
            Outcome::Panicked => (0, 0),
        };
        self.metrics.with(|m| {
            *m.per_worker_segments.entry(done.wid).or_default() += 1;
            m.cloud_busy_ns += done.busy_ns;
            m.sic_rounds += rounds;
            m.kill_applications += kills;
        });
        // Free the slot — only if the report is from its current
        // incarnation (a replaced worker's late Done must not clear
        // its successor's lease).
        if let Some(slot) = self.slots[done.wid].as_mut() {
            if slot.incarnation == done.incarnation
                && slot.busy.map(|(id, _)| id) == Some(done.lease)
            {
                slot.busy = None;
            }
        }
        match done.outcome {
            Outcome::Panicked => {
                self.metrics.with(|m| m.decode_poisoned += 1);
                // Only the current attempt of a live lease drives the
                // ladder; a stale panic is already accounted against
                // the attempt that superseded it.
                let current = self
                    .leases
                    .get(&done.lease)
                    .is_some_and(|l| l.attempt == done.attempt);
                if current {
                    self.fail_attempt(done.lease, FAIL_PANIC);
                }
            }
            Outcome::Decoded { frames, power, .. } => {
                if self.leases.contains_key(&done.lease) {
                    // First success wins, whatever its attempt number
                    // (a slow attempt may beat its own replacement).
                    self.win(done.lease, done.wid, frames, power);
                } else {
                    self.stale_success(done.lease, frames.len());
                }
            }
        }
    }

    /// Hands one segment its decode outcome: the `Decode` trace
    /// terminal and a result under its own `(gateway, seq)` and
    /// watermark, and only then its fairness credit back (the liveness
    /// reaper exempts credit-holding sessions, so the credit must cover
    /// the segment until its result is queued at the merge).
    fn deliver(&self, member: PoolItem, frames: Vec<PipelineFrame>, power: f32) {
        let PoolItem { seg, credit } = member;
        galiot_trace::event(
            galiot_trace::EventKind::Decode,
            galiot_trace::tag_seq(seg.gateway.0, seg.seq),
        );
        let _ = self.result_tx.send(ResultMsg::Segment(SegmentResult {
            gateway: seg.gateway,
            seq: seg.seq,
            frames,
            watermark: Some(seg.start as u64),
            power,
        }));
        drop(credit);
    }

    /// Terminal success. A decode that recovered at least one frame is
    /// every member's result — each delivered through its own lane, so
    /// the merge still sees one offer per copy — and is remembered for
    /// copies yet to arrive. (Not "a clean exit": every cluster decode
    /// ends on unresolved residual candidates, so recovered frames are
    /// the only success test there is.) An empty decode is the
    /// primary's alone: the next copy is decoded in its own right.
    fn win(&mut self, id: u64, wid: usize, frames: Vec<PipelineFrame>, power: f32) {
        let Lease {
            primary, followers, ..
        } = self.leases.remove(&id).expect("winning lease exists");
        // A slow attempt can win after it was declared hung, while its
        // retry is still queued: every queued id must name a live lease.
        self.runq.retain(|&queued| queued != id);
        self.metrics
            .with(|m| *m.per_worker_decoded.entry(wid).or_default() += frames.len());
        if frames.is_empty() {
            self.deliver(primary, frames, power);
            self.promote(followers);
            return;
        }
        if self.is_fleet() {
            if self.shared.len() == SHARED_MEMORY {
                self.shared.pop_front();
            }
            let seg = &primary.seg;
            self.shared.push_back(SharedResult {
                gateway: seg.gateway,
                start: seg.start,
                len: seg.compressed.len,
                frames: frames.clone(),
                power,
            });
        }
        self.metrics.with(|m| m.decodes_shared += followers.len());
        for follower in followers {
            self.deliver(follower, frames.clone(), power);
        }
        self.deliver(primary, frames, power);
    }

    /// One attempt failed (panic or hang): re-dispatch while the
    /// ladder has rungs, else quarantine.
    fn fail_attempt(&mut self, id: u64, how: &'static str) {
        let exhausted = {
            let lease = self.leases.get_mut(&id).expect("failing a live lease");
            lease.history.push(how);
            lease.attempt += 1;
            lease.attempt as usize > self.pool.retries
        };
        if exhausted {
            self.quarantine(id);
            return;
        }
        let lease = &self.leases[&id];
        galiot_trace::event(
            galiot_trace::EventKind::Retried,
            galiot_trace::tag_seq(lease.primary.seg.gateway.0, lease.primary.seg.seq),
        );
        self.metrics.with(|m| m.decode_retried += 1);
        // Retries go to whoever frees up first — the preferred worker
        // may be the very one that wedged on it.
        self.runq.push_back(id);
    }

    /// Dead-letters a lease's primary after its last attempt failed and
    /// synthesizes the empty result that keeps capture-order delivery
    /// (and the fleet liveness reaper) moving past it; parked copies
    /// get a decode of their own.
    fn quarantine(&mut self, id: u64) {
        let Lease {
            primary: PoolItem { seg, credit },
            history,
            followers,
            ..
        } = self.leases.remove(&id).expect("quarantining a live lease");
        if self.quarantined.len() == FENCE_MEMORY {
            self.quarantined.pop_front();
        }
        self.quarantined.push_back((id, seg.gateway.0));
        galiot_trace::event(
            galiot_trace::EventKind::Quarantined,
            galiot_trace::tag_seq(seg.gateway.0, seg.seq),
        );
        self.metrics.with(|m| {
            m.record_quarantine(QuarantineRecord {
                gateway: seg.gateway.0,
                seq: seg.seq,
                start: seg.start as u64,
                len: seg.compressed.len,
                attempts: history,
                payload_hash: fnv1a(&seg.compressed.data),
                fault_seed: if self.pool.faults.enabled() {
                    self.pool.faults.seed
                } else {
                    0
                },
            });
        });
        let notice = ResultMsg::gap(seg.gateway, seg.seq, Some(seg.start as u64));
        let _ = self.result_tx.send(notice);
        drop(credit);
        self.promote(followers);
    }

    /// A completed attempt of an already-resolved lease. Its frames
    /// were decoded but go nowhere; if the lease was quarantined they
    /// are accounted into both `per_gateway_decoded` and
    /// `quarantined_frames` (mirroring the merge's dead-lane
    /// crash-loss arm) so the fleet identity stays closed.
    fn stale_success(&mut self, id: u64, n_frames: usize) {
        self.metrics.with(|m| m.decode_stale_results += 1);
        if n_frames == 0 {
            return;
        }
        if let Some(&(_, gw)) = self.quarantined.iter().find(|&&(lease, _)| lease == id) {
            self.metrics.with(|m| {
                *m.per_gateway_decoded.entry(gw).or_default() += n_frames;
                m.quarantined_frames += n_frames;
            });
        }
    }
}

/// One cloud decode worker incarnation: decompress, run Algorithm 1,
/// report the outcome to the supervisor. A panicking decode is
/// contained and reported as [`Outcome::Panicked`]; an injected hang
/// reports nothing and waits (parked) to be abandoned.
#[allow(clippy::too_many_arguments)]
fn run_pool_worker(
    wid: usize,
    incarnation: u64,
    decoder: CloudDecoder,
    fs: f64,
    pool: PoolConfig,
    attempt_rx: Receiver<Attempt>,
    done_tx: Sender<Done>,
    abandoned: Arc<AtomicBool>,
) {
    let (faults, deadline) = (pool.faults, Duration::from_secs_f64(pool.deadline_s));
    // Decompressed samples and the decode's buffers, kept across segments.
    let (mut samples, mut buffers) = (Vec::new(), DecodeBuffers::default());
    while let Ok(Attempt {
        lease,
        attempt,
        seg,
    }) = attempt_rx.recv()
    {
        let strike = faults.strikes(seg.gateway.0, seg.seq, attempt);
        if strike && faults.kind == DecodeFaultKind::Hang {
            // A wedged decode: no span, no Done — the supervisor can
            // only learn of it through the lease deadline. The thread
            // exits once abandoned so test processes don't leak it.
            while !abandoned.load(Ordering::Acquire) {
                thread::park_timeout(Duration::from_millis(5));
            }
            return;
        }
        if strike && faults.kind == DecodeFaultKind::Slow {
            // Pathologically slow: sleep well past the lease deadline.
            // By wake-up the supervisor has (almost) always declared
            // this incarnation hung and abandoned it — exit silently
            // then, before writing a span or Done that would race the
            // replacement's accounting and a drained trace. In the
            // rare schedule where the deadline check hasn't fired yet,
            // fall through and decode: the lease is still live, so the
            // late result simply wins.
            thread::sleep(deadline * 2);
            if abandoned.load(Ordering::Acquire) {
                return;
            }
        }
        let tag = galiot_trace::tag_seq(seg.gateway.0, seg.seq);
        let t0 = Instant::now();
        let decode_span = galiot_trace::span(galiot_trace::Stage::WorkerDecode, tag);
        let decoded = catch_unwind(AssertUnwindSafe(|| {
            if strike && faults.kind == DecodeFaultKind::Panic {
                panic!("injected decode fault");
            }
            seg.unpack_into(&mut samples);
            let result = decoder.decode_reusing(&samples, fs, &mut buffers);
            (mean_power(&samples), result)
        }));
        drop(decode_span);
        let busy_ns = t0.elapsed().as_nanos() as u64;
        let outcome = match decoded {
            Ok((power, result)) => {
                let rounds = result.rounds as u64;
                let kills = result.kills as u64;
                let frames: Vec<PipelineFrame> = result
                    .frames
                    .into_iter()
                    .map(|(mut frame, how)| {
                        frame.start += seg.start;
                        let via_kill = matches!(how, Recovery::AfterKill { .. });
                        PipelineFrame {
                            frame,
                            at_edge: false,
                            via_kill,
                        }
                    })
                    .collect();
                Outcome::Decoded {
                    frames,
                    power,
                    rounds,
                    kills,
                }
            }
            Err(_) => Outcome::Panicked,
        };
        if done_tx
            .send(Done {
                wid,
                incarnation,
                lease,
                attempt,
                outcome,
                busy_ns,
            })
            .is_err()
        {
            return;
        }
    }
}

/// Mean received power of a segment's samples (0 for none): the fleet
/// merge's best-copy criterion, summed in sample order so that every
/// copy of a span scores alike wherever it is computed. Not
/// `galiot_dsp::power::mean_power`, which is the f64 `energy_f64`
/// kernel: `FleetMerge` reads these bits, so swapping one for the
/// other changes which copy wins.
pub(crate) fn mean_power(samples: &[Cf32]) -> f32 {
    samples.iter().map(|c| c.norm_sqr()).sum::<f32>() / samples.len().max(1) as f32
}

/// FNV-1a over the compressed payload bytes, for dead-letter records.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use galiot_channel::{compose, snr_to_noise_power, TxEvent};
    use galiot_phy::TechId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FS: f64 = 1_000_000.0;

    /// The default pool knobs on one worker (thread-less: the tests
    /// push the slot themselves).
    fn one_worker() -> PoolConfig {
        PoolConfig {
            workers: 1,
            ..PoolConfig::default()
        }
    }

    /// A slow first attempt is declared hung, its retry waits in the
    /// queue (every worker busy), and then the slow attempt finishes
    /// and wins: the queued retry names a resolved lease and must not
    /// be dispatched. Driven on a supervisor with one thread-less slot.
    #[test]
    fn late_win_purges_its_queued_retry() {
        let (result_tx, result_rx) = unbounded();
        let metrics = SharedMetrics::new();
        let mut sup = Supervisor::new(
            one_worker(),
            FS,
            CloudDecoder::new(Registry::prototype()),
            4,
            0,
            result_tx,
            metrics.clone(),
        );
        let (tx, attempt_rx) = bounded(1);
        sup.slots.push(Some(WorkerSlot {
            incarnation: 0,
            tx,
            abandoned: Arc::new(AtomicBool::new(false)),
            busy: None,
            handle: None,
        }));

        let samples = vec![Cf32::new(0.5, -0.5); 256];
        let seg = ShippedSegment::pack(7, 1_000, &samples, 8, 64);
        sup.admit(seg.into());
        sup.dispatch();
        let first = attempt_rx.try_recv().expect("first attempt dispatched");
        assert_eq!((first.lease, first.attempt), (0, 0));

        sup.fail_attempt(first.lease, FAIL_HUNG);
        assert_eq!(sup.queued(), 1, "retry queued behind the busy worker");
        sup.on_done(Done {
            wid: 0,
            incarnation: 0,
            lease: first.lease,
            attempt: first.attempt,
            outcome: Outcome::Decoded {
                frames: Vec::new(),
                power: 0.0,
                rounds: 0,
                kills: 0,
            },
            busy_ns: 1,
        });
        sup.dispatch();

        assert_eq!(sup.queued(), 0);
        assert!(sup.leases.is_empty());
        assert!(
            attempt_rx.try_recv().is_err(),
            "resolved lease re-dispatched"
        );
        assert!(matches!(
            result_rx.try_recv(),
            Ok(ResultMsg::Segment(SegmentResult { seq: 7, .. }))
        ));
        assert!(result_rx.try_recv().is_err(), "one result per segment");
        let m = metrics.snapshot();
        assert_eq!((m.decode_retried, m.decode_stale_results), (1, 0), "{m:?}");
    }

    // -----------------------------------------------------------------
    // Shared leases: join / remember / promote, and the stale-report
    // fence, on a supervisor whose worker slots have no threads.
    // -----------------------------------------------------------------

    struct Bench {
        sup: Supervisor,
        attempts: Receiver<Attempt>,
        results: Receiver<ResultMsg>,
        metrics: SharedMetrics,
    }

    /// One thread-less worker slot; `n_shards > 0` makes it a fleet's
    /// pool (sibling lookup on), 0 a sole session's.
    fn bench(n_shards: usize) -> Bench {
        let (result_tx, results) = unbounded();
        let metrics = SharedMetrics::new();
        let mut sup = Supervisor::new(
            one_worker(),
            FS,
            CloudDecoder::new(Registry::prototype()),
            4,
            n_shards,
            result_tx,
            metrics.clone(),
        );
        let (tx, attempts) = bounded(1);
        sup.slots.push(Some(WorkerSlot {
            incarnation: 0,
            tx,
            abandoned: Arc::new(AtomicBool::new(false)),
            busy: None,
            handle: None,
        }));
        Bench {
            sup,
            attempts,
            results,
            metrics,
        }
    }

    /// Gateway `gw`'s copy of the 256-sample span at `start`.
    fn copy(gw: u16, seq: u64, start: usize) -> PoolItem {
        let samples = vec![Cf32::new(0.5, -0.5); 256];
        ShippedSegment::pack(seq, start, &samples, 8, 64)
            .with_gateway(GatewayId(gw))
            .into()
    }

    fn frames(n: usize) -> Vec<PipelineFrame> {
        (0..n)
            .map(|i| PipelineFrame {
                frame: galiot_phy::DecodedFrame {
                    tech: TechId::XBee,
                    payload: vec![i as u8],
                    start: 1_000 + i,
                    len: 100,
                },
                at_edge: false,
                via_kill: false,
            })
            .collect()
    }

    impl Bench {
        /// Dispatches the next queued lease and returns its attempt.
        fn dispatched(&mut self) -> Attempt {
            self.sup.dispatch();
            self.attempts.try_recv().expect("an attempt was dispatched")
        }

        /// Reports `attempt` decoded with `n` frames.
        fn done(&mut self, attempt: &Attempt, n: usize) {
            self.sup.on_done(Done {
                wid: 0,
                incarnation: 0,
                lease: attempt.lease,
                attempt: attempt.attempt,
                outcome: Outcome::Decoded {
                    frames: frames(n),
                    power: 0.25,
                    rounds: n as u64,
                    kills: 0,
                },
                busy_ns: 1,
            });
        }

        /// Fails `attempt` and each of its retries in turn, as a wedged
        /// or panicking decode would, until the lease is quarantined.
        fn poison(&mut self, mut attempt: Attempt, how: &'static str) {
            let retries = self.sup.pool.retries;
            for rung in 0..=retries {
                // What `on_done` / `replace_worker` do for a real slot.
                self.sup.slots[0].as_mut().expect("one slot").busy = None;
                self.sup.fail_attempt(attempt.lease, how);
                if rung < retries {
                    attempt = self.dispatched();
                }
            }
        }

        /// Drains the result channel as (gateway, seq, frames, watermark).
        fn delivered(&self) -> Vec<(u16, u64, usize, Option<u64>)> {
            self.results
                .try_iter()
                .map(|msg| match msg {
                    ResultMsg::Segment(r) => (r.gateway.0, r.seq, r.frames.len(), r.watermark),
                    ResultMsg::SessionRestarted { .. } => unreachable!("no session restarts here"),
                })
                .collect()
        }
    }

    #[test]
    fn a_sibling_copy_joins_the_live_lease_and_is_delivered_under_its_own_name() {
        let mut b = bench(4);
        b.sup.admit(copy(1, 7, 10_000));
        // Same air, a few samples apart: a follower, not a lease.
        b.sup.admit(copy(2, 3, 10_016));
        assert_eq!(b.sup.leases.len(), 1);
        assert_eq!(b.sup.leases[&0].followers.len(), 1);
        // Past the slack on either end, or from the primary's own
        // gateway: decoded in their own right.
        b.sup.admit(copy(3, 0, 10_000 + DEDUP_SLACK + 1));
        b.sup.admit(copy(1, 8, 10_000));
        assert_eq!(b.sup.leases.len(), 3);

        let first = b.dispatched();
        assert_eq!((first.seg.gateway, first.seg.seq), (GatewayId(1), 7));
        // A follower joins a lease on its retry ladder too.
        b.sup.fail_attempt(first.lease, FAIL_HUNG);
        b.sup.admit(copy(3, 1, 9_990));
        assert_eq!(b.sup.leases[&0].followers.len(), 2);
        b.done(&first, 2);

        // One result per member, each with its own seq and watermark,
        // all carrying the one decode's frames.
        let mut got = b.delivered();
        got.sort_unstable();
        assert_eq!(
            got,
            vec![
                (1, 7, 2, Some(10_000)),
                (2, 3, 2, Some(10_016)),
                (3, 1, 2, Some(9_990)),
            ]
        );
        let m = b.metrics.snapshot();
        assert_eq!(m.decodes_shared, 2, "{m:?}");
        assert_eq!(m.per_worker_segments.values().sum::<usize>(), 1, "{m:?}");
        assert_eq!(m.pool_decoded(), 2, "frames are counted once: {m:?}");
        assert_eq!(b.sup.leases.len(), 2, "the unrelated leases stay live");
    }

    #[test]
    fn a_late_copy_is_answered_from_memory_until_the_fifo_forgets() {
        let mut b = bench(4);
        b.sup.admit(copy(1, 0, 50_000));
        let first = b.dispatched();
        b.done(&first, 1);
        assert_eq!(b.delivered(), vec![(1, 0, 1, Some(50_000))]);

        // The sibling arrives after the decode finished: no lease, no
        // attempt, the remembered frames under its own name.
        b.sup.admit(copy(2, 5, 50_003));
        assert!(b.sup.leases.is_empty());
        assert_eq!(b.delivered(), vec![(2, 5, 1, Some(50_003))]);
        assert_eq!(b.metrics.snapshot().decodes_shared, 1);

        // An empty decode is nobody's answer: its late sibling is
        // decoded in its own right.
        b.sup.admit(copy(1, 1, 900_000));
        let empty = b.dispatched();
        b.done(&empty, 0);
        b.sup.admit(copy(2, 6, 900_000));
        assert_eq!(b.sup.leases.len(), 1);
        let own = b.dispatched();
        b.done(&own, 1);
        b.delivered();

        // SHARED_MEMORY newer spans push the first one out.
        for i in 0..SHARED_MEMORY as u64 {
            b.sup
                .admit(copy(1, 2 + i, 2_000_000 + 100_000 * i as usize));
            let a = b.dispatched();
            b.done(&a, 1);
        }
        assert_eq!(b.sup.shared.len(), SHARED_MEMORY);
        b.delivered();
        b.sup.admit(copy(3, 0, 50_000));
        assert_eq!(b.sup.leases.len(), 1, "forgotten span gets a lease");
        assert!(b.delivered().is_empty());
    }

    #[test]
    fn an_empty_or_quarantined_primary_promotes_its_first_follower() {
        let mut b = bench(4);
        for gw in 1..=3 {
            b.sup.admit(copy(gw, 10 + gw as u64, 70_000));
        }
        let first = b.dispatched();
        b.done(&first, 0);
        // Nothing recovered, nothing shared: gateway 1 gets its own
        // empty result, gateway 2's copy a fresh ladder with gateway 3
        // still attached.
        assert_eq!(b.delivered(), vec![(1, 11, 0, Some(70_000))]);
        assert_eq!(b.sup.leases.len(), 1);
        let second = b.dispatched();
        assert_eq!((second.seg.gateway, second.attempt), (GatewayId(2), 0));
        assert_eq!(b.sup.leases[&second.lease].followers.len(), 1);

        // Gateway 2's copy is poison: it walks the whole ladder alone,
        // is dead-lettered with its gap notice, and costs gateway 3
        // nothing but the wait.
        b.poison(second, FAIL_PANIC);
        assert_eq!(b.delivered(), vec![(2, 12, 0, Some(70_000))]);
        let m = b.metrics.snapshot();
        assert_eq!(m.decode_quarantined, 1, "{m:?}");
        assert_eq!(m.quarantine_records[0].gateway, 2, "{m:?}");

        let third = b.dispatched();
        assert_eq!((third.seg.gateway, third.attempt), (GatewayId(3), 0));
        assert!(b.sup.leases[&third.lease].history.is_empty());
        b.done(&third, 1);
        assert_eq!(b.delivered(), vec![(3, 13, 1, Some(70_000))]);
        assert!(b.sup.leases.is_empty() && b.sup.queued() == 0);
        // admitted == leases won + decodes_shared + quarantined.
        let m = b.metrics.snapshot();
        let won = m.per_worker_segments.values().sum::<usize>();
        assert_eq!(3, won + m.decodes_shared + m.decode_quarantined, "{m:?}");
    }

    #[test]
    fn only_quarantined_leases_are_fenced_and_the_fence_is_bounded() {
        let mut b = bench(0);
        for seq in 0..10_000u64 {
            b.sup.admit(copy(0, seq, 1_000 * seq as usize));
            let a = b.dispatched();
            b.done(&a, 1);
        }
        assert!(b.sup.quarantined.is_empty(), "wins need no fence");
        assert!(b.sup.shared.is_empty(), "a sole session remembers nothing");
        assert!(b.sup.leases.is_empty());
        b.delivered();

        // A lease quarantined while its first attempt is still running:
        // that attempt's late report must still reach the ledger.
        b.sup.admit(copy(0, 10_000, 5_000));
        let slow = b.dispatched();
        let late = Attempt {
            seg: slow.seg.clone(),
            ..slow
        };
        b.poison(slow, FAIL_HUNG);
        assert_eq!(b.sup.quarantined.len(), 1);
        b.done(&late, 2);
        let m = b.metrics.snapshot();
        assert_eq!(m.decode_stale_results, 1, "{m:?}");
        assert_eq!(m.quarantined_frames, 2, "{m:?}");
        assert_eq!(m.per_gateway_decoded.get(&0), Some(&2), "{m:?}");

        // A late win after a spent attempt needs no fence either, and
        // the fence forgets oldest-first.
        b.sup.admit(copy(0, 10_001, 0));
        let a = b.dispatched();
        b.sup.fail_attempt(a.lease, FAIL_HUNG);
        b.done(&a, 0);
        assert_eq!(b.sup.quarantined.len(), 1);
        for seq in 0..2 * FENCE_MEMORY as u64 {
            b.sup.admit(copy(0, 20_000 + seq, 0));
            let a = b.dispatched();
            b.poison(a, FAIL_PANIC);
        }
        assert_eq!(b.sup.quarantined.len(), FENCE_MEMORY);
        assert!(b.sup.leases.is_empty() && b.sup.queued() == 0);
    }

    #[test]
    fn streaming_decodes_packet_spanning_chunks() {
        let mut rng = StdRng::seed_from_u64(1);
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let ev = TxEvent::new(xbee, vec![0xAB, 0xCD], 300_000);
        let np = snr_to_noise_power(15.0, 0.0);
        let cap = compose(&[ev], 1_200_000, FS, np, &mut rng);

        let sys = StreamingGaliot::start(GaliotConfig::prototype(), reg);
        for chunk in cap.samples.chunks(65_536) {
            sys.push_chunk(chunk.to_vec());
        }
        let frames = sys.finish();
        assert!(
            frames.iter().any(|f| f.frame.payload == vec![0xAB, 0xCD]),
            "frame not recovered: {} frames",
            frames.len()
        );
    }

    #[test]
    fn streaming_handles_multiple_packets() {
        let mut rng = StdRng::seed_from_u64(2);
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let zwave = reg.get(TechId::ZWave).unwrap().clone();
        let events = vec![
            TxEvent::new(xbee, vec![1; 6], 100_000),
            TxEvent::new(zwave, vec![2; 6], 700_000),
        ];
        let np = snr_to_noise_power(18.0, 0.0);
        let cap = compose(&events, 1_500_000, FS, np, &mut rng);
        let sys = StreamingGaliot::start(GaliotConfig::prototype(), reg);
        for chunk in cap.samples.chunks(100_000) {
            sys.push_chunk(chunk.to_vec());
        }
        let frames = sys.finish();
        let techs: Vec<TechId> = frames.iter().map(|f| f.frame.tech).collect();
        assert!(techs.contains(&TechId::XBee), "{techs:?}");
        assert!(techs.contains(&TechId::ZWave), "{techs:?}");
        assert!(frames.len() >= 2);
    }

    #[test]
    fn finish_with_no_input_is_clean() {
        let sys = StreamingGaliot::start(GaliotConfig::prototype(), Registry::prototype());
        let frames = sys.finish();
        assert!(frames.is_empty());
    }

    #[test]
    fn frame_is_delivered_while_the_stream_is_still_open() {
        // One packet, then nothing but noise: no later segment ever
        // arrives to push a watermark past it, so the frame reaches
        // `frames()` only if a sole session's segments are released
        // as they complete.
        let mut rng = StdRng::seed_from_u64(6);
        let reg = Registry::prototype();
        let zwave = reg.get(TechId::ZWave).unwrap().clone();
        let ev = TxEvent::new(zwave, vec![0x3C; 6], 100_000);
        let np = snr_to_noise_power(18.0, 0.0);
        let cap = compose(&[ev], 1_200_000, FS, np, &mut rng);
        let sys = StreamingGaliot::start(GaliotConfig::prototype(), reg);
        for chunk in cap.samples.chunks(65_536) {
            sys.push_chunk(chunk.to_vec());
        }
        let early = sys
            .frames()
            .recv_timeout(Duration::from_secs(120))
            .expect("frame held back until finish()");
        assert_eq!(early.frame.payload, vec![0x3C; 6]);
        assert!(sys.finish().is_empty());
    }

    #[test]
    fn fleet_shaped_config_still_runs_one_uncrashed_session() {
        let mut rng = StdRng::seed_from_u64(7);
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let zwave = reg.get(TechId::ZWave).unwrap().clone();
        let events = vec![
            TxEvent::new(xbee, vec![0x11; 6], 100_000),
            TxEvent::new(zwave, vec![0x22; 6], 700_000),
        ];
        let np = snr_to_noise_power(18.0, 0.0);
        let cap = compose(&events, 1_500_000, FS, np, &mut rng);
        let ids = |frames: &[PipelineFrame]| -> Vec<(TechId, Vec<u8>)> {
            let mut v: Vec<_> = frames
                .iter()
                .map(|f| (f.frame.tech, f.frame.payload.clone()))
                .collect();
            v.sort();
            v
        };
        let batch = crate::Galiot::new(GaliotConfig::prototype(), reg.clone())
            .process_capture(&cap.samples);
        assert_eq!(batch.frames.len(), 2);

        // The shape `galiot-sim` hands every oracle: session 1 of 3
        // silent from sample 0. None of it applies to one gateway.
        let config = GaliotConfig::prototype()
            .with_gateways(3)
            .with_ingest_shards(5)
            .with_crash(1, 0, false);
        let sys = StreamingGaliot::start(config, reg);
        for chunk in cap.samples.chunks(100_000) {
            sys.push_chunk(chunk.to_vec());
        }
        let metrics = sys.metrics().clone();
        let frames = sys.finish();
        let m = metrics.snapshot();
        assert_eq!(ids(&frames), ids(&batch.frames));
        assert_eq!(m.fleet_gateways, 1, "{m:?}");
        assert_eq!(m.ingest_shards, 0, "{m:?}");
        assert_eq!(m.sessions_crashed, 0, "{m:?}");
        assert_eq!(m.samples_processed, cap.samples.len() as u64, "{m:?}");
        assert!(m.per_gateway_decoded.keys().all(|&gw| gw == 0), "{m:?}");
    }

    #[test]
    fn gateway_busy_time_counts_each_flush_once() {
        // A clean packet every other flush, all decoded at the edge, with a
        // cloud that has nothing to do: the gateway thread's busy time
        // cannot exceed the wall time of the run.
        let mut rng = StdRng::seed_from_u64(8);
        let reg = Registry::prototype();
        let zwave = reg.get(TechId::ZWave).unwrap().clone();
        let events: Vec<TxEvent> = (0..8)
            .map(|i| TxEvent::new(zwave.clone(), vec![i as u8 + 1; 6], 60_000 + i * 420_000))
            .collect();
        let np = snr_to_noise_power(18.0, 0.0);
        let cap = compose(&events, 3_400_000, FS, np, &mut rng);
        let t0 = Instant::now();
        let sys = StreamingGaliot::start(GaliotConfig::prototype(), reg);
        for chunk in cap.samples.chunks(65_536) {
            sys.push_chunk(chunk.to_vec());
        }
        let metrics = sys.metrics().clone();
        let frames = sys.finish();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let m = metrics.snapshot();
        assert_eq!(frames.len(), 8);
        assert!(frames.iter().all(|f| f.at_edge), "{m:?}");
        assert!(
            m.gateway_busy_ns <= wall_ns,
            "gateway busy {} ns over a {} ns run",
            m.gateway_busy_ns,
            wall_ns
        );
    }

    #[test]
    fn frames_arrive_in_capture_order_with_many_workers() {
        let mut rng = StdRng::seed_from_u64(3);
        let reg = Registry::prototype();
        let zwave = reg.get(TechId::ZWave).unwrap().clone();
        // Well-separated packets → one segment each, in order.
        let events: Vec<TxEvent> = (0..4)
            .map(|i| TxEvent::new(zwave.clone(), vec![i as u8 + 1; 6], 150_000 + i * 600_000))
            .collect();
        let np = snr_to_noise_power(18.0, 0.0);
        let cap = compose(&events, 2_800_000, FS, np, &mut rng);
        let sys = StreamingGaliot::start(GaliotConfig::prototype().with_cloud_workers(4), reg);
        for chunk in cap.samples.chunks(50_000) {
            sys.push_chunk(chunk.to_vec());
        }
        let frames = sys.finish();
        let starts: Vec<usize> = frames.iter().map(|f| f.frame.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted, "frames out of capture order");
        assert_eq!(frames.len(), 4, "{starts:?}");
    }

    #[test]
    fn streaming_over_a_harsh_faulty_link_still_decodes() {
        use galiot_gateway::LinkFaults;
        let mut rng = StdRng::seed_from_u64(5);
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let ev = TxEvent::new(xbee, vec![0x5A, 0xA5], 300_000);
        let np = snr_to_noise_power(15.0, 0.0);
        let cap = compose(&[ev], 1_200_000, FS, np, &mut rng);

        // 10% loss + corruption/duplication/reordering on both
        // directions; the ARQ must make the link transparent.
        let mut config = GaliotConfig::prototype().with_faulty_link(LinkFaults::harsh(0.1, 9));
        config.edge_decoding = false; // force everything over the wire
        let sys = StreamingGaliot::start(config, reg);
        for chunk in cap.samples.chunks(65_536) {
            sys.push_chunk(chunk.to_vec());
        }
        let metrics = sys.metrics().clone();
        let frames = sys.finish();
        assert!(
            frames.iter().any(|f| f.frame.payload == vec![0x5A, 0xA5]),
            "frame lost to the faulty link: {} frames",
            frames.len()
        );
        let m = metrics.snapshot();
        assert_eq!(m.arq_lost, 0, "{m:?}");
        assert_eq!(m.segments_shed, 0, "{m:?}");
        assert_eq!(m.arq_acked, m.shipped_segments, "{m:?}");
        assert!(m.wire_datagrams_sent > 0, "{m:?}");
        assert_eq!(
            m.shipped_segments,
            m.per_worker_segments.values().sum::<usize>(),
            "every shipped segment must reach exactly one worker: {m:?}"
        );
    }

    #[test]
    fn worker_metrics_are_populated() {
        let mut rng = StdRng::seed_from_u64(4);
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let zwave = reg.get(TechId::ZWave).unwrap().clone();
        let events = vec![
            TxEvent::new(xbee, vec![7; 8], 100_000),
            TxEvent::new(zwave, vec![9; 8], 600_000),
        ];
        let np = snr_to_noise_power(25.0, 0.0);
        let cap = compose(&events, 1_200_000, FS, np, &mut rng);
        // Edge decoding off → every segment must flow through the pool.
        let mut config = GaliotConfig::prototype().with_cloud_workers(2);
        config.edge_decoding = false;
        let sys = StreamingGaliot::start(config, reg);
        for chunk in cap.samples.chunks(65_536) {
            sys.push_chunk(chunk.to_vec());
        }
        let metrics = sys.metrics().clone();
        let frames = sys.finish();
        let m = metrics.snapshot();
        assert!(!frames.is_empty());
        assert_eq!(m.cloud_workers, 2);
        assert!(m.shipped_segments >= 1, "{m:?}");
        assert!(m.pool_decoded() >= 1, "{m:?}");
        assert!(m.per_worker_segments.values().sum::<usize>() >= 1);
        assert!(m.cloud_busy_ns > 0);
        assert!(m.gateway_busy_ns > 0);
    }
}
