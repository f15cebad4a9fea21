//! The live pipeline engine: N gateway sessions — each with its own
//! wire id, sequence space, transport, and (in transport mode)
//! decorrelated link-fault seeds — feeding one shared cloud decode pool
//! through a fairness-gated ingest, with duplicate suppression and
//! capture-order release on the way out. It is the same picture for one
//! gateway and for a neighbourhood of them: [`FleetGaliot`] starts it
//! with `config.fleet.gateways` sessions (wire ids 1..=N),
//! [`crate::StreamingGaliot`] with exactly one (wire id 0).
//!
//! # Topology
//!
//! ```text
//!              chunks (one buffer,             per-session inbox
//!              every session an `Arc`)
//!  push_chunk ──▶ session 1 ─[transport 1]─▶ mux 1 ─┐  supervised pool
//!             ──▶ session 2 ─[transport 2]─▶ mux 2 ─┼─▶ (leases, retries,
//!             ──▶   ...                       ...   ┘   deadlines; copies of
//!                    │                   (FairnessGate)  one span share a lease)
//!                    │                                   ─▶ worker 0..W ─┐
//!                    └─ edge decodes ──────────────────────────────────┐ │ one result
//!                                                                      ▼ ▼ per copy
//!        frames ◀── FleetMerge (dedup, capture order) ◀── per-session lanes
//!                                                         (seq order)
//! ```
//!
//! Every gateway hears (roughly) the same air — the paper's deployment
//! shape is redundant cheap SDRs covering one neighbourhood — so every
//! session ships its own copy of each over-the-air span. The pool
//! decodes a span **once**: the first copy to arrive opens a lease,
//! another gateway's copy of the same capture span (both ends within
//! the dedup slack) parks on that lease — or is answered from a short
//! memory of resolved ones — and a decode that recovers at least one
//! frame is delivered to every copy under its own `(gateway, seq)` and
//! watermark; an empty or quarantined decode promotes the next copy to
//! a decode of its own (see [`crate::pool`] and DESIGN.md §17,
//! "Shared leases"). Nothing downstream can tell: each lane receives
//! its own in-order results, the merge keeps the best-power copy and
//! counts the rest as `dedup_suppressed`, a session that dies loses
//! only its own deliveries. The fleet conformance suite pins the
//! keystone invariant that N sessions deliver exactly the
//! single-gateway frame set, once, for any worker count, shard count,
//! and per-link fault seeds.
//!
//! # A sole session
//!
//! Everything the engine needs to know about its topology is how many
//! sessions it was started with; none of it is an option. Sessions are
//! addressed by position (lanes, crash specs, seed salts) and only
//! *stamped* with their wire id, so gateway 0 needs no special case:
//! its trace tags are transparent (`tag_seq(0, seq) == seq`) and
//! position 0's first life keeps the configured ARQ/fault seeds. With
//! exactly one session:
//!
//! * there is no peer copy to wait for — [`FleetMerge`] releases a
//!   segment's frames as soon as that segment completes in order (first
//!   copy wins; repeats decoded from later, overlapping segments hit
//!   its release memory) instead of holding them until every watermark
//!   has moved a dedup window past them;
//! * there is no cross-session routing to keep reproducible and nobody
//!   to be fair to — no shard affinity (any idle worker serves), no
//!   credit quota, and a pool intake as deep as one gateway needs
//!   (`2·max(4, workers)`);
//! * there is never a sibling copy — the pool skips the shared-lease
//!   lookup and remembers no results.
//!
//! # Self-healing
//!
//! Each session runs under a supervisor thread that can survive the
//! gateway instance crashing (fault injection via [`CrashSpec`]; a
//! real deployment's equivalent is the SDR process dying). A session
//! moves through `alive → silent → dead` as observed by the
//! [`SessionRegistry`] logical clock: once it has been silent past
//! [`FleetConfig::liveness_horizon`] events while holding no
//! [`FairnessGate`] credits, the merge-side reaper declares it dead,
//! reclaims its credits, and finalizes its [`FleetMerge`] watermark to
//! `u64::MAX` so capture-order release resumes for the survivors
//! instead of stalling forever. A restarted instance re-registers
//! under a bumped epoch and numbers segments from
//! `instance << EPOCH_SHIFT`, so its sequence space never collides
//! with its past self; the superseded epoch's late traffic is fenced
//! at the mux (registry epoch check) and at the merge (lane epoch
//! floor) and accounted as `crash_lost_*`.
//!
//! The shared decode pool is supervised the same way (see
//! [`crate::pool`] §supervised pool and DESIGN.md §17): every
//! dispatched segment holds a deadline lease, hung workers are
//! replaced in place, panicked and hung decodes are re-dispatched up
//! to [`crate::PoolConfig::retries`] times, and a segment that exhausts
//! the ladder is quarantined to a dead-letter record while an empty
//! watermarked result keeps capture-order release and the liveness
//! reaper moving. A copy parked on a shared lease keeps its fairness
//! credit until its result is queued at the merge, so its session is
//! never "silent" to the reaper while it waits.
//!
//! Ingest-side mechanics — [`SessionRegistry`],
//! [`galiot_cloud::shard_for`], [`galiot_cloud::FairnessGate`],
//! [`galiot_cloud::FleetMerge`] — live in `galiot-cloud`; this module
//! wires them to the per-session machinery of [`crate::pool`] and
//! [`crate::transport`].

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use galiot_cloud::{CloudDecoder, FairnessGate, FleetMerge, SessionInfo, SessionRegistry};
use galiot_dsp::Cf32;
use galiot_gateway::GatewayId;
use galiot_phy::registry::Registry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;

use crate::config::{at_least_one, ConfigError, GaliotConfig};
use crate::gateway_loop::{run_gateway, SessionStart, ShipMode, Shipper};
use crate::metrics::SharedMetrics;
use crate::pipeline::PipelineFrame;
use crate::pool::{PoolItem, ResultMsg, SegmentResult, Supervisor, DEDUP_SLACK};
use crate::spawn::spawn_thread;
use crate::transport::{spawn_arq_receiver, spawn_arq_sender, SendQueue, SendQueueTx};

/// One injected gateway crash for [`FleetGaliot`] failover
/// testing: session `session` dies immediately before emitting its
/// `after_segments`-th segment (0 = silent from the first would-be
/// segment). With `restart` set the session supervisor brings a new
/// instance up under a bumped [`galiot_cloud::SessionRegistry`] epoch,
/// resuming the capture where the dead instance stopped consuming it.
/// Each spec fires at most once, on the session's first life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// Fleet session index (0-based, i.e. wire gateway `session + 1`).
    pub session: usize,
    /// Number of segments the first instance emits before dying.
    pub after_segments: u64,
    /// Whether a replacement instance is started after the crash.
    pub restart: bool,
}

/// The fleet's knobs ([`GaliotConfig::fleet`]): how many sessions
/// [`FleetGaliot::start`] runs, how their segments are routed, and the
/// failover machinery. [`crate::StreamingGaliot`] ignores them all.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetConfig {
    /// Number of gateway sessions, each with its own sequence space,
    /// transport, and (in transport mode) decorrelated link-fault
    /// seeds. Minimum 1.
    pub gateways: usize,
    /// Number of routing shards the ingest hashes (gateway, seq) onto
    /// before folding shards onto workers. `0` means "one shard per
    /// worker". More shards than workers is legal and keeps routing
    /// stable across worker-count changes.
    pub shards: usize,
    /// Injected gateway crashes for failover testing. Empty in
    /// production configurations.
    pub crashes: Vec<CrashSpec>,
    /// Liveness horizon in registry logical-clock events: a session
    /// silent for more than this many events (while holding no
    /// in-flight credits) is declared dead, its merge watermark is
    /// finalized, and its credits are reclaimed. `0` disables
    /// liveness-driven eviction.
    pub liveness_horizon: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            gateways: 1,
            shards: 0,
            crashes: Vec::new(),
            liveness_horizon: 64,
        }
    }
}

impl FleetConfig {
    /// The shard count the ingest will actually route over: `shards`,
    /// with `0` resolved to one shard per worker of a pool of
    /// `workers`.
    pub fn effective_shards(&self, workers: usize) -> usize {
        match self.shards {
            0 => workers,
            n => n,
        }
    }

    /// Rejects an empty fleet, a crash aimed past it, and a
    /// no-restart crash the liveness reaper could never evict.
    pub fn validate(&self) -> Result<(), ConfigError> {
        at_least_one("fleet.gateways", self.gateways)?;
        for c in &self.crashes {
            if c.session >= self.gateways {
                return Err(ConfigError::CrashSessionOutOfRange {
                    session: c.session,
                    gateways: self.gateways,
                });
            }
            if !c.restart && self.liveness_horizon == 0 {
                return Err(ConfigError::CrashWithoutEviction { session: c.session });
            }
        }
        Ok(())
    }
}

/// In-flight decode credits each session may hold between its mux and
/// the worker pool (see [`FairnessGate`]).
const SESSION_QUOTA: usize = 8;

/// Decorrelates a per-link seed across sessions and instances. Salt 0
/// (position 0, first life) keeps the configured seed, so a one-session
/// pipeline's wire behavior is exactly what the config spells; a
/// restarted instance draws fresh link randomness, as a rebooted radio
/// would.
fn session_seed(seed: u64, salt: u64) -> u64 {
    seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Per-instance seed salt: session index in the low half, instance
/// (life) number in the high half.
fn instance_salt(index: usize, instance: u64) -> u64 {
    index as u64 | (instance << 32)
}

/// The wire ids [`FleetGaliot::start`] gives `n` sessions: 1..=n (id 0
/// is the one-session identity [`crate::StreamingGaliot`] uses).
fn fleet_ids(n: usize) -> Vec<GatewayId> {
    (1..=n.max(1) as u16).map(GatewayId).collect()
}

/// A running GalioT pipeline of one or more gateway sessions.
///
/// Feed raw capture chunks with [`FleetGaliot::push_chunk`] — every
/// session receives each chunk, modelling N gateways hearing the same
/// air — close the intake with [`FleetGaliot::finish`], and collect
/// deduplicated, capture-ordered frames from the output receiver.
pub struct FleetGaliot {
    chunk_txs: Vec<Sender<Arc<Vec<Cf32>>>>,
    frames_rx: Receiver<PipelineFrame>,
    /// Every pipeline thread in dataflow order, which is the order
    /// teardown joins them in: one supervisor per session (each owns
    /// its instances' gateway loop and IO threads across
    /// crash/restart), the decode-pool supervisor, the merge.
    threads: Vec<thread::JoinHandle<()>>,
    registry: Arc<SessionRegistry>,
    metrics: SharedMetrics,
    engine_before: Option<galiot_dsp::engine::EngineStats>,
}

impl FleetGaliot {
    /// Starts `config.fleet.gateways` sessions (wire ids 1..=N) with
    /// the configured crash injections.
    ///
    /// # Panics
    /// Panics if `config` fails [`GaliotConfig::validate`] — in
    /// particular a crash spec the liveness reaper could never evict
    /// must be rejected here rather than wedge the merge.
    pub fn start(config: GaliotConfig, phy_registry: Registry) -> Self {
        let fleet = config.fleet.clone();
        Self::start_sessions(config, phy_registry, &fleet_ids(fleet.gateways), &fleet)
    }

    /// The one place pipeline threads are spawned: one session
    /// supervisor per entry of `ids` (its wire id; sessions are
    /// addressed by position everywhere else), a shared pool of
    /// `config.pool`'s decode workers, and the merge. The topology is
    /// what the caller passes, `ids` and `fleet`, never `config.fleet`.
    pub(crate) fn start_sessions(
        mut config: GaliotConfig,
        phy_registry: Registry,
        ids: &[GatewayId],
        fleet: &FleetConfig,
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid GaliotConfig: {e}");
        }
        // Resolved once: the pool, its intake and every session inbox
        // are sized by the same count.
        config.pool.workers = config.pool.effective_workers();
        let n_workers = config.pool.workers;
        // Routing, fairness and queue depth follow from the session
        // count (module docs, "A sole session"): one session needs no
        // shard affinity, no credit cap, and only enough intake to keep
        // every worker busy; a fleet keeps (gateway, seq) → shard →
        // worker deterministic, caps each session's credits, and scales
        // the intake so every session keeps that depth.
        let (n_shards, quota, intake_cap) = if ids.len() == 1 {
            (0, usize::MAX, 2 * n_workers.max(4))
        } else {
            (
                fleet.effective_shards(n_workers),
                SESSION_QUOTA,
                2 * ids.len().max(4) * n_workers,
            )
        };
        let engine_before = galiot_dsp::engine::stats();
        let metrics = SharedMetrics::new();
        metrics.with(|m| {
            m.cloud_workers = n_workers;
            m.fleet_gateways = ids.len();
            m.ingest_shards = n_shards;
        });

        let registry = Arc::new(SessionRegistry::new());
        let gate = Arc::new(FairnessGate::new(quota));
        let (result_tx, result_rx) = unbounded::<ResultMsg>();
        // Unbounded on purpose: `finish`/`Drop` join the pipeline
        // before draining, so a bounded frame channel could deadlock a
        // run that decodes more frames than the bound.
        let (frames_tx, frames_rx) = unbounded::<PipelineFrame>();

        // Shared supervised decode pool: the supervisor owns worker
        // routing and the hang/retry/quarantine ladder.
        let (pool_tx, pool_supervisor) = Supervisor::new(
            config.pool,
            config.fs,
            CloudDecoder::with_params(phy_registry.clone(), config.cloud),
            intake_cap,
            n_shards,
            result_tx.clone(),
            metrics.clone(),
        )
        .spawn();

        let mut chunk_txs = Vec::with_capacity(ids.len());
        let mut threads = Vec::with_capacity(ids.len() + 2);
        for (index, &gw) in ids.iter().enumerate() {
            let (chunk_tx, chunk_rx) = bounded::<Arc<Vec<Cf32>>>(8);
            chunk_txs.push(chunk_tx);
            let crash = fleet.crashes.iter().find(|c| c.session == index).copied();
            threads.push(spawn_session(SessionSupervisor {
                index,
                gw,
                config: config.clone(),
                phy_registry: phy_registry.clone(),
                chunk_rx,
                pool_tx: pool_tx.clone(),
                gate: gate.clone(),
                registry: registry.clone(),
                result_tx: result_tx.clone(),
                crash,
                metrics: metrics.clone(),
            }));
        }
        // Disconnection must propagate down the dataflow: session
        // supervisors hold the only pool senders, the pool + session
        // supervisors the only result senders.
        drop(pool_tx);
        drop(result_tx);

        threads.push(pool_supervisor);
        threads.push(spawn_merge(
            result_rx,
            frames_tx,
            ids.to_vec(),
            registry.clone(),
            gate,
            fleet.liveness_horizon,
            metrics.clone(),
        ));

        FleetGaliot {
            chunk_txs,
            frames_rx,
            threads,
            registry,
            metrics,
            engine_before: Some(engine_before),
        }
    }

    /// Feeds one capture chunk to every session — all read the
    /// caller's buffer through one `Arc`, nobody copies it; blocks if
    /// any session is saturated. Chunks to a dead (crashed,
    /// unrestarted) session are discarded — its radio is gone.
    pub fn push_chunk(&self, chunk: Vec<Cf32>) {
        let chunk = Arc::new(chunk);
        for tx in &self.chunk_txs {
            let _ = tx.send(chunk.clone());
        }
    }

    /// The deduplicated frame output channel, in capture order.
    pub fn frames(&self) -> &Receiver<PipelineFrame> {
        &self.frames_rx
    }

    /// Shared metrics handle.
    pub fn metrics(&self) -> &SharedMetrics {
        &self.metrics
    }

    /// Point-in-time view of every session the ingest has heard from.
    pub fn sessions(&self) -> Vec<SessionInfo> {
        self.registry.snapshot()
    }

    fn join_all(&mut self) {
        self.chunk_txs.clear();
        // Join order follows the dataflow: each supervisor's gateway
        // instance closes its send queue / inbox, ending its uplink,
        // ingress, and mux (joined inside the supervisor); exited
        // supervisors drop the pool senders, ending the decode pool;
        // the pool drops the result senders, ending the merge.
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(before) = self.engine_before.take() {
            self.metrics.with(|m| m.record_engine_stats(&before));
        }
    }

    /// Closes the intake, waits for the whole fleet, and returns all
    /// remaining frames (deduplicated, in capture order).
    pub fn finish(mut self) -> Vec<PipelineFrame> {
        self.join_all();
        self.frames_rx.try_iter().collect()
    }
}

impl Drop for FleetGaliot {
    fn drop(&mut self) {
        self.join_all();
    }
}

/// Everything a session supervisor owns for the lifetime of its slot.
struct SessionSupervisor {
    /// Position in the topology: keys crash specs and seed salts.
    index: usize,
    /// Wire id stamped on everything the session ships.
    gw: GatewayId,
    config: GaliotConfig,
    phy_registry: Registry,
    chunk_rx: Receiver<Arc<Vec<Cf32>>>,
    pool_tx: Sender<PoolItem>,
    gate: Arc<FairnessGate>,
    registry: Arc<SessionRegistry>,
    result_tx: Sender<ResultMsg>,
    crash: Option<CrashSpec>,
    metrics: SharedMetrics,
}

/// What one gateway instance runs with besides its own loop: the IO
/// threads in dataflow order (uplink and ingress in transport mode,
/// then the mux) and the transport send queue. Joined when the
/// instance ends (cleanly or by crash) before any successor starts, so
/// epochs never overlap on the wire.
struct SessionIo {
    threads: Vec<thread::JoinHandle<()>>,
    send_queue: Option<Arc<SendQueue>>,
}

impl SessionIo {
    /// Joins the threads and folds the send queue's high-water mark
    /// into the metrics.
    fn join(self, metrics: &SharedMetrics) {
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(q) = self.send_queue {
            metrics.with(|m| m.send_queue_hwm = m.send_queue_hwm.max(q.high_water_mark()));
        }
    }
}

/// One gateway session's supervisor: runs successive gateway instances
/// over the shared chunk feed, restarting after an injected crash when
/// the [`CrashSpec`] asks for it. Each instance gets its own transport
/// stack and epoch-fenced mux; the crashed instance's IO drains and is
/// joined before the replacement registers, so a restarted session
/// never overlaps its past self on the wire.
fn spawn_session(sup: SessionSupervisor) -> thread::JoinHandle<()> {
    let gw = sup.gw;
    spawn_thread(&format!("galiot-session-{}", gw.0), move || {
        let mut capture_offset = 0usize;
        let mut instance = 0u64;
        loop {
            let epoch = sup.registry.register(gw);
            let seq_base = instance << galiot_trace::EPOCH_SHIFT;
            if instance > 0 {
                sup.metrics.with(|m| m.sessions_restarted += 1);
                // Announced on the supervisor's own sender BEFORE
                // any of the new instance's IO exists: channel FIFO
                // then orders the revival ahead of every new-epoch
                // result at the merge.
                if sup
                    .result_tx
                    .send(ResultMsg::SessionRestarted {
                        gateway: gw,
                        seq_base,
                    })
                    .is_err()
                {
                    return;
                }
            }
            // Each spec fires once, on the session's first life.
            let crash_after = if instance == 0 {
                sup.crash.map(|c| c.after_segments)
            } else {
                None
            };
            let (shipper, io) = build_session_io(&sup, gw, epoch, instance);
            let run = run_gateway(
                &sup.config,
                &sup.phy_registry,
                &sup.chunk_rx,
                shipper,
                &sup.result_tx,
                &sup.metrics,
                SessionStart {
                    capture_offset,
                    seq_base,
                    crash_after,
                },
            );
            // The instance is over; its shipper is dropped, which
            // closes the send queue / inbox. Drain and join its IO
            // (a graceful-drain crash model: segments already in
            // the transport complete their ARQ journey).
            io.join(&sup.metrics);
            if run.crashed {
                sup.metrics.with(|m| m.sessions_crashed += 1);
                if sup.crash.is_some_and(|c| c.restart) {
                    instance += 1;
                    capture_offset = run.consumed;
                    continue;
                }
                // No restart: the slot stays dead. The liveness
                // reaper will notice the silence, reclaim credits,
                // and finalize the merge watermark; dropping
                // chunk_rx makes push_chunk discard this session's
                // chunks from here on.
            }
            return;
        }
    })
    .unwrap_or_else(|e| panic!("fleet session startup: {e}"))
}

/// Builds one gateway instance's IO: inbox, transport stack (faulty
/// links decorrelated per session *and* per instance), and the
/// epoch-fenced mux into the shared worker pool.
fn build_session_io(
    sup: &SessionSupervisor,
    gw: GatewayId,
    epoch: u64,
    instance: u64,
) -> (Shipper, SessionIo) {
    let config = &sup.config;
    let transport = config.transport;
    let n_workers = config.pool.effective_workers();
    // The session inbox: segments that survived this instance's
    // backhaul, awaiting the fence + fairness credit.
    let (inbox_tx, inbox_rx) = bounded::<PoolItem>(2 * n_workers.max(4));

    let mut io = SessionIo {
        threads: Vec::new(),
        send_queue: None,
    };
    let mode = if transport.is_passthrough() {
        ShipMode::Direct(inbox_tx)
    } else {
        // Each instance owns a full transport stack over its own
        // impaired links, seeds decorrelated per session and per life.
        let salt = instance_salt(sup.index, instance);
        let mut t = transport;
        t.data_faults.seed = session_seed(t.data_faults.seed, salt);
        t.ack_faults.seed = session_seed(t.ack_faults.seed, salt);
        t.arq.seed = session_seed(t.arq.seed, salt);
        let queue = SendQueue::new(t.send_queue_cap);
        let (wire_tx, wire_rx) = bounded::<Vec<u8>>(64);
        let (ack_tx, ack_rx) = unbounded::<Vec<u8>>();
        let lost_tx = sup.result_tx.clone();
        io.threads.push(spawn_arq_sender(
            queue.clone(),
            wire_tx,
            ack_rx,
            t.arq,
            t.data_faults,
            t.uplink_bps,
            sup.metrics.clone(),
            move |seq| {
                galiot_trace::event(
                    galiot_trace::EventKind::Lost,
                    galiot_trace::tag_seq(gw.0, seq),
                );
                // Start unknown here: `None` holds the merge horizon.
                lost_tx.send(ResultMsg::gap(gw, seq, None)).is_ok()
            },
        ));
        io.threads.push(spawn_arq_receiver(
            wire_rx,
            ack_tx,
            inbox_tx,
            t.ack_faults,
            sup.metrics.clone(),
        ));
        io.send_queue = Some(queue.clone());
        ShipMode::Transport {
            tx: SendQueueTx::new(queue),
            hwm: t.degrade_hwm,
            cap: t.send_queue_cap,
            min_bits: t.min_bits,
            result_tx: sup.result_tx.clone(),
        }
    };
    let shipper = Shipper {
        gateway: gw,
        mode,
        base_bits: config.compression_bits,
        metrics: sup.metrics.clone(),
    };

    io.threads.push(spawn_mux(
        inbox_rx,
        sup.pool_tx.clone(),
        sup.gate.clone(),
        sup.registry.clone(),
        epoch,
        sup.metrics.clone(),
    ));
    (shipper, io)
}

/// Per-instance mux: fences stale traffic against the session
/// registry, takes a fairness credit, and hands each surviving segment
/// to the supervised pool with the credit attached (the supervisor
/// does the deterministic shard routing). The credit's guard returns
/// it wherever the segment is dropped.
fn spawn_mux(
    inbox_rx: Receiver<PoolItem>,
    pool_tx: Sender<PoolItem>,
    gate: Arc<FairnessGate>,
    registry: Arc<SessionRegistry>,
    epoch: u64,
    metrics: SharedMetrics,
) -> thread::JoinHandle<()> {
    spawn_thread("galiot-mux", move || {
        while let Ok(mut item) = inbox_rx.recv() {
            let gw = item.seg.gateway;
            // Epoch fence: traffic of a dead or superseded
            // instance stops here, before it can consume a credit
            // or a worker. A fenced segment gets a Lost terminal
            // and is accounted to the crash, never to
            // per_gateway_segments.
            if !registry.touch_current(gw, epoch) {
                metrics.with(|m| m.crash_lost_segments += 1);
                galiot_trace::event(
                    galiot_trace::EventKind::Lost,
                    galiot_trace::tag_seq(gw.0, item.seg.seq),
                );
                continue;
            }
            metrics.with(|m| *m.per_gateway_segments.entry(gw.0).or_default() += 1);
            item.credit = Some(gate.acquire_guard(gw));
            if pool_tx.send(item).is_err() {
                return; // pool gone; the in-item guard frees the credit
            }
            // The queue the workers drain: its depth, not the inbox's
            // (which this thread empties at once), shows a busy pool.
            let depth = pool_tx.len();
            metrics.with(|m| m.seg_queue_hwm = m.seg_queue_hwm.max(depth));
        }
    })
    .unwrap_or_else(|e| panic!("fleet mux startup: {e}"))
}

/// Per-session in-order reassembly state feeding the fleet merge.
#[derive(Default)]
struct SessionLane {
    pending: BTreeMap<u64, SegmentResult>,
    next_seq: u64,
    /// Results below this sequence belong to a superseded (pre-crash)
    /// epoch of a restarted session and are dropped on the crash's
    /// account.
    epoch_floor: u64,
    /// Set when the liveness reaper declares the session dead; a dead
    /// lane drops everything until a restart revives it.
    dead: bool,
}

/// The fleet merge's state machine, extracted from the merge thread
/// for direct unit testing: per-session in-order lanes in front of the
/// cross-gateway [`FleetMerge`], plus the failover transitions — death
/// finalizes the session's watermark to `u64::MAX` so capture-order
/// release resumes for the survivors; restart fences the superseded
/// epoch's sequence space and revives the lane.
struct MergeCore {
    /// Wire id of each session, by position.
    ids: Vec<GatewayId>,
    lanes: Vec<SessionLane>,
    merge: FleetMerge<PipelineFrame>,
    metrics: SharedMetrics,
}

impl MergeCore {
    fn new(ids: Vec<GatewayId>, metrics: SharedMetrics) -> Self {
        MergeCore {
            lanes: ids.iter().map(|_| SessionLane::default()).collect(),
            merge: FleetMerge::new(ids.len(), DEDUP_SLACK as u64),
            ids,
            metrics,
        }
    }

    fn lane_index(&self, gateway: GatewayId) -> Option<usize> {
        self.ids.iter().position(|&id| id == gateway)
    }

    /// Feeds one in-order segment result into the merge: offer its
    /// frames (capture order within the segment), advance the session
    /// watermark, return whatever groups became final.
    fn offer_segment(&mut self, index: usize, result: SegmentResult) -> Vec<PipelineFrame> {
        let SegmentResult {
            gateway,
            seq,
            mut frames,
            watermark,
            power,
        } = result;
        let _span = galiot_trace::span(
            galiot_trace::Stage::Reassembly,
            galiot_trace::tag_seq(gateway.0, seq),
        );
        frames.sort_by_key(|pf| pf.frame.start);
        if !frames.is_empty() {
            self.metrics
                .with(|m| *m.per_gateway_decoded.entry(gateway.0).or_default() += frames.len());
        }
        for pf in frames {
            let (tech, start) = (pf.frame.tech, pf.frame.start);
            let payload = pf.frame.payload.clone();
            self.merge.offer(index, tech, &payload, start, power, pf);
        }
        // `None` is a gap notice (lost segment, start unknown): hold
        // the horizon rather than risk releasing a group a late copy
        // could still match. `Some(0)` is genuine progress from a
        // segment starting at capture sample 0 and must advance — the
        // two no longer share a sentinel.
        match watermark {
            Some(wm) => self.merge.advance(index, wm),
            None => Vec::new(),
        }
    }

    /// One decode result from the pool (or a gap notice), drained
    /// in-order through the session's lane.
    fn on_result(&mut self, result: SegmentResult) -> Vec<PipelineFrame> {
        let Some(index) = self.lane_index(result.gateway) else {
            return Vec::new(); // not one of this engine's sessions (defensive)
        };
        let lane = &mut self.lanes[index];
        if lane.dead || result.seq < lane.epoch_floor {
            // Late traffic of a dead or superseded epoch: dropped on
            // the crash's account. Counting its frames into both
            // per_gateway_decoded and crash_lost_frames keeps the
            // delivery identity closed.
            let n = result.frames.len();
            let gw = result.gateway.0;
            self.metrics.with(|m| {
                m.crash_lost_segments += 1;
                if n > 0 {
                    *m.per_gateway_decoded.entry(gw).or_default() += n;
                    m.crash_lost_frames += n;
                }
            });
            return Vec::new();
        }
        // A seq can report twice under the faulty transport (declared
        // lost, then delivered late by a reordering link): first wins.
        if result.seq < lane.next_seq {
            return Vec::new();
        }
        lane.pending.entry(result.seq).or_insert(result);
        self.metrics.with(|m| {
            let depth: usize = self.lanes.iter().map(|l| l.pending.len()).sum();
            m.reassembly_hwm = m.reassembly_hwm.max(depth);
        });
        let mut released = Vec::new();
        loop {
            // Re-borrow per iteration: offer_segment needs &mut self.
            let lane = &mut self.lanes[index];
            let Some(r) = lane.pending.remove(&lane.next_seq) else {
                break;
            };
            lane.next_seq += 1;
            released.extend(self.offer_segment(index, r));
        }
        released
    }

    /// Offers whatever a lane still buffers, in sequence order, gaps
    /// or not: the session will never fill them.
    fn flush_lane(&mut self, index: usize) -> Vec<PipelineFrame> {
        let pending = std::mem::take(&mut self.lanes[index].pending);
        let mut released = Vec::new();
        for (_, r) in pending {
            released.extend(self.offer_segment(index, r));
        }
        released
    }

    /// Death transition: flush the lane's stragglers (the session will
    /// never fill its gaps), then finalize its merge watermark so the
    /// survivors' capture-order release resumes. Idempotent.
    fn on_dead(&mut self, gateway: GatewayId) -> Vec<PipelineFrame> {
        let Some(index) = self.lane_index(gateway) else {
            return Vec::new();
        };
        if self.lanes[index].dead {
            return Vec::new();
        }
        self.lanes[index].dead = true;
        let mut released = self.flush_lane(index);
        released.extend(self.merge.finish(index));
        released
    }

    /// Restart transition: flush pre-crash stragglers, fence the
    /// superseded epoch (`epoch_floor`), and revive a dead lane —
    /// including reopening its merge watermark, the one sanctioned
    /// regression from the finalized `u64::MAX`.
    fn on_restart(&mut self, gateway: GatewayId, seq_base: u64) -> Vec<PipelineFrame> {
        let Some(index) = self.lane_index(gateway) else {
            return Vec::new();
        };
        let released = self.flush_lane(index);
        let lane = &mut self.lanes[index];
        lane.next_seq = seq_base;
        lane.epoch_floor = seq_base;
        if lane.dead {
            lane.dead = false;
            self.merge.reopen(index, 0);
        }
        released
    }

    /// End of input: flush every lane, then retire every session so
    /// the last groups become final. (`FleetMerge::finish` is
    /// idempotent for sessions the reaper already retired.)
    fn finish(&mut self) -> Vec<PipelineFrame> {
        let mut released = Vec::new();
        for index in 0..self.lanes.len() {
            released.extend(self.flush_lane(index));
        }
        for index in 0..self.lanes.len() {
            released.extend(self.merge.finish(index));
        }
        released
    }

    fn suppressed(&self) -> u64 {
        self.merge.suppressed()
    }
}

/// The fleet merge thread: restores each session's emission order,
/// offers every decoded frame to the cross-gateway dedup, emits
/// released groups in capture order (recording frame metrics exactly
/// once per delivered frame) — and runs the liveness reaper, declaring
/// sessions dead after `liveness_horizon` logical events of silence.
fn spawn_merge(
    result_rx: Receiver<ResultMsg>,
    frames_tx: Sender<PipelineFrame>,
    ids: Vec<GatewayId>,
    registry: Arc<SessionRegistry>,
    gate: Arc<FairnessGate>,
    liveness_horizon: u64,
    metrics: SharedMetrics,
) -> thread::JoinHandle<()> {
    spawn_thread("galiot-fleet-merge", move || {
        let mut core = MergeCore::new(ids, metrics.clone());

        let emit = |released: Vec<PipelineFrame>, merge_suppressed: u64| -> bool {
            metrics.with(|m| {
                m.dedup_suppressed = merge_suppressed as usize;
                m.fleet_delivered += released.len();
                for pf in &released {
                    m.record_frame(&pf.frame, pf.at_edge, pf.via_kill);
                }
            });
            for pf in released {
                if frames_tx.send(pf).is_err() {
                    return false;
                }
            }
            true
        };

        while let Ok(msg) = result_rx.recv() {
            let released = match msg {
                ResultMsg::Segment(result) => {
                    // Proof of life: a result reaching the merge
                    // means the session's pipeline is flowing.
                    registry.heartbeat(result.gateway);
                    let mut rel = core.on_result(result);
                    // The liveness reaper piggybacks on result
                    // traffic: silence is only measurable while
                    // the rest of the fleet advances the logical
                    // clock, which is exactly when a stalled
                    // watermark blocks survivors. A session still
                    // holding pool credits has results on the way
                    // (the credit is dropped only after the result
                    // is queued here) — only quiesced silence is
                    // death.
                    if liveness_horizon > 0 {
                        for gw in registry.stale(liveness_horizon) {
                            if gate.held(gw) == 0
                                && registry.mark_dead_if_stale(gw, liveness_horizon)
                            {
                                gate.revoke(gw);
                                rel.extend(core.on_dead(gw));
                            }
                        }
                    }
                    rel
                }
                ResultMsg::SessionRestarted { gateway, seq_base } => {
                    registry.heartbeat(gateway);
                    core.on_restart(gateway, seq_base)
                }
            };
            if !emit(released, core.suppressed()) {
                return;
            }
        }

        // Producers are gone: flush the stragglers and retire
        // every session so the last groups become final.
        let released = core.finish();
        let _ = emit(released, core.suppressed());
    })
    .unwrap_or_else(|e| panic!("fleet merge startup: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use galiot_channel::{compose, snr_to_noise_power, TxEvent};
    use galiot_phy::TechId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FS: f64 = 1_000_000.0;

    fn capture(seed: u64) -> galiot_channel::Capture {
        let mut rng = StdRng::seed_from_u64(seed);
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let zwave = reg.get(TechId::ZWave).unwrap().clone();
        let events = vec![
            TxEvent::new(xbee, vec![0xA1, 0xB2], 200_000),
            TxEvent::new(zwave, vec![0x5C; 4], 800_000),
        ];
        let np = snr_to_noise_power(18.0, 0.0);
        compose(&events, 1_400_000, FS, np, &mut rng)
    }

    fn run_fleet(
        config: GaliotConfig,
        cap: &galiot_channel::Capture,
    ) -> (Vec<PipelineFrame>, crate::Metrics) {
        let fleet = FleetGaliot::start(config, Registry::prototype());
        for chunk in cap.samples.chunks(65_536) {
            fleet.push_chunk(chunk.to_vec());
        }
        let metrics = fleet.metrics().clone();
        let frames = fleet.finish();
        (frames, metrics.snapshot())
    }

    #[test]
    fn two_gateways_deliver_the_frame_set_exactly_once() {
        let cap = capture(11);
        // Edge decoding off: every segment must flow through the
        // sharded ingest, so the mux accounting is exercised.
        let mut config = GaliotConfig::prototype()
            .with_cloud_workers(2)
            .with_gateways(2);
        config.edge_decoding = false;
        let (frames, m) = run_fleet(config, &cap);
        let payloads: Vec<&Vec<u8>> = frames.iter().map(|f| &f.frame.payload).collect();
        assert!(payloads.contains(&&vec![0xA1, 0xB2]), "{payloads:?}");
        assert!(payloads.contains(&&vec![0x5C; 4]), "{payloads:?}");
        assert_eq!(frames.len(), 2, "duplicates leaked: {payloads:?}");
        assert_eq!(m.fleet_gateways, 2);
        assert_eq!(m.fleet_delivered, 2);
        assert!(
            m.dedup_suppressed >= 2,
            "each frame decodes once per gateway: {m:?}"
        );
        let offered: usize = m.per_gateway_decoded.values().sum();
        assert_eq!(
            offered,
            m.fleet_delivered + m.dedup_suppressed + m.crash_lost_frames + m.quarantined_frames,
            "{m:?}"
        );
        assert_eq!(m.sessions_crashed, 0, "{m:?}");
        assert_eq!(m.crash_lost_segments, 0, "{m:?}");
        // Both sessions show up in the ingest accounting.
        assert_eq!(m.per_gateway_segments.len(), 2, "{m:?}");
    }

    #[test]
    fn fleet_frames_arrive_in_capture_order() {
        let cap = capture(12);
        let config = GaliotConfig::prototype()
            .with_cloud_workers(4)
            .with_gateways(3)
            .with_ingest_shards(7);
        let (frames, m) = run_fleet(config, &cap);
        let starts: Vec<usize> = frames.iter().map(|f| f.frame.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted, "fleet output out of capture order");
        assert_eq!(m.ingest_shards, 7);
        let offered: usize = m.per_gateway_decoded.values().sum();
        assert_eq!(
            offered,
            m.fleet_delivered + m.dedup_suppressed + m.crash_lost_frames + m.quarantined_frames,
            "{m:?}"
        );
    }

    #[test]
    fn session_registry_tracks_every_gateway() {
        let cap = capture(13);
        let config = GaliotConfig::prototype()
            .with_cloud_workers(2)
            .with_gateways(2);
        let fleet = FleetGaliot::start(config, Registry::prototype());
        for chunk in cap.samples.chunks(65_536) {
            fleet.push_chunk(chunk.to_vec());
        }
        let sessions_early = fleet.sessions();
        let _ = fleet.finish();
        assert_eq!(sessions_early.len(), 2);
        assert!(sessions_early.iter().all(|s| s.epoch > 0));
        assert!(sessions_early.iter().all(|s| !s.dead));
        assert_eq!(sessions_early[0].gateway, GatewayId(1));
        assert_eq!(sessions_early[1].gateway, GatewayId(2));
    }

    #[test]
    fn empty_fleet_run_is_clean() {
        let fleet = FleetGaliot::start(
            GaliotConfig::prototype()
                .with_gateways(2)
                .with_cloud_workers(1),
            Registry::prototype(),
        );
        let frames = fleet.finish();
        assert!(frames.is_empty());
    }

    // -----------------------------------------------------------------
    // MergeCore unit tests: the failover state machine without threads.
    // -----------------------------------------------------------------

    fn frame(tech: TechId, payload: &[u8], start: usize) -> PipelineFrame {
        PipelineFrame {
            frame: galiot_phy::DecodedFrame {
                tech,
                payload: payload.to_vec(),
                start,
                len: 100,
            },
            at_edge: false,
            via_kill: false,
        }
    }

    fn seg(gw: u16, seq: u64, frames: Vec<PipelineFrame>, watermark: Option<u64>) -> SegmentResult {
        SegmentResult {
            gateway: GatewayId(gw),
            seq,
            frames,
            watermark,
            power: 1.0,
        }
    }

    #[test]
    fn watermark_zero_advances_but_gap_notice_holds() {
        // Regression for the release-gate bug: a segment starting at
        // capture sample 0 used to be indistinguishable from a lost
        // segment's gap notice (both watermark 0), holding the fleet
        // horizon back. With Option watermarks, Some(0) is progress.
        let metrics = SharedMetrics::new();
        let mut core = MergeCore::new(fleet_ids(2), metrics);
        // Session 1 decodes a frame at capture start 0 and reports
        // watermark Some(0); session 2 has already advanced past it.
        let rel = core.on_result(seg(1, 0, vec![frame(TechId::XBee, &[1], 0)], Some(0)));
        assert!(rel.is_empty(), "session 2 has not spoken yet");
        let rel = core.on_result(seg(2, 0, Vec::new(), Some(50_000)));
        assert!(
            rel.is_empty(),
            "session 1's Some(0) watermark must hold the group (0 + slack > 0)"
        );
        // Session 1 advances past the group: both sessions' watermarks
        // now clear start 0 + slack, so the frame releases mid-stream.
        let rel = core.on_result(seg(1, 1, Vec::new(), Some(50_000)));
        assert_eq!(rel.len(), 1, "Some(0) then Some(50k) must release");
        // A gap notice (None) must NOT advance: session 1's next
        // report is a loss, and a frame offered at its frontier stays
        // held even though both numeric watermarks would clear it.
        let rel = core.on_result(seg(
            2,
            1,
            vec![frame(TechId::XBee, &[2], 60_000)],
            Some(70_000),
        ));
        assert!(rel.is_empty());
        let rel = core.on_result(seg(1, 2, Vec::new(), None));
        assert!(rel.is_empty(), "gap notice must not release anything");
        let rel = core.finish();
        assert_eq!(rel.len(), 1, "finish releases the held frame");
    }

    #[test]
    fn sole_session_releases_each_segment_as_it_completes_in_order() {
        // One session, wire id 0 (the `StreamingGaliot` topology):
        // lanes are addressed by position, so gateway 0's results are
        // not dropped, and nothing waits for a later watermark.
        let metrics = SharedMetrics::new();
        let mut core = MergeCore::new(vec![GatewayId(0)], metrics.clone());
        let first = frame(TechId::XBee, &[1], 5_000);
        let rel = core.on_result(seg(0, 0, vec![first], Some(4_000)));
        assert_eq!(rel.len(), 1, "released by the call that offered it");
        // Out-of-order completion still waits for the gap to fill.
        let late = frame(TechId::XBee, &[3], 90_000);
        assert!(core
            .on_result(seg(0, 2, vec![late], Some(89_000)))
            .is_empty());
        // Seq 1 re-decodes frame [1] from an overlapping window: the
        // repeat is suppressed, its own frame and seq 2's release.
        let repeat = frame(TechId::XBee, &[1], 5_004);
        let second = frame(TechId::ZWave, &[2], 40_000);
        let rel = core.on_result(seg(0, 1, vec![second, repeat], Some(4_500)));
        let starts: Vec<usize> = rel.iter().map(|pf| pf.frame.start).collect();
        assert_eq!(starts, vec![40_000, 90_000]);
        assert_eq!(core.suppressed(), 1);
        assert!(core.finish().is_empty(), "nothing was held back");
        let m = metrics.snapshot();
        assert_eq!(m.per_gateway_decoded.get(&0), Some(&4), "{m:?}");
    }

    #[test]
    fn dead_session_watermark_finalizes_and_releases_survivors() {
        // The tentpole stall: session 2 dies silently at watermark 0;
        // session 1 keeps streaming. Without the death transition the
        // merge would hold every group behind session 2's frozen
        // watermark until teardown.
        let metrics = SharedMetrics::new();
        let mut core = MergeCore::new(fleet_ids(2), metrics.clone());
        let rel = core.on_result(seg(
            1,
            0,
            vec![frame(TechId::ZWave, &[7; 4], 10_000)],
            Some(10_000),
        ));
        assert!(rel.is_empty());
        let rel = core.on_result(seg(1, 1, Vec::new(), Some(90_000)));
        assert!(
            rel.is_empty(),
            "survivor frames stall behind the silent session"
        );
        let rel = core.on_dead(GatewayId(2));
        assert_eq!(rel.len(), 1, "death finalizes the watermark mid-stream");
        // Idempotent: a second death report changes nothing.
        assert!(core.on_dead(GatewayId(2)).is_empty());
        // Survivor traffic keeps releasing promptly afterwards.
        let rel = core.on_result(seg(
            1,
            2,
            vec![frame(TechId::ZWave, &[8; 4], 100_000)],
            Some(100_000),
        ));
        let rel2 = core.on_result(seg(1, 3, Vec::new(), Some(200_000)));
        assert_eq!(rel.len() + rel2.len(), 1, "post-death flow is unblocked");
    }

    #[test]
    fn restart_fences_superseded_epoch_and_revives_lane() {
        let metrics = SharedMetrics::new();
        let mut core = MergeCore::new(fleet_ids(2), metrics.clone());
        let seq_base = 1u64 << galiot_trace::EPOCH_SHIFT;
        let mut delivered = 0usize;
        // Old epoch delivers seq 0, then the session dies.
        delivered += core
            .on_result(seg(
                1,
                0,
                vec![frame(TechId::XBee, &[1], 5_000)],
                Some(5_000),
            ))
            .len();
        delivered += core.on_dead(GatewayId(1)).len();
        // Restart under the bumped epoch.
        delivered += core.on_restart(GatewayId(1), seq_base).len();
        // A late old-epoch result (seq below the floor) is dropped and
        // accounted to the crash, frames included.
        let rel = core.on_result(seg(
            1,
            1,
            vec![frame(TechId::XBee, &[9], 8_000)],
            Some(8_000),
        ));
        assert!(rel.is_empty());
        let m = metrics.snapshot();
        assert_eq!(m.crash_lost_segments, 1, "{m:?}");
        assert_eq!(m.crash_lost_frames, 1, "{m:?}");
        // The new epoch's traffic flows from seq_base.
        delivered += core
            .on_result(seg(
                1,
                seq_base,
                vec![frame(TechId::XBee, &[2], 20_000)],
                Some(20_000),
            ))
            .len();
        delivered += core.on_result(seg(2, 0, Vec::new(), Some(90_000))).len();
        let rel = core.on_result(seg(1, seq_base + 1, Vec::new(), Some(90_000)));
        assert_eq!(rel.len(), 1, "revived lane releases new-epoch frames");
        delivered += rel.len();
        // Identity: every decoded frame is delivered, suppressed, or
        // crash-lost.
        delivered += core.finish().len();
        let m = metrics.snapshot();
        let offered: usize = m.per_gateway_decoded.values().sum();
        assert_eq!(
            offered,
            delivered + core.suppressed() as usize + m.crash_lost_frames + m.quarantined_frames,
            "{m:?}"
        );
    }

    #[test]
    fn dead_lane_drops_results_on_the_crash_account() {
        let metrics = SharedMetrics::new();
        let mut core = MergeCore::new(fleet_ids(1), metrics.clone());
        let _ = core.on_dead(GatewayId(1));
        let rel = core.on_result(seg(
            1,
            0,
            vec![frame(TechId::XBee, &[3], 1_000)],
            Some(1_000),
        ));
        assert!(rel.is_empty());
        let rel = core.on_result(seg(1, 1, Vec::new(), None));
        assert!(rel.is_empty(), "late gap notices count to the crash too");
        let m = metrics.snapshot();
        assert_eq!(m.crash_lost_segments, 2, "{m:?}");
        assert_eq!(m.crash_lost_frames, 1, "{m:?}");
        assert_eq!(m.per_gateway_decoded.get(&1), Some(&1), "{m:?}");
    }
}
