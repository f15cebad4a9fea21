//! Multi-gateway cloud ingest: session registry, shard routing,
//! per-gateway fairness, and cross-gateway duplicate suppression.
//!
//! The paper's deployment shape is many cheap SDR gateways feeding one
//! cloud decoder, which means the ingest tier — not the radio — is
//! where fleet-scale correctness lives. Four concerns, four pieces:
//!
//! 1. [`SessionRegistry`] — who is talking: one record per gateway
//!    session (epoch, last-seen, segment count), so sequence spaces
//!    are namespaced per session and a rebooted gateway gets a fresh
//!    epoch instead of colliding with its past self.
//! 2. [`shard_for`] — where a segment decodes: a deterministic hash of
//!    (gateway, seq) onto `shards`, spreading one gateway's burst
//!    across the worker pool while keeping routing reproducible.
//! 3. [`FairnessGate`] — per-gateway in-flight credit: one pathological
//!    link retransmitting furiously can hold at most its quota of
//!    decode slots, so it degrades itself, not the fleet.
//! 4. [`FleetMerge`] — exactly-once delivery: N gateways hearing the
//!    same over-the-air frame produce N decoded copies; the merge
//!    keeps the best-power copy, counts the rest as suppressed, and
//!    releases frames in capture order once every session's watermark
//!    has moved past them.
//!
//! Everything here is generic over the carried frame type so the core
//! pipeline crate (which this crate cannot depend on) can thread its
//! own frame records through.

use galiot_phy::TechId;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A gateway identity as carried on the wire.
pub use galiot_gateway::backhaul::GatewayId;

// ---------------------------------------------------------------------
// Session registry
// ---------------------------------------------------------------------

/// A point-in-time view of one gateway session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionInfo {
    /// The session's gateway identity.
    pub gateway: GatewayId,
    /// Monotone registration counter: a gateway that re-registers
    /// (reboot, reconnect) gets a larger epoch than every session
    /// registered before it.
    pub epoch: u64,
    /// Logical timestamp (registry-wide touch counter) of the last
    /// segment seen from this session. 0 = never heard from.
    pub last_seen: u64,
    /// Segments ingested from this session so far.
    pub segments: u64,
    /// Declared dead by liveness tracking; a dead session stays dead
    /// until it re-registers under a fresh epoch.
    pub dead: bool,
}

#[derive(Default)]
struct SessionRecord {
    epoch: u64,
    last_seen: u64,
    segments: u64,
    dead: bool,
}

/// Tracks every gateway session feeding the cloud.
///
/// "Time" here is a logical counter bumped on every touch, not a wall
/// clock: the registry is part of a deterministic pipeline and its
/// observable state must not depend on scheduler timing.
#[derive(Default)]
pub struct SessionRegistry {
    clock: AtomicU64,
    epochs: AtomicU64,
    sessions: Mutex<HashMap<GatewayId, SessionRecord>>,
}

impl SessionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-registers) a gateway session, returning its
    /// epoch. Re-registration resets the segment count (the old
    /// session's traffic is not the new session's), revives a session
    /// previously declared dead, and stamps last-seen so a freshly
    /// booted gateway gets a full silence horizon before liveness can
    /// evict it.
    pub fn register(&self, gateway: GatewayId) -> u64 {
        let epoch = self.epochs.fetch_add(1, Ordering::Relaxed) + 1;
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut sessions = self.sessions.lock().unwrap();
        let rec = sessions.entry(gateway).or_default();
        rec.epoch = epoch;
        rec.segments = 0;
        rec.last_seen = now;
        rec.dead = false;
        epoch
    }

    /// Records one ingested segment from `gateway`, stamping its
    /// last-seen logical time. Unregistered gateways are admitted
    /// with epoch 0 — the wire does not wait for bookkeeping.
    pub fn touch(&self, gateway: GatewayId) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut sessions = self.sessions.lock().unwrap();
        let rec = sessions.entry(gateway).or_default();
        rec.last_seen = now;
        rec.segments += 1;
    }

    /// Epoch-fenced [`touch`](Self::touch): records the segment only
    /// if the session is alive and still on `epoch`. Returns `false`
    /// — without stamping anything — when the session is dead or has
    /// re-registered under a newer epoch, i.e. when the segment is
    /// stale in-flight traffic from a crashed instance and must be
    /// dropped at the mux.
    pub fn touch_current(&self, gateway: GatewayId, epoch: u64) -> bool {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut sessions = self.sessions.lock().unwrap();
        let rec = sessions.entry(gateway).or_default();
        if rec.dead || rec.epoch != epoch {
            return false;
        }
        rec.last_seen = now;
        rec.segments += 1;
        true
    }

    /// Stamps `gateway`'s last-seen time without counting a segment:
    /// proof of life from downstream (a decode result reaching the
    /// merge), as opposed to ingest-side admission.
    pub fn heartbeat(&self, gateway: GatewayId) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut sessions = self.sessions.lock().unwrap();
        let rec = sessions.entry(gateway).or_default();
        rec.last_seen = now;
    }

    /// Alive sessions whose silence exceeds `horizon` logical events,
    /// ordered by gateway. Dead sessions are not re-reported.
    pub fn stale(&self, horizon: u64) -> Vec<GatewayId> {
        let now = self.clock.load(Ordering::Relaxed);
        let sessions = self.sessions.lock().unwrap();
        let mut out: Vec<GatewayId> = sessions
            .iter()
            .filter(|(_, rec)| !rec.dead && now.saturating_sub(rec.last_seen) > horizon)
            .map(|(&gateway, _)| gateway)
            .collect();
        out.sort();
        out
    }

    /// Declares `gateway` dead if — checked atomically under the
    /// registry lock — it is still alive and still silent past
    /// `horizon`. Returns whether the session transitioned to dead
    /// here; `false` means it revived (re-registered or produced
    /// traffic) between the caller's staleness probe and this call.
    pub fn mark_dead_if_stale(&self, gateway: GatewayId, horizon: u64) -> bool {
        let now = self.clock.load(Ordering::Relaxed);
        let mut sessions = self.sessions.lock().unwrap();
        let rec = sessions.entry(gateway).or_default();
        if rec.dead || now.saturating_sub(rec.last_seen) <= horizon {
            return false;
        }
        rec.dead = true;
        true
    }

    /// Point-in-time view of every known session, ordered by gateway.
    pub fn snapshot(&self) -> Vec<SessionInfo> {
        let sessions = self.sessions.lock().unwrap();
        let mut out: Vec<SessionInfo> = sessions
            .iter()
            .map(|(&gateway, rec)| SessionInfo {
                gateway,
                epoch: rec.epoch,
                last_seen: rec.last_seen,
                segments: rec.segments,
                dead: rec.dead,
            })
            .collect();
        out.sort_by_key(|s| s.gateway);
        out
    }
}

// ---------------------------------------------------------------------
// Shard routing
// ---------------------------------------------------------------------

/// Routes one segment to a decode shard: a splitmix64 finalizer over
/// the (gateway, seq) pair, reduced onto `shards`.
///
/// Deterministic (the fleet conformance suite replays routing across
/// runs), well-spread (consecutive seqs from one gateway land on
/// different shards, so a burst fans out across the pool), and
/// session-scoped (two gateways' identical seqs are independent).
pub fn shard_for(gateway: GatewayId, seq: u64, shards: usize) -> usize {
    let mut x = ((gateway.0 as u64) << 48) ^ seq;
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards.max(1) as u64) as usize
}

// ---------------------------------------------------------------------
// Per-gateway fairness
// ---------------------------------------------------------------------

struct GateState {
    in_flight: HashMap<u16, usize>,
}

/// Per-gateway in-flight credit gate in front of the shared decode
/// pool.
///
/// Each session may hold at most `quota` segments in flight between
/// its mux and the workers; `acquire` blocks the *offending session's*
/// mux thread (backpressure flows up its own transport, eventually
/// shedding at its own send queue) while every other session routes
/// freely. That is the fairness property: a pathological link starves
/// itself, not the fleet.
pub struct FairnessGate {
    state: Mutex<GateState>,
    freed: Condvar,
    quota: usize,
}

impl FairnessGate {
    /// Creates a gate granting each gateway `quota` in-flight credits
    /// (min 1).
    pub fn new(quota: usize) -> Self {
        FairnessGate {
            state: Mutex::new(GateState {
                in_flight: HashMap::new(),
            }),
            freed: Condvar::new(),
            quota: quota.max(1),
        }
    }

    /// Takes one credit for `gateway` as an RAII guard, blocking while
    /// the session is at quota. The credit is returned when the guard
    /// drops — on every path, including a panicking decode worker or a
    /// segment discarded in a queue at teardown, so no path can leak a
    /// credit and starve the session.
    pub fn acquire_guard(self: &Arc<Self>, gateway: GatewayId) -> CreditGuard {
        self.acquire(gateway);
        CreditGuard {
            gate: Arc::clone(self),
            gateway,
        }
    }

    /// Takes one credit for `gateway`, blocking while the session is
    /// at quota.
    fn acquire(&self, gateway: GatewayId) {
        let mut st = self.state.lock().unwrap();
        loop {
            let held = st.in_flight.entry(gateway.0).or_insert(0);
            if *held < self.quota {
                *held += 1;
                return;
            }
            st = self.freed.wait(st).unwrap();
        }
    }

    /// Returns one credit for `gateway`.
    pub fn release(&self, gateway: GatewayId) {
        let mut st = self.state.lock().unwrap();
        if let Some(held) = st.in_flight.get_mut(&gateway.0) {
            *held = held.saturating_sub(1);
        }
        drop(st);
        self.freed.notify_all();
    }

    /// Reclaims every credit `gateway` currently holds (session
    /// declared dead), returning how many were reclaimed. Guards the
    /// dead session still holds release harmlessly later:
    /// [`release`](Self::release) saturates at zero.
    pub fn revoke(&self, gateway: GatewayId) -> usize {
        let mut st = self.state.lock().unwrap();
        let reclaimed = st.in_flight.insert(gateway.0, 0).unwrap_or(0);
        drop(st);
        self.freed.notify_all();
        reclaimed
    }

    /// Credits currently held by `gateway` (test/diagnostic hook).
    pub fn held(&self, gateway: GatewayId) -> usize {
        *self
            .state
            .lock()
            .unwrap()
            .in_flight
            .get(&gateway.0)
            .unwrap_or(&0)
    }
}

/// One [`FairnessGate`] credit held by a segment in flight between its
/// session's mux and a decode worker. Dropping the guard returns the
/// credit; attach it to the segment so whoever drops the segment —
/// worker, panicking worker, or a torn-down queue — returns the credit
/// with it.
pub struct CreditGuard {
    gate: Arc<FairnessGate>,
    gateway: GatewayId,
}

impl Drop for CreditGuard {
    fn drop(&mut self) {
        self.gate.release(self.gateway);
    }
}

impl std::fmt::Debug for CreditGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CreditGuard")
            .field("gateway", &self.gateway)
            .finish()
    }
}

// ---------------------------------------------------------------------
// Cross-gateway duplicate suppression
// ---------------------------------------------------------------------

/// One decoded copy awaiting release, with the copies it absorbed.
struct Group<T> {
    tech: TechId,
    payload: Vec<u8>,
    /// Capture start of the first copy seen; later copies match within
    /// `slack` of this.
    start: u64,
    best_power: f32,
    best_gateway: usize,
    order: u64,
    item: T,
}

/// Cross-gateway exactly-once merge.
///
/// Every gateway hears (roughly) the same air, so the same over-the-air
/// frame arrives once per gateway — and possibly more than once per
/// gateway when overlapping segments both decode it. Copies are
/// identified by `(tech, payload)` plus a time-of-arrival window of
/// `slack` samples; the copy with the highest reported power (best
/// receive SNR) is delivered, the rest increment
/// [`suppressed`](FleetMerge::suppressed).
///
/// Release is watermark-driven, which is what makes delivery both
/// exactly-once and deterministic: each session advances a watermark —
/// the capture start of its newest in-order-completed segment, a
/// non-decreasing quantity — and a group is released only once every
/// session's watermark has moved `slack` past the group's start. At
/// that point no session can still produce a matching copy (a frame
/// from a future segment starts at or after that session's watermark,
/// hence at least `slack` past the group), so the winner is final no
/// matter how decode shards interleave across gateways.
///
/// A merge over a single session waits for nobody: every
/// [`advance`](FleetMerge::advance) releases all it has been offered,
/// so a one-gateway pipeline delivers a segment's frames as soon as
/// that segment completes in order.
pub struct FleetMerge<T> {
    slack: u64,
    /// Per-session watermark; `u64::MAX` once the session finished.
    progress: Vec<u64>,
    pending: Vec<Group<T>>,
    /// Identities of the most recently released groups. The watermark
    /// invariant makes a post-release duplicate impossible from a
    /// session that only ever moves forward — but a session revived by
    /// [`reopen`](Self::reopen) after a crash/restart race replays air
    /// the fleet already delivered, and its copies must be suppressed,
    /// not re-released.
    released_recent: VecDeque<(TechId, Vec<u8>, u64)>,
    next_order: u64,
    suppressed: u64,
    delivered: u64,
}

/// Released-group identities remembered for revived-session dedup.
const RELEASED_MEMORY: usize = 256;

impl<T> FleetMerge<T> {
    /// Creates a merge over `n_gateways` sessions with a duplicate
    /// time-of-arrival window of `slack` samples.
    pub fn new(n_gateways: usize, slack: u64) -> Self {
        FleetMerge {
            slack,
            progress: vec![0; n_gateways.max(1)],
            pending: Vec::new(),
            released_recent: VecDeque::new(),
            next_order: 0,
            suppressed: 0,
            delivered: 0,
        }
    }

    /// Offers one decoded copy from session `gateway` (0-based index,
    /// not the wire id). `start` is in absolute capture samples;
    /// `power` is the copy's mean received power.
    pub fn offer(
        &mut self,
        gateway: usize,
        tech: TechId,
        payload: &[u8],
        start: usize,
        power: f32,
        item: T,
    ) {
        let start = start as u64;
        if self
            .released_recent
            .iter()
            .any(|(t, p, s)| *t == tech && s.abs_diff(start) < self.slack && *p == *payload)
        {
            self.suppressed += 1;
            return;
        }
        for g in &mut self.pending {
            if g.tech == tech && g.start.abs_diff(start) < self.slack && g.payload == *payload {
                self.suppressed += 1;
                // Keep the best-SNR copy; ties go to the lowest
                // session index so the winner does not depend on
                // cross-thread arrival order.
                if power > g.best_power || (power == g.best_power && gateway < g.best_gateway) {
                    g.best_power = power;
                    g.best_gateway = gateway;
                    g.item = item;
                }
                return;
            }
        }
        self.pending.push(Group {
            tech,
            payload: payload.to_vec(),
            start,
            best_power: power,
            best_gateway: gateway,
            order: self.next_order,
            item,
        });
        self.next_order += 1;
    }

    /// Raises session `gateway`'s watermark to `watermark` (absolute
    /// capture samples; watermarks never regress) and returns every
    /// group that became final, in capture order.
    pub fn advance(&mut self, gateway: usize, watermark: u64) -> Vec<T> {
        let p = &mut self.progress[gateway];
        *p = (*p).max(watermark);
        self.drain_final()
    }

    /// Marks session `gateway` as finished — it will never offer
    /// again — and returns every group that became final. This is also
    /// the failover finalization rule: declaring a dead session
    /// finished removes it from the release horizon so capture-order
    /// delivery resumes for the survivors instead of stalling forever
    /// on a watermark that will never advance.
    pub fn finish(&mut self, gateway: usize) -> Vec<T> {
        self.progress[gateway] = u64::MAX;
        self.drain_final()
    }

    /// Re-admits a previously [`finish`](Self::finish)ed session to
    /// the release horizon with its watermark regressed to
    /// `watermark` — the one sanctioned regression, used when a
    /// session declared dead comes back (gateway restart racing the
    /// liveness verdict). Re-offers of already-released air are caught
    /// by the release memory, so exactly-once delivery survives the
    /// revival.
    pub fn reopen(&mut self, gateway: usize, watermark: u64) {
        self.progress[gateway] = watermark;
    }

    fn drain_final(&mut self) -> Vec<T> {
        // A sole session has no peer copy to wait for: whatever it has
        // offered is final now (first copy wins; repeats decoded from
        // its later, overlapping segments hit the release memory).
        let horizon = if self.progress.len() == 1 {
            u64::MAX
        } else {
            self.progress.iter().copied().min().unwrap_or(u64::MAX)
        };
        if self
            .pending
            .iter()
            .all(|g| g.start.saturating_add(self.slack) > horizon)
        {
            return Vec::new();
        }
        let mut released: Vec<Group<T>> = Vec::new();
        let mut keep: Vec<Group<T>> = Vec::new();
        for g in self.pending.drain(..) {
            if g.start.saturating_add(self.slack) <= horizon {
                released.push(g);
            } else {
                keep.push(g);
            }
        }
        self.pending = keep;
        released.sort_by_key(|g| (g.start, g.order));
        self.delivered += released.len() as u64;
        for g in &released {
            self.released_recent
                .push_back((g.tech, g.payload.clone(), g.start));
        }
        while self.released_recent.len() > RELEASED_MEMORY {
            self.released_recent.pop_front();
        }
        released.into_iter().map(|g| g.item).collect()
    }

    /// Copies absorbed as duplicates so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Groups released so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_epochs_are_monotone_and_reregistration_resets_counts() {
        let reg = SessionRegistry::new();
        let e1 = reg.register(GatewayId(1));
        let e2 = reg.register(GatewayId(2));
        assert!(e2 > e1);
        reg.touch(GatewayId(1));
        reg.touch(GatewayId(1));
        reg.touch(GatewayId(2));
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].segments, 2);
        assert!(snap[1].last_seen > snap[0].last_seen, "{snap:?}");
        // Reboot: fresh epoch, counters reset, identity preserved.
        let e1b = reg.register(GatewayId(1));
        assert!(e1b > e2);
        let snap = reg.snapshot();
        assert_eq!(snap[0].epoch, e1b);
        assert_eq!(snap[0].segments, 0);
    }

    #[test]
    fn shard_routing_is_deterministic_spread_and_session_scoped() {
        for shards in [1usize, 2, 7, 16] {
            let mut hit = vec![0usize; shards];
            for seq in 0..256u64 {
                let s = shard_for(GatewayId(3), seq, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for(GatewayId(3), seq, shards));
                hit[s] += 1;
            }
            // No empty shard over a dense burst of 256 seqs.
            assert!(hit.iter().all(|&h| h > 0), "shards={shards} hit={hit:?}");
        }
        // Same seq, different session → generally a different route.
        let diverge = (0..64u64)
            .filter(|&s| shard_for(GatewayId(1), s, 8) != shard_for(GatewayId(2), s, 8))
            .count();
        assert!(diverge > 32, "only {diverge}/64 diverged");
    }

    #[test]
    fn fairness_gate_blocks_only_the_over_quota_session() {
        let gate = FairnessGate::new(2);
        gate.acquire(GatewayId(1));
        gate.acquire(GatewayId(1));
        // Gateway 1 is at quota; gateway 2 is unaffected.
        gate.acquire(GatewayId(2));
        assert_eq!(gate.held(GatewayId(1)), 2);
        assert_eq!(gate.held(GatewayId(2)), 1);
        gate.release(GatewayId(1));
        gate.acquire(GatewayId(1));
        assert_eq!(gate.held(GatewayId(1)), 2);
    }

    #[test]
    fn fairness_gate_wakes_blocked_acquirer_on_release() {
        use std::sync::Arc;
        let gate = Arc::new(FairnessGate::new(1));
        gate.acquire(GatewayId(5));
        let g2 = gate.clone();
        let waiter = std::thread::spawn(move || g2.acquire(GatewayId(5)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        gate.release(GatewayId(5));
        waiter.join().unwrap();
        assert_eq!(gate.held(GatewayId(5)), 1);
    }

    #[test]
    fn merge_delivers_best_power_copy_exactly_once() {
        let mut m: FleetMerge<&'static str> = FleetMerge::new(2, 100);
        m.offer(0, TechId::ZWave, b"hello", 1000, 0.5, "gw0-copy");
        m.offer(1, TechId::ZWave, b"hello", 1010, 0.9, "gw1-copy");
        assert!(m.advance(0, 900).is_empty(), "horizon below start");
        assert!(m.advance(1, 5000).is_empty(), "gateway 0 still behind");
        let out = m.advance(0, 5000);
        assert_eq!(out, vec!["gw1-copy"], "higher power must win");
        assert_eq!(m.suppressed(), 1);
        assert_eq!(m.delivered(), 1);
    }

    #[test]
    fn merge_power_tie_breaks_to_lowest_session_either_arrival_order() {
        for flip in [false, true] {
            let mut m: FleetMerge<u32> = FleetMerge::new(2, 100);
            let offers = [(0usize, 10u32), (1usize, 11u32)];
            let order = if flip { [1, 0] } else { [0, 1] };
            for &i in &order {
                let (gw, item) = offers[i];
                m.offer(gw, TechId::XBee, b"t", 50, 0.7, item);
            }
            let out = m
                .finish(0)
                .into_iter()
                .chain(m.finish(1))
                .collect::<Vec<_>>();
            assert_eq!(out, vec![10], "flip={flip}: session 0 must win ties");
        }
    }

    #[test]
    fn merge_separates_frames_outside_the_window_and_orders_releases() {
        let mut m: FleetMerge<u64> = FleetMerge::new(1, 100);
        // Same payload, far apart in time: two distinct frames.
        m.offer(0, TechId::ZWave, b"re", 5000, 0.5, 2);
        m.offer(0, TechId::ZWave, b"re", 200, 0.5, 1);
        // Different payload inside the window: also distinct.
        m.offer(0, TechId::ZWave, b"other", 210, 0.5, 3);
        let out = m.finish(0);
        assert_eq!(out, vec![1, 3, 2], "capture order, no false merges");
        assert_eq!(m.suppressed(), 0);
    }

    #[test]
    fn merge_same_gateway_overlap_duplicates_are_suppressed() {
        let mut m: FleetMerge<u8> = FleetMerge::new(1, 4096);
        m.offer(0, TechId::XBee, b"dup", 10_000, 0.4, 1);
        m.offer(0, TechId::XBee, b"dup", 10_008, 0.4, 2);
        let out = m.finish(0);
        assert_eq!(out, vec![1]);
        assert_eq!(m.suppressed(), 1);
    }

    #[test]
    fn registry_declares_silent_sessions_dead_and_register_revives() {
        let reg = SessionRegistry::new();
        reg.register(GatewayId(1));
        reg.register(GatewayId(2));
        // Gateway 2 keeps talking; gateway 1 goes silent.
        for _ in 0..6 {
            reg.touch(GatewayId(2));
        }
        assert_eq!(reg.stale(5), vec![GatewayId(1)]);
        assert!(reg.stale(100).is_empty(), "inside horizon = alive");
        assert!(reg.mark_dead_if_stale(GatewayId(1), 5));
        assert!(!reg.mark_dead_if_stale(GatewayId(1), 5), "already dead");
        assert!(reg.stale(5).is_empty(), "dead sessions are not re-reported");
        let snap = reg.snapshot();
        assert!(snap[0].dead && !snap[1].dead, "{snap:?}");
        // Revival: a fresh registration clears the verdict and grants a
        // full horizon of silence before liveness can fire again.
        reg.register(GatewayId(1));
        assert!(!reg.snapshot()[0].dead);
        assert!(!reg.mark_dead_if_stale(GatewayId(1), 5));
    }

    #[test]
    fn touch_current_fences_stale_epochs_and_dead_sessions() {
        let reg = SessionRegistry::new();
        let e1 = reg.register(GatewayId(7));
        assert!(reg.touch_current(GatewayId(7), e1));
        let e2 = reg.register(GatewayId(7));
        assert!(!reg.touch_current(GatewayId(7), e1), "stale epoch fenced");
        assert!(reg.touch_current(GatewayId(7), e2));
        assert_eq!(reg.snapshot()[0].epoch, e2);
        assert_eq!(reg.snapshot()[0].segments, 1, "fenced touch must not count");
        // A dead session admits nothing, not even its current epoch.
        for _ in 0..4 {
            reg.touch(GatewayId(8));
        }
        assert!(reg.mark_dead_if_stale(GatewayId(7), 2));
        assert!(!reg.touch_current(GatewayId(7), e2));
    }

    #[test]
    fn credit_guard_returns_credit_on_drop_and_revoke_reclaims() {
        use std::sync::Arc;
        let gate = Arc::new(FairnessGate::new(2));
        let g1 = gate.acquire_guard(GatewayId(3));
        let g2 = gate.acquire_guard(GatewayId(3));
        assert_eq!(gate.held(GatewayId(3)), 2);
        drop(g1);
        assert_eq!(gate.held(GatewayId(3)), 1, "drop must return the credit");
        // Dead-session reclaim: outstanding credits zeroed at once,
        // and the straggler guard's later release saturates harmlessly.
        assert_eq!(gate.revoke(GatewayId(3)), 1);
        assert_eq!(gate.held(GatewayId(3)), 0);
        drop(g2);
        assert_eq!(gate.held(GatewayId(3)), 0);
        // Blocked waiter wakes when revoke frees the quota.
        let _full = gate.acquire_guard(GatewayId(4));
        let _full2 = gate.acquire_guard(GatewayId(4));
        let g2c = gate.clone();
        let waiter = std::thread::spawn(move || g2c.acquire_guard(GatewayId(4)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        gate.revoke(GatewayId(4));
        let _woken = waiter.join().unwrap();
        assert_eq!(gate.held(GatewayId(4)), 1);
    }

    #[test]
    fn merge_reopen_suppresses_replayed_released_groups() {
        let mut m: FleetMerge<u32> = FleetMerge::new(2, 100);
        m.offer(0, TechId::ZWave, b"frame", 1000, 0.5, 1);
        m.offer(1, TechId::ZWave, b"frame", 1010, 0.9, 2);
        // Session 1 dies → finished; session 0 advances → release.
        m.finish(1);
        let out = m.advance(0, 5000);
        assert_eq!(out, vec![2]);
        // Session 1 restarts and replays the same air from scratch.
        m.reopen(1, 0);
        m.offer(1, TechId::ZWave, b"frame", 1005, 0.95, 3);
        // A genuinely new frame from the revived session still flows —
        // once every lane's watermark covers it again.
        m.offer(1, TechId::ZWave, b"later", 9000, 0.4, 4);
        assert!(
            m.advance(1, 20_000).is_empty(),
            "survivor watermark still gates release"
        );
        let out = m.advance(0, 20_000);
        assert_eq!(out, vec![4], "replayed copy must not re-release");
        assert_eq!(m.suppressed(), 2);
        assert_eq!(m.delivered(), 2);
    }

    #[test]
    fn sole_session_releases_on_offer_but_a_peer_is_waited_for() {
        // One session: the advance that follows an offer releases it,
        // however far behind the frame the watermark still is, and a
        // repeat from a later overlapping segment is suppressed.
        let mut m: FleetMerge<u8> = FleetMerge::new(1, 4096);
        m.offer(0, TechId::XBee, b"a", 10_000, 0.4, 1);
        assert_eq!(m.advance(0, 9_000), vec![1]);
        m.offer(0, TechId::XBee, b"a", 10_008, 0.9, 2);
        assert!(m.advance(0, 9_500).is_empty(), "first copy wins");
        assert_eq!((m.delivered(), m.suppressed()), (1, 1));
        // Two sessions: the same offer is held until both watermarks
        // are a slack past it.
        let mut m: FleetMerge<u8> = FleetMerge::new(2, 4096);
        m.offer(0, TechId::XBee, b"a", 10_000, 0.4, 1);
        assert!(m.advance(0, 9_000).is_empty());
        assert!(m.advance(0, 50_000).is_empty(), "peer has not spoken");
        assert_eq!(m.advance(1, 50_000), vec![1]);
    }

    #[test]
    fn merge_watermarks_never_regress() {
        // Two sessions, the peer already finished: release hangs on
        // session 0's watermark alone (a sole session would not wait).
        let mut m: FleetMerge<u8> = FleetMerge::new(2, 10);
        m.finish(1);
        m.advance(0, 500);
        m.offer(0, TechId::ZWave, b"a", 600, 0.5, 7);
        // A stale, smaller watermark must not drag the horizon back;
        // only genuine progress releases the group.
        assert!(m.advance(0, 50).is_empty());
        assert_eq!(m.advance(0, 700), vec![7]);
        assert!(m.finish(0).is_empty(), "nothing left pending");
    }
}
