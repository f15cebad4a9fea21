//! The unreliable-backhaul segment transport: a windowed ARQ sender
//! and a deduplicating receiver speaking the versioned datagram format
//! of [`galiot_gateway::backhaul`], plus the gateway-side send queue
//! whose depth drives graceful degradation (compression step-down,
//! then lowest-power load shedding).
//!
//! # Topology
//!
//! ```text
//!  gateway ──▶ SendQueue ──▶ ARQ sender ══ FaultyLink ══▶ receiver ──▶ worker pool
//!   (shed          │           ▲   (loss/corrupt/dup/      │ (CRC check,
//!    lowest        │           │    reorder, seeded)       │  dedup by seq,
//!    power)        ▼           └──══ FaultyLink ◀══────────┘  ack)
//!              compression          (acks, lossy too)
//!              ladder 8→6→4
//! ```
//!
//! The sender keeps at most `ARQ_WINDOW` (8) datagrams in flight,
//! retransmits on per-segment timeouts with exponential backoff and
//! jitter, and —
//! after `max_retries` — declares a segment lost and reports the gap
//! (via the `on_lost` hook) so the reassembly stage can advance past
//! it instead of stalling. The receiver validates every datagram's
//! framing and CRC32, acks everything it can parse (acks are cheap and
//! ack loss is survivable — the sender just retransmits and the
//! receiver's dedup set absorbs the duplicate), and forwards each
//! sequence number to the decode pool exactly once.
//!
//! Degradation is strictly ordered, per the paper's "bandwidth
//! limited" uplink: a congested send queue first *costs fidelity*
//! (fewer bits per I/Q rail, tracked per segment so the cloud decodes
//! with the right scale), and only sheds whole segments — lowest mean
//! power first, those are the ones SIC was least likely to save — once
//! the queue is full.

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use galiot_gateway::{
    decode_ack, decode_segment, encode_ack, encode_segment, FaultyLink, GatewayId, LinkFaults,
    ShippedSegment,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::metrics::SharedMetrics;
use crate::spawn::spawn_thread;

/// Maximum unacknowledged segments the ARQ sender keeps in flight.
const ARQ_WINDOW: usize = 8;
/// Ceiling the exponential backoff saturates at, seconds (or the base
/// timeout, if that is longer).
const ARQ_MAX_TIMEOUT_S: f64 = 0.25;
/// Timeout multiplier per retry (exponential backoff).
const ARQ_BACKOFF: f64 = 2.0;
/// Largest random extra fraction added to the base timeout and to each
/// backoff step (decorrelates retransmit storms).
const ARQ_JITTER: f64 = 0.5;

/// Automatic-repeat-request knobs of the segment transport. The window
/// (8 datagrams in flight) and the backoff (×2 per retry, up to 0.25 s
/// or the base timeout, each step with up to 50 % random extra) are
/// fixed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArqParams {
    /// Whether segments travel over the transport at all. Off, the
    /// transport is a passthrough: segments go straight from the
    /// gateway to the worker pool, so [`GaliotConfig::validate`]
    /// rejects it together with impaired links or a paced uplink.
    ///
    /// [`GaliotConfig::validate`]: crate::GaliotConfig::validate
    pub enabled: bool,
    /// Initial per-segment retransmit timeout, seconds.
    pub base_timeout_s: f64,
    /// Retransmissions before a segment is declared lost.
    pub max_retries: u32,
    /// Seed of the backoff-jitter generator.
    pub seed: u64,
    /// Time source retransmit deadlines are measured against.
    pub clock: ArqClock,
}

impl Default for ArqParams {
    fn default() -> Self {
        ArqParams {
            enabled: false,
            base_timeout_s: 0.002,
            max_retries: 10,
            seed: 0x5EED,
            clock: ArqClock::Wall,
        }
    }
}

impl ArqParams {
    /// The longest timeout, seconds, the sender computes: one jittered
    /// backoff step from the longer of the jittered base timeout and
    /// the ceiling, before the ceiling clamps it.
    pub(crate) fn longest_timeout_s(&self) -> f64 {
        let jittered = 1.0 + ARQ_JITTER;
        (self.base_timeout_s * jittered).max(ARQ_MAX_TIMEOUT_S) * ARQ_BACKOFF * jittered
    }
}

/// Time source for ARQ retransmit deadlines.
///
/// The sender's deadlines were originally raw `Instant::now()`
/// arithmetic, which makes every transport test timing-sensitive: a
/// loaded CI runner that stalls the sender thread past a deadline
/// turns a healthy ack into a spurious retransmit — or a spurious
/// loss. The emulated clock removes the wall clock from the deadline
/// *decision*: virtual time only advances when the sender has
/// verifiably nothing to do, so a slow scheduler can delay a run but
/// never change which segments get retransmitted or declared lost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArqClock {
    /// Wall-clock deadlines (`Instant`-based) — the deployment mode.
    Wall,
    /// Deterministic virtual clock for tests: time jumps straight to
    /// the earliest deadline once no ack has arrived within `grace_s`
    /// real seconds (the allowance for in-flight acks to cross the
    /// emulated wire; it shapes only how long a run takes, never its
    /// outcome).
    Virtual {
        /// Real seconds to wait for a late ack before declaring the
        /// virtual deadline reached.
        grace_s: f64,
    },
}

impl ArqClock {
    /// The virtual clock with its standard ack grace (5 ms).
    pub fn deterministic() -> Self {
        ArqClock::Virtual { grace_s: 0.005 }
    }
}

/// The sender's view of time: a monotone `Duration` since the session
/// started, advanced by the wall clock or by deadline jumps.
struct SenderClock {
    mode: ArqClock,
    origin: Instant,
    virtual_now: Duration,
}

impl SenderClock {
    fn new(mode: ArqClock) -> Self {
        SenderClock {
            mode,
            origin: Instant::now(),
            virtual_now: Duration::ZERO,
        }
    }

    fn now(&self) -> Duration {
        match self.mode {
            ArqClock::Wall => self.origin.elapsed(),
            ArqClock::Virtual { .. } => self.virtual_now,
        }
    }

    /// Waits for an ack until `deadline` on this clock. On the wall
    /// clock this is a plain timed receive; on the virtual clock, an
    /// empty channel after the real-time grace means "no ack by the
    /// deadline" and virtual time jumps to it.
    fn await_ack(
        &mut self,
        ack_rx: &Receiver<Vec<u8>>,
        deadline: Duration,
    ) -> Result<Vec<u8>, RecvTimeoutError> {
        match self.mode {
            ArqClock::Wall => {
                let wait = deadline.saturating_sub(self.origin.elapsed());
                ack_rx.recv_timeout(wait)
            }
            ArqClock::Virtual { grace_s } => {
                if let Ok(bytes) = ack_rx.try_recv() {
                    return Ok(bytes);
                }
                match ack_rx.recv_timeout(Duration::from_secs_f64(grace_s.max(0.0))) {
                    Ok(bytes) => Ok(bytes),
                    Err(RecvTimeoutError::Timeout) => {
                        self.virtual_now = self.virtual_now.max(deadline);
                        Err(RecvTimeoutError::Timeout)
                    }
                    Err(e) => Err(e),
                }
            }
        }
    }
}

/// Full configuration of the gateway→cloud segment transport.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransportConfig {
    /// Impairments of the data direction (gateway → cloud).
    pub data_faults: LinkFaults,
    /// Impairments of the ack direction (cloud → gateway).
    pub ack_faults: LinkFaults,
    /// ARQ behavior.
    pub arq: ArqParams,
    /// Send-queue capacity; beyond it the lowest-power queued segment
    /// is shed.
    pub send_queue_cap: usize,
    /// Queue depth at which the compression ladder starts stepping
    /// down (8→6→4 bits).
    pub degrade_hwm: usize,
    /// Floor of the compression ladder, bits per I/Q rail.
    pub min_bits: u32,
    /// Rate, bits per second, at which the ARQ sender serializes each
    /// datagram onto the uplink in real time; `None` sends at once.
    pub uplink_bps: Option<f64>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            data_faults: LinkFaults::none(),
            ack_faults: LinkFaults::none(),
            arq: ArqParams::default(),
            send_queue_cap: 32,
            degrade_hwm: 8,
            min_bits: 4,
            uplink_bps: None,
        }
    }
}

impl TransportConfig {
    /// Whether the streaming pipeline skips the transport entirely
    /// (ARQ off, which a valid configuration allows only over perfect,
    /// unpaced links): segments then flow straight from the gateway to
    /// the worker pool exactly as before this subsystem.
    pub fn is_passthrough(&self) -> bool {
        !self.arq.enabled
    }

    /// ARQ over perfect links — exercises the wire codec and windowed
    /// delivery without impairments.
    pub fn reliable() -> Self {
        TransportConfig {
            arq: ArqParams {
                enabled: true,
                ..ArqParams::default()
            },
            ..TransportConfig::default()
        }
    }

    /// ARQ over a faulty data link (the ack direction inherits the
    /// same impairment rates under a decorrelated seed).
    pub fn over_faulty_link(faults: LinkFaults) -> Self {
        TransportConfig {
            data_faults: faults,
            ack_faults: LinkFaults {
                seed: faults.seed ^ 0x9E37_79B9_7F4A_7C15,
                ..faults
            },
            arq: ArqParams {
                enabled: true,
                ..ArqParams::default()
            },
            ..TransportConfig::default()
        }
    }
}

/// The compression ladder: how many bits per I/Q rail a segment gets,
/// given the current send-queue depth. Below `hwm` the configured
/// `base` is used; past `hwm` compression steps down two bits; midway
/// between `hwm` and `cap` it drops to `floor` (shedding takes over at
/// `cap` itself).
pub fn degraded_bits(base: u32, floor: u32, depth: usize, hwm: usize, cap: usize) -> u32 {
    let floor = floor.clamp(1, base.max(1));
    let hwm = hwm.max(1);
    let second = (hwm + cap.saturating_sub(hwm) / 2).max(hwm + 1);
    if depth >= second {
        floor
    } else if depth >= hwm {
        base.saturating_sub(2).max(floor)
    } else {
        base
    }
}

/// One segment queued for transmission, annotated with the mean power
/// the shedding policy ranks by.
#[derive(Clone, Debug)]
pub struct QueuedSegment {
    /// The compressed segment to ship.
    pub seg: ShippedSegment,
    /// Mean power of the segment's samples before compression.
    pub power: f32,
}

struct SqState {
    q: VecDeque<QueuedSegment>,
    closed: bool,
    hwm: usize,
}

/// The gateway-side send queue: bounded, never blocks the producer —
/// overflow sheds the lowest-power queued segment instead (decode
/// effort goes to the segments SIC has the best chance on).
pub struct SendQueue {
    state: Mutex<SqState>,
    ready: Condvar,
    cap: usize,
}

impl SendQueue {
    /// Creates a queue holding at most `cap` segments (min 1).
    pub fn new(cap: usize) -> Arc<Self> {
        Arc::new(SendQueue {
            state: Mutex::new(SqState {
                q: VecDeque::new(),
                closed: false,
                hwm: 0,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        })
    }

    /// Enqueues a segment. Returns the shed victim — the lowest-power
    /// segment, possibly the one just pushed — when the queue was
    /// already full; the caller must account for the victim (its
    /// sequence number still needs a gap notice downstream).
    pub fn push(&self, item: QueuedSegment) -> Option<QueuedSegment> {
        let mut st = self.state.lock().unwrap();
        st.q.push_back(item);
        st.hwm = st.hwm.max(st.q.len());
        let victim = if st.q.len() > self.cap {
            let (idx, _) =
                st.q.iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        a.power
                            .partial_cmp(&b.power)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("queue cannot be empty right after a push");
            st.q.remove(idx)
        } else {
            None
        };
        drop(st);
        self.ready.notify_one();
        victim
    }

    /// Dequeues the oldest segment, blocking while the queue is empty
    /// and open. `None` means closed and drained.
    pub fn pop(&self) -> Option<QueuedSegment> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.q.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap();
        }
    }

    /// Dequeues without blocking.
    pub fn try_pop(&self) -> Option<QueuedSegment> {
        self.state.lock().unwrap().q.pop_front()
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().q.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deepest the queue ever got.
    pub fn high_water_mark(&self) -> usize {
        self.state.lock().unwrap().hwm
    }

    /// Closes the queue; `pop` returns `None` once drained.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

/// Producer handle that closes the queue when dropped, so the consumer
/// side always observes end-of-stream even if the producer thread
/// bails early.
pub struct SendQueueTx(Arc<SendQueue>);

impl SendQueueTx {
    /// Wraps a queue in a closing producer handle.
    pub fn new(queue: Arc<SendQueue>) -> Self {
        SendQueueTx(queue)
    }

    /// The underlying queue.
    pub fn queue(&self) -> &SendQueue {
        &self.0
    }
}

impl Drop for SendQueueTx {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// A segment tracked by the ARQ window. Deadlines are points on the
/// sender's [`SenderClock`], not raw `Instant`s.
struct Flight {
    /// Encoded afresh for each (rare) retransmission, so that the
    /// first transmission's datagram can go down the link by value.
    seg: ShippedSegment,
    retries: u32,
    timeout: Duration,
    deadline: Duration,
}

/// Encodes `seg`, pays the uplink's serialization delay, offers the
/// datagram to the lossy link by value (so it is forwarded, not
/// copied) and sends on whatever comes out. Returns `false` when the
/// far end is gone.
fn push_link(
    link: &mut FaultyLink,
    seg: &ShippedSegment,
    serialize_bps: Option<f64>,
    wire_tx: &Sender<Vec<u8>>,
    metrics: &SharedMetrics,
) -> bool {
    let _span = galiot_trace::span(
        galiot_trace::Stage::ArqSend,
        galiot_trace::tag_seq(seg.gateway.0, seg.seq),
    );
    let bytes = encode_segment(seg);
    if let Some(bps) = serialize_bps {
        thread::sleep(Duration::from_secs_f64(bytes.len() as f64 * 8.0 / bps));
    }
    metrics.with(|m| m.wire_bytes_sent += bytes.len() as u64);
    for d in link.transmit(bytes) {
        if wire_tx.send(d).is_err() {
            return false;
        }
    }
    true
}

/// Spawns the ARQ sender: pulls segments off the send queue, keeps up
/// to `ARQ_WINDOW` datagrams in flight over the (possibly faulty) data
/// link, retransmits on timeout with exponential backoff + jitter, and
/// declares a segment lost after `arq.max_retries` — invoking
/// `on_lost(seq)` so downstream reassembly can tolerate the gap
/// (return `false` from the hook to stop the sender). With
/// `serialize_bps` set, each datagram also pays its real-time
/// serialization delay on the uplink. The sender always acks and
/// retransmits: `arq.enabled` only decides, through
/// [`TransportConfig::is_passthrough`], whether a pipeline builds the
/// transport at all.
#[allow(clippy::too_many_arguments)] // one endpoint per wiring half: queue + 2 channels + knobs
pub fn spawn_arq_sender(
    queue: Arc<SendQueue>,
    wire_tx: Sender<Vec<u8>>,
    ack_rx: Receiver<Vec<u8>>,
    arq: ArqParams,
    faults: LinkFaults,
    serialize_bps: Option<f64>,
    metrics: SharedMetrics,
    on_lost: impl Fn(u64) -> bool + Send + 'static,
) -> thread::JoinHandle<()> {
    spawn_thread("galiot-uplink", move || {
        let mut link = FaultyLink::new(faults);
        let mut rng = StdRng::seed_from_u64(arq.seed);
        let mut clock = SenderClock::new(arq.clock);
        // Keyed by (gateway, seq): sequence numbers are dense per
        // session, so a shared wire must never let one session's
        // ack retire another's in-flight datagram.
        let mut in_flight: BTreeMap<(GatewayId, u64), Flight> = BTreeMap::new();
        let max_timeout = Duration::from_secs_f64(ARQ_MAX_TIMEOUT_S.max(arq.base_timeout_s));

        'run: loop {
            // Top the window up.
            while in_flight.len() < ARQ_WINDOW {
                let item = if in_flight.is_empty() {
                    match queue.pop() {
                        Some(item) => item,
                        None => break 'run, // closed and drained
                    }
                } else {
                    match queue.try_pop() {
                        Some(item) => item,
                        None => break,
                    }
                };
                if !push_link(&mut link, &item.seg, serialize_bps, &wire_tx, &metrics) {
                    break 'run;
                }
                let timeout = Duration::from_secs_f64(
                    arq.base_timeout_s * (1.0 + ARQ_JITTER * rng.gen::<f64>()),
                );
                in_flight.insert(
                    (item.seg.gateway, item.seg.seq),
                    Flight {
                        seg: item.seg,
                        retries: 0,
                        timeout,
                        deadline: clock.now() + timeout,
                    },
                );
            }

            // Wait for acks until the earliest retransmit deadline.
            let deadline = in_flight
                .values()
                .map(|f| f.deadline)
                .min()
                .expect("in_flight is non-empty");
            match clock.await_ack(&ack_rx, deadline) {
                Ok(bytes) => {
                    // An ack for another session's (gateway, seq) —
                    // e.g. on a shared wire — must not retire this
                    // one's flight; a corrupted ack retires nothing.
                    if let Ok(key) = decode_ack(&bytes) {
                        if in_flight.remove(&key).is_some() {
                            metrics.with(|m| m.arq_acked += 1);
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    let now = clock.now();
                    let expired: Vec<(GatewayId, u64)> = in_flight
                        .iter()
                        .filter(|(_, f)| f.deadline <= now)
                        .map(|(k, _)| *k)
                        .collect();
                    for key in expired {
                        let f = in_flight.get_mut(&key).expect("expired seq is in flight");
                        if f.retries >= arq.max_retries {
                            in_flight.remove(&key);
                            metrics.with(|m| m.arq_lost += 1);
                            if !on_lost(key.1) {
                                break 'run;
                            }
                        } else {
                            f.retries += 1;
                            f.timeout = f
                                .timeout
                                .mul_f64(ARQ_BACKOFF * (1.0 + ARQ_JITTER * rng.gen::<f64>()))
                                .min(max_timeout);
                            f.deadline = now + f.timeout;
                            metrics.with(|m| m.arq_retransmits += 1);
                            if !push_link(&mut link, &f.seg, serialize_bps, &wire_tx, &metrics) {
                                break 'run;
                            }
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Receiver is gone (pool shutdown): nothing
                    // will ever be acked again.
                    break 'run;
                }
            }
        }

        // Traffic over: flush delay-jittered copies still inside
        // the link model.
        for d in link.drain() {
            if wire_tx.send(d).is_err() {
                break;
            }
        }
        metrics.with(|m| m.wire.merge(&link.stats));
    })
    .unwrap_or_else(|e| panic!("ARQ sender startup: {e}"))
}

/// Duplicate seqs the receiver still recognizes behind the newest seq
/// it has seen from a session. A duplicate can only trail the original
/// by what the sender still has in flight — `ARQ_WINDOW` datagrams plus
/// the link's reorder depth — so 1024 is two orders of magnitude of
/// headroom while keeping receiver memory O(window), not O(session).
pub const ARQ_DEDUP_WINDOW: u64 = 1024;

/// Per-session sliding-window duplicate detector for the ARQ receiver.
///
/// The receiver must forward each `(gateway, seq)` exactly once, but a
/// long-lived session makes "remember every seq ever seen" unbounded
/// state. Per session this keeps a cumulative frontier — every seq
/// below it has been forwarded — plus the sparse set of out-of-order
/// seqs at or above it; contiguous arrivals collapse into the frontier
/// immediately, and the set is clamped to `window` behind the newest
/// seq seen. Behaviour is identical to the unbounded set for any
/// duplicate arriving within `window` of the newest seq (proptested),
/// and the ARQ sender's in-flight window makes wider reordering
/// impossible.
pub struct DedupWindow {
    window: u64,
    sessions: BTreeMap<GatewayId, SessionSeen>,
}

#[derive(Default)]
struct SessionSeen {
    /// Every seq below this has been seen (the cumulative ack
    /// frontier, receiver-side).
    frontier: u64,
    /// Out-of-order seqs at or above the frontier.
    recent: std::collections::BTreeSet<u64>,
    /// Newest seq ever seen (the window is keyed off this).
    max_seen: u64,
}

impl DedupWindow {
    /// Creates a detector recognizing duplicates up to `window` seqs
    /// behind the newest seq of their session (min 1).
    pub fn new(window: u64) -> Self {
        DedupWindow {
            window: window.max(1),
            sessions: BTreeMap::new(),
        }
    }

    /// Records one arrival. Returns `true` if this is the first
    /// sighting of `(gateway, seq)` — i.e. the segment should be
    /// forwarded — and `false` for a duplicate.
    pub fn insert(&mut self, gateway: GatewayId, seq: u64) -> bool {
        let s = self.sessions.entry(gateway).or_default();
        if seq < s.frontier || !s.recent.insert(seq) {
            return false;
        }
        s.max_seen = s.max_seen.max(seq);
        // Collapse a now-contiguous prefix into the frontier.
        while s.recent.remove(&s.frontier) {
            s.frontier += 1;
        }
        // Clamp memory: anything more than `window` behind the newest
        // seq is past any possible in-flight duplicate — treat it as
        // seen wholesale.
        let floor = s.max_seen.saturating_sub(self.window - 1);
        if floor > s.frontier {
            s.frontier = floor;
            s.recent = s.recent.split_off(&floor);
            while s.recent.remove(&s.frontier) {
                s.frontier += 1;
            }
        }
        true
    }

    /// Out-of-order seqs currently remembered across all sessions
    /// (bounded-memory diagnostic).
    pub fn sparse_len(&self) -> usize {
        self.sessions.values().map(|s| s.recent.len()).sum()
    }
}

/// Spawns the cloud-ingress ARQ receiver: validates every datagram
/// (framing + CRC32 + header consistency), acks everything parseable
/// over the (possibly faulty) ack link, drops duplicates by sequence
/// number, and forwards each unique segment to the decode pool.
///
/// Generic over the pool's item type so the fleet can wrap segments
/// with ingest bookkeeping; plain `Sender<ShippedSegment>` works
/// unchanged via the identity conversion.
pub fn spawn_arq_receiver<T: From<ShippedSegment> + Send + 'static>(
    wire_rx: Receiver<Vec<u8>>,
    ack_tx: Sender<Vec<u8>>,
    seg_tx: Sender<T>,
    ack_faults: LinkFaults,
    metrics: SharedMetrics,
) -> thread::JoinHandle<()> {
    spawn_thread("galiot-ingress", move || {
        let mut ack_link = FaultyLink::new(ack_faults);
        // Sliding-window dedup keyed per session: sequence spaces
        // are dense *per gateway*, so with a global key gateway
        // 2's seq 0 would be swallowed as a "duplicate" of
        // gateway 1's.
        let mut seen = DedupWindow::new(ARQ_DEDUP_WINDOW);
        while let Ok(bytes) = wire_rx.recv() {
            // One span per datagram handled, tagged with the seq
            // once (and if) the wire bytes decode.
            let mut recv_span =
                galiot_trace::span(galiot_trace::Stage::ArqRecv, galiot_trace::NO_SEQ);
            // Framing, CRC or header damage: unacked, so the sender
            // retransmits.
            let Ok(seg) = decode_segment(&bytes) else {
                continue;
            };
            recv_span.set_seq(galiot_trace::tag_seq(seg.gateway.0, seg.seq));
            // Ack first, even for duplicates: the original ack may have
            // been the casualty.
            for d in ack_link.transmit(encode_ack(seg.gateway, seg.seq)) {
                let _ = ack_tx.send(d);
            }
            if !seen.insert(seg.gateway, seg.seq) {
                continue;
            }
            if seg_tx.send(T::from(seg)).is_err() {
                break; // pool is gone
            }
            let depth = seg_tx.len();
            metrics.with(|m| m.seg_queue_hwm = m.seg_queue_hwm.max(depth));
        }
        // Late acks for traffic the sender no longer waits on are
        // harmless; flush the ack link's jitter buffer anyway.
        for d in ack_link.drain() {
            let _ = ack_tx.send(d);
        }
        metrics.with(|m| m.wire.merge(&ack_link.stats));
    })
    .unwrap_or_else(|e| panic!("ARQ receiver startup: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{bounded, unbounded};
    use galiot_dsp::Cf32;
    use std::collections::HashSet;

    fn seg(seq: u64, amp: f32, n: usize) -> QueuedSegment {
        let samples: Vec<Cf32> = (0..n).map(|i| Cf32::cis(i as f32 * 0.3) * amp).collect();
        QueuedSegment {
            seg: ShippedSegment::pack(seq, seq as usize * 1000, &samples, 8, 64),
            power: amp * amp,
        }
    }

    #[test]
    fn degradation_ladder_steps_8_6_4() {
        // Defaults: hwm 8, cap 32 → second threshold at 20.
        assert_eq!(degraded_bits(8, 4, 0, 8, 32), 8);
        assert_eq!(degraded_bits(8, 4, 7, 8, 32), 8);
        assert_eq!(degraded_bits(8, 4, 8, 8, 32), 6);
        assert_eq!(degraded_bits(8, 4, 19, 8, 32), 6);
        assert_eq!(degraded_bits(8, 4, 20, 8, 32), 4);
        assert_eq!(degraded_bits(8, 4, 1000, 8, 32), 4);
        // The floor is respected even when base-2 would undershoot it.
        assert_eq!(degraded_bits(5, 4, 8, 8, 32), 4);
        // Degenerate hwm never divides by zero or exceeds base.
        assert_eq!(degraded_bits(8, 4, 5, 0, 4), 4);
    }

    #[test]
    fn send_queue_sheds_the_lowest_power_segment() {
        let q = SendQueue::new(2);
        assert!(q.push(seg(0, 1.0, 64)).is_none());
        assert!(q.push(seg(1, 0.1, 64)).is_none());
        // Overflow: seq 1 is the quietest of the three → shed.
        let victim = q.push(seg(2, 0.5, 64)).expect("must shed");
        assert_eq!(victim.seg.seq, 1);
        assert_eq!(q.len(), 2);
        // An incoming segment quieter than everything queued sheds
        // itself.
        let victim = q.push(seg(3, 0.01, 64)).expect("must shed");
        assert_eq!(victim.seg.seq, 3);
        let order: Vec<u64> = std::iter::from_fn(|| q.try_pop())
            .map(|i| i.seg.seq)
            .collect();
        assert_eq!(order, vec![0, 2], "FIFO among survivors");
    }

    #[test]
    fn send_queue_close_wakes_blocked_consumer() {
        let q = SendQueue::new(4);
        let q2 = q.clone();
        let consumer = thread::spawn(move || {
            let first = q2.pop();
            let second = q2.pop();
            (first.map(|i| i.seg.seq), second.map(|i| i.seg.seq))
        });
        q.push(seg(7, 1.0, 32));
        let tx = SendQueueTx::new(q.clone());
        assert_eq!(tx.queue().high_water_mark(), 1);
        drop(tx); // closing handle → consumer unblocks with None
        let (first, second) = consumer.join().unwrap();
        assert_eq!(first, Some(7));
        assert_eq!(second, None);
    }

    /// End-to-end ARQ over a 30 % lossy link with duplication and
    /// reordering: every segment must reach the pool exactly once.
    #[test]
    fn arq_delivers_everything_over_a_bad_link() {
        let metrics = SharedMetrics::new();
        let q = SendQueue::new(64);
        let (wire_tx, wire_rx) = bounded::<Vec<u8>>(64);
        let (ack_tx, ack_rx) = unbounded::<Vec<u8>>();
        let (seg_tx, seg_rx) = unbounded::<ShippedSegment>();
        let faults = LinkFaults::harsh(0.3, 41);
        let arq = ArqParams {
            enabled: true,
            base_timeout_s: 0.005,
            ..ArqParams::default()
        };
        let sender = spawn_arq_sender(
            q.clone(),
            wire_tx,
            ack_rx,
            arq,
            faults,
            None,
            metrics.clone(),
            |_| true,
        );
        let receiver = spawn_arq_receiver(
            wire_rx,
            ack_tx,
            seg_tx,
            LinkFaults::lossy(0.2, 77),
            metrics.clone(),
        );

        let n = 24u64;
        for i in 0..n {
            assert!(q.push(seg(i, 1.0, 128)).is_none(), "no shedding expected");
        }
        q.close();
        sender.join().unwrap();
        receiver.join().unwrap();

        let mut got: Vec<u64> = seg_rx.try_iter().map(|s| s.seq).collect();
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<u64>>(), "exactly-once delivery");
        let m = metrics.snapshot();
        assert_eq!(m.arq_lost, 0, "{m:?}");
        assert_eq!(m.arq_acked as u64, n, "{m:?}");
        assert!(m.arq_retransmits > 0, "a 30% link must retransmit: {m:?}");
        assert!(m.wire.dropped > 0 && m.wire_bytes_sent > 0, "{m:?}");
    }

    /// With retries disabled over a one-way lossy link, exactly the
    /// dropped data datagrams are declared lost — no silent gaps.
    #[test]
    fn zero_retry_arq_declares_exactly_the_dropped_segments() {
        let metrics = SharedMetrics::new();
        let q = SendQueue::new(64);
        let (wire_tx, wire_rx) = bounded::<Vec<u8>>(64);
        let (ack_tx, ack_rx) = unbounded::<Vec<u8>>();
        let (seg_tx, seg_rx) = unbounded::<ShippedSegment>();
        let lost = Arc::new(Mutex::new(Vec::<u64>::new()));
        let lost2 = lost.clone();
        let arq = ArqParams {
            enabled: true,
            max_retries: 0,
            base_timeout_s: 0.020,
            ..ArqParams::default()
        };
        let sender = spawn_arq_sender(
            q.clone(),
            wire_tx,
            ack_rx,
            arq,
            LinkFaults::lossy(0.4, 23),
            None,
            metrics.clone(),
            move |seq| {
                lost2.lock().unwrap().push(seq);
                true
            },
        );
        let receiver =
            spawn_arq_receiver(wire_rx, ack_tx, seg_tx, LinkFaults::none(), metrics.clone());

        let n = 30u64;
        for i in 0..n {
            q.push(seg(i, 1.0, 64));
        }
        q.close();
        sender.join().unwrap();
        receiver.join().unwrap();

        let delivered: HashSet<u64> = seg_rx.try_iter().map(|s| s.seq).collect();
        let mut declared: Vec<u64> = lost.lock().unwrap().clone();
        declared.sort_unstable();
        let mut missing: Vec<u64> = (0..n).filter(|s| !delivered.contains(s)).collect();
        missing.sort_unstable();
        assert_eq!(declared, missing, "declared-lost ≠ actually-missing");
        assert!(!declared.is_empty(), "a 40% link should have dropped some");
        let m = metrics.snapshot();
        assert_eq!(m.arq_lost, declared.len());
        assert_eq!(m.arq_acked as u64 + m.arq_lost as u64, n);
    }

    /// Regression for the seq-dedup scope bug: two gateway sessions
    /// share one wire and emit the *same* dense sequence numbers. A
    /// receiver deduplicating on the bare seq would swallow the whole
    /// second session as "duplicates"; per-(gateway, seq) scoping must
    /// deliver both, and each sender must ignore the other session's
    /// acks.
    #[test]
    fn overlapping_seq_spaces_from_two_gateways_both_deliver() {
        let metrics = SharedMetrics::new();
        let (wire_tx, wire_rx) = bounded::<Vec<u8>>(64);
        let (ack_tx, ack_rx) = unbounded::<Vec<u8>>();
        let (seg_tx, seg_rx) = unbounded::<ShippedSegment>();
        // Fan the single ack stream out to both senders; the sender's
        // (gateway, seq) flight key makes foreign acks inert.
        let (ack_tx_a, ack_rx_a) = unbounded::<Vec<u8>>();
        let (ack_tx_b, ack_rx_b) = unbounded::<Vec<u8>>();
        let fanout = thread::spawn(move || {
            while let Ok(bytes) = ack_rx.recv() {
                let _ = ack_tx_a.send(bytes.clone());
                let _ = ack_tx_b.send(bytes);
            }
        });

        let arq = ArqParams {
            enabled: true,
            base_timeout_s: 0.005,
            ..ArqParams::default()
        };
        let n = 16u64;
        let mut senders = Vec::new();
        for (gw, ack_rx, seed) in [
            (GatewayId(1), ack_rx_a, 41u64),
            (GatewayId(2), ack_rx_b, 43),
        ] {
            let q = SendQueue::new(64);
            senders.push(spawn_arq_sender(
                q.clone(),
                wire_tx.clone(),
                ack_rx,
                ArqParams { seed, ..arq },
                LinkFaults::harsh(0.2, seed),
                None,
                metrics.clone(),
                |_| true,
            ));
            for i in 0..n {
                let mut item = seg(i, 1.0, 64);
                item.seg = item.seg.with_gateway(gw);
                assert!(q.push(item).is_none());
            }
            q.close();
        }
        drop(wire_tx);
        let receiver = spawn_arq_receiver(
            wire_rx,
            ack_tx,
            seg_tx,
            LinkFaults::lossy(0.1, 7),
            metrics.clone(),
        );
        for s in senders {
            s.join().unwrap();
        }
        receiver.join().unwrap();
        fanout.join().unwrap();

        let mut got: Vec<(u16, u64)> = seg_rx.try_iter().map(|s| (s.gateway.0, s.seq)).collect();
        got.sort_unstable();
        let want: Vec<(u16, u64)> = (1..=2u16)
            .flat_map(|g| (0..n).map(move |s| (g, s)))
            .collect();
        assert_eq!(got, want, "every (gateway, seq) exactly once");
        let m = metrics.snapshot();
        assert_eq!(m.arq_lost, 0, "{m:?}");
        assert_eq!(m.arq_acked as u64, 2 * n, "{m:?}");
    }

    /// Regression for the unbounded dedup set: the windowed detector
    /// must behave exactly like remember-everything for in-window
    /// duplicates, while holding only O(window) sparse state.
    #[test]
    fn dedup_window_matches_unbounded_set_and_stays_bounded() {
        let mut win = DedupWindow::new(16);
        let mut all = HashSet::new();
        let gw = GatewayId(1);
        // In-order stream with immediate duplicates.
        for seq in 0..100u64 {
            assert_eq!(win.insert(gw, seq), all.insert(seq), "seq {seq}");
            assert!(!win.insert(gw, seq), "immediate dup of {seq}");
        }
        // Out-of-order arrivals within the window still dedup.
        for seq in [105u64, 103, 104, 103, 105, 106] {
            assert_eq!(win.insert(gw, seq), all.insert(seq), "seq {seq}");
        }
        // Sessions are independent: another gateway's identical seqs
        // are fresh.
        assert!(win.insert(GatewayId(2), 50));
        // A long session keeps sparse state bounded by the window.
        for seq in (200..20_000u64).step_by(2) {
            win.insert(gw, seq);
            assert!(win.sparse_len() <= 16 + 1, "sparse={}", win.sparse_len());
        }
    }

    proptest::proptest! {
        /// For any arrival stream whose duplicates trail the newest
        /// seq by less than the window — the only duplicates a
        /// `window`-bounded ARQ sender can produce — the sliding
        /// detector's verdicts are exactly the unbounded set's.
        #[test]
        fn dedup_window_equals_unbounded_for_in_window_duplicates(
            jumps in proptest::collection::vec(0u64..400, 1..400),
            window in 8u64..64,
        ) {
            let mut win = DedupWindow::new(window);
            let mut unbounded: HashSet<u64> = HashSet::new();
            let gw = GatewayId(3);
            let mut newest = 0u64;
            for jump in jumps {
                // Candidate seq: odd jumps duplicate something within
                // the window behind the newest seq, even jumps wander
                // forward.
                let offset = jump / 2;
                let seq = if jump % 2 == 1 {
                    newest.saturating_sub(offset % window)
                } else {
                    newest + offset % 3
                };
                newest = newest.max(seq);
                let fresh = win.insert(gw, seq);
                proptest::prop_assert_eq!(
                    fresh,
                    unbounded.insert(seq),
                    "seq {} newest {} window {}",
                    seq,
                    newest,
                    window
                );
                proptest::prop_assert!(win.sparse_len() as u64 <= window + 1);
            }
        }
    }

    /// Satellite of the wall-clock bugfix: the full ARQ path delivers
    /// exactly-once over a harsh link on the virtual clock —
    /// retransmit decisions driven purely by emulated time.
    #[test]
    fn arq_delivers_everything_with_a_virtual_clock() {
        let metrics = SharedMetrics::new();
        let q = SendQueue::new(64);
        let (wire_tx, wire_rx) = bounded::<Vec<u8>>(64);
        let (ack_tx, ack_rx) = unbounded::<Vec<u8>>();
        let (seg_tx, seg_rx) = unbounded::<ShippedSegment>();
        let arq = ArqParams {
            enabled: true,
            clock: ArqClock::deterministic(),
            ..ArqParams::default()
        };
        let sender = spawn_arq_sender(
            q.clone(),
            wire_tx,
            ack_rx,
            arq,
            LinkFaults::harsh(0.3, 41),
            None,
            metrics.clone(),
            |_| true,
        );
        let receiver = spawn_arq_receiver(
            wire_rx,
            ack_tx,
            seg_tx,
            LinkFaults::lossy(0.2, 77),
            metrics.clone(),
        );
        let n = 24u64;
        for i in 0..n {
            assert!(q.push(seg(i, 1.0, 128)).is_none());
        }
        q.close();
        sender.join().unwrap();
        receiver.join().unwrap();
        let mut got: Vec<u64> = seg_rx.try_iter().map(|s| s.seq).collect();
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<u64>>(), "exactly-once delivery");
        let m = metrics.snapshot();
        assert_eq!(m.arq_lost, 0, "{m:?}");
        assert_eq!(m.arq_acked as u64, n, "{m:?}");
        assert!(m.arq_retransmits > 0, "a 30% link must retransmit: {m:?}");
    }
}
