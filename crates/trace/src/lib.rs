//! # galiot-trace — structured observability for the GalioT pipeline
//!
//! The paper's pitch — a cheap front-end plus a cloud tier beating
//! commodity gateways — only holds if we can account for where every
//! microsecond goes between capture and decode. This crate is that
//! accounting: **spans** (timed stage executions), **events**
//! (instantaneous lifecycle marks: ship / decode / shed / lost), and
//! per-stage **latency histograms**, recorded into per-thread
//! lock-free ring buffers with near-zero cost when tracing is off.
//!
//! ## Design constraints
//!
//! - **Near-zero disabled cost.** [`span`] and [`event`] check one
//!   relaxed atomic and return without reading the clock when tracing
//!   is off. The hot path never allocates: a record is four `u64`
//!   stores into a pre-sized ring.
//! - **Lock-free recording, no `unsafe`.** Each thread owns one
//!   [`Arc`]'d ring of atomic slot quads; it is the only writer.
//!   Slots are claimed with a relaxed `fetch_add` and published with a
//!   release store of the tag word. A full ring *counts drops* instead
//!   of wrapping, so the conformance oracle can demand `dropped == 0`
//!   rather than silently losing the records it is about to assert on.
//! - **Sessions are serialized.** One global recorder means two
//!   concurrent traced runs would interleave; [`TraceSession`] holds a
//!   process-wide lock for its lifetime, so parallel `cargo test`
//!   threads queue instead of corrupting each other's traces.
//! - **Drain after quiescence.** [`TraceSession::finish`] must be
//!   called after the traced pipeline's threads have been joined
//!   (`StreamingGaliot::run` returns post-join, so the natural call
//!   order is correct). Records written by still-running threads may
//!   be missed or half-visible.
//!
//! Threads discover the current session through a generation counter:
//! each session bump invalidates every thread's cached ring handle, so
//! reused test threads and freshly spawned pipeline threads alike
//! register a new ring on their first record.
//!
//! Exporters live in [`export`] (chrome://tracing JSON + stats
//! report); the structural test oracle lives in [`verify`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod verify;

pub use hist::{Histogram, Summary, N_BUCKETS};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Number of traced pipeline stages.
pub const N_STAGES: usize = 12;

/// Sentinel "no segment sequence number" value for spans and events
/// that are not tied to one shipped segment.
pub const NO_SEQ: u64 = u64::MAX;

/// Default per-thread ring capacity (records).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Bit position of the gateway id inside a gateway-tagged seq word.
const GATEWAY_SHIFT: u32 = 48;
/// Mask of the per-gateway sequence-number bits of a tagged seq word.
const SEQ_MASK: u64 = (1u64 << GATEWAY_SHIFT) - 1;

/// Folds a gateway id into a span/event seq word so fleet traces can
/// be disaggregated per session: gateway in the top 16 bits, the
/// per-gateway sequence number in the low 48.
///
/// Gateway 0 (the single-gateway deployment) maps to the raw seq, so
/// every pre-fleet trace consumer sees unchanged numbers. [`NO_SEQ`]
/// is preserved for any gateway — an untagged record stays untagged.
pub fn tag_seq(gateway: u16, seq: u64) -> u64 {
    if gateway == 0 || seq == NO_SEQ {
        seq
    } else {
        ((gateway as u64) << GATEWAY_SHIFT) | (seq & SEQ_MASK)
    }
}

/// Splits a tagged seq word back into `(gateway, seq)`. The inverse
/// of [`tag_seq`] for every seq below 2^48 (gateway emission counters
/// are dense from 0, so real traffic never gets close).
pub fn split_seq(tagged: u64) -> (u16, u64) {
    if tagged == NO_SEQ {
        (0, NO_SEQ)
    } else {
        ((tagged >> GATEWAY_SHIFT) as u16, tagged & SEQ_MASK)
    }
}

/// Bit position of the session-restart epoch inside a gateway's
/// 48-bit local sequence word. A restarted gateway instance numbers
/// its segments from `instance << EPOCH_SHIFT`, fencing its sequence
/// space off from every earlier life of the same gateway: 8 epoch
/// bits (256 restarts) over 2^40 segments per life, both far beyond
/// any real session.
pub const EPOCH_SHIFT: u32 = 40;

/// Splits a gateway-local sequence word (the `seq` half of
/// [`split_seq`]) into `(epoch, per-epoch seq)` so trace accounting
/// can prove a restarted session's pre- and post-crash traffic never
/// mix.
pub fn split_epoch_seq(seq: u64) -> (u64, u64) {
    (seq >> EPOCH_SHIFT, seq & ((1u64 << EPOCH_SHIFT) - 1))
}

/// A traced pipeline stage. The discriminant indexes the global
/// per-stage histogram table and [`Stage::ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// SDR front-end digitization (gain, IQ imbalance, DC, quantize).
    FrontendCapture = 0,
    /// Universal summed-preamble detection pass over a capture.
    UniversalDetect = 1,
    /// Matched-filter-bank detection pass over a capture.
    MatchedDetect = 2,
    /// Segment extraction around scored detections.
    Extract = 3,
    /// Edge (gateway-local) decode attempt on one segment.
    EdgeDecode = 4,
    /// Block-floating-point compression of one shipped segment.
    Compress = 5,
    /// ARQ sender: encode + serialize + push one data datagram.
    ArqSend = 6,
    /// ARQ receiver: decode + ack + forward one datagram.
    ArqRecv = 7,
    /// Cloud worker: unpack + full SIC decode of one segment.
    WorkerDecode = 8,
    /// One successful SIC round (classify → demodulate → cancel).
    SicRound = 9,
    /// One kill-filter application to a residual.
    KillFilter = 10,
    /// Reassembly: in-order release of one segment's frames.
    Reassembly = 11,
}

impl Stage {
    /// All stages, in discriminant order.
    pub const ALL: [Stage; N_STAGES] = [
        Stage::FrontendCapture,
        Stage::UniversalDetect,
        Stage::MatchedDetect,
        Stage::Extract,
        Stage::EdgeDecode,
        Stage::Compress,
        Stage::ArqSend,
        Stage::ArqRecv,
        Stage::WorkerDecode,
        Stage::SicRound,
        Stage::KillFilter,
        Stage::Reassembly,
    ];

    /// Stable snake_case name used in every exporter and report.
    pub const fn name(self) -> &'static str {
        match self {
            Stage::FrontendCapture => "frontend_capture",
            Stage::UniversalDetect => "universal_detect",
            Stage::MatchedDetect => "matched_detect",
            Stage::Extract => "extract",
            Stage::EdgeDecode => "edge_decode",
            Stage::Compress => "compress",
            Stage::ArqSend => "arq_send",
            Stage::ArqRecv => "arq_recv",
            Stage::WorkerDecode => "worker_decode",
            Stage::SicRound => "sic_round",
            Stage::KillFilter => "kill_filter",
            Stage::Reassembly => "reassembly",
        }
    }

    /// Inverse of the discriminant, for decoding ring slots.
    pub fn from_index(i: usize) -> Option<Stage> {
        Stage::ALL.get(i).copied()
    }
}

/// An instantaneous segment-lifecycle mark. `Ship` must eventually be
/// matched by a terminal `Decode`, `Shed`, `Lost`, or `Quarantined`
/// for the same sequence number — the core conformance invariant.
/// `Retried` is the one non-terminal fate mark: it records a decode
/// attempt the pool supervisor gave up on and re-dispatched, so a
/// retried segment still needs a terminal event later.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Segment left the gateway toward the cloud tier.
    Ship = 0,
    /// Segment was decoded by a cloud worker (terminal).
    Decode = 1,
    /// Segment was shed under backpressure (terminal).
    Shed = 2,
    /// Segment was declared lost by the ARQ sender (terminal).
    Lost = 3,
    /// A decode attempt failed (panic or lease expiry) and the pool
    /// supervisor re-dispatched the segment (non-terminal).
    Retried = 4,
    /// Segment exhausted its decode retries and was quarantined to the
    /// dead-letter record (terminal).
    Quarantined = 5,
}

impl EventKind {
    /// All event kinds, in discriminant order.
    pub const ALL: [EventKind; 6] = [
        EventKind::Ship,
        EventKind::Decode,
        EventKind::Shed,
        EventKind::Lost,
        EventKind::Retried,
        EventKind::Quarantined,
    ];

    /// Stable name used in exporters and reports.
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::Ship => "ship",
            EventKind::Decode => "decode",
            EventKind::Shed => "shed",
            EventKind::Lost => "lost",
            EventKind::Retried => "retried",
            EventKind::Quarantined => "quarantined",
        }
    }

    fn from_code(c: u8) -> Option<EventKind> {
        EventKind::ALL.get(c as usize).copied()
    }
}

// ---------------------------------------------------------------------------
// Global recorder state
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static NEXT_TID: AtomicUsize = AtomicUsize::new(0);
static SESSION_LOCK: Mutex<()> = Mutex::new(());
static REGISTRY: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static STAGE_HISTS: [AtomicHist; N_STAGES] = [const { AtomicHist::new() }; N_STAGES];

/// Tag-word bit distinguishing event slots from span slots.
const TAG_EVENT_BIT: u64 = 1 << 8;
/// Tag value of a slot that was claimed but never published.
const SLOT_EMPTY: u64 = u64::MAX;

#[inline]
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Tracing must stay usable across panic-injection tests; a poisoned
    // lock carries no broken invariant here (the state is reset at
    // every session start).
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Slot {
    tag: AtomicU64,
    seq: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            tag: AtomicU64::new(SLOT_EMPTY),
            seq: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

struct ThreadRing {
    tid: usize,
    name: String,
    slots: Box<[Slot]>,
    len: AtomicUsize,
    dropped: AtomicU64,
}

impl ThreadRing {
    fn push(&self, tag: u64, seq: u64, a: u64, b: u64) {
        let i = self.len.fetch_add(1, Ordering::Relaxed);
        if i >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let s = &self.slots[i];
        s.seq.store(seq, Ordering::Relaxed);
        s.a.store(a, Ordering::Relaxed);
        s.b.store(b, Ordering::Relaxed);
        // Publish last: a drain that races a straggler sees either the
        // whole record or an empty slot, never a torn one.
        s.tag.store(tag, Ordering::Release);
    }
}

thread_local! {
    static LOCAL: RefCell<Option<(u64, Arc<ThreadRing>)>> = const { RefCell::new(None) };
}

fn with_ring(f: impl FnOnce(&ThreadRing)) {
    LOCAL.with(|cell| {
        let mut local = cell.borrow_mut();
        let generation = GENERATION.load(Ordering::Acquire);
        let stale = match &*local {
            Some((g, _)) => *g != generation,
            None => true,
        };
        if stale {
            *local = Some((generation, register_ring()));
        }
        if let Some((_, ring)) = &*local {
            f(ring);
        }
    });
}

fn register_ring() -> Arc<ThreadRing> {
    let capacity = RING_CAPACITY.load(Ordering::Relaxed);
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let name = std::thread::current()
        .name()
        .map(str::to_owned)
        .unwrap_or_else(|| format!("thread-{tid}"));
    let slots: Box<[Slot]> = (0..capacity).map(|_| Slot::empty()).collect();
    let ring = Arc::new(ThreadRing {
        tid,
        name,
        slots,
        len: AtomicUsize::new(0),
        dropped: AtomicU64::new(0),
    });
    lock(&REGISTRY).push(Arc::clone(&ring));
    ring
}

struct AtomicHist {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHist {
    const fn new() -> AtomicHist {
        AtomicHist {
            buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[Histogram::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Histogram {
        let mut buckets = [0u64; N_BUCKETS];
        for (b, a) in buckets.iter_mut().zip(self.buckets.iter()) {
            *b = a.load(Ordering::Relaxed);
        }
        Histogram {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed) as u128,
            max: self.max.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// Is a trace session currently recording?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open a timed span for `stage`, tagged with a segment sequence
/// number (or [`NO_SEQ`]). The span is recorded when the returned
/// guard drops. When tracing is disabled this is one relaxed atomic
/// load — the clock is never read and nothing is recorded.
#[inline]
pub fn span(stage: Stage, seq: u64) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard {
            stage,
            seq,
            start_ns: 0,
            armed: false,
        };
    }
    SpanGuard {
        stage,
        seq,
        start_ns: now_ns(),
        armed: true,
    }
}

/// Record an instantaneous lifecycle event for segment `seq`.
#[inline]
pub fn event(kind: EventKind, seq: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let t = now_ns();
    with_ring(|r| r.push(kind as u64 | TAG_EVENT_BIT, seq, t, 0));
}

/// RAII guard returned by [`span`]; records the span on drop.
#[must_use = "a span measures the scope of its guard; binding to _ drops it immediately"]
pub struct SpanGuard {
    stage: Stage,
    seq: u64,
    start_ns: u64,
    armed: bool,
}

impl SpanGuard {
    /// Re-tag the span with a sequence number learned mid-stage
    /// (e.g. the ARQ receiver knows the seq only after decoding).
    #[inline]
    pub fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// Drop the span without recording it (e.g. the failed final SIC
    /// round that merely discovers there is nothing left to decode).
    #[inline]
    pub fn discard(mut self) {
        self.armed = false;
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let dur = now_ns().saturating_sub(self.start_ns);
        STAGE_HISTS[self.stage as usize].record(dur);
        with_ring(|r| r.push(self.stage as u64, self.seq, self.start_ns, dur));
    }
}

// ---------------------------------------------------------------------------
// Sessions and drained traces
// ---------------------------------------------------------------------------

/// An exclusive recording session. Created by [`TraceSession::start`],
/// consumed by [`TraceSession::finish`]. Holds a process-wide lock so
/// concurrent sessions serialize; dropping without `finish` disables
/// tracing and discards the recording.
pub struct TraceSession {
    guard: Option<MutexGuard<'static, ()>>,
}

impl TraceSession {
    /// Start recording with the default per-thread ring capacity.
    pub fn start() -> TraceSession {
        TraceSession::start_with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Start recording with an explicit per-thread ring capacity
    /// (records per thread; floored at 16).
    pub fn start_with_capacity(capacity: usize) -> TraceSession {
        let guard = SESSION_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        lock(&REGISTRY).clear();
        NEXT_TID.store(0, Ordering::Relaxed);
        RING_CAPACITY.store(capacity.max(16), Ordering::Relaxed);
        for h in &STAGE_HISTS {
            h.reset();
        }
        let _ = EPOCH.get_or_init(Instant::now);
        // Publish the new generation before enabling so every thread's
        // first record registers a fresh ring.
        GENERATION.fetch_add(1, Ordering::Release);
        ENABLED.store(true, Ordering::SeqCst);
        TraceSession { guard: Some(guard) }
    }

    /// Stop recording and drain every thread's ring into a [`Trace`].
    ///
    /// Call only after the traced pipeline's threads have been joined
    /// (see the crate docs); records from still-running threads may be
    /// missed.
    pub fn finish(mut self) -> Trace {
        ENABLED.store(false, Ordering::SeqCst);
        let rings: Vec<Arc<ThreadRing>> = lock(&REGISTRY).drain(..).collect();
        let mut trace = Trace {
            spans: Vec::new(),
            events: Vec::new(),
            threads: Vec::new(),
            dropped: 0,
            hists: STAGE_HISTS.iter().map(AtomicHist::snapshot).collect(),
        };
        for ring in &rings {
            trace.threads.push(ThreadInfo {
                tid: ring.tid,
                name: ring.name.clone(),
            });
            trace.dropped += ring.dropped.load(Ordering::Relaxed);
            let n = ring.len.load(Ordering::Relaxed).min(ring.slots.len());
            for s in &ring.slots[..n] {
                let tag = s.tag.load(Ordering::Acquire);
                if tag == SLOT_EMPTY {
                    continue;
                }
                let seq = s.seq.load(Ordering::Relaxed);
                let a = s.a.load(Ordering::Relaxed);
                let b = s.b.load(Ordering::Relaxed);
                if tag & TAG_EVENT_BIT != 0 {
                    if let Some(kind) = EventKind::from_code((tag & 0xff) as u8) {
                        trace.events.push(EventRec {
                            tid: ring.tid,
                            kind,
                            seq,
                            t_ns: a,
                        });
                    }
                } else if let Some(stage) = Stage::from_index(tag as usize) {
                    trace.spans.push(SpanRec {
                        tid: ring.tid,
                        stage,
                        seq,
                        start_ns: a,
                        dur_ns: b,
                    });
                }
            }
        }
        trace.threads.sort_by_key(|t| t.tid);
        trace.spans.sort_by_key(|s| (s.start_ns, s.tid));
        trace.events.sort_by_key(|e| (e.t_ns, e.tid));
        self.guard.take();
        trace
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        // A finished session has already stopped recording and handed
        // the session lock on; storing again here would switch off the
        // successor that was waiting on the lock.
        if self.guard.is_some() {
            ENABLED.store(false, Ordering::SeqCst);
        }
    }
}

/// One completed span, drained from a thread ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// Session-local thread id (dense, assigned at first record).
    pub tid: usize,
    /// The stage this span timed.
    pub stage: Stage,
    /// Segment sequence number, or [`NO_SEQ`].
    pub seq: u64,
    /// Start time, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// One instantaneous event, drained from a thread ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRec {
    /// Session-local thread id.
    pub tid: usize,
    /// What happened.
    pub kind: EventKind,
    /// Segment sequence number, or [`NO_SEQ`].
    pub seq: u64,
    /// Timestamp, nanoseconds since the process trace epoch.
    pub t_ns: u64,
}

/// A thread that recorded at least once during the session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadInfo {
    /// Session-local thread id.
    pub tid: usize,
    /// OS thread name at registration (pipeline threads are named,
    /// e.g. `galiot-uplink`).
    pub name: String,
}

/// Everything one [`TraceSession`] recorded: raw spans and events
/// (sorted by time), per-thread identities, the drop count, and the
/// per-stage latency histograms.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// All completed spans, sorted by start time.
    pub spans: Vec<SpanRec>,
    /// All events, sorted by timestamp.
    pub events: Vec<EventRec>,
    /// Threads that recorded during the session.
    pub threads: Vec<ThreadInfo>,
    /// Records lost to full rings (conformance demands 0).
    pub dropped: u64,
    hists: Vec<Histogram>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            spans: Vec::new(),
            events: Vec::new(),
            threads: Vec::new(),
            dropped: 0,
            hists: vec![Histogram::new(); N_STAGES],
        }
    }
}

impl Trace {
    /// The latency histogram for `stage`.
    pub fn histogram(&self, stage: Stage) -> &Histogram {
        &self.hists[stage as usize]
    }

    /// Iterate `(stage, histogram)` pairs in stage order.
    pub fn stage_histograms(&self) -> impl Iterator<Item = (Stage, &Histogram)> {
        Stage::ALL.iter().copied().zip(self.hists.iter())
    }

    /// Number of recorded spans for `stage`.
    pub fn span_count(&self, stage: Stage) -> u64 {
        self.spans.iter().filter(|s| s.stage == stage).count() as u64
    }

    /// Number of recorded events of `kind`.
    pub fn event_count(&self, kind: EventKind) -> u64 {
        self.events.iter().filter(|e| e.kind == kind).count() as u64
    }

    /// All spans tagged with segment `seq`, in time order.
    pub fn spans_for_seq(&self, seq: u64) -> Vec<&SpanRec> {
        self.spans.iter().filter(|s| s.seq == seq).collect()
    }

    /// All events tagged with segment `seq`, in time order.
    pub fn events_for_seq(&self, seq: u64) -> Vec<&EventRec> {
        self.events.iter().filter(|e| e.seq == seq).collect()
    }

    /// Serialize to `chrome://tracing` JSON (see [`export`]).
    pub fn chrome_trace_json(&self) -> String {
        export::chrome_trace_json(self)
    }

    /// Write the chrome trace to `path`.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        export::write_chrome_trace(self, path)
    }

    /// Per-stage/per-event stats report as JSON (see [`export`]).
    pub fn stats_json(&self) -> String {
        export::stats_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_invisible() {
        assert!(!enabled());
        // No session: spans and events must record nothing, and a
        // subsequent empty session must not see them.
        event(EventKind::Ship, 1);
        {
            let _s = span(Stage::Compress, 1);
        }
        let session = TraceSession::start();
        let trace = session.finish();
        assert!(trace.spans.is_empty());
        assert!(trace.events.is_empty());
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.histogram(Stage::Compress).count(), 0);
    }

    #[test]
    fn tagged_seqs_roundtrip_and_gateway_zero_is_transparent() {
        assert_eq!(tag_seq(0, 17), 17);
        assert_eq!(tag_seq(0, NO_SEQ), NO_SEQ);
        assert_eq!(tag_seq(9, NO_SEQ), NO_SEQ);
        assert_eq!(split_seq(NO_SEQ), (0, NO_SEQ));
        for (gw, seq) in [
            (1u16, 0u64),
            (1, 17),
            (2, 17),
            (513, 1 << 40),
            (u16::MAX - 1, 3),
        ] {
            let tagged = tag_seq(gw, seq);
            assert_eq!(split_seq(tagged), (gw, seq), "gw {gw} seq {seq}");
        }
        // Distinct sessions with identical seqs never collide.
        assert_ne!(tag_seq(1, 5), tag_seq(2, 5));
    }

    #[test]
    fn span_event_roundtrip_with_seq() {
        let session = TraceSession::start();
        {
            let mut s = span(Stage::WorkerDecode, NO_SEQ);
            s.set_seq(42);
            event(EventKind::Ship, 42);
            event(EventKind::Decode, 42);
        }
        {
            span(Stage::SicRound, NO_SEQ).discard();
        }
        let trace = session.finish();
        assert_eq!(trace.span_count(Stage::WorkerDecode), 1);
        assert_eq!(trace.span_count(Stage::SicRound), 0);
        assert_eq!(trace.histogram(Stage::SicRound).count(), 0);
        assert_eq!(trace.spans[0].seq, 42);
        assert_eq!(trace.event_count(EventKind::Ship), 1);
        assert_eq!(trace.event_count(EventKind::Decode), 1);
        assert_eq!(trace.histogram(Stage::WorkerDecode).count(), 1);
        // Events were recorded inside the span's lifetime.
        let s = trace.spans[0];
        for e in &trace.events {
            assert!(e.t_ns >= s.start_ns && e.t_ns <= s.start_ns + s.dur_ns);
        }
    }

    #[test]
    fn full_ring_counts_drops_instead_of_wrapping() {
        let session = TraceSession::start_with_capacity(16);
        for i in 0..40u64 {
            event(EventKind::Ship, i);
        }
        let trace = session.finish();
        assert_eq!(trace.events.len(), 16);
        assert_eq!(trace.dropped, 24);
        // The *first* records survive (no wraparound corruption).
        assert_eq!(trace.events[0].seq, 0);
        assert_eq!(trace.events[15].seq, 15);
    }

    #[test]
    fn threads_register_fresh_rings_per_session() {
        let session = TraceSession::start();
        event(EventKind::Ship, 7);
        let handle = std::thread::Builder::new()
            .name("ring-test".into())
            .spawn(|| {
                let _s = span(Stage::Extract, NO_SEQ);
            })
            .unwrap();
        handle.join().unwrap();
        let trace = session.finish();
        assert_eq!(trace.threads.len(), 2);
        assert!(trace.threads.iter().any(|t| t.name == "ring-test"));

        // Same (reused) main thread, next session: counters reset.
        let session = TraceSession::start();
        event(EventKind::Ship, 8);
        let trace = session.finish();
        assert_eq!(trace.threads.len(), 1);
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].seq, 8);
    }

    #[test]
    fn histograms_match_span_records() {
        let session = TraceSession::start();
        for _ in 0..10 {
            let _s = span(Stage::Compress, NO_SEQ);
        }
        let trace = session.finish();
        assert_eq!(trace.histogram(Stage::Compress).count(), 10);
        assert_eq!(trace.span_count(Stage::Compress), 10);
        let h = trace.histogram(Stage::Compress);
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99() && h.p99() <= h.max());
    }
}
