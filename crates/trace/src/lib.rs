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
//! - **Near-zero disabled cost.** [`span`] and [`event`] check the
//!   calling thread's recorder (one thread-local read) and return
//!   without reading the clock when it has none. The hot path never
//!   allocates: a record is four `u64` stores into a pre-sized ring.
//! - **Lock-free recording, no `unsafe`.** Each thread owns one
//!   [`Arc`]'d ring of atomic slot quads; it is the only writer.
//!   Slots are claimed with a relaxed `fetch_add` and published with a
//!   release store of the tag word. A full ring *counts drops* instead
//!   of wrapping, so the conformance oracle can demand `dropped == 0`
//!   rather than silently losing the records it is about to assert on.
//! - **A session owns its recorder.** [`TraceSession::start`] creates
//!   one recorder (thread rings + stage histograms) and makes it the
//!   *calling thread's* current recorder; a thread records into its
//!   current recorder or nowhere. Pipeline threads get theirs from the
//!   thread that spawned them ([`inherit`], called by
//!   `galiot_core::spawn_thread`), so a pipeline started inside a
//!   session is traced whole, one started outside any session costs a
//!   thread-local read per span, and concurrent sessions in one
//!   process never see each other's records.
//! - **Drain after quiescence.** [`TraceSession::finish`] must be
//!   called after the traced pipeline's threads have been joined
//!   (`StreamingGaliot::finish` returns post-join, so the natural call
//!   order is correct). Records written by still-running threads may
//!   be missed or half-visible; a thread the pipeline abandoned (a
//!   hung decode worker) keeps the recorder alive and stops recording
//!   into it once the session is finished.
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
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
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

/// A traced pipeline stage. The discriminant indexes a recorder's
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
// The recorder
// ---------------------------------------------------------------------------

/// Time origin of every timestamp; process-wide so traces of
/// concurrent sessions share one axis.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Tag-word bit distinguishing event slots from span slots.
const TAG_EVENT_BIT: u64 = 1 << 8;
/// Tag value of a slot that was claimed but never published.
const SLOT_EMPTY: u64 = u64::MAX;

#[inline]
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
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
    info: ThreadInfo,
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
}

/// Everything one session records into: created by
/// [`TraceSession::start`], shared (`Arc`) with every thread that
/// inherits it, drained by [`TraceSession::finish`].
struct Recorder {
    /// Cleared when the session ends, so a thread that outlives it
    /// stops paying for the clock. Publishes no other data (a drain
    /// follows the joins of the threads it reads), hence `Relaxed`.
    recording: AtomicBool,
    ring_capacity: usize,
    /// One ring per thread that recorded, in registration order — a
    /// ring's index is its session-local thread id.
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    hists: [AtomicHist; N_STAGES],
}

impl Recorder {
    fn register_ring(&self) -> Arc<ThreadRing> {
        // Tracing must stay usable across panic-injection tests; a
        // poisoned lock carries no broken invariant (push-only list).
        let mut rings = self.rings.lock().unwrap_or_else(PoisonError::into_inner);
        let tid = rings.len();
        let name = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{tid}"));
        let ring = Arc::new(ThreadRing {
            info: ThreadInfo { tid, name },
            slots: (0..self.ring_capacity).map(|_| Slot::empty()).collect(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        });
        rings.push(Arc::clone(&ring));
        ring
    }
}

/// A thread's current recorder and, once it has recorded, its ring in
/// it.
type Local = (Arc<Recorder>, Option<Arc<ThreadRing>>);

thread_local! {
    static CURRENT: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// Makes `recorder` (or nothing) the calling thread's current recorder.
fn install(recorder: Option<Arc<Recorder>>) {
    // `try_with`: a thread already tearing its locals down records
    // nowhere.
    let _ = CURRENT.try_with(|cell| {
        *cell.borrow_mut() = recorder.map(|recorder| (recorder, None));
    });
}

/// Runs `f` on the calling thread's recorder and ring, if the thread
/// has a recorder that is still recording.
fn record(f: impl FnOnce(&Recorder, &ThreadRing)) {
    let _ = CURRENT.try_with(|cell| {
        if let Some((recorder, ring)) = &mut *cell.borrow_mut() {
            if recorder.recording.load(Ordering::Relaxed) {
                f(
                    recorder,
                    ring.get_or_insert_with(|| recorder.register_ring()),
                );
            }
        }
    });
}

/// Captures the calling thread's current recorder for a thread it is
/// about to spawn: run the returned closure first thing on the child
/// and the child records into the same session as its parent (or
/// nowhere, if the parent has none). `galiot_core::spawn_thread` — the
/// one place pipeline threads are born — does exactly that.
pub fn inherit() -> impl FnOnce() + Send + 'static {
    let recorder = CURRENT
        .try_with(|cell| cell.borrow().as_ref().map(|(r, _)| Arc::clone(r)))
        .ok()
        .flatten();
    move || install(recorder)
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// Is the calling thread recording into a live trace session?
#[inline]
pub fn enabled() -> bool {
    CURRENT
        .try_with(|cell| {
            cell.borrow()
                .as_ref()
                .is_some_and(|(r, _)| r.recording.load(Ordering::Relaxed))
        })
        .unwrap_or(false)
}

/// Open a timed span for `stage`, tagged with a segment sequence
/// number (or [`NO_SEQ`]). The span is recorded when the returned
/// guard drops. On a thread with no live recorder this is one
/// thread-local read — the clock is never read and nothing is recorded.
#[inline]
pub fn span(stage: Stage, seq: u64) -> SpanGuard {
    let armed = enabled();
    SpanGuard {
        stage,
        seq,
        start_ns: if armed { now_ns() } else { 0 },
        armed,
    }
}

/// Record an instantaneous lifecycle event for segment `seq`.
#[inline]
pub fn event(kind: EventKind, seq: u64) {
    record(|_, ring| ring.push(kind as u64 | TAG_EVENT_BIT, seq, now_ns(), 0));
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
        record(|recorder, ring| {
            recorder.hists[self.stage as usize].record(dur);
            ring.push(self.stage as u64, self.seq, self.start_ns, dur);
        });
    }
}

// ---------------------------------------------------------------------------
// Sessions and drained traces
// ---------------------------------------------------------------------------

/// A recording session: owns one recorder, which the starting thread
/// and every pipeline thread spawned under it record into. Created by
/// [`TraceSession::start`], consumed by [`TraceSession::finish`];
/// dropping without `finish` discards the recording. Sessions on
/// different threads are independent.
pub struct TraceSession {
    recorder: Arc<Recorder>,
}

impl TraceSession {
    /// Start recording with the default per-thread ring capacity.
    pub fn start() -> TraceSession {
        TraceSession::start_with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Start recording with an explicit per-thread ring capacity
    /// (records per thread; floored at 16). The new recorder replaces
    /// whatever the calling thread was recording into.
    pub fn start_with_capacity(capacity: usize) -> TraceSession {
        let _ = EPOCH.get_or_init(Instant::now);
        let recorder = Arc::new(Recorder {
            recording: AtomicBool::new(true),
            ring_capacity: capacity.max(16),
            rings: Mutex::new(Vec::new()),
            hists: [const { AtomicHist::new() }; N_STAGES],
        });
        install(Some(Arc::clone(&recorder)));
        TraceSession { recorder }
    }

    /// Drain every thread's ring into a [`Trace`]; recording stops as
    /// the session drops.
    ///
    /// Call only after the traced pipeline's threads have been joined
    /// (see the crate docs); records from still-running threads may be
    /// missed.
    pub fn finish(self) -> Trace {
        let recorder = &self.recorder;
        let rings = recorder
            .rings
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut trace = Trace {
            hists: recorder.hists.iter().map(AtomicHist::snapshot).collect(),
            ..Trace::default()
        };
        for ring in rings.iter() {
            trace.threads.push(ring.info.clone());
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
                            tid: ring.info.tid,
                            kind,
                            seq,
                            t_ns: a,
                        });
                    }
                } else if let Some(stage) = Stage::from_index(tag as usize) {
                    trace.spans.push(SpanRec {
                        tid: ring.info.tid,
                        stage,
                        seq,
                        start_ns: a,
                        dur_ns: b,
                    });
                }
            }
        }
        trace.spans.sort_by_key(|s| (s.start_ns, s.tid));
        trace.events.sort_by_key(|e| (e.t_ns, e.tid));
        trace
    }
}

impl Drop for TraceSession {
    /// Ends recording (a finished session has been drained by now), and
    /// detaches the calling thread if this session's recorder is still
    /// its current one.
    fn drop(&mut self) {
        self.recorder.recording.store(false, Ordering::Relaxed);
        let _ = CURRENT.try_with(|cell| {
            let mut current = cell.borrow_mut();
            if matches!(&*current, Some((r, _)) if Arc::ptr_eq(r, &self.recorder)) {
                *current = None;
            }
        });
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
    use std::sync::mpsc;

    #[test]
    fn disabled_recording_is_invisible() {
        // Another thread's session is open for as long as this thread
        // records: with no recorder of its own, this thread is disabled
        // and its records go nowhere — not into that session either.
        let (opened_tx, opened_rx) = mpsc::channel();
        let (close_tx, close_rx) = mpsc::channel();
        let other = std::thread::spawn(move || {
            let session = TraceSession::start();
            opened_tx.send(()).unwrap();
            close_rx.recv().unwrap();
            session.finish()
        });
        opened_rx.recv().unwrap();
        assert!(!enabled());
        event(EventKind::Ship, 1);
        {
            let _s = span(Stage::Compress, 1);
        }
        close_tx.send(()).unwrap();
        // Nor does a session this thread opens afterwards see them.
        for trace in [other.join().unwrap(), TraceSession::start().finish()] {
            assert!(trace.spans.is_empty());
            assert!(trace.events.is_empty());
            assert!(trace.threads.is_empty());
            assert_eq!(trace.dropped, 0);
            assert_eq!(trace.histogram(Stage::Compress).count(), 0);
        }
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
    fn threads_record_into_the_recorder_they_inherit_or_nowhere() {
        let session = TraceSession::start();
        event(EventKind::Ship, 7);
        let adopt = inherit();
        let heir = std::thread::Builder::new()
            .name("ring-test".into())
            .spawn(move || {
                adopt();
                assert!(enabled());
                let _s = span(Stage::Extract, NO_SEQ);
            })
            .unwrap();
        // Spawned while the session is open, but outside its lineage.
        let stranger = std::thread::spawn(|| {
            assert!(!enabled());
            let _s = span(Stage::Compress, NO_SEQ);
            event(EventKind::Shed, 9);
        });
        heir.join().unwrap();
        stranger.join().unwrap();
        let trace = session.finish();
        assert_eq!(trace.threads.len(), 2);
        assert!(trace.threads.iter().any(|t| t.name == "ring-test"));
        assert_eq!(trace.span_count(Stage::Extract), 1);
        assert_eq!(trace.spans.len(), 1, "{:?}", trace.spans);
        assert_eq!(trace.event_count(EventKind::Shed), 0);
        assert!(!enabled(), "finish must detach the session's own thread");

        // Same (reused) main thread, next session: a fresh recorder.
        let session = TraceSession::start();
        event(EventKind::Ship, 8);
        let trace = session.finish();
        assert_eq!(trace.threads.len(), 1);
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].seq, 8);
        assert_eq!(trace.histogram(Stage::Extract).count(), 0);
    }

    #[test]
    fn recorder_outlives_finish_while_an_abandoned_thread_holds_it() {
        let session = TraceSession::start();
        let adopt = inherit();
        let (recorded_tx, recorded_rx) = mpsc::channel();
        let (wake_tx, wake_rx) = mpsc::channel();
        // A hung worker: records once, then wakes after the session it
        // belongs to has been drained and dropped.
        let hung = std::thread::spawn(move || {
            adopt();
            event(EventKind::Ship, 1);
            recorded_tx.send(()).unwrap();
            wake_rx.recv().unwrap();
            let _s = span(Stage::WorkerDecode, 1);
            event(EventKind::Decode, 1);
            enabled()
        });
        recorded_rx.recv().unwrap();
        let trace = session.finish();
        assert_eq!(trace.events.len(), 1);
        wake_tx.send(()).unwrap();
        assert!(!hung.join().unwrap(), "straggler still recording");
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
