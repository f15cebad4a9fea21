//! The allocation budget of the gateway path — what one flush of a live
//! session, and one `process_capture` call, may ask the allocator for —
//! and of one cloud decode by a worker, and one edge attempt by a
//! session, whose buffers are warm.
//!
//! I/Q travels analog ring → digitized segment → edge attempt → packed
//! bytes without a per-flush copy in between (DESIGN.md, "Who owns the
//! samples"): a flush that finds nothing allocates nothing, and one
//! that emits a segment allocates little beyond the frame it decodes —
//! the demodulators write into the session's buffers. A cloud worker's
//! decode likewise writes into buffers the worker keeps. The budgets
//! below are measured byte counts plus
//! at most a quarter; a copy or a per-flush buffer coming back costs
//! megabytes and fails them. Counts, not timings: the same binary asks
//! for the same bytes on every run.
//!
//! One `#[test]`: the counter is process-wide.

use galiot::channel::{compose, forced_collision, snr_to_noise_power, TxEvent};
use galiot::cloud::{CloudDecoder, DecodeBuffers};
use galiot::core::{Galiot, GaliotConfig, StreamingGaliot};
use galiot::dsp::Cf32;
use galiot::gateway::{
    Attempt, EdgeBuffers, EdgeDecoder, EdgeOutcome, LagScorer, UniversalDetector,
};
use galiot::phy::registry::Registry;
use galiot::phy::TechId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Bytes requested so far by threads that are not [`uncounted`].
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the test's own thread while it only feeds the pipeline,
    /// so that its chunk vectors and metric snapshots are not counted.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn note(size: usize) {
    // A thread past its thread-local teardown counts like any other.
    if !UNCOUNTED.try_with(Cell::get).unwrap_or(false) {
        // Statistics only: nothing is published through the counter.
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state, and `UNCOUNTED` (const-initialized, no destructor)
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, since
        // every allocating method here forwards to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growth is what the program asked for beyond what it held.
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn requested() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Runs `f` without counting what this thread allocates in it.
fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    UNCOUNTED.with(|u| u.set(true));
    let out = f();
    UNCOUNTED.with(|u| u.set(false));
    out
}

const FS: f64 = 1_000_000.0;

/// A flush that emits nothing: the detections and nothing else (the
/// window's correlation trace alone was 1.7 MB when each flush
/// allocated its own). Measured: 0 bytes over noise; 4 160 in the flush
/// that decides the first frame's run of peak candidates (the run and
/// its detection), 64 in one other (4 352 where a frame was sighted and
/// deferred when a flush read a whole window).
const QUIET_FLUSH_BUDGET: u64 = 5_440;
/// A flush that emits an XBee frame's segment: one edge attempt, whose
/// demodulators write into the session's buffers (2 722 208 while they
/// allocated for their window, 8.8 MB when the segment and its three
/// correlation traces were allocated per attempt). Measured: 195 940,
/// its XBee frame read on the window its header gives (196 056 on
/// XBee's longest frame, 196 040 while the frame waited for its settle
/// point, 195 736 before the edge walked its correlations block by
/// block).
const EMITTING_FLUSH_BUDGET: u64 = 244_700;
/// What a session's first edge attempt asks for on top of that, once:
/// what each technology's correlation walk carries from one block to
/// the next — the prefix sums under a block's windows (8 bytes per lag
/// and template sample) and a block of normalized lags (4 per lag): for
/// the prototype's 8 192-, 960- and 2 200-sample preambles, 24 577-,
/// 3 137- and 14 185-lag blocks. Measured: 593 892 = 4 103 148 −
/// 196 040 − 1 745 152 − 1 568 064 on the first emitting flush while
/// spans were digitized whole. It
/// replaced the edge's own correlation trace, one f32 per sample of the
/// 218 144-sample segment (872 576, 1.68 MB while grown by `Vec`
/// doubling); allocated per attempt, either would come back on every
/// emitting flush.
const EDGE_WALK_BYTES: u64 = 593_892;
/// And, once, the span's digitization: a flush digitizes only the lags
/// it scores, so the span an edge attempt reads is digitized from the
/// analog ring into a session buffer, 8 bytes per sample of the longest
/// span seen, sized to the span (`reserve_exact`: a longer span later
/// grows it to that span, not to twice the last). A lone frame is
/// attempted on the span's first 56 814 samples, a flush past its end,
/// and leaves there. Measured: 454 512 = 2 812 524 − 196 056 − 593 892 −
/// 1 568 064 on the first emitting flush (1 745 152, 8 × 218 144, while
/// every span was digitized whole at its settle point).
const SPAN_BYTES: u64 = 8 * 56_814;
/// And, once, the session's demodulator scratch, grown on the first
/// attempt to the head and the window the edge demodulates the frame
/// in, which its header gives. Measured: 467 104 = 1 711 448 − 195 940 −
/// 593 892 − 454 512 on the first emitting flush, 195 940 on the second
/// (1 568 064 = 4 381 528 − 195 736 − 872 576 (the edge's trace, then) −
/// 1 745 152 while the frame was demodulated on XBee's longest frame).
const EDGE_DEMOD_BYTES: u64 = 1_568_064;
/// `process_capture` per capture sample (16.7 before): one digitized
/// copy (8 bytes), one correlation trace (4), the edge attempt and its
/// walks. Measured: 12.58 with the XBee frame read on its header's
/// window (13.11 on XBee's longest frame, 13.25 while the edge held a
/// trace of the segment, 13.72 while the edge's demodulators allocated
/// for their window, 13.30 while the edge borrowed the detector's
/// trace).
const BATCH_BYTES_PER_SAMPLE_BUDGET: f64 = 14.4;
/// One decode of a two-frame LoRa+XBee collision (272 000 samples) by a
/// worker that has decoded one before it: the frames, the remodulations
/// cancellation subtracts and template-sized scratch, with every
/// demodulation, kill and the residual in the worker's buffers.
/// Measured: 1 239 196 with every demodulation on the window its
/// header gives: an FSK head's length follows its anchor's width, and
/// the second collision's widest Z-Wave head (10 758 samples, 7 588 in
/// the first) grows the discriminator's and the sync correlation's
/// buffers once more (1 063 865 while every window was
/// the technology's longest frame, 1 449 401 while each cancellation
/// remodulated into a fresh frame-sized buffer, 21 282 581 while the
/// demodulators, the kill filters and the residual allocated on every
/// attempt).
const WARM_DECODE_BUDGET: u64 = 1_812_000;
/// One edge attempt on a two-frame LoRa+XBee collision (272 000
/// samples) through a session's buffers that an attempt has grown
/// before. The XBee frame lies inside the LoRa frame's reach, so no
/// cluster proves the collision before the LoRa member is decoded: the
/// attempt demodulates it, cancels it from the span and re-correlates
/// the residual over the XBee template's reach, where the XBee preamble
/// peaks. What it asks for beyond the buffers is the LoRa demodulator's
/// per-call state, the decoded frame, the remodulation's chirp tables
/// and the alignment's scratch. Measured: 198 584, the residual
/// re-correlated into the residual's own buffer (199 064 while the
/// residual was walked with per-attempt walk and peak-stream state,
/// 199 136 while XBee and Z-Wave were demodulated on their
/// longest frames, 202 333 while the LoRa member was demodulated on
/// LoRa's longest frame and its residual was the whole span; 920 while a
/// second cluster anywhere proved the collision two blocks of LoRa lags
/// in; a cold attempt, as `EdgeDecoder::process` makes, was 595 004
/// then, where the edge's trace of the segment alone was 1 088 000).
const WARM_EDGE_BUDGET: u64 = 252_900;

/// One edge attempt on a lone XBee frame's 218 144-sample span through
/// buffers an attempt on one has grown: the XBee demodulator's frame
/// and intermediates it does not keep in the buffers, the peaks, the
/// walks stopped a LoRa block past the frame's end plus the guard.
/// Measured: 199 196, the frame read on the window its header gives
/// (199 312 on XBee's longest frame).
const WARM_LONE_EDGE_BUDGET: u64 = 249_200;

#[test]
fn gateway_flushes_and_process_capture_stay_inside_their_allocation_budgets() {
    let config = GaliotConfig::prototype();
    let registry = Registry::prototype();

    // The flush step (DESIGN.md §7): a flush every `step` samples, its
    // gain and threshold over the last `window`.
    let frame = registry.max_frame_samples_for(FS, config.max_expected_payload);
    let window = 4 * frame + 2 * (frame / 8) + 128;
    let universal = UniversalDetector::new(&registry, FS, config.detect_threshold);
    let step = universal.peak_rule(window).block_lags;

    // Noise, and two XBee frames, 1.1 and 2.3 M samples in.
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let xbee = registry.get(TechId::XBee).expect("prototype").clone();
    let events =
        [5, 11].map(|k| TxEvent::new(xbee.clone(), vec![0xA5; 16], k * 2 * frame + 60_000));
    let n = window + 26 * frame;
    let capture = compose(&events, n, FS, snr_to_noise_power(18.0, 0.0), &mut rng).samples;

    // -- Live session, one flush at a time --------------------------------
    let (mut quiet, mut emitting) = (Vec::new(), Vec::new());
    uncounted(|| {
        let sys = StreamingGaliot::start(config.clone(), registry.clone());
        let busy = || sys.metrics().snapshot().gateway_busy_ns;
        for flush in 0..capture.len() / step {
            // Each chunk is one step of the capture: one flush per chunk.
            let (before, busy_before) = (requested(), busy());
            let segments_before = sys.metrics().snapshot().segments;
            sys.push_chunk(capture[flush * step..(flush + 1) * step].to_vec());
            // A flush books its busy time on its way out.
            let deadline = Instant::now() + Duration::from_secs(120);
            while busy() == busy_before {
                assert!(Instant::now() < deadline, "flush {flush} never finished");
                std::thread::yield_now();
            }
            let emitted = sys.metrics().snapshot().segments - segments_before;
            for _ in 0..emitted {
                // The segment's frame comes out through the merge.
                let frame = sys.frames().recv_timeout(Duration::from_secs(120));
                assert!(
                    frame.is_ok(),
                    "flush {flush} emitted a segment and no frame"
                );
            }
            let bytes = requested() - before;
            match (flush, emitted) {
                (0 | 1, _) => {} // buffers growing to size
                (_, 0) => quiet.push((flush, bytes)),
                _ => emitting.push((flush, bytes)),
            }
        }
        let rest = sys.finish();
        assert!(rest.is_empty(), "frames nobody waited for: {rest:?}");
    });
    let sighted: Vec<_> = quiet.iter().filter(|q| q.1 > 0).collect();
    println!(
        "quiet flushes that allocated {sighted:?} of {}, emitting flushes {emitting:?}",
        quiet.len()
    );
    assert_eq!(emitting.len(), 2, "two frames, two emitting flushes");
    assert!(quiet.len() >= 100);
    for &(flush, bytes) in &quiet {
        assert!(
            bytes <= QUIET_FLUSH_BUDGET,
            "quiet flush {flush} requested {bytes} bytes, budget {QUIET_FLUSH_BUDGET}"
        );
    }
    // Over noise a flush requests nothing at all: only a flush that
    // decides one of the two frames' peaks may.
    assert!(sighted.len() <= 2, "{sighted:?}");
    // The session's buffers are allocated once: the first edge attempt
    // pays for the edge's walks, the span's digitization and the
    // demodulators' scratch, the second for nothing but itself.
    let first = EDGE_WALK_BYTES + SPAN_BYTES + EDGE_DEMOD_BYTES;
    for (&(flush, bytes), once) in emitting.iter().zip([first, 0]) {
        let budget = EMITTING_FLUSH_BUDGET + once;
        assert!(
            bytes <= budget,
            "emitting flush {flush} requested {bytes} bytes, budget {budget}"
        );
    }

    // -- Batch --------------------------------------------------------------
    // Over the stretch that holds the first frame only.
    let capture = &capture[..window + 16 * frame];
    let system = Galiot::new(config, registry);
    // Once for the lazily built plans and template banks, then measured.
    let warm = system.process_capture(capture);
    assert_eq!(warm.frames.len(), 1, "{:?}", warm.metrics);
    let before = requested();
    let report = system.process_capture(capture);
    let bytes = requested() - before;
    assert_eq!(report.frames.len(), 1);
    let per_sample = bytes as f64 / capture.len() as f64;
    println!("process_capture requested {bytes} bytes, {per_sample:.2} a sample");
    assert!(
        per_sample <= BATCH_BYTES_PER_SAMPLE_BUDGET,
        "process_capture requested {bytes} bytes for {} samples: {per_sample:.2} a sample, \
         budget {BATCH_BYTES_PER_SAMPLE_BUDGET}",
        capture.len()
    );

    // -- Cloud ----------------------------------------------------------------
    // A worker's second two-frame collision: its buffers already hold a
    // segment as long.
    let decoder = CloudDecoder::new(Registry::prototype());
    let mut buffers = DecodeBuffers::default();
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    let noise = snr_to_noise_power(18.0, 0.0);
    let [first, second] = [0, 1].map(|_| {
        let events = forced_collision(decoder.registry(), 8, &[0.0, 1.0], 20_000, 10_000, &mut rng);
        compose(&events, 272_000, FS, noise, &mut rng).samples
    });
    let warm = decoder.decode_reusing(&first, FS, &mut buffers);
    assert_eq!(warm.frames.len(), 2, "{warm:?}");
    let before = requested();
    let result = decoder.decode_reusing(&second, FS, &mut buffers);
    let bytes = requested() - before;
    assert_eq!(result.frames.len(), 2, "{result:?}");
    println!("a warm decode of a two-frame collision requested {bytes} bytes");
    assert!(
        bytes <= WARM_DECODE_BUDGET,
        "a warm decode requested {bytes} bytes, budget {WARM_DECODE_BUDGET}"
    );

    // -- Edge -----------------------------------------------------------------
    // A session's second edge attempt on the same collisions.
    let edge = EdgeDecoder::new(Registry::prototype());
    let mut buffers = EdgeBuffers::default();
    let mut attempt = |samples: &[Cf32]| {
        edge.attempt(samples, 0..samples.len(), FS, |_| false, None, &mut buffers)
    };
    // The LoRa member decodes; the XBee preamble left in its residual
    // ships the span with it.
    let lora_ships = |a: &Attempt| matches!(a, Attempt::Final(EdgeOutcome::ShipToCloud(f)) if f.len() == 1 && f[0].tech == TechId::LoRa);
    let warm = attempt(&first);
    assert!(lora_ships(&warm), "{warm:?}");
    let before = requested();
    let outcome = attempt(&second);
    let bytes = requested() - before;
    assert!(lora_ships(&outcome), "{outcome:?}");
    println!("a warm edge attempt on a two-frame collision requested {bytes} bytes");
    assert!(
        bytes <= WARM_EDGE_BUDGET,
        "a warm edge attempt requested {bytes} bytes, budget {WARM_EDGE_BUDGET}"
    );

    // An attempt on a lone XBee frame's span as the gateway cuts it,
    // through buffers an attempt on one has grown: it leaves at the
    // frame's end.
    let xbee = Registry::prototype().get(TechId::XBee).unwrap().clone();
    let [first, span] = [0, 1].map(|_| {
        let lone = [TxEvent::new(xbee.clone(), vec![0xA5; 16], 12_832)];
        compose(&lone, 218_144, FS, noise, &mut rng).samples
    });
    attempt(&first);
    let before = requested();
    let outcome = attempt(&span);
    let bytes = requested() - before;
    assert!(
        matches!(&outcome, Attempt::Final(EdgeOutcome::DecodedLocally(f)) if f.payload == [0xA5; 16]),
        "{outcome:?}"
    );
    println!("a warm edge attempt on a lone XBee frame's span requested {bytes} bytes");
    assert!(
        bytes <= WARM_LONE_EDGE_BUDGET,
        "a warm lone edge attempt requested {bytes} bytes, budget {WARM_LONE_EDGE_BUDGET}"
    );
}
