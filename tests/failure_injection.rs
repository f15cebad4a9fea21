//! Failure injection: hostile, malformed and degenerate inputs must
//! produce errors (or empty results), never panics or wrong frames.

use galiot::channel::{compose, decode_fault_seed, scenario_seed, snr_to_noise_power, TxEvent};
use galiot::cloud::{cancel_frame, sic_decode, SicParams};
use galiot::core::{DecodeFaultKind, DecodeFaultSpec, Metrics, PipelineFrame};
use galiot::dsp::spectral::Band;
use galiot::dsp::Cf32;
use galiot::gateway::{compress, decompress, CompressedSegment, EnergyDetector, PacketDetector};
use galiot::phy::common::KillRecipe;
use galiot::phy::registry::TechHandle;
use galiot::phy::{DecodedFrame, ModClass, PhyError};
use galiot::prelude::*;
use galiot::trace::verify::{check_gateway_terminals, check_ship_terminals};
use galiot::trace::TraceSession;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

const FS: f64 = 1_000_000.0;

/// Serializes the two decode-deadline matrices — for *timing*, not for
/// tracing (each cell's trace session sees only its own pipeline): a
/// cell asserts that honest decodes beat a 2 s lease and that the whole
/// hang ladder fits a 90 s budget, and two matrices contending for the
/// same cores turn those wall-clock bounds into a lottery (ROADMAP,
/// *clock*). The other tests assert no timing and run alongside.
static TIMING: Mutex<()> = Mutex::new(());

fn timing_lock() -> MutexGuard<'static, ()> {
    TIMING.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn truncated_frames_error_cleanly_for_every_phy() {
    let reg = Registry::extended();
    for tech in reg.techs() {
        let fs = if tech.id() == TechId::SigFox {
            100_000.0
        } else {
            FS
        };
        let sig = tech.modulate(&[1, 2, 3, 4, 5, 6], fs);
        // Cut at many points, including mid-preamble and mid-payload.
        for frac in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let cut = (sig.len() as f64 * frac) as usize;
            let r = tech.demodulate(&sig[..cut], fs);
            assert!(
                r.is_err() || r.as_ref().unwrap().payload == vec![1, 2, 3, 4, 5, 6],
                "{} at {frac}: accepted a wrong frame {r:?}",
                tech.id(),
            );
        }
    }
}

#[test]
fn degenerate_samples_do_not_panic_detectors_or_demods() {
    let reg = Registry::prototype();
    let nasty: Vec<Cf32> = (0..50_000)
        .map(|i| match i % 5 {
            0 => Cf32::new(f32::NAN, 0.0),
            1 => Cf32::new(0.0, f32::INFINITY),
            2 => Cf32::new(-f32::INFINITY, f32::NAN),
            3 => Cf32::new(1e30, -1e30),
            _ => Cf32::ZERO,
        })
        .collect();
    // Detectors: any result is fine, panicking is not.
    let _ = UniversalDetector::auto(&reg, FS).detect(&nasty, FS);
    let _ = EnergyDetector::default().detect(&nasty, FS);
    // Demodulators must not return a "decoded" frame from garbage.
    for tech in reg.techs() {
        if let Ok(frame) = tech.demodulate(&nasty, FS) {
            panic!("{} decoded a frame from NaN soup: {frame:?}", tech.id());
        }
    }
}

#[test]
fn empty_and_tiny_captures_flow_through_the_pipeline() {
    let system = Galiot::new(GaliotConfig::prototype(), Registry::prototype());
    for n in [0usize, 1, 7, 100, 1000] {
        let report = system.process_capture(&vec![Cf32::ZERO; n]);
        assert!(report.frames.is_empty(), "{n} samples produced frames");
    }
}

#[test]
fn corrupted_compressed_segments_decompress_without_panic() {
    let mut rng = StdRng::seed_from_u64(scenario_seed(1));
    let reg = Registry::prototype();
    let xbee = reg.get(TechId::XBee).unwrap().clone();
    let ev = TxEvent::new(xbee, vec![1, 2, 3], 2_000);
    let cap = compose(&[ev], 30_000, FS, 0.01, &mut rng);
    let c = compress(&cap.samples, 8, 256);

    // Flip bytes throughout the code stream.
    let mut bad = c.clone();
    for i in (0..bad.data.len()).step_by(97) {
        bad.data[i] ^= 0xFF;
    }
    let out = decompress(&bad);
    assert_eq!(out.len(), cap.samples.len());

    // Truncated code stream: missing bytes read as zero.
    let short = CompressedSegment {
        data: c.data[..c.data.len() / 2].to_vec(),
        ..c.clone()
    };
    let out = decompress(&short);
    assert_eq!(out.len(), cap.samples.len());

    // Hostile scale factors.
    let mut evil = c;
    for s in &mut evil.scales {
        *s = f32::INFINITY;
    }
    let _ = decompress(&evil); // must not panic
}

#[test]
fn cancellation_with_a_lying_frame_does_not_panic_or_amplify() {
    // A frame whose payload does NOT match what's on the air: the
    // block gains should fit poorly and the subtraction stay bounded.
    let mut rng = StdRng::seed_from_u64(scenario_seed(2));
    let reg = Registry::prototype();
    let xbee = reg.get(TechId::XBee).unwrap().clone();
    let ev = TxEvent::new(xbee.clone(), vec![0xAA; 10], 3_000);
    let cap = compose(&[ev], 40_000, FS, 0.01, &mut rng);
    let lie = galiot::phy::DecodedFrame {
        tech: TechId::XBee,
        payload: vec![0x55; 10], // wrong bits
        start: 3_000,
        len: 100,
    };
    let mut residual = cap.samples.clone();
    let before = galiot::dsp::power::mean_power(&residual);
    let _ = cancel_frame(&mut residual, xbee.as_ref(), &lie, FS, 64);
    let after = galiot::dsp::power::mean_power(&residual);
    assert!(
        after <= before * 1.5,
        "cancellation amplified energy: {before} -> {after}"
    );
}

#[test]
fn sic_handles_captures_full_of_preamble_lookalikes() {
    // A capture that is nothing but repeated preamble patterns (no
    // valid frames) must terminate and return nothing.
    let reg = Registry::prototype();
    let xbee = reg.get(TechId::XBee).unwrap().clone();
    let pre = xbee.preamble_waveform(FS);
    let mut capture = Vec::new();
    for _ in 0..20 {
        capture.extend_from_slice(&pre);
    }
    let res = sic_decode(&capture, FS, &reg, &SicParams::default());
    assert!(res.frames.is_empty());
}

#[test]
fn zero_power_capture_is_quiet_everywhere() {
    let reg = Registry::prototype();
    let silence = vec![Cf32::ZERO; 200_000];
    assert!(UniversalDetector::auto(&reg, FS)
        .detect(&silence, FS)
        .is_empty());
    let dec = CloudDecoder::new(reg.clone());
    assert!(dec.decode(&silence, FS).frames.is_empty());
    for tech in reg.techs() {
        assert!(tech.demodulate(&silence, FS).is_err(), "{}", tech.id());
    }
}

/// A sabotaged technology: looks exactly like the wrapped PHY on the
/// air (same preamble, same modulator — so detection, classification
/// and extraction all engage), but its demodulator panics. This is the
/// "poisoned segment" of the worker-pool failure model: a decode that
/// blows up *inside* a cloud worker.
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

#[test]
fn poisoned_segment_does_not_take_down_the_worker_pool() {
    // The cloud registry decodes with a PHY whose demodulator panics,
    // so every shipped segment detonates inside a worker. The pool must
    // contain each blast, count it, keep the remaining segments
    // flowing, and still shut down cleanly.
    let mut rng = StdRng::seed_from_u64(scenario_seed(21));
    let real = Registry::prototype();
    let xbee = real.get(TechId::XBee).unwrap().clone();
    let mut poisoned = Registry::new();
    poisoned.push(Arc::new(PanickingPhy(xbee.clone())) as TechHandle);

    let events: Vec<TxEvent> = (0..3)
        .map(|i| {
            TxEvent::new(
                xbee.clone(),
                vec![i as u8; 5],
                60_000 + i as usize * 400_000,
            )
        })
        .collect();
    let np = snr_to_noise_power(18.0, 0.0);
    let cap = compose(&events, 1_400_000, FS, np, &mut rng);

    let mut config = GaliotConfig::prototype().with_cloud_workers(2);
    config.edge_decoding = false; // force every segment through the pool
    let sys = StreamingGaliot::start(config, poisoned);
    let metrics = sys.metrics().clone();
    for chunk in cap.samples.chunks(65_536) {
        sys.push_chunk(chunk.to_vec());
    }
    let frames = sys.finish(); // must return, not hang or die
    let m = metrics.snapshot();

    assert!(
        frames.is_empty(),
        "poisoned decode produced frames: {frames:?}"
    );
    // Every segment detonates on every attempt, so the supervisor
    // walks each one down the full retry ladder (attempt 0 plus
    // `decode_retries` = 2 retries) and then quarantines it.
    let shipped = m.shipped_segments;
    assert!(shipped >= 1, "nothing shipped: {m:?}");
    assert_eq!(
        m.decode_poisoned,
        3 * shipped,
        "every attempt should have been poisoned: {m:?}"
    );
    assert_eq!(m.decode_retried, 2 * shipped, "retry ladder: {m:?}");
    assert_eq!(m.decode_quarantined, shipped, "quarantine count: {m:?}");
    assert_eq!(
        m.quarantine_records.len(),
        shipped,
        "dead-letter records: {m:?}"
    );
    assert_eq!(
        m.per_worker_segments.values().sum::<usize>(),
        3 * shipped,
        "pool attempt accounting: {m:?}"
    );
}

#[test]
fn nan_burst_between_packets_does_not_stop_the_stream() {
    // Clean packet, then a burst of NaN/Inf garbage samples, then
    // another clean packet: both packets must decode and the pipeline
    // must terminate normally.
    let mut rng = StdRng::seed_from_u64(scenario_seed(22));
    let reg = Registry::prototype();
    let zwave = reg.get(TechId::ZWave).unwrap().clone();
    let np = snr_to_noise_power(18.0, 0.0);
    let first = compose(
        &[TxEvent::new(zwave.clone(), vec![0x0F; 6], 60_000)],
        400_000,
        FS,
        np,
        &mut rng,
    );
    let second = compose(
        &[TxEvent::new(zwave, vec![0xF0; 6], 60_000)],
        400_000,
        FS,
        np,
        &mut rng,
    );
    let burst: Vec<Cf32> = (0..50_000)
        .map(|i| match i % 4 {
            0 => Cf32::new(f32::NAN, 0.0),
            1 => Cf32::new(0.0, f32::INFINITY),
            2 => Cf32::new(1e30, -1e30),
            _ => Cf32::new(f32::NEG_INFINITY, f32::NAN),
        })
        .collect();

    // Quiet spans longer than a gateway's gain window isolate the burst:
    // the windows that digitize NaN (auto-gain smears NaN across its
    // whole window, exactly as the batch front end would) detect
    // nothing, and the stream must carry on into the clean windows.
    let quiet = vec![Cf32::ZERO; 600_000];
    let sys = StreamingGaliot::start(GaliotConfig::prototype().with_cloud_workers(2), reg);
    for part in [&first.samples, &quiet, &burst, &quiet, &second.samples] {
        for chunk in part.chunks(32_768) {
            sys.push_chunk(chunk.to_vec());
        }
    }
    let frames = sys.finish();
    let payloads: Vec<&Vec<u8>> = frames.iter().map(|f| &f.frame.payload).collect();
    assert!(
        payloads.contains(&&vec![0x0F; 6]) && payloads.contains(&&vec![0xF0; 6]),
        "packets around the NaN burst were lost: {payloads:?}"
    );
}

#[test]
fn malformed_length_fields_are_rejected() {
    // Craft an XBee frame, then decode with a registry whose XBee
    // expects the same framing — but corrupt only the PHR so the
    // length points past the capture.
    let mut rng = StdRng::seed_from_u64(scenario_seed(3));
    let reg = Registry::prototype();
    let xbee = reg.get(TechId::XBee).unwrap().clone();
    let ev = TxEvent::new(xbee.clone(), vec![5; 4], 1_000);
    let cap = compose(&[ev], 20_000, FS, 0.001, &mut rng);
    // The PHR sits right after the 6 sync bytes: flip its bits by
    // conjugating that region (inverts FSK tones).
    let sps = 20; // 50 kb/s at 1 Msps
    let phr_at = 1_000 + 6 * 8 * sps;
    let mut bad = cap.samples.clone();
    for z in &mut bad[phr_at..phr_at + 16 * sps] {
        *z = z.conj();
    }
    match xbee.demodulate(&bad, FS) {
        Err(_) => {}
        Ok(frame) => assert_ne!(frame.payload, vec![5; 4], "corrupt PHR accepted"),
    }
}

// ------------------------------------------------------------------
// The decode-recovery keystone matrix: workers {2,4} × fault kind
// {panic, hang, slow} × topology {streaming, fleet}, each cell under a
// hard wall-clock deadline. A quarantine-regime pass (strikes outlast
// the retry ladder) proves delivery loses *only* the quarantined
// windows' frames with closed per-fate accounting; a healing-regime
// pass (strikes the ladder absorbs) proves delivery stays lossless.

type Fid = (TechId, Vec<u8>, usize);

fn fids(frames: &[PipelineFrame]) -> Vec<Fid> {
    frames
        .iter()
        .map(|f| (f.frame.tech, f.frame.payload.clone(), f.frame.start))
        .collect()
}

struct RecoveryFixture {
    capture: Vec<Cf32>,
    /// The lossless batch reference every cell's delivery is judged
    /// against.
    batch: Vec<Fid>,
}

fn recovery_fixture() -> &'static RecoveryFixture {
    static FIX: OnceLock<RecoveryFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(scenario_seed(31));
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let events: Vec<TxEvent> = (0..3)
            .map(|i| {
                TxEvent::new(
                    xbee.clone(),
                    vec![0x40 + i as u8; 5],
                    60_000 + i as usize * 400_000,
                )
            })
            .collect();
        let np = snr_to_noise_power(18.0, 0.0);
        let cap = compose(&events, 1_300_000, FS, np, &mut rng);
        let mut config = GaliotConfig::prototype();
        config.edge_decoding = false;
        let batch = fids(
            &Galiot::new(config, reg)
                .process_capture(&cap.samples)
                .frames,
        );
        assert_eq!(batch.len(), 3, "fixture must decode all three packets");
        RecoveryFixture {
            capture: cap.samples,
            batch,
        }
    })
}

/// Runs `f` on its own thread and panics if it has not finished within
/// `secs` — the matrix's "a hung worker must never stall delivery"
/// guarantee, enforced with wall clock rather than trust.
fn with_hard_deadline(name: &str, secs: u64, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name(format!("cell-{name}"))
        .spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        })
        .expect("spawn matrix cell");
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(Ok(())) => {}
        Ok(Err(p)) => resume_unwind(p),
        Err(_) => panic!("recovery cell `{name}` blew its {secs}s hard deadline: delivery stalled"),
    }
}

/// Delivered frames must 1:1-match into the reference (within start
/// tolerance), and every reference frame left unmatched must start
/// inside some quarantined segment's `[start, start + len)` window.
fn assert_lost_only_to_quarantine(got: &[Fid], want: &[Fid], m: &Metrics, ctx: &str) {
    let mut missing: Vec<&Fid> = want.iter().collect();
    for f in got {
        let i = missing
            .iter()
            .position(|b| b.0 == f.0 && b.1 == f.1 && b.2.abs_diff(f.2) <= 32)
            .unwrap_or_else(|| panic!("{ctx}: delivered {f:?} has no reference counterpart"));
        missing.remove(i);
    }
    for f in missing {
        let covered = m.quarantine_records.iter().any(|r| {
            let lo = (r.start as usize).saturating_sub(32);
            (lo..r.start as usize + r.len + 32).contains(&f.2)
        });
        assert!(
            covered,
            "{ctx}: frame {f:?} lost outside every quarantined window: {:?}",
            m.quarantine_records
        );
    }
}

/// One matrix cell: run the topology under the fault plan, then check
/// delivery, capture order, per-fate trace reconciliation, and the
/// supervision counters.
fn run_recovery_cell(workers: usize, kind: DecodeFaultKind, fleet: bool, sticky: u32) {
    let fix = recovery_fixture();
    let spec = DecodeFaultSpec {
        kind,
        period: 1, // strike every segment: no dependence on the seed sweep
        sticky_attempts: sticky,
        seed: decode_fault_seed(0x51C0),
    };
    // 2 s: long enough that an honest decode never trips it even with
    // every worker contending for one CPU, short enough that the full
    // hang ladder (3 attempts/segment) stays well inside the cell's
    // hard deadline.
    let mut config = GaliotConfig::prototype()
        .with_cloud_workers(workers)
        .with_decode_deadline(2.0)
        .with_decode_faults(spec);
    config.edge_decoding = false; // every frame must cross the pool
    if fleet {
        config = config.with_gateways(2);
    }
    let ctx = format!(
        "{workers}w/{}/{}/sticky{sticky}",
        kind.name(),
        if fleet { "fleet" } else { "streaming" }
    );

    let session = TraceSession::start();
    let (frames, m) = if fleet {
        let sys = FleetGaliot::start(config, Registry::prototype());
        let metrics = sys.metrics().clone();
        for chunk in fix.capture.chunks(65_536) {
            sys.push_chunk(chunk.to_vec());
        }
        (sys.finish(), metrics.snapshot())
    } else {
        let sys = StreamingGaliot::start(config, Registry::prototype());
        let metrics = sys.metrics().clone();
        for chunk in fix.capture.chunks(65_536) {
            sys.push_chunk(chunk.to_vec());
        }
        (sys.finish(), metrics.snapshot())
    };
    let trace = session.finish();

    // Delivery: capture order, and nothing lost outside quarantine.
    let delivered = fids(&frames);
    let starts: Vec<usize> = delivered.iter().map(|f| f.2).collect();
    assert!(
        starts.windows(2).all(|w| w[1] + 32 >= w[0]),
        "{ctx}: frames out of capture order: {starts:?}"
    );
    assert_lost_only_to_quarantine(&delivered, &fix.batch, &m, &ctx);

    // Per-fate trace ↔ metrics reconciliation.
    let acc = check_ship_terminals(&trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let pool: usize = m.per_worker_segments.values().sum();
    assert_eq!(acc.shipped as usize, m.shipped_segments, "{ctx}: {m:?}");
    assert_eq!(acc.retried as usize, m.decode_retried, "{ctx}: {m:?}");
    assert_eq!(
        acc.quarantined as usize, m.decode_quarantined,
        "{ctx}: {m:?}"
    );
    assert_eq!(m.quarantine_records.len(), m.decode_quarantined, "{ctx}");
    // A decode terminal is a win or a sibling's win shared with that
    // copy (`decodes_shared`, 0 outside a fleet).
    assert_eq!(
        acc.decoded as usize + m.decode_poisoned + m.decode_stale_results,
        pool + m.decodes_shared,
        "{ctx}: completed pool attempts must be wins, poisons or stales: {m:?}"
    );
    assert_eq!(
        acc.decoded + acc.quarantined,
        acc.shipped,
        "{ctx}: every shipped segment needs exactly one fate"
    );
    let by_gw = check_gateway_terminals(&trace).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(
        by_gw.len(),
        if fleet { 2 } else { 1 },
        "{ctx}: gateway sessions in trace"
    );
    for (gw, a) in &by_gw {
        assert_eq!(
            a.decoded + a.quarantined,
            a.shipped,
            "{ctx}: gw{gw} fates leak"
        );
    }
    if fleet {
        let offered: usize = m.per_gateway_decoded.values().sum();
        assert_eq!(
            offered,
            m.fleet_delivered + m.dedup_suppressed + m.crash_lost_frames + m.quarantined_frames,
            "{ctx}: fleet decode identity: {m:?}"
        );
    }

    let shipped = m.shipped_segments;
    assert!(
        shipped >= if fleet { 2 } else { 1 },
        "{ctx}: nothing shipped"
    );
    if sticky as usize > 2 {
        // Quarantine regime: every strike pattern outlasts the ladder.
        for r in &m.quarantine_records {
            assert_eq!(
                r.attempts.len(),
                3,
                "{ctx}: record {r:?} short of the full ladder"
            );
        }
        match kind {
            DecodeFaultKind::Panic => {
                assert_eq!(m.decode_quarantined, shipped, "{ctx}: {m:?}");
                assert_eq!(m.decode_poisoned, 3 * shipped, "{ctx}: {m:?}");
                assert_eq!(m.decode_retried, 2 * shipped, "{ctx}: {m:?}");
            }
            DecodeFaultKind::Hang => {
                assert_eq!(m.decode_quarantined, shipped, "{ctx}: {m:?}");
                assert_eq!(m.decode_hung, 3 * shipped, "{ctx}: {m:?}");
                assert_eq!(m.decode_retried, 2 * shipped, "{ctx}: {m:?}");
                assert!(m.workers_replaced >= m.decode_hung, "{ctx}: {m:?}");
            }
            DecodeFaultKind::Slow => {
                // A slow attempt normally blows the deadline and walks
                // the same ladder as a hang, but a late scheduler wake
                // can legitimately let it win before the deadline
                // check fires — so bound rather than pin the counts.
                assert!(m.decode_hung >= m.decode_quarantined, "{ctx}: {m:?}");
                assert!(m.decode_quarantined <= shipped, "{ctx}: {m:?}");
            }
        }
    } else {
        // Healing regime: the ladder absorbs every strike; delivery is
        // lossless. A copy answered by its sibling's decode walks no
        // ladder of its own.
        let laddered = shipped - m.decodes_shared;
        if fleet {
            assert_eq!(
                laddered,
                fix.batch.len(),
                "{ctx}: one decode per span: {m:?}"
            );
        }
        assert_eq!(m.decode_quarantined, 0, "{ctx}: {m:?}");
        assert_eq!(m.quarantined_frames, 0, "{ctx}: {m:?}");
        assert_eq!(
            delivered.len(),
            fix.batch.len(),
            "{ctx}: healed delivery lost frames: {delivered:?}"
        );
        match kind {
            DecodeFaultKind::Panic => {
                assert_eq!(m.decode_poisoned, 2 * laddered, "{ctx}: {m:?}");
                assert_eq!(m.decode_retried, 2 * laddered, "{ctx}: {m:?}");
            }
            DecodeFaultKind::Hang => {
                assert_eq!(m.decode_hung, 2 * laddered, "{ctx}: {m:?}");
                assert_eq!(m.decode_retried, 2 * laddered, "{ctx}: {m:?}");
            }
            DecodeFaultKind::Slow => {}
        }
    }
}

#[test]
fn decode_pool_quarantines_exhausted_segments_across_the_matrix() {
    let _serial = timing_lock();
    for fleet in [false, true] {
        for kind in [
            DecodeFaultKind::Panic,
            DecodeFaultKind::Hang,
            DecodeFaultKind::Slow,
        ] {
            for workers in [2usize, 4] {
                let name = format!("{workers}w-{}-{}-q", kind.name(), fleet);
                with_hard_deadline(&name, 90, move || {
                    run_recovery_cell(workers, kind, fleet, 3)
                });
            }
        }
    }
}

#[test]
fn decode_pool_heals_transient_faults_across_the_matrix() {
    let _serial = timing_lock();
    for fleet in [false, true] {
        for kind in [
            DecodeFaultKind::Panic,
            DecodeFaultKind::Hang,
            DecodeFaultKind::Slow,
        ] {
            for workers in [2usize, 4] {
                let name = format!("{workers}w-{}-{}-h", kind.name(), fleet);
                with_hard_deadline(&name, 90, move || {
                    run_recovery_cell(workers, kind, fleet, 2)
                });
            }
        }
    }
}
