//! Differential suite for the carried detection trace.
//!
//! A gateway session scores each lag once: a flush correlates one
//! overlap-save block — the lags it adds, from the samples under them
//! alone, with `Template::xcorr_normalized_into` — and a
//! `DetectionStream` picks peaks over the session's trace as the blocks
//! arrive. Two contracts of the engine half, on every backend the CPU
//! runs:
//!
//! * **Against the whole-signal trace** the trace of `x[k..]` differs
//!   from lag `k` on by FFT rounding only (its overlap-save blocks start
//!   at `k`): at most 1e-6 absolute on what a gateway correlates —
//!   digitized windows with a noise floor, against the universal
//!   preamble and every technology's own. (No such bound holds across
//!   nine decades of dynamic range in one block, and the floor is taken
//!   over the lags a call computes.)
//! * **The quiet-window floor** of a block is settled over that block:
//!   the lags parked under it and a peak sharing its vector lane with a
//!   NaN included.
//!
//! The detector half: a `DetectionStream` fed flush by flush picks what
//! `find_peaks` picks over the blocks it scored, and one last flush over
//! a whole capture is `detect_with` over `digitize`, bit for bit.
//!
//! Captures are seeded through `galiot_channel::scenario_seed`, so
//! `GALIOT_TEST_SEED` re-rolls all of them at once (CI sweeps it). The
//! tests walk the process-wide kernel backend; every kernel under a
//! correlation is bit-exact across backends, so no test here can
//! observe another's walk.

use galiot_channel::{
    compose, forced_collision, random_payload, scenario_seed, snr_to_noise_power, TxEvent,
};
use galiot_dsp::corr::find_peaks;
use galiot_dsp::engine::Template;
use galiot_dsp::kernels::{self, Backend};
use galiot_dsp::Cf32;
use galiot_gateway::{
    build_universal_preamble, AnalogView, Detection, DetectionStream, LagScorer, PacketDetector,
    PeakRule, RtlSdrFrontEnd, UniversalDetector,
};
use galiot_phy::registry::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

const FS: f64 = 1_000_000.0;

/// Runs `f` under every backend this CPU supports, then restores the
/// one that was active.
fn on_every_backend(mut f: impl FnMut(Backend)) {
    let entry = kernels::active();
    for backend in Backend::ALL.into_iter().filter(|b| b.is_supported()) {
        kernels::set_backend(backend);
        f(backend);
    }
    kernels::set_backend(entry);
}

fn wave(n: usize, f: f32) -> Vec<Cf32> {
    (0..n).map(|i| Cf32::cis(i as f32 * f)).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|s| s.to_bits()).collect()
}

/// The two ways a walk's quiet-window floor could come out wrong, each
/// placed wholly in a block scored from its own samples.
#[test]
fn the_floor_of_a_block_is_settled_over_that_block() {
    let h = wave(33, 0.9); // 256-sample blocks, 224 lags each
    let t = Template::new(&h);
    let scaled = |len: usize, k: f32| wave(len, 0.31).into_iter().map(move |z| z * k);
    // What earlier blocks covered: loud — a floor taken over the whole
    // signal would be set here — then quiet, so that the block starts
    // out knowing nothing louder.
    let head: Vec<Cf32> = scaled(700, 1.0).chain(scaled(64, 1e-6)).collect();
    let valid = head.len() - h.len() + 1;

    // Parked lags: the loudest window comes last, every window before it
    // is under the floor, and the first blocks are long written (on
    // credit) when it shows up.
    let mut parked = head.clone();
    parked.extend(scaled(2_000, 1e-6).chain(scaled(100, 1.0)));
    // A NaN one vector stride after the peak, in its vector
    // `max_norm_sqr` lane: were it to wipe the peak, the bound the walk
    // starts from would be under the true floor.
    let mut hidden = head.clone();
    hidden.extend(scaled(2_000, 1e-6));
    hidden[head.len() + 1_000] = Cf32::new(1e3, 0.0);
    hidden[head.len() + 1_004] = Cf32::new(f32::NAN, 0.0);

    on_every_backend(|backend| {
        for (what, x, quiet) in [("parked", &parked, 1_900), ("hidden", &hidden, 900)] {
            let what = format!("{backend:?}, {what}");
            let block = &x[valid..];
            let mut out = vec![f32::NAN; 7];
            t.xcorr_normalized_into(block, &mut out);
            assert_eq!(bits(&out), bits(&t.xcorr_normalized(block)), "{what}");
            // Nonzero samples, scored zero: only a floor that a later
            // overlap-save block raised can have done that.
            let at = head.len() - valid;
            let stretch = &out[at..at + quiet];
            assert!(stretch.iter().all(|&v| v == 0.0), "{what}: quiet stretch");
        }
    });
}

/// Flush windows as a gateway sees them: 18 dB traffic over noise,
/// through the 8-bit front end.
fn gateway_windows(registry: &Registry, len: usize) -> Vec<(&'static str, Vec<Cf32>)> {
    let front_end = RtlSdrFrontEnd::new(Default::default());
    let noise = snr_to_noise_power(18.0, 0.0);
    let mut windows = Vec::new();
    for (i, kind) in ["noise", "isolated frames", "LoRa+XBee cluster"]
        .into_iter()
        .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(scenario_seed(0xCA22_1000 + i as u64));
        let events = match i {
            0 => Vec::new(),
            1 => registry
                .techs()
                .iter()
                .enumerate()
                .map(|(k, tech)| {
                    let at = k * len / 3 + rng.gen_range(0..len / 6);
                    TxEvent::new(tech.clone(), random_payload(12, &mut rng), at)
                })
                .collect(),
            _ => {
                let at = rng.gen_range(0..len / 2);
                forced_collision(registry, 8, &[0.0, 0.0], 3_000, at, &mut rng)
            }
        };
        let analog = compose(&events, len, FS, noise, &mut rng).samples;
        windows.push((kind, front_end.digitize(&analog)));
    }
    windows
}

#[test]
fn a_suffix_trace_is_the_whole_window_trace_to_fft_rounding() {
    let registry = Registry::prototype();
    // A live session's window (DESIGN.md §7).
    let frame = registry.max_frame_samples_for(FS, 32);
    let flush_len = 4 * frame + 2 * (frame / 8) + 128;

    // The template a session scores blocks with is the universal
    // preamble, and it is held to 1e-6. A technology's own preamble (the
    // edge and the matched bank correlate whole spans against these)
    // can be a ninth as long: the same rounding of a 4x-template block
    // under a score over that many fewer samples.
    let bank = registry.template_bank(FS);
    let universal = Template::new(&build_universal_preamble(&registry, FS, 0.6).template);
    let mut templates = vec![("universal preamble".to_string(), &universal, 1e-6)];
    templates.extend(
        registry
            .techs()
            .iter()
            .enumerate()
            .map(|(i, tech)| (format!("{} preamble", tech.id()), bank.template(i), 4e-6)),
    );

    let mut rng = StdRng::seed_from_u64(scenario_seed(0xCA22_2000));
    let windows = gateway_windows(&registry, flush_len);
    for (name, t, bound) in templates {
        let mut worst = 0.0f32;
        for (kind, x) in &windows {
            let lags = x.len() - t.len() + 1;
            // Where a flush's block starts, the ends, anywhere.
            let valids = [7 * t.block_lags(), 1, lags - 1, rng.gen_range(1..lags)];
            on_every_backend(|backend| {
                let whole = t.xcorr_normalized(x);
                let mut out = Vec::new();
                for valid in valids {
                    let what = format!("{backend:?}, {kind}, {name}");
                    t.xcorr_normalized_into(&x[valid..], &mut out);
                    assert_eq!(out.len(), lags - valid, "{what}");
                    for (k, (g, w)) in out.iter().zip(&whole[valid..]).enumerate() {
                        let off = (g - w).abs();
                        let lag = valid + k;
                        assert!(off <= bound, "{what}: lag {lag} from {valid}: {g} / {w}");
                        worst = worst.max(off);
                    }
                }
            });
        }
        println!(
            "{name} ({} samples): suffix traces within {worst:e}",
            t.len()
        );
    }
}

/// Scores like the universal detector, keeping every block it scored.
struct Recorded {
    inner: UniversalDetector,
    trace: Mutex<Vec<f32>>,
}

impl LagScorer for Recorded {
    fn peak_rule(&self, window_len: usize) -> PeakRule {
        self.inner.peak_rule(window_len)
    }

    fn score_lags(&self, capture: &[Cf32], trace: &mut Vec<f32>) {
        self.inner.score_lags(capture, trace);
        self.trace.lock().unwrap().extend_from_slice(trace);
    }
}

/// One frame of each prototype technology over 18 dB noise.
fn isolated_frames(registry: &Registry, len: usize) -> Vec<Cf32> {
    let mut rng = StdRng::seed_from_u64(scenario_seed(0xCA22_3000));
    let events: Vec<TxEvent> = (registry.techs().iter().enumerate())
        .map(|(k, tech)| {
            let at = 40_000 + k * len / 3 + rng.gen_range(0..len / 8);
            TxEvent::new(tech.clone(), random_payload(12, &mut rng), at)
        })
        .collect();
    compose(&events, len, FS, snr_to_noise_power(18.0, 0.0), &mut rng).samples
}

/// Flushes `stream` at each of `ends` (the last one last) over
/// `analog`, held as a ring would hold it — split in two somewhere — at
/// one gain for every window, and returns what it decided.
fn flush_at(
    stream: &mut DetectionStream,
    scorer: &dyn LagScorer,
    front_end: &RtlSdrFrontEnd,
    analog: &[Cf32],
    ends: &[usize],
) -> Vec<Detection> {
    let gain = front_end.gain(galiot_dsp::kernels::energy_f64(analog), analog.len());
    let mut decided = Vec::new();
    for (k, &end) in ends.iter().enumerate() {
        let cut = end / 3;
        let view = AnalogView {
            start: 0,
            parts: [&analog[..cut], &analog[cut..end]],
        };
        let last = k + 1 == ends.len();
        let fresh = stream.flush(scorer, front_end, gain, &view, last);
        assert!(fresh.iter().all(|d| d.start < stream.decided() || last));
        decided.extend(fresh);
    }
    decided
}

#[test]
fn a_detection_stream_picks_what_find_peaks_picks_over_the_lags_it_scored() {
    let registry = Registry::prototype();
    let front_end = RtlSdrFrontEnd::new(Default::default());
    let analog = isolated_frames(&registry, 700_000);
    let n = analog.len();
    let universal = UniversalDetector::new(&registry, FS, 0.0);
    let m = universal.preamble().template.len();
    let detector = Recorded {
        inner: universal,
        trace: Mutex::new(Vec::new()),
    };

    // One last flush over a whole capture: `detect_with` over
    // `digitize`, bit for bit.
    let digital = front_end.digitize(&analog);
    let batch = detector.inner.detect_with(&digital, FS, &mut Vec::new());
    assert!(batch.len() >= 3, "a frame of each technology: {batch:?}");
    let mut stream = DetectionStream::new(detector.peak_rule(n), 0);
    let whole = AnalogView::whole(&analog);
    let gain = front_end.gain(galiot_dsp::kernels::energy_f64(&analog), n);
    assert_eq!(
        stream.flush(&detector, &front_end, gain, &whole, true),
        batch
    );

    // Flushed anywhere, with a live window's threshold: every lag scored
    // once, and the peaks `find_peaks` picks over them all — which, at
    // one gain, are the whole trace's to FFT rounding.
    let window = 436_416;
    let rule = detector.peak_rule(window);
    let mut rng = StdRng::seed_from_u64(scenario_seed(0xCA22_3001));
    for _ in 0..4 {
        let mut ends: Vec<usize> = (0..12).map(|_| rng.gen_range(m..n)).collect();
        ends.sort_unstable();
        ends.push(n);
        detector.trace.lock().unwrap().clear();
        let mut stream = DetectionStream::new(rule, 0);
        let got = flush_at(&mut stream, &detector, &front_end, &analog, &ends);
        let scored = detector.trace.lock().unwrap().clone();
        assert_eq!(scored.len(), n - m + 1, "flushes at {ends:?}");
        let want: Vec<Detection> = find_peaks(&scored, rule.threshold, rule.min_distance)
            .into_iter()
            .map(Detection::from)
            .collect();
        assert_eq!(got, want, "flushes at {ends:?}");
        let rescan = universal_trace(&registry, &digital);
        for (lag, (g, w)) in scored.iter().zip(&rescan).enumerate() {
            assert!((g - w).abs() <= 1e-6, "lag {lag}: {g} / {w}");
        }
    }

    // A stream shorter than the template scores nothing.
    let mut stream = DetectionStream::new(rule, 0);
    let short = &analog[..m - 1];
    assert!(flush_at(&mut stream, &detector, &front_end, short, &[m - 1]).is_empty());
}

/// The universal preamble's trace over `digital`, whole.
fn universal_trace(registry: &Registry, digital: &[Cf32]) -> Vec<f32> {
    Template::new(&build_universal_preamble(registry, FS, 0.6).template).xcorr_normalized(digital)
}
