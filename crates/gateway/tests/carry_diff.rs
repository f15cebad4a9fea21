//! Differential suite for the carried detection trace.
//!
//! A gateway session correlates each flush window only from where the
//! last one's trace ends: `Template::xcorr_normalized_extend` keeps the
//! first `valid` lags of a trace and appends the rest, computed from
//! `x[valid..]` alone. Three contracts, on every backend the CPU runs:
//!
//! * **From lag 0** it is `xcorr_normalized_into`, bit for bit.
//! * **From any `valid`** the kept lags are untouched and the appended
//!   ones are, bit for bit, the trace of `x[valid..]` — the quiet-window
//!   floor, the lags parked under it and the walk redone after a NaN hid
//!   the peak included, since all of that now happens over a suffix.
//! * **Against the whole-signal trace** the appended lags differ by FFT
//!   rounding only (their overlap-save blocks start at `valid`): at most
//!   1e-6 absolute on what a gateway correlates — digitized windows with
//!   a noise floor, against the universal preamble and every
//!   technology's own. (No such bound holds across nine decades of
//!   dynamic range in one block, and the floor is taken over the lags
//!   a call computes: hostile signals are held to the suffix identity.)
//!
//! Captures are seeded through `galiot_channel::scenario_seed`, so
//! `GALIOT_TEST_SEED` re-rolls all of them at once (CI sweeps it). The
//! tests walk the process-wide kernel backend; every kernel under a
//! correlation is bit-exact across backends, so no test here can
//! observe another's walk.

use galiot_channel::{
    compose, forced_collision, random_payload, scenario_seed, snr_to_noise_power, TxEvent,
};
use galiot_dsp::engine::Template;
use galiot_dsp::kernels::{self, Backend};
use galiot_dsp::Cf32;
use galiot_gateway::{build_universal_preamble, PacketDetector, RtlSdrFrontEnd, UniversalDetector};
use galiot_phy::registry::Registry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Extends a trace holding `stale` scores from `valid` and checks the
/// first two contracts; returns the trace.
fn extend_and_check(t: &Template, x: &[Cf32], valid: usize, stale: usize, what: &str) -> Vec<f32> {
    let lags = (x.len() + 1).saturating_sub(t.len());
    let held: Vec<f32> = (0..stale).map(|i| 0.25 + i as f32 * 1e-4).collect();
    let mut out = held.clone();
    t.xcorr_normalized_extend(x, valid, &mut out);
    assert_eq!(out.len(), lags, "{what}: one score per lag");
    // A hint is good for what the buffer holds and the signal has.
    let kept = valid.min(stale).min(lags);
    assert_eq!(bits(&out[..kept]), bits(&held[..kept]), "{what}: kept lags");
    let suffix = t.xcorr_normalized(&x[kept..]);
    assert_eq!(bits(&out[kept..]), bits(&suffix), "{what}: appended lags");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn extending_keeps_the_head_and_appends_the_trace_of_the_tail(
        m in 1usize..70,
        // Runs of a length and a decade each — loud, quiet and dead
        // stretches in any order — cut by 224-lag block seams.
        lens in proptest::collection::vec(1usize..600, 1..6),
        decades in proptest::collection::vec(0i32..9, 6),
        phase in 0.0f32..1.0,
        // Anywhere in the trace, and past its end.
        valid_permille in 0usize..1_200,
        stale in 0usize..3_000,
        // One sample no bound can be trusted on, somewhere (or none).
        poke_at in 0usize..1_000,
        poke in 0usize..4,
    ) {
        let t = Template::new(&wave(m, 0.4 + phase));
        let mut x = Vec::new();
        for (len, decade) in lens.into_iter().zip(decades) {
            let k = if decade == 8 { 0.0 } else { 10f32.powi(-decade) };
            x.extend(wave(len, phase).into_iter().map(|z| z * k));
        }
        let hostile = [
            Cf32::new(f32::NAN, 0.0),
            Cf32::new(3.0, f32::INFINITY),
            Cf32::new(1e3, 0.0),
        ];
        if let Some(&sample) = hostile.get(poke) {
            let at = poke_at * x.len() / 1_000;
            x[at] = sample;
        }
        let lags = (x.len() + 1).saturating_sub(m);
        let valid = valid_permille * lags / 1_000;
        let mut across: Vec<Vec<u32>> = Vec::new();
        on_every_backend(|backend| {
            let what = format!("{backend:?}");
            let out = extend_and_check(&t, &x, valid, stale, &what);
            across.push(bits(&out));
            // From lag 0, whatever the buffer held: the whole trace.
            let whole = extend_and_check(&t, &x, 0, stale, &what);
            let mut into = vec![f32::NAN; stale];
            t.xcorr_normalized_into(&x, &mut into);
            assert_eq!(bits(&whole), bits(&into), "{what}: from lag 0");
            assert_eq!(bits(&whole), bits(&t.xcorr_normalized(&x)), "{what}: from lag 0");
        });
        prop_assert!(across.windows(2).all(|w| w[0] == w[1]), "backends disagree");
    }
}

/// The two ways a walk's quiet-window floor comes out wrong the first
/// time, each placed wholly in the appended part of a trace.
#[test]
fn the_floor_of_an_appended_stretch_is_settled_over_that_stretch() {
    let h = wave(33, 0.9); // 256-sample blocks, 224 lags each
    let t = Template::new(&h);
    let scaled = |len: usize, k: f32| wave(len, 0.31).into_iter().map(move |z| z * k);
    // What the trace already covers: loud — a floor taken over the whole
    // signal would be set here — then quiet, so that the appended
    // stretch starts out knowing nothing louder.
    let head: Vec<Cf32> = scaled(700, 1.0).chain(scaled(64, 1e-6)).collect();
    let valid = head.len() - h.len() + 1;

    // Parked lags: the loudest window comes last, every window before it
    // is under the floor, and the first blocks are long written (on
    // credit) when it shows up.
    let mut parked = head.clone();
    parked.extend(scaled(2_000, 1e-6).chain(scaled(100, 1.0)));
    // The walk redone: a NaN one vector stride after the peak wipes it
    // from a vector `max_norm_sqr`'s lane, so the bound the walk starts
    // from is under the true floor.
    let mut redone = head.clone();
    redone.extend(scaled(2_000, 1e-6));
    redone[head.len() + 1_000] = Cf32::new(1e3, 0.0);
    redone[head.len() + 1_004] = Cf32::new(f32::NAN, 0.0);

    on_every_backend(|backend| {
        for (what, x, quiet) in [("parked", &parked, 1_900), ("redone", &redone, 900)] {
            let what = format!("{backend:?}, {what}");
            let out = extend_and_check(&t, x, valid, valid, &what);
            // Nonzero samples, scored zero: only a floor that a later
            // block raised can have done that.
            let stretch = &out[head.len()..head.len() + quiet];
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
fn appended_lags_are_the_whole_window_trace_to_fft_rounding() {
    let registry = Registry::prototype();
    // The flush grid of a live session (DESIGN.md §7).
    let window = registry.max_frame_samples_for(FS, 32);
    let stride = 2 * window;
    let flush_len = stride + 2 * window + 2 * (window / 8) + 128;

    // The template a session resumes on is the universal preamble, and
    // it is held to 1e-6. A technology's own preamble (the edge and the
    // matched bank correlate whole spans against these, never resuming)
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
            // What a steady-state flush carries, the ends, anywhere.
            let valids = [lags - stride, 1, lags - 1, rng.gen_range(1..lags)];
            on_every_backend(|backend| {
                let whole = t.xcorr_normalized(x);
                for valid in valids {
                    let what = format!("{backend:?}, {kind}, {name}");
                    let mut out = whole[..valid].to_vec();
                    t.xcorr_normalized_extend(x, valid, &mut out);
                    assert_eq!(out.len(), lags, "{what}");
                    assert_eq!(bits(&out[..valid]), bits(&whole[..valid]), "{what}: kept");
                    for (lag, (g, w)) in out.iter().zip(&whole).enumerate().skip(valid) {
                        let off = (g - w).abs();
                        assert!(off <= bound, "{what}: lag {lag} from {valid}: {g} / {w}");
                        worst = worst.max(off);
                    }
                }
            });
        }
        println!(
            "{name} ({} samples): appended lags within {worst:e}",
            t.len()
        );
    }
}

#[test]
fn a_detector_trusts_no_more_of_a_hint_than_it_can_check() {
    let registry = Registry::prototype();
    let detector = UniversalDetector::new(&registry, FS, 0.0);
    let m = detector.preamble().template.len();
    let (_, x) = gateway_windows(&registry, 120_000).remove(1);
    let mut trace = Vec::new();
    let want = detector.detect_with(&x, FS, &mut trace);
    assert!(!want.is_empty(), "a frame in the window");
    let whole = trace.clone();

    // Resuming from its own trace, anywhere: the same detections.
    for valid in [1, 40_000, whole.len()] {
        let mut resumed = whole.clone();
        let got = detector.detect_resuming(&x, FS, &mut resumed, valid);
        assert_eq!(got.len(), want.len(), "from {valid}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.start, w.start, "from {valid}");
            assert!((g.score - w.score).abs() <= 1e-6, "from {valid}");
        }
    }
    // A hint past what the buffer holds, or past the window's lags, is
    // cut down to it: an empty buffer resumes nothing.
    for (held, valid) in [
        (0, 50_000),
        (10, usize::MAX),
        (whole.len() + 500, usize::MAX),
    ] {
        let mut lied_to: Vec<f32> = whole.iter().copied().chain([0.9; 500]).take(held).collect();
        let got = detector.detect_resuming(&x, FS, &mut lied_to, valid);
        assert_eq!(
            got,
            detector.detect_resuming(&x, FS, &mut whole.clone(), held.min(whole.len()))
        );
        assert_eq!(lied_to.len(), whole.len());
    }
    // A window the template does not fit in has no lags, and leaves
    // none behind for the next window to carry.
    let mut stale = whole.clone();
    assert!(detector
        .detect_resuming(&x[..m - 1], FS, &mut stale, 100)
        .is_empty());
    assert!(stale.is_empty(), "a stale trace survived a short window");
}
