//! Near-far corpus for the edge's verdict: a lone frame stays at the
//! edge, and a collision — however weak its second member, wherever that
//! member starts in the first frame's reach — never does.
//!
//! The edge keeps a decoded frame local once its cancellation explains
//! every peak cluster in its reach (DESIGN.md §19). A lone LoRa frame
//! raises such clusters itself: its preamble's sidelobe comb and its
//! payload chirps peak in the LoRa and XBee templates. A second
//! transmitter 3 to 20 dB under the first — behind a LoRa, an XBee or a
//! Z-Wave frame — is what the cancellation must not explain away. Each
//! segment is cut as the gateway cuts a lone detection's span — a
//! pre-guard before the first frame, two maximum frames past it — at
//! 18 dB, through the 8-bit front end, and carries the universal
//! detector's detections. Every cell has 30 seeds drawn through
//! `scenario_seed`, so `GALIOT_TEST_SEED` re-rolls them all.
//!
//! Behind an XBee or a Z-Wave frame a second member can also be
//! *buried*: the first frame's payload peaks in the XBee template every
//! few hundred samples, so the whole reach is one peak cluster and no
//! residual is formed — the verdict the edge gave before the residual
//! rule, which keeps such a collision. What no cell may do is keep a
//! collision whose second member raises a cluster of its own in the
//! reach: that is a cluster the cancellation explained away.

use galiot_channel::{
    compose, random_payload, scenario_seed, snr_to_noise_power, Impairments, TxEvent,
};
use galiot_dsp::corr::find_peaks;
use galiot_dsp::Cf32;
use galiot_gateway::{
    Detection, EdgeDecoder, EdgeOutcome, PacketDetector, RtlSdrFrontEnd, Segment, UniversalDetector,
};
use galiot_phy::registry::Registry;
use galiot_phy::TechId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FS: f64 = 1_000_000.0;
const SEEDS: u64 = 30;
const SNR_DB: f32 = 18.0;
/// `GaliotConfig::prototype().max_expected_payload`.
const MAX_EXPECTED_PAYLOAD: usize = 32;
/// The 868 MHz band, where a crystal's ppm become a carrier offset.
const CARRIER_HZ: f64 = 868e6;
/// The least number of lone LoRa frames of a cell's 30 the edge must
/// keep, with the transmitter's crystal exact and off by ±0.2 ppm: all
/// of them, at the pinned seeds and at CI's swept one. (Every lone LoRa
/// frame shipped while its preamble's sidelobe comb counted as a second
/// cluster.)
const LONE_LORA_FLOOR: [usize; 2] = [30, 30];

/// Spans as the gateway cuts a lone detection's, and the edge that
/// judges them.
struct Corpus {
    registry: Registry,
    edge: EdgeDecoder,
    front_end: RtlSdrFrontEnd,
    detector: UniversalDetector,
    pre_guard: usize,
    len: usize,
}

/// What a cell's spans hold.
#[derive(Clone, Copy)]
enum Cell {
    /// One frame of this technology, its crystal off by ± this many ppm.
    Lone(TechId, f64),
    /// A frame of the first technology and one of the second this many
    /// dB under it, starting anywhere from the first frame's start to its
    /// end plus the guard.
    Pair(TechId, TechId, f32),
}

/// A cell's count of spans kept at the edge, its table row, and what it
/// got wrong.
struct Tally {
    local: usize,
    row: String,
    wrong: Vec<String>,
}

impl Corpus {
    fn new() -> Self {
        let registry = Registry::prototype();
        let max_frame = registry.max_frame_samples_for(FS, MAX_EXPECTED_PAYLOAD);
        Corpus {
            edge: EdgeDecoder::new(registry.clone()),
            front_end: RtlSdrFrontEnd::new(Default::default()),
            detector: UniversalDetector::new(&registry, FS, 0.0),
            pre_guard: max_frame / 8,
            len: max_frame / 8 + 2 * max_frame,
            registry,
        }
    }

    /// A frame of `id` with a random 4–16-byte payload, `ppm` off,
    /// `at` samples into the span.
    fn frame(&self, id: TechId, at: usize, ppm: f64, rng: &mut StdRng) -> TxEvent {
        let tech = self.registry.get(id).expect("prototype technology").clone();
        let payload = random_payload(rng.gen_range(4..=16), rng);
        TxEvent::new(tech, payload, at).with_impairments(Impairments::crystal(ppm, CARRIER_HZ))
    }

    /// The edge's verdict on a span holding `events`, and the span.
    fn verdict(&self, events: &[TxEvent], rng: &mut StdRng) -> (EdgeOutcome, Vec<Cf32>) {
        let noise = snr_to_noise_power(SNR_DB, 0.0);
        let analog = compose(events, self.len, FS, noise, rng).samples;
        let samples = self.front_end.digitize(&analog);
        let detections: Vec<Detection> = self.detector.detect(&samples, FS);
        let seg = Segment {
            start: 0,
            samples,
            detections,
        };
        (self.edge.process(&seg, FS), seg.samples)
    }

    /// Whether the preamble peaks of `samples` before `end`, over whole
    /// correlations, fall into more than one cluster.
    fn two_clusters(&self, samples: &[Cf32], end: usize) -> bool {
        let bank = self.registry.template_bank(FS);
        let mut at: Vec<usize> = (0..bank.len())
            .flat_map(|i| {
                let t = bank.template(i);
                let ncc = t.xcorr_normalized(&samples[..(end + t.len()).min(samples.len())]);
                find_peaks(&ncc, 0.25, t.len() / 2)
            })
            .map(|p| p.index)
            .filter(|&p| p < end)
            .collect();
        at.sort_unstable();
        let guard = self.edge.cluster_guard(FS);
        at.windows(2).any(|w| w[1] - w[0] > guard)
    }

    /// The verdicts on cell number `cell`'s seeds.
    fn run(&self, cell: u64, what: Cell) -> Tally {
        let mut tally = Tally {
            local: 0,
            row: String::new(),
            wrong: Vec::new(),
        };
        let mut buried = 0;
        for k in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(scenario_seed(0x4EA2_0000 + cell * 100 + k));
            match what {
                Cell::Lone(id, ppm) => {
                    let ppm = if rng.gen() { ppm } else { -ppm };
                    let event = self.frame(id, self.pre_guard, ppm, &mut rng);
                    let (verdict, _) = self.verdict(std::slice::from_ref(&event), &mut rng);
                    if let EdgeOutcome::DecodedLocally(f) = verdict {
                        assert_eq!((f.tech, &f.payload), (id, &event.payload), "{id} alone");
                        tally.local += 1;
                    }
                }
                Cell::Pair(first_id, second, power_db) => {
                    let first = self.frame(first_id, self.pre_guard, 0.0, &mut rng);
                    let len = first.tech.modulate(&first.payload, FS).len();
                    let guard = self.edge.cluster_guard(FS);
                    let at = self.pre_guard + rng.gen_range(0..len + guard);
                    let other = self
                        .frame(second, at, 0.0, &mut rng)
                        .with_power_db(power_db);
                    let (verdict, samples) = self.verdict(&[first, other], &mut rng);
                    if let EdgeOutcome::DecodedLocally(f) = verdict {
                        tally.local += 1;
                        let reach = self.edge.reach(&f, FS).end;
                        if first_id != TechId::LoRa && !self.two_clusters(&samples, reach) {
                            buried += 1;
                        } else {
                            let what = format!("{first_id} + {second} at {power_db} dB");
                            tally.wrong.push(format!("{what}, seed {k}: kept {f:?}"));
                        }
                    }
                }
            }
        }
        tally.row = match what {
            Cell::Lone(id, ppm) => format!("{id} alone, ±{ppm} ppm: {}/{SEEDS} kept local", tally.local),
            Cell::Pair(first, second, power_db) => format!(
                "{first} + {second} at {power_db} dB: {}/{SEEDS} kept local, {buried} of them buried",
                tally.local
            ),
        };
        tally
    }
}

#[test]
fn lone_frames_stay_at_the_edge_and_no_near_far_collision_does() {
    use TechId::{LoRa, XBee, ZWave};
    let corpus = Corpus::new();
    let mut cells = Vec::new();
    for id in [LoRa, XBee, ZWave] {
        cells.extend([0.0, 0.2].map(|ppm| Cell::Lone(id, ppm)));
    }
    for first in [LoRa, XBee, ZWave] {
        for second in [XBee, ZWave, LoRa] {
            cells.extend([-3.0, -10.0, -15.0, -20.0].map(|db| Cell::Pair(first, second, db)));
        }
    }
    // Cells are numbered from 1 and run on a few threads, each taking
    // every `threads`-th cell.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut tallies: Vec<(usize, Tally)> = std::thread::scope(|s| {
        let (corpus, cells) = (&corpus, &cells);
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mine = cells.iter().enumerate().skip(t).step_by(threads);
                    mine.map(|(i, &cell)| (i, corpus.run(i as u64 + 1, cell)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a cell panicked"))
            .collect()
    });
    tallies.sort_by_key(|(i, _)| *i);
    let rows: Vec<&str> = tallies.iter().map(|(_, t)| t.row.as_str()).collect();
    println!("{}", rows.join("\n"));
    let wrong: Vec<&String> = tallies.iter().flat_map(|(_, t)| &t.wrong).collect();
    assert!(
        wrong.is_empty(),
        "collisions kept at the edge with a cluster of their own in its reach:\n{}",
        wrong
            .iter()
            .map(|w| w.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The first two cells are lone LoRa frames.
    for ((_, tally), floor) in tallies.iter().zip(LONE_LORA_FLOOR) {
        assert!(
            tally.local >= floor,
            "{} lone LoRa frames kept, floor {floor}",
            tally.local
        );
    }
}
