//! The four workloads: what each one feeds which pipeline, and the
//! seeded generator that builds its tile of I/Q with ground truth.
//!
//! Every tile has a fixed *structure* — frame count, technology order,
//! nominal positions — and the seed draws only payloads, position
//! jitter, powers, crystal errors and noise. That is deliberate: the
//! driver compares medians across different seeds, so a seed must not
//! change how much work a second of air holds (Poisson arrival counts
//! alone move every per-second metric by ±20 %).

use galiot_channel::{
    compose, forced_collision, generate, random_payload, snr_to_noise_power, TrafficParams,
    TruthRecord, TxEvent,
};
use galiot_core::{GaliotConfig, TransportConfig};
use galiot_dsp::Cf32;
use galiot_gateway::LinkFaults;
use galiot_phy::registry::Registry;
use galiot_phy::TechId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Capture rate of every workload (the prototype's RTL-SDR rate).
pub const FS: f64 = 1_000_000.0;
/// URB-sized chunk the generator hands the pipeline.
pub const CHUNK: usize = 65_536;
/// Cloud decode workers, fixed so results do not depend on `nproc`
/// through the `0 = per core` default.
pub const CLOUD_WORKERS: usize = 2;
/// Default seed; 2214 is held out and never used while tuning.
pub const DEFAULT_SEED: u64 = 1107;

/// Which pipeline a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineKind {
    /// `Galiot::process_capture`, single thread.
    Batch,
    /// `StreamingGaliot`.
    Streaming,
    /// `FleetGaliot`, three gateways over faulty links.
    Fleet,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Isolated XBee / Z-Wave frames: gateway-bound.
    SparseEdge,
    /// LoRa+XBee forced collisions: cloud-bound.
    CollisionCloud,
    /// The same air heard by three gateways over lossy links.
    FleetRedundant,
    /// All three technologies through the single-threaded batch path.
    BatchMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SparseEdge,
        Workload::CollisionCloud,
        Workload::FleetRedundant,
        Workload::BatchMixed,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SparseEdge => "sparse_edge",
            Workload::CollisionCloud => "collision_cloud",
            Workload::FleetRedundant => "fleet_redundant",
            Workload::BatchMixed => "batch_mixed",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pipeline under test.
    pub fn pipeline(self) -> PipelineKind {
        match self {
            Workload::SparseEdge | Workload::CollisionCloud => PipelineKind::Streaming,
            Workload::FleetRedundant => PipelineKind::Fleet,
            Workload::BatchMixed => PipelineKind::Batch,
        }
    }

    /// Back-to-back replays of the tile in one closed-loop pass.
    pub fn replays(self) -> usize {
        match self {
            Workload::SparseEdge => 2,
            _ => 1,
        }
    }

    /// What the tile holds, one transmission per [`SPACING`] slot.
    /// Every tile opens with one of each kind of transmission it holds,
    /// so the warm-up prefix meets them all.
    fn slots(self) -> &'static [Slot] {
        use Slot::{Cluster, Drawn, Isolated};
        use TechId::{LoRa, XBee, ZWave};
        match self {
            // One LoRa frame per tile: the edge ships an isolated LoRa
            // frame (its payload chirps look like a second preamble),
            // which keeps the backhaul metric off zero while seven of
            // eight frames never leave the gateway.
            Workload::SparseEdge => &[
                Isolated(XBee),
                Isolated(ZWave),
                Isolated(LoRa),
                Isolated(XBee),
                Isolated(ZWave),
                Isolated(XBee),
                Isolated(ZWave),
                Isolated(XBee),
            ],
            Workload::CollisionCloud => &[Cluster; 6],
            Workload::FleetRedundant => &[
                Cluster,
                Isolated(XBee),
                Cluster,
                Isolated(ZWave),
                Cluster,
                Cluster,
            ],
            // One cross-technology collision so the batch path also
            // pays for classify, kill and cancel, then three frames of
            // each technology as the traffic model draws them.
            Workload::BatchMixed => &[
                Cluster,
                Drawn(LoRa),
                Drawn(XBee),
                Drawn(ZWave),
                Drawn(LoRa),
                Drawn(XBee),
                Drawn(ZWave),
                Drawn(LoRa),
                Drawn(XBee),
                Drawn(ZWave),
            ],
        }
    }

    /// Slots in the warm-up prefix: the shortest that meets every kind
    /// of transmission in the tile once.
    fn warmup_slots(self) -> usize {
        match self {
            Workload::SparseEdge => 3,
            Workload::CollisionCloud => 1,
            Workload::FleetRedundant => 2,
            Workload::BatchMixed => 4,
        }
    }

    /// Samples in the workload's tile: a whole number of gateway flush
    /// strides, so a replay meets the flush grid at the same phase.
    pub fn tile_len(self) -> usize {
        self.slots().len() * SPACING
    }

    /// Seconds of air in the tile.
    pub fn tile_air_s(self) -> f64 {
        self.tile_len() as f64 / FS
    }

    /// Length of the tile prefix the warm-up pass runs.
    pub fn warmup_len(self) -> usize {
        self.warmup_slots() * SPACING
    }

    /// The paced (open-loop) pass of a streaming workload: its rate as
    /// a multiple of real time, chosen well under the closed-loop
    /// capacity measured on 2 cores so the backlog does not grow, and
    /// its length in tile replays, enough for two dozen latency samples
    /// in ten to fourteen seconds. 1.0× on `sparse_edge` is the rate an
    /// RTL-SDR actually delivers. The fleet and batch workloads are
    /// closed loop only.
    pub fn paced(self) -> Option<Paced> {
        match self {
            Workload::SparseEdge => Some(Paced {
                pace: 1.0,
                replays: 3,
            }),
            Workload::CollisionCloud => Some(Paced {
                pace: 0.4,
                replays: 2,
            }),
            Workload::FleetRedundant | Workload::BatchMixed => None,
        }
    }

    /// The pipeline configuration. `link_seed` decorrelates the fleet's
    /// faulty links between runs of different seeds.
    pub fn config(self, link_seed: u64) -> GaliotConfig {
        let base = GaliotConfig::prototype().with_cloud_workers(CLOUD_WORKERS);
        match self {
            Workload::FleetRedundant => {
                let faults = LinkFaults {
                    loss: 0.01,
                    corrupt: 0.005,
                    duplicate: 0.01,
                    reorder: 0.02,
                    jitter_depth: 3,
                    seed: link_seed,
                };
                let mut transport = TransportConfig::over_faulty_link(faults);
                // Timeout and retry budget chosen so no segment is
                // ever declared lost (12 consecutive losses at 1 %).
                transport.arq.base_timeout_s = 0.05;
                transport.arq.max_retries = 12;
                // The degradation ladder and shedding react to queue
                // depth, i.e. to thread timing; parked out of reach so
                // shipped bytes repeat exactly.
                transport.send_queue_cap = 1024;
                transport.degrade_hwm = 1 << 20;
                base.with_gateways(3)
                    .with_ingest_shards(8)
                    .with_transport(transport)
            }
            _ => base,
        }
    }
}

/// A paced pass: rate and length.
#[derive(Clone, Copy, Debug)]
pub struct Paced {
    /// Multiple of real time the generator pushes at.
    pub pace: f64,
    /// Back-to-back replays of the tile.
    pub replays: usize,
}

/// One tile of generated air with its ground truth.
pub struct Tile {
    /// Complex baseband at [`FS`].
    pub samples: Vec<Cf32>,
    /// What was transmitted, sorted by start.
    pub truth: Vec<TruthRecord>,
}

impl Tile {
    /// Seconds of air in the tile.
    pub fn air_s(&self) -> f64 {
        self.samples.len() as f64 / FS
    }

    /// The leading `len` samples with the frames that fit in them.
    pub fn prefix(&self, len: usize) -> Tile {
        Tile {
            samples: self.samples[..len].to_vec(),
            truth: self
                .truth
                .iter()
                .filter(|t| t.start + t.len <= len)
                .cloned()
                .collect(),
        }
    }
}

/// The streaming gateway detects on flush windows that advance by
/// this many samples (2 × the 102 656-sample extraction window of the
/// prototype registry at 32-byte payloads). A segment whose head falls
/// in the last quarter of a stride is cut at the window edge and its
/// frames can be lost, so every transmission sits on this grid: tile
/// lengths and spacings are whole strides and starts keep the same
/// phase, replay after replay.
const STRIDE: usize = 205_312;
/// Start-to-start spacing of transmissions (isolated frames and
/// collision clusters alike). Spacings under about 2×window + window/8
/// merge neighbouring extractions into one giant segment — at
/// 120–160 k the batch path shipped a single 7.9 MB segment and
/// recovered 12 of 25 frames — so the spacing is part of every
/// workload's definition.
const SPACING: usize = 2 * STRIDE;
/// Every workload's SNR at the 0 dB reference power. At 25 dB the
/// 8-bit front end's gain control pushes the noise floor down to a few
/// LSBs whenever a frame shares the flush window, the universal
/// detector then fires on quantisation structure all along the window,
/// and the streaming gateway ships whole 436 k windows (often twice):
/// collisions decode differently from the batch path and about one
/// seed in three loses a frame. At 18 dB segmentation is the same in
/// both paths and every frame decodes.
const SNR_DB: f32 = 18.0;
/// Nominal start of a tile's first transmission: with the jitter, a
/// segment (which opens ~17 k before its first frame) begins 53–113 k
/// into a stride, clear of both unsafe edges.
const LEAD: usize = 100_000;
/// Position jitter drawn per transmission (± this many samples).
const JITTER: usize = 30_000;

/// What one slot of a tile transmits.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// One frame of this technology: 8-byte random payload, reference
    /// power, clean channel.
    Isolated(TechId),
    /// A LoRa+XBee forced collision (`forced_collision`, 10-byte
    /// payloads, 20 k stagger, powers `[0, 1]` dB and `[1, 0]` dB by
    /// turns).
    Cluster,
    /// One frame of this technology as the "wake up and transmit"
    /// traffic model draws it (`traffic::generate`: payload 4–16 bytes,
    /// power 0–6 dB, crystal error, random phase), re-timed into the
    /// slot. The crystal error is held to ±0.2 ppm: at ±0.5 ppm
    /// (±434 Hz, nearly half a LoRa SF7 bin) the LoRa demodulator loses
    /// about one frame in three.
    Drawn(TechId),
}

/// One frame of `tech` as the traffic model draws it.
fn drawn_frame<R: Rng>(reg: &Registry, tech: TechId, rng: &mut R) -> TxEvent {
    let params = TrafficParams {
        rate_hz: 8.0,
        power_db: (0.0, 6.0),
        max_ppm: 0.2,
        ..TrafficParams::default()
    };
    loop {
        let batch = generate(reg, &params, 0.5, FS, rng);
        if let Some(frame) = batch.into_iter().find(|e| e.tech.id() == tech) {
            return frame;
        }
    }
}

/// Builds the workload's tile from `seed`. The same seed always gives
/// the same tile.
pub fn build_tile(workload: Workload, seed: u64) -> Tile {
    let mut rng = StdRng::seed_from_u64(seed ^ (workload as u64 + 1).wrapping_mul(0x9E37_79B9));
    let reg = Registry::prototype();
    let slots = workload.slots();
    let mut events: Vec<TxEvent> = Vec::new();
    let mut clusters = 0;
    for (k, slot) in slots.iter().enumerate() {
        let start = LEAD + k * SPACING - JITTER + rng.gen_range(0..=2 * JITTER);
        match *slot {
            Slot::Isolated(tech) => {
                let handle = reg.get(tech).expect("prototype technology").clone();
                events.push(TxEvent::new(handle, random_payload(8, &mut rng), start));
            }
            Slot::Cluster => {
                let powers: [f32; 2] = if clusters % 2 == 0 {
                    [0.0, 1.0]
                } else {
                    [1.0, 0.0]
                };
                events.extend(forced_collision(&reg, 10, &powers, 20_000, start, &mut rng));
                clusters += 1;
            }
            Slot::Drawn(tech) => {
                let mut frame = drawn_frame(&reg, tech, &mut rng);
                frame.start = start;
                events.push(frame);
            }
        }
    }
    let noise = snr_to_noise_power(SNR_DB, 0.0);
    let capture = compose(&events, workload.tile_len(), FS, noise, &mut rng);
    let mut truth = capture.truth;
    truth.sort_by_key(|t| t.start);
    Tile {
        samples: capture.samples,
        truth,
    }
}

/// Noise-only air at the workloads' noise level: the
/// set-up priming window and the pad that flushes a paced pass.
pub fn noise(len: usize, seed: u64) -> Vec<Cf32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0FA1);
    galiot_channel::awgn(len, snr_to_noise_power(SNR_DB, 0.0), &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn same_seed_same_tile_and_structure_is_seed_independent() {
        for w in Workload::ALL {
            let a = build_tile(w, 5);
            let b = build_tile(w, 5);
            let c = build_tile(w, 6);
            assert!(a.samples == b.samples, "{} not repeatable", w.name());
            assert_eq!(a.samples.len(), w.tile_len());
            assert_eq!(c.samples.len(), w.tile_len());
            assert_eq!(a.truth.len(), c.truth.len());
            assert!(a.samples != c.samples, "{} ignores its seed", w.name());
        }
    }
}
