//! The end-to-end GalioT pipeline: front end → detection → extraction
//! → edge decode → compressed backhaul → cloud decode.
//!
//! This is the batch (whole-capture) form; [`crate::pool`] runs
//! the same stages across threads for live chunked captures.

use galiot_cloud::{CloudDecoder, DecodeBuffers, Recovery};
use galiot_dsp::Cf32;
use galiot_gateway::{AnalogView, ShippedSegment};
use galiot_phy::registry::Registry;
use galiot_phy::DecodedFrame;
use std::convert::Infallible;

use crate::config::GaliotConfig;
use crate::metrics::{Metrics, SharedMetrics};
use crate::stage::GatewayStage;

/// A decoded frame plus where in the pipeline it was recovered.
#[derive(Clone, Debug)]
pub struct PipelineFrame {
    /// The decoded frame (start in capture coordinates).
    pub frame: DecodedFrame,
    /// `true` if the edge decoded it; `false` for the cloud.
    pub at_edge: bool,
    /// `true` if a cloud kill filter was needed.
    pub via_kill: bool,
}

/// The result of processing one capture.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Every recovered frame.
    pub frames: Vec<PipelineFrame>,
    /// Counters for the run.
    pub metrics: Metrics,
}

/// Block length of the backhaul's block-floating-point compression.
pub(crate) const COMPRESS_BLOCK: usize = 1024;

/// The GalioT system: a configured gateway + cloud pair.
pub struct Galiot {
    config: GaliotConfig,
    registry: Registry,
    gateway: GatewayStage,
    cloud: CloudDecoder,
}

/// What the gateway half of [`Galiot::process_capture`] hands its
/// cloud half, in capture order.
enum Emission {
    /// Decoded at the edge; nothing travels.
    Edge(DecodedFrame),
    /// Compressed for the backhaul.
    Shipped(ShippedSegment),
}

impl Galiot {
    /// Builds the system for a technology registry.
    ///
    /// # Panics
    /// Panics if `config` fails [`GaliotConfig::validate`] — a
    /// silently-degenerate configuration must fail at construction,
    /// not mid-capture.
    pub fn new(config: GaliotConfig, registry: Registry) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid GaliotConfig: {e}");
        }
        Galiot {
            gateway: GatewayStage::new(&config, &registry),
            cloud: CloudDecoder::with_params(registry.clone(), config.cloud),
            registry,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GaliotConfig {
        &self.config
    }

    /// The registry in use.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Processes one analog capture end to end: the gateway stage a
    /// live session runs per flush step (`crate::stage`), here as one
    /// last flush whose window is the whole capture, then the cloud.
    pub fn process_capture(&self, analog: &[Cf32]) -> RunReport {
        let fs = self.config.fs;
        let engine_before = galiot_dsp::engine::stats();
        let shared = SharedMetrics::new();
        shared.with(|m| m.samples_processed = analog.len() as u64);

        // Gateway: digitize, detect, extract, edge-decode, compress.
        let bits = self.config.compression_bits;
        let mut emissions = Vec::new();
        let Ok(()) = self.gateway.run(
            &mut self.gateway.buffers(0, analog.len()),
            AnalogView::whole(analog),
            true,
            &shared,
            &mut || Ok::<_, Infallible>(()),
            &mut |seg| {
                let seq = emissions.len() as u64;
                emissions.push(match seg.edge_frame {
                    Some(frame) => Emission::Edge(frame),
                    None => Emission::Shipped(ShippedSegment::pack(
                        seq,
                        seg.start,
                        seg.samples,
                        bits,
                        COMPRESS_BLOCK,
                    )),
                });
                Ok(())
            },
        );
        let mut metrics = shared.snapshot();

        let mut frames = Vec::new();
        let (mut at_cloud, mut buffers) = (Vec::new(), DecodeBuffers::default());
        for emission in emissions {
            let seg = match emission {
                Emission::Edge(frame) => {
                    metrics.record_frame(&frame, true, false);
                    frames.push(PipelineFrame {
                        frame,
                        at_edge: true,
                        via_kill: false,
                    });
                    continue;
                }
                Emission::Shipped(seg) => seg,
            };

            // Ship, decompress at the cloud.
            metrics.shipped_segments += 1;
            metrics.shipped_bytes += seg.compressed.wire_bytes() as u64;
            seg.unpack_into(&mut at_cloud);

            // Cloud: Algorithm 1.
            let decode_span =
                galiot_trace::span(galiot_trace::Stage::WorkerDecode, galiot_trace::NO_SEQ);
            let result = self.cloud.decode_reusing(&at_cloud, fs, &mut buffers);
            drop(decode_span);
            metrics.sic_rounds += result.rounds as u64;
            metrics.kill_applications += result.kills as u64;
            for (mut frame, how) in result.frames {
                frame.start += seg.start;
                let via_kill = matches!(how, Recovery::AfterKill { .. });
                metrics.record_frame(&frame, false, via_kill);
                frames.push(PipelineFrame {
                    frame,
                    at_edge: false,
                    via_kill,
                });
            }
        }
        metrics.record_engine_stats(&engine_before);
        RunReport { frames, metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galiot_channel::{compose, forced_collision, snr_to_noise_power, TxEvent};
    use galiot_phy::TechId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FS: f64 = 1_000_000.0;

    fn system() -> Galiot {
        Galiot::new(GaliotConfig::prototype(), Registry::prototype())
    }

    #[test]
    fn clean_packet_is_decoded_at_edge() {
        let mut rng = StdRng::seed_from_u64(1);
        let reg = Registry::prototype();
        let xbee = reg.get(TechId::XBee).unwrap().clone();
        let ev = TxEvent::new(xbee, vec![1, 2, 3, 4], 50_000);
        let np = snr_to_noise_power(15.0, 0.0);
        let cap = compose(&[ev], 600_000, FS, np, &mut rng);
        let report = system().process_capture(&cap.samples);
        assert_eq!(report.frames.len(), 1, "{:?}", report.metrics);
        assert!(report.frames[0].at_edge);
        assert_eq!(report.frames[0].frame.payload, vec![1, 2, 3, 4]);
        // Nothing shipped: the edge handled it.
        assert_eq!(report.metrics.shipped_segments, 0);
        // The DSP engine counters are folded into the metrics: the run
        // must have exercised the FFT plan cache.
        let m = &report.metrics;
        assert!(
            m.plan_cache_hits + m.plan_cache_misses > 0,
            "no plan lookups recorded: {m:?}"
        );
        assert!(m.plan_cache_hit_rate().is_some());
    }

    #[test]
    fn collision_goes_to_cloud_and_both_recovered() {
        let mut rng = StdRng::seed_from_u64(2);
        let reg = Registry::prototype();
        let events = forced_collision(&reg, 8, &[0.0, 1.0], 25_000, 60_000, &mut rng);
        let truth: Vec<(TechId, Vec<u8>)> = events
            .iter()
            .map(|e| (e.tech.id(), e.payload.clone()))
            .collect();
        let np = snr_to_noise_power(25.0, 0.0);
        let cap = compose(&events, 800_000, FS, np, &mut rng);
        let report = system().process_capture(&cap.samples);
        assert!(report.metrics.shipped_segments >= 1);
        let got: Vec<(TechId, Vec<u8>)> = report
            .frames
            .iter()
            .map(|p| (p.frame.tech, p.frame.payload.clone()))
            .collect();
        let hits = truth.iter().filter(|t| got.contains(t)).count();
        assert_eq!(hits, 2, "got {got:?}");
    }

    #[test]
    fn noise_only_ships_nothing_and_decodes_nothing() {
        let mut rng = StdRng::seed_from_u64(3);
        let noise = galiot_channel::awgn(500_000, 1.0, &mut rng);
        let report = system().process_capture(&noise);
        assert!(report.frames.is_empty());
        // Bandwidth saving: nearly nothing shipped from pure noise.
        assert!(report.metrics.shipped_fraction(8) < 0.2);
    }

    #[test]
    fn goodput_is_positive_when_frames_recovered() {
        let mut rng = StdRng::seed_from_u64(5);
        let reg = Registry::prototype();
        let lora = reg.get(TechId::LoRa).unwrap().clone();
        let ev = TxEvent::new(lora, vec![7; 20], 30_000);
        let np = snr_to_noise_power(15.0, 0.0);
        let cap = compose(&[ev], 600_000, FS, np, &mut rng);
        let report = system().process_capture(&cap.samples);
        assert!(report.metrics.goodput_bps(FS) > 0.0);
    }
}
