//! The gateway loop of a live session: its chunks fed to
//! [`crate::stage`], which flushes a fixed step of the capture at a
//! time, and the shipping policy for what the edge does not decode.
//!
//! [`crate::fleet`] runs one loop per session, on the session's own
//! thread, and again from where it died after a crash; what the cloud
//! does with a shipped segment is [`crate::pool`]'s supervised
//! pool.

use crossbeam::channel::{Receiver, Sender};
use galiot_dsp::Cf32;
use galiot_gateway::{GatewayId, ShippedSegment};
use galiot_phy::registry::Registry;
use std::sync::Arc;

use crate::config::GaliotConfig;
use crate::metrics::{Metrics, SharedMetrics};
use crate::pipeline::{PipelineFrame, COMPRESS_BLOCK};
use crate::pool::{mean_power, PoolItem, ResultMsg, SegmentResult};
use crate::stage::{Emitted, GatewayStage};
use crate::transport::{degraded_bits, QueuedSegment, SendQueueTx};

/// Where a gateway instance begins: capture offset and sequence base
/// (both 0 for a first life; a restarted instance resumes at the
/// capture position its predecessor died at, numbering segments from
/// the new epoch's base), plus the fault-injection point.
pub(crate) struct SessionStart {
    /// Absolute capture index of the first sample this instance will
    /// receive from the chunk feed.
    pub(crate) capture_offset: usize,
    /// First sequence number this instance emits (`epoch <<
    /// EPOCH_SHIFT` after a restart).
    pub(crate) seq_base: u64,
    /// Fault injection: die immediately before emitting segment
    /// number `crash_after` (counted within this instance; 0 = silent
    /// from the first would-be segment). `None` runs to completion.
    pub(crate) crash_after: Option<u64>,
}

/// How a gateway instance ended.
pub(crate) struct GatewayRun {
    /// The instance hit its injected crash point. Samples buffered but
    /// not yet flushed died with it — a rebooted radio loses its RAM.
    pub(crate) crashed: bool,
    /// Absolute capture index just past the last sample consumed from
    /// the chunk feed; a restarted instance resumes here.
    pub(crate) consumed: usize,
}

/// Why a flush stopped the gateway loop.
enum FlushStop {
    /// Downstream is gone; nothing more can be delivered.
    Downstream,
    /// The injected crash point was reached.
    Crashed,
}

/// Gateway loop body: feeds chunks to the gateway stage, which flushes
/// a fixed step of the capture at a time, edge-decodes clean segments
/// and ships the rest compressed. Runs on the caller's thread so a
/// fleet session supervisor can run successive instances (crash →
/// restart) over one chunk feed.
pub(crate) fn run_gateway(
    config: &GaliotConfig,
    registry: &Registry,
    chunk_rx: &Receiver<Arc<Vec<Cf32>>>,
    shipper: Shipper,
    result_tx: &Sender<ResultMsg>,
    metrics: &SharedMetrics,
    start: SessionStart,
) -> GatewayRun {
    let stage = GatewayStage::new(config, registry);
    let mut session = stage.session(start.capture_offset);
    let mut seq = start.seq_base;
    // Segments emitted by THIS instance (crash injection counts per
    // life, independent of the epoch folded into `seq`).
    let mut emitted_count = 0u64;
    // Fault injection: the crash lands between finalizing a segment and
    // emitting it — the worst spot, since the fleet can only learn of
    // the loss through liveness.
    let mut admit = || {
        if start.crash_after == Some(emitted_count) {
            return Err(FlushStop::Crashed);
        }
        emitted_count += 1;
        Ok(())
    };
    // Where an emitted segment goes: its frame straight to the merge if
    // the edge decoded it, its samples to the shipper if not.
    let mut emit = |seg: Emitted<'_>| {
        let this_seq = seq;
        seq += 1;
        let delivered = match seg.edge_frame {
            Some(frame) => result_tx
                .send(ResultMsg::Segment(SegmentResult {
                    gateway: shipper.gateway,
                    seq: this_seq,
                    frames: vec![PipelineFrame {
                        frame,
                        at_edge: true,
                        via_kill: false,
                    }],
                    watermark: Some(seg.start as u64),
                    power: mean_power(seg.samples),
                }))
                .is_ok(),
            None => shipper.ship(this_seq, seg.start, seg.samples),
        };
        delivered.then_some(()).ok_or(FlushStop::Downstream)
    };

    let mut consumed = start.capture_offset;
    let mut fed = Ok(());
    while let Ok(chunk) = chunk_rx.recv() {
        metrics.with(|m| m.samples_processed += chunk.len() as u64);
        consumed += chunk.len();
        fed = stage.feed(&mut session, &chunk, false, metrics, &mut admit, &mut emit);
        if fed.is_err() {
            break;
        }
    }
    // The feed is closed: whatever is still open is final.
    if fed.is_ok() && consumed > start.capture_offset {
        fed = stage.feed(&mut session, &[], true, metrics, &mut admit, &mut emit);
    }
    GatewayRun {
        crashed: matches!(fed, Err(FlushStop::Crashed)),
        consumed,
    }
}

/// Where the gateway's compressed segments go.
pub(crate) enum ShipMode {
    /// Straight into the worker-pool channel (perfect backhaul — the
    /// historical behavior).
    Direct(Sender<PoolItem>),
    /// Into the transport send queue, with the compression ladder and
    /// lowest-power shedding driven by queue depth. The owned
    /// [`SendQueueTx`] closes the queue when the gateway thread ends,
    /// however it ends.
    Transport {
        tx: SendQueueTx,
        hwm: usize,
        cap: usize,
        min_bits: u32,
        result_tx: Sender<ResultMsg>,
    },
}

/// The gateway's shipping policy: packs a finalized segment at the
/// right compression level and hands it to whichever path is active,
/// stamped with the session's [`GatewayId`].
pub(crate) struct Shipper {
    pub(crate) gateway: GatewayId,
    pub(crate) mode: ShipMode,
    pub(crate) base_bits: u32,
    pub(crate) metrics: SharedMetrics,
}

impl Shipper {
    /// Packs and ships one segment — towards the worker pool, or into
    /// the send queue at the compression its depth calls for, shedding
    /// the weakest segment queued when it is full — and books the
    /// backhaul metrics. Returns `false` when downstream is gone and the
    /// gateway should stop.
    fn ship(&self, seq: u64, abs_start: usize, samples: &[Cf32]) -> bool {
        let bits = match &self.mode {
            ShipMode::Direct(_) => self.base_bits,
            ShipMode::Transport {
                tx,
                hwm,
                cap,
                min_bits,
                ..
            } => degraded_bits(self.base_bits, *min_bits, tx.queue().len(), *hwm, *cap),
        };
        let shipped = ShippedSegment::pack(seq, abs_start, samples, bits, COMPRESS_BLOCK)
            .with_gateway(self.gateway);
        let wire = shipped.wire_bytes() as u64;
        let book = |m: &mut Metrics| {
            m.shipped_segments += 1;
            m.shipped_bytes += wire;
            *m.shipped_by_bits.entry(bits).or_default() += 1;
            m.segments_downgraded += usize::from(bits < self.base_bits);
        };
        // Mark the handoff before the send so the ship event
        // happens-before everything the receiving worker records for this
        // seq (the trace-conformance journey check relies on the order).
        let tag = galiot_trace::tag_seq(self.gateway.0, seq);
        galiot_trace::event(galiot_trace::EventKind::Ship, tag);
        match &self.mode {
            ShipMode::Direct(seg_tx) => {
                if seg_tx.send(PoolItem::from(shipped)).is_err() {
                    return false;
                }
                let depth = seg_tx.len();
                self.metrics.with(|m| {
                    book(m);
                    m.seg_queue_hwm = m.seg_queue_hwm.max(depth);
                });
            }
            ShipMode::Transport { tx, result_tx, .. } => {
                self.metrics.with(book);
                let power = mean_power(samples);
                let queued = QueuedSegment {
                    seg: shipped,
                    power,
                };
                if let Some(victim) = tx.queue().push(queued) {
                    // The shed victim's sequence slot still needs a gap
                    // notice so the merge can advance past it.
                    let v = victim.seg;
                    self.metrics.with(|m| m.segments_shed += 1);
                    let tag = galiot_trace::tag_seq(v.gateway.0, v.seq);
                    galiot_trace::event(galiot_trace::EventKind::Shed, tag);
                    let notice = ResultMsg::gap(v.gateway, v.seq, Some(v.start as u64));
                    return result_tx.send(notice).is_ok();
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use galiot_channel::{compose, snr_to_noise_power, TxEvent};
    use galiot_phy::TechId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FS: f64 = 1_000_000.0;

    #[test]
    fn a_flush_that_finds_downstream_gone_still_books_its_busy_time() {
        // The flush does all its work — digitize, detect, extract, the
        // edge attempt — before it learns nobody is listening; both
        // ways of learning it (the result channel for an edge decode,
        // the pool channel for a shipped segment) must account for
        // that work like any other flush.
        let reg = Registry::prototype();
        let config = GaliotConfig::prototype();
        let np = snr_to_noise_power(18.0, 0.0);
        let zwave = reg.get(TechId::ZWave).unwrap().clone();
        let clean = vec![TxEvent::new(zwave, vec![7; 6], 60_000)];
        let mut rng = StdRng::seed_from_u64(9);
        let collision =
            galiot_channel::forced_collision(&reg, 8, &[0.0, 0.0], 3_000, 60_000, &mut rng);
        for (events, decoded_at_edge) in [(clean, true), (collision, false)] {
            let cap = compose(&events, 500_000, FS, np, &mut rng);
            let metrics = SharedMetrics::new();
            let (chunk_tx, chunk_rx) = unbounded();
            let (result_tx, result_rx) = unbounded();
            let (seg_tx, seg_rx) = unbounded();
            drop(seg_rx);
            // The shipped case keeps its result channel open, to show
            // it was the pool channel that stopped it.
            let result_rx = (!decoded_at_edge).then_some(result_rx);
            chunk_tx.send(Arc::new(cap.samples)).unwrap();
            drop(chunk_tx);
            let run = run_gateway(
                &config,
                &reg,
                &chunk_rx,
                Shipper {
                    gateway: GatewayId(0),
                    mode: ShipMode::Direct(seg_tx),
                    base_bits: config.compression_bits,
                    metrics: metrics.clone(),
                },
                &result_tx,
                &metrics,
                SessionStart {
                    capture_offset: 0,
                    seq_base: 0,
                    crash_after: None,
                },
            );
            assert!(!run.crashed);
            let m = metrics.snapshot();
            assert_eq!(m.segments, 1, "stopped at the first segment: {m:?}");
            assert_eq!(m.shipped_segments, 0, "edge case {decoded_at_edge}: {m:?}");
            assert!(result_rx.is_none_or(|rx| rx.try_recv().is_err()));
            assert!(m.gateway_busy_ns > 0, "edge case {decoded_at_edge}: {m:?}");
        }
    }

    #[test]
    fn a_backed_up_send_queue_steps_compression_down_then_sheds_the_weakest() {
        // Nothing drains the queue, so its depth is the number of ships
        // so far, capped at 2: the ladder and the shedder, no clock.
        use crate::transport::SendQueue;
        use galiot_trace::{tag_seq, EventKind, TraceSession};

        let queue = SendQueue::new(2);
        let (result_tx, result_rx) = unbounded();
        let metrics = SharedMetrics::new();
        let gateway = GatewayId(3);
        let shipper = Shipper {
            gateway,
            mode: ShipMode::Transport {
                tx: SendQueueTx::new(queue.clone()),
                hwm: 1,
                cap: 2,
                min_bits: 4,
                result_tx,
            },
            base_bits: 8,
            metrics: metrics.clone(),
        };
        // Constant samples: a segment's mean power is its amplitude squared.
        let amplitudes = [2.0, 1.0, 3.0, 0.5, 1.5];
        let start = |seq: u64| 10_000 * (seq as usize + 1);
        let session = TraceSession::start();
        for (seq, &a) in amplitudes.iter().enumerate() {
            let samples = vec![Cf32::from_re(a); 256];
            let seq = seq as u64;
            assert!(shipper.ship(seq, start(seq), &samples));
        }
        let trace = session.finish();

        // Depths 0, 1, 2, 2, 2: full bits, one step down, then the floor.
        // Each push past two slots sheds the weakest segment queued: seq 1
        // (power 1) for seq 2, then seq 3 (0.25) and seq 4 (2.25) as they
        // arrive — each answered by a gap notice carrying its start.
        let mut kept = Vec::new();
        while let Some(q) = queue.try_pop() {
            kept.push((q.seg.seq, q.seg.compressed.bits));
        }
        assert_eq!(kept, [(0, 8), (2, 4)]);
        let gaps: Vec<(u64, Option<u64>)> = (result_rx.try_iter())
            .map(|msg| match msg {
                ResultMsg::Segment(r) if r.gateway == gateway && r.frames.is_empty() => {
                    (r.seq, r.watermark)
                }
                _ => panic!("a shed answers with a gap notice only"),
            })
            .collect();
        let victims = [1, 3, 4];
        assert_eq!(gaps, victims.map(|s| (s, Some(start(s) as u64))));

        let m = metrics.snapshot();
        let by_bits: Vec<(u32, u64)> = m.shipped_by_bits.iter().map(|(&b, &n)| (b, n)).collect();
        assert_eq!(by_bits, [(4, 3), (6, 1), (8, 1)]);
        assert_eq!(m.shipped_by_bits.values().sum::<u64>(), 5);
        assert_eq!(m.shipped_segments, 5);
        assert_eq!((m.segments_downgraded, m.segments_shed), (4, 3));

        let tags = |kind: EventKind| -> Vec<u64> {
            (trace.events.iter())
                .filter(|e| e.kind == kind)
                .map(|e| e.seq)
                .collect()
        };
        let tag =
            |seqs: &[u64]| -> Vec<u64> { seqs.iter().map(|&s| tag_seq(gateway.0, s)).collect() };
        assert_eq!(tags(EventKind::Ship), tag(&[0, 1, 2, 3, 4]));
        assert_eq!(tags(EventKind::Shed), tag(&victims));
    }
}
