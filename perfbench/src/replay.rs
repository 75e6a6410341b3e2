//! In-process replay for traced runs: the run's own inputs (same seed,
//! same batch boundaries, the node's publish and checkpoint cadence)
//! pushed through the server-side layers' public functions, one span
//! per call. The per-layer metrics a workload does not measure on its
//! live path come from here.

use std::path::Path;
use std::time::{Duration, Instant};

use streamfreq_core::cluster::{wire, HashRing};
use streamfreq_core::persist::{DurabilityOptions, DurableSketch, EngineConfig};
use streamfreq_core::{ConcurrentSketch, FreqSketch, ShardedSketch, SketchEngine};

use crate::trace::{Tracer, NONE};
use crate::Metric;

/// The nodes' snapshot publish interval (`serve`'s default
/// `--snapshot-ms 50`), for deriving the replay's publish cadence from a
/// measured rate.
pub const SNAPSHOT_INTERVAL_S: f64 = 0.05;

/// The bank configuration and cadence the replay mirrors.
pub struct ReplayConfig<'a> {
    pub stream: &'a [(u64, u64)],
    /// Updates per batch (the workload's chunk or frame size).
    pub batch: usize,
    pub shards: usize,
    /// Merged counter budget (per shard: `k / shards`).
    pub k: usize,
    pub seed: u64,
    /// Publish a snapshot after this many batches (the node's cadence).
    pub publish_every: usize,
    /// Request a checkpoint after this batch, where the live workload
    /// sent one; `None` when it sent none.
    pub checkpoint_at: Option<usize>,
    /// Ring width and vnodes for the routing replay.
    pub ring_nodes: u64,
    pub vnodes: u32,
}

/// Adds `m` unless a metric of that name is already present (live
/// measurements take precedence over the replay).
pub fn push_unique(out: &mut Vec<Metric>, m: Metric) {
    if !out.iter().any(|x| x.name == m.name) {
        out.push(m);
    }
}

fn per_kup(total_ns: f64, updates: usize) -> f64 {
    total_ns / 1e3 / (updates.max(1) as f64 / 1e3)
}

/// Runs the replay under `dir` (which it creates and leaves behind for
/// the caller's cleanup), appending the metrics not already in `out`.
pub fn run(
    cfg: &ReplayConfig,
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let n = cfg.stream.len();
    let batches: Vec<&[(u64, u64)]> = cfg.stream.chunks(cfg.batch.max(1)).collect();
    let root = tracer.begin("replay", NONE, 0);
    // Totals count only the replay's own spans, not the live run's.
    let mark = tracer.spans().len();
    let total = |tracer: &Tracer, name: &str| tracer.total_since(mark, name);
    let k_shard = (cfg.k / cfg.shards.max(1)).max(1);

    // Wire: INGEST frame encode/decode of every batch.
    let mut frame_bytes = 0usize;
    for (i, batch) in batches.iter().enumerate() {
        let s = tracer.begin("wire.ingest_encode", root, i as u64);
        let frame = wire::encode_ingest_batch(batch);
        tracer.end(s);
        frame_bytes += frame.len();
        let s = tracer.begin("wire.ingest_decode", root, i as u64);
        let decoded =
            wire::decode_ingest_batch(&frame).map_err(|e| format!("replay decode: {e}"))?;
        tracer.end(s);
        if decoded.len() != batch.len() {
            return Err("replay: INGEST round trip changed the batch".into());
        }
    }
    push_unique(
        out,
        Metric::new(
            "wire.ingest_encode_us_per_kup",
            per_kup(total(tracer, "wire.ingest_encode"), n),
            "us/kup",
            batches.len(),
        ),
    );
    push_unique(
        out,
        Metric::new(
            "wire.ingest_decode_us_per_kup",
            per_kup(total(tracer, "wire.ingest_decode"), n),
            "us/kup",
            batches.len(),
        ),
    );
    push_unique(
        out,
        Metric::new(
            "wire.ingest_bytes_per_update",
            frame_bytes as f64 / n.max(1) as f64,
            "B",
            batches.len(),
        ),
    );

    // Ring: route every update.
    let ids: Vec<u64> = (1..=cfg.ring_nodes).collect();
    let ring = HashRing::build(&ids, cfg.vnodes);
    let s = tracer.begin("ring.route", root, 0);
    let mut owners = vec![0u64; ids.len()];
    for (item, _) in cfg.stream {
        owners[ring.route(item)] += 1;
    }
    tracer.end(s);
    std::hint::black_box(&owners);
    push_unique(
        out,
        Metric::new(
            "ring.route_ns_per_update",
            total(tracer, "ring.route") / n.max(1) as f64,
            "ns",
            n,
        ),
    );

    // Engine beside the durable store on the same batches: the
    // difference is the WAL's share.
    let store_dir = dir.join("replay-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let config = EngineConfig::new(k_shard).seed(cfg.seed);
    let mut engine: SketchEngine<u64> = config.build_engine().map_err(|e| e.to_string())?;
    let (mut store, _) =
        DurableSketch::<u64>::open(&store_dir, config, DurabilityOptions::default())
            .map_err(|e| format!("replay store: {e}"))?;
    for (i, batch) in batches.iter().enumerate() {
        let s = tracer.begin("engine.update_batch", root, i as u64);
        engine.update_batch(batch);
        tracer.end(s);
    }
    for (i, batch) in batches.iter().enumerate() {
        let s = tracer.begin("persist.durable_update_batch", root, i as u64);
        store
            .update_batch(batch)
            .map_err(|e| format!("replay append: {e}"))?;
        tracer.end(s);
    }
    let engine_ns = total(tracer, "engine.update_batch");
    let durable_ns = total(tracer, "persist.durable_update_batch");
    push_unique(
        out,
        Metric::new(
            "engine.update_us_per_kup",
            per_kup(engine_ns, n),
            "us/kup",
            batches.len(),
        ),
    );
    push_unique(
        out,
        Metric::new("engine.purges", engine.num_purges() as f64, "count", 1),
    );
    push_unique(
        out,
        Metric::new(
            "persist.append_us_per_kup",
            per_kup(durable_ns - engine_ns, n),
            "us/kup",
            batches.len(),
        ),
    );
    push_unique(
        out,
        Metric::new(
            "persist.wal_bytes_per_update",
            store.wal_bytes() as f64 / n.max(1) as f64,
            "B",
            1,
        ),
    );
    store.sync().map_err(|e| format!("replay sync: {e}"))?;
    drop(store);
    // Reopen without a checkpoint: recovery replays the whole log.
    let s = tracer.begin("persist.reopen", root, 0);
    let (reopened, report) =
        DurableSketch::<u64>::open(&store_dir, config, DurabilityOptions::default())
            .map_err(|e| format!("replay reopen: {e}"))?;
    tracer.end(s);
    crate::check(
        reopened.engine().stream_weight() == engine.stream_weight(),
        "replay-recovery",
        || {
            format!(
                "reopened N {} != {}",
                reopened.engine().stream_weight(),
                engine.stream_weight()
            )
        },
    )?;
    let reopen_s = total(tracer, "persist.reopen") / 1e9;
    push_unique(
        out,
        Metric::new(
            "persist.replay_ups",
            report.updates_replayed as f64 / reopen_s.max(1e-9),
            "updates/s",
            1,
        ),
    );
    drop(reopened);

    // The serving bank: writer batches, publishes at the node's
    // cadence, the workload's checkpoint if it sent one, a sync at the end.
    let bank_dir = dir.join("replay-bank");
    let _ = std::fs::remove_dir_all(&bank_dir);
    let (mut bank, _) = ConcurrentSketch::<u64>::builder(cfg.shards, k_shard)
        .seed(cfg.seed)
        .merged_capacity(cfg.k)
        .build_durable(&bank_dir, DurabilityOptions::default(), None)
        .map_err(|e| format!("replay bank: {e}"))?;
    let reader = bank.reader();
    let mut writer = bank.writer();
    let mut snapshot_calls = 0usize;
    let mut checkpoint_ms = None;
    for (i, batch) in batches.iter().enumerate() {
        let s = tracer.begin("concurrent.write", root, i as u64);
        writer.write_batch(batch);
        writer.flush();
        tracer.end(s);
        if (i + 1) % cfg.publish_every.max(1) == 0 {
            let s = tracer.begin("concurrent.publish", root, i as u64);
            bank.publish_now();
            tracer.end(s);
            let s = tracer.begin("concurrent.snapshot", root, i as u64);
            let snap = reader.snapshot();
            tracer.end(s);
            std::hint::black_box(snap.stream_weight());
            snapshot_calls += 1;
        }
        if cfg.checkpoint_at == Some(i) {
            let t = Instant::now();
            let s = tracer.begin("persist.checkpoint", root, i as u64);
            let epoch = reader.request_checkpoint(Duration::from_secs(60));
            tracer.end(s);
            checkpoint_ms = Some(t.elapsed().as_secs_f64() * 1e3);
            crate::check(epoch.is_some(), "replay-checkpoint", || {
                "checkpoint round timed out".into()
            })?;
        }
    }
    // Last write → applied (publish) → on disk (sync).
    let s = tracer.begin("concurrent.publish", root, batches.len() as u64);
    let snap = bank.publish_now();
    tracer.end(s);
    let s = tracer.begin("persist.sync", root, 0);
    reader
        .sync()
        .map_err(|e| format!("replay bank sync: {e}"))?;
    tracer.end(s);
    crate::check(
        snap.stream_weight() == cfg.stream.iter().map(|&(_, w)| w).sum::<u64>(),
        "replay-bank-weight",
        || format!("bank N {} after replay", snap.stream_weight()),
    )?;
    let publishes = tracer.spans()[mark..]
        .iter()
        .filter(|s| s.name == "concurrent.publish")
        .count();
    push_unique(
        out,
        Metric::new(
            "concurrent.write_us_per_kup",
            per_kup(total(tracer, "concurrent.write"), n),
            "us/kup",
            batches.len(),
        ),
    );
    push_unique(
        out,
        Metric::new(
            "concurrent.publish_ms",
            total(tracer, "concurrent.publish") / 1e6 / publishes.max(1) as f64,
            "ms",
            publishes,
        ),
    );
    push_unique(
        out,
        Metric::new("concurrent.publishes", publishes as f64, "count", 1),
    );
    push_unique(
        out,
        Metric::new(
            "concurrent.snapshot_us",
            total(tracer, "concurrent.snapshot") / 1e3 / snapshot_calls.max(1) as f64,
            "us",
            snapshot_calls,
        ),
    );
    if let Some(ms) = checkpoint_ms {
        push_unique(out, Metric::new("persist.checkpoint_ms", ms, "ms", 1));
    }
    push_unique(
        out,
        Metric::new(
            "persist.sync_ms",
            total(tracer, "persist.sync") / 1e6,
            "ms",
            1,
        ),
    );
    let stats = reader.wal_stats().unwrap_or_default();
    push_unique(
        out,
        Metric::new("persist.fsyncs", stats.fsync_count as f64, "count", 1),
    );
    push_unique(
        out,
        Metric::new(
            "persist.frames_per_fsync",
            stats.avg_frames_per_fsync(),
            "ratio",
            1,
        ),
    );
    drop(writer);
    bank.drain();
    drop(bank);

    // Shipping the merged state: codec, SNAP framing, Algorithm-5 merge.
    let mut sharded: ShardedSketch<u64> = ShardedSketch::builder(cfg.shards, k_shard)
        .seed(cfg.seed)
        .build()
        .map_err(|e| e.to_string())?;
    sharded.update_batch(cfg.stream);
    let s = tracer.begin("engine.merge", root, 0);
    let merged = sharded.merged_with_capacity(cfg.k);
    tracer.end(s);
    push_unique(
        out,
        Metric::new(
            "engine.merge_s",
            total(tracer, "engine.merge") / 1e9,
            "s",
            1,
        ),
    );
    let sketch = FreqSketch::from(merged.clone());
    let s = tracer.begin("codec.serialize", root, 0);
    let bytes = sketch.serialize_to_bytes();
    tracer.end(s);
    let s = tracer.begin("codec.deserialize", root, 0);
    let back =
        FreqSketch::deserialize_from_bytes(&bytes).map_err(|e| format!("replay codec: {e}"))?;
    tracer.end(s);
    crate::check(
        back.stream_weight() == sketch.stream_weight(),
        "replay-codec",
        || "weight changed".into(),
    )?;
    push_unique(
        out,
        Metric::new(
            "codec.serialize_s",
            total(tracer, "codec.serialize") / 1e9,
            "s",
            1,
        ),
    );
    push_unique(
        out,
        Metric::new(
            "codec.deserialize_s",
            total(tracer, "codec.deserialize") / 1e9,
            "s",
            1,
        ),
    );
    push_unique(
        out,
        Metric::new(
            "codec.bytes_per_counter",
            bytes.len() as f64 / sketch.num_counters().max(1) as f64,
            "B",
            1,
        ),
    );
    let s = tracer.begin("wire.snap_encode", root, 0);
    let snap_bytes = wire::encode_snapshot(1, false, &merged);
    tracer.end(s);
    let s = tracer.begin("wire.snap_decode", root, 0);
    let node_snap = wire::decode_snapshot(&snap_bytes).map_err(|e| format!("replay SNAP: {e}"))?;
    tracer.end(s);
    std::hint::black_box(node_snap.engine.stream_weight());
    push_unique(
        out,
        Metric::new(
            "wire.snap_encode_ms",
            total(tracer, "wire.snap_encode") / 1e6,
            "ms",
            1,
        ),
    );
    push_unique(
        out,
        Metric::new(
            "wire.snap_decode_ms",
            total(tracer, "wire.snap_decode") / 1e6,
            "ms",
            1,
        ),
    );
    push_unique(
        out,
        Metric::new("wire.snap_bytes", snap_bytes.len() as f64, "B", 1),
    );
    tracer.end(root);
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&bank_dir);
    Ok(())
}
