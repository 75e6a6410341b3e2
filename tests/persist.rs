//! Crash-recovery integration tests: random kill points mid-stream,
//! including torn and truncated final WAL records, for both the
//! single-engine [`DurableSketch`] and the multi-shard
//! [`ConcurrentSketch`] durability path.
//!
//! The contract under test is exact: recovered state must be
//! **state-fingerprint-identical** to an uninterrupted run over the
//! records that survived the crash — same estimates, same table layout,
//! same sampler state, so every future purge decision matches too.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use streamfreq::persist::recover::{recover_engine_readonly, RecoverySource};
use streamfreq::persist::store::read_manifest;
use streamfreq::persist::wal;
use streamfreq::{
    ConcurrentSketch, DurabilityOptions, DurableSketch, EngineConfig, FsyncPolicy, ShardedSketch,
    SketchEngine,
};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A unique, empty scratch directory per proptest case.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("streamfreq-persist-it")
        .join(format!(
            "{label}-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::SeqCst)
        ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        fsync: FsyncPolicy::Off,
        // Small segments so kill points also land across rotations.
        segment_bytes: 1 << 14,
    }
}

/// Recursively copies a store directory — the "crash image" taken while
/// the original is still live.
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

/// Truncates the newest WAL segment in `dir` to a byte length chosen by
/// `frac` of its tail past the segment header — the torn-write
/// signature of a crash. With `flip` set, additionally flips a bit just
/// before the cut so the last surviving frame may be corrupt rather
/// than short (CRC must catch both identically).
fn tear_newest_segment(dir: &std::path::Path, frac: f64, flip: bool) {
    let mut segments: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy().into_owned();
            name.starts_with("wal-") && name.ends_with(".seg")
        })
        .map(|e| e.path())
        .collect();
    segments.sort();
    let Some(newest) = segments.last() else {
        return;
    };
    let bytes = std::fs::read(newest).unwrap();
    const HEADER: usize = 8;
    if bytes.len() <= HEADER {
        return;
    }
    let keep = HEADER + ((bytes.len() - HEADER) as f64 * frac) as usize;
    let mut torn = bytes[..keep].to_vec();
    if flip && keep > HEADER {
        let at = HEADER + (keep - HEADER) / 2;
        torn[at] ^= 0x20;
    }
    std::fs::write(newest, torn).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// DurableSketch<u64>: ingest with checkpoints sprinkled through the
    /// stream, crash at a random byte of the active segment (torn or
    /// bit-flipped final record), recover, and require the recovered
    /// engine to be fingerprint-identical to an uninterrupted engine
    /// over the surviving batches — then keep ingesting on both and
    /// require they stay identical.
    #[test]
    fn kill_point_recovery_is_fingerprint_identical(
        stream in proptest::collection::vec((0u64..400, 1u64..120), 400..2400),
        k in 8usize..64,
        seed in any::<u64>(),
        ckpt_every in 3usize..9,
        kill_frac in 0.0f64..=1.0,
        flip in any::<bool>(),
    ) {
        let dir = scratch("sketch-kill");
        let config = EngineConfig::new(k).seed(seed);
        const BATCH: usize = 128;
        let batches: Vec<&[(u64, u64)]> = stream.chunks(BATCH).collect();

        let (mut store, _) = DurableSketch::<u64>::open(&dir, config, opts()).unwrap();
        let mut batches_at_checkpoint = 0usize;
        for (i, batch) in batches.iter().enumerate() {
            store.update_batch(batch).unwrap();
            if (i + 1) % ckpt_every == 0 && i + 1 < batches.len() {
                store.checkpoint().unwrap();
                batches_at_checkpoint = i + 1;
            }
        }
        drop(store); // crash: no drain, no final checkpoint

        tear_newest_segment(&dir, kill_frac, flip);

        let (recovered, _, report) = recover_engine_readonly::<u64>(&dir).unwrap();
        let survived = batches_at_checkpoint + report.records_replayed as usize;
        prop_assert!(survived <= batches.len());
        prop_assert!(
            survived >= batches_at_checkpoint,
            "recovery lost checkpointed batches"
        );

        // The uninterrupted reference over exactly the surviving prefix.
        let mut reference: SketchEngine<u64> = config.build_engine().unwrap();
        for batch in &batches[..survived] {
            reference.update_batch(batch);
        }
        prop_assert_eq!(
            recovered.state_fingerprint(),
            reference.state_fingerprint(),
            "recovered state diverged (survived {} of {} batches, {:?})",
            survived, batches.len(), report.source
        );

        // Resume the store and finish the stream on both sides: open()
        // truncates the torn tail, appending continues cleanly, and the
        // states never diverge.
        let (mut store, resume_report) = DurableSketch::<u64>::open(&dir, config, opts()).unwrap();
        prop_assert_eq!(resume_report.records_replayed, report.records_replayed,
            "resume saw a different surviving tail than readonly recovery");
        for batch in &batches[survived..] {
            store.update_batch(batch).unwrap();
            reference.update_batch(batch);
        }
        prop_assert_eq!(
            store.engine().state_fingerprint(),
            reference.state_fingerprint()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Multi-shard ConcurrentSketch: ingest deterministically, snapshot
    /// the store directory as a crash image, tear the bank's shared
    /// group-commit log at a random kill point, recover the bank, and
    /// require each shard — and the Algorithm-5 merged serving view —
    /// to be fingerprint-identical to uninterrupted engines over the
    /// per-shard records that survived.
    #[test]
    fn concurrent_crash_recovery_matches_reference(
        stream in proptest::collection::vec((0u64..3_000, 1u64..60), 600..3_000),
        num_shards in 1usize..5,
        writers in 1usize..4,
        seed in any::<u64>(),
        kill_frac in 0.0f64..=1.0,
        flip in any::<bool>(),
    ) {
        let live_dir = scratch("bank-live");
        let crash_dir = scratch("bank-crash");

        let (sketch, _) = ConcurrentSketch::<u64>::builder(num_shards, 48)
            .seed(seed)
            .build_durable(&live_dir, opts(), None)
            .unwrap();
        sketch.ingest_slice_parallel(&stream, writers);
        // FIFO barrier: once the probe round completes, every enqueued
        // batch has been applied — and therefore staged for the shared
        // log. Sync so the staged frames reach the crash image.
        sketch.publish_now();
        sketch.reader().sync().unwrap();
        // The copy below is atomic only if no checkpoint round runs
        // during it. Ingest is over, and the bank starts a round on its
        // own only once the log reaches one segment, so a log below one
        // segment here means none can start. A longer stream or smaller
        // segments must fail here, not flake in the copy.
        let retained = sketch.reader().wal_bytes();
        prop_assert!(
            retained < opts().segment_bytes,
            "log of {} bytes reached a segment: a size-triggered round could race the copy",
            retained
        );

        // Crash image: copy the store while the bank is still live, then
        // tear the newest segment of the bank-level shared log. A single
        // torn write now clips every shard's tail at once.
        copy_dir(&live_dir, &crash_dir);
        tear_newest_segment(&crash_dir, kill_frac, flip);
        drop(sketch);

        // Per-shard reference: an uninterrupted engine over the records
        // that survived in the shared WAL for that shard's stream tag
        // (no checkpoints were taken, so the log is the full history).
        let mut references: Vec<SketchEngine<u64>> = Vec::new();
        for s in 0..num_shards {
            let sdir = crash_dir.join(format!("shard-{s:04}"));
            let manifest = read_manifest(&sdir).unwrap().unwrap();
            prop_assert!(manifest.checkpoint.is_none());
            prop_assert!(manifest.shared_log, "bank shards must share one log");
            prop_assert_eq!(manifest.stream, s as u32);
            let outcome = wal::read_from::<u64>(&crash_dir, manifest.wal_start).unwrap();
            let mut engine: SketchEngine<u64> = manifest.config.build_engine().unwrap();
            for record in &outcome.records {
                if record.stream == s as u32 && record.at >= manifest.wal_start {
                    engine.update_batch(&record.batch);
                }
            }
            references.push(engine);
        }

        // Recover the bank from the crash image.
        let (mut recovered, reports) = ConcurrentSketch::<u64>::builder(num_shards, 48)
            .seed(seed)
            .build_durable(&crash_dir, opts(), None)
            .unwrap();
        for report in &reports {
            prop_assert!(matches!(
                report.source,
                RecoverySource::WalOnly | RecoverySource::Fresh
            ));
        }
        let recovered_snapshot = recovered.snapshot();
        let shards = recovered.drain();
        prop_assert_eq!(shards.len(), num_shards);
        for (s, (shard, reference)) in shards.iter().zip(&references).enumerate() {
            prop_assert_eq!(
                shard.state_fingerprint(),
                reference.state_fingerprint(),
                "shard {} diverged from its uninterrupted reference", s
            );
        }

        // The initial recovered snapshot is the Algorithm-5 merge of the
        // references, exactly as a live publish would produce it.
        let mut merged_reference: SketchEngine<u64> = EngineConfig::new(48)
            .seed(seed)
            .build_engine()
            .unwrap();
        for reference in &references {
            merged_reference.merge(reference);
        }
        prop_assert_eq!(
            recovered_snapshot.engine().state_fingerprint(),
            merged_reference.state_fingerprint(),
            "recovered serving view diverged from the merged reference"
        );
        let _ = std::fs::remove_dir_all(&live_dir);
        let _ = std::fs::remove_dir_all(&crash_dir);
    }
}

/// The size trigger end to end: a durable bank whose shared log keeps
/// reaching its (small) segment size checkpoints on its own, so the log
/// never holds much more than a segment, and a crash restart replays at
/// most one segment's worth of updates yet recovers every shard
/// exactly.
#[test]
fn size_triggered_checkpoints_bound_the_replay_tail() {
    const SHARDS: usize = 3;
    const K: usize = 64;
    const SEED: u64 = 5;
    // Items in [128, 16384) and weights in [1, 128) are two and one
    // varint bytes: every update costs exactly three log bytes.
    const BYTES_PER_UPDATE: u64 = 3;
    let segment = opts().segment_bytes;
    let updates = 6 * segment / BYTES_PER_UPDATE;
    let stream: Vec<(u64, u64)> = (0..updates)
        .map(|i| (128 + (i * 2_654_435_761) % 16_000, i % 127 + 1))
        .collect();
    let chunk = (segment / 4 / BYTES_PER_UPDATE) as usize;
    let live_dir = scratch("size-trigger-live");
    let crash_dir = scratch("size-trigger-crash");

    let (sketch, _) = ConcurrentSketch::<u64>::builder(SHARDS, K)
        .seed(SEED)
        .build_durable(&live_dir, opts(), None)
        .unwrap();
    let reader = sketch.reader();
    let mut peak = 0;
    for part in stream.chunks(chunk) {
        sketch.ingest_slice_parallel(part, 1);
        // Applied (FIFO probe barrier) and on disk: the gauge now counts
        // every byte this part added.
        sketch.publish_now();
        reader.sync().unwrap();
        peak = peak.max(reader.wal_bytes());
        // Only the bank's own size trigger can shrink the log.
        let deadline = Instant::now() + Duration::from_secs(10);
        while reader.wal_bytes() >= segment {
            assert!(
                Instant::now() < deadline,
                "log stuck at {} bytes with {segment}-byte segments: no size-triggered round",
                reader.wal_bytes()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    assert!(reader.last_checkpoint_epoch() > 0);
    assert!(
        reader.checkpoint_rounds() >= 4,
        "{}",
        reader.checkpoint_rounds()
    );
    assert!(
        peak < 2 * segment,
        "log peaked at {peak} bytes with {segment}-byte segments"
    );

    // Crash image: ingest is over and the log is below one segment, so
    // no round can start during the copy.
    copy_dir(&live_dir, &crash_dir);
    drop(sketch);
    let (mut recovered, reports) = ConcurrentSketch::<u64>::builder(SHARDS, K)
        .seed(SEED)
        .build_durable(&crash_dir, opts(), None)
        .unwrap();
    for report in &reports {
        assert!(report.checkpoint_epoch > 0, "{report:?}");
    }
    let replayed: u64 = reports.iter().map(|r| r.updates_replayed).sum();
    assert!(
        replayed * BYTES_PER_UPDATE <= segment,
        "replayed {replayed} updates, more than one {segment}-byte segment's worth"
    );
    let mut reference: ShardedSketch<u64> = ShardedSketch::builder(SHARDS, K)
        .seed(SEED)
        .build()
        .unwrap();
    reference.update_batch(&stream);
    let shards = recovered.drain();
    for (s, (shard, expected)) in shards.iter().zip(reference.shards()).enumerate() {
        assert_eq!(
            shard.state_fingerprint(),
            expected.state_fingerprint(),
            "shard {s} diverged from its uninterrupted reference"
        );
    }
    let _ = std::fs::remove_dir_all(&live_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// The serve-equivalent sealed contract at the library level: a durable
/// bank drained cleanly and reopened restores the exact sealed N with no
/// WAL replay (the drain checkpointed), and keeps accepting writes.
#[test]
fn drained_bank_reopens_exactly_without_replay() {
    let dir = scratch("sealed-reopen");
    let stream: Vec<(u64, u64)> = (0..40_000u64).map(|i| (i % 900, i % 13 + 1)).collect();
    let total: u64 = stream.iter().map(|&(_, w)| w).sum();

    let (mut sketch, _) = ConcurrentSketch::<u64>::builder(3, 64)
        .seed(11)
        .build_durable(&dir, opts(), None)
        .unwrap();
    sketch.ingest_slice_parallel(&stream, 2);
    sketch.drain();
    let sealed = sketch.snapshot();
    assert!(sealed.is_sealed());
    assert_eq!(sealed.stream_weight(), total);
    let sealed_fp = sealed.engine().state_fingerprint();
    drop(sketch);

    let (mut sketch, reports) = ConcurrentSketch::<u64>::builder(3, 64)
        .seed(11)
        .build_durable(&dir, opts(), None)
        .unwrap();
    for report in &reports {
        assert!(matches!(report.source, RecoverySource::CheckpointOnly));
        assert_eq!(report.records_replayed, 0, "clean drain needs no replay");
    }
    assert_eq!(
        sketch.snapshot().engine().state_fingerprint(),
        sealed_fp,
        "reopened bank must serve the sealed state verbatim"
    );
    sketch.ingest_slice_parallel(&stream, 1);
    sketch.drain();
    assert_eq!(sketch.snapshot().stream_weight(), 2 * total);
    let _ = std::fs::remove_dir_all(&dir);
}
