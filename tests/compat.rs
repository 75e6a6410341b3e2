//! Backward-compatibility tests against store directories written by
//! the PR-5 on-disk format (per-shard WAL segments, fixed-width v1
//! frames), checked into `tests/data/`.
//!
//! The fixtures were produced by the `generate_*` tests below, run
//! against the PR-5 tree (`cargo test --test compat -- --ignored
//! generate`). They must never be regenerated with newer code: their
//! whole point is that newer readers keep recovering them
//! **bit-identically** — the pinned fingerprints in this file are the
//! values the PR-5 code itself recovered.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use streamfreq::persist::crc32c;
use streamfreq::persist::recover::recover_engine_readonly;
use streamfreq::{
    ConcurrentSketch, DurabilityOptions, DurableSketch, EngineConfig, FsyncPolicy, SketchEngine,
};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn data_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("streamfreq-compat-it")
        .join(format!(
            "{label}-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::SeqCst)
        ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(from: &Path, to: &Path) {
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

/// 32-bit digest of an engine's full state fingerprint — compact
/// enough to pin as a constant while still detecting any divergence.
fn fp(engine: &SketchEngine<u64>) -> u32 {
    crc32c(&engine.state_fingerprint())
}

/// The deterministic stream both fixtures were fed.
fn fixture_stream() -> Vec<(u64, u64)> {
    (0..30_000u64)
        .map(|i| (i * i % 1_117, i % 17 + 1))
        .collect()
}

fn fixture_opts() -> DurabilityOptions {
    DurabilityOptions {
        fsync: FsyncPolicy::Off,
        segment_bytes: 1 << 14,
    }
}

const SINGLE_K: usize = 96;
const SINGLE_SEED: u64 = 20170601;
const BANK_SHARDS: usize = 3;
const BANK_K: usize = 64;
const BANK_SEED: u64 = 20170602;

/// Writes `tests/data/pr5-single/`: a single-engine [`DurableSketch`]
/// with a mid-stream checkpoint and a live WAL tail (no final
/// checkpoint), then prints the fingerprint the PR-5 code recovers.
#[test]
#[ignore = "fixture generator: run once against the PR-5 tree only"]
fn generate_pr5_single_fixture() {
    let dir = data_dir("pr5-single");
    let _ = std::fs::remove_dir_all(&dir);
    let config = EngineConfig::new(SINGLE_K).seed(SINGLE_SEED);
    let (mut store, _) = DurableSketch::<u64>::open(&dir, config, fixture_opts()).unwrap();
    let stream = fixture_stream();
    for (i, batch) in stream.chunks(512).enumerate() {
        store.update_batch(batch).unwrap();
        if i == 29 {
            store.checkpoint().unwrap();
        }
    }
    drop(store); // crash image: WAL tail past the checkpoint survives
    let (engine, _, report) = recover_engine_readonly::<u64>(&dir).unwrap();
    println!(
        "pr5-single fingerprint=0x{:08x} source={:?} replayed={}",
        fp(&engine),
        report.source,
        report.records_replayed
    );
}

/// Writes `tests/data/pr5-bank/`: a 3-shard durable bank with one
/// coordinated checkpoint round and per-shard WAL tails, captured as a
/// crash image while live. Prints per-shard and merged fingerprints.
#[test]
#[ignore = "fixture generator: run once against the PR-5 tree only"]
fn generate_pr5_bank_fixture() {
    let fixture = data_dir("pr5-bank");
    let _ = std::fs::remove_dir_all(&fixture);
    let live = scratch("pr5-bank-live");
    let (sketch, _) = ConcurrentSketch::<u64>::builder(BANK_SHARDS, BANK_K)
        .seed(BANK_SEED)
        .build_durable(&live, fixture_opts(), None)
        .unwrap();
    let stream = fixture_stream();
    let half = stream.len() / 2;
    sketch.ingest_slice_parallel(&stream[..half], 1);
    sketch.publish_now();
    sketch.checkpoint_now().expect("checkpoint round");
    sketch.ingest_slice_parallel(&stream[half..], 1);
    sketch.publish_now(); // FIFO barrier: everything enqueued is logged
    sketch.reader().sync().unwrap();
    // The copy is atomic only while no checkpoint round can start, and
    // a bank starts one on its own once its log reaches a segment: a
    // stream that outgrows one must fail here, not tear the fixture.
    assert!(
        sketch.reader().wal_bytes() < fixture_opts().segment_bytes,
        "log reached a segment: a size-triggered round could race the copy"
    );
    copy_dir(&live, &fixture);
    drop(sketch);
    let _ = std::fs::remove_dir_all(&live);

    // Recover a scratch copy the way a restart would and print the
    // fingerprints to pin.
    let work = scratch("pr5-bank-work");
    copy_dir(&fixture, &work);
    let (mut recovered, _) = ConcurrentSketch::<u64>::builder(BANK_SHARDS, BANK_K)
        .seed(BANK_SEED)
        .build_durable(&work, fixture_opts(), None)
        .unwrap();
    let merged = fp(recovered.snapshot().engine());
    let shards: Vec<u32> = recovered.drain().iter().map(fp).collect();
    println!("pr5-bank merged fingerprint=0x{merged:08x}");
    for (s, digest) in shards.iter().enumerate() {
        println!("pr5-bank shard {s} fingerprint=0x{digest:08x}");
    }
    let _ = std::fs::remove_dir_all(&work);
}

/// Pinned by the PR-5 generator run; see the module docs.
const PR5_SINGLE_FINGERPRINT: u32 = 0xf86b_b166;
const PR5_BANK_MERGED_FINGERPRINT: u32 = 0x03e5_7a79;
const PR5_BANK_SHARD_FINGERPRINTS: [u32; BANK_SHARDS] = [0x1e20_5e4f, 0xf9c1_d16a, 0xfa7f_4f8c];

/// A PR-5-format single store recovers bit-identically: read-only
/// recovery reproduces the pinned fingerprint, and a full reopen (which
/// may migrate the on-disk layout forward) serves the same state and
/// keeps accepting writes.
#[test]
fn pr5_single_store_recovers_bit_identically() {
    let work = scratch("single-ro");
    copy_dir(&data_dir("pr5-single"), &work);
    let (engine, _, _) = recover_engine_readonly::<u64>(&work).unwrap();
    assert_eq!(
        fp(&engine),
        PR5_SINGLE_FINGERPRINT,
        "read-only recovery diverged from the PR-5 reader"
    );

    let config = EngineConfig::new(SINGLE_K).seed(SINGLE_SEED);
    let (mut store, _) = DurableSketch::<u64>::open(&work, config, fixture_opts()).unwrap();
    assert_eq!(fp(store.engine()), PR5_SINGLE_FINGERPRINT);
    // The store must remain writable and durable after the format bump:
    // append, crash, recover, and the tail replays on top.
    store.update_batch(&[(7u64, 3u64), (9, 1)]).unwrap();
    let expected = fp(store.engine());
    drop(store);
    let (engine, _, _) = recover_engine_readonly::<u64>(&work).unwrap();
    assert_eq!(fp(&engine), expected);
    let _ = std::fs::remove_dir_all(&work);
}

/// A PR-5-format bank (per-shard WAL segments) recovers
/// fingerprint-identically shard by shard and in the merged serving
/// view, then reopens again after the first recovery rewrote the store
/// in the current layout.
#[test]
fn pr5_bank_recovers_bit_identically() {
    let work = scratch("bank-ro");
    copy_dir(&data_dir("pr5-bank"), &work);

    for round in 0..2 {
        let (mut recovered, _) = ConcurrentSketch::<u64>::builder(BANK_SHARDS, BANK_K)
            .seed(BANK_SEED)
            .build_durable(&work, fixture_opts(), None)
            .unwrap();
        assert_eq!(
            fp(recovered.snapshot().engine()),
            PR5_BANK_MERGED_FINGERPRINT,
            "merged serving view diverged on round {round}"
        );
        let shards = recovered.drain();
        // Drain checkpoints every shard, so round 1 reopens a store the
        // current code wrote — the migrated layout must roundtrip too.
        for (s, shard) in shards.iter().enumerate() {
            assert_eq!(
                fp(shard),
                PR5_BANK_SHARD_FINGERPRINTS[s],
                "shard {s} diverged on round {round}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&work);
}

/// The drained PR-5 fixture keeps working as a live store: reopen,
/// ingest more, drain, reopen again — state stays exact.
#[test]
fn pr5_bank_accepts_writes_after_migration() {
    let work = scratch("bank-rw");
    copy_dir(&data_dir("pr5-bank"), &work);
    let (mut sketch, _) = ConcurrentSketch::<u64>::builder(BANK_SHARDS, BANK_K)
        .seed(BANK_SEED)
        .build_durable(&work, fixture_opts(), None)
        .unwrap();
    let extra: Vec<(u64, u64)> = (0..4_000u64).map(|i| (i % 333, i % 7 + 1)).collect();
    sketch.ingest_slice_parallel(&extra, 1);
    sketch.drain();
    let sealed = fp(sketch.snapshot().engine());
    drop(sketch);

    let (mut sketch, _) = ConcurrentSketch::<u64>::builder(BANK_SHARDS, BANK_K)
        .seed(BANK_SEED)
        .build_durable(&work, fixture_opts(), None)
        .unwrap();
    assert_eq!(fp(sketch.snapshot().engine()), sealed);
    sketch.drain();
    let _ = std::fs::remove_dir_all(&work);
}

/// Reference engine over the fixture stream — documents what the
/// fixtures contain without depending on any persisted bytes.
#[test]
fn fixture_stream_is_deterministic() {
    let stream = fixture_stream();
    assert_eq!(stream.len(), 30_000);
    let mut engine: SketchEngine<u64> = EngineConfig::new(SINGLE_K)
        .seed(SINGLE_SEED)
        .build_engine()
        .unwrap();
    engine.update_batch(&stream);
    assert_eq!(engine.stream_weight(), stream.iter().map(|&(_, w)| w).sum());
}
