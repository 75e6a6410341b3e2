//! Crash recovery: turn a store directory back into a live engine.
//!
//! Recovery is manifest-driven:
//!
//! 1. read `MANIFEST` (its CRC protects the pointer itself);
//! 2. load the checkpoint it names, if any — slot-exact, so the engine
//!    resumes in the precise state it was checkpointed in;
//! 3. replay the WAL from the manifest's position through the normal
//!    [`update_batch`](crate::SketchEngine::update_batch) path, stopping
//!    cleanly at a torn tail (detected by CRC, dropped, never
//!    misdecoded);
//! 4. truncate the torn bytes and reopen the log for appending.
//!
//! Replay streams and is coalesced: [`wal::scan_from`] decodes one
//! segment at a time and hands each record straight to the engine's
//! replayer, so recovery memory is bounded by a segment rather than by
//! the tail; records accumulate into `REPLAY_CHUNK`-pair batches before
//! each engine call, so recovery runs through the same batched fast
//! path as live ingest (batching is state-identical to sequential
//! updates by the engine's contract).
//!
//! Every degenerate layout recovers deliberately:
//!
//! | on disk | outcome |
//! |---|---|
//! | nothing | fresh store (manifest written, WAL segment 1 created) |
//! | manifest, no checkpoint, empty WAL | fresh engine from the recorded config |
//! | manifest, no checkpoint, WAL records | **WAL-only**: fresh engine + full replay |
//! | manifest + checkpoint, empty tail | checkpoint state verbatim |
//! | manifest + checkpoint + tail | checkpoint ⊕ replay |
//! | WAL segments but no manifest | tolerant full replay from the oldest segment |
//! | manifest → missing checkpoint/segment | clean [`PersistError::Corrupt`], never a panic |
//!
//! ## Banks and the shared log
//!
//! A sharded store (`open_bank`) keeps **one** log at the bank level;
//! each shard's manifest records `shared_log = true` plus its stream
//! tag, and recovery scans the log once from the minimum `wal_start`,
//! routing records to shards by tag (a record counts for shard `s` when
//! `stream == s` and its position is at or past that shard's
//! `wal_start`).
//!
//! Shards found in the pre-shared-log layout (a `shared_log = false`
//! manifest with shard-local segments) are recovered through the legacy
//! path and migrated: a fresh checkpoint of the recovered state is
//! written, the manifest is repointed at the shared log, and only then
//! are the shard-local files deleted. Each step is atomic per shard, so
//! a crash mid-migration leaves every shard individually recoverable —
//! some already on the shared log, the rest still legacy.

use std::path::Path;
use std::sync::Arc;

use crate::engine::{SketchEngine, SketchKey};
use crate::item_codec::ItemCodec;

use super::checkpoint::write_checkpoint;
use super::group::{CheckpointRound, GroupCommitWal};
use super::store::{
    checkpoint_file_name, read_manifest, read_store_meta, shard_dir, write_manifest,
    DurabilityOptions, DurableSketch, Manifest,
};
use super::wal::{self, WalPosition, WalWriter, SEGMENT_HEADER_LEN};
use super::{EngineConfig, PersistError};

/// Replayed pairs buffered before each [`SketchEngine::update_batch`]
/// call during recovery.
const REPLAY_CHUNK: usize = 8192;

/// Where a recovered engine's state came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoverySource {
    /// No prior state: a new store was created.
    Fresh,
    /// No checkpoint yet; the whole WAL was replayed into a fresh engine.
    WalOnly,
    /// A checkpoint with an empty WAL tail.
    CheckpointOnly,
    /// A checkpoint plus a replayed WAL tail.
    CheckpointAndWal,
}

impl RecoverySource {
    fn classify(has_checkpoint: bool, replayed: bool) -> Self {
        match (has_checkpoint, replayed) {
            (false, false) => RecoverySource::Fresh,
            (false, true) => RecoverySource::WalOnly,
            (true, false) => RecoverySource::CheckpointOnly,
            (true, true) => RecoverySource::CheckpointAndWal,
        }
    }
}

/// What recovery did, for reporting and tests.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// Which of the recovery paths ran.
    pub source: RecoverySource,
    /// Epoch of the loaded checkpoint (0 if none).
    pub checkpoint_epoch: u64,
    /// WAL records (batches) replayed.
    pub records_replayed: u64,
    /// Individual weighted updates replayed.
    pub updates_replayed: u64,
    /// Torn/corrupt tail bytes dropped from the last segment. For a
    /// shard recovered from a bank's shared log this is the log-wide
    /// value, repeated on every such shard's report.
    pub dropped_tail_bytes: u64,
}

impl RecoveryReport {
    fn fresh() -> Self {
        RecoveryReport {
            source: RecoverySource::Fresh,
            checkpoint_epoch: 0,
            records_replayed: 0,
            updates_replayed: 0,
            dropped_tail_bytes: 0,
        }
    }
}

/// Owns an engine during replay and feeds it coalesced batches.
struct Replayer<K: SketchKey> {
    engine: SketchEngine<K>,
    pending: Vec<(K, u64)>,
    records: u64,
    updates: u64,
}

impl<K: SketchKey> Replayer<K> {
    fn new(engine: SketchEngine<K>) -> Self {
        Replayer {
            engine,
            pending: Vec::with_capacity(REPLAY_CHUNK),
            records: 0,
            updates: 0,
        }
    }

    fn push(&mut self, batch: &[(K, u64)]) {
        self.records += 1;
        self.updates += batch.len() as u64;
        self.pending.extend_from_slice(batch);
        if self.pending.len() >= REPLAY_CHUNK {
            self.engine.update_batch(&self.pending);
            self.pending.clear();
        }
    }

    fn finish(mut self) -> (SketchEngine<K>, u64, u64) {
        if !self.pending.is_empty() {
            self.engine.update_batch(&self.pending);
        }
        (self.engine, self.records, self.updates)
    }
}

/// Recovered state plus the log position appending should resume at.
struct LoadedState<K: SketchKey> {
    engine: SketchEngine<K>,
    config: EngineConfig,
    epoch: u64,
    wal_end: WalPosition,
    report: RecoveryReport,
}

/// Builds the engine a manifest's checkpoint describes (or a fresh one
/// from the recorded config) without touching the WAL.
fn load_checkpoint_state<K: SketchKey + ItemCodec>(
    dir: &Path,
    manifest: &Manifest,
) -> Result<(SketchEngine<K>, u64), PersistError> {
    match &manifest.checkpoint {
        Some(name) => {
            let (engine, epoch) = super::checkpoint::read_checkpoint::<K>(&dir.join(name))?;
            if epoch != manifest.epoch {
                return Err(PersistError::corrupt(
                    dir,
                    format!(
                        "manifest epoch {} disagrees with checkpoint epoch {epoch}",
                        manifest.epoch
                    ),
                ));
            }
            Ok((engine, epoch))
        }
        None => Ok((manifest.config.build_engine::<K>()?, 0)),
    }
}

/// Core single-store recovery: rebuilds the engine from a store
/// directory whose log lives in that same directory, mutating nothing.
fn load_state<K: SketchKey + ItemCodec>(
    dir: &Path,
    manifest: Option<Manifest>,
) -> Result<LoadedState<K>, PersistError> {
    let manifest = match manifest {
        Some(m) => m,
        None => {
            // Reaching here without a manifest is a bug (`open_sketch`
            // synthesizes one first), so fail cleanly.
            return Err(PersistError::corrupt(dir, "store has no manifest"));
        }
    };
    if manifest.shared_log {
        return Err(PersistError::corrupt(
            dir,
            "manifest belongs to a shared-log bank shard; recover the bank directory",
        ));
    }
    let (engine, ckpt_epoch) = load_checkpoint_state::<K>(dir, &manifest)?;
    let mut replayer = Replayer::new(engine);
    let tail = wal::scan_from::<K>(dir, manifest.wal_start, |record| {
        replayer.push(&record.batch);
        Ok(())
    })?;
    let (engine, records, updates) = replayer.finish();
    Ok(LoadedState {
        engine,
        config: manifest.config,
        epoch: manifest.epoch,
        wal_end: tail.end,
        report: RecoveryReport {
            source: RecoverySource::classify(manifest.checkpoint.is_some(), records > 0),
            checkpoint_epoch: ckpt_epoch,
            records_replayed: records,
            updates_replayed: updates,
            dropped_tail_bytes: tail.dropped_tail_bytes,
        },
    })
}

/// Refuses lost-manifest recovery when a checkpoint file proves the WAL
/// is not the complete history (see the callers for the rationale).
fn refuse_lossy_lost_manifest(dir: &Path) -> Result<(), PersistError> {
    if let Some(ckpt) = std::fs::read_dir(dir)
        .map_err(|e| PersistError::io(dir, e))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .find(|name| name.starts_with("ckpt-") && name.ends_with(".ck"))
    {
        return Err(PersistError::corrupt(
            dir,
            format!(
                "manifest is missing but checkpoint {ckpt} exists; \
                 recovering from the WAL alone would lose the \
                 checkpointed prefix (restore or rebuild MANIFEST)"
            ),
        ));
    }
    Ok(())
}

/// Opens (recovering) or creates the durable sketch in `dir`. Backs
/// [`DurableSketch::open`]; see there for the error contract.
pub(crate) fn open_sketch<K: SketchKey + ItemCodec>(
    dir: &Path,
    config: EngineConfig,
    opts: DurabilityOptions,
) -> Result<(DurableSketch<K>, RecoveryReport), PersistError> {
    std::fs::create_dir_all(dir).map_err(|e| PersistError::io(dir, e))?;
    let manifest = read_manifest(dir)?;
    let has_segments = !wal::list_segments(dir)?.is_empty();
    if manifest.is_none() && !has_segments {
        // Brand-new store.
        let engine = config.build_engine::<K>()?;
        let writer = WalWriter::create(dir, opts.fsync, opts.segment_bytes)?;
        write_manifest(
            dir,
            &Manifest {
                epoch: 0,
                config,
                checkpoint: None,
                wal_start: writer.position(),
                shared_log: false,
                stream: 0,
            },
        )?;
        return Ok((
            DurableSketch {
                engine,
                wal: Arc::new(GroupCommitWal::start(writer, opts.fsync)),
                round: Arc::new(CheckpointRound::new(1)),
                dir: dir.to_path_buf(),
                epoch: 0,
                config,
                stream: 0,
                shared_log: false,
                frame_buf: Vec::new(),
            },
            RecoveryReport::fresh(),
        ));
    }
    // A store missing only its manifest (deleted out-of-band) still
    // recovers: synthesize a manifest replaying every segment from the
    // oldest with the caller's config.
    let manifest = match manifest {
        Some(m) => {
            if m.config != config {
                return Err(PersistError::ConfigMismatch(format!(
                    "store in {} was created with {:?}, requested {:?}",
                    dir.display(),
                    m.config,
                    config
                )));
            }
            m
        }
        None => {
            // Tolerating a lost manifest is only safe when the WAL is
            // the complete history. A checkpoint file on disk means the
            // WAL prefix it covers was truncated — replaying the tail
            // alone would silently reconstruct (and then persist) a
            // fraction of the stream, so refuse loudly instead.
            refuse_lossy_lost_manifest(dir)?;
            let oldest = wal::list_segments(dir)?
                .first()
                .map(|&(seq, _)| seq)
                .ok_or_else(|| {
                    PersistError::corrupt(dir, "WAL segments vanished during recovery")
                })?;
            Manifest {
                epoch: 0,
                config,
                checkpoint: None,
                wal_start: WalPosition {
                    segment: oldest,
                    offset: SEGMENT_HEADER_LEN,
                },
                shared_log: false,
                stream: 0,
            }
        }
    };
    let state = load_state::<K>(dir, Some(manifest.clone()))?;
    let writer = WalWriter::open_at(dir, state.wal_end, opts.fsync, opts.segment_bytes)?;
    if read_manifest(dir)?.is_none() {
        write_manifest(dir, &manifest)?;
    }
    Ok((
        DurableSketch {
            engine: state.engine,
            wal: Arc::new(GroupCommitWal::start(writer, opts.fsync)),
            round: Arc::new(CheckpointRound::new(1)),
            dir: dir.to_path_buf(),
            epoch: state.epoch,
            config: state.config,
            stream: 0,
            shared_log: false,
            frame_buf: Vec::new(),
        },
        state.report,
    ))
}

/// Read-only recovery: rebuilds the engine state from `dir` using the
/// configuration recorded in its manifest, touching nothing on disk.
/// This is what offline tooling (`streamfreq recover`, `streamfreq
/// info`) uses — no caller-supplied configuration needed.
///
/// # Errors
/// [`PersistError::Corrupt`] for a missing/invalid manifest or damaged
/// state; I/O errors otherwise.
pub fn recover_engine_readonly<K: SketchKey + ItemCodec>(
    dir: &Path,
) -> Result<(SketchEngine<K>, u64, RecoveryReport), PersistError> {
    let manifest = read_manifest(dir)?;
    if manifest.is_none() {
        return Err(PersistError::corrupt(dir, "no MANIFEST in store directory"));
    }
    let state = load_state::<K>(dir, manifest)?;
    Ok((state.engine, state.epoch, state.report))
}

/// How shard `s` of a bank will be recovered.
enum ShardPlan<K: SketchKey> {
    /// No prior state anywhere: a brand-new shard.
    Fresh { engine: SketchEngine<K> },
    /// Recovered from the pre-shared-log shard-local layout; its files
    /// migrate onto the shared log before ingest resumes.
    Migrate { state: LoadedState<K> },
    /// Already on the shared log; finished by the shared replay.
    Shared {
        manifest: Manifest,
        /// The manifest was synthesized (lost out-of-band) and must be
        /// rewritten.
        rewrite: bool,
    },
}

/// Replays the bank-level shared log once, routing records to the given
/// shards by stream tag. Returns each shard's finished
/// `(engine, checkpoint_epoch, report)` keyed by shard index, plus the
/// log's end position.
#[allow(clippy::type_complexity)]
fn replay_shared<K: SketchKey + ItemCodec>(
    dir: &Path,
    shards: Vec<(usize, Manifest)>,
    num_shards: usize,
) -> Result<
    (
        Vec<(usize, SketchEngine<K>, u64, RecoveryReport)>,
        WalPosition,
    ),
    PersistError,
> {
    let start = shards
        .iter()
        .map(|(_, m)| m.wal_start)
        .min()
        .ok_or_else(|| PersistError::corrupt(dir, "replay_shared invoked with no shards"))?;
    let mut slots: Vec<Option<(Manifest, u64, Replayer<K>)>> =
        (0..num_shards).map(|_| None).collect();
    for (s, manifest) in shards {
        let sdir = shard_dir(dir, s);
        let (engine, ckpt_epoch) = load_checkpoint_state::<K>(&sdir, &manifest)?;
        slots[s] = Some((manifest, ckpt_epoch, Replayer::new(engine)));
    }
    let tail = wal::scan_from::<K>(dir, start, |record| {
        let slot = usize::try_from(record.stream)
            .ok()
            .and_then(|s| slots.get_mut(s))
            .ok_or_else(|| {
                PersistError::corrupt(
                    dir,
                    format!(
                        "shared WAL record tagged stream {} but the bank has {num_shards} shards",
                        record.stream
                    ),
                )
            })?;
        let Some((manifest, _, replayer)) = slot else {
            return Err(PersistError::corrupt(
                dir,
                format!(
                    "shared WAL holds records for stream {} but that shard \
                     does not use the shared log",
                    record.stream
                ),
            ));
        };
        // Records before this shard's own replay start are covered by
        // its checkpoint (the shared scan starts at the bank minimum).
        if record.at >= manifest.wal_start {
            replayer.push(&record.batch);
        }
        Ok(())
    })?;
    let mut done = Vec::new();
    for (s, slot) in slots.into_iter().enumerate() {
        let Some((manifest, ckpt_epoch, replayer)) = slot else {
            continue;
        };
        let (engine, records, updates) = replayer.finish();
        done.push((
            s,
            engine,
            manifest.epoch,
            RecoveryReport {
                source: RecoverySource::classify(manifest.checkpoint.is_some(), records > 0),
                checkpoint_epoch: ckpt_epoch,
                records_replayed: records,
                updates_replayed: updates,
                dropped_tail_bytes: tail.dropped_tail_bytes,
            },
        ));
    }
    Ok((done, tail.end))
}

/// Deletes shard-local WAL segments (legacy layout or migration debris).
fn remove_local_segments(sdir: &Path) -> Result<(), PersistError> {
    let segments = wal::list_segments(sdir)?;
    if segments.is_empty() {
        return Ok(());
    }
    for (_, path) in &segments {
        std::fs::remove_file(path).map_err(|e| PersistError::io(path, e))?;
    }
    wal::fsync_dir(sdir)
}

/// Opens every shard of an existing durable bank read-write using the
/// configurations recorded in the shard manifests — what offline
/// tooling (`streamfreq checkpoint` on a bank directory) uses, since it
/// has no serve-time flags to supply. Legacy per-shard layouts migrate
/// onto the shared log exactly as `open_bank` does.
///
/// # Errors
/// Fails if the bank metadata or any shard manifest is missing, plus
/// everything [`DurableSketch::open`] can report per shard.
#[allow(clippy::type_complexity)]
pub fn open_bank_existing<K: SketchKey + ItemCodec>(
    dir: &Path,
    opts: DurabilityOptions,
) -> Result<Vec<(DurableSketch<K>, RecoveryReport)>, PersistError> {
    let meta = read_store_meta(dir)?
        .ok_or_else(|| PersistError::corrupt(dir, "no STORE metadata in bank directory"))?;
    let mut configs = Vec::with_capacity(meta.num_shards);
    for s in 0..meta.num_shards {
        let sdir = shard_dir(dir, s);
        let manifest = read_manifest(&sdir)?
            .ok_or_else(|| PersistError::corrupt(&sdir, "no MANIFEST in store directory"))?;
        configs.push(manifest.config);
    }
    open_bank(dir, &configs, opts)
}

/// Opens (recovering, migrating if needed) or creates the sharded bank
/// in `dir`: one shared group-commit log, one [`DurableSketch`] per
/// shard, all sharing the log and one [`CheckpointRound`].
///
/// # Errors
/// As [`DurableSketch::open`], per shard.
#[allow(clippy::type_complexity)]
pub(crate) fn open_bank<K: SketchKey + ItemCodec>(
    dir: &Path,
    configs: &[EngineConfig],
    opts: DurabilityOptions,
) -> Result<Vec<(DurableSketch<K>, RecoveryReport)>, PersistError> {
    if configs.is_empty() {
        return Err(PersistError::ConfigMismatch(
            "a bank needs at least one shard".into(),
        ));
    }
    std::fs::create_dir_all(dir).map_err(|e| PersistError::io(dir, e))?;
    let shared_segments = wal::list_segments(dir)?;
    let oldest_shared = shared_segments.first().map(|&(seq, _)| seq);

    let mut plans: Vec<ShardPlan<K>> = Vec::with_capacity(configs.len());
    for (s, &config) in configs.iter().enumerate() {
        let sdir = shard_dir(dir, s);
        std::fs::create_dir_all(&sdir).map_err(|e| PersistError::io(&sdir, e))?;
        let manifest = read_manifest(&sdir)?;
        let local_segments = wal::list_segments(&sdir)?;
        let plan = match manifest {
            Some(m) if m.shared_log => {
                if m.config != config {
                    return Err(PersistError::ConfigMismatch(format!(
                        "shard {s} in {} was created with {:?}, requested {:?}",
                        dir.display(),
                        m.config,
                        config
                    )));
                }
                if m.stream as usize != s {
                    return Err(PersistError::corrupt(
                        &sdir,
                        format!("manifest stream tag {} in shard directory {s}", m.stream),
                    ));
                }
                ShardPlan::Shared {
                    manifest: m,
                    rewrite: false,
                }
            }
            Some(m) => {
                if m.config != config {
                    return Err(PersistError::ConfigMismatch(format!(
                        "shard {s} in {} was created with {:?}, requested {:?}",
                        dir.display(),
                        m.config,
                        config
                    )));
                }
                ShardPlan::Migrate {
                    state: load_state::<K>(&sdir, Some(m))?,
                }
            }
            None if !local_segments.is_empty() => {
                // Legacy shard that lost its manifest: same tolerance
                // (and same lossy-recovery refusal) as a single store.
                refuse_lossy_lost_manifest(&sdir)?;
                let oldest = local_segments[0].0;
                let synthesized = Manifest {
                    epoch: 0,
                    config,
                    checkpoint: None,
                    wal_start: WalPosition {
                        segment: oldest,
                        offset: SEGMENT_HEADER_LEN,
                    },
                    shared_log: false,
                    stream: 0,
                };
                ShardPlan::Migrate {
                    state: load_state::<K>(&sdir, Some(synthesized))?,
                }
            }
            None => {
                refuse_lossy_lost_manifest(&sdir)?;
                match oldest_shared {
                    // Shared-log shard that lost its manifest: replay
                    // its stream from the oldest shared segment.
                    Some(oldest) => ShardPlan::Shared {
                        manifest: Manifest {
                            epoch: 0,
                            config,
                            checkpoint: None,
                            wal_start: WalPosition {
                                segment: oldest,
                                offset: SEGMENT_HEADER_LEN,
                            },
                            shared_log: true,
                            stream: s as u32,
                        },
                        rewrite: true,
                    },
                    None => ShardPlan::Fresh {
                        engine: config.build_engine::<K>()?,
                    },
                }
            }
        };
        plans.push(plan);
    }

    // One scan of the shared log finishes every shared shard.
    let shared_inputs: Vec<(usize, Manifest)> = plans
        .iter()
        .enumerate()
        .filter_map(|(s, plan)| match plan {
            ShardPlan::Shared { manifest, .. } => Some((s, manifest.clone())),
            _ => None,
        })
        .collect();
    let mut shared_done: Vec<Option<(SketchEngine<K>, u64, RecoveryReport)>> =
        (0..configs.len()).map(|_| None).collect();
    let wal_end = if shared_inputs.is_empty() {
        match oldest_shared {
            Some(oldest) => {
                // Unreferenced shared segments are debris from a crashed
                // migration — refuse if they hold records (that would
                // mean a manifest was lost some other way).
                let start = WalPosition {
                    segment: oldest,
                    offset: SEGMENT_HEADER_LEN,
                };
                let tail = wal::scan_from::<K>(dir, start, |_| {
                    Err(PersistError::corrupt(
                        dir,
                        "shared WAL holds records but no shard manifest references it",
                    ))
                })?;
                Some(tail.end)
            }
            None => None,
        }
    } else {
        let (done, end) = replay_shared::<K>(dir, shared_inputs, configs.len())?;
        for (s, engine, epoch, report) in done {
            shared_done[s] = Some((engine, epoch, report));
        }
        Some(end)
    };

    let writer = match wal_end {
        Some(end) => WalWriter::open_at(dir, end, opts.fsync, opts.segment_bytes)?,
        None => WalWriter::create(dir, opts.fsync, opts.segment_bytes)?,
    };
    // Nothing can append until this function returns, so the writer's
    // position is where migrated and fresh manifests start replay.
    let log_position = writer.position();
    let wal = Arc::new(GroupCommitWal::start(writer, opts.fsync));
    let round = Arc::new(CheckpointRound::new(configs.len()));

    let mut out = Vec::with_capacity(configs.len());
    for (s, plan) in plans.into_iter().enumerate() {
        let sdir = shard_dir(dir, s);
        let config = configs[s];
        let sketch = |engine, epoch| DurableSketch {
            engine,
            wal: Arc::clone(&wal),
            round: Arc::clone(&round),
            dir: sdir.clone(),
            epoch,
            config,
            stream: s as u32,
            shared_log: true,
            frame_buf: Vec::new(),
        };
        match plan {
            ShardPlan::Fresh { engine } => {
                write_manifest(
                    &sdir,
                    &Manifest {
                        epoch: 0,
                        config,
                        checkpoint: None,
                        wal_start: log_position,
                        shared_log: true,
                        stream: s as u32,
                    },
                )?;
                out.push((sketch(engine, 0), RecoveryReport::fresh()));
            }
            ShardPlan::Migrate { state } => {
                // Migration = one checkpoint of the recovered state onto
                // the shared log, then drop the legacy files. A crash
                // before the new manifest lands leaves the legacy layout
                // fully intact (the new checkpoint file is inert).
                let new_epoch = state.epoch + 1;
                let name = checkpoint_file_name(new_epoch);
                write_checkpoint(&sdir.join(&name), &state.engine, new_epoch)?;
                write_manifest(
                    &sdir,
                    &Manifest {
                        epoch: new_epoch,
                        config,
                        checkpoint: Some(name.clone()),
                        wal_start: log_position,
                        shared_log: true,
                        stream: s as u32,
                    },
                )?;
                remove_local_segments(&sdir)?;
                for entry in std::fs::read_dir(&sdir).map_err(|e| PersistError::io(&sdir, e))? {
                    let entry = entry.map_err(|e| PersistError::io(&sdir, e))?;
                    let file_name = entry.file_name();
                    let Some(file_name) = file_name.to_str() else {
                        continue;
                    };
                    if file_name.starts_with("ckpt-")
                        && file_name.ends_with(".ck")
                        && file_name != name.as_str()
                    {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
                out.push((sketch(state.engine, new_epoch), state.report));
            }
            ShardPlan::Shared { rewrite, .. } => {
                let (engine, epoch, report) = shared_done
                    .get_mut(s)
                    .and_then(Option::take)
                    .ok_or_else(|| {
                        PersistError::corrupt(dir, format!("shared replay lost shard {s}"))
                    })?;
                if rewrite {
                    write_manifest(
                        &sdir,
                        &Manifest {
                            epoch,
                            config,
                            checkpoint: None,
                            wal_start: WalPosition {
                                segment: oldest_shared.ok_or_else(|| {
                                    PersistError::corrupt(
                                        dir,
                                        "shared-log shard without a shared WAL segment",
                                    )
                                })?,
                                offset: SEGMENT_HEADER_LEN,
                            },
                            shared_log: true,
                            stream: s as u32,
                        },
                    )?;
                }
                // Shard-local segments next to a shared-log manifest are
                // debris from a crash between manifest write and legacy
                // cleanup.
                remove_local_segments(&sdir)?;
                out.push((sketch(engine, epoch), report));
            }
        }
    }
    Ok(out)
}

/// Read-only recovery of a sharded bank: rebuilds every shard's engine
/// from `dir` (its `STORE` metadata names the shard count), touching
/// nothing on disk. Legacy shard-local layouts and the shared log may
/// coexist (a crash mid-migration); both recover.
///
/// Returns `(engine, checkpoint_epoch, report)` per shard, in order.
///
/// # Errors
/// [`PersistError::Corrupt`] for missing metadata/manifests or damaged
/// state; I/O errors otherwise.
#[allow(clippy::type_complexity)]
pub fn recover_bank_readonly<K: SketchKey + ItemCodec>(
    dir: &Path,
) -> Result<Vec<(SketchEngine<K>, u64, RecoveryReport)>, PersistError> {
    let meta = read_store_meta(dir)?
        .ok_or_else(|| PersistError::corrupt(dir, "no STORE metadata in bank directory"))?;
    let mut results: Vec<Option<(SketchEngine<K>, u64, RecoveryReport)>> =
        (0..meta.num_shards).map(|_| None).collect();
    let mut shared: Vec<(usize, Manifest)> = Vec::new();
    for (s, slot) in results.iter_mut().enumerate() {
        let sdir = shard_dir(dir, s);
        let manifest = read_manifest(&sdir)?
            .ok_or_else(|| PersistError::corrupt(&sdir, "no MANIFEST in store directory"))?;
        if manifest.shared_log {
            if manifest.stream as usize != s {
                return Err(PersistError::corrupt(
                    &sdir,
                    format!(
                        "manifest stream tag {} in shard directory {s}",
                        manifest.stream
                    ),
                ));
            }
            shared.push((s, manifest));
        } else {
            let state = load_state::<K>(&sdir, Some(manifest))?;
            *slot = Some((state.engine, state.epoch, state.report));
        }
    }
    if !shared.is_empty() {
        let (done, _) = replay_shared::<K>(dir, shared, meta.num_shards)?;
        for (s, engine, epoch, report) in done {
            results[s] = Some((engine, epoch, report));
        }
    }
    results
        .into_iter()
        .enumerate()
        .map(|(s, slot)| {
            slot.ok_or_else(|| PersistError::corrupt(dir, format!("shard {s} never recovered")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("streamfreq-recover-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts() -> DurabilityOptions {
        DurabilityOptions {
            fsync: super::super::FsyncPolicy::Off,
            segment_bytes: 1 << 16,
        }
    }

    /// Reference: an uninterrupted engine over the same updates.
    fn reference(config: EngineConfig, stream: &[(u64, u64)], batch: usize) -> SketchEngine<u64> {
        let mut engine = config.build_engine::<u64>().unwrap();
        for chunk in stream.chunks(batch) {
            engine.update_batch(chunk);
        }
        engine
    }

    fn stream(len: u64) -> Vec<(u64, u64)> {
        (0..len)
            .map(|i| ((i * 2_654_435_761) % 500, i % 9 + 1))
            .collect()
    }

    #[test]
    fn recovery_equals_uninterrupted_run_across_checkpoints() {
        let dir = tmp_dir("equals-uninterrupted");
        let config = EngineConfig::new(64).seed(5);
        let stream = stream(30_000);
        let (mut store, _) = DurableSketch::<u64>::open(&dir, config, opts()).unwrap();
        for (i, chunk) in stream.chunks(512).enumerate() {
            store.update_batch(chunk).unwrap();
            if i % 17 == 16 {
                store.checkpoint().unwrap();
            }
        }
        store.sync().unwrap();
        let live_fp = store.engine().state_fingerprint();
        drop(store); // "crash": no final checkpoint, no drain
        let (engine, _, report) = recover_engine_readonly::<u64>(&dir).unwrap();
        assert_eq!(engine.state_fingerprint(), live_fp);
        assert_eq!(
            engine.state_fingerprint(),
            reference(config, &stream, 512).state_fingerprint()
        );
        assert!(report.records_replayed > 0);
        assert!(report.checkpoint_epoch > 0);
        assert_eq!(report.source, RecoverySource::CheckpointAndWal);
    }

    #[test]
    fn empty_wal_checkpoint_only_and_wal_only() {
        // Checkpoint-only: tail is empty after a checkpoint.
        let dir = tmp_dir("ckpt-only");
        let config = EngineConfig::new(32);
        let (mut store, _) = DurableSketch::<u64>::open(&dir, config, opts()).unwrap();
        store.update_batch(&[(1, 10), (2, 20)]).unwrap();
        store.checkpoint().unwrap();
        drop(store);
        let (engine, epoch, report) = recover_engine_readonly::<u64>(&dir).unwrap();
        assert_eq!(report.source, RecoverySource::CheckpointOnly);
        assert_eq!(epoch, 1);
        assert_eq!(engine.stream_weight(), 30);

        // WAL-only: crash before the first checkpoint.
        let dir = tmp_dir("wal-only");
        let (mut store, _) = DurableSketch::<u64>::open(&dir, config, opts()).unwrap();
        store.update_batch(&[(1, 10), (2, 20)]).unwrap();
        store.sync().unwrap();
        drop(store);
        let (engine, epoch, report) = recover_engine_readonly::<u64>(&dir).unwrap();
        assert_eq!(report.source, RecoverySource::WalOnly);
        assert_eq!(epoch, 0);
        assert_eq!(engine.stream_weight(), 30);

        // Empty store: fresh manifest, no records.
        let dir = tmp_dir("empty");
        let (store, _) = DurableSketch::<u64>::open(&dir, config, opts()).unwrap();
        drop(store);
        let (engine, _, report) = recover_engine_readonly::<u64>(&dir).unwrap();
        assert_eq!(report.source, RecoverySource::Fresh);
        assert!(engine.is_empty());
    }

    #[test]
    fn missing_segment_and_missing_checkpoint_are_clean_errors() {
        let dir = tmp_dir("missing-pieces");
        let config = EngineConfig::new(32);
        let (mut store, _) = DurableSketch::<u64>::open(&dir, config, opts()).unwrap();
        store.update_batch(&[(1, 1)]).unwrap();
        store.checkpoint().unwrap();
        store.update_batch(&[(2, 2)]).unwrap();
        store.sync().unwrap();
        drop(store);

        // Delete the WAL segment the manifest points at.
        let manifest = read_manifest(&dir).unwrap().unwrap();
        let seg = wal::segment_path(&dir, manifest.wal_start.segment);
        let seg_bytes = std::fs::read(&seg).unwrap();
        std::fs::remove_file(&seg).unwrap();
        let err = recover_engine_readonly::<u64>(&dir).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }), "{err:?}");
        assert!(err.to_string().contains("missing WAL segment"), "{err}");
        std::fs::write(&seg, seg_bytes).unwrap();

        // Delete the checkpoint file.
        let ckpt = dir.join(manifest.checkpoint.unwrap());
        std::fs::remove_file(&ckpt).unwrap();
        let err = recover_engine_readonly::<u64>(&dir).unwrap_err();
        assert!(err.to_string().contains("missing checkpoint"), "{err}");
    }

    #[test]
    fn lost_manifest_recovers_via_open() {
        let dir = tmp_dir("lost-manifest");
        let config = EngineConfig::new(32).seed(2);
        let (mut store, _) = DurableSketch::<u64>::open(&dir, config, opts()).unwrap();
        store.update_batch(&[(1, 10), (2, 20), (3, 30)]).unwrap();
        store.sync().unwrap();
        drop(store);
        std::fs::remove_file(dir.join(super::super::store::MANIFEST_FILE)).unwrap();
        let (store, report) = DurableSketch::<u64>::open(&dir, config, opts()).unwrap();
        assert_eq!(report.source, RecoverySource::WalOnly);
        assert_eq!(store.engine().stream_weight(), 60);
        // readonly recovery requires the manifest, which open re-wrote.
        let (engine, _, _) = recover_engine_readonly::<u64>(&dir).unwrap();
        assert_eq!(engine.stream_weight(), 60);
    }

    #[test]
    fn lost_manifest_with_checkpoint_refuses_lossy_recovery() {
        // The WAL tail alone is NOT the full history once a checkpoint
        // truncated the log; a lost manifest must not silently rebuild
        // (and persist) the truncated fraction.
        let dir = tmp_dir("lost-manifest-ckpt");
        let config = EngineConfig::new(32).seed(2);
        let (mut store, _) = DurableSketch::<u64>::open(&dir, config, opts()).unwrap();
        store.update_batch(&[(1, 10), (2, 20)]).unwrap();
        store.checkpoint().unwrap();
        store.update_batch(&[(3, 30)]).unwrap();
        store.sync().unwrap();
        drop(store);
        std::fs::remove_file(dir.join(super::super::store::MANIFEST_FILE)).unwrap();
        let err = match DurableSketch::<u64>::open(&dir, config, opts()) {
            Err(e) => e,
            Ok(_) => panic!("lossy lost-manifest recovery accepted"),
        };
        assert!(err.to_string().contains("checkpointed prefix"), "{err}");
    }

    #[test]
    fn resumed_store_continues_identically() {
        // Crash, recover, continue: the continued run must be
        // fingerprint-identical to one that never crashed.
        let dir = tmp_dir("resume-continue");
        let config = EngineConfig::new(48).seed(8);
        let full = stream(24_000);
        let (first_half, second_half) = full.split_at(12_000);
        let (mut store, _) = DurableSketch::<u64>::open(&dir, config, opts()).unwrap();
        for chunk in first_half.chunks(256) {
            store.update_batch(chunk).unwrap();
        }
        store.checkpoint().unwrap();
        drop(store);
        let (mut store, report) = DurableSketch::<u64>::open(&dir, config, opts()).unwrap();
        assert_eq!(report.source, RecoverySource::CheckpointOnly);
        for chunk in second_half.chunks(256) {
            store.update_batch(chunk).unwrap();
        }
        assert_eq!(
            store.engine().state_fingerprint(),
            reference(config, &full, 256).state_fingerprint()
        );
    }

    // ---- bank (shared-log) recovery ----

    fn bank_configs(n: usize) -> Vec<EngineConfig> {
        (0..n)
            .map(|s| EngineConfig::new(48).seed(77 + s as u64))
            .collect()
    }

    fn write_bank_meta(dir: &Path, n: usize) {
        std::fs::create_dir_all(dir).unwrap();
        super::super::store::write_store_meta(
            dir,
            &super::super::store::StoreMeta {
                num_shards: n,
                counters_per_shard: 48,
                merged_capacity: 96,
                policy: crate::purge::PurgePolicy::default(),
                seed: 77,
            },
        )
        .unwrap();
    }

    #[test]
    fn fresh_bank_shares_one_log_and_recovers_per_stream() {
        let dir = tmp_dir("bank-fresh");
        let configs = bank_configs(3);
        write_bank_meta(&dir, 3);
        let mut shards: Vec<DurableSketch<u64>> = open_bank(&dir, &configs, opts())
            .unwrap()
            .into_iter()
            .map(|(s, r)| {
                assert_eq!(r.source, RecoverySource::Fresh);
                s
            })
            .collect();
        let data = stream(9_000);
        for (i, chunk) in data.chunks(64).enumerate() {
            shards[i % 3].update_batch(chunk).unwrap();
        }
        shards[0].sync().unwrap();
        let fps: Vec<Vec<u8>> = shards
            .iter()
            .map(|s| s.engine().state_fingerprint())
            .collect();
        // Exactly one shared log at the bank level, none per shard.
        assert!(!wal::list_segments(&dir).unwrap().is_empty());
        for s in 0..3 {
            assert!(wal::list_segments(&shard_dir(&dir, s)).unwrap().is_empty());
        }
        drop(shards); // crash: no checkpoint
        let recovered = recover_bank_readonly::<u64>(&dir).unwrap();
        for (s, (engine, epoch, report)) in recovered.iter().enumerate() {
            assert_eq!(engine.state_fingerprint(), fps[s], "shard {s}");
            assert_eq!(*epoch, 0);
            assert_eq!(report.source, RecoverySource::WalOnly);
        }
    }

    #[test]
    fn bank_checkpoint_round_then_crash_recovers_exactly() {
        let dir = tmp_dir("bank-round");
        let configs = bank_configs(2);
        write_bank_meta(&dir, 2);
        let mut shards: Vec<DurableSketch<u64>> = open_bank(&dir, &configs, opts())
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        let data = stream(6_000);
        for (i, chunk) in data.chunks(32).enumerate() {
            shards[i % 2].update_batch(chunk).unwrap();
        }
        super::super::store::checkpoint_bank(&mut shards).unwrap();
        for (i, chunk) in data.chunks(32).enumerate() {
            shards[(i + 1) % 2].update_batch(chunk).unwrap();
        }
        shards[0].sync().unwrap();
        let fps: Vec<Vec<u8>> = shards
            .iter()
            .map(|s| s.engine().state_fingerprint())
            .collect();
        drop(shards);
        let recovered = recover_bank_readonly::<u64>(&dir).unwrap();
        for (s, (engine, epoch, report)) in recovered.iter().enumerate() {
            assert_eq!(engine.state_fingerprint(), fps[s], "shard {s}");
            assert_eq!(*epoch, 1);
            assert_eq!(report.source, RecoverySource::CheckpointAndWal);
        }
        // Reopening for writing agrees too, and keeps working.
        let reopened = open_bank::<u64>(&dir, &configs, opts()).unwrap();
        for (s, (shard, _)) in reopened.iter().enumerate() {
            assert_eq!(shard.engine().state_fingerprint(), fps[s]);
        }
    }

    #[test]
    fn legacy_per_shard_layout_migrates_onto_the_shared_log() {
        let dir = tmp_dir("bank-migrate");
        let configs = bank_configs(2);
        write_bank_meta(&dir, 2);
        // Build the pre-shared-log layout: each shard is its own
        // single-engine store with a local WAL (shard 1 also has a
        // checkpoint, exercising checkpoint ⊕ replay migration).
        let data = stream(4_000);
        let mut fps = Vec::new();
        for (s, config) in configs.iter().enumerate() {
            let sdir = shard_dir(&dir, s);
            let (mut store, _) = DurableSketch::<u64>::open(&sdir, *config, opts()).unwrap();
            for chunk in data.chunks(128) {
                store.update_batch(chunk).unwrap();
            }
            if s == 1 {
                store.checkpoint().unwrap();
                store.update_batch(&[(9_999, 5)]).unwrap();
            }
            store.sync().unwrap();
            fps.push(store.engine().state_fingerprint());
            drop(store);
            assert!(!wal::list_segments(&sdir).unwrap().is_empty());
        }
        // Opening as a bank migrates both shards.
        let shards = open_bank::<u64>(&dir, &configs, opts()).unwrap();
        for (s, (shard, _)) in shards.iter().enumerate() {
            assert_eq!(shard.engine().state_fingerprint(), fps[s], "shard {s}");
            // Local segments are gone; the manifest moved to the shared
            // log with a fresh checkpoint of the migrated state.
            let sdir = shard_dir(&dir, s);
            assert!(wal::list_segments(&sdir).unwrap().is_empty());
            let m = read_manifest(&sdir).unwrap().unwrap();
            assert!(m.shared_log);
            assert_eq!(m.stream as usize, s);
            assert!(m.checkpoint.is_some());
        }
        drop(shards);
        // And the migrated bank recovers bit-identically thereafter.
        let recovered = recover_bank_readonly::<u64>(&dir).unwrap();
        for (s, (engine, _, report)) in recovered.iter().enumerate() {
            assert_eq!(engine.state_fingerprint(), fps[s], "shard {s}");
            assert_eq!(report.source, RecoverySource::CheckpointOnly);
        }
    }

    #[test]
    fn mixed_migration_state_recovers_per_shard() {
        // Crash mid-migration: shard 0 already on the shared log, shard
        // 1 still legacy. Both must recover, read-only and for writing.
        let dir = tmp_dir("bank-mixed");
        let configs = bank_configs(2);
        write_bank_meta(&dir, 2);
        let data = stream(3_000);
        // Shard 1: legacy layout.
        let legacy_dir = shard_dir(&dir, 1);
        let (mut legacy, _) = DurableSketch::<u64>::open(&legacy_dir, configs[1], opts()).unwrap();
        for chunk in data.chunks(64) {
            legacy.update_batch(chunk).unwrap();
        }
        legacy.sync().unwrap();
        let legacy_fp = legacy.engine().state_fingerprint();
        drop(legacy);
        // Shard 0: migrated (build a one-shard bank view of it by hand:
        // open the full bank once with shard 0 fresh, append, crash).
        let shards = open_bank::<u64>(&dir, &configs, opts()).unwrap();
        // ^ this migrates shard 1 too — undo that premise; instead keep
        // shard 1 legacy by rebuilding its layout after the bank open.
        drop(shards);
        let _ = std::fs::remove_dir_all(&legacy_dir);
        let (mut legacy, _) = DurableSketch::<u64>::open(&legacy_dir, configs[1], opts()).unwrap();
        for chunk in data.chunks(64) {
            legacy.update_batch(chunk).unwrap();
        }
        legacy.sync().unwrap();
        assert_eq!(legacy.engine().state_fingerprint(), legacy_fp);
        drop(legacy);
        // Now: shard 0 has a shared-log manifest, shard 1 a legacy one.
        let recovered = recover_bank_readonly::<u64>(&dir).unwrap();
        assert_eq!(recovered[1].0.state_fingerprint(), legacy_fp);
        let shards = open_bank::<u64>(&dir, &configs, opts()).unwrap();
        assert_eq!(shards[1].0.engine().state_fingerprint(), legacy_fp);
    }
}
