//! Group-commit front end over the segmented WAL.
//!
//! Ingest threads never touch the file: they encode their frame
//! (`encode_frame`), hand the bytes to
//! [`GroupCommitWal::append_frame`], and return. A dedicated log-writer
//! thread drains the staging buffer with one `write_all` (and, per
//! policy, one fsync) per flush window, so frames from every shard of a
//! store coalesce into a handful of syscalls. Double buffering — the
//! staging `Vec` swaps with the writer's scratch `Vec` — means neither
//! side allocates in steady state and producers only ever contend on a
//! short critical section.
//!
//! ## Durability semantics
//!
//! * [`FsyncPolicy::Always`]: `append_frame` blocks until the frame's
//!   flush window has been fsynced — acknowledged still means durable,
//!   but every waiter of a window shares one fsync (that *is* the group
//!   commit).
//! * [`FsyncPolicy::EveryBytes`]/[`FsyncPolicy::Off`]: `append_frame`
//!   returns as soon as the bytes are staged. Log-before-apply becomes
//!   stage-before-apply, which preserves the recovery contract: the
//!   staging queue is FIFO, so the log on disk is always a prefix of
//!   what was acknowledged, and a crash loses exactly a torn tail.
//!
//! Errors on the writer thread are sticky: once a flush fails, every
//! subsequent (and currently blocked) `append_frame` fails, so a durable
//! shard can keep its panic-on-persistence-failure contract.
//!
//! ## Checkpoint rounds
//!
//! A store-wide checkpoint needs one log rotation that cleanly splits
//! "covered by this round's checkpoints" from "to be replayed".
//! [`CheckpointRound`] rendezvouses every shard: the last shard to
//! arrive performs the rotation (behind a full flush barrier) while the
//! rest wait, each shard then writes its own checkpoint + manifest
//! against the returned position, and the last shard to finish truncates
//! the log below it. Because every participating shard is blocked from
//! arrival to departure, no new frames can slip in front of the rotation
//! point uncovered.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use super::wal::{WalPosition, WalWriter};
use super::{FsyncPolicy, PersistError};
use crate::sanitize;

/// Backpressure threshold: producers stall once this many staged bytes
/// are waiting for the writer thread. This bounds memory, not
/// durability — under the lazy fsync policies the acknowledged-but-not-
/// durable window already exists and is closed by `sync_all`, so the
/// mark is sized to ride out multi-second bursts above disk bandwidth
/// (compact frames run ~7 bytes per update) before smoothing ingest
/// down to the writer's drain rate.
const STAGING_HIGH_WATER: usize = 32 << 20;

/// How long a checkpoint participant waits for its peers before
/// concluding one of them died (a worker panic would otherwise turn
/// into a silent hang).
const ROUND_STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// Counters exposed on the serving layer's `STATS` verb.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupWalStats {
    /// Flush windows the writer thread has drained (one `write_all`
    /// syscall each).
    pub flush_count: u64,
    /// Flush windows that coalesced more than one frame.
    pub group_commit_batches: u64,
    /// Frames appended to the log.
    pub frames: u64,
    /// fsyncs issued (policy-driven, rotations, and barriers).
    pub fsync_count: u64,
}

impl GroupWalStats {
    /// Mean frames per fsync — the observable group-commit win.
    pub fn avg_frames_per_fsync(&self) -> f64 {
        if self.fsync_count == 0 {
            0.0
        } else {
            self.frames as f64 / self.fsync_count as f64
        }
    }
}

struct Queue {
    staging: Vec<u8>,
    staging_frames: u64,
    /// Frames handed to `append_frame` (ticket counter).
    enqueued: u64,
    /// Frames the writer thread has written to the file.
    flushed: u64,
    /// Frames covered by an fsync.
    synced: u64,
    stop: bool,
    /// Sticky failure detail; set once, never cleared.
    failed: Option<String>,
}

struct Inner {
    queue: Mutex<Queue>,
    /// Writer-thread wakeup: staged bytes or stop.
    work: Condvar,
    /// Producer wakeup: space freed, frames flushed/synced, or failure.
    done: Condvar,
    sink: Mutex<WalWriter>,
    fsync: FsyncPolicy,
    /// The sink's rotation size, readable without a lock.
    segment_bytes: u64,
    /// Mirror of the sink's `total_bytes`, readable without a lock.
    live_bytes: AtomicU64,
    flush_count: AtomicU64,
    group_commit_batches: AtomicU64,
    frames: AtomicU64,
    fsync_count: AtomicU64,
}

impl Inner {
    fn fail(queue: &mut Queue, error: &PersistError) {
        if queue.failed.is_none() {
            queue.failed = Some(error.to_string());
        }
    }

    fn failed_err(queue: &Queue) -> Option<PersistError> {
        queue.failed.as_ref().map(|msg| {
            PersistError::corrupt(
                std::path::Path::new("<group-commit wal>"),
                format!("log writer failed: {msg}"),
            )
        })
    }
}

/// The shared, asynchronously flushed log of one store. Cheap to share
/// (`Arc`); dropped last, it joins the writer thread.
pub struct GroupCommitWal {
    inner: Arc<Inner>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for GroupCommitWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommitWal")
            .field("live_bytes", &self.inner.live_bytes.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl GroupCommitWal {
    /// Wraps an opened [`WalWriter`] and starts the log-writer thread.
    /// `fsync` must be the policy the writer was opened with.
    pub fn start(writer: WalWriter, fsync: FsyncPolicy) -> Self {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue {
                staging: Vec::new(),
                staging_frames: 0,
                enqueued: 0,
                flushed: 0,
                synced: 0,
                stop: false,
                failed: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            live_bytes: AtomicU64::new(writer.total_bytes()),
            segment_bytes: writer.segment_bytes(),
            sink: Mutex::new(writer),
            fsync,
            flush_count: AtomicU64::new(0),
            group_commit_batches: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            fsync_count: AtomicU64::new(0),
        });
        let thread_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("sf-wal-writer".into())
            .spawn(move || writer_loop(&thread_inner))
            .expect("spawn wal writer thread");
        GroupCommitWal {
            inner,
            writer: Mutex::new(Some(handle)),
        }
    }

    /// Stages one encoded frame (the complete bytes produced by
    /// `encode_frame`). Blocks for backpressure past the
    /// staging high-water mark, and — under [`FsyncPolicy::Always`] —
    /// until the frame is fsynced.
    pub fn append_frame(&self, frame: &[u8]) -> Result<(), PersistError> {
        debug_assert!(!frame.is_empty());
        let inner = &*self.inner;
        let _rank = sanitize::rank_acquire(sanitize::rank::WAL_QUEUE, "wal staging queue");
        let mut queue = inner.queue.lock().expect("wal queue poisoned");
        while queue.failed.is_none() && !queue.stop && queue.staging.len() >= STAGING_HIGH_WATER {
            queue = inner.done.wait(queue).expect("wal queue poisoned");
        }
        if let Some(err) = Inner::failed_err(&queue) {
            return Err(err);
        }
        if queue.stop {
            return Err(PersistError::corrupt(
                std::path::Path::new("<group-commit wal>"),
                "append after close",
            ));
        }
        queue.staging.extend_from_slice(frame);
        queue.staging_frames += 1;
        queue.enqueued += 1;
        let ticket = queue.enqueued;
        inner.work.notify_one();
        if matches!(inner.fsync, FsyncPolicy::Always) {
            while queue.failed.is_none() && queue.synced < ticket {
                queue = inner.done.wait(queue).expect("wal queue poisoned");
            }
            if let Some(err) = Inner::failed_err(&queue) {
                return Err(err);
            }
        }
        Ok(())
    }

    /// Waits until everything staged is on the file, fsyncs it, and
    /// rotates to a fresh segment. Returns the new segment's first
    /// position — the `wal_start` a checkpoint round's manifests record.
    /// New appends are held off for the (short) duration of the rotate.
    pub fn rotate_for_checkpoint(&self) -> Result<WalPosition, PersistError> {
        let inner = &*self.inner;
        let _q_rank = sanitize::rank_acquire(sanitize::rank::WAL_QUEUE, "wal staging queue");
        let mut queue = inner.queue.lock().expect("wal queue poisoned");
        while queue.failed.is_none() && queue.flushed < queue.enqueued {
            queue = inner.done.wait(queue).expect("wal queue poisoned");
        }
        if let Some(err) = Inner::failed_err(&queue) {
            return Err(err);
        }
        // Holding the queue lock here keeps producers out while the
        // rotation point is fixed.
        let _s_rank = sanitize::rank_acquire(sanitize::rank::WAL_SINK, "wal sink");
        let mut sink = inner.sink.lock().expect("wal sink poisoned");
        let pos = match sink.rotate() {
            Ok(pos) => pos,
            Err(e) => {
                Inner::fail(&mut queue, &e);
                inner.done.notify_all();
                return Err(e);
            }
        };
        queue.synced = queue.flushed;
        inner.fsync_count.fetch_add(1, Ordering::Relaxed);
        inner
            .live_bytes
            .store(sink.total_bytes(), Ordering::Relaxed);
        inner.done.notify_all();
        Ok(pos)
    }

    /// Forces everything appended so far onto stable storage.
    pub fn sync_all(&self) -> Result<(), PersistError> {
        let inner = &*self.inner;
        let _q_rank = sanitize::rank_acquire(sanitize::rank::WAL_QUEUE, "wal staging queue");
        let mut queue = inner.queue.lock().expect("wal queue poisoned");
        while queue.failed.is_none() && queue.flushed < queue.enqueued {
            queue = inner.done.wait(queue).expect("wal queue poisoned");
        }
        if let Some(err) = Inner::failed_err(&queue) {
            return Err(err);
        }
        let _s_rank = sanitize::rank_acquire(sanitize::rank::WAL_SINK, "wal sink");
        let mut sink = inner.sink.lock().expect("wal sink poisoned");
        match sink.sync() {
            Ok(()) => {
                queue.synced = queue.flushed;
                inner.fsync_count.fetch_add(1, Ordering::Relaxed);
                inner.done.notify_all();
                Ok(())
            }
            Err(e) => {
                Inner::fail(&mut queue, &e);
                inner.done.notify_all();
                Err(e)
            }
        }
    }

    /// Deletes every segment below `seq` (checkpoint truncation).
    pub fn remove_segments_below(&self, seq: u64) -> Result<u64, PersistError> {
        let _rank = sanitize::rank_acquire(sanitize::rank::WAL_SINK, "wal sink");
        let mut sink = self.inner.sink.lock().expect("wal sink poisoned");
        let freed = sink.remove_segments_below(seq)?;
        self.inner
            .live_bytes
            .store(sink.total_bytes(), Ordering::Relaxed);
        Ok(freed)
    }

    /// The position the next flushed frame lands at. Only meaningful
    /// when nothing is staged (e.g. right after open or a rotation).
    pub fn position(&self) -> WalPosition {
        let _rank = sanitize::rank_acquire(sanitize::rank::WAL_SINK, "wal sink");
        self.inner
            .sink
            .lock()
            .expect("wal sink poisoned")
            .position()
    }

    /// Total on-disk bytes across retained segments (lock-free gauge,
    /// updated per flush).
    pub fn total_bytes(&self) -> u64 {
        self.inner.live_bytes.load(Ordering::Relaxed)
    }

    /// The segment size at which the log rotates to a new file
    /// ([`DurabilityOptions::segment_bytes`](super::DurabilityOptions)).
    pub(crate) fn segment_bytes(&self) -> u64 {
        self.inner.segment_bytes
    }

    /// Group-commit counters since this log was opened.
    pub fn stats(&self) -> GroupWalStats {
        GroupWalStats {
            flush_count: self.inner.flush_count.load(Ordering::Relaxed),
            group_commit_batches: self.inner.group_commit_batches.load(Ordering::Relaxed),
            frames: self.inner.frames.load(Ordering::Relaxed),
            fsync_count: self.inner.fsync_count.load(Ordering::Relaxed),
        }
    }
}

impl Drop for GroupCommitWal {
    fn drop(&mut self) {
        {
            let mut queue = match self.inner.queue.lock() {
                Ok(queue) => queue,
                Err(poisoned) => poisoned.into_inner(),
            };
            queue.stop = true;
            self.inner.work.notify_all();
            self.inner.done.notify_all();
        }
        if let Some(handle) = self.writer.lock().expect("writer handle").take() {
            let _ = handle.join();
        }
    }
}

fn writer_loop(inner: &Inner) {
    let mut scratch: Vec<u8> = Vec::new();
    let mut q_rank = sanitize::rank_acquire(sanitize::rank::WAL_QUEUE, "wal staging queue");
    let mut queue = inner.queue.lock().expect("wal queue poisoned");
    loop {
        if queue.failed.is_some() {
            // Sticky failure: park until told to stop so producers keep
            // getting a clean error instead of a hang.
            if queue.stop {
                return;
            }
            queue = inner.work.wait(queue).expect("wal queue poisoned");
            continue;
        }
        if queue.staging.is_empty() {
            if queue.stop {
                break;
            }
            queue = inner.work.wait(queue).expect("wal queue poisoned");
            continue;
        }
        // Double buffer: swap the staged bytes out and release the lock
        // before touching the file, so producers stage the next window
        // while this one is being written.
        std::mem::swap(&mut queue.staging, &mut scratch);
        let frames = queue.staging_frames;
        queue.staging_frames = 0;
        drop(queue);
        drop(q_rank);
        inner.done.notify_all();

        let s_rank = sanitize::rank_acquire(sanitize::rank::WAL_SINK, "wal sink");
        let mut sink = inner.sink.lock().expect("wal sink poisoned");
        let result = sink.append_encoded(&scratch);
        let live = sink.total_bytes();
        drop(sink);
        drop(s_rank);
        scratch.clear();

        q_rank = sanitize::rank_acquire(sanitize::rank::WAL_QUEUE, "wal staging queue");
        queue = inner.queue.lock().expect("wal queue poisoned");
        match result {
            Ok(synced) => {
                queue.flushed += frames;
                inner.live_bytes.store(live, Ordering::Relaxed);
                inner.flush_count.fetch_add(1, Ordering::Relaxed);
                inner.frames.fetch_add(frames, Ordering::Relaxed);
                if frames > 1 {
                    inner.group_commit_batches.fetch_add(1, Ordering::Relaxed);
                }
                if synced {
                    queue.synced = queue.flushed;
                    inner.fsync_count.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) => {
                Inner::fail(&mut queue, &e);
            }
        }
        inner.done.notify_all();
    }
    // Clean stop with everything flushed: make the tail durable so a
    // graceful close behaves like an explicit sync. The sink is released
    // before retaking the queue: taking the queue (rank 40) while
    // holding the sink (rank 50) would invert the lock order every
    // other path follows.
    drop(queue);
    drop(q_rank);
    let sync_ok = {
        let _s_rank = sanitize::rank_acquire(sanitize::rank::WAL_SINK, "wal sink");
        let mut sink = inner.sink.lock().expect("wal sink poisoned");
        sink.sync().is_ok()
    };
    if sync_ok {
        let _q_rank = sanitize::rank_acquire(sanitize::rank::WAL_QUEUE, "wal staging queue");
        let mut queue = inner.queue.lock().expect("wal queue poisoned");
        queue.synced = queue.flushed;
        inner.fsync_count.fetch_add(1, Ordering::Relaxed);
        inner.done.notify_all();
    }
}

/// Rendezvous for store-wide checkpoint rounds over one shared log; see
/// the module docs for the protocol.
#[derive(Debug)]
pub struct CheckpointRound {
    shards: usize,
    state: Mutex<RoundState>,
    cv: Condvar,
}

#[derive(Debug)]
struct RoundState {
    arrived: usize,
    departed: usize,
    generation: u64,
    failures: usize,
    outcome: Option<Result<WalPosition, String>>,
}

impl CheckpointRound {
    /// A round coordinator for `shards` participants (≥ 1).
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a round needs at least one shard");
        CheckpointRound {
            shards,
            state: Mutex::new(RoundState {
                arrived: 0,
                departed: 0,
                generation: 0,
                failures: 0,
                outcome: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all `shards` participants have arrived; the last
    /// arrival runs `rotate` (one rotation per round) and its result is
    /// shared with everyone.
    pub fn arrive(
        &self,
        rotate: impl FnOnce() -> Result<WalPosition, PersistError>,
    ) -> Result<WalPosition, PersistError> {
        let _rank = sanitize::rank_acquire(sanitize::rank::ROUND, "checkpoint round");
        let mut state = self.state.lock().expect("round poisoned");
        let generation = state.generation;
        state.arrived += 1;
        if state.arrived == self.shards {
            state.outcome = Some(rotate().map_err(|e| e.to_string()));
            state.generation += 1;
            self.cv.notify_all();
        } else {
            while state.generation == generation {
                let (next, timeout) = self
                    .cv
                    .wait_timeout(state, ROUND_STALL_TIMEOUT)
                    .expect("round poisoned");
                state = next;
                if timeout.timed_out() && state.generation == generation {
                    panic!(
                        "checkpoint round stalled: {} of {} shards arrived",
                        state.arrived, self.shards
                    );
                }
            }
        }
        match state.outcome.as_ref().expect("set by last arrival") {
            Ok(pos) => Ok(*pos),
            Err(msg) => Err(PersistError::corrupt(
                std::path::Path::new("<checkpoint round>"),
                format!("rotation failed: {msg}"),
            )),
        }
    }

    /// Marks this participant's checkpoint + manifest as written
    /// (`success: true`) or abandoned after an error (`success: false`).
    /// Returns `true` only for the last participant of a round in which
    /// *every* shard succeeded — that shard then truncates the log. A
    /// round with any failure truncates nothing, because the failed
    /// shard's manifest still points into the pre-rotation log.
    pub fn depart(&self, success: bool) -> bool {
        let _rank = sanitize::rank_acquire(sanitize::rank::ROUND, "checkpoint round");
        let mut state = self.state.lock().expect("round poisoned");
        if !success {
            state.failures += 1;
        }
        state.departed += 1;
        let last = state.departed == self.shards;
        let all_ok = state.failures == 0;
        if last {
            state.arrived = 0;
            state.departed = 0;
            state.failures = 0;
            state.outcome = None;
        }
        last && all_ok
    }
}

#[cfg(test)]
mod tests {
    use super::super::wal;
    use super::*;
    use std::path::{Path, PathBuf};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("streamfreq-group-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn start_pos() -> WalPosition {
        WalPosition {
            segment: 1,
            offset: wal::SEGMENT_HEADER_LEN,
        }
    }

    fn open(dir: &Path, fsync: FsyncPolicy) -> GroupCommitWal {
        let writer = wal::WalWriter::create(dir, fsync, 1 << 20).unwrap();
        GroupCommitWal::start(writer, fsync)
    }

    #[test]
    fn concurrent_producers_coalesce_and_replay_in_fifo_order() {
        let dir = tmp_dir("coalesce");
        let log = Arc::new(open(&dir, FsyncPolicy::Off));
        let mut handles = Vec::new();
        for stream in 0..4u32 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                let mut frame = Vec::new();
                for i in 0..200u64 {
                    frame.clear();
                    wal::encode_frame(&mut frame, stream, 0, &[(i, i + 1)]);
                    log.append_frame(&frame).unwrap();
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        log.sync_all().unwrap();
        let stats = log.stats();
        assert_eq!(stats.frames, 800);
        assert!(stats.flush_count <= stats.frames);
        drop(Arc::try_unwrap(log).expect("sole owner"));
        let out = wal::read_from::<u64>(&dir, start_pos()).unwrap();
        assert_eq!(out.records.len(), 800);
        // Per-stream FIFO: each producer's items appear in append order.
        for stream in 0..4u32 {
            let items: Vec<u64> = out
                .records
                .iter()
                .filter(|r| r.stream == stream)
                .map(|r| r.batch[0].0)
                .collect();
            let expected: Vec<u64> = (0..200).collect();
            assert_eq!(items, expected, "stream {stream} reordered");
        }
    }

    #[test]
    fn always_policy_means_acknowledged_is_durable() {
        let dir = tmp_dir("always");
        let log = open(&dir, FsyncPolicy::Always);
        let mut frame = Vec::new();
        for i in 0..20u64 {
            frame.clear();
            wal::encode_frame(&mut frame, 0, 0, &[(i, 1)]);
            log.append_frame(&frame).unwrap();
        }
        let stats = log.stats();
        assert_eq!(stats.frames, 20);
        assert!(stats.fsync_count >= 1, "Always must fsync");
        // Every acknowledged frame is already readable on disk, without
        // closing the log.
        let out = wal::read_from::<u64>(&dir, start_pos()).unwrap();
        assert_eq!(out.records.len(), 20);
    }

    #[test]
    fn rotation_barrier_flushes_everything_first() {
        let dir = tmp_dir("rotate-barrier");
        let log = open(&dir, FsyncPolicy::Off);
        let mut frame = Vec::new();
        for i in 0..50u64 {
            frame.clear();
            wal::encode_frame(&mut frame, 1, 7, &[(i, 1)]);
            log.append_frame(&frame).unwrap();
        }
        let pos = log.rotate_for_checkpoint().unwrap();
        assert!(pos.segment >= 2);
        let out = wal::read_from::<u64>(&dir, start_pos()).unwrap();
        assert_eq!(out.records.len(), 50, "barrier lost staged frames");
        assert!(out.records.iter().all(|r| r.at < pos));
        let freed = log.remove_segments_below(pos.segment).unwrap();
        assert!(freed > 0);
        let out = wal::read_from::<u64>(&dir, pos).unwrap();
        assert!(out.records.is_empty());
    }

    #[test]
    fn writer_failure_is_sticky() {
        let dir = tmp_dir("sticky");
        let log = open(&dir, FsyncPolicy::Off);
        // Sabotage: make the live segment unwritable by replacing the
        // directory out from under the writer... simplest portable
        // sabotage is removing the directory so rotation/sync fails.
        let mut frame = Vec::new();
        wal::encode_frame(&mut frame, 0, 0, &[(1u64, 1u64)]);
        log.append_frame(&frame).unwrap();
        log.sync_all().unwrap();
        // Force a rotation failure: drop the directory, then rotate.
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(log.rotate_for_checkpoint().is_err());
        assert!(
            log.append_frame(&frame).is_err(),
            "appends after a writer failure must fail loudly"
        );
    }

    #[test]
    fn checkpoint_round_rotates_once_for_all_shards() {
        let dir = tmp_dir("round");
        let log = Arc::new(open(&dir, FsyncPolicy::Off));
        let round = Arc::new(CheckpointRound::new(3));
        let rotations = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for stream in 0..3u32 {
            let log = Arc::clone(&log);
            let round = Arc::clone(&round);
            let rotations = Arc::clone(&rotations);
            handles.push(std::thread::spawn(move || {
                let mut frame = Vec::new();
                wal::encode_frame(&mut frame, stream, 0, &[(u64::from(stream), 1u64)]);
                log.append_frame(&frame).unwrap();
                let pos = round
                    .arrive(|| {
                        rotations.fetch_add(1, Ordering::Relaxed);
                        log.rotate_for_checkpoint()
                    })
                    .unwrap();
                if round.depart(true) {
                    log.remove_segments_below(pos.segment).unwrap();
                }
                pos
            }));
        }
        let positions: Vec<WalPosition> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            rotations.load(Ordering::Relaxed),
            1,
            "one rotation per round"
        );
        assert!(positions.windows(2).all(|w| w[0] == w[1]));
        let out = wal::read_from::<u64>(&dir, positions[0]).unwrap();
        assert!(out.records.is_empty(), "round left uncovered records");
    }
}
