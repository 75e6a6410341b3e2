//! [`ConcurrentSketch`]: a long-lived serving layer that ingests from
//! many writer threads while answering queries from immutable merged
//! snapshots — the deployment shape §3 of the paper motivates (summaries
//! that are aggregated *and served* while data keeps arriving).
//!
//! ## Architecture
//!
//! ```text
//!  writer threads            shard workers               queries
//!  ┌─────────┐  bounded mpsc ┌──────────────┐
//!  │ writer 0 │──────────────▶ SketchEngine 0│─┐ probe
//!  │ writer 1 │──────────────▶ SketchEngine 1│─┼──▶ Algorithm-5 merge
//!  │   ...    │──────────────▶     ...       │─┘      │ publish
//!  └─────────┘               └──────────────┘         ▼
//!                                        RwLock<Arc<Snapshot>> ◀─ readers
//! ```
//!
//! * **Shard workers.** One thread per shard owns a [`SketchEngine<K>`]
//!   outright and drains a bounded [`std::sync::mpsc`] channel of item
//!   batches — no locks on the ingest hot path, and the bounded channel
//!   is the backpressure: writers block when a shard's backlog is full.
//! * **Snapshots.** Periodically (or on demand) a probe message visits
//!   every shard channel; each worker replies with a clone of its
//!   engine, and the clones are merged per Algorithm 5 into one
//!   immutable [`Snapshot`] installed by swapping an
//!   `Arc` under an [`std::sync::RwLock`]. Queries clone the `Arc` out
//!   and never touch the shards, so **queries never block ingestion**
//!   and ingestion never blocks queries. The merged engine carries the
//!   same certified Theorem-5 error bounds as
//!   [`crate::ShardedSketch::merged`].
//! * **Bounded staleness.** Channels are FIFO, so a snapshot reflects
//!   *every* batch whose enqueue completed before the probe was sent;
//!   what it can miss is bounded by the channel capacity plus one
//!   writer-side buffer per shard. With a periodic publisher the served
//!   view lags live ingestion by at most the publish interval plus the
//!   time to drain that bounded backlog.
//! * **Graceful shutdown.** [`ConcurrentSketch::drain`] stops the
//!   publisher, closes the channels, joins every worker (each returns
//!   its engine after draining its queue), publishes a final sealed
//!   snapshot, and exposes the per-shard engines for inspection.
//! * **Durability (optional).**
//!   [`ConcurrentSketchBuilder::build_durable`] gives every shard worker
//!   a write-ahead-logged [`DurableSketch`] in its own subdirectory of a
//!   store directory: batches are logged before they are applied, a
//!   checkpointer thread takes coordinated checkpoint rounds (on demand
//!   via [`SnapshotReader::request_checkpoint`], optionally
//!   periodically, and whenever the shared log reaches one segment),
//!   and reopening the same directory recovers each shard as
//!   `checkpoint ⊕ replayed WAL tail` — then merges the recovered
//!   shards per Algorithm 5 into the initial served snapshot. See
//!   [`crate::persist`] for the on-disk formats and guarantees.
//!
//! ## Determinism
//!
//! The deterministic entry point is
//! [`ConcurrentSketch::ingest_slice_parallel`]: writer `w` owns a
//! disjoint contiguous group of shards and scans the whole input slice,
//! claiming the items that route to its group — exactly
//! [`crate::ShardedSketch::ingest_parallel`]'s partitioning, decoupled
//! from the shard workers by the channels. Every shard therefore
//! receives its items in stream order through exactly one channel, so
//! the **drained final state is byte-identical for every writer count**,
//! and equal to a sequential [`crate::ShardedSketch::update_batch`] run
//! of the same bank configuration (pinned by the differential tests in
//! `tests/concurrent.rs`). Free-form [`ConcurrentWriter`] handles make
//! no cross-writer ordering promise — two writers racing the same shard
//! interleave arbitrarily — but the certified per-item bounds hold
//! regardless, because they hold for any arrival order.
//!
//! # Example
//!
//! ```
//! use streamfreq_core::ConcurrentSketch;
//!
//! let sketch: ConcurrentSketch<u64> = ConcurrentSketch::builder(4, 256).build().unwrap();
//! let stream: Vec<(u64, u64)> = (0..50_000).map(|i| (i % 1000, 1)).collect();
//! sketch.ingest_slice_parallel(&stream, 2);
//! sketch.publish_now();
//! let snap = sketch.snapshot();
//! assert!(snap.stream_weight() <= 50_000);
//! let mut sketch = sketch;
//! sketch.drain();
//! assert_eq!(sketch.snapshot().stream_weight(), 50_000);
//! ```

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::{SketchEngine, SketchEngineBuilder, SketchKey, DEFAULT_SEED};
use crate::error::Error;
use crate::item_codec::ItemCodec;
use crate::persist::recover::open_bank;
use crate::persist::store::{read_store_meta, write_store_meta, StoreMeta};
use crate::persist::wal::SEGMENT_HEADER_LEN;
use crate::persist::{
    DurabilityOptions, DurableSketch, EngineConfig, GroupCommitWal, GroupWalStats, PersistError,
    RecoveryReport,
};
use crate::purge::PurgePolicy;
use crate::result::{ErrorType, Row};
use crate::sanitize;
use crate::sharded::shard_of;

/// Items buffered per shard on the writer side before a batch message is
/// sent: the same amortization constant as the sharded ingest path.
const WRITER_BUF: usize = 4096;

/// How often the periodic publisher re-checks the stop flag while
/// waiting out the publish interval.
const PUBLISHER_TICK: Duration = Duration::from_millis(2);

/// A message on a shard worker's channel.
enum Msg<K: SketchKey> {
    /// A batch of weighted updates, all routed to this shard.
    Batch(Vec<(K, u64)>),
    /// Snapshot probe: reply with a clone of the shard engine. FIFO
    /// ordering makes the reply reflect every batch enqueued earlier.
    Probe(SyncSender<SketchEngine<K>>),
    /// Checkpoint probe (durable banks only): persist a checkpoint of
    /// everything received so far and reply with the new epoch. FIFO
    /// ordering makes the checkpoint cover every batch enqueued earlier.
    Checkpoint(SyncSender<u64>),
    /// Apply barrier: reply once every batch enqueued earlier has been
    /// applied (and, in a durable bank, staged on the shared log).
    Barrier(SyncSender<()>),
}

/// An immutable point-in-time merged view of a [`ConcurrentSketch`],
/// produced by an Algorithm-5 merge of every shard and served lock-free
/// behind an `Arc`. All the usual queries are available and answer with
/// the same certified bounds as [`crate::ShardedSketch::merged`]
/// (Theorem 5: shard offsets add).
#[derive(Clone, Debug)]
pub struct Snapshot<K: SketchKey> {
    engine: SketchEngine<K>,
    epoch: u64,
    sealed: bool,
}

impl<K: SketchKey> Snapshot<K> {
    /// The snapshot's publish epoch: 0 for the initial empty snapshot,
    /// then strictly increasing with each publish.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True for the final snapshot published by
    /// [`ConcurrentSketch::drain`]: ingestion has stopped and this view
    /// is complete, not merely bounded-stale.
    #[inline]
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// The merged engine backing this snapshot.
    #[inline]
    pub fn engine(&self) -> &SketchEngine<K> {
        &self.engine
    }

    /// Estimate of the item's weighted frequency as of this snapshot.
    #[inline]
    pub fn estimate(&self, item: &K) -> u64 {
        self.engine.estimate(item)
    }

    /// Certified lower bound on the item's frequency in the snapshotted
    /// prefix of the stream.
    #[inline]
    pub fn lower_bound(&self, item: &K) -> u64 {
        self.engine.lower_bound(item)
    }

    /// Certified upper bound on the item's frequency in the snapshotted
    /// prefix of the stream.
    #[inline]
    pub fn upper_bound(&self, item: &K) -> u64 {
        self.engine.upper_bound(item)
    }

    /// Total weighted stream length the snapshot covers.
    #[inline]
    pub fn stream_weight(&self) -> u64 {
        self.engine.stream_weight()
    }

    /// Maximum estimation error of the merged view (Theorem 5).
    #[inline]
    pub fn maximum_error(&self) -> u64 {
        self.engine.maximum_error()
    }

    /// Counters assigned in the merged view.
    #[inline]
    pub fn num_counters(&self) -> usize {
        self.engine.num_counters()
    }

    /// The `k` largest-estimate rows of the snapshot.
    pub fn top_k(&self, k: usize) -> Vec<Row<K>>
    where
        K: Ord,
    {
        self.engine.top_k(k)
    }

    /// (φ, ε)-heavy hitters of the snapshotted stream prefix, at the
    /// exact `⌊phi · N⌋` threshold.
    ///
    /// # Panics
    /// Panics if `phi` is outside `[0, 1]`.
    pub fn heavy_hitters(&self, phi: f64, error_type: ErrorType) -> Vec<Row<K>>
    where
        K: Ord,
    {
        self.engine.heavy_hitters(phi, error_type)
    }
}

/// State shared between the sketch, its writers, its readers, and the
/// publisher thread.
struct Shared<K: SketchKey> {
    snapshot: RwLock<Arc<Snapshot<K>>>,
    /// Published snapshot count; the installed snapshot's epoch.
    epoch: AtomicU64,
    /// Total weight successfully enqueued to shard channels — the live
    /// high-water mark queries can compare a snapshot against.
    enqueued_weight: AtomicU64,
    /// Set once the final drained snapshot is installed.
    sealed: AtomicBool,
    /// Serializes publishes so epochs and snapshots advance together.
    publish_lock: Mutex<()>,
    /// The bank-level shared group-commit log (durable banks only) —
    /// every shard appends stream-tagged frames to this one file.
    wal: Option<Arc<GroupCommitWal>>,
    /// Newest coordinated checkpoint round every shard has completed
    /// (written only by the checkpointer's round minimum).
    last_checkpoint_epoch: AtomicU64,
    /// Checkpoint rounds the checkpointer has completed, by any trigger.
    checkpoint_rounds: AtomicU64,
    /// Reply channels of pending on-demand checkpoint requests,
    /// serviced by the checkpointer thread.
    ckpt_requests: Mutex<Vec<SyncSender<u64>>>,
}

impl<K: SketchKey> Shared<K> {
    fn new(
        initial: Snapshot<K>,
        wal: Option<Arc<GroupCommitWal>>,
        enqueued: u64,
        last_ckpt: u64,
    ) -> Arc<Self> {
        let epoch = initial.epoch;
        Arc::new(Shared {
            snapshot: RwLock::new(Arc::new(initial)),
            epoch: AtomicU64::new(epoch),
            enqueued_weight: AtomicU64::new(enqueued),
            sealed: AtomicBool::new(false),
            publish_lock: Mutex::new(()),
            wal,
            last_checkpoint_epoch: AtomicU64::new(last_ckpt),
            checkpoint_rounds: AtomicU64::new(0),
            ckpt_requests: Mutex::new(Vec::new()),
        })
    }
}

/// Everything a merge needs to rebuild an export engine: the bank's
/// policy/seed (inherited exactly like [`crate::ShardedSketch::merged`])
/// and the export capacity.
#[derive(Clone, Copy)]
struct MergeConfig {
    capacity: usize,
    policy: PurgePolicy,
    seed: u64,
}

impl MergeConfig {
    fn fresh_engine<K: SketchKey>(&self) -> SketchEngine<K> {
        SketchEngineBuilder::new(self.capacity)
            .policy(self.policy)
            .seed(self.seed)
            .build()
            .expect("merge configuration validated at build time")
    }
}

/// Installs `engine` as the new current snapshot. Caller holds the
/// publish lock (or has exclusive access during drain), which
/// serializes epoch assignment.
fn install_snapshot<K: SketchKey>(shared: &Shared<K>, engine: SketchEngine<K>, sealed: bool) {
    let rank = sanitize::rank_acquire(sanitize::rank::SNAPSHOT, "snapshot rwlock");
    let mut slot = shared.snapshot.write().expect("snapshot lock poisoned");
    let epoch = slot.epoch + 1;
    // Sanitizer: epochs advance strictly — the about-to-install epoch
    // must be ahead of everything `epoch()` has ever reported, or a
    // reader could observe the published counter go backwards.
    #[cfg(feature = "debug-invariants")]
    {
        let published = shared.epoch.load(Ordering::SeqCst);
        assert!(
            epoch > published,
            "debug-invariants: snapshot epoch not monotone — installing \
             {epoch} over published {published}"
        );
    }
    *slot = Arc::new(Snapshot {
        engine,
        epoch,
        sealed,
    });
    drop(slot);
    drop(rank);
    // The counter trails the install: once `epoch()` reports N, the
    // epoch-N snapshot is already visible to `snapshot()`.
    shared.epoch.store(epoch, Ordering::SeqCst);
    if sealed {
        shared.sealed.store(true, Ordering::SeqCst);
    }
}

/// Probes every shard for a clone of its engine, merges the clones per
/// Algorithm 5, and installs the result. Returns `false` if the workers
/// are gone (post-drain).
fn publish_from_probes<K: SketchKey>(
    shared: &Shared<K>,
    senders: &[SyncSender<Msg<K>>],
    config: MergeConfig,
) -> bool {
    let _rank = sanitize::rank_acquire(sanitize::rank::PUBLISH, "publish lock");
    let _guard = shared.publish_lock.lock().expect("publish lock poisoned");
    if shared.sealed.load(Ordering::SeqCst) {
        // A sealed (drained) view is already complete and final.
        return false;
    }
    // Send every probe before collecting any reply so the shards
    // snapshot concurrently; replies are collected in shard order so the
    // merge order (and hence the merged engine) is deterministic in the
    // shard states.
    let mut replies: Vec<Receiver<SketchEngine<K>>> = Vec::with_capacity(senders.len());
    for sender in senders {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        sanitize::check_send(sanitize::rank::SHARD_CHANNEL, "shard channel");
        if sender.send(Msg::Probe(reply_tx)).is_err() {
            return false;
        }
        replies.push(reply_rx);
    }
    let mut merged = config.fresh_engine();
    for reply in replies {
        let Ok(shard) = reply.recv() else {
            return false;
        };
        merged.merge(&shard);
    }
    install_snapshot(shared, merged, false);
    true
}

/// A handle for pushing weighted updates into a [`ConcurrentSketch`]
/// from any thread. Routes items to their shard, buffers up to a few
/// thousand per shard, and sends batches over the bounded channels —
/// blocking (backpressure) when a shard's backlog is full.
///
/// Dropping the writer flushes its buffers. All writers must be dropped
/// before [`ConcurrentSketch::drain`] can complete.
pub struct ConcurrentWriter<K: SketchKey> {
    senders: Vec<SyncSender<Msg<K>>>,
    shared: Arc<Shared<K>>,
    bufs: Vec<Vec<(K, u64)>>,
}

impl<K: SketchKey> ConcurrentWriter<K> {
    fn new(senders: Vec<SyncSender<Msg<K>>>, shared: Arc<Shared<K>>) -> Self {
        let bufs = senders.iter().map(|_| Vec::new()).collect();
        Self {
            senders,
            shared,
            bufs,
        }
    }

    /// Queues one weighted update. Zero weights are ignored, mirroring
    /// [`SketchEngine::update`].
    pub fn write(&mut self, item: K, weight: u64) {
        if weight == 0 {
            return;
        }
        let s = shard_of(&item, self.senders.len());
        self.bufs[s].push((item, weight));
        if self.bufs[s].len() >= WRITER_BUF {
            self.flush_shard(s);
        }
    }

    /// Queues a slice of weighted updates.
    pub fn write_batch(&mut self, batch: &[(K, u64)]) {
        for (item, weight) in batch {
            self.write(item.clone(), *weight);
        }
    }

    /// Sends every buffered item to its shard worker. On return, all of
    /// this writer's previous updates are enqueued and will be visible
    /// to the next snapshot probe (channel FIFO).
    pub fn flush(&mut self) {
        for s in 0..self.bufs.len() {
            if !self.bufs[s].is_empty() {
                self.flush_shard(s);
            }
        }
    }

    /// Flushes like [`Self::flush`], then waits until every shard worker
    /// has applied every batch enqueued before this call, by any
    /// writer. In a durable bank an applied batch is staged on the
    /// shared log, so a following [`SnapshotReader::sync`] puts all of
    /// them on disk.
    pub fn flush_applied(&mut self) {
        self.flush();
        let replies: Vec<Receiver<()>> = self
            .senders
            .iter()
            .filter_map(|sender| {
                let (tx, rx) = mpsc::sync_channel(1);
                sanitize::check_send(sanitize::rank::SHARD_CHANNEL, "shard channel");
                sender.send(Msg::Barrier(tx)).ok().map(|()| rx)
            })
            .collect();
        for reply in replies {
            // A worker gone mid-barrier (drain) has applied all it will.
            let _ = reply.recv();
        }
    }

    fn flush_shard(&mut self, s: usize) {
        let batch = std::mem::take(&mut self.bufs[s]);
        let weight: u64 = batch.iter().map(|&(_, w)| w).sum();
        // A send error means the sketch was drained under us; the items
        // have nowhere to go and accounting them would overstate the
        // enqueued mass.
        sanitize::check_send(sanitize::rank::SHARD_CHANNEL, "shard channel");
        if self.senders[s].send(Msg::Batch(batch)).is_ok() {
            self.shared
                .enqueued_weight
                .fetch_add(weight, Ordering::SeqCst);
        }
    }
}

impl<K: SketchKey> Drop for ConcurrentWriter<K> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A cheap cloneable read-side handle: lets query threads (and, in the
/// CLI, TCP connection handlers) fetch the current snapshot after the
/// owning [`ConcurrentSketch`] has moved elsewhere.
pub struct SnapshotReader<K: SketchKey> {
    shared: Arc<Shared<K>>,
}

impl<K: SketchKey> Clone for SnapshotReader<K> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<K: SketchKey> SnapshotReader<K> {
    /// The current snapshot. Lock-free apart from a momentary read lock
    /// around the `Arc` clone; never blocks ingestion.
    pub fn snapshot(&self) -> Arc<Snapshot<K>> {
        let _rank = sanitize::rank_acquire(sanitize::rank::SNAPSHOT, "snapshot rwlock");
        Arc::clone(&self.shared.snapshot.read().expect("snapshot lock poisoned"))
    }

    /// The epoch of the most recently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// Total weight enqueued to the shard channels so far — an upper
    /// bound on what the *next* snapshot will cover, and the live mark
    /// to measure a snapshot's staleness against.
    pub fn enqueued_weight(&self) -> u64 {
        self.shared.enqueued_weight.load(Ordering::SeqCst)
    }

    /// True once the final drained snapshot has been published.
    pub fn is_sealed(&self) -> bool {
        self.shared.sealed.load(Ordering::SeqCst)
    }

    /// True if the bank persists a write-ahead log and checkpoints
    /// ([`ConcurrentSketchBuilder::build_durable`]).
    pub fn is_durable(&self) -> bool {
        self.shared.wal.is_some()
    }

    /// Live bytes held by the bank's shared write-ahead log (0 for
    /// volatile banks). Shrinks when checkpoints truncate the log.
    pub fn wal_bytes(&self) -> u64 {
        self.shared.wal.as_ref().map_or(0, |wal| wal.total_bytes())
    }

    /// Group-commit counters of the shared log (`None` for volatile
    /// banks): flush windows, coalesced batches, frames, fsyncs.
    pub fn wal_stats(&self) -> Option<GroupWalStats> {
        self.shared.wal.as_ref().map(|wal| wal.stats())
    }

    /// Flushes every staged shared-log frame to disk and fsyncs — a
    /// durability barrier for batches already applied (no-op for
    /// volatile banks). Pair with [`ConcurrentSketch::publish_now`] to
    /// make "applied" imply "on disk" under lazy fsync policies.
    pub fn sync(&self) -> Result<(), PersistError> {
        match &self.shared.wal {
            Some(wal) => wal.sync_all(),
            None => Ok(()),
        }
    }

    /// The newest *coordinated* checkpoint round every shard has
    /// completed (0 before the first round, or for volatile banks).
    /// Written only when a round finishes, so it never reports an epoch
    /// some shard has not reached; the per-shard drain checkpoints may
    /// be one round newer than this gauge.
    pub fn last_checkpoint_epoch(&self) -> u64 {
        self.shared.last_checkpoint_epoch.load(Ordering::SeqCst)
    }

    /// Coordinated checkpoint rounds completed since the bank opened, by
    /// any trigger: on-demand requests, the periodic interval, and the
    /// shared log reaching one segment (0 for volatile banks). The
    /// drain checkpoint is not counted.
    pub fn checkpoint_rounds(&self) -> u64 {
        self.shared.checkpoint_rounds.load(Ordering::SeqCst)
    }

    /// Requests a coordinated checkpoint round across every shard and
    /// waits up to `timeout` for it to complete, returning the epoch all
    /// shards reached. Returns `None` for volatile banks, after a drain,
    /// or on timeout. Any number of threads may request concurrently;
    /// the checkpointer coalesces pending requests into one round.
    pub fn request_checkpoint(&self, timeout: Duration) -> Option<u64> {
        if self.shared.wal.is_none() || self.shared.sealed.load(Ordering::SeqCst) {
            return None;
        }
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let _rank = sanitize::rank_acquire(sanitize::rank::CKPT_REQUESTS, "ckpt requests");
            self.shared
                .ckpt_requests
                .lock()
                .expect("ckpt queue poisoned")
                .push(tx);
        }
        rx.recv_timeout(timeout).ok()
    }
}

/// Configures and constructs a [`ConcurrentSketch`].
#[derive(Clone, Debug)]
pub struct ConcurrentSketchBuilder<K: SketchKey> {
    num_shards: usize,
    counters_per_shard: usize,
    policy: PurgePolicy,
    seed: u64,
    grow_from_small: bool,
    channel_capacity: usize,
    merged_capacity: usize,
    publish_interval: Option<Duration>,
    _key: std::marker::PhantomData<K>,
}

impl<K: SketchKey + Send + Sync + 'static> ConcurrentSketchBuilder<K> {
    /// Starts a builder for `num_shards` shard workers of
    /// `counters_per_shard` counters each.
    pub fn new(num_shards: usize, counters_per_shard: usize) -> Self {
        Self {
            num_shards,
            counters_per_shard,
            policy: PurgePolicy::default(),
            seed: DEFAULT_SEED,
            grow_from_small: true,
            channel_capacity: 4,
            merged_capacity: counters_per_shard,
            publish_interval: None,
            _key: std::marker::PhantomData,
        }
    }

    /// Selects the purge policy for every shard (default: SMED).
    pub fn policy(mut self, policy: PurgePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Seeds the shards' purge samplers; shard `s` uses `seed + s`,
    /// matching [`crate::ShardedSketchBuilder::seed`] so the drained
    /// state is comparable bank-for-bank.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// If `false`, every shard preallocates its maximum table up front.
    pub fn grow_from_small(mut self, grow: bool) -> Self {
        self.grow_from_small = grow;
        self
    }

    /// Bounds each shard's channel to `capacity` in-flight batch
    /// messages (default 4). Smaller values tighten the snapshot
    /// staleness bound; larger values absorb burstier writers before
    /// backpressure engages.
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.channel_capacity = capacity.max(1);
        self
    }

    /// Counter budget of the merged snapshot engine (default: the
    /// per-shard budget, matching [`crate::ShardedSketch::merged`]).
    pub fn merged_capacity(mut self, capacity: usize) -> Self {
        self.merged_capacity = capacity;
        self
    }

    /// Publishes a fresh merged snapshot every `interval` from a
    /// background thread. Without this, snapshots are published only by
    /// explicit [`ConcurrentSketch::publish_now`] calls and at drain.
    pub fn publish_every(mut self, interval: Duration) -> Self {
        self.publish_interval = Some(interval);
        self
    }

    /// Validates the configuration and builds the merge config plus the
    /// engine the initial (pre-publish) snapshot serves from.
    fn validated_parts(&self) -> Result<(MergeConfig, SketchEngine<K>), Error> {
        if self.num_shards == 0 {
            return Err(Error::InvalidConfig("num_shards must be positive".into()));
        }
        let merge_config = MergeConfig {
            capacity: self.merged_capacity,
            policy: self.policy,
            seed: self.seed,
        };
        // Validate the merged-export configuration before spawning
        // anything: `fresh_engine`'s expect is only sound after this.
        let initial_snapshot_engine = SketchEngineBuilder::<K>::new(self.merged_capacity)
            .policy(self.policy)
            .seed(self.seed)
            .build()?;
        Ok((merge_config, initial_snapshot_engine))
    }

    /// The per-shard engine configuration (shard `s` seeds at `seed + s`).
    fn shard_config(&self, s: usize) -> EngineConfig {
        EngineConfig {
            max_counters: self.counters_per_shard,
            policy: self.policy,
            seed: self.seed.wrapping_add(s as u64),
            grow_from_small: self.grow_from_small,
        }
    }

    /// Spawns the shard workers over arbitrary backends and assembles
    /// the sketch (plus its publisher and, for durable banks, its
    /// checkpointer).
    fn assemble<B: ShardBackend<K>>(
        &self,
        backends: Vec<B>,
        shared: Arc<Shared<K>>,
        merge_config: MergeConfig,
        checkpoint_interval: Option<Duration>,
    ) -> ConcurrentSketch<K> {
        let mut senders = Vec::with_capacity(backends.len());
        let mut workers = Vec::with_capacity(backends.len());
        for (s, backend) in backends.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<Msg<K>>(self.channel_capacity);
            senders.push(tx);
            let handle = std::thread::Builder::new()
                .name(format!("streamfreq-shard-{s}"))
                .spawn(move || shard_worker(backend, rx))
                .expect("failed to spawn shard worker");
            workers.push(handle);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let publisher = self.publish_interval.map(|interval| {
            let shared = Arc::clone(&shared);
            let senders = senders.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("streamfreq-publisher".into())
                .spawn(move || {
                    let mut last = Instant::now();
                    while !stop.load(Ordering::SeqCst) {
                        if last.elapsed() >= interval {
                            publish_from_probes(&shared, &senders, merge_config);
                            last = Instant::now();
                        }
                        std::thread::sleep(PUBLISHER_TICK.min(interval));
                    }
                })
                .expect("failed to spawn publisher")
        });
        let checkpointer = shared.wal.is_some().then(|| {
            let shared = Arc::clone(&shared);
            let senders = senders.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("streamfreq-checkpointer".into())
                .spawn(move || checkpointer_loop(&shared, &senders, checkpoint_interval, &stop))
                .expect("failed to spawn checkpointer")
        });
        ConcurrentSketch {
            senders,
            workers,
            publisher,
            checkpointer,
            stop,
            shared,
            merge_config,
            drained_shards: None,
        }
    }

    /// Builds the sketch and spawns its shard workers (and the periodic
    /// publisher, if configured).
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if `num_shards` is zero or any
    /// engine configuration is invalid.
    pub fn build(self) -> Result<ConcurrentSketch<K>, Error> {
        let (merge_config, initial_snapshot_engine) = self.validated_parts()?;
        let backends: Vec<VolatileShard<K>> = (0..self.num_shards)
            .map(|s| self.shard_config(s).build_engine().map(VolatileShard))
            .collect::<Result<Vec<_>, _>>()?;
        let shared = Shared::new(
            Snapshot {
                engine: initial_snapshot_engine,
                epoch: 0,
                sealed: false,
            },
            None,
            0,
            0,
        );
        Ok(self.assemble(backends, shared, merge_config, None))
    }

    /// Builds a **durable** bank over the store directory `dir`: all
    /// shards share one bank-level group-commit write-ahead log (each
    /// shard's frames carry its stream tag), each shard keeps its
    /// checkpoints and manifest in `dir/shard-<s>/`, any existing state
    /// is recovered first (per-shard `checkpoint ⊕ replay` off the
    /// shared log — stores from the previous per-shard-log layout are
    /// migrated in place — then an Algorithm-5 merge of the recovered
    /// shards is installed as the initial snapshot), and a
    /// checkpointer thread services on-demand checkpoint requests
    /// ([`SnapshotReader::request_checkpoint`]) plus the optional
    /// periodic `checkpoint_interval`, and starts a round on its own
    /// whenever the shared log reaches one segment
    /// ([`DurabilityOptions::segment_bytes`]) — so a restart replays at
    /// most about one segment, whatever the uptime or ingest rate.
    ///
    /// Returns the sketch and the per-shard recovery reports.
    ///
    /// Persistence I/O failures on the hot path are fatal for the
    /// affected shard worker (it panics; [`ConcurrentSketch::drain`]
    /// surfaces the panic) — silently continuing without a log would
    /// break the recovery contract.
    ///
    /// # Errors
    /// [`PersistError::ConfigMismatch`] if `dir` holds a store built
    /// with a different bank configuration; [`PersistError::Corrupt`]
    /// for damaged on-disk state; I/O and configuration errors
    /// otherwise.
    pub fn build_durable(
        self,
        dir: &Path,
        durability: DurabilityOptions,
        checkpoint_interval: Option<Duration>,
    ) -> Result<(ConcurrentSketch<K>, Vec<RecoveryReport>), PersistError>
    where
        K: ItemCodec,
    {
        let (merge_config, _) = self.validated_parts()?;
        std::fs::create_dir_all(dir).map_err(|e| PersistError::io(dir, e))?;
        let meta = StoreMeta {
            num_shards: self.num_shards,
            counters_per_shard: self.counters_per_shard,
            merged_capacity: self.merged_capacity,
            policy: self.policy,
            seed: self.seed,
        };
        match read_store_meta(dir)? {
            Some(existing) if existing != meta => {
                return Err(PersistError::ConfigMismatch(format!(
                    "store in {} was created as {existing:?}, requested {meta:?}",
                    dir.display()
                )));
            }
            Some(_) => {}
            None => write_store_meta(dir, &meta)?,
        }
        let configs: Vec<EngineConfig> =
            (0..self.num_shards).map(|s| self.shard_config(s)).collect();
        let (stores, reports): (Vec<DurableSketch<K>>, Vec<RecoveryReport>) =
            open_bank::<K>(dir, &configs, durability)?
                .into_iter()
                .unzip();
        // Recovery merges the shards exactly as live snapshot publishes
        // do (Algorithm 5, shard order), so queries see the recovered
        // state before the first post-restart publish.
        let recovered = reports
            .iter()
            .any(|r| !matches!(r.source, crate::persist::RecoverySource::Fresh));
        let mut initial = merge_config.fresh_engine::<K>();
        let mut enqueued = 0u64;
        let mut last_ckpt = u64::MAX;
        for store in &stores {
            initial.merge(store.engine());
            enqueued += store.engine().stream_weight();
            last_ckpt = last_ckpt.min(store.last_checkpoint_epoch());
        }
        let bank_wal = Arc::clone(&stores[0].wal);
        let shared = Shared::new(
            Snapshot {
                engine: initial,
                epoch: u64::from(recovered),
                sealed: false,
            },
            Some(bank_wal),
            enqueued,
            if last_ckpt == u64::MAX { 0 } else { last_ckpt },
        );
        let backends: Vec<DurableShard<K>> = stores
            .into_iter()
            .map(|store| DurableShard { store })
            .collect();
        let sketch = self.assemble(backends, shared, merge_config, checkpoint_interval);
        Ok((sketch, reports))
    }
}

/// True once the bank's shared log holds a segment's worth of bytes —
/// the size trigger of a checkpoint round. The floor keeps a log just
/// truncated to its bare segment header from re-triggering when
/// segments are configured smaller than that header.
fn log_reached_segment<K: SketchKey>(shared: &Shared<K>) -> bool {
    shared
        .wal
        .as_ref()
        .is_some_and(|wal| wal.total_bytes() >= wal.segment_bytes().max(SEGMENT_HEADER_LEN + 1))
}

/// The checkpointer thread: runs coordinated rounds — one
/// [`Msg::Checkpoint`] probe per shard, replies collected in shard
/// order — on three triggers: on-demand requests, the optional periodic
/// interval, and the shared log reaching one segment. A round rotates
/// the log and truncates everything before the rotation, so the size
/// trigger bounds what a restart replays to about one segment whatever
/// the uptime or ingest rate. Reports the *minimum* epoch across shards
/// (the round every shard has completed).
fn checkpointer_loop<K: SketchKey>(
    shared: &Shared<K>,
    senders: &[SyncSender<Msg<K>>],
    interval: Option<Duration>,
    stop: &AtomicBool,
) {
    let mut last = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        let pending: Vec<SyncSender<u64>> = {
            let _rank = sanitize::rank_acquire(sanitize::rank::CKPT_REQUESTS, "ckpt requests");
            let mut queue = shared.ckpt_requests.lock().expect("ckpt queue poisoned");
            queue.drain(..).collect()
        };
        let due = interval.is_some_and(|iv| last.elapsed() >= iv);
        if pending.is_empty() && !due && !log_reached_segment(shared) {
            std::thread::sleep(PUBLISHER_TICK);
            continue;
        }
        let mut replies = Vec::with_capacity(senders.len());
        let mut alive = true;
        for sender in senders {
            let (tx, rx) = mpsc::sync_channel(1);
            sanitize::check_send(sanitize::rank::SHARD_CHANNEL, "shard channel");
            if sender.send(Msg::Checkpoint(tx)).is_err() {
                alive = false;
                break;
            }
            replies.push(rx);
        }
        let mut round = u64::MAX;
        if alive {
            for reply in replies {
                match reply.recv() {
                    Ok(epoch) => round = round.min(epoch),
                    Err(_) => {
                        alive = false;
                        break;
                    }
                }
            }
        }
        if !alive {
            break;
        }
        shared.last_checkpoint_epoch.store(round, Ordering::SeqCst);
        shared.checkpoint_rounds.fetch_add(1, Ordering::SeqCst);
        for requester in pending {
            let _ = requester.send(round);
        }
        last = Instant::now();
    }
    // Unanswered requesters observe the disconnect and report failure.
    let _rank = sanitize::rank_acquire(sanitize::rank::CKPT_REQUESTS, "ckpt requests");
    shared
        .ckpt_requests
        .lock()
        .expect("ckpt queue poisoned")
        .clear();
}

/// What a shard worker drives: either a bare engine (volatile, the
/// original behaviour) or a [`DurableSketch`] that logs every batch
/// before applying it. Abstracting the storage keeps one worker loop —
/// and one set of ordering/determinism guarantees — for both modes.
trait ShardBackend<K: SketchKey>: Send + 'static {
    /// Applies one batch (logging it first, if durable).
    fn apply_batch(&mut self, batch: &[(K, u64)]);
    /// The live engine, for snapshot probes.
    fn engine(&self) -> &SketchEngine<K>;
    /// Persists a checkpoint and returns its epoch (0 if volatile).
    fn checkpoint(&mut self) -> u64;
    /// Final teardown at drain: persists a last checkpoint (if durable)
    /// and releases the engine.
    fn finish(self) -> SketchEngine<K>;
}

/// The volatile backend: exactly the pre-durability worker state.
struct VolatileShard<K: SketchKey>(SketchEngine<K>);

impl<K: SketchKey + Send + 'static> ShardBackend<K> for VolatileShard<K> {
    fn apply_batch(&mut self, batch: &[(K, u64)]) {
        self.0.update_batch(batch);
    }
    fn engine(&self) -> &SketchEngine<K> {
        &self.0
    }
    fn checkpoint(&mut self) -> u64 {
        0
    }
    fn finish(self) -> SketchEngine<K> {
        self.0
    }
}

/// The durable backend: every batch is encoded with the shard's stream
/// tag and staged on the bank's shared group-commit log before it is
/// applied; checkpoint probes run the bank-wide round. Persistence
/// failures are treated as fatal for the shard (the worker panics with
/// context and [`ConcurrentSketch::drain`] surfaces it): continuing to
/// ingest while silently not logging would break the recovery contract.
struct DurableShard<K: SketchKey + ItemCodec> {
    store: DurableSketch<K>,
}

impl<K: SketchKey + ItemCodec + Send + Sync + 'static> ShardBackend<K> for DurableShard<K> {
    fn apply_batch(&mut self, batch: &[(K, u64)]) {
        self.store
            .update_batch(batch)
            .expect("shard WAL append failed");
    }
    fn engine(&self) -> &SketchEngine<K> {
        self.store.engine()
    }
    fn checkpoint(&mut self) -> u64 {
        // Blocks until every sibling shard reaches its own checkpoint
        // probe of this round (the checkpointer broadcasts to all shards
        // before collecting replies, and drain finishes all workers).
        // The epoch gauge is written only by the checkpointer's
        // round-minimum: a per-shard update here would transiently
        // report an epoch other shards have not completed yet.
        self.store.checkpoint().expect("shard checkpoint failed")
    }
    fn finish(mut self) -> SketchEngine<K> {
        // Drain seals the bank; one last checkpoint makes the sealed
        // state instantly recoverable without any WAL replay.
        self.checkpoint();
        self.store.into_engine()
    }
}

/// The shard worker loop: drain the channel into the owned backend;
/// answer snapshot and checkpoint probes. Returns the engine when every
/// sender is gone (drain).
fn shard_worker<K: SketchKey, B: ShardBackend<K>>(
    mut backend: B,
    rx: Receiver<Msg<K>>,
) -> SketchEngine<K> {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Batch(batch) => backend.apply_batch(&batch),
            Msg::Probe(reply) => {
                // A dropped reply receiver (publisher raced shutdown)
                // must not kill the worker.
                let _ = reply.send(backend.engine().clone());
            }
            Msg::Checkpoint(reply) => {
                let _ = reply.send(backend.checkpoint());
            }
            Msg::Barrier(reply) => {
                let _ = reply.send(());
            }
        }
    }
    backend.finish()
}

/// A bank of sketch shards ingesting concurrently behind bounded
/// channels, serving queries from periodically merged immutable
/// snapshots. See the [module docs](self) for the architecture,
/// staleness, and determinism contracts.
pub struct ConcurrentSketch<K: SketchKey + Send + Sync + 'static> {
    senders: Vec<SyncSender<Msg<K>>>,
    workers: Vec<JoinHandle<SketchEngine<K>>>,
    publisher: Option<JoinHandle<()>>,
    checkpointer: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    shared: Arc<Shared<K>>,
    merge_config: MergeConfig,
    drained_shards: Option<Vec<SketchEngine<K>>>,
}

impl<K: SketchKey + Send + Sync + 'static> ConcurrentSketch<K> {
    /// Starts a [`ConcurrentSketchBuilder`] for `num_shards` shards of
    /// `counters_per_shard` counters each.
    pub fn builder(num_shards: usize, counters_per_shard: usize) -> ConcurrentSketchBuilder<K> {
        ConcurrentSketchBuilder::new(num_shards, counters_per_shard)
    }

    /// Number of shard workers.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.workers.len().max(
            self.drained_shards
                .as_ref()
                .map_or(self.senders.len(), Vec::len),
        )
    }

    /// A new writer handle. Any number may exist across threads; their
    /// updates interleave arbitrarily (see the module docs for the
    /// determinism story).
    ///
    /// # Panics
    /// Panics if the sketch has been drained.
    pub fn writer(&self) -> ConcurrentWriter<K> {
        assert!(
            self.drained_shards.is_none(),
            "cannot create a writer after drain()"
        );
        ConcurrentWriter::new(self.senders.clone(), Arc::clone(&self.shared))
    }

    /// A cloneable read-side handle that outlives moves of `self`.
    pub fn reader(&self) -> SnapshotReader<K> {
        SnapshotReader {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The current published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot<K>> {
        self.reader().snapshot()
    }

    /// Ingests one logical stream deterministically from up to
    /// `num_writers` scoped writer threads (clamped to the shard
    /// count): writer `w` owns a contiguous group of shards, scans the
    /// whole slice, and enqueues the items routing to its group, so each
    /// shard sees its items in stream order through a single producer.
    /// The drained final state is **identical for every `num_writers`**
    /// and equal to a sequential [`crate::ShardedSketch::update_batch`]
    /// ingest of the same bank configuration.
    ///
    /// Runs concurrently with snapshot publishing and queries; returns
    /// when every item is enqueued and the scoped writers have exited
    /// (items may still be in flight in the channels — publish or drain
    /// to observe them all).
    pub fn ingest_slice_parallel(&self, stream: &[(K, u64)], num_writers: usize)
    where
        K: Sync,
    {
        let num_shards = self.senders.len();
        assert!(num_shards > 0, "cannot ingest after drain()");
        let num_writers = num_writers.clamp(1, num_shards);
        let shards_per_writer = num_shards.div_ceil(num_writers);
        std::thread::scope(|scope| {
            for (group, senders) in self.senders.chunks(shards_per_writer).enumerate() {
                let first_shard = group * shards_per_writer;
                let shared = &self.shared;
                scope.spawn(move || {
                    let group_len = senders.len();
                    let mut bufs: Vec<Vec<(K, u64)>> = (0..group_len)
                        .map(|_| Vec::with_capacity(WRITER_BUF))
                        .collect();
                    let flush = |buf: &mut Vec<(K, u64)>, local: usize| {
                        let batch = std::mem::replace(buf, Vec::with_capacity(WRITER_BUF));
                        let weight: u64 = batch.iter().map(|&(_, w)| w).sum();
                        sanitize::check_send(sanitize::rank::SHARD_CHANNEL, "shard channel");
                        senders[local]
                            .send(Msg::Batch(batch))
                            .expect("shard worker alive while senders exist");
                        shared.enqueued_weight.fetch_add(weight, Ordering::SeqCst);
                    };
                    for (item, weight) in stream {
                        let s = shard_of(item, num_shards);
                        if s < first_shard || s >= first_shard + group_len {
                            continue;
                        }
                        let local = s - first_shard;
                        bufs[local].push((item.clone(), *weight));
                        if bufs[local].len() == WRITER_BUF {
                            flush(&mut bufs[local], local);
                        }
                    }
                    for (local, buf) in bufs.iter_mut().enumerate() {
                        if !buf.is_empty() {
                            flush(buf, local);
                        }
                    }
                });
            }
        });
    }

    /// Synchronously publishes a fresh merged snapshot covering every
    /// update whose enqueue completed before this call. Returns the
    /// published snapshot (or the sealed final snapshot post-drain).
    pub fn publish_now(&self) -> Arc<Snapshot<K>> {
        publish_from_probes(&self.shared, &self.senders, self.merge_config);
        self.snapshot()
    }

    /// Synchronously checkpoints every shard (durable banks only): a
    /// coordinated round covering every update whose enqueue completed
    /// before this call. Returns the epoch all shards reached, or `None`
    /// for volatile banks / after drain / on timeout (30 s).
    pub fn checkpoint_now(&self) -> Option<u64> {
        self.reader().request_checkpoint(Duration::from_secs(30))
    }

    /// Graceful shutdown of ingestion: stops the periodic publisher,
    /// closes the shard channels, joins every worker after it drains its
    /// backlog, publishes the final **sealed** merged snapshot, and
    /// returns the per-shard engines. Queries through
    /// [`Self::snapshot`] / [`SnapshotReader`] keep working against the
    /// final view.
    ///
    /// Outstanding [`ConcurrentWriter`] handles keep their channels
    /// open, so they must all be dropped before `drain` can join the
    /// workers; `drain` blocks until then. Idempotent.
    pub fn drain(&mut self) -> &[SketchEngine<K>] {
        if self.drained_shards.is_none() {
            self.stop.store(true, Ordering::SeqCst);
            if let Some(publisher) = self.publisher.take() {
                publisher.join().expect("publisher thread panicked");
            }
            if let Some(checkpointer) = self.checkpointer.take() {
                checkpointer.join().expect("checkpointer thread panicked");
            }
            self.senders.clear();
            let shards: Vec<SketchEngine<K>> = self
                .workers
                .drain(..)
                .map(|w| w.join().expect("shard worker panicked"))
                .collect();
            let _guard = self
                .shared
                .publish_lock
                .lock()
                .expect("publish lock poisoned");
            let mut merged = self.merge_config.fresh_engine();
            for shard in &shards {
                merged.merge(shard);
            }
            install_snapshot(&self.shared, merged, true);
            self.drained_shards = Some(shards);
        }
        self.drained_shards
            .as_deref()
            .expect("drained state just installed")
    }

    /// The per-shard engines of a drained sketch, if [`Self::drain`]
    /// has run.
    pub fn drained_shards(&self) -> Option<&[SketchEngine<K>]> {
        self.drained_shards.as_deref()
    }
}

impl<K: SketchKey + Send + Sync + 'static> Drop for ConcurrentSketch<K> {
    /// Best-effort shutdown so dropping a live sketch does not leak
    /// threads: equivalent to [`Self::drain`] minus the final publish
    /// if one already happened. Blocks until outstanding writers drop,
    /// like `drain`.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(publisher) = self.publisher.take() {
            let _ = publisher.join();
        }
        if let Some(checkpointer) = self.checkpointer.take() {
            let _ = checkpointer.join();
        }
        self.senders.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_stream(len: u64) -> Vec<(u64, u64)> {
        (0..len)
            .map(|i| {
                let item = (i * 2_654_435_761) % 3_000;
                let w = if item < 4 { 500 } else { i % 11 + 1 };
                (item, w)
            })
            .collect()
    }

    #[test]
    fn initial_snapshot_is_empty_epoch_zero() {
        let sketch: ConcurrentSketch<u64> = ConcurrentSketch::builder(2, 32).build().unwrap();
        let snap = sketch.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.stream_weight(), 0);
        assert!(!snap.is_sealed());
    }

    #[test]
    fn publish_now_observes_flushed_writer() {
        let sketch: ConcurrentSketch<u64> = ConcurrentSketch::builder(4, 64).build().unwrap();
        let mut writer = sketch.writer();
        for (item, w) in test_stream(10_000) {
            writer.write(item, w);
        }
        writer.flush();
        let enqueued = sketch.reader().enqueued_weight();
        let snap = sketch.publish_now();
        assert_eq!(snap.epoch(), 1);
        assert!(
            snap.stream_weight() >= enqueued,
            "snapshot {} misses enqueued weight {}",
            snap.stream_weight(),
            enqueued
        );
        drop(writer);
    }

    #[test]
    fn drain_publishes_sealed_complete_snapshot() {
        let stream = test_stream(30_000);
        let total: u64 = stream.iter().map(|&(_, w)| w).sum();
        let mut sketch: ConcurrentSketch<u64> = ConcurrentSketch::builder(4, 64).build().unwrap();
        sketch.ingest_slice_parallel(&stream, 2);
        let reader = sketch.reader();
        let shards = sketch.drain();
        assert_eq!(shards.len(), 4);
        let snap = reader.snapshot();
        assert!(snap.is_sealed());
        assert!(reader.is_sealed());
        assert_eq!(snap.stream_weight(), total);
        // Drain is idempotent and queries keep working.
        sketch.drain();
        assert_eq!(sketch.snapshot().stream_weight(), total);
    }

    #[test]
    fn epochs_strictly_increase() {
        let sketch: ConcurrentSketch<u64> = ConcurrentSketch::builder(2, 32).build().unwrap();
        let mut writer = sketch.writer();
        writer.write(7, 100);
        writer.flush();
        let a = sketch.publish_now().epoch();
        let b = sketch.publish_now().epoch();
        assert!(b > a);
        drop(writer);
    }

    #[test]
    fn periodic_publisher_advances_epochs() {
        let sketch: ConcurrentSketch<u64> = ConcurrentSketch::builder(2, 32)
            .publish_every(Duration::from_millis(5))
            .build()
            .unwrap();
        let mut writer = sketch.writer();
        let deadline = Instant::now() + Duration::from_secs(10);
        while sketch.reader().epoch() < 3 {
            writer.write(1, 1);
            writer.flush();
            assert!(Instant::now() < deadline, "publisher made no progress");
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(writer);
    }

    #[test]
    fn builder_rejects_zero_shards() {
        assert!(matches!(
            ConcurrentSketch::<u64>::builder(0, 16).build(),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn builder_rejects_invalid_merged_capacity() {
        // An invalid merged-export configuration must surface as Err,
        // not a panic deep inside the first publish.
        assert!(matches!(
            ConcurrentSketch::<u64>::builder(2, 16)
                .merged_capacity(0)
                .build(),
            Err(Error::InvalidConfig(_))
        ));
    }

    fn tmp_store(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("streamfreq-concurrent-durable")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durability() -> DurabilityOptions {
        DurabilityOptions {
            fsync: crate::persist::FsyncPolicy::Off,
            segment_bytes: 1 << 20,
        }
    }

    #[test]
    fn durable_bank_survives_reopen_with_exact_state() {
        let dir = tmp_store("reopen");
        let stream = test_stream(25_000);
        let total: u64 = stream.iter().map(|&(_, w)| w).sum();

        let (mut sketch, reports) = ConcurrentSketch::<u64>::builder(4, 64)
            .seed(3)
            .build_durable(&dir, durability(), None)
            .unwrap();
        assert!(reports
            .iter()
            .all(|r| matches!(r.source, crate::persist::RecoverySource::Fresh)));
        assert!(sketch.reader().is_durable());
        sketch.ingest_slice_parallel(&stream, 2);
        let epoch = sketch.checkpoint_now().expect("checkpoint round");
        assert!(epoch >= 1);
        assert_eq!(sketch.reader().last_checkpoint_epoch(), epoch);
        sketch.drain();
        let sealed_fp = sketch.snapshot().engine().state_fingerprint();
        assert_eq!(sketch.snapshot().stream_weight(), total);
        drop(sketch);

        // Reopen: the recovered initial snapshot equals the sealed one,
        // before any new ingestion or publish.
        let (mut sketch, reports) = ConcurrentSketch::<u64>::builder(4, 64)
            .seed(3)
            .build_durable(&dir, durability(), None)
            .unwrap();
        assert!(reports
            .iter()
            .all(|r| matches!(r.source, crate::persist::RecoverySource::CheckpointOnly)));
        let snap = sketch.snapshot();
        assert_eq!(snap.epoch(), 1, "recovered state published at epoch 1");
        assert_eq!(snap.stream_weight(), total);
        assert_eq!(snap.engine().state_fingerprint(), sealed_fp);
        assert_eq!(sketch.reader().enqueued_weight(), total);

        // And the bank keeps ingesting where it left off.
        sketch.ingest_slice_parallel(&stream, 1);
        sketch.drain();
        assert_eq!(sketch.snapshot().stream_weight(), 2 * total);
    }

    #[test]
    fn checkpoint_truncates_wal() {
        let dir = tmp_store("truncate");
        let (mut sketch, _) = ConcurrentSketch::<u64>::builder(2, 64)
            .build_durable(&dir, durability(), None)
            .unwrap();
        sketch.ingest_slice_parallel(&test_stream(20_000), 1);
        sketch.publish_now(); // barrier: all batches applied (FIFO)
        let before = sketch.reader().wal_bytes();
        assert!(before > 0);
        sketch.checkpoint_now().unwrap();
        let after = sketch.reader().wal_bytes();
        assert!(after < before, "WAL not truncated: {before} -> {after}");
        sketch.drain();
    }

    #[test]
    fn flush_applied_then_sync_puts_every_written_batch_on_disk() {
        let dir = tmp_store("flush-applied");
        let (sketch, _) = ConcurrentSketch::<u64>::builder(3, 64)
            .build_durable(&dir, durability(), None)
            .unwrap();
        let stream = test_stream(30_000);
        let mut writer = sketch.writer();
        writer.write_batch(&stream);
        writer.flush_applied();
        sketch.reader().sync().unwrap();
        let start = crate::persist::WalPosition {
            segment: 1,
            offset: SEGMENT_HEADER_LEN,
        };
        let mut on_disk = 0u64;
        crate::persist::wal::scan_from::<u64>(&dir, start, |record| {
            on_disk += record.batch.iter().map(|&(_, w)| w).sum::<u64>();
            Ok(())
        })
        .unwrap();
        assert_eq!(on_disk, stream.iter().map(|&(_, w)| w).sum::<u64>());
        drop(writer);
    }

    #[test]
    fn periodic_checkpointer_advances_epochs() {
        let dir = tmp_store("periodic");
        let (sketch, _) = ConcurrentSketch::<u64>::builder(2, 32)
            .build_durable(&dir, durability(), Some(Duration::from_millis(5)))
            .unwrap();
        let mut writer = sketch.writer();
        let deadline = Instant::now() + Duration::from_secs(10);
        while sketch.reader().last_checkpoint_epoch() < 2 {
            writer.write(1, 1);
            writer.flush();
            assert!(Instant::now() < deadline, "checkpointer made no progress");
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(writer);
    }

    #[test]
    fn volatile_bank_reports_no_durability() {
        let sketch: ConcurrentSketch<u64> = ConcurrentSketch::builder(2, 32).build().unwrap();
        assert!(!sketch.reader().is_durable());
        assert_eq!(sketch.reader().wal_bytes(), 0);
        assert_eq!(sketch.checkpoint_now(), None);
        assert_eq!(
            sketch
                .reader()
                .request_checkpoint(Duration::from_millis(10)),
            None
        );
    }

    #[test]
    fn durable_rejects_reconfigured_store() {
        let dir = tmp_store("reconfigure");
        let (sketch, _) = ConcurrentSketch::<u64>::builder(2, 32)
            .build_durable(&dir, durability(), None)
            .unwrap();
        drop(sketch);
        match ConcurrentSketch::<u64>::builder(4, 32).build_durable(&dir, durability(), None) {
            Err(PersistError::ConfigMismatch(_)) => {}
            Err(other) => panic!("wrong error: {other:?}"),
            Ok(_) => panic!("reconfigured store accepted"),
        }
    }

    #[test]
    fn string_keys_serve_concurrently() {
        let mut sketch: ConcurrentSketch<String> =
            ConcurrentSketch::builder(2, 64).seed(9).build().unwrap();
        let mut writer = sketch.writer();
        // 30 distinct flows fit the 64-counter merged view outright, so
        // every flow stays tracked with an exact estimate.
        for i in 0..5_000u64 {
            writer.write(format!("flow-{}", i % 30), i % 7 + 1);
        }
        drop(writer); // flush via Drop
        let snap = sketch.publish_now();
        assert!(snap.stream_weight() > 0);
        sketch.drain();
        let sealed = sketch.snapshot();
        assert!(sealed.is_sealed());
        assert!(sealed.estimate(&"flow-1".to_string()) > 0);
    }
}
