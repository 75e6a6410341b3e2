//! # streamfreq-core
//!
//! A high-performance frequent-items sketch for data streams — a from-
//! scratch Rust implementation of
//!
//! > Anderson, Bevin, Lang, Liberty, Rhodes, Thaler.
//! > *A High-Performance Algorithm for Identifying Frequent Items in Data
//! > Streams.* IMC 2017 (arXiv:1705.07001),
//!
//! the algorithm deployed in Apache DataSketches as the Frequent Items
//! Sketch.
//!
//! ## What it does
//!
//! In one pass over a stream of weighted updates `(item, Δ)`, a
//! [`FreqSketch`] with `k` counters maintains, in `24k` bytes:
//!
//! * point estimates `f̂ᵢ` with certified bounds
//!   `lower_bound ≤ fᵢ ≤ upper_bound`,
//! * (φ, ε)-heavy hitters with either a no-false-positives or a
//!   no-false-negatives contract ([`ErrorType`]),
//! * amortized **O(1)** update time for *weighted* updates — the paper's
//!   first headline contribution — via sample-quantile purging
//!   ([`PurgePolicy`], default SMED), and
//! * mergeability (Algorithm 5) with error bounded by Theorem 5 — the
//!   second headline contribution.
//!
//! ## Quick start
//!
//! ```
//! use streamfreq_core::{FreqSketch, ErrorType};
//!
//! // Track network flows by bytes sent, with ~64 counters of state.
//! let mut sketch = FreqSketch::with_max_counters(64);
//! for (flow, bytes_sent) in [(10u64, 1500u64), (10, 1500), (20, 40), (10, 9000)] {
//!     sketch.update(flow, bytes_sent);
//! }
//! assert_eq!(sketch.estimate(10), 12_000);
//! let heavy = sketch.heavy_hitters(0.5, ErrorType::NoFalsePositives);
//! assert_eq!(heavy[0].item, 10);
//! ```
//!
//! ## Module map
//!
//! One generic engine sits under every public sketch variant:
//!
//! | module | contents |
//! |---|---|
//! | [`engine`] | [`SketchEngine<K>`](engine::SketchEngine) — the one generic core: updates, batching, purge, merge, bounds |
//! | [`sketch`] | [`FreqSketch`] = `SketchEngine<u64>` — the paper's sketch with by-value `u64` queries |
//! | [`items`] | [`ItemsSketch<T>`](ItemsSketch) = `SketchEngine<T>` for arbitrary item types |
//! | [`sharded`] | [`ShardedSketch<K>`](ShardedSketch) — hash-partitioned multi-core ingestion over engine shards |
//! | [`concurrent`] | [`ConcurrentSketch<K>`](ConcurrentSketch) — long-lived serving layer: channel-fed shard workers, immutable merged snapshots |
//! | [`signed`] | [`SignedSketch<K>`](SignedSketch) — deletions via §1.3's two-instance reduction |
//! | [`purge`] | decrement policies: SMED / SMIN / quantile sweep / MED / global-min |
//! | [`table`] | the §2.3.3 linear-probing counter table, generic over [`engine::SketchKey`] |
//! | [`select`] | Hoare's quickselect (Algorithm 65: FIND) |
//! | [`bounds`] | a-priori error arithmetic (Lemmas 1–4, Theorems 2/4/5) |
//! | [`result`] | heavy-hitter rows and reporting contracts |
//! | [`codec`] | versioned binary wire format (on `SketchEngine<u64>`) |
//! | [`item_codec`] | per-type wire encodings for [`ItemsSketch`] |
//! | [`persist`] | durability: CRC-framed WAL, atomic checkpoints, crash recovery ([`DurableSketch`]) |
//! | [`hashing`], [`rng`] | deterministic hashing and sampling substrate |
//!
//! ## Guarantees
//!
//! With the default SMED policy (`ℓ = 1024`), Theorems 3–4 of the paper
//! give amortized O(1) updates and, with probability ≥ 1 − 1.5·10⁻⁸ on
//! streams of weight ≤ 10²⁰ (§2.3.2),
//!
//! ```text
//! 0 ≤ fᵢ − lower_bound(i) ≤ N^res(j) / (0.33·k − j)   for any j < 0.33k.
//! ```
//!
//! The a-posteriori error [`FreqSketch::maximum_error`] is typically far
//! smaller than the a-priori bound and is exact: every estimate is within
//! `maximum_error` of the truth.
//!
//! ## Out of scope (by design, matching the paper)
//!
//! * Deletions / negative weights: counter-based summaries target
//!   insertion streams (§1.3 Note shows the two-instance reduction if
//!   deletions are rare).
//! * Adversarial hash-collision resistance: hashing is deterministic for
//!   reproducibility and wire compatibility; an adversary who can choose
//!   items after inspecting the code can lengthen probe runs. The same
//!   holds for the deployed DataSketches implementation.

// `deny` rather than `forbid`: the sanctioned exceptions, each listed in
// UNSAFE_LEDGER.md, are the bounds-checked software-prefetch helper in
// `table` (the `_mm_prefetch` intrinsic on x86-64, see
// `table::prefetch_read`) and the SSE4.2 CRC-32C path in `persist`.
#![deny(unsafe_code)]
// Inside the sanctioned `unsafe fn`s, every unsafe operation still needs
// its own `unsafe {}` block — no blanket-unsafe function bodies.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bounds;
pub mod cluster;
pub mod codec;
pub mod concurrent;
pub mod engine;
pub mod error;
pub mod hashing;
pub mod item_codec;
pub mod items;
pub mod persist;
pub mod purge;
pub mod result;
pub mod rng;
pub mod sanitize;
pub mod select;
pub mod sharded;
pub mod signed;
pub mod sketch;
pub mod table;
pub mod traits;

pub use bounds::phi_threshold;
pub use cluster::{HashRing, NodeSpec, Topology};
pub use concurrent::{
    ConcurrentSketch, ConcurrentSketchBuilder, ConcurrentWriter, Snapshot, SnapshotReader,
};
pub use engine::{SketchEngine, SketchEngineBuilder, SketchKey};
pub use error::Error;
pub use items::{ItemsSketch, ItemsSketchBuilder};
pub use persist::{DurabilityOptions, DurableSketch, EngineConfig, FsyncPolicy, PersistError};
pub use purge::PurgePolicy;
pub use result::{ErrorType, Row};
pub use sharded::{ShardedSketch, ShardedSketchBuilder};
pub use signed::{SignedFreqSketch, SignedSketch};
pub use sketch::{FreqSketch, FreqSketchBuilder};
pub use traits::{CounterSummary, FrequencyEstimator};
