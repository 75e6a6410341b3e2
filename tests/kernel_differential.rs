//! Differential proptests pinning the batched ingest path to the
//! scalar reference path, state for state.
//!
//! Batch ingest (in-batch aggregation, the low-duplication bypass, and
//! the prefetched table sweep both end in) is an optimization, not a
//! semantic change: for every update sequence it must leave the engine
//! in **exactly** the state the one-update-at-a-time scalar path
//! produces — same table layout slot by slot, same sampler state, same
//! purge clock. That contract is what `state_fingerprint()` hashes, so
//! each test here feeds the same stream both ways and compares
//! fingerprints.
//!
//! Batch *shapes* are adversarial by construction, because the batch
//! path's branches are shape-dependent:
//! - **all-distinct** keys drive the aggregation pass to zero
//!   duplicates and (once a pass clears the sizing floor) flip the
//!   engine onto the direct bypass;
//! - **all-duplicate** batches collapse to a single aggregated upsert;
//! - **clustered** keys (a tiny id range) pile many probes onto few
//!   home slots, exercising long probe runs;
//! - small `k` forces purges mid-batch; `grow_from_small` (the builder
//!   default) forces table growth mid-batch.

use proptest::prelude::*;

use streamfreq::apps::DecayedSketch;
use streamfreq::{FreqSketch, PurgePolicy};

/// Batch shapes the batch path branches on. `Mixed` is the honest
/// middle: Zipf-ish duplication around the aggregation break-even.
#[derive(Clone, Copy, Debug)]
enum Shape {
    AllDistinct,
    AllDuplicate,
    Clustered,
    Mixed,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::AllDistinct),
        Just(Shape::AllDuplicate),
        Just(Shape::Clustered),
        Just(Shape::Mixed),
    ]
}

/// Materializes a stream of the given shape from proptest-drawn raw
/// material. Weights stay small so purge pressure comes from counter
/// occupancy, not stream weight.
fn build_stream(shape: Shape, raw: &[(u64, u64)], salt: u64) -> Vec<(u64, u64)> {
    match shape {
        // Distinct keys spread over the full hash range: near-zero
        // in-batch duplication, the bypass regime.
        Shape::AllDistinct => raw
            .iter()
            .enumerate()
            .map(|(i, &(_, w))| (salt.wrapping_add(i as u64), w.clamp(1, 16)))
            .collect(),
        // One hot key: the whole batch aggregates to a single pair.
        Shape::AllDuplicate => raw.iter().map(|&(_, w)| (salt, w.clamp(1, 16))).collect(),
        // Keys from a range of 8 ids: probe chains stack on a handful
        // of home slots.
        Shape::Clustered => raw
            .iter()
            .map(|&(id, w)| (salt.wrapping_add(id % 8), w.clamp(1, 16)))
            .collect(),
        Shape::Mixed => raw
            .iter()
            .map(|&(id, w)| (salt.wrapping_add(id % 64), w.clamp(1, 16)))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch vs scalar across purge and grow: for every shape, split,
    /// and policy, `update_batch` is fingerprint-identical to `update`.
    #[test]
    fn kernel_batch_matches_scalar(
        raw in proptest::collection::vec((0u64..256, 1u64..16), 1..1_500),
        shape in arb_shape(),
        k in 8usize..96,
        split in 1usize..400,
        salt in any::<u64>(),
        policy in prop_oneof![
            Just(PurgePolicy::smed()),
            Just(PurgePolicy::smin()),
            Just(PurgePolicy::GlobalMin),
        ],
    ) {
        let stream = build_stream(shape, &raw, salt);
        let mut scalar = FreqSketch::builder(k).policy(policy).build().unwrap();
        for &(item, w) in &stream {
            scalar.update(item, w);
        }
        let mut batched = FreqSketch::builder(k).policy(policy).build().unwrap();
        for chunk in stream.chunks(split) {
            batched.update_batch(chunk);
        }
        prop_assert_eq!(batched.num_purges(), scalar.num_purges());
        prop_assert_eq!(
            batched.engine().state_fingerprint(),
            scalar.engine().state_fingerprint(),
            "shape {:?}", shape
        );
    }

    /// The low-duplication bypass: streams long enough to clear the
    /// dispatch floor (4096 applied updates per aggregation pass) with
    /// all-distinct keys flip the engine onto the direct weighted
    /// sweep, and the state must still match the scalar path exactly.
    /// A trailing hot-key burst then re-measures duplication and flips
    /// dispatch back, so both transitions are covered in one run.
    #[test]
    fn bypass_kernel_matches_scalar(
        n in 9_000usize..14_000,
        k in 256usize..1024,
        salt in any::<u64>(),
        burst in 512usize..2_048,
    ) {
        let mut stream: Vec<(u64, u64)> = (0..n)
            .map(|i| (salt.wrapping_add(i as u64), 1))
            .collect();
        stream.extend((0..burst).map(|i| (salt.wrapping_add((i % 16) as u64), 2)));
        let mut scalar = FreqSketch::builder(k).build().unwrap();
        for &(item, w) in &stream {
            scalar.update(item, w);
        }
        let mut batched = FreqSketch::builder(k).build().unwrap();
        batched.update_batch(&stream);
        prop_assert_eq!(
            batched.engine().state_fingerprint(),
            scalar.engine().state_fingerprint()
        );
    }

    /// Lazy decay vs eager decay: deferring the per-epoch scale to a
    /// forward-inflated ingest must not change a single answer. The two
    /// sketches see identical (timestamp, item, weight) sequences with
    /// decay materialization forced at arbitrary points, and every
    /// estimate, bound, and the decayed stream weight must agree.
    #[test]
    fn lazy_decay_matches_eager(
        ops in proptest::collection::vec(
            (0u64..40, 1u64..200, 0u8..12),
            1..600,
        ),
        k in 8usize..64,
        den in 2u64..10,
    ) {
        // 1/den factors are the ones the lazy path actually defers
        // (other shapes silently keep eager scaling, which would make
        // this test vacuous).
        let mut eager: DecayedSketch<u64> = DecayedSketch::new(k, 4, (1, den));
        let mut lazy: DecayedSketch<u64> = DecayedSketch::new(k, 4, (1, den)).lazy();
        prop_assert!(lazy.is_lazy());
        let mut now = 0u64;
        for (i, &(item, w, dt)) in ops.iter().enumerate() {
            now += dt as u64;
            eager.record(now, item, w);
            lazy.record(now, item, w);
            if i % 97 == 96 {
                // Forced materialization mid-stream must be a no-op
                // semantically.
                lazy.materialize();
            }
        }
        prop_assert_eq!(lazy.num_ticks(), eager.num_ticks());
        prop_assert_eq!(lazy.decayed_weight(), eager.decayed_weight());
        prop_assert_eq!(lazy.maximum_error(), eager.maximum_error());
        for item in 0..40u64 {
            prop_assert_eq!(lazy.estimate(&item), eager.estimate(&item), "item {}", item);
            prop_assert_eq!(lazy.lower_bound(&item), eager.lower_bound(&item));
            prop_assert_eq!(lazy.upper_bound(&item), eager.upper_bound(&item));
        }
        lazy.check_invariants();
        eager.check_invariants();
    }
}

/// A deterministic heavyweight case kept outside proptest: a stream
/// long enough to cross several bypass re-probe windows (64 direct
/// sub-chunks between duplication re-measurements) with a duplication
/// phase change in the middle. Catches dispatch-boundary bugs that the
/// smaller random cases may miss, at a fixed cost.
#[test]
fn bypass_reprobe_boundary_matches_scalar() {
    let mut stream: Vec<(u64, u64)> = Vec::new();
    // Phase 1: 300k distinct keys — bypass engages and stays on
    // through multiple re-probe windows.
    stream.extend((0..300_000u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), 1)));
    // Phase 2: heavy duplication — the next re-measurement must switch
    // aggregation back on without perturbing state.
    stream.extend((0..100_000u64).map(|i| (i % 512, 3)));
    let k = 4_096;
    let mut scalar = FreqSketch::builder(k).build().unwrap();
    for &(item, w) in &stream {
        scalar.update(item, w);
    }
    let mut batched = FreqSketch::builder(k).build().unwrap();
    batched.update_batch(&stream);
    assert_eq!(batched.num_purges(), scalar.num_purges());
    assert_eq!(
        batched.engine().state_fingerprint(),
        scalar.engine().state_fingerprint()
    );
}
