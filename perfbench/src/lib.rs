//! Library half of the repository benchmark: statistics, tracing, the
//! process/protocol harness, and the workloads. `src/main.rs` is
//! the command-line front end; `tests/` holds the benchmark's own tests.

pub mod calib;
pub mod cluster_e2e;
pub mod live;
pub mod net;
pub mod node_mixed;
pub mod replay;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

/// The end-to-end metrics every `--trace 0` run reports, with units.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_ups", "updates/s"),
    ("query_p50_ms", "ms"),
    ("visible_lag_ms", "ms"),
    ("recover_s", "s"),
    ("node_rss_mb", "MiB"),
    ("disk_bytes_per_update", "B"),
];

/// The per-layer metrics every `--trace 1` run reports, with units.
/// `_per_kup` means per 1 000 updates.
pub const LAYERS: &[(&str, &str)] = &[
    ("engine.update_us_per_kup", "us/kup"),
    ("engine.purges", "count"),
    ("engine.merge_s", "s"),
    ("codec.serialize_s", "s"),
    ("codec.deserialize_s", "s"),
    ("codec.bytes_per_counter", "B"),
    ("concurrent.write_us_per_kup", "us/kup"),
    ("concurrent.publish_ms", "ms"),
    ("concurrent.publishes", "count"),
    ("concurrent.snapshot_us", "us"),
    ("persist.append_us_per_kup", "us/kup"),
    ("persist.sync_ms", "ms"),
    ("persist.fsyncs", "count"),
    ("persist.frames_per_fsync", "ratio"),
    ("persist.wal_bytes_per_update", "B"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.replay_ups", "updates/s"),
    ("persist.ack_to_durable_ms", "ms"),
    ("wire.ingest_encode_us_per_kup", "us/kup"),
    ("wire.ingest_decode_us_per_kup", "us/kup"),
    ("wire.ingest_bytes_per_update", "B"),
    ("wire.snap_encode_ms", "ms"),
    ("wire.snap_decode_ms", "ms"),
    ("wire.snap_bytes", "B"),
    ("ring.route_ns_per_update", "ns"),
    ("serve.ingest_rtt_ms", "ms"),
    ("serve.est_rtt_us", "us"),
    ("serve.topk_rtt_us", "us"),
    ("serve.hh_rtt_us", "us"),
    ("cluster.node_ship_s", "s"),
    ("cluster.node_idle_frac", "ratio"),
    ("cluster.connect_ms", "ms"),
    ("cluster.snap_rtt_ms", "ms"),
    ("cluster.decode_ms", "ms"),
    ("cluster.merge_ms", "ms"),
    ("cluster.refresh_ms", "ms"),
    ("cluster.answer_us", "us"),
    ("gen.late_ms", "ms"),
    ("trace.unattributed_us_per_kup", "us/kup"),
    ("trace.overhead_frac", "ratio"),
];

/// Share of the machine's CPU time the hypervisor may steal during an
/// attempt before the attempt is measured again: above it, every CPU-
/// and latency-bound metric moves with the host, not the code.
pub const STEAL_LIMIT: f64 = 0.02;

/// Attempts per untraced run; the least-stolen one is reported.
pub const MAX_ATTEMPTS: usize = 2;

/// A run whose generator sent its p99 request later than this after
/// the request's due time measured the generator, not the system: it
/// is reported as invalid (`"correct": false`).
pub const LATE_BOUND_MS: f64 = 50.0;

/// Run size: `Full` is the benchmark; `Tiny` is the self-test scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// What one run needs to know.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// The `streamfreq` executable.
    pub bin: PathBuf,
    /// Parent of the run's scratch directory (inside the checkout).
    pub work_root: PathBuf,
    pub scale: Scale,
}

impl Ctx {
    pub fn tiny(&self) -> bool {
        self.scale == Scale::Tiny
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarizes.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// The run's ingest rate, for the tracing-overhead comparison.
    pub ingest_ups: f64,
    /// p99 generator lateness in ms (0 where nothing is scheduled).
    pub late_p99_ms: f64,
    /// `"key": value` JSON fragments: workload parameters.
    pub params: Vec<String>,
    /// `"key": value` JSON fragments: percentiles and sample counts.
    pub detail: Vec<String>,
}

/// Fails a correctness check by name.
pub fn check(ok: bool, name: &str, detail: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness check `{name}` failed: {}", detail()))
    }
}

/// Deterministic splitmix64 generator for the benchmark's own choices
/// (query mix, probe picks), seeded from `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_u64)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Probe items for answer checks: the `head` heaviest items of the
/// stream plus `random` items drawn from it, with their exact weights.
pub fn probes(stream: &[(u64, u64)], head: usize, random: usize, rng: &mut Rng) -> Vec<(u64, u64)> {
    let mut exact: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for &(item, weight) in stream {
        *exact.entry(item).or_insert(0) += weight;
    }
    let mut by_weight: Vec<(u64, u64)> = exact.iter().map(|(&i, &w)| (i, w)).collect();
    by_weight.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut out: Vec<(u64, u64)> = by_weight.into_iter().take(head).collect();
    for _ in 0..random {
        let item = stream[rng.below(stream.len() as u64) as usize].0;
        if !out.iter().any(|&(i, _)| i == item) {
            out.push((item, exact[&item]));
        }
    }
    out
}

/// Median of millisecond samples as a metric.
pub fn median_metric(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
    Metric::new(name, stats::median(values), unit, values.len())
}

/// Restarts per full-scale run behind `recover_s`.
pub const RECOVER_REPS: usize = 10;

/// The fastest of several timings as a metric. Recovery is one
/// single-threaded, page-fault-heavy second of work: on a shared 2-vCPU
/// VM its timings drift with the neighbours by a quarter between runs, even
/// as a median, while the fastest of ten restarts stays within a few
/// percent and still moves with the program's own recovery cost.
pub fn fastest_metric(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
    let fastest = values.iter().copied().fold(f64::INFINITY, f64::min);
    Metric::new(name, fastest, unit, values.len())
}

/// Writes the traced run's spans as JSON lines beside the work dirs.
pub fn write_spans(ctx: &Ctx, tracer: &trace::Tracer) {
    let path = ctx
        .work_root
        .join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
    let mut text = String::new();
    for (i, s) in tracer.spans().iter().enumerate() {
        text.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"req\": {}}}\n",
            s.name,
            s.start,
            s.end,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.req
        ));
    }
    let _ = std::fs::write(path, text);
}
