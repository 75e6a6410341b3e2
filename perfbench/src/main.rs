//! The streamfreq repository benchmark.
//!
//! ```text
//! perfbench --workload <node_mixed|cluster_e2e> --seed N \
//!     --seconds S --trace <0|1> --streamfreq PATH [--work-dir DIR] [--scale full|tiny]
//! ```
//!
//! One run executes one workload against the real public surfaces
//! (`streamfreq serve`, `cluster-ingest` and `cluster-serve` as child
//! processes; the `streamfreq-core` library for references and the
//! traced replay), checks the answers, and prints as
//! its last stdout line
//! `{"correct": true, "attempted": A, "failed": F, "metrics": {...}}`.
//! With `--trace 0` the metrics are the end-to-end metrics; with
//! `--trace 1` they are the per-layer metrics of a separate traced run.
//! A failed correctness check names itself on stderr and exits 2
//! without printing metrics. The line before the result is a JSON run
//! report: provenance, calibration, sample counts and percentiles.

use perfbench::stats::num;
use perfbench::trace::Tracer;
use perfbench::{calib, cluster_e2e, node_mixed};
use perfbench::{Ctx, Metric, Outcome, Scale, E2E, LAYERS};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <node_mixed|cluster_e2e> --seed N \
         --seconds S --trace <0|1> --streamfreq PATH [--work-dir DIR] [--scale full|tiny]"
    );
    std::process::exit(64);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

pub fn run_workload(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    match ctx.workload.as_str() {
        "node_mixed" => node_mixed::run(ctx, tracer),
        "cluster_e2e" => cluster_e2e::run(ctx, tracer),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The untraced run: measures again when the hypervisor stole more than
/// `STEAL_LIMIT` of the machine's CPU time during the attempt, and keeps
/// the least-stolen attempt. `attempts` receives each attempt's share.
fn measure(ctx: &Ctx, hw: usize, attempts: &mut Vec<f64>) -> Result<Outcome, String> {
    let mut best: Option<(f64, Outcome)> = None;
    for _ in 0..perfbench::MAX_ATTEMPTS {
        let (steal0, t0) = (calib::steal_s(), std::time::Instant::now());
        let outcome = run_workload(ctx, &mut Tracer::new(false))?;
        let stolen = (calib::steal_s() - steal0) / (t0.elapsed().as_secs_f64() * hw as f64);
        attempts.push(stolen);
        if best.as_ref().is_none_or(|(least, _)| stolen < *least) {
            best = Some((stolen, outcome));
        }
        if stolen <= perfbench::STEAL_LIMIT {
            break;
        }
    }
    best.map(|(_, outcome)| outcome)
        .ok_or_else(|| "no attempt ran".to_string())
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn samples_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, m.samples))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Orders `got` as `spec` lists it, failing on a missing or extra name
/// or a non-finite value.
fn conform(got: Vec<Metric>, spec: &[(&str, &str)]) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    for (name, unit) in spec {
        let m = got
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if m.unit != *unit {
            return Err(format!("metric `{name}` has unit {} not {unit}", m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("metric `{name}` is not finite ({})", m.value));
        }
        out.push(m.clone());
    }
    if let Some(extra) = got.iter().find(|m| !spec.iter().any(|(n, _)| *n == m.name)) {
        return Err(format!("metric `{}` is not declared", extra.name));
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = flag(&args, "--workload").unwrap_or_else(|| usage("--workload is required"));
    let seed: u64 = flag(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage("--seed N is required"));
    let seconds: f64 = flag(&args, "--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage("--seconds S is required"));
    let trace = match flag(&args, "--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => usage(&format!("--trace takes 0 or 1, not {other}")),
    };
    let bin = PathBuf::from(
        flag(&args, "--streamfreq").unwrap_or_else(|| usage("--streamfreq PATH is required")),
    );
    let scale = match flag(&args, "--scale") {
        Some("tiny") => Scale::Tiny,
        Some("full") | None => Scale::Full,
        Some(other) => usage(&format!("unknown scale {other}")),
    };
    let work_root = PathBuf::from(flag(&args, "--work-dir").unwrap_or(".bench_run"));
    let ctx = Ctx {
        workload: workload.to_string(),
        seed,
        seconds,
        bin,
        work_root,
        scale,
    };

    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut attempts: Vec<f64> = Vec::new();
    let calib_start = calib::calibrate();
    let result = if trace {
        // The untraced reference first, then the traced run of the same
        // configuration; their ingest rates give the tracing overhead.
        run_workload(&ctx, &mut Tracer::new(false)).and_then(|base| {
            let mut tracer = Tracer::new(true);
            run_workload(&ctx, &mut tracer).map(|mut traced| {
                let overhead = base.ingest_ups / traced.ingest_ups - 1.0;
                traced
                    .layers
                    .push(Metric::new("trace.overhead_frac", overhead, "ratio", 2));
                traced
            })
        })
    } else {
        measure(&ctx, hw, &mut attempts)
    };
    let calib_end = calib::calibrate();
    let _ = std::fs::remove_dir_all(ctx.work_root.join(format!(
        "{}-{}",
        ctx.workload,
        std::process::id()
    )));

    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(2);
        }
    };
    let metrics = if trace {
        conform(outcome.layers.clone(), LAYERS)
    } else {
        conform(outcome.e2e.clone(), E2E)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(2);
        }
    };
    let valid = outcome.late_p99_ms <= perfbench::LATE_BOUND_MS;
    let rev = std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".into());
    let attempts_json: Vec<String> = attempts.iter().map(|f| format!("{f:.4}")).collect();
    println!(
        "{{\"report\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"git_rev\": \"{rev}\", \"hardware_threads\": {hw}, \
         \"calibration_start\": {}, \"calibration_end\": {}, \"steal_s\": {:.2}, \
         \"attempt_steal_frac\": [{}], \"steal_limit\": {}, \
         \"gen_late_p99_ms\": {}, \
         \"gen_late_bound_ms\": {}, \"valid\": {valid}, \"params\": {{{}}}, \
         \"samples\": {}, \"detail\": {{{}}}}}}}",
        calib_start.json(),
        calib_end.json(),
        calib_end.steal_s - calib_start.steal_s,
        attempts_json.join(", "),
        perfbench::STEAL_LIMIT,
        num(outcome.late_p99_ms),
        perfbench::LATE_BOUND_MS,
        outcome.params.join(", "),
        samples_json(&metrics),
        outcome.detail.join(", "),
    );
    println!(
        "{{\"correct\": {valid}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&metrics)
    );
}
