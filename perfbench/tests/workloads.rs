//! A tiny-scale run of every workload, through the command-line front
//! end, must pass its correctness gate and print the result contract.
//!
//! The workloads drive a real `streamfreq` binary: set
//! `PERFBENCH_STREAMFREQ` to one, or the test builds it from the
//! repository into a target directory of its own.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

fn streamfreq() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        if let Some(bin) = std::env::var_os("PERFBENCH_STREAMFREQ") {
            return PathBuf::from(bin);
        }
        // A target dir of its own: the one running this test is locked.
        let target = repo_root().join(".bench_build").join("selftest");
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "-p",
                "streamfreq-cli",
                "--bin",
                "streamfreq",
            ])
            .arg("--manifest-path")
            .arg(repo_root().join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building streamfreq failed");
        target.join("release").join("streamfreq")
    })
}

fn run_tiny(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .args(["--scale", "tiny", "--streamfreq"])
        .arg(streamfreq())
        .arg("--work-dir")
        .arg(repo_root().join(".bench_run").join("selftest"))
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().unwrap_or_default().to_string()
}

fn assert_contract(line: &str, names: &[(&str, &str)]) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0,"), "{line}");
    for (name, unit) in names {
        let key = format!("\"{name}\": {{\"value\": ");
        assert!(line.contains(&key), "missing {name}: {line}");
        assert!(
            line.contains(&format!("\"unit\": \"{unit}\"")),
            "unit of {name}: {line}"
        );
    }
}

#[test]
fn node_mixed_tiny_passes_its_gate() {
    assert_contract(&run_tiny("node_mixed", "0"), perfbench::E2E);
}

#[test]
fn cluster_e2e_tiny_passes_its_gate() {
    assert_contract(&run_tiny("cluster_e2e", "0"), perfbench::E2E);
}

#[test]
fn traced_runs_report_every_layer_metric() {
    for workload in ["node_mixed", "cluster_e2e"] {
        assert_contract(&run_tiny(workload, "1"), perfbench::LAYERS);
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .arg("--streamfreq")
        .arg(streamfreq())
        .arg("--work-dir")
        .arg(repo_root().join(".bench_run").join("selftest"))
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
