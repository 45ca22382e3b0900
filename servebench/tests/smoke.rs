//! Short-mode smoke run of the whole benchmark: every workload in both
//! trace modes, on a seed that was not used while tuning it. Checks that
//! each metric `BENCHMARK.json` declares is emitted, finite and in its
//! declared unit, and that the correctness gate passes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

const HELD_OUT_SEED: &str = "20261016";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// The release `lcmm` binary: `$LCMM_BIN`, or a fresh build in a target
/// directory of its own (so it never waits on this test build's lock).
fn lcmm_binary() -> PathBuf {
    if let Some(bin) = std::env::var_os("LCMM_BIN") {
        return bin.into();
    }
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lcmm-cli");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--offline",
            "--release",
            "--quiet",
            "-p",
            "lcmm-cli",
        ])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building lcmm-cli failed");
    target.join("release").join("lcmm")
}

/// Metric name → unit, for one list (`end_to_end` or `per_layer`).
fn declared(spec: &Value, list: &str) -> BTreeMap<String, String> {
    spec.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_finite_and_correct() {
    let root = repo_root();
    let spec: Value = serde_json::from_str(
        &std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let lcmm = lcmm_binary();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("servebench");
    let workloads = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    for workload in workloads {
        let name = workload.get("name").and_then(Value::as_str).expect("name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = Command::new(env!("CARGO_BIN_EXE_servebench"))
                .current_dir(&root)
                .args([
                    "--workload",
                    name,
                    "--seed",
                    HELD_OUT_SEED,
                    "--seconds",
                    "1",
                ])
                .args(["--trace", trace])
                .arg("--lcmm")
                .arg(&lcmm)
                .arg("--out")
                .arg(&out)
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(
                run.status.success(),
                "{name} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&run.stderr)
            );
            let result: Value =
                serde_json::from_str(stdout.lines().last().expect("a result line")).expect("JSON");
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let emitted: BTreeMap<String, String> = metrics
                .iter()
                .map(|(k, m)| {
                    let value = m.get("value").and_then(Value::as_f64);
                    assert!(value.is_some_and(f64::is_finite), "{name}: {k} = {value:?}");
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    (k.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(emitted, declared(&spec, list), "{name} --trace {trace}");
        }
    }
}
