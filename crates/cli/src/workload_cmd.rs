//! The `lcmm workload` subcommand: replay a traffic trace against a
//! co-planned share grid, with the adaptive share controller on or
//! off.
//!
//! Like `serve`/`multi`, this bypasses the grid-report
//! [`crate::opts::Opts`] parser — its flags (a tenant list, a trace
//! spec, controller toggles) do not overlap the report options.

use crate::table::{ms, Table};
use lcmm_core::Harness;
use lcmm_fpga::{Device, Precision};
use lcmm_multi::{CoplanOptions, TenantSpec};
use lcmm_workload::{run_workload, ControllerConfig};
use serde_json::Value;

/// Runs `lcmm workload --models <a,b,...> [--trace <spec|file>]
/// [--controller on|off] [--device <name>] [--precision <8|16|32>]
/// [--steps <N>] [--jobs <N>] [--json]`.
///
/// `--trace` defaults to the builtin `bursty2` anti-phase burst pair;
/// inline specs (`poisson:80;burst:10:400:2:0.4`) and JSON trace files
/// are documented in `docs/WORKLOAD.md`. The controller defaults to on.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut models: Vec<String> = Vec::new();
    let mut trace = "bursty2".to_string();
    let mut controller = ControllerConfig::default().with_enabled(true);
    let mut device_name = "vu9p".to_string();
    let mut precision = Precision::Fix16;
    let mut opts = CoplanOptions::default().with_search_steps(4);
    let mut jobs: Option<usize> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--models" => {
                let list = it.next().ok_or("--models needs a comma-separated list")?;
                models = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--trace" => {
                trace = it
                    .next()
                    .ok_or("--trace needs a spec or a JSON file path")?
                    .clone();
            }
            "--controller" => {
                let v = it.next().ok_or("--controller needs on or off")?;
                controller = match v.as_str() {
                    "on" => controller.with_enabled(true),
                    "off" => controller.with_enabled(false),
                    other => return Err(format!("--controller must be on or off, got {other:?}")),
                };
            }
            "--device" => {
                device_name = it.next().ok_or("--device needs a device name")?.clone();
            }
            "--precision" => {
                let v = it.next().ok_or("--precision needs 8, 16 or 32")?;
                precision = match v.as_str() {
                    "8" => Precision::Fix8,
                    "16" => Precision::Fix16,
                    "32" => Precision::Float32,
                    other => return Err(format!("unknown precision {other:?} (use 8, 16 or 32)")),
                };
            }
            "--steps" => {
                let v = it.next().ok_or("--steps needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--steps needs a positive integer, got {v:?}"))?;
                if n < 2 {
                    return Err("--steps must be at least 2".to_string());
                }
                opts = opts.with_search_steps(n);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--jobs needs a positive integer, got {v:?}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                jobs = Some(n);
            }
            "--json" => json = true,
            other => return Err(format!("unknown workload flag {other:?}")),
        }
    }
    if models.len() < 2 {
        return Err("workload needs --models with at least two zoo names".to_string());
    }
    let device =
        Device::by_name(&device_name).ok_or_else(|| format!("unknown device {device_name:?}"))?;
    let mut tenants = Vec::with_capacity(models.len());
    for name in &models {
        let graph = crate::opts::zoo_model(name)
            .map_err(|err| format!("{err} (zoo: {})", lcmm_graph::zoo::names().join(", ")))?;
        tenants.push(TenantSpec::new(name.clone(), graph, precision));
    }
    let harness = Harness::new(jobs.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }));
    let report = run_workload(&harness, &device, &tenants, &trace, &controller, &opts)
        .map_err(|e| format!("workload failed: {e}"))?;
    if json {
        let line = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("report failed to serialise: {e}"))?;
        println!("{line}");
        return Ok(());
    }
    print_report(&report);
    Ok(())
}

/// Human-readable rendering of a [`run_workload`] report.
fn print_report(report: &Value) {
    let f = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let u = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
    let ctl = &report["controller"];
    let enabled = ctl.get("enabled").and_then(Value::as_bool).unwrap_or(false);
    println!(
        "workload on {}: trace {}, horizon {}, controller {}",
        report.get("device").and_then(Value::as_str).unwrap_or("?"),
        report["trace"]
            .get("spec")
            .and_then(Value::as_str)
            .unwrap_or("?"),
        ms(f(&report["trace"], "horizon_seconds")),
        if enabled { "on" } else { "off" },
    );
    if enabled {
        let beats = report
            .get("controller_beats_best_static")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        println!(
            "controller: {} switch(es) in budget {}, worst p99 {} ({} best static share)",
            u(ctl, "replans"),
            u(ctl, "replan_budget"),
            ms(f(report, "worst_p99_seconds")),
            if beats { "beats" } else { "does not beat" },
        );
    } else {
        println!(
            "best static share: worst p99 {}",
            ms(f(report, "worst_p99_seconds"))
        );
    }
    println!();
    let mut table = Table::new([
        "model", "arrivals", "batches", "dropped", "p50", "p99", "mean", "SLO miss",
    ]);
    if let Some(tenants) = report.get("tenants").and_then(Value::as_array) {
        for t in tenants {
            // The `1.0×` anchor point of the violation curve.
            let miss = t
                .get("slo_violation_curve")
                .and_then(Value::as_array)
                .and_then(|c| c.get(1))
                .map_or(f64::NAN, |p| f(p, "fraction"));
            table.row([
                t.get("model")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string(),
                u(t, "arrivals").to_string(),
                u(t, "batches").to_string(),
                u(t, "dropped").to_string(),
                ms(f(t, "p50_seconds")),
                ms(f(t, "p99_seconds")),
                ms(f(t, "mean_seconds")),
                format!("{:.1}%", 100.0 * miss),
            ]);
        }
    }
    table.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_string()).collect()
    }

    #[test]
    fn rejects_bad_flags_and_tenant_lists() {
        assert!(run(&s(&["--frob"])).is_err());
        assert!(run(&s(&["--models", "alexnet"])).is_err(), "one model");
        assert!(run(&s(&["--models", "alexnet,unknown-net"])).is_err());
        assert!(run(&s(&["--models", "alexnet,squeezenet", "--steps", "1"])).is_err());
        assert!(run(&s(&[
            "--models",
            "alexnet,squeezenet",
            "--controller",
            "maybe"
        ]))
        .is_err());
        assert!(run(&s(&["--models", "alexnet,squeezenet", "--device", "asic"])).is_err());
    }

    #[test]
    fn runs_an_inline_replay_trace() {
        run(&s(&[
            "--models",
            "alexnet,squeezenet",
            "--trace",
            "replay:0,0.01,0.02;replay:0.005",
            "--steps",
            "2",
            "--jobs",
            "2",
        ]))
        .expect("a tiny replay trace runs");
    }
}
