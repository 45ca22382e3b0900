//! The `lcmm multi` subcommand: co-plan several zoo networks sharing
//! one device.
//!
//! Like `serve`/`request`, this bypasses the grid-report
//! [`crate::opts::Opts`] parser — its flags (a tenant list, per-tenant
//! shares, a search resolution) do not overlap the report options.

use crate::table::{mib, ms, Table};
use lcmm_core::Harness;
use lcmm_fpga::{Device, Precision};
use lcmm_multi::{coplan, coplan_summary, CoplanOptions, TenantSpec};

/// Runs `lcmm multi --models <a,b,...> [--shares <s,s,...>]
/// [--device <name>] [--precision <8|16|32>] [--steps <N>]
/// [--jobs <N>] [--json]`.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut models: Vec<String> = Vec::new();
    let mut shares: Option<Vec<f64>> = None;
    let mut device_name = "vu9p".to_string();
    let mut precision = Precision::Fix16;
    let mut opts = CoplanOptions::default();
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
            "--shares" => {
                let list = it.next().ok_or("--shares needs a comma-separated list")?;
                let parsed: Result<Vec<f64>, _> =
                    list.split(',').map(|s| s.trim().parse::<f64>()).collect();
                shares =
                    Some(parsed.map_err(|_| format!("--shares must be numbers, got {list:?}"))?);
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
                if n == 0 {
                    return Err("--steps must be at least 1".to_string());
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
            other => return Err(format!("unknown multi flag {other:?}")),
        }
    }
    if models.len() < 2 {
        return Err("multi needs --models with at least two zoo names".to_string());
    }
    let device =
        Device::by_name(&device_name).ok_or_else(|| format!("unknown device {device_name:?}"))?;
    let mut tenants = Vec::with_capacity(models.len());
    for (i, name) in models.iter().enumerate() {
        let graph = lcmm_graph::zoo::by_name(name)
            .ok_or_else(|| format!("unknown model {name:?} (see `lcmm summary` for the zoo)"))?;
        let mut tenant = TenantSpec::new(name.clone(), graph, precision);
        if let Some(shares) = &shares {
            if shares.len() != models.len() {
                return Err(format!(
                    "--shares has {} entries for {} models",
                    shares.len(),
                    models.len()
                ));
            }
            tenant = tenant.with_share(shares[i]);
        }
        tenants.push(tenant);
    }
    let harness = Harness::new(jobs.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }));
    let plan =
        coplan(&harness, &device, &tenants, &opts).map_err(|e| format!("co-plan failed: {e}"))?;
    if json {
        let line = serde_json::to_string_pretty(&coplan_summary(&plan))
            .map_err(|e| format!("summary failed to serialise: {e}"))?;
        println!("{line}");
        return Ok(());
    }
    println!(
        "co-plan on {}: pool {} MiB, objective {:.3} ms, {} split(s) searched ({} Pareto)",
        plan.device.name,
        mib(plan.pool_bytes),
        plan.objective_value * 1e3,
        plan.frontier.len(),
        plan.frontier.iter().filter(|p| p.pareto).count(),
    );
    if plan.contention.shared {
        println!(
            "DRAM channels shared: {} oversubscribed",
            plan.contention.oversubscribed_channels
        );
    }
    println!();
    let mut table = Table::new([
        "model",
        "share",
        "sram (MiB)",
        "alloc (MiB)",
        "steady (ms)",
        "contended (ms)",
        "slowdown",
    ]);
    for t in &plan.tenants {
        let allocated: u64 = t.result.allocated_buffer_sizes().iter().sum();
        table.row([
            t.name.clone(),
            format!("{:.2}", t.share),
            mib(t.sram_budget),
            mib(allocated),
            ms(t.steady_latency),
            ms(t.contended_latency),
            format!("{:.3}x", t.slowdown),
        ]);
    }
    table.print();
    Ok(())
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
        assert!(run(&s(&["--models", "alexnet,squeezenet", "--shares", "0.5"])).is_err());
        assert!(run(&s(&["--models", "alexnet,squeezenet", "--steps", "0"])).is_err());
        assert!(run(&s(&["--models", "alexnet,squeezenet", "--device", "asic"])).is_err());
    }

    #[test]
    fn coplans_two_models_with_explicit_shares() {
        run(&s(&[
            "--models",
            "alexnet,squeezenet",
            "--shares",
            "0.5,0.5",
            "--jobs",
            "2",
        ]))
        .expect("half-and-half fits a VU9P");
    }
}
