//! `lcmm audit` — differential audit of the analytic model vs the
//! simulator, plus structural invariants, over a model grid.
//!
//! Fails (non-zero exit) when any grid cell, repro replay or seeded
//! random graph produces a finding. A failing random graph is
//! minimised by the generator-space shrinker and written into the
//! repro corpus so subsequent runs replay it.
//!
//! The sweep itself lives in [`lcmm_sim::audit::run_audit`]; this
//! module only translates CLI flags into [`AuditOptions`] and renders
//! the outcome.

use crate::opts::Opts;
use crate::table::Table;
use lcmm_core::pipeline::AllocatorKind;
use lcmm_fpga::Precision;
use lcmm_sim::audit::{default_grid, run_audit, AuditOptions};

/// Runs the audit.
pub fn run(opts: &Opts) -> Result<(), String> {
    let grid: Vec<(String, Precision, AllocatorKind)> = match &opts.model {
        Some(name) => {
            crate::opts::zoo_model(name)?;
            vec![(
                name.clone(),
                opts.precision_or(Precision::Fix16),
                AllocatorKind::Dnnk,
            )]
        }
        None => {
            let mut grid = default_grid();
            if let Some(p) = opts.precision {
                grid.retain(|&(_, gp, _)| gp == p);
            }
            grid
        }
    };

    let mut options = AuditOptions::default().with_grid(grid);
    if let Some(seeds) = opts.seeds {
        options = options.with_seeds(seeds);
    }
    if let Some(tiny_sram) = opts.tiny_sram {
        options = options.with_tiny_sram_seeds(tiny_sram);
    }
    if let Some(fused) = opts.fusion {
        options = options.with_fused_cases(fused);
    }
    if let Some(dir) = &opts.repros {
        options = options.with_repro_dir(dir.clone());
    }

    let outcome = run_audit(&options, |line| eprintln!("{line}"))?;

    let failures = outcome.failures();
    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&outcome).map_err(|e| e.to_string())?
        );
    } else {
        let mut table = Table::new([
            "model", "prec", "alloc", "umm", "lcmm", "fill", "probe", "status",
        ]);
        for c in &outcome.cases {
            let ratio = |label: &str| {
                c.points
                    .iter()
                    .find(|p| p.label == label)
                    .map_or_else(|| "-".to_string(), |p| format!("{:.3}", p.ratio()))
            };
            table.row([
                c.model.clone(),
                c.precision.to_string(),
                format!("{:?}", c.allocator),
                ratio("umm"),
                ratio("lcmm"),
                ratio("lcmm+fill"),
                ratio("no-plan-probe"),
                if c.passed() {
                    "ok".to_string()
                } else {
                    format!("{} finding(s)", c.findings.len())
                },
            ]);
        }
        table.print();
        for c in outcome.cases.iter().filter(|c| !c.passed()) {
            for f in &c.findings {
                println!(
                    "FAIL {} {} {:?} [{}] {}",
                    c.model, c.precision, c.allocator, f.check, f.message
                );
            }
        }
    }
    if failures > 0 {
        return Err(format!("audit failed: {failures} case(s) with findings"));
    }
    Ok(())
}
