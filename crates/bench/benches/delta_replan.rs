//! Delta-replan speedup on the multi-tenant share-grid search, plus
//! the CI delta-budget gate.
//!
//! Three modes, selected by the arguments after `--`:
//!
//! ```text
//! cargo bench -p lcmm-bench --bench delta_replan                    # criterion benches
//! cargo bench -p lcmm-bench --bench delta_replan -- --check         # budget gate
//! cargo bench -p lcmm-bench --bench delta_replan -- --write-budgets # refresh budgets
//! ```
//!
//! The gate measures two workloads, taking the minimum time per mode
//! across [`GATE_RUNS`] interleaved repetitions:
//!
//! - **Absolute**: the `mobilenet,alexnet` search at 8 grid steps in
//!   delta mode must finish within `delta_budget_seconds`
//!   (machine-dependent, written with [`HEADROOM`]). The budget sits
//!   well below the pre-delta cost of this exact command (~21 ms
//!   in-process on the reference machine vs ~5 ms now, a >4× speedup
//!   from the capacity-DP shortcuts plus replay-only finalisation), so
//!   a regression back to pre-delta per-grid-point costs fails CI.
//! - **Ratio** (machine-independent): on the 3-tenant
//!   `mobilenet,alexnet,squeezenet` search at 12 grid steps, the ratio
//!   of [`scratch_search`] to the co-planner must stay above
//!   `min_speedup`. Both searches are timed on the process CPU clock
//!   ([`cpu_clock`]): they run on one thread, so CPU time is the work
//!   they do, while the wall clock also counts the time a busy shared
//!   host runs other jobs, which can push the ratio under its floor
//!   with no change on its code path. With 3 tenants the same device slice sizes
//!   recur across the 55 grid points, so cached pass 1–2 artifacts and
//!   memoised gain curves are re-hit across points. If delta
//!   replanning silently degraded into re-running passes 1–2 and the
//!   DNNK curve per grid point, the ratio falls to ~1 and CI fails.
//!   (With 2 tenants every grid point partitions the device uniquely,
//!   so there is nothing to re-hit and the two searches are at parity
//!   by construction — which is why the ratio gate runs the 3-tenant
//!   workload.)

use criterion::{black_box, Criterion};
use lcmm_core::coplan::{GainCurve, CAPACITY_UNIT_BYTES};
use lcmm_core::{tenant_gain_curve, Harness, LcmmOptions, Pipeline, PlanArtifacts, PlanRequest};
use lcmm_fpga::{AccelDesign, Device, Precision};
use lcmm_multi::{coplan, joint_capacity_dp, pool_bytes, share_grid, CoplanOptions, TenantSpec};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

/// Search repetitions per mode; the minimum is compared.
const GATE_RUNS: usize = 5;
/// Absolute budget = measured delta minimum × this. Chosen so the
/// budget still sits below the pre-delta cost of the same search: the
/// gate catches a return to pre-delta per-grid-point work even on a
/// machine ~30% slower than the one that wrote the budgets.
const HEADROOM: f64 = 3.0;
/// The speedup floor written by `--write-budgets`:
/// `max(measured_ratio / RATIO_HEADROOM, MIN_SPEEDUP_FLOOR)`.
const RATIO_HEADROOM: f64 = 1.3;
/// The ratio gate's lower bound: reuse must never make delta *slower*
/// than scratch on the workload built to exercise it.
const MIN_SPEEDUP_FLOOR: f64 = 1.05;

/// On-disk format of `checks/delta_budgets.json`.
#[derive(Debug, Serialize, Deserialize)]
struct DeltaBudgets {
    absolute_workload: String,
    ratio_workload: String,
    runs: usize,
    headroom: f64,
    /// Absolute wall-clock budget for the delta-mode 2-tenant search,
    /// seconds.
    delta_budget_seconds: f64,
    /// Machine-independent floor on `scratch / delta` process CPU time
    /// of the 3-tenant search.
    min_speedup: f64,
}

/// The absolute gate's workload: the issue's flagship command,
/// `lcmm multi --models mobilenet,alexnet --steps 8 --jobs 1`.
fn two_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("mobilenet", lcmm_graph::zoo::mobilenet(), Precision::Fix16),
        TenantSpec::new("alexnet", lcmm_graph::zoo::alexnet(), Precision::Fix16),
    ]
}

/// The ratio gate's workload: 3 tenants × 12 steps = 55 grid points
/// with heavily repeated per-tenant slice sizes.
fn three_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("mobilenet", lcmm_graph::zoo::mobilenet(), Precision::Fix16),
        TenantSpec::new("alexnet", lcmm_graph::zoo::alexnet(), Precision::Fix16),
        TenantSpec::new(
            "squeezenet",
            lcmm_graph::zoo::squeezenet(),
            Precision::Fix16,
        ),
    ]
}

/// Seconds one search took on each clock.
#[derive(Debug, Clone, Copy)]
struct Timing {
    wall: f64,
    cpu: f64,
}

impl Timing {
    /// The per-clock minimum of two timings.
    fn min(self, other: Self) -> Self {
        Self {
            wall: self.wall.min(other.wall),
            cpu: self.cpu.min(other.cpu),
        }
    }
}

/// One timed share-grid search on a fresh single-job harness: the
/// co-planner (`delta`) or [`scratch_search`].
fn search_seconds(tenants: &[TenantSpec], steps: usize, delta: bool) -> Timing {
    let device = Device::vu9p();
    let harness = Harness::new(1);
    let t = Instant::now();
    let cpu = cpu_clock::process_seconds();
    if delta {
        let opts = CoplanOptions::default().with_search_steps(steps);
        black_box(coplan(&harness, &device, tenants, &opts).expect("search finds a split"));
    } else {
        scratch_search(&harness, &device, tenants, steps);
    }
    Timing {
        wall: t.elapsed().as_secs_f64(),
        cpu: cpu_clock::process_seconds() - cpu,
    }
}

/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, from the C library std
/// already links.
mod cpu_clock {
    use std::os::raw::{c_int, c_long};

    #[cfg(any(target_os = "linux", target_os = "android"))]
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    #[cfg(target_vendor = "apple")]
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 12;

    /// The C `struct timespec`.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }

    /// CPU time every thread of this process has used so far, seconds.
    pub(super) fn process_seconds() -> f64 {
        let mut now = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `now` is a live, exclusively borrowed `#[repr(C)]`
        // `struct timespec`, which the call only writes.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
        assert_eq!(rc, 0, "the process CPU clock is readable");
        now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
    }
}

/// The share-grid search planned from scratch at every grid point, on
/// one shared harness: per point, a one-shot gain curve per tenant, the
/// joint capacity DP, and a one-shot plan per tenant at its grant
/// (memoized by the harness result cache). It leaves out the contention
/// scoring both searches share, so the ratio gate can only get
/// stricter.
fn scratch_search(harness: &Harness, device: &Device, tenants: &[TenantSpec], steps: usize) {
    let options = LcmmOptions::default();
    for shares in share_grid(tenants.len(), steps) {
        let Ok(parts) = device.partition_set(&shares) else {
            continue;
        };
        let bases: Result<Vec<_>, _> = tenants
            .iter()
            .zip(&parts)
            .map(|(t, part)| harness.try_design(&t.graph, part, t.precision))
            .collect();
        let Ok(bases) = bases else {
            continue;
        };
        let derated: Vec<AccelDesign> = bases
            .iter()
            .map(|base| Pipeline::new(options).lcmm_design((**base).clone()))
            .collect();
        let pool = pool_bytes(&derated.iter().collect::<Vec<_>>());
        let curves: Vec<(f64, GainCurve)> = tenants
            .iter()
            .zip(&derated)
            .map(|(t, d)| {
                let profile = harness.profile(&t.graph, d);
                let curve = tenant_gain_curve(&t.graph, &profile, d, &options, pool);
                (t.weight, curve)
            })
            .collect();
        let units = (pool / CAPACITY_UNIT_BYTES) as usize;
        let mut grants = joint_capacity_dp(&curves, units);
        grants[0] += units - grants.iter().sum::<usize>();
        for (k, ((t, base), &grant)) in tenants.iter().zip(&bases).zip(&grants).enumerate() {
            let mut budget = grant as u64 * CAPACITY_UNIT_BYTES;
            if k == 0 {
                budget += pool % CAPACITY_UNIT_BYTES;
            }
            let options = options.with_tensor_budget(Some(budget));
            black_box(
                harness
                    .try_lcmm_with_design(&t.graph, base, options, None)
                    .expect("a granted tenant plans"),
            );
        }
    }
}

/// Minimum time of each mode over [`GATE_RUNS`] repetitions,
/// interleaved so drift hits both modes alike: `(delta, scratch)`.
fn measure(tenants: &[TenantSpec], steps: usize) -> (Timing, Timing) {
    let never = Timing {
        wall: f64::INFINITY,
        cpu: f64::INFINITY,
    };
    let (mut delta, mut scratch) = (never, never);
    for _ in 0..GATE_RUNS {
        delta = delta.min(search_seconds(tenants, steps, true));
        scratch = scratch.min(search_seconds(tenants, steps, false));
    }
    (delta, scratch)
}

fn budgets_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../checks/delta_budgets.json")
}

fn write_budgets() {
    let (delta2, scratch2) = measure(&two_tenants(), 8);
    let (delta2, scratch2) = (delta2.wall, scratch2.wall);
    let (delta3, scratch3) = measure(&three_tenants(), 12);
    let (delta3, scratch3) = (delta3.cpu, scratch3.cpu);
    let ratio = scratch3 / delta3;
    let out = DeltaBudgets {
        absolute_workload: "coplan mobilenet,alexnet on vu9p Fix16, 8 steps".to_string(),
        ratio_workload: "coplan mobilenet,alexnet,squeezenet on vu9p Fix16, 12 steps".to_string(),
        runs: GATE_RUNS,
        headroom: HEADROOM,
        delta_budget_seconds: delta2 * HEADROOM,
        min_speedup: (ratio / RATIO_HEADROOM).max(MIN_SPEEDUP_FLOOR),
    };
    let path = budgets_path();
    let json = serde_json::to_string_pretty(&out).expect("budgets serialise");
    std::fs::write(&path, json + "\n").expect("write delta_budgets.json");
    println!("wrote {}", path.display());
    println!(
        "  2-tenant delta {delta2:>9.6}s (scratch {scratch2:>9.6}s)  budget {:>9.6}s",
        out.delta_budget_seconds
    );
    println!(
        "  3-tenant delta {delta3:>9.6}s CPU (scratch {scratch3:>9.6}s CPU)  speedup {ratio:>6.3}x  floor {:>6.3}x",
        out.min_speedup
    );
}

fn check_budgets() {
    let path = budgets_path();
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!(
            "cannot read {}: {e}\nrun `cargo bench -p lcmm-bench --bench delta_replan -- --write-budgets` first",
            path.display()
        );
        std::process::exit(1);
    });
    let budgets: DeltaBudgets = serde_json::from_str(&raw).expect("delta_budgets.json parses");
    let delta2 = measure(&two_tenants(), 8).0.wall;
    let (delta3, scratch3) = measure(&three_tenants(), 12);
    let ratio = scratch3.cpu / delta3.cpu;
    let abs_ok = delta2 <= budgets.delta_budget_seconds;
    let ratio_ok = ratio >= budgets.min_speedup;
    println!("delta replan gate ({GATE_RUNS} runs, min; ratio on the process CPU clock):");
    println!(
        "  {}: {delta2:>9.6}s  budget {:>9.6}s  {}",
        budgets.absolute_workload,
        budgets.delta_budget_seconds,
        if abs_ok { "ok" } else { "FAIL" }
    );
    println!(
        "  {}: {ratio:>6.3}x  floor {:>6.3}x  {}",
        budgets.ratio_workload,
        budgets.min_speedup,
        if ratio_ok { "ok" } else { "FAIL" }
    );
    if !abs_ok || !ratio_ok {
        eprintln!("delta replan regressed — artifact reuse no longer pays for itself");
        std::process::exit(1);
    }
    println!("delta replan ok.");
}

/// Criterion benches: both searches, each as the co-planner and from
/// scratch, and the raw single-model budget replay against a
/// from-scratch plan.
fn bench(c: &mut Criterion) {
    let device = Device::vu9p();

    c.bench_function("delta/search_2x8_delta", |b| {
        b.iter(|| black_box(search_seconds(&two_tenants(), 8, true)))
    });
    c.bench_function("delta/search_2x8_scratch", |b| {
        b.iter(|| black_box(search_seconds(&two_tenants(), 8, false)))
    });
    c.bench_function("delta/search_3x12_delta", |b| {
        b.iter(|| black_box(search_seconds(&three_tenants(), 12, true)))
    });
    c.bench_function("delta/search_3x12_scratch", |b| {
        b.iter(|| black_box(search_seconds(&three_tenants(), 12, false)))
    });

    let graph = lcmm_graph::zoo::alexnet();
    let base = AccelDesign::explore(&graph, &device, Precision::Fix16);
    let artifacts = PlanArtifacts::build(&graph, base.clone(), LcmmOptions::default(), None)
        .expect("alexnet front end builds");
    let budget = Some(artifacts.design().tensor_sram_budget() / 2);
    c.bench_function("delta/replan_alexnet_half_budget", |b| {
        b.iter(|| black_box(artifacts.replan_with_budget(&graph, budget, None).unwrap()))
    });
    c.bench_function("delta/scratch_alexnet_half_budget", |b| {
        b.iter(|| {
            black_box(
                PlanRequest::new(&graph, &device, Precision::Fix16)
                    .options(LcmmOptions::default().with_tensor_budget(budget))
                    .with_design(base.clone())
                    .run()
                    .unwrap(),
            )
        })
    });
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--write-budgets") {
        write_budgets();
        return;
    }
    if args.iter().any(|a| a == "--check") {
        check_budgets();
        return;
    }
    let mut c = lcmm_bench::criterion_heavy();
    bench(&mut c);
    c.final_summary();
}
