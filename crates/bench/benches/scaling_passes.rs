//! Pass scaling on thousand-node synthetic graphs, plus the CI
//! pass-budget gate.
//!
//! Three modes, selected by the arguments after `--`:
//!
//! ```text
//! cargo bench -p lcmm-bench --bench scaling_passes                    # criterion benches
//! cargo bench -p lcmm-bench --bench scaling_passes -- --check         # budget gate
//! cargo bench -p lcmm-bench --bench scaling_passes -- --write-budgets # refresh budgets
//! ```
//!
//! The gate runs the full pipeline on `synthetic(1024, 4, 7)` at Fix16
//! a few times, takes the per-pass minimum of the `PassStats` wall
//! clocks (minimum across runs is the noise-robust statistic for a
//! lower-bounded measurement), and fails if any pass exceeds its
//! budget in `checks/pass_budgets.json`. Budgets are written by
//! `--write-budgets` as `max(measured_min × HEADROOM, FLOOR)`: loose
//! enough that machine noise never trips the gate, tight enough that a
//! return to the pre-interval-index quadratic costs (3–8× on every
//! pass at this depth) fails CI immediately.

use criterion::{black_box, Criterion};
use lcmm_core::interference::InterferenceGraph;
use lcmm_core::liveness::{feature_lifespans, Schedule};
use lcmm_core::value::ValueTable;
use lcmm_core::{PassStats, PlanRequest};
use lcmm_fpga::{AccelDesign, Device, Precision};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// The gate's workload: `zoo::synthetic(DEPTH, BRANCHING, SEED)`.
const GATE_GRAPH: (usize, usize, u64) = (1024, 4, 7);
/// Pipeline runs per measurement; the per-pass minimum is compared.
const GATE_RUNS: usize = 5;
/// Budget = measured minimum × this, floored at [`BUDGET_FLOOR_SECONDS`].
const HEADROOM: f64 = 4.0;
/// No pass budget below 1 ms: sub-millisecond passes are pure noise
/// territory, and every historical regression worth catching crossed
/// this line by an order of magnitude.
const BUDGET_FLOOR_SECONDS: f64 = 0.001;

/// On-disk format of `checks/pass_budgets.json`.
#[derive(Debug, Serialize, Deserialize)]
struct PassBudgets {
    graph: String,
    precision: String,
    runs: usize,
    headroom: f64,
    budgets_seconds: Budgets,
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Budgets {
    profile: f64,
    liveness: f64,
    prefetch: f64,
    alloc_split: f64,
    coloring: f64,
    reporting: f64,
    total: f64,
}

impl Budgets {
    fn from_stats(s: &PassStats) -> Self {
        Self {
            profile: s.profile_seconds,
            liveness: s.liveness_seconds,
            prefetch: s.prefetch_seconds,
            alloc_split: s.alloc_split_seconds,
            coloring: s.coloring_seconds,
            reporting: s.reporting_seconds,
            total: s.total_seconds,
        }
    }

    fn min(&self, other: &Self) -> Self {
        Self {
            profile: self.profile.min(other.profile),
            liveness: self.liveness.min(other.liveness),
            prefetch: self.prefetch.min(other.prefetch),
            alloc_split: self.alloc_split.min(other.alloc_split),
            coloring: self.coloring.min(other.coloring),
            reporting: self.reporting.min(other.reporting),
            total: self.total.min(other.total),
        }
    }

    fn fields(&self) -> [(&'static str, f64); 7] {
        [
            ("profile", self.profile),
            ("liveness", self.liveness),
            ("prefetch", self.prefetch),
            ("alloc_split", self.alloc_split),
            ("coloring", self.coloring),
            ("reporting", self.reporting),
            ("total", self.total),
        ]
    }
}

fn gate_pipeline_stats() -> PassStats {
    let (depth, branching, seed) = GATE_GRAPH;
    let graph = lcmm_graph::zoo::synthetic(depth, branching, seed);
    let device = Device::vu9p();
    let design = AccelDesign::explore(&graph, &device, Precision::Fix16);
    PlanRequest::new(&graph, &device, Precision::Fix16)
        .with_design(design)
        .run()
        .expect("explored design is feasible")
        .stats
}

/// Per-pass minimum over [`GATE_RUNS`] pipeline executions.
fn measure() -> Budgets {
    let mut best = Budgets::from_stats(&gate_pipeline_stats());
    for _ in 1..GATE_RUNS {
        best = best.min(&Budgets::from_stats(&gate_pipeline_stats()));
    }
    best
}

fn budgets_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../checks/pass_budgets.json")
}

fn write_budgets() {
    let measured = measure();
    let mut b = measured;
    for field in [
        &mut b.profile,
        &mut b.liveness,
        &mut b.prefetch,
        &mut b.alloc_split,
        &mut b.coloring,
        &mut b.reporting,
        &mut b.total,
    ] {
        *field = (*field * HEADROOM).max(BUDGET_FLOOR_SECONDS);
    }
    let (depth, branching, seed) = GATE_GRAPH;
    let out = PassBudgets {
        graph: format!("synthetic_{depth}x{branching}x{seed}"),
        precision: "Fix16".to_string(),
        runs: GATE_RUNS,
        headroom: HEADROOM,
        budgets_seconds: b,
    };
    let path = budgets_path();
    let json = serde_json::to_string_pretty(&out).expect("budgets serialise");
    std::fs::write(&path, json + "\n").expect("write pass_budgets.json");
    println!("wrote {}", path.display());
    for ((name, m), (_, budget)) in measured.fields().into_iter().zip(b.fields()) {
        println!("  {name:<12} measured {m:>9.6}s  budget {budget:>9.6}s");
    }
}

fn check_budgets() {
    let path = budgets_path();
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!(
            "cannot read {}: {e}\nrun `cargo bench -p lcmm-bench --bench scaling_passes -- --write-budgets` first",
            path.display()
        );
        std::process::exit(1);
    });
    let budgets: PassBudgets = serde_json::from_str(&raw).expect("pass_budgets.json parses");
    let measured = measure();
    let mut failed = false;
    println!(
        "pass budgets on {} ({} runs, min):",
        budgets.graph, GATE_RUNS
    );
    for ((name, m), (_, budget)) in measured
        .fields()
        .into_iter()
        .zip(budgets.budgets_seconds.fields())
    {
        let verdict = if m > budget {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!("  {name:<12} {m:>9.6}s  budget {budget:>9.6}s  {verdict}");
    }
    if failed {
        eprintln!("pass budget exceeded — a pass regressed on thousand-node graphs");
        std::process::exit(1);
    }
    println!("pass budgets ok.");
}

/// Criterion benches: the gate pipeline end to end at two depths, and
/// the interval-indexed pass implementations against their pairwise
/// references, so `cargo bench` shows the scaling gap directly.
fn bench(c: &mut Criterion) {
    let device = Device::vu9p();
    for depth in [256usize, 1024] {
        let graph = lcmm_graph::zoo::synthetic(depth, 4, 7);
        let design = AccelDesign::explore(&graph, &device, Precision::Fix16);
        c.bench_function(&format!("scaling/pipeline_synthetic_{depth}"), |b| {
            b.iter(|| {
                black_box(
                    PlanRequest::new(&graph, &device, Precision::Fix16)
                        .with_design(design.clone())
                        .run()
                        .expect("explored design is feasible"),
                )
            })
        });
    }

    let (depth, branching, seed) = GATE_GRAPH;
    let graph = lcmm_graph::zoo::synthetic(depth, branching, seed);
    let design = AccelDesign::explore(&graph, &device, Precision::Fix16);
    let profile = design.profile(&graph);
    let values = ValueTable::build(&graph, &profile, Precision::Fix16);
    let schedule = Schedule::new(&graph);
    let spans = feature_lifespans(&schedule, values.iter());
    let items: Vec<_> = values
        .feature_candidates()
        .map(|v| (v.id, v.bytes, spans[&v.id]))
        .collect();
    let ig = InterferenceGraph::new(items);

    c.bench_function("scaling/color_indexed_1024", |b| {
        b.iter(|| black_box(ig.color()))
    });
    c.bench_function("scaling/color_reference_1024", |b| {
        b.iter(|| black_box(ig.color_reference()))
    });
    c.bench_function("scaling/minimizing_liveness_heap_1024", |b| {
        b.iter(|| black_box(Schedule::minimizing_liveness(&graph)))
    });
    c.bench_function("scaling/minimizing_liveness_reference_1024", |b| {
        b.iter(|| {
            black_box(Schedule::minimizing_liveness_reference(
                &graph,
                Precision::Fix16,
            ))
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
    let mut c = lcmm_bench::criterion_micro();
    bench(&mut c);
    c.final_summary();
}
