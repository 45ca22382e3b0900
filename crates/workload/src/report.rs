//! End-to-end workload runs and their deterministic JSON report.
//!
//! [`run_workload`] is the one-call surface behind `lcmm workload` and
//! the serve daemon's `workload` op: prepare the share grid, resolve
//! the trace, replay it statically at *every* grid point, replay it
//! once more under the controller, and report per-tenant p50/p99,
//! SLO-violation curves and whether the controller strictly beat the
//! best static share. Field order is fixed (alphabetical at every
//! level, like `coplan_summary`) so the report is byte-stable across
//! runs and `--jobs` settings.

use crate::controller::ControllerConfig;
use crate::exec::{prepare, simulate_arrivals, PreparedGrid, RunOutcome, TenantOutcome};
use crate::trace::{
    parse_trace, ArrivalProcess, TenantTraffic, TraceSource, WorkloadSpec, DEFAULT_MAX_BATCH,
};
use lcmm_core::{Harness, LcmmError};
use lcmm_fpga::Device;
use lcmm_multi::{CoplanOptions, TenantSpec};
use serde_json::Value;

/// Multiples of a tenant's SLO anchor at which the violation curve is
/// sampled.
const SLO_CURVE_MULTIPLES: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 8.0];

/// Runs the full workload study: plans the share grid, replays `trace`
/// at every static share and (when `controller.enabled`) once under
/// the adaptive controller, and returns the fixed-field-order JSON
/// report.
///
/// `trace` is a `--trace` argument: `bursty2`, an inline spec, or a
/// JSON file path ([`parse_trace`]). With the controller off, the
/// reported run is the best static share's.
///
/// # Errors
///
/// Trace-parse and co-planning errors
/// ([`LcmmError::InvalidRequest`], [`LcmmError::BudgetInfeasible`], …).
pub fn run_workload(
    harness: &Harness,
    device: &Device,
    tenants: &[TenantSpec],
    trace: &str,
    controller: &ControllerConfig,
    opts: &CoplanOptions,
) -> Result<Value, LcmmError> {
    let source = parse_trace(trace, tenants.len())?;
    let grid = prepare(harness, device, tenants, opts)?;
    let spec = match source {
        TraceSource::Bursty2 => bursty2_spec(&grid)?,
        TraceSource::Spec(spec) => spec,
    };

    // Static sweep: the same trace at every prepared point, fanned out
    // through the order-preserving par_map (each run is internally
    // sequential, so the sweep is byte-identical at any --jobs). The
    // arrivals are generated once and shared by every run.
    let arrivals: Vec<Vec<f64>> = (0..spec.tenants.len()).map(|t| spec.arrivals(t)).collect();
    let run = |config: &ControllerConfig, start: usize| {
        simulate_arrivals(&grid, &spec, &arrivals, config, start)
    };
    let static_cfg = controller.clone().with_enabled(false);
    let indices: Vec<usize> = (0..grid.points.len()).collect();
    let static_runs = harness.par_map(&indices, |&p| run(&static_cfg, p));
    let mut best_static = 0;
    for (i, run) in static_runs.iter().enumerate() {
        if run.worst_p99() < static_runs[best_static].worst_p99() {
            best_static = i;
        }
    }

    let chosen = if controller.enabled {
        run(controller, grid.even_point())
    } else {
        static_runs[best_static].clone()
    };
    let beats = controller.enabled && chosen.worst_p99() < static_runs[best_static].worst_p99();

    Ok(report(
        &grid,
        &spec,
        trace,
        controller,
        &chosen,
        &static_runs,
        beats,
    ))
}

/// Materialises the builtin two-tenant anti-phase burst trace against
/// the prepared grid: each tenant bursts (in turn) at the geometric
/// mean of its service capacity at the even split and at its most
/// favourable split — fast enough to overload the even split, slow
/// enough that a skewed split absorbs it. The right share therefore
/// *changes* halfway through the trace, which is exactly the regime an
/// adaptive controller must win in.
fn bursty2_spec(grid: &PreparedGrid) -> Result<WorkloadSpec, LcmmError> {
    assert_eq!(grid.models.len(), 2, "bursty2 is a two-tenant trace");
    let even = grid.even_point();
    let slowest = grid.points[even]
        .service_seconds
        .iter()
        .copied()
        .fold(0.0f64, f64::max);
    let horizon = 400.0 * slowest;
    let max_batch = DEFAULT_MAX_BATCH as f64;
    let mut tenants = Vec::with_capacity(2);
    for t in 0..2 {
        let mut hi = 0;
        for (i, p) in grid.points.iter().enumerate() {
            if p.shares[t] > grid.points[hi].shares[t] {
                hi = i;
            }
        }
        let cap_even = max_batch / grid.points[even].service_seconds[t];
        let cap_hi = max_batch / grid.points[hi].service_seconds[t];
        // Geometric mean sits strictly between the two capacities
        // whenever the favourable split actually helps; when it barely
        // does, force a mild overload so the trace stays bursty.
        let peak = (cap_even * cap_hi).sqrt().max(1.2 * cap_even);
        let base = 0.2 * cap_even.min(cap_hi);
        tenants.push(TenantTraffic::new(ArrivalProcess::Burst {
            base,
            peak,
            period: horizon,
            duty: 0.45,
            phase: if t == 0 { 0.0 } else { 0.5 * horizon },
        }));
    }
    WorkloadSpec::new(tenants)
        .with_horizon_seconds(horizon)
        .sanitized()
}

/// The SLO anchor for tenant `t`: its explicit SLO (trace first, then
/// tenant spec), else the best service latency any split offers it.
fn slo_anchor(grid: &PreparedGrid, spec: &WorkloadSpec, t: usize) -> f64 {
    spec.tenants[t]
        .slo_seconds
        .or(grid.slos[t])
        .unwrap_or_else(|| grid.min_service(t))
}

fn tenant_value(
    grid: &PreparedGrid,
    spec: &WorkloadSpec,
    t: usize,
    outcome: &TenantOutcome,
) -> Value {
    let anchor = slo_anchor(grid, spec, t);
    let histogram = outcome.histogram();
    let curve: Vec<Value> = SLO_CURVE_MULTIPLES
        .iter()
        .map(|&m| {
            let slo = m * anchor;
            Value::Map(vec![
                (
                    "fraction".to_string(),
                    Value::F64(outcome.violation_fraction(slo)),
                ),
                ("slo_seconds".to_string(), Value::F64(slo)),
            ])
        })
        .collect();
    Value::Map(vec![
        ("arrivals".to_string(), Value::U64(outcome.arrivals)),
        ("batches".to_string(), Value::U64(outcome.batches)),
        ("completed".to_string(), Value::U64(outcome.completed)),
        ("dropped".to_string(), Value::U64(outcome.dropped)),
        ("histogram".to_string(), histogram.to_value()),
        (
            "mean_seconds".to_string(),
            Value::F64(histogram.mean_seconds()),
        ),
        ("model".to_string(), Value::Str(grid.models[t].clone())),
        ("p50_seconds".to_string(), Value::F64(outcome.p50())),
        ("p99_seconds".to_string(), Value::F64(outcome.p99())),
        ("slo_violation_curve".to_string(), Value::Seq(curve)),
    ])
}

fn report(
    grid: &PreparedGrid,
    spec: &WorkloadSpec,
    trace_label: &str,
    controller: &ControllerConfig,
    chosen: &RunOutcome,
    static_runs: &[RunOutcome],
    beats: bool,
) -> Value {
    let controller_value = Value::Map(vec![
        ("enabled".to_string(), Value::Bool(controller.enabled)),
        ("hysteresis".to_string(), Value::F64(controller.hysteresis)),
        (
            "replan_budget".to_string(),
            Value::U64(controller.replan_budget as u64),
        ),
        (
            "replans".to_string(),
            Value::U64(chosen.switches.len() as u64),
        ),
        (
            "switches".to_string(),
            Value::Seq(
                chosen
                    .switches
                    .iter()
                    .map(|&(epoch, point)| {
                        Value::Map(vec![
                            ("epoch".to_string(), Value::U64(epoch)),
                            ("point".to_string(), Value::U64(point as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "window_seconds".to_string(),
            Value::F64(chosen.window_seconds),
        ),
    ]);

    let grid_rows: Vec<Value> = grid
        .points
        .iter()
        .zip(static_runs)
        .map(|(point, run)| {
            Value::Map(vec![
                (
                    "p50_seconds".to_string(),
                    Value::Seq(run.tenants.iter().map(|t| Value::F64(t.p50())).collect()),
                ),
                (
                    "p99_seconds".to_string(),
                    Value::Seq(run.tenants.iter().map(|t| Value::F64(t.p99())).collect()),
                ),
                (
                    "shares".to_string(),
                    Value::Seq(point.shares.iter().map(|&s| Value::F64(s)).collect()),
                ),
                ("worst_p99_seconds".to_string(), Value::F64(run.worst_p99())),
            ])
        })
        .collect();

    let tenants: Vec<Value> = chosen
        .tenants
        .iter()
        .enumerate()
        .map(|(t, outcome)| tenant_value(grid, spec, t, outcome))
        .collect();

    let trace_value = Value::Map(vec![
        (
            "horizon_seconds".to_string(),
            Value::F64(spec.horizon_seconds),
        ),
        ("max_batch".to_string(), Value::U64(spec.max_batch as u64)),
        ("queue_cap".to_string(), Value::U64(spec.queue_cap as u64)),
        ("spec".to_string(), Value::Str(trace_label.to_string())),
    ]);

    Value::Map(vec![
        ("controller".to_string(), controller_value),
        (
            "controller_beats_best_static".to_string(),
            Value::Bool(beats),
        ),
        ("device".to_string(), Value::Str(grid.device.clone())),
        ("grid".to_string(), Value::Seq(grid_rows)),
        (
            "models".to_string(),
            Value::Seq(grid.models.iter().map(|m| Value::Str(m.clone())).collect()),
        ),
        ("seed".to_string(), Value::U64(spec.seed)),
        ("tenants".to_string(), Value::Seq(tenants)),
        ("trace".to_string(), trace_value),
        (
            "worst_p99_seconds".to_string(),
            Value::F64(chosen.worst_p99()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{simulate, PreparedPoint};

    fn grid2(points: Vec<Vec<f64>>) -> PreparedGrid {
        PreparedGrid {
            models: vec!["a".to_string(), "b".to_string()],
            device: "test".to_string(),
            points: points
                .into_iter()
                .enumerate()
                .map(|(i, service)| PreparedPoint {
                    shares: match i {
                        0 => vec![0.25, 0.75],
                        1 => vec![0.5, 0.5],
                        _ => vec![0.75, 0.25],
                    },
                    service_seconds: service.clone(),
                    steady_seconds: service,
                    objective_value: 0.0,
                })
                .collect(),
            slos: vec![None, None],
        }
    }

    #[test]
    fn bursty2_is_anti_phase_and_overloads_the_even_split() {
        let g = grid2(vec![vec![4e-3, 1e-3], vec![2e-3, 2e-3], vec![1e-3, 4e-3]]);
        let spec = bursty2_spec(&g).expect("builtin trace is valid");
        assert_eq!(spec.tenants.len(), 2);
        let (mut phases, mut peaks) = (Vec::new(), Vec::new());
        for t in &spec.tenants {
            let ArrivalProcess::Burst { peak, phase, .. } = t.process else {
                panic!("bursty2 tenants burst");
            };
            phases.push(phase);
            peaks.push(peak);
        }
        assert_eq!(phases[0], 0.0);
        assert!((phases[1] - 0.5 * spec.horizon_seconds).abs() < 1e-12);
        // Peak beats the even split's capacity (4 per batch / 2 ms).
        for (t, &peak) in peaks.iter().enumerate() {
            let cap_even = 4.0 / g.points[1].service_seconds[t];
            assert!(peak > cap_even, "tenant {t}: {peak} <= {cap_even}");
        }
    }

    #[test]
    fn controller_beats_static_on_a_synthetic_seesaw_grid() {
        // Pure executor-level regression (no planning): on a grid where
        // the right point flips halfway through, the adaptive run must
        // strictly beat every static share's worst p99.
        let g = grid2(vec![vec![4e-3, 1e-3], vec![2e-3, 2e-3], vec![1e-3, 4e-3]]);
        let spec = bursty2_spec(&g).expect("valid");
        let controller = ControllerConfig::default().with_enabled(true);
        let static_cfg = controller.clone().with_enabled(false);
        let best_static = (0..g.points.len())
            .map(|p| simulate(&g, &spec, &static_cfg, p).worst_p99())
            .fold(f64::MAX, f64::min);
        let adaptive = simulate(&g, &spec, &controller, g.even_point());
        assert!(!adaptive.switches.is_empty(), "the controller must act");
        assert!(
            adaptive.worst_p99() < best_static,
            "adaptive {} vs best static {}",
            adaptive.worst_p99(),
            best_static
        );
    }

    #[test]
    fn report_fields_are_alphabetical_and_complete() {
        let g = grid2(vec![vec![2e-3, 2e-3], vec![1e-3, 4e-3]]);
        let spec = bursty2_spec(&g).expect("valid");
        let cfg = ControllerConfig::default().with_enabled(true);
        let static_cfg = cfg.clone().with_enabled(false);
        let runs: Vec<RunOutcome> = (0..g.points.len())
            .map(|p| simulate(&g, &spec, &static_cfg, p))
            .collect();
        let adaptive = simulate(&g, &spec, &cfg, g.even_point());
        let v = report(&g, &spec, "bursty2", &cfg, &adaptive, &runs, true);
        let keys: Vec<&str> = v
            .as_object()
            .expect("map")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "top-level keys must be alphabetical");
        assert_eq!(
            keys,
            vec![
                "controller",
                "controller_beats_best_static",
                "device",
                "grid",
                "models",
                "seed",
                "tenants",
                "trace",
                "worst_p99_seconds"
            ]
        );
        let tenant = &v.get("tenants").and_then(Value::as_array).expect("tenants")[0];
        let curve = tenant
            .get("slo_violation_curve")
            .and_then(Value::as_array)
            .expect("curve");
        assert_eq!(curve.len(), SLO_CURVE_MULTIPLES.len());
    }
}
