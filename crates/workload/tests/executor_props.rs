//! The executor's outcome contract: latencies stay in completion order,
//! and every order statistic and SLO-violation fraction an outcome
//! reports equals what a sorted copy of its latencies gives.
//!
//! Seeded over random replay, burst and Poisson traces × 1–3 tenants ×
//! 1–4-point grids × controller on/off; small queue caps and batch
//! sizes make drops and backlogs (so ties and long tails) common.

use lcmm_workload::trace::Lcg;
use lcmm_workload::{
    simulate, ArrivalProcess, ControllerConfig, PreparedGrid, PreparedPoint, TenantOutcome,
    TenantTraffic, WorkloadSpec,
};

const QUANTILES: [f64; 6] = [0.01, 0.25, 0.5, 0.9, 0.99, 1.0];

/// Nearest-rank quantile of an ascending slice; `0.0` when empty.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn random_grid(rng: &mut Lcg, tenants: usize, points: usize) -> PreparedGrid {
    PreparedGrid {
        models: (0..tenants).map(|t| format!("m{t}")).collect(),
        device: "test".to_string(),
        points: (0..points)
            .map(|_| {
                let service: Vec<f64> =
                    (0..tenants).map(|_| 5e-4 + rng.next_f64() * 2e-2).collect();
                PreparedPoint {
                    shares: vec![1.0 / tenants as f64; tenants],
                    service_seconds: service.clone(),
                    steady_seconds: service,
                    objective_value: 0.0,
                }
            })
            .collect(),
        slos: vec![None; tenants],
    }
}

fn random_traffic(rng: &mut Lcg, horizon: f64) -> TenantTraffic {
    let process = match (rng.next_f64() * 3.0) as usize {
        0 => {
            // Replayed times with repeats: simultaneous arrivals make
            // equal latencies.
            let n = (rng.next_f64() * 400.0) as usize;
            let mut times = Vec::with_capacity(n);
            while times.len() < n {
                let t = rng.next_f64() * horizon;
                let copies = 1 + (rng.next_f64() * 4.0) as usize;
                times.extend(std::iter::repeat_n(t, copies.min(n - times.len())));
            }
            ArrivalProcess::Replay { times }
        }
        1 => ArrivalProcess::Burst {
            base: rng.next_f64() * 200.0,
            peak: 200.0 + rng.next_f64() * 1500.0,
            period: horizon * (0.1 + rng.next_f64()),
            duty: rng.next_f64(),
            phase: rng.next_f64() * horizon,
        },
        _ => ArrivalProcess::Poisson {
            rate: rng.next_f64() * 1200.0,
        },
    };
    TenantTraffic::new(process)
}

fn check(outcome: &TenantOutcome, anchor: f64, context: &str) {
    let mut sorted = outcome.latencies().to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let bits = |v: f64| v.to_bits();
    assert_eq!(
        bits(outcome.p50()),
        bits(nearest_rank(&sorted, 0.5)),
        "{context}: p50"
    );
    assert_eq!(
        bits(outcome.p99()),
        bits(nearest_rank(&sorted, 0.99)),
        "{context}: p99"
    );
    for q in QUANTILES {
        assert_eq!(
            bits(outcome.percentile(q)),
            bits(nearest_rank(&sorted, q)),
            "{context}: percentile({q})"
        );
    }
    // Five SLOs, one of them exactly a recorded latency (a boundary
    // case for the strict `>`).
    let slos = [
        0.5 * anchor,
        anchor,
        2.0 * anchor,
        8.0 * anchor,
        nearest_rank(&sorted, 0.5),
    ];
    let total = outcome.completed + outcome.dropped;
    for slo in slos {
        let want = if total == 0 {
            0.0
        } else {
            let late = sorted.len() - sorted.partition_point(|&l| l <= slo);
            (late as u64 + outcome.dropped) as f64 / total as f64
        };
        assert_eq!(
            bits(outcome.violation_fraction(slo)),
            bits(want),
            "{context}: violation_fraction({slo})"
        );
    }
}

#[test]
fn order_statistics_match_a_sorted_copy() {
    let mut rng = Lcg::new(0x005e_1ec7);
    let mut outcomes = 0;
    for case in 0..48 {
        let tenants = 1 + case % 3;
        let points = 1 + (rng.next_f64() * 4.0) as usize;
        let grid = random_grid(&mut rng, tenants, points);
        let horizon = 0.25 + rng.next_f64();
        let traffic: Vec<TenantTraffic> = (0..tenants)
            .map(|_| random_traffic(&mut rng, horizon))
            .collect();
        let spec = WorkloadSpec::new(traffic)
            .with_horizon_seconds(horizon)
            .with_seed(case as u64)
            .with_max_batch(1 + (rng.next_f64() * 4.0) as usize)
            .with_queue_cap(4 + (rng.next_f64() * 60.0) as usize)
            .sanitized()
            .expect("valid random trace");
        for enabled in [false, true] {
            let config = ControllerConfig::default().with_enabled(enabled);
            for start in 0..points {
                let run = simulate(&grid, &spec, &config, start);
                for (t, outcome) in run.tenants.iter().enumerate() {
                    assert_eq!(outcome.latencies().len() as u64, outcome.completed);
                    let context = format!("case {case} controller {enabled} start {start} t{t}");
                    check(outcome, grid.min_service(t), &context);
                    outcomes += 1;
                }
            }
        }
    }
    assert!(outcomes > 200, "{outcomes} outcomes checked");
}
