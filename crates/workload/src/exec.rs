//! The schedule/executor split: prepared share grids and the
//! trace-replay executor.
//!
//! [`prepare`] does *all* the planning up front: every share-grid point
//! is co-planned through [`lcmm_multi::plan_with_shares`] (the
//! delta-replan path, so pass-1/2 artifacts and gain-curve memos are
//! shared across points and only `joint_capacity_dp` plus passes 3–4
//! re-run per point) and distilled into an immutable
//! [`PreparedPoint`]: shares plus per-tenant contended service
//! latencies. [`simulate`] then replays a trace against those
//! artifacts — the tick loop reads service latencies, it never plans.
//!
//! The executor models each tenant as an admission queue in front of a
//! batched server: a [`Channel`] FIFO timeline (the simulator's DMA
//! primitive reused as a service timeline). A batch of up to
//! `max_batch` queued requests occupies one contended service latency,
//! so batching under backlog is the throughput win; arrivals beyond
//! `queue_cap` are dropped and count as SLO violations.

use crate::controller::{pick_point, ControllerConfig};
use crate::histogram::LatencyHistogram;
use crate::trace::WorkloadSpec;
use lcmm_core::{Harness, LcmmError};
use lcmm_fpga::Device;
use lcmm_multi::{plan_with_shares, share_grid, CoplanOptions, TenantSpec};
use lcmm_sim::Channel;
use std::collections::VecDeque;

/// One prepared share split: the immutable artifact the executor and
/// controller consume.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedPoint {
    /// Per-tenant compute shares, in tenant order.
    pub shares: Vec<f64>,
    /// Per-tenant contended steady-state service latency, seconds —
    /// what one batch costs at this split.
    pub service_seconds: Vec<f64>,
    /// Per-tenant uncontended steady latency, seconds.
    pub steady_seconds: Vec<f64>,
    /// The co-planner's objective value at this split.
    pub objective_value: f64,
}

/// The prepared schedule: every feasible grid point, planned once.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedGrid {
    /// Tenant model names, in tenant order.
    pub models: Vec<String>,
    /// Device short name.
    pub device: String,
    /// Feasible grid points, in share-grid (lexicographic) order.
    pub points: Vec<PreparedPoint>,
    /// Per-tenant SLOs carried over from the tenant specs.
    pub slos: Vec<Option<f64>>,
}

impl PreparedGrid {
    /// The most even split: the point minimising the spread between
    /// its largest and smallest share (lowest index on ties) — the
    /// controller's deterministic starting point.
    #[must_use]
    pub fn even_point(&self) -> usize {
        let spread = |p: &PreparedPoint| {
            let max = p.shares.iter().copied().fold(f64::MIN, f64::max);
            let min = p.shares.iter().copied().fold(f64::MAX, f64::min);
            max - min
        };
        let mut best = 0;
        for (i, p) in self.points.iter().enumerate() {
            if spread(p) < spread(&self.points[best]) {
                best = i;
            }
        }
        best
    }

    /// Tenant `t`'s best service latency over the whole grid — the
    /// fastest any split can serve it, anchoring its SLO curve when no
    /// explicit SLO is set.
    #[must_use]
    pub fn min_service(&self, t: usize) -> f64 {
        self.points
            .iter()
            .map(|p| p.service_seconds[t])
            .fold(f64::MAX, f64::min)
    }
}

/// Plans every share-grid point for `tenants` on `device` into an
/// immutable [`PreparedGrid`].
///
/// Infeasible points (a share too small for any systolic array) are
/// skipped like in `search_shares`; grid points are planned through the
/// harness's order-preserving `par_map`, so the result is
/// byte-identical at any `--jobs`.
///
/// # Errors
///
/// [`LcmmError::BudgetInfeasible`] before the grid is built when the
/// device has fewer DDR banks (or DSP slices) than tenants; otherwise
/// any co-planner error, and when *every* point is infeasible, the last
/// planning error.
pub fn prepare(
    harness: &Harness,
    device: &Device,
    tenants: &[TenantSpec],
    opts: &CoplanOptions,
) -> Result<PreparedGrid, LcmmError> {
    // The grid holds C(steps − 1, n − 1) share vectors, and whether n
    // tenants fit the device does not depend on any of them.
    device
        .check_tenant_count(tenants.len())
        .map_err(LcmmError::BudgetInfeasible)?;
    let grid = share_grid(tenants.len(), opts.search_steps);
    let outcomes = harness.par_map(&grid, |shares| {
        plan_with_shares(harness, device, tenants, shares, opts)
    });
    let mut points = Vec::with_capacity(outcomes.len());
    let mut last_err = None;
    for outcome in outcomes {
        match outcome {
            Ok((plan, point)) => points.push(PreparedPoint {
                shares: point.shares,
                service_seconds: plan.tenants.iter().map(|t| t.contended_latency).collect(),
                steady_seconds: plan.tenants.iter().map(|t| t.steady_latency).collect(),
                objective_value: point.objective_value,
            }),
            Err(e) => last_err = Some(e),
        }
    }
    if points.is_empty() {
        return Err(
            last_err.unwrap_or_else(|| LcmmError::InvalidRequest("empty share grid".to_string()))
        );
    }
    Ok(PreparedGrid {
        models: tenants.iter().map(|t| t.name.clone()).collect(),
        device: device.name.clone(),
        points,
        slos: tenants.iter().map(|t| t.slo_seconds).collect(),
    })
}

/// One tenant's observed outcome over a run.
///
/// The run selects the nearest-rank p50 and p99 once, when it ends;
/// every other order statistic, the SLO violations and the histogram are
/// computed from the completion-order latencies on demand.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Requests that arrived inside the horizon.
    pub arrivals: u64,
    /// Batches executed.
    pub batches: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests dropped at admission (queue full).
    pub dropped: u64,
    latencies: Vec<f64>,
    p50: f64,
    p99: f64,
}

/// Index of the nearest-rank `q`-quantile in `n` ascending values.
fn rank_index(q: f64, n: usize) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

impl TenantOutcome {
    /// An outcome with nothing recorded yet, with room for `arrivals`
    /// latencies.
    fn new(arrivals: usize) -> Self {
        Self {
            arrivals: arrivals as u64,
            batches: 0,
            completed: 0,
            dropped: 0,
            latencies: Vec::with_capacity(arrivals),
            p50: 0.0,
            p99: 0.0,
        }
    }

    /// Selects p50 and p99 from a copy of the latencies in `scratch`
    /// (p50 inside p99's left part). Values that `total_cmp` calls equal
    /// have identical bits, so each equals the sorted vector's entry.
    fn select_percentiles(&mut self, scratch: &mut Vec<f64>) {
        let n = self.latencies.len();
        if n == 0 {
            return;
        }
        scratch.clear();
        scratch.extend_from_slice(&self.latencies);
        let (i50, i99) = (rank_index(0.50, n), rank_index(0.99, n));
        let (left, &mut p99, _) = scratch.select_nth_unstable_by(i99, f64::total_cmp);
        self.p99 = p99;
        self.p50 = if i50 == i99 {
            p99
        } else {
            *left.select_nth_unstable_by(i50, f64::total_cmp).1
        };
    }

    /// Completed request latencies, seconds, in completion order.
    #[must_use]
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// Nearest-rank percentile of the completed latencies (`q` in
    /// `(0, 1]`); `0.0` when nothing completed. Selects from a copy of
    /// the latencies; [`Self::p50`] and [`Self::p99`] are precomputed.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let mut copy = self.latencies.clone();
        let i = rank_index(q, copy.len());
        *copy.select_nth_unstable_by(i, f64::total_cmp).1
    }

    /// Median completed latency, seconds.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.p50
    }

    /// 99th-percentile completed latency, seconds.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.p99
    }

    /// Fraction of all requests (completed + dropped) whose latency
    /// exceeded `slo` seconds; drops always violate.
    #[must_use]
    pub fn violation_fraction(&self, slo: f64) -> f64 {
        let total = self.completed + self.dropped;
        if total == 0 {
            return 0.0;
        }
        let late = self.latencies.iter().filter(|&&l| l > slo).count() as u64;
        (late + self.dropped) as f64 / total as f64
    }

    /// The latencies, log-bucketed, recorded in completion order (so the
    /// histogram's mean sums them in the order they completed).
    #[must_use]
    pub fn histogram(&self) -> LatencyHistogram {
        let mut histogram = LatencyHistogram::new();
        for &latency in &self.latencies {
            histogram.record(latency);
        }
        histogram
    }
}

/// One executed run: per-tenant outcomes plus the controller's actions.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-tenant outcomes, in tenant order.
    pub tenants: Vec<TenantOutcome>,
    /// The grid point the run started at.
    pub start_point: usize,
    /// Controller switches as `(epoch, to_point)` pairs, in order.
    pub switches: Vec<(u64, usize)>,
    /// The effective controller window, seconds.
    pub window_seconds: f64,
}

impl RunOutcome {
    /// The worst tenant p99 — the headline fairness metric. Tenants
    /// with traffic but no completions count as `f64::MAX` (their p99
    /// is unbounded, not zero).
    #[must_use]
    pub fn worst_p99(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| {
                if t.latencies.is_empty() && t.arrivals > 0 {
                    f64::MAX
                } else {
                    t.p99()
                }
            })
            .fold(0.0f64, f64::max)
    }
}

/// Per-tenant executor state over borrowed arrival times.
struct TenantState<'a> {
    arrivals: &'a [f64],
    next: usize,
    queue: VecDeque<f64>,
    chan: Channel,
    outcome: TenantOutcome,
    window_observed: u64,
}

impl TenantState<'_> {
    fn pending(&self) -> bool {
        !self.queue.is_empty() || self.next < self.arrivals.len()
    }

    /// Admits every arrival at or before `until` (dropping beyond the
    /// queue cap) and counts it toward the controller window.
    fn admit_until(&mut self, until: f64, queue_cap: usize) {
        while self.next < self.arrivals.len() && self.arrivals[self.next] <= until {
            if self.queue.len() < queue_cap {
                self.queue.push_back(self.arrivals[self.next]);
            } else {
                self.outcome.dropped += 1;
            }
            self.window_observed += 1;
            self.next += 1;
        }
    }
}

/// Replays `spec` against the prepared grid, starting at grid point
/// `start_point`.
///
/// Time advances in controller-window epochs. Within an epoch each
/// tenant's server runs batches back to back: the next batch starts at
/// `max(channel busy, first pending arrival)`, admits everything that
/// arrived by then, serves up to `max_batch` queued requests in one
/// contended service latency, and records each request's
/// completion − arrival latency. At every epoch boundary the controller
/// (when enabled) may switch the current point based on the window's
/// observed arrival pressure. After the horizon, epochs continue until
/// every queue drains — nothing admitted is left unmeasured.
///
/// The whole function is sequential and allocation-deterministic, so
/// its outcome is bit-identical for a given `(grid, spec, config,
/// start_point)` regardless of `--jobs`.
#[must_use]
pub fn simulate(
    grid: &PreparedGrid,
    spec: &WorkloadSpec,
    config: &ControllerConfig,
    start_point: usize,
) -> RunOutcome {
    let arrivals: Vec<Vec<f64>> = (0..spec.tenants.len()).map(|t| spec.arrivals(t)).collect();
    simulate_arrivals(grid, spec, &arrivals, config, start_point)
}

/// [`simulate`] over arrival times already generated by
/// [`WorkloadSpec::arrivals`], one list per tenant, so that the runs of
/// one workload share a single generated trace.
pub(crate) fn simulate_arrivals(
    grid: &PreparedGrid,
    spec: &WorkloadSpec,
    arrivals: &[Vec<f64>],
    config: &ControllerConfig,
    start_point: usize,
) -> RunOutcome {
    assert_eq!(
        grid.models.len(),
        spec.tenants.len(),
        "one traffic spec per tenant"
    );
    let window = config.window_for(spec.horizon_seconds);
    let mut states: Vec<TenantState> = arrivals
        .iter()
        .map(|arrivals| TenantState {
            outcome: TenantOutcome::new(arrivals.len()),
            arrivals,
            next: 0,
            queue: VecDeque::new(),
            chan: Channel::new(),
            window_observed: 0,
        })
        .collect();

    let mut current = start_point;
    let mut switches: Vec<(u64, usize)> = Vec::new();
    let mut epoch: u64 = 0;
    loop {
        epoch += 1;
        let epoch_end = epoch as f64 * window;
        for (t, st) in states.iter_mut().enumerate() {
            let service = grid.points[current].service_seconds[t];
            loop {
                let first = match st.queue.front() {
                    Some(&a) => a,
                    None => match st.arrivals.get(st.next) {
                        Some(&a) => a,
                        None => break,
                    },
                };
                let start = st.chan.busy_until().max(first);
                if start >= epoch_end {
                    break;
                }
                st.admit_until(start, spec.queue_cap);
                let take = st.queue.len().min(spec.max_batch);
                let (_, end) = st.chan.enqueue_span(start, service);
                st.outcome.batches += 1;
                for _ in 0..take {
                    let arrived = st.queue.pop_front().expect("take <= queue.len()");
                    st.outcome.latencies.push(end - arrived);
                    st.outcome.completed += 1;
                }
            }
            // Arrivals the busy server could not look at yet still
            // happened — admit them so backlog pressure is observable.
            st.admit_until(epoch_end.min(spec.horizon_seconds), spec.queue_cap);
        }

        if config.enabled && switches.len() < config.replan_budget {
            let rates: Vec<f64> = states
                .iter()
                .map(|st| (st.window_observed as f64 + st.queue.len() as f64) / window)
                .collect();
            let next = pick_point(grid, current, &rates, spec.max_batch, config.hysteresis);
            if next != current {
                current = next;
                switches.push((epoch, next));
            }
        }
        for st in &mut states {
            st.window_observed = 0;
        }

        let drained = states.iter().all(|st| !st.pending());
        if drained && epoch_end >= spec.horizon_seconds {
            break;
        }
    }

    let mut scratch = Vec::new();
    let tenants = states
        .into_iter()
        .map(|mut st| {
            st.outcome.select_percentiles(&mut scratch);
            st.outcome
        })
        .collect();
    RunOutcome {
        tenants,
        start_point,
        switches,
        window_seconds: window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ArrivalProcess, TenantTraffic};

    fn one_point_grid(service: Vec<f64>) -> PreparedGrid {
        let n = service.len();
        PreparedGrid {
            models: (0..n).map(|i| format!("m{i}")).collect(),
            device: "test".to_string(),
            points: vec![PreparedPoint {
                shares: vec![1.0 / n as f64; n],
                service_seconds: service.clone(),
                steady_seconds: service,
                objective_value: 0.0,
            }],
            slos: vec![None; n],
        }
    }

    fn replay(times: Vec<f64>) -> WorkloadSpec {
        WorkloadSpec::new(vec![TenantTraffic::new(ArrivalProcess::Replay { times })])
            .sanitized()
            .expect("valid replay")
    }

    #[test]
    fn lone_request_takes_one_service_latency() {
        let grid = one_point_grid(vec![0.01]);
        let out = simulate(&grid, &replay(vec![0.1]), &ControllerConfig::default(), 0);
        let t = &out.tenants[0];
        assert_eq!(t.completed, 1);
        assert_eq!(t.batches, 1);
        assert_eq!(t.dropped, 0);
        assert!((t.latencies()[0] - 0.01).abs() < 1e-12);
    }

    #[test]
    fn backlog_batches_share_one_service_latency() {
        // Four requests at t=0 with max_batch 4: one batch, all done at
        // the same completion time.
        let grid = one_point_grid(vec![0.01]);
        let out = simulate(
            &grid,
            &replay(vec![0.0, 0.0, 0.0, 0.0]),
            &ControllerConfig::default(),
            0,
        );
        let t = &out.tenants[0];
        assert_eq!(t.completed, 4);
        assert_eq!(t.batches, 1);
        assert!(t.latencies().iter().all(|&l| (l - 0.01).abs() < 1e-12));
    }

    #[test]
    fn zero_time_burst_at_t0_is_served_not_paniced() {
        // Regression for the enqueue_span negative-`ready` assumption:
        // a burst of arrivals at exactly t=0 (clamped from slightly
        // negative by ingestion) must execute cleanly.
        let grid = one_point_grid(vec![0.001]);
        let spec = WorkloadSpec::new(vec![TenantTraffic::new(ArrivalProcess::Replay {
            times: vec![-0.0, 0.0, -1e-15, 0.0, 0.0, 0.0],
        })])
        .sanitized()
        .expect("clamped");
        let out = simulate(&grid, &spec, &ControllerConfig::default(), 0);
        assert_eq!(out.tenants[0].completed, 6);
        assert!(out.tenants[0].latencies().iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn queue_cap_drops_overflow() {
        // 10 simultaneous arrivals, queue cap 3, batch 1: only 3 fit
        // the queue at admission time; 7 drop.
        let grid = one_point_grid(vec![0.01]);
        let spec = replay(vec![0.0; 10])
            .with_queue_cap(3)
            .with_max_batch(1)
            .sanitized()
            .expect("valid");
        let out = simulate(&grid, &spec, &ControllerConfig::default(), 0);
        let t = &out.tenants[0];
        assert_eq!(t.dropped + t.completed, 10);
        assert!(t.dropped > 0);
        assert!(t.violation_fraction(f64::MAX) > 0.0, "drops always violate");
    }

    #[test]
    fn overload_latency_grows_with_backlog() {
        // Arrivals at twice the service rate, batch 1: later requests
        // wait longer, p99 >> p50.
        let times: Vec<f64> = (0..100).map(|i| i as f64 * 0.005).collect();
        let grid = one_point_grid(vec![0.01]);
        let spec = replay(times).with_max_batch(1).sanitized().expect("valid");
        let out = simulate(&grid, &spec, &ControllerConfig::default(), 0);
        let t = &out.tenants[0];
        assert_eq!(t.completed, 100);
        assert!(t.p99() > 1.5 * t.p50(), "p99 {} p50 {}", t.p99(), t.p50());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        // Unsorted input, as the executor records it: order statistics
        // are selected, not read off a sorted vector.
        let mut outcome = TenantOutcome::new(4);
        outcome.latencies = vec![3.0, 1.0, 4.0, 2.0];
        outcome.completed = 4;
        outcome.select_percentiles(&mut Vec::new());
        assert_eq!(outcome.p50(), 2.0);
        assert_eq!(outcome.p99(), 4.0);
        assert_eq!(outcome.percentile(0.25), 1.0);
        assert_eq!(outcome.percentile(0.5), 2.0);
        assert_eq!(outcome.percentile(1.0), 4.0);
        assert_eq!(outcome.latencies(), [3.0, 1.0, 4.0, 2.0], "left in place");
    }

    #[test]
    fn latencies_stay_in_completion_order() {
        // Three requests at t=0 served one per batch wait 10, 20 and
        // 30 ms; a lone request at t=1 waits 10 ms again. Completion
        // order is therefore not ascending.
        let grid = one_point_grid(vec![0.01]);
        let spec = replay(vec![0.0, 0.0, 0.0, 1.0])
            .with_max_batch(1)
            .sanitized()
            .expect("valid");
        let out = simulate(&grid, &spec, &ControllerConfig::default(), 0);
        let t = &out.tenants[0];
        let want = [0.01, 0.02, 0.03, 0.01];
        assert_eq!(t.latencies().len(), want.len());
        for (got, want) in t.latencies().iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{:?}", t.latencies());
        }
        assert!((t.p50() - 0.01).abs() < 1e-12);
        assert!((t.p99() - 0.03).abs() < 1e-12);
        // The histogram records the same values, in the same order.
        let h = t.histogram();
        assert_eq!(h.count(), 4);
        let sum: f64 = t.latencies().iter().sum();
        assert_eq!(h.mean_seconds().to_bits(), (sum / 4.0).to_bits());
    }

    #[test]
    fn drained_queues_end_the_run_past_the_horizon() {
        // A request just before the horizon still completes (epochs
        // continue until drained), and the run terminates.
        let grid = one_point_grid(vec![0.5]);
        let spec = replay(vec![0.99]).sanitized().expect("valid");
        let out = simulate(&grid, &spec, &ControllerConfig::default(), 0);
        assert_eq!(out.tenants[0].completed, 1);
        assert!((out.tenants[0].latencies()[0] - 0.5).abs() < 1e-12);
    }
}
