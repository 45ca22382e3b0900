//! Search over device splits and the latency/throughput Pareto
//! frontier.

use crate::plan::plan_with_shares;
use crate::{Coplan, CoplanOptions, SplitPoint, TenantSpec};
use lcmm_core::{Harness, LcmmError};
use lcmm_fpga::Device;

/// Candidate share vectors for `tenants` tenants at `steps` grid
/// resolution: every composition of `steps` equal slices into positive
/// per-tenant counts, in lexicographic order (deterministic).
///
/// A single tenant always gets the whole device. The grid size is
/// `C(steps − 1, tenants − 1)`; `steps` is clamped up to the tenant
/// count so every tenant gets at least one slice.
#[must_use]
pub fn share_grid(tenants: usize, steps: usize) -> Vec<Vec<f64>> {
    assert!(tenants > 0, "need at least one tenant");
    if tenants == 1 {
        return vec![vec![1.0]];
    }
    let steps = steps.max(tenants);
    let mut out = Vec::new();
    let mut counts = vec![0usize; tenants];
    fill(&mut out, &mut counts, 0, steps);
    out
}

fn fill(out: &mut Vec<Vec<f64>>, counts: &mut Vec<usize>, idx: usize, remaining: usize) {
    let tenants = counts.len();
    if idx == tenants - 1 {
        counts[idx] = remaining;
        let total: usize = counts.iter().sum();
        out.push(counts.iter().map(|&c| c as f64 / total as f64).collect());
        return;
    }
    // Leave at least one slice for every later tenant.
    for c in 1..=remaining - (tenants - 1 - idx) {
        counts[idx] = c;
        fill(out, counts, idx + 1, remaining - c);
    }
}

/// Strict Pareto dominance in (weighted_latency ↓, throughput ↑):
/// `a` dominates `b` when it is weakly better in both coordinates and
/// strictly better in at least one. A point never dominates an exact
/// duplicate of itself — without the strict clause, tied points would
/// mutually "dominate" each other and a frontier of duplicates (e.g.
/// symmetric tenants at mirrored shares) would come out empty.
fn dominates(a: (f64, f64), b: (f64, f64)) -> bool {
    let (al, at) = a;
    let (bl, bt) = b;
    al <= bl && at >= bt && (al < bl || at > bt)
}

/// Marks the Pareto-optimal points of `points` in
/// (weighted_latency ↓, throughput ↑). Ties survive: a point is
/// non-Pareto only when some *strictly better* point exists, so exact
/// duplicates are either both on the frontier or both off it.
pub(crate) fn mark_pareto(points: &mut [SplitPoint]) {
    let snapshot: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.weighted_latency, p.throughput))
        .collect();
    for (i, p) in points.iter_mut().enumerate() {
        p.pareto = !snapshot
            .iter()
            .enumerate()
            .any(|(j, &other)| j != i && dominates(other, (p.weighted_latency, p.throughput)));
    }
}

/// Searches the share grid for the split minimising the objective.
///
/// Infeasible splits (a tenant's slice too small for any systolic
/// array) are skipped; the search fails only when *every* candidate is
/// infeasible, with the last error. Candidates are evaluated through
/// the harness's order-preserving `par_map`, so the outcome is
/// byte-identical at any `--jobs` setting.
///
/// # Errors
///
/// [`LcmmError::BudgetInfeasible`] before the grid is built when the
/// device has fewer DDR banks (or DSP slices) than tenants, and (or the
/// underlying pipeline error) when no candidate split is feasible.
pub fn search_shares(
    harness: &Harness,
    device: &Device,
    tenants: &[TenantSpec],
    opts: &CoplanOptions,
) -> Result<Coplan, LcmmError> {
    // The grid holds C(steps − 1, n − 1) share vectors, and whether n
    // tenants fit the device does not depend on any of them.
    device
        .check_tenant_count(tenants.len())
        .map_err(LcmmError::BudgetInfeasible)?;
    let grid = share_grid(tenants.len(), opts.search_steps);
    let mut outcomes = harness.par_map(&grid, |shares| {
        plan_with_shares(harness, device, tenants, shares, opts)
    });

    let mut best: Option<(usize, Coplan)> = None;
    let mut points = Vec::new();
    let mut last_err = None;
    for outcome in outcomes.drain(..) {
        match outcome {
            Ok((plan, point)) => {
                let better = match &best {
                    None => true,
                    Some((_, b)) => point.objective_value < b.objective_value,
                };
                if better {
                    best = Some((points.len(), plan));
                }
                points.push(point);
            }
            Err(e) => last_err = Some(e),
        }
    }
    let Some((best_idx, mut plan)) = best else {
        return Err(
            last_err.unwrap_or_else(|| LcmmError::InvalidRequest("empty share grid".to_string()))
        );
    };
    mark_pareto(&mut points);
    debug_assert!(points[best_idx].pareto || points.len() > 1);
    plan.frontier = points;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_two_tenant_splits() {
        let grid = share_grid(2, 4);
        assert_eq!(
            grid,
            vec![vec![0.25, 0.75], vec![0.5, 0.5], vec![0.75, 0.25],]
        );
        for shares in &grid {
            let sum: f64 = shares.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn grid_single_tenant_is_whole_device() {
        assert_eq!(share_grid(1, 8), vec![vec![1.0]]);
    }

    #[test]
    fn grid_clamps_steps_to_tenant_count() {
        // 3 tenants at 2 steps: clamped to 3 → one equal split.
        let grid = share_grid(3, 2);
        assert_eq!(grid.len(), 1);
        assert_eq!(grid[0], vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]);
    }

    #[test]
    fn grid_three_tenants_size_is_binomial() {
        // C(7, 2) = 21 compositions of 8 into 3 positive parts.
        assert_eq!(share_grid(3, 8).len(), 21);
    }

    #[test]
    fn pareto_marking_keeps_non_dominated_points() {
        let mk = |l: f64, t: f64| SplitPoint {
            shares: vec![1.0],
            weighted_latency: l,
            throughput: t,
            objective_value: l,
            pareto: false,
        };
        let mut points = vec![mk(1.0, 10.0), mk(2.0, 20.0), mk(3.0, 15.0)];
        mark_pareto(&mut points);
        assert!(points[0].pareto, "lowest latency");
        assert!(points[1].pareto, "highest throughput");
        assert!(!points[2].pareto, "dominated by the second point");
    }

    #[test]
    fn pareto_marking_keeps_tied_points() {
        let mk = |l: f64, t: f64| SplitPoint {
            shares: vec![1.0],
            weighted_latency: l,
            throughput: t,
            objective_value: l,
            pareto: false,
        };
        // Two exact duplicates at the optimum (symmetric tenants at
        // mirrored shares score identically): both must stay Pareto —
        // the frontier of an all-tied grid must never be empty.
        let mut points = vec![mk(1.0, 10.0), mk(1.0, 10.0), mk(2.0, 5.0)];
        mark_pareto(&mut points);
        assert!(points[0].pareto, "first duplicate");
        assert!(points[1].pareto, "second duplicate");
        assert!(!points[2].pareto, "strictly dominated");
        // A fully tied grid keeps every point.
        let mut tied = vec![mk(1.5, 8.0); 4];
        mark_pareto(&mut tied);
        assert!(tied.iter().all(|p| p.pareto), "no point may vanish");
        // Ties in one coordinate only: the strictly-better point wins.
        let mut partial = vec![mk(1.0, 10.0), mk(1.0, 12.0)];
        mark_pareto(&mut partial);
        assert!(!partial[0].pareto, "same latency, lower throughput");
        assert!(partial[1].pareto);
    }
}
