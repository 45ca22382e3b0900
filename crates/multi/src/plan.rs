//! Evaluating one split: partition → joint knapsack → finalise →
//! contention.

use crate::{Coplan, CoplanOptions, SplitPoint, TenantPlan, TenantSpec};
use lcmm_core::coplan::{GainCurve, CAPACITY_UNIT_BYTES};
use lcmm_core::{Harness, LcmmError};
use lcmm_fpga::{AccelDesign, Device};
use lcmm_sim::{cross_tenant_contention, tenant_load_with_profile, TenantLoad};

/// The shared tensor-SRAM pool for a set of derated tenant designs:
/// the device cap minus *every* tenant's double-buffered tile budget.
///
/// Derived without re-stating the cap fraction: each design's
/// `tensor_sram_budget()` is `cap − tile_t` (partitioning leaves SRAM
/// untouched), so the pool is the first design's budget minus the
/// remaining tile budgets. With a single tenant this is exactly
/// `designs[0].tensor_sram_budget()` — the invariant the bit-identity
/// guarantee rests on.
#[must_use]
pub fn pool_bytes(designs: &[&AccelDesign]) -> u64 {
    let Some((first, rest)) = designs.split_first() else {
        return 0;
    };
    let tiles: u64 = rest
        .iter()
        .map(|d| d.tile_budget.total_double_buffered())
        .sum();
    first.tensor_sram_budget().saturating_sub(tiles)
}

/// The curve's steps: the first grant of every bitwise-flat run, paired
/// with its weighted value — `0`, then each `g` whose value's bits
/// differ from `g − 1`'s. Every DP row is non-decreasing in capacity (a
/// max over a growing grant range; float addition rounds
/// monotonically), so within a run `row[u − g] + weight · value(g)` is
/// non-increasing in `g`: the run's first grant reaches the run's best
/// candidate first, and the DP's strict-improvement test keeps it.
/// Scanning only the steps is therefore exactly equivalent, ties
/// included. The last step is the curve's saturation point: grants past
/// it read older, no-better row cells.
fn curve_steps(weight: f64, curve: &GainCurve) -> Vec<(usize, f64)> {
    let vals = curve.values();
    let mut steps = vec![(0, weight * vals[0])];
    for g in 1..vals.len() {
        if vals[g].to_bits() != vals[g - 1].to_bits() {
            steps.push((g, weight * vals[g]));
        }
    }
    steps
}

/// Second-level capacity DP: assigns `units` knapsack units across the
/// tenants' `(weight, curve)` pairs, returning per-tenant unit grants
/// (smallest grant on value ties, so the split is deterministic). Public
/// so the workload controller can re-run the capacity split when it
/// re-partitions tenant shares online.
///
/// This *is* the joint DNNK knapsack over the union of all tenants'
/// virtual buffers: buffers of different tenants couple only through
/// capacity, so the union DP factors into per-tenant curves combined
/// here — pivot compensation stays per-tenant by construction. It runs
/// in O(T·U·B) for T tenants, U units and B steps per curve (the
/// curve's bitwise-flat runs, see `curve_steps`).
#[must_use]
pub fn joint_capacity_dp(curves: &[(f64, GainCurve)], units: usize) -> Vec<usize> {
    let t = curves.len();
    let mut dp = vec![0.0f64; units + 1];
    let mut grant = vec![0u32; t * (units + 1)];
    for (k, (weight, curve)) in curves.iter().enumerate() {
        // Three exact shortcuts keep this DP out of the delta-replan
        // critical path (see docs/DELTA.md for the equivalence
        // argument): later stages scan only the first grant of each of
        // the curve's bitwise-flat runs, the last of which is its
        // saturation point; the first stage folds its all-zeros input
        // row into a prefix-max scan; and the last stage fills only the
        // one cell the backtrace reads.
        let steps = curve_steps(*weight, curve);
        let cap = steps[steps.len() - 1].0;
        let cells = if k + 1 == t { units..=units } else { 0..=units };
        let mut next = vec![f64::NEG_INFINITY; units + 1];
        if k == 0 {
            // dp[u-g] is 0.0 everywhere, so cell u is the running
            // best over g ≤ min(u, cap) of `0.0 + weight * value(g)`
            // (the explicit 0.0 + keeps -0.0 curve entries bit-exact),
            // with the first strict achiever winning — a prefix max.
            let top = cap.min(units);
            let mut best_v = vec![f64::NEG_INFINITY; top + 1];
            let mut best_g = vec![0u32; top + 1];
            let mut v = f64::NEG_INFINITY;
            let mut g_at = 0u32;
            for (g, (bv, bg)) in best_v.iter_mut().zip(&mut best_g).enumerate() {
                let cand = 0.0 + weight * curve.value_at(g);
                if cand > v {
                    v = cand;
                    g_at = g as u32;
                }
                *bv = v;
                *bg = g_at;
            }
            for u in cells {
                let j = u.min(top);
                next[u] = best_v[j];
                grant[k * (units + 1) + u] = best_g[j];
            }
        } else {
            for u in cells {
                for &(g, gain) in steps.iter().take_while(|&&(g, _)| g <= u) {
                    let v = dp[u - g] + gain;
                    if v > next[u] {
                        next[u] = v;
                        grant[k * (units + 1) + u] = g as u32;
                    }
                }
            }
        }
        dp = next;
    }
    let mut grants = vec![0usize; t];
    let mut u = units;
    for k in (0..t).rev() {
        let g = grant[k * (units + 1) + u] as usize;
        grants[k] = g;
        u -= g;
    }
    grants
}

/// Plans one explicit split. Returns the co-plan and its aggregate
/// scores as an (unmarked) frontier point.
///
/// # Errors
///
/// Any error of the underlying single-model pipeline — most commonly
/// [`LcmmError::BudgetInfeasible`] when a share leaves a tenant too few
/// DSPs.
pub fn plan_with_shares(
    harness: &Harness,
    device: &Device,
    tenants: &[TenantSpec],
    shares: &[f64],
    opts: &CoplanOptions,
) -> Result<(Coplan, SplitPoint), LcmmError> {
    assert_eq!(tenants.len(), shares.len(), "one share per tenant");

    // Conserving partition views (largest-remainder apportionment), the
    // tenants' base designs on them, and their cached pass 1–2
    // artifacts: a design point the search revisits (repeated slice
    // sizes across grid points) reuses its front end, gain-curve memo
    // and DNNK tables.
    let parts = device
        .partition_set(shares)
        .map_err(LcmmError::BudgetInfeasible)?;
    let mut bases = Vec::with_capacity(tenants.len());
    for (t, part) in tenants.iter().zip(&parts) {
        bases.push(harness.try_design(&t.graph, part, t.precision)?);
    }
    let mut artifacts = Vec::with_capacity(tenants.len());
    for (t, base) in tenants.iter().zip(&bases) {
        artifacts.push(harness.try_artifacts(&t.graph, base, opts.options, None)?);
    }

    // Joint knapsack over the shared pool.
    let derated: Vec<&AccelDesign> = artifacts.iter().map(|a| a.design()).collect();
    let pool = pool_bytes(&derated);
    let units = (pool / CAPACITY_UNIT_BYTES) as usize;
    let curves: Vec<(f64, GainCurve)> = tenants
        .iter()
        .zip(&artifacts)
        .map(|(t, a)| Ok((t.weight, (*a.gain_curve(&t.graph, pool)?).clone())))
        .collect::<Result<_, LcmmError>>()?;
    let mut grants = joint_capacity_dp(&curves, units);
    // Unclaimed units and the sub-unit remainder go to the first
    // tenant: they are free (a larger budget never hurts DNNK), and
    // granting them keeps the single-tenant case handing the pipeline
    // exactly `tensor_sram_budget()` bytes — the bit-identity anchor.
    let claimed: usize = grants.iter().sum();
    grants[0] += units - claimed;
    let mut budgets: Vec<u64> = grants
        .iter()
        .map(|&g| g as u64 * CAPACITY_UNIT_BYTES)
        .collect();
    budgets[0] += pool - units as u64 * CAPACITY_UNIT_BYTES;

    // Finalise each tenant with a replan at its grant.
    let mut plans = Vec::with_capacity(tenants.len());
    let mut loads = Vec::with_capacity(tenants.len());
    for ((t, base), (&share, &budget)) in
        tenants.iter().zip(&bases).zip(shares.iter().zip(&budgets))
    {
        // The simulated load is a pure function of the memoized result,
        // so it is derived once and kept beside it.
        let (result, load) = harness.try_replan_with_derived(
            &t.graph,
            base,
            opts.options,
            Some(budget),
            None,
            |result, profile| tenant_load_with_profile(&t.graph, result, profile),
        )?;
        plans.push(TenantPlan {
            name: t.name.clone(),
            share,
            sram_budget: budget,
            result: (*result).clone(),
            steady_latency: load.steady_latency,
            contended_latency: 0.0, // filled from the contention report
            slowdown: 1.0,
        });
        loads.push(TenantLoad::clone(&load));
    }

    let contention = cross_tenant_contention(device.ddr.banks, &loads);
    for (plan, (&s, &l)) in plans.iter_mut().zip(
        contention
            .slowdown
            .iter()
            .zip(&contention.contended_latency),
    ) {
        plan.slowdown = s;
        plan.contended_latency = l;
    }

    let weighted_latency: f64 = tenants
        .iter()
        .zip(&plans)
        .map(|(t, p)| t.weight * p.contended_latency)
        .sum();
    let throughput: f64 = plans.iter().map(|p| 1.0 / p.contended_latency).sum();
    let point = SplitPoint {
        shares: shares.to_vec(),
        weighted_latency,
        throughput,
        objective_value: weighted_latency,
        pareto: false,
    };
    let plan = Coplan {
        device: device.clone(),
        tenants: plans,
        pool_bytes: pool,
        contention,
        objective_value: weighted_latency,
        frontier: Vec::new(),
    };
    Ok((plan, point))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(values: Vec<f64>) -> GainCurve {
        GainCurve::from_values(values)
    }

    /// The original O(t · units · curve_units) DP, kept verbatim as the
    /// semantic reference for the shortcut implementation.
    fn joint_capacity_dp_reference(curves: &[(f64, GainCurve)], units: usize) -> Vec<usize> {
        let t = curves.len();
        let mut dp = vec![0.0f64; units + 1];
        let mut grant = vec![0u32; t * (units + 1)];
        for (k, (weight, curve)) in curves.iter().enumerate() {
            let mut next = vec![f64::NEG_INFINITY; units + 1];
            for u in 0..=units {
                for g in 0..=u.min(curve.units()) {
                    let v = dp[u - g] + weight * curve.value_at(g);
                    if v > next[u] {
                        next[u] = v;
                        grant[k * (units + 1) + u] = g as u32;
                    }
                }
            }
            dp = next;
        }
        let mut grants = vec![0usize; t];
        let mut u = units;
        for k in (0..t).rev() {
            let g = grant[k * (units + 1) + u] as usize;
            grants[k] = g;
            u -= g;
        }
        grants
    }

    #[test]
    fn dp_shortcuts_match_reference_on_random_curves() {
        // Deterministic LCG so the test needs no external RNG crate.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for case in 0..200 {
            let tenants = 1 + case % 4;
            let units = (next() * 40.0) as usize;
            let curves: Vec<(f64, GainCurve)> = (0..tenants)
                .map(|_| {
                    let len = 1 + (next() * 50.0) as usize;
                    let mut vals = Vec::with_capacity(len);
                    let mut v = 0.0f64;
                    for _ in 0..len {
                        // Frequent plateaus (including length-1 flats and
                        // fully flat curves) stress the saturation cap;
                        // occasional dips stress non-monotone inputs.
                        let r = next();
                        if r < 0.45 {
                            v += next();
                        } else if r < 0.55 {
                            v -= 0.25 * next();
                        }
                        vals.push(v);
                    }
                    (0.25 + next() * 3.0, GainCurve::from_values(vals))
                })
                .collect();
            assert_eq!(
                joint_capacity_dp(&curves, units),
                joint_capacity_dp_reference(&curves, units),
                "case {case}: tenants={tenants} units={units}"
            );
        }
        // Curves shaped like real gain curves: a few hundred units in
        // flat runs of up to 40 entries, so middle stages skip most
        // grants; ±0.0 entries and one-ulp steps make bitwise-distinct
        // runs of equal or nearly equal value, and resets to zero make
        // dips.
        for case in 0..100 {
            let tenants = 3 + case % 2;
            let units = 1 + (next() * 300.0) as usize;
            let curves: Vec<(f64, GainCurve)> = (0..tenants)
                .map(|_| {
                    let len = 1 + (next() * 320.0) as usize;
                    let mut vals = Vec::with_capacity(len);
                    let mut v = 0.0f64;
                    while vals.len() < len {
                        let run = (1 + (next() * 40.0) as usize).min(len - vals.len());
                        vals.extend(std::iter::repeat_n(v, run));
                        let r = next();
                        v = if r < 0.15 {
                            if next() < 0.5 {
                                0.0
                            } else {
                                -0.0
                            }
                        } else if r < 0.25 {
                            f64::from_bits(v.to_bits() + 1)
                        } else {
                            v + next() * 1e-3
                        };
                    }
                    (0.25 + next() * 3.0, GainCurve::from_values(vals))
                })
                .collect();
            assert_eq!(
                joint_capacity_dp(&curves, units),
                joint_capacity_dp_reference(&curves, units),
                "wide case {case}: tenants={tenants} units={units}"
            );
        }
    }

    #[test]
    fn dp_splits_capacity_by_marginal_value() {
        // Tenant A saturates after 1 unit; tenant B keeps gaining.
        let curves = vec![
            (1.0, curve(vec![0.0, 5.0, 5.0, 5.0])),
            (1.0, curve(vec![0.0, 2.0, 4.0, 6.0])),
        ];
        let grants = joint_capacity_dp(&curves, 3);
        assert_eq!(grants, vec![1, 2]);
    }

    #[test]
    fn dp_respects_objective_weights() {
        // Equal curves, but tenant B counts double: B gets the unit.
        let curves = vec![(1.0, curve(vec![0.0, 3.0])), (2.0, curve(vec![0.0, 3.0]))];
        let grants = joint_capacity_dp(&curves, 1);
        assert_eq!(grants, vec![0, 1]);
    }

    #[test]
    fn dp_single_tenant_takes_peak_value() {
        let curves = vec![(1.0, curve(vec![0.0, 1.0, 4.0, 4.5]))];
        let grants = joint_capacity_dp(&curves, 3);
        assert_eq!(grants, vec![3]);
    }

    #[test]
    fn dp_prefers_smaller_grants_on_ties() {
        // Flat beyond 1 unit: the DP must not hoard capacity.
        let curves = vec![
            (1.0, curve(vec![0.0, 5.0, 5.0])),
            (1.0, curve(vec![0.0, 0.0, 0.0])),
        ];
        let grants = joint_capacity_dp(&curves, 2);
        assert_eq!(grants, vec![1, 0]);
    }
}
