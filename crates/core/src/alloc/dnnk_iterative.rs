//! Iterated DNNK: fixed-point refinement of the knapsack.
//!
//! Single-pass DNNK scores buffer gains against the "chosen earlier in
//! this DP row" approximation. Re-running the DP with gains computed
//! against the *previous solution's* residency tightens that
//! approximation; iterating to a fixed point (or a small cap) never
//! returns anything worse than the best solution seen, because every
//! candidate is re-scored by the exact evaluator.

use super::{capacity_units, dnnk, AllocOutcome, AllocProblem, CAPACITY_UNIT_BYTES};

/// Iteration cap: in practice the fixed point arrives in 2–3 rounds.
pub const MAX_ROUNDS: usize = 4;

/// Runs DNNK, then refines: each round re-solves a plain knapsack whose
/// per-buffer gains are marginals against the previous round's chosen
/// set, keeping the best exact-scored solution across rounds.
#[must_use]
pub fn allocate(problem: &AllocProblem<'_>) -> AllocOutcome {
    let mut best = dnnk::allocate(problem);
    let n = problem.buffers.len();
    let units = (problem.budget_bytes / CAPACITY_UNIT_BYTES) as usize;
    if n == 0 || units == 0 {
        return best;
    }
    let sizes: Vec<usize> = problem
        .buffers
        .iter()
        .map(|b| capacity_units(b.bytes))
        .collect();

    let mut reference = best.residency.clone();
    for _ in 0..MAX_ROUNDS {
        // Marginal gain of each buffer against the reference residency,
        // with the buffer's own members removed from the reference so a
        // currently-chosen buffer is valued by what dropping it costs.
        let gains: Vec<f64> = problem
            .buffers
            .iter()
            .map(|buf| {
                let mut without = reference.clone();
                for &m in &buf.members {
                    without.remove(m);
                }
                problem.evaluator.gain_of(&mut without, &buf.members)
            })
            .collect();

        // Plain 0/1 knapsack over the frozen gains.
        let mut dp = vec![0.0f64; units + 1];
        let mut take = vec![false; n * (units + 1)];
        for i in 0..n {
            let s = sizes[i];
            if s == 0 || s > units || gains[i] <= 0.0 {
                continue;
            }
            for j in (s..=units).rev() {
                let candidate = dp[j - s] + gains[i];
                if candidate > dp[j] {
                    dp[j] = candidate;
                    take[i * (units + 1) + j] = true;
                }
            }
        }
        // Backtrace (items were processed forward with reverse capacity
        // sweep, so walk items backward).
        let mut chosen = vec![false; n];
        let mut j = units;
        for i in (0..n).rev() {
            if take[i * (units + 1) + j] {
                chosen[i] = true;
                j -= sizes[i];
            }
        }
        let candidate = AllocOutcome::from_chosen(problem, chosen);
        let converged = candidate.chosen == best.chosen;
        if candidate.latency < best.latency {
            best = candidate;
        }
        if converged {
            break;
        }
        reference = best.residency.clone();
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::test_support::*;
    use crate::eval::Evaluator;
    use crate::prefetch::PrefetchPlan;

    #[test]
    fn never_worse_than_single_pass() {
        let g = chain_graph();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs = singleton_buffers(&g, &ev);
        for budget in [2u64 << 20, 6 << 20, 16 << 20] {
            let problem = AllocProblem::new(&ev, &bufs, budget, &PrefetchPlan::default());
            let single = dnnk::allocate(&problem);
            let iterated = allocate(&problem);
            assert!(
                iterated.latency <= single.latency + 1e-15,
                "budget {budget}: {} > {}",
                iterated.latency,
                single.latency
            );
            assert!(iterated.bytes <= budget);
        }
    }

    #[test]
    fn zero_budget_is_identity() {
        let g = chain_graph();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs = singleton_buffers(&g, &ev);
        let problem = AllocProblem::new(&ev, &bufs, 0, &PrefetchPlan::default());
        assert!(allocate(&problem).residency.is_empty());
    }
}
