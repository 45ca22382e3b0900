//! Greedy gain-density allocator (ablation baseline for DNNK).
//!
//! Repeatedly takes the buffer with the highest marginal latency
//! reduction per byte, recomputing marginals after every pick (the
//! pivot interaction makes stale gains wrong). Stops when no remaining
//! buffer both fits and helps.

use super::{AllocOutcome, AllocProblem};
use crate::prefetch::WeightMode;

/// Runs the greedy allocator (every weight pinned).
#[must_use]
pub fn allocate(problem: &AllocProblem<'_>) -> AllocOutcome {
    let n = problem.buffers.len();
    let pinned = vec![WeightMode::Pinned; n];
    let mut chosen = vec![false; n];
    let mut remaining = problem.budget_bytes;
    loop {
        let mut residency = problem.residency_for(&chosen, &pinned);
        let mut best: Option<(f64, usize)> = None;
        for (i, buffer) in problem.buffers.iter().enumerate() {
            if chosen[i] || buffer.bytes > remaining {
                continue;
            }
            let gain = problem.evaluator.gain_of(&mut residency, &buffer.members);
            if gain <= 0.0 {
                continue;
            }
            let density = gain / buffer.bytes.max(1) as f64;
            if best.is_none_or(|(d, _)| density > d) {
                best = Some((density, i));
            }
        }
        match best {
            Some((_, i)) => {
                chosen[i] = true;
                remaining -= problem.buffers[i].bytes;
            }
            None => break,
        }
    }
    AllocOutcome::from_chosen(problem, chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::test_support::*;
    use crate::eval::Evaluator;
    use crate::prefetch::PrefetchPlan;

    #[test]
    fn respects_budget_and_improves() {
        let g = chain_graph();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs = singleton_buffers(&g, &ev);
        let budget = 8 << 20;
        let problem = AllocProblem::new(&ev, &bufs, budget, &PrefetchPlan::default());
        let out = allocate(&problem);
        assert!(out.bytes <= budget);
        assert!(out.latency <= problem.latency_of(&vec![false; bufs.len()]));
    }

    #[test]
    fn stops_when_nothing_helps() {
        let g = chain_graph();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs = singleton_buffers(&g, &ev);
        // Tiny budget below the smallest buffer.
        let smallest = bufs.iter().map(|b| b.bytes).min().unwrap();
        let problem = AllocProblem::new(&ev, &bufs, smallest - 1, &PrefetchPlan::default());
        let out = allocate(&problem);
        assert!(out.residency.is_empty());
    }
}
