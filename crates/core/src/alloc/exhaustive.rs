//! Exact subset enumeration, for bounding the heuristics on small
//! instances.

use super::{AllocOutcome, AllocProblem};
use crate::prefetch::WeightMode;

/// Largest instance the exhaustive allocator enumerates.
pub const MAX_BUFFERS: usize = 20;

/// Enumerates all feasible subsets (every weight pinned) and returns the
/// latency-optimal one.
///
/// Beyond [`MAX_BUFFERS`] buffers the 2^n enumeration is no longer a
/// test-time tool, and such a problem gets the empty allocation. The
/// pipeline refuses a plan whose buffer set starts out too large with
/// [`crate::LcmmError::InvalidRequest`]; a buffer split that grows the
/// set past the limit is then rejected, because the empty allocation
/// never beats an enumerated optimum.
#[must_use]
pub fn allocate(problem: &AllocProblem<'_>) -> AllocOutcome {
    let n = problem.buffers.len();
    if n > MAX_BUFFERS {
        return AllocOutcome::from_chosen(problem, vec![false; n]);
    }
    let pinned = vec![WeightMode::Pinned; n];
    let mut best_mask = 0u32;
    let mut best_latency = f64::INFINITY;
    for mask in 0..(1u32 << n) {
        let chosen: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
        if problem.bytes_of(&chosen, &pinned) > problem.budget_bytes {
            continue;
        }
        let latency = problem
            .evaluator
            .total_latency(&problem.residency_for(&chosen, &pinned));
        if latency < best_latency {
            best_latency = latency;
            best_mask = mask;
        }
    }
    let chosen: Vec<bool> = (0..n).map(|i| best_mask >> i & 1 == 1).collect();
    AllocOutcome::from_chosen(problem, chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{dnnk, greedy};
    use crate::eval::Evaluator;
    use crate::interference::VirtualBuffer;
    use crate::prefetch::PrefetchPlan;
    use crate::value::ValueId;
    use lcmm_fpga::{AccelDesign, Device, Precision};
    use lcmm_graph::{ConvParams, FeatureShape, GraphBuilder};

    fn small_problem_graph() -> lcmm_graph::Graph {
        // Weight-bound pointwise chain with unequal weight sizes so the
        // knapsack has real choices to make.
        let mut b = GraphBuilder::new("small");
        let mut cur = b.input(FeatureShape::new(512, 7, 7)).expect("input");
        for (i, out) in [512usize, 640, 768, 512, 640, 768].iter().enumerate() {
            cur = b
                .conv(format!("c{i}"), cur, ConvParams::pointwise(*out))
                .expect("valid");
        }
        b.finish(cur).expect("valid")
    }

    #[test]
    fn heuristics_within_factor_of_optimal() {
        let g = small_problem_graph();
        let d = AccelDesign::explore(&g, &Device::vu9p(), Precision::Float32);
        let p = d.profile(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs: Vec<VirtualBuffer> = g
            .conv_layers()
            .flat_map(|n| {
                [
                    VirtualBuffer {
                        members: vec![ValueId::Weight(n.id())],
                        bytes: g.node_weight_elems(n.id()) * 4,
                    },
                    VirtualBuffer {
                        members: vec![ValueId::Feature(n.id())],
                        bytes: n.output_shape().elems() * 4,
                    },
                ]
            })
            .collect();
        assert!(bufs.len() <= MAX_BUFFERS);
        let budget = 10 << 20;
        let problem = AllocProblem::new(&ev, &bufs, budget, &PrefetchPlan::default());
        let exact = allocate(&problem);
        let dn = dnnk::allocate(&problem);
        let gr = greedy::allocate(&problem);
        let umm = problem.latency_of(&vec![false; bufs.len()]);
        assert!(exact.latency <= dn.latency + 1e-12);
        assert!(exact.latency <= gr.latency + 1e-12);
        // Heuristic gains should recover most of the exact gain.
        let exact_gain = umm - exact.latency;
        let dnnk_gain = umm - dn.latency;
        assert!(
            dnnk_gain >= 0.75 * exact_gain,
            "dnnk {dnnk_gain} vs exact {exact_gain}"
        );
    }

    #[test]
    fn large_instances_get_the_empty_allocation() {
        let g = small_problem_graph();
        let d = AccelDesign::explore(&g, &Device::vu9p(), Precision::Fix8);
        let p = d.profile(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs: Vec<VirtualBuffer> = (0..MAX_BUFFERS + 1)
            .map(|i| VirtualBuffer {
                members: vec![ValueId::Feature(lcmm_graph::NodeId::new(i % g.len()))],
                bytes: 1,
            })
            .collect();
        let problem = AllocProblem::new(&ev, &bufs, 1 << 20, &PrefetchPlan::default());
        let out = allocate(&problem);
        assert!(out.chosen.iter().all(|&c| !c));
        assert_eq!(out.latency, problem.latency_of(&vec![false; bufs.len()]));
    }
}
