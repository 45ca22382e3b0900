//! Property tests over the LCMM passes on randomly generated graphs.

use lcmm_core::alloc::{dnnk, dnnk_iterative, AllocProblem};
use lcmm_core::interference::InterferenceGraph;
use lcmm_core::liveness::{feature_lifespans, Schedule};
use lcmm_core::manifest::AllocationManifest;
use lcmm_core::pipeline::compare;
use lcmm_core::prefetch::PrefetchPlan;
use lcmm_core::value::ValueTable;
use lcmm_core::{Evaluator, Residency};
use lcmm_fpga::{AccelDesign, Device, Precision};
use lcmm_graph::{ConvParams, FeatureShape, Graph, GraphBuilder};
use proptest::prelude::*;

/// Random valid graph: a chain with occasional forks and residuals.
fn build(steps: &[(u8, u8)]) -> Graph {
    let mut b = GraphBuilder::new("prop");
    let mut cur = b.input(FeatureShape::new(16, 14, 14)).expect("input");
    for (i, &(sel, c)) in steps.iter().enumerate() {
        let channels = 8 + (c as usize % 64) * 8;
        let shape = b.shape(cur).expect("exists");
        cur = match sel % 4 {
            0 => b
                .conv(format!("c{i}"), cur, ConvParams::pointwise(channels))
                .expect("ok"),
            1 => b
                .conv(format!("c{i}"), cur, ConvParams::square(channels, 3, 1, 1))
                .expect("ok"),
            2 => {
                let l = b
                    .conv(format!("l{i}"), cur, ConvParams::pointwise(channels))
                    .expect("ok");
                let r = b
                    .conv(format!("r{i}"), cur, ConvParams::square(channels, 3, 1, 1))
                    .expect("ok");
                b.concat(format!("cat{i}"), &[l, r]).expect("same spatial")
            }
            _ => {
                let f = b
                    .conv(
                        format!("f{i}"),
                        cur,
                        ConvParams::square(shape.channels, 3, 1, 1),
                    )
                    .expect("ok");
                b.eltwise_add(format!("add{i}"), &[cur, f])
                    .expect("same shape")
            }
        };
    }
    b.finish(cur).expect("acyclic by construction")
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    prop::collection::vec((any::<u8>(), any::<u8>()), 2..12).prop_map(|s| build(&s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Prefetch plans never hide more than the schedule's idle weight-
    /// interface capacity, and exposure implies the backtrace hit the
    /// graph head.
    #[test]
    fn prefetch_invariants(graph in arb_graph()) {
        let device = Device::vu9p();
        let design = AccelDesign::explore(&graph, &device, Precision::Fix16);
        let profile = design.profile(&graph);
        let ev = Evaluator::new(&graph, &profile);
        let values = ValueTable::build(&graph, &profile, Precision::Fix16);
        let schedule = Schedule::new(&graph);
        let r = Residency::new();
        let plan = PrefetchPlan::build(&ev, &schedule, &r, values.weight_candidates());
        let idle: f64 = (0..schedule.len())
            .map(|pos| {
                let n = schedule.at(pos);
                (ev.node_latency(n, &r) - profile.node(n).weight).max(0.0)
            })
            .sum();
        let hidden: f64 = plan.iter().map(|(_, e)| e.load_seconds - e.exposed_seconds).sum();
        prop_assert!(hidden <= idle + 1e-9);
        for (_, e) in plan.iter() {
            prop_assert!(e.start <= e.end);
            prop_assert!(e.exposed_seconds >= 0.0);
            if e.exposed_seconds > 0.0 {
                prop_assert_eq!(e.start, 0);
            }
        }
    }

    /// The full pipeline (vs UMM at the same clock) never loses, and
    /// its manifest is internally consistent.
    #[test]
    fn pipeline_and_manifest_invariants(graph in arb_graph()) {
        let device = Device::vu9p();
        let (_, lcmm) = compare(&graph, &device, Precision::Fix16);
        let lcmm_profile = lcmm.design.profile(&graph);
        prop_assert!(lcmm.latency <= lcmm_profile.total_latency() + 1e-12);

        let manifest = AllocationManifest::build(&graph, &lcmm);
        let mut cursor = 0;
        for buf in &manifest.buffers {
            prop_assert_eq!(buf.base, cursor);
            cursor += buf.bytes;
            for t in &buf.tensors {
                prop_assert!(t.bytes <= buf.bytes);
            }
        }
        prop_assert_eq!(manifest.total_bytes, cursor);
        prop_assert!(manifest.total_bytes <= manifest.budget_bytes);
    }

    /// Coloring is conflict-free and byte-bounded on random feature
    /// interference graphs.
    #[test]
    fn coloring_is_sound(graph in arb_graph()) {
        let device = Device::vu9p();
        let design = AccelDesign::explore(&graph, &device, Precision::Fix16);
        let profile = design.profile(&graph);
        let values = ValueTable::build(&graph, &profile, Precision::Fix16);
        let schedule = Schedule::new(&graph);
        let spans = feature_lifespans(&schedule, values.iter());
        let items: Vec<_> = values
            .iter()
            .filter(|v| v.allocatable)
            .map(|v| (v.id, v.bytes, spans[&v.id]))
            .collect();
        let no_share: u64 = items.iter().map(|(_, b, _)| *b).sum();
        let ig = InterferenceGraph::new(items);
        let buffers = ig.color();
        let total: u64 = buffers.iter().map(|b| b.bytes).sum();
        prop_assert!(total <= no_share);
        for buf in &buffers {
            for (i, &a) in buf.members.iter().enumerate() {
                for &b in &buf.members[i + 1..] {
                    prop_assert!(!ig.interferes(a, b));
                }
            }
        }
    }

    /// The iterated allocator never loses to single-pass DNNK.
    #[test]
    fn iteration_never_hurts(graph in arb_graph(), budget_mb in 1u64..16) {
        let device = Device::vu9p();
        let design = AccelDesign::explore(&graph, &device, Precision::Fix16);
        let profile = design.profile(&graph);
        let ev = Evaluator::new(&graph, &profile);
        let values = ValueTable::build(&graph, &profile, Precision::Fix16);
        let schedule = Schedule::new(&graph);
        let plan = PrefetchPlan::build(&ev, &schedule, &Residency::new(), values.weight_candidates());
        let spans = feature_lifespans(&schedule, values.feature_candidates());
        let ig = InterferenceGraph::new(
            values.feature_candidates().map(|v| (v.id, v.bytes, spans[&v.id])).collect(),
        );
        let buffers = ig.color();
        prop_assume!(!buffers.is_empty());
        let problem = AllocProblem::new(&ev, &buffers, budget_mb << 20, &plan);
        let single = dnnk::allocate(&problem);
        let iterated = dnnk_iterative::allocate(&problem);
        prop_assert!(iterated.latency <= single.latency + 1e-15);
        prop_assert!(iterated.bytes <= budget_mb << 20);
    }
}
