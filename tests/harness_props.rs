//! Property-based tests for the evaluation harness: parallel execution
//! must be invisible (bit-identical results at any worker count), the
//! pipeline must respect the SRAM budget under every allocator, and the
//! interval-indexed scaling paths must be byte-identical to their
//! pairwise reference implementations.

use lcmm::core::interference::InterferenceGraph;
use lcmm::core::liveness::{LiveInterval, Schedule};
use lcmm::core::pipeline::AllocatorKind;
use lcmm::core::Harness;
use lcmm::graph::NodeId;
use lcmm::prelude::*;
use proptest::prelude::*;

/// One randomly chosen construction step (same scheme as `props.rs`).
#[derive(Debug, Clone, Copy)]
enum Step {
    Conv(u8, u8),
    Pool,
    Fork(u8, u8),
    Residual,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u8..48, 0u8..3).prop_map(|(c, k)| Step::Conv(c, k)),
        Just(Step::Pool),
        (1u8..24, 1u8..24).prop_map(|(a, b)| Step::Fork(a, b)),
        Just(Step::Residual),
    ]
}

fn kernel_of(sel: u8) -> (usize, usize) {
    match sel % 3 {
        0 => (1, 0),
        1 => (3, 1),
        _ => (5, 2),
    }
}

fn build_graph(steps: &[Step]) -> Graph {
    let mut b = GraphBuilder::new("random");
    let mut cur = b.input(FeatureShape::new(8, 16, 16)).expect("input");
    let mut idx = 0usize;
    for step in steps {
        idx += 1;
        let shape = b.shape(cur).expect("current node exists");
        match *step {
            Step::Conv(c, k) => {
                let (kernel, pad) = kernel_of(k);
                let p = ConvParams::square(c as usize, kernel, 1, pad);
                cur = b
                    .conv(format!("conv{idx}"), cur, p)
                    .expect("same-pad conv is valid");
            }
            Step::Pool => {
                if shape.height >= 4 {
                    cur = b
                        .max_pool(format!("pool{idx}"), cur, 2, 2, 0)
                        .expect("valid pool");
                }
            }
            Step::Fork(ca, cb) => {
                let pa = ConvParams::square(ca as usize, 3, 1, 1);
                let pb = ConvParams::pointwise(cb as usize);
                let left = b.conv(format!("fork{idx}l"), cur, pa).expect("valid");
                let right = b.conv(format!("fork{idx}r"), cur, pb).expect("valid");
                cur = b
                    .concat(format!("fork{idx}cat"), &[left, right])
                    .expect("same spatial");
            }
            Step::Residual => {
                let p = ConvParams::square(shape.channels, 3, 1, 1);
                let conv = b.conv(format!("res{idx}"), cur, p).expect("valid");
                cur = b
                    .eltwise_add(format!("res{idx}add"), &[cur, conv])
                    .expect("same shape");
            }
        }
    }
    b.finish(cur).expect("constructed graphs are acyclic")
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    prop::collection::vec(arb_step(), 1..10).prop_map(|steps| build_graph(&steps))
}

/// A random interference instance: values with random sizes and
/// lifespans, plus random false edges (the splitting pass adds those at
/// arbitrary points, so the coloring must hold up under any set).
fn arb_interference() -> impl Strategy<Value = InterferenceGraph> {
    let value = (1u64..6, 0usize..40, 0usize..8);
    let values = prop::collection::vec(value, 1..40);
    // Index pairs over a fixed range, reduced mod the instance size —
    // the vendored proptest has no `prop_flat_map`.
    let pairs = prop::collection::vec((0usize..64, 0usize..64), 0..25);
    (values, pairs).prop_map(|(vals, pairs)| {
        let n = vals.len();
        let values: Vec<(ValueId, u64, LiveInterval)> = vals
            .iter()
            .enumerate()
            .map(|(i, &(size, start, len))| {
                // Mix both value kinds; ids are distinct by index.
                let id = if i % 3 == 0 {
                    ValueId::Weight(NodeId::new(i))
                } else {
                    ValueId::Feature(NodeId::new(i))
                };
                (id, size * 1024, LiveInterval::new(start, start + len))
            })
            .collect();
        let ids: Vec<ValueId> = values.iter().map(|v| v.0).collect();
        let mut g = InterferenceGraph::new(values);
        for (a, b) in pairs {
            let (a, b) = (a % n, b % n);
            if a != b {
                g.add_false_edge(ids[a], ids[b]);
            }
        }
        g
    })
}

/// Every non-exhaustive allocator (exhaustive is exponential and only
/// for tiny instances).
const ALLOCATORS: [AllocatorKind; 3] = [
    AllocatorKind::Dnnk,
    AllocatorKind::DnnkIterative,
    AllocatorKind::Greedy,
];

fn allocated_bytes(lcmm: &lcmm::core::LcmmResult) -> u64 {
    lcmm.allocated_buffer_sizes().iter().sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A parallel harness and a serial harness produce bit-identical
    /// results on the same work grid: same latencies, same residency
    /// assignments, same buffer selections. Parallelism must be
    /// unobservable in the output.
    #[test]
    fn parallel_and_serial_harness_agree(graph in arb_graph()) {
        let device = Device::vu9p();
        let grid: Vec<(Precision, LcmmOptions)> = vec![
            (Precision::Fix8, LcmmOptions::default()),
            (Precision::Fix16, LcmmOptions::default()),
            (Precision::Fix16, LcmmOptions::feature_reuse_only()),
            (Precision::Fix16, LcmmOptions::weight_prefetch_only()),
        ];
        let serial = Harness::new(1);
        let parallel = Harness::new(4);
        let a = serial.par_map(&grid, |&(p, o)| serial.lcmm(&graph, &device, p, o));
        let b = parallel.par_map(&grid, |&(p, o)| parallel.lcmm(&graph, &device, p, o));
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.latency, y.latency);
            prop_assert_eq!(&x.residency, &y.residency);
            prop_assert_eq!(&x.chosen, &y.chosen);
            prop_assert_eq!(x.split_iterations, y.split_iterations);
        }
        // The UMM side must agree too.
        let (sa, _) = serial.compare(&graph, &device, Precision::Fix16);
        let (pa, _) = parallel.compare(&graph, &device, Precision::Fix16);
        prop_assert_eq!(sa.latency, pa.latency);
    }

    /// Every allocator respects the design's tensor SRAM budget on
    /// random graphs: allocated buffer bytes never exceed it.
    #[test]
    fn allocators_respect_budget_on_random_graphs(graph in arb_graph()) {
        let device = Device::vu9p();
        let harness = Harness::new(2);
        for kind in ALLOCATORS {
            let options = LcmmOptions::default().with_allocator(kind);
            let lcmm = harness.lcmm(&graph, &device, Precision::Fix16, options);
            let total = allocated_bytes(&lcmm);
            prop_assert!(
                total <= lcmm.design.tensor_sram_budget(),
                "{:?}: allocated {} > budget {}",
                kind, total, lcmm.design.tensor_sram_budget()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Coloring is conflict-free on random instances with random false
    /// edges: no two members of one buffer may interfere, every value
    /// lands in exactly one buffer, and a buffer is exactly as large as
    /// its largest member.
    #[test]
    fn coloring_with_random_false_edges_is_conflict_free(g in arb_interference()) {
        let buffers = g.color();
        let mut placed = 0usize;
        for buf in &buffers {
            prop_assert!(!buf.members.is_empty());
            let max = buf.members.iter()
                .map(|&m| g.values().iter().find(|&&(id, _)| id == m).unwrap().1)
                .max()
                .unwrap();
            prop_assert_eq!(buf.bytes, max);
            placed += buf.members.len();
            for (i, &a) in buf.members.iter().enumerate() {
                for &b in &buf.members[i + 1..] {
                    prop_assert!(
                        !g.interferes(a, b),
                        "{a} and {b} share a buffer but interfere"
                    );
                }
            }
        }
        prop_assert_eq!(placed, g.values().len());
    }

    /// The interval-indexed coloring agrees byte-for-byte with the
    /// pairwise reference implementation on random instances — same
    /// buffers, same member order.
    #[test]
    fn fast_coloring_matches_pairwise_reference(g in arb_interference()) {
        prop_assert_eq!(g.color(), g.color_reference());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The heap-based liveness-minimising scheduler visits nodes in
    /// exactly the order of the reference rescan on random graphs.
    #[test]
    fn heap_scheduler_matches_reference_on_random_graphs(graph in arb_graph()) {
        for precision in [Precision::Fix8, Precision::Fix16, Precision::Float32] {
            let fast = Schedule::minimizing_liveness_for(&graph, precision);
            let slow = Schedule::minimizing_liveness_reference(&graph, precision);
            prop_assert_eq!(fast.len(), slow.len());
            prop_assert!(
                (0..fast.len()).all(|i| fast.at(i) == slow.at(i)),
                "diverged at {:?}", precision
            );
        }
    }
}

/// Every allocator respects the budget across the benchmark zoo — the
/// graphs the paper actually reports on, not just random ones.
#[test]
fn allocators_respect_budget_across_zoo() {
    let device = Device::vu9p();
    let harness = Harness::new(2);
    for graph in lcmm::graph::zoo::benchmark_suite() {
        for kind in ALLOCATORS {
            let options = LcmmOptions::default().with_allocator(kind);
            let lcmm = harness.lcmm(&graph, &device, Precision::Fix16, options);
            let total = allocated_bytes(&lcmm);
            assert!(
                total <= lcmm.design.tensor_sram_budget(),
                "{} {:?}: allocated {} > budget {}",
                graph.name(),
                kind,
                total,
                lcmm.design.tensor_sram_budget()
            );
        }
    }
}
