//! Buffer splitting (§3.4): undoing harmful buffer sharing.
//!
//! Coloring fuses disjoint-lifespan tensors into one virtual buffer
//! sized by the largest member. If DNNK then spills that buffer, *every*
//! member goes off-chip — including small tensors with large latency
//! value that would easily have fit on their own ("misspilling"). The
//! splitting pass adds a *false* lifespan-overlap edge inside the worst
//! spilled buffer, forcing a re-color to separate the size-defining
//! tensor from a valuable small member, and retries allocation. Each
//! iteration is kept only if end-to-end latency improves.
//!
//! Every buffer set the loop reaches is keyed by the sorted false edges
//! added so far (the empty key is the initial coloring). An artifact
//! set's memo stores each key's set beside its DNNK table, so a later
//! budget whose loop reaches the same key reads the set instead of
//! recoloring (`docs/DELTA.md`, "The DNNK table memo").

use crate::alloc::dnnk::TableMemo;
use crate::alloc::{AllocOutcome, AllocProblem};
use crate::eval::{Evaluator, Residency};
use crate::interference::{false_edge, FalseEdge, InterferenceGraph, VirtualBuffer};
use crate::prefetch::{PrefetchPlan, StreamingMode};
use crate::profiling;
use crate::value::{ValueId, ValueKind};
use lcmm_fpga::Precision;
use std::borrow::Cow;
use std::time::Instant;

/// Configuration of the splitting loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitConfig {
    /// Maximum accepted split iterations.
    pub max_iterations: usize,
}

impl Default for SplitConfig {
    fn default() -> Self {
        Self { max_iterations: 8 }
    }
}

/// Result of the refinement loop.
#[derive(Debug)]
pub struct SplitResult {
    /// The best allocation found.
    pub outcome: AllocOutcome,
    /// The buffer set matching `outcome.chosen`.
    pub buffers: Vec<VirtualBuffer>,
    /// Number of accepted split iterations.
    pub iterations: usize,
}

/// The allocator callback used by the refinement loop.
pub type AllocatorFn = fn(&AllocProblem<'_>) -> AllocOutcome;

/// The allocator as the refinement loop calls it internally: besides the
/// problem it gets the sorted false edges its buffers were colored
/// under, which identify the buffer set (the DNNK table-memo key).
pub(crate) type Allocate<'a> = dyn Fn(&AllocProblem<'_>, &[FalseEdge]) -> AllocOutcome + 'a;

/// What one refinement run plans against.
pub(crate) struct SplitInputs<'a> {
    pub evaluator: &'a Evaluator<'a>,
    /// Sizes split candidates in bytes (see [`refine`]).
    pub precision: Precision,
    pub budget_bytes: u64,
    pub plan: &'a PrefetchPlan,
    pub streaming: StreamingMode,
    pub feature_graph: &'a InterferenceGraph,
    pub weight_graph: &'a InterferenceGraph,
}

/// Colors both interference graphs into one buffer list (features
/// first), timing it as coloring.
pub(crate) fn color_all(fg: &InterferenceGraph, wg: &InterferenceGraph) -> Vec<VirtualBuffer> {
    let t = Instant::now();
    let mut bufs = fg.color();
    bufs.extend(wg.color());
    profiling::add_coloring_seconds(t.elapsed().as_secs_f64());
    bufs
}

/// Runs allocation, then iteratively splits misspilled buffers while it
/// helps. `precision` sizes the split candidates (bytes, not element
/// counts) so the decisions match the allocator's real buffer sizes.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn refine(
    evaluator: &Evaluator<'_>,
    precision: Precision,
    budget_bytes: u64,
    plan: &PrefetchPlan,
    streaming: StreamingMode,
    feature_graph: InterferenceGraph,
    weight_graph: InterferenceGraph,
    allocator: AllocatorFn,
    config: SplitConfig,
) -> SplitResult {
    let inputs = SplitInputs {
        evaluator,
        precision,
        budget_bytes,
        plan,
        streaming,
        feature_graph: &feature_graph,
        weight_graph: &weight_graph,
    };
    // One loop never revisits a key, so a throwaway memo stores nothing
    // this run reads again.
    refine_from(
        &inputs,
        &TableMemo::default(),
        &|problem, _| allocator(problem),
        config,
    )
}

/// [`refine`] against an artifact set's split-key memo: the buffer set
/// of every key the loop reaches (the sorted false edges it added, the
/// empty key being the initial coloring) is read from `memo` when
/// stored, and otherwise colored and offered to it.
pub(crate) fn refine_from(
    inputs: &SplitInputs<'_>,
    memo: &TableMemo,
    allocate: &Allocate<'_>,
    config: SplitConfig,
) -> SplitResult {
    let allocate_for = |buffers: &[VirtualBuffer], edges: &[FalseEdge]| {
        let problem = AllocProblem::with_streaming(
            inputs.evaluator,
            buffers,
            inputs.budget_bytes,
            inputs.plan,
            inputs.streaming,
        );
        profiling::count_allocator_invocation();
        allocate(&problem, edges)
    };
    // The graphs a key is colored from: the inputs, each cloned the
    // first time it takes a false edge. Keys read from the memo leave
    // them behind, so before coloring, the key's edges are added to
    // them, which is a no-op for edges already there. They never hold an
    // edge outside the key: every edge they took belongs to a key the
    // loop accepted or to the one it is trying, and a rejected split
    // ends the loop.
    let mut feature_graph = Cow::Borrowed(inputs.feature_graph);
    let mut weight_graph = Cow::Borrowed(inputs.weight_graph);
    let mut color_key = |edges: &[FalseEdge]| {
        for &(a, b) in edges {
            match a.kind() {
                ValueKind::Feature => feature_graph.to_mut().add_false_edge(a, b),
                ValueKind::Weight => weight_graph.to_mut().add_false_edge(a, b),
            }
        }
        color_all(&feature_graph, &weight_graph)
    };
    let mut edges: Vec<FalseEdge> = Vec::new();
    let mut buffers = memo.buffers(&edges, || color_key(&edges));
    let mut best = allocate_for(&buffers, &edges);
    let mut iterations = 0;

    while iterations < config.max_iterations {
        let Some((a, b)) = propose_split(inputs.evaluator, inputs.precision, &buffers, &best)
        else {
            break;
        };
        let edge = false_edge(a, b);
        let mut new_edges = edges.clone();
        if let Err(at) = new_edges.binary_search(&edge) {
            new_edges.insert(at, edge);
        }
        let new_buffers = memo.buffers(&new_edges, || color_key(&new_edges));
        let candidate = allocate_for(&new_buffers, &new_edges);
        if candidate.latency < best.latency {
            profiling::count_split_accepted();
            best = candidate;
            buffers = new_buffers;
            edges = new_edges;
            iterations += 1;
        } else {
            profiling::count_split_rejected();
            break;
        }
    }

    SplitResult {
        outcome: best,
        buffers: buffers.to_vec(),
        iterations,
    }
}

/// Picks the next false edge to try: in the largest spilled multi-member
/// buffer, separate the size-defining member from the co-member whose
/// standalone latency value is largest (the misspilling victim).
#[must_use]
pub fn propose_split(
    evaluator: &Evaluator<'_>,
    precision: Precision,
    buffers: &[VirtualBuffer],
    outcome: &AllocOutcome,
) -> Option<(ValueId, ValueId)> {
    let mut empty = Residency::new();
    let spilled = buffers
        .iter()
        .zip(&outcome.chosen)
        .filter(|(b, &c)| !c && b.members.len() >= 2)
        .map(|(b, _)| b)
        .max_by_key(|b| b.bytes)?;
    // The size-defining tensor.
    let sizes: Vec<u64> = spilled
        .members
        .iter()
        .map(|&m| member_bytes(evaluator, precision, m))
        .collect();
    let (big_idx, _) = sizes.iter().enumerate().max_by_key(|(_, &s)| s)?;
    let big = spilled.members[big_idx];
    // The most valuable other member.
    let victim = spilled
        .members
        .iter()
        .copied()
        .filter(|&m| m != big)
        .max_by(|&a, &b| {
            let ga = evaluator.gain_of(&mut empty, &[a]);
            let gb = evaluator.gain_of(&mut empty, &[b]);
            // Total, not `partial_cmp(..).expect(..)`: a degenerate
            // profile must degrade the split choice, not panic the
            // whole pipeline.
            ga.total_cmp(&gb)
        })?;
    Some((big, victim))
}

/// Byte size of one buffer member, comparable to `VirtualBuffer::bytes`
/// (element counts alone would under-weigh wide-precision tensors).
fn member_bytes(evaluator: &Evaluator<'_>, precision: Precision, id: ValueId) -> u64 {
    let graph = evaluator.graph();
    let elems = match id {
        ValueId::Feature(n) => graph.node(n).output_shape().elems(),
        ValueId::Weight(n) => graph.node_weight_elems(n),
    };
    elems * precision.bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{dnnk, CAPACITY_UNIT_BYTES};
    use crate::liveness::LiveInterval;
    use lcmm_fpga::{AccelDesign, Device, Precision};
    use lcmm_graph::{ConvParams, FeatureShape, Graph, GraphBuilder};

    /// A graph engineered to missplill: a huge early tensor shares a
    /// lifespan-disjoint buffer with a small but valuable late tensor.
    fn misspill_graph() -> Graph {
        let mut b = GraphBuilder::new("misspill");
        let x = b.input(FeatureShape::new(256, 56, 56)).expect("input");
        let c0 = b
            .conv("big", x, ConvParams::square(512, 3, 1, 1))
            .expect("big");
        let c1 = b
            .conv("mid", c0, ConvParams::square(64, 3, 2, 1))
            .expect("mid");
        let c2 = b
            .conv("small1", c1, ConvParams::square(512, 3, 2, 1))
            .expect("s1");
        let c3 = b
            .conv("small2", c2, ConvParams::square(512, 3, 1, 1))
            .expect("s2");
        b.finish(c3).expect("valid")
    }

    #[test]
    fn refine_never_worse_than_plain_allocation() {
        let g = misspill_graph();
        let d = AccelDesign::explore(&g, &Device::vu9p(), Precision::Float32);
        let p = d.profile(&g);
        let ev = Evaluator::new(&g, &p);

        // Build feature interference where the big early tensor and a
        // small late tensor share (disjoint lifespans).
        let ids: Vec<ValueId> = g.conv_layers().map(|n| ValueId::Feature(n.id())).collect();
        let sizes: Vec<u64> = g
            .conv_layers()
            .map(|n| n.output_shape().elems() * 4)
            .collect();
        let fg = InterferenceGraph::new(vec![
            (ids[0], sizes[0], LiveInterval::new(0, 1)),
            (ids[1], sizes[1], LiveInterval::new(1, 2)),
            (ids[2], sizes[2], LiveInterval::new(2, 3)),
            (ids[3], sizes[3], LiveInterval::new(3, 4)),
        ]);
        let wg = InterferenceGraph::new(Vec::new());
        let plan = PrefetchPlan::default();
        // A budget that can hold the small tensors but not the big one.
        let budget = 40 * CAPACITY_UNIT_BYTES;

        let plain = {
            let bufs = {
                let mut b = fg.color();
                b.extend(wg.color());
                b
            };
            let problem = AllocProblem::new(&ev, &bufs, budget, &plan);
            dnnk::allocate(&problem)
        };
        let refined = refine(
            &ev,
            Precision::Float32,
            budget,
            &plan,
            StreamingMode::Off,
            fg,
            wg,
            dnnk::allocate,
            SplitConfig::default(),
        );
        assert!(refined.outcome.latency <= plain.latency + 1e-15);
    }

    #[test]
    fn propose_split_targets_largest_spilled_buffer() {
        let g = misspill_graph();
        let d = AccelDesign::explore(&g, &Device::vu9p(), Precision::Float32);
        let p = d.profile(&g);
        let ev = Evaluator::new(&g, &p);
        let ids: Vec<ValueId> = g.conv_layers().map(|n| ValueId::Feature(n.id())).collect();
        let buffers = vec![VirtualBuffer {
            members: vec![ids[0], ids[3]],
            bytes: g.node(ids[0].node()).output_shape().elems() * 4,
        }];
        let outcome = {
            let plan = PrefetchPlan::default();
            let problem = AllocProblem::new(&ev, &buffers, 0, &plan);
            AllocOutcome::from_chosen(&problem, vec![false])
        };
        let (big, victim) =
            propose_split(&ev, Precision::Float32, &buffers, &outcome).expect("split proposed");
        assert_eq!(big, ids[0]);
        assert_eq!(victim, ids[3]);
    }

    /// Regression test for the element-count bug: `member_bytes` used to
    /// return raw element counts, so the "size-defining member" was not
    /// measured in the same unit as `VirtualBuffer::bytes`. After the
    /// fix, sizes scale with the precision byte-width and the proposal
    /// is stable across precisions.
    #[test]
    fn size_defining_member_is_stable_across_precisions() {
        let g = misspill_graph();
        let d = AccelDesign::explore(&g, &Device::vu9p(), Precision::Float32);
        let p = d.profile(&g);
        let ev = Evaluator::new(&g, &p);
        let ids: Vec<ValueId> = g.conv_layers().map(|n| ValueId::Feature(n.id())).collect();
        let big_elems = g.node(ids[0].node()).output_shape().elems();
        let buffers = vec![VirtualBuffer {
            members: vec![ids[0], ids[3]],
            bytes: big_elems * 4,
        }];
        let plan = PrefetchPlan::default();
        let problem = AllocProblem::new(&ev, &buffers, 0, &plan);
        let outcome = AllocOutcome::from_chosen(&problem, vec![false]);
        let mut picks = Vec::new();
        for precision in [Precision::Fix8, Precision::Float32] {
            let (big, victim) =
                propose_split(&ev, precision, &buffers, &outcome).expect("split proposed");
            // The proposed sizes now live in the buffer's unit: the
            // size-defining member at this precision accounts for the
            // buffer's byte size exactly at Float32 (4 B/elem).
            if precision == Precision::Float32 {
                assert_eq!(big_elems * precision.bytes(), buffers[0].bytes);
            }
            picks.push((big, victim));
        }
        assert_eq!(picks[0], picks[1], "precision must not change the split");
        assert_eq!(picks[0].0, ids[0]);
    }

    #[test]
    fn no_split_when_everything_allocated() {
        let g = misspill_graph();
        let d = AccelDesign::explore(&g, &Device::vu9p(), Precision::Float32);
        let p = d.profile(&g);
        let ev = Evaluator::new(&g, &p);
        let buffers = vec![VirtualBuffer {
            members: vec![ValueId::Feature(g.node_by_name("big").unwrap().id())],
            bytes: 100,
        }];
        let plan = PrefetchPlan::default();
        let problem = AllocProblem::new(&ev, &buffers, 1 << 30, &plan);
        let outcome = AllocOutcome::from_chosen(&problem, vec![true]);
        assert!(propose_split(&ev, Precision::Float32, &buffers, &outcome).is_none());
    }

    /// A split that grows the buffer set past what the exact allocator
    /// enumerates is rejected instead of panicking.
    #[test]
    fn split_past_the_exhaustive_limit_is_rejected() {
        use crate::alloc::exhaustive::{self, MAX_BUFFERS};
        let mut b = GraphBuilder::new("wide");
        let mut cur = b.input(FeatureShape::new(8, 4, 4)).expect("input");
        let mut ids = Vec::new();
        for i in 0..=MAX_BUFFERS {
            cur = b
                .conv(format!("c{i}"), cur, ConvParams::pointwise(8))
                .expect("valid conv");
            ids.push(ValueId::Feature(cur));
        }
        let g = b.finish(cur).expect("valid");
        let d = AccelDesign::explore(&g, &Device::vu9p(), Precision::Float32);
        let p = d.profile(&g);
        let ev = Evaluator::new(&g, &p);
        // Every tensor overlaps every other except the first and the
        // last, which share one buffer until a split separates them.
        let last = ids.len() - 1;
        let fg = InterferenceGraph::new(
            ids.iter()
                .enumerate()
                .map(|(k, &id)| {
                    let span = match k {
                        0 => LiveInterval::new(0, 1),
                        k if k == last => LiveInterval::new(2, 9),
                        _ => LiveInterval::new(0, 9),
                    };
                    (id, 512, span)
                })
                .collect(),
        );
        assert_eq!(fg.color().len(), MAX_BUFFERS);
        let refined = refine(
            &ev,
            Precision::Float32,
            0,
            &PrefetchPlan::default(),
            StreamingMode::Off,
            fg,
            InterferenceGraph::new(Vec::new()),
            exhaustive::allocate,
            SplitConfig::default(),
        );
        assert_eq!(refined.iterations, 0);
        assert_eq!(refined.buffers.len(), MAX_BUFFERS);
    }

    #[test]
    fn default_config_caps_iterations() {
        assert_eq!(SplitConfig::default().max_iterations, 8);
    }
}
