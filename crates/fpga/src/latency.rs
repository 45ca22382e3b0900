//! The per-node operation latency table (paper Fig. 7(c)).
//!
//! For every node the model produces the compute latency `latc` and the
//! three tensor transfer latencies `lat_if`, `lat_wt`, `lat_of`. The
//! layer latency under a given residency assignment is
//! `max(latc, …off-chip transfer terms…)` (paper Eq. 1): transfers and
//! compute overlap through double buffering, so the slowest term governs.

use crate::design::AccelDesign;
use crate::tiling::TilingMemo;
use lcmm_graph::{Graph, Node, NodeId, OpKind};
use serde::{Deserialize, Serialize};

/// Which of a node's tensors a latency term refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TensorKind {
    /// Input feature map (`if`).
    InputFeature,
    /// Weights (`wt`).
    Weight,
    /// Output feature map (`of`).
    OutputFeature,
}

/// Throughput of the lightweight post-processing units (pooling,
/// element-wise add, global pooling) in elements per cycle.
const POST_ELEMS_PER_CYCLE: u64 = 64;

/// Latency breakdown of one node, in seconds.
///
/// `inputs` is decomposed per *source value*: reads are attributed to the
/// node that materialised the data, with concatenation nodes resolved
/// away (a concat is pure address aliasing on this architecture and
/// moves no data itself).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpLatency {
    /// The node this row describes.
    pub id: NodeId,
    /// Compute latency `latc` (0 for concat / input nodes).
    pub compute: f64,
    /// Input transfer latency per resolved source value:
    /// `(producing node, seconds)`.
    pub inputs: Vec<(NodeId, f64)>,
    /// Weight transfer latency `lat_wt` (0 for weight-less nodes).
    pub weight: f64,
    /// Output transfer latency `lat_of`.
    pub output: f64,
    /// Pipeline-fill time: one tile's worth of the layer's slowest
    /// input-side stream. A design whose DMA engine only starts a
    /// layer's loads when the layer begins (no cross-layer tile
    /// prefetch) exposes this serially before compute; Fig.-1-style
    /// double buffering across layer boundaries hides it. The analytic
    /// Eq.-1 model assumes it hidden (as the paper does); the simulator
    /// can charge it (`SimConfig::pipeline_fill`) to quantify what the
    /// cross-layer double buffer is worth.
    pub fill: f64,
}

impl OpLatency {
    /// Total input transfer latency `lat_if` (all sources off-chip).
    #[must_use]
    pub fn input_total(&self) -> f64 {
        self.inputs.iter().map(|(_, t)| t).sum()
    }

    /// Node latency with every tensor off-chip (the UMM case):
    /// `max(latc, lat_if, lat_wt, lat_of)`.
    #[must_use]
    pub fn off_chip_latency(&self) -> f64 {
        self.compute
            .max(self.input_total())
            .max(self.weight)
            .max(self.output)
    }

    /// Node latency with every tensor on-chip: just the compute term.
    #[must_use]
    pub fn on_chip_latency(&self) -> f64 {
        self.compute
    }

    /// The largest off-chip transfer term.
    #[must_use]
    pub fn worst_transfer(&self) -> f64 {
        self.input_total().max(self.weight).max(self.output)
    }
}

/// Compute- vs memory-boundedness of a layer (paper Fig. 2(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Boundedness {
    /// `latc` dominates all transfer terms.
    Compute,
    /// Some transfer term exceeds `latc`.
    Memory,
}

/// The full operation latency table for a graph under one design.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GraphProfile {
    /// One row per node, indexed by `NodeId::index()`.
    pub per_node: Vec<OpLatency>,
}

impl GraphProfile {
    /// Builds the table for `graph` under `design`.
    ///
    /// # Panics
    ///
    /// Panics if the latency model produced a non-finite or negative
    /// term (a model bug) — downstream passes sort and subtract these
    /// values, and a NaN entering the prefetch planner would silently
    /// scramble its risk ordering.
    #[must_use]
    pub fn build(graph: &Graph, design: &AccelDesign) -> Self {
        let mut tilings = TilingMemo::default();
        let per_node = graph
            .iter()
            .map(|node| design.node_latency(graph, node, &mut tilings))
            .collect();
        let profile = Self { per_node };
        profile
            .validate()
            .expect("latency model produced an invalid term");
        profile
    }

    /// Checks every latency term is finite and non-negative.
    ///
    /// [`Self::build`] enforces this at construction; callers that
    /// ingest a profile from elsewhere (deserialisation, synthetic
    /// tables) should run it before handing the profile to the planner.
    pub fn validate(&self) -> Result<(), String> {
        let ok = |t: f64| t.is_finite() && t >= 0.0;
        for row in &self.per_node {
            let terms = [
                ("compute", row.compute),
                ("weight", row.weight),
                ("output", row.output),
                ("fill", row.fill),
            ];
            let inputs = row.inputs.iter().map(|&(_, t)| ("input", t));
            for (name, t) in terms.into_iter().chain(inputs) {
                if !ok(t) {
                    return Err(format!(
                        "node {} has an invalid {name} latency: {t}",
                        row.id.index()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Latency row of one node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &OpLatency {
        &self.per_node[id.index()]
    }

    /// End-to-end latency with uniform memory management: every tensor
    /// streams through DRAM, layers execute sequentially.
    #[must_use]
    pub fn total_latency(&self) -> f64 {
        self.per_node.iter().map(OpLatency::off_chip_latency).sum()
    }

    /// Lower bound: every transfer hidden, pure compute.
    #[must_use]
    pub fn compute_floor(&self) -> f64 {
        self.per_node.iter().map(|l| l.compute).sum()
    }

    /// Boundedness of one node (only meaningful for compute layers).
    #[must_use]
    pub fn boundedness(&self, id: NodeId) -> Boundedness {
        let l = &self.per_node[id.index()];
        if l.worst_transfer() > l.compute {
            Boundedness::Memory
        } else {
            Boundedness::Compute
        }
    }

    /// Ids of memory-bound compute layers.
    #[must_use]
    pub fn memory_bound_layers(&self, graph: &Graph) -> Vec<NodeId> {
        graph
            .compute_layers()
            .filter(|n| self.boundedness(n.id()) == Boundedness::Memory)
            .map(|n| n.id())
            .collect()
    }

    /// Fraction of compute layers that are memory bound.
    #[must_use]
    pub fn memory_bound_fraction(&self, graph: &Graph) -> f64 {
        let total = graph.compute_layers().count();
        if total == 0 {
            return 0.0;
        }
        self.memory_bound_layers(graph).len() as f64 / total as f64
    }
}

/// Resolves a node's inputs through concatenation nodes to the values
/// that actually hold bytes.
///
/// Concat is address aliasing: its "output tensor" is physically the set
/// of its source tensors, so reads of a concat are reads of its sources.
#[must_use]
pub fn resolved_sources(graph: &Graph, node: &Node) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack: Vec<NodeId> = node.inputs().iter().rev().copied().collect();
    while let Some(id) = stack.pop() {
        let n = graph.node(id);
        if matches!(n.op(), OpKind::Concat) {
            stack.extend(n.inputs().iter().rev().copied());
        } else {
            out.push(id);
        }
    }
    out
}

pub(crate) fn post_engine_cycles(elems: u64) -> u64 {
    elems.div_ceil(POST_ELEMS_PER_CYCLE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccelDesign, Device, Precision};
    use lcmm_graph::zoo;

    fn profile(graph: &Graph) -> (AccelDesign, GraphProfile) {
        let design = AccelDesign::explore(graph, &Device::vu9p(), Precision::Fix16);
        let p = design.profile(graph);
        (design, p)
    }

    #[test]
    fn table_covers_all_nodes() {
        let g = zoo::alexnet();
        let (_, p) = profile(&g);
        assert_eq!(p.per_node.len(), g.len());
        for (i, row) in p.per_node.iter().enumerate() {
            assert_eq!(row.id.index(), i);
        }
    }

    #[test]
    fn off_chip_latency_is_max_of_terms() {
        let l = OpLatency {
            id: NodeId::new(0),
            compute: 3.0,
            inputs: vec![(NodeId::new(1), 1.0), (NodeId::new(2), 2.5)],
            weight: 2.0,
            output: 1.0,
            fill: 0.1,
        };
        assert_eq!(l.input_total(), 3.5);
        assert_eq!(l.off_chip_latency(), 3.5);
        assert_eq!(l.on_chip_latency(), 3.0);
        assert_eq!(l.worst_transfer(), 3.5);
    }

    #[test]
    fn concat_nodes_are_free() {
        let g = zoo::googlenet();
        let (_, p) = profile(&g);
        let cat = g.node_by_name("inception_3a/output").unwrap().id();
        let row = p.node(cat);
        assert_eq!(row.compute, 0.0);
        assert!(row.inputs.is_empty());
        assert_eq!(row.output, 0.0);
    }

    #[test]
    fn concat_reads_resolve_to_branches() {
        let g = zoo::googlenet();
        // inception_3b's 1x1 conv reads inception_3a/output (a concat):
        // its sources must be the four branch tails of 3a.
        let conv = g.node_by_name("inception_3b/1x1").unwrap();
        let sources = resolved_sources(&g, conv);
        assert_eq!(sources.len(), 4);
        let names: Vec<&str> = sources.iter().map(|&s| g.node(s).name()).collect();
        assert!(names.contains(&"inception_3a/1x1"));
        assert!(names.contains(&"inception_3a/pool_proj"));
    }

    #[test]
    fn conv_rows_have_all_terms() {
        let g = zoo::resnet50();
        let (_, p) = profile(&g);
        let conv = g.node_by_name("res2a_branch2b").unwrap().id();
        let row = p.node(conv);
        assert!(row.compute > 0.0);
        assert!(row.weight > 0.0);
        assert!(row.output > 0.0);
        assert_eq!(row.inputs.len(), 1);
        assert!(row.inputs[0].1 > 0.0);
    }

    #[test]
    fn totals_are_ordered() {
        let g = zoo::googlenet();
        let (_, p) = profile(&g);
        assert!(p.compute_floor() > 0.0);
        assert!(p.total_latency() >= p.compute_floor());
    }

    #[test]
    fn some_layers_memory_bound_some_not() {
        let g = zoo::inception_v4();
        let (_, p) = profile(&g);
        let frac = p.memory_bound_fraction(&g);
        assert!(frac > 0.1, "too few memory-bound layers: {frac}");
        assert!(frac < 0.95, "everything memory bound: {frac}");
    }

    #[test]
    fn validate_rejects_nan_and_negative_terms() {
        let g = zoo::alexnet();
        let (_, mut p) = profile(&g);
        assert!(p.validate().is_ok());
        p.per_node[3].weight = f64::NAN;
        let err = p.validate().unwrap_err();
        assert!(err.contains("weight"), "{err}");
        p.per_node[3].weight = -1e-9;
        assert!(p.validate().is_err());
        p.per_node[3].weight = 0.0;
        assert!(p.validate().is_ok());
        p.per_node[2].inputs.push((NodeId::new(0), f64::INFINITY));
        let err = p.validate().unwrap_err();
        assert!(err.contains("input"), "{err}");
    }

    #[test]
    fn post_engine_rounds_up() {
        assert_eq!(post_engine_cycles(1), 1);
        assert_eq!(post_engine_cycles(64), 1);
        assert_eq!(post_engine_cycles(65), 2);
    }
}
