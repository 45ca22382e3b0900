//! Exact latency evaluation of a residency assignment.
//!
//! This is the ground truth every allocator in this crate is scored
//! against: given the set of values held on-chip, the latency of node
//! `i` is (paper Eq. 1)
//!
//! ```text
//! lat(i) = max( latc(i),
//!               Σ_{off-chip inputs} lat_if,
//!               lat_wt (0 if the weight value is on-chip and its
//!                        prefetch span hides the load),
//!               lat_of (0 if the produced value is on-chip) )
//! ```
//!
//! summed over all nodes (layers execute sequentially; transfers overlap
//! compute through double buffering, so the max of the terms governs
//! each layer).

use crate::fast_hash::{FxHashMap, FxHashSet};
use crate::profiling::PassStats;
use crate::value::ValueId;
use lcmm_fpga::GraphProfile;
use lcmm_graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// The set of values resident in on-chip SRAM.
///
/// For weight values, an optional *exposed* residual transfer time can
/// be recorded: when a weight's prefetch window is shorter than its load
/// time, the uncovered remainder still stalls the layer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Residency {
    // Fx-hashed: `contains` runs once per latency term per evaluated
    // node, the hottest probe in the evaluator.
    on_chip: FxHashSet<ValueId>,
    exposed_weight_seconds: FxHashMap<NodeId, f64>,
}

impl Residency {
    /// An empty residency: everything streams from DRAM (UMM).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a value resident. Inserting a weight clears any recorded
    /// exposure for it: a freshly resident weight is fully hidden until
    /// [`Residency::set_exposed_weight`] says otherwise. Without this,
    /// an exposure recorded while the weight was *not* resident (where
    /// it is dead weight — the evaluator charges the full load time)
    /// would silently spring back to life on a later insert.
    pub fn insert(&mut self, id: ValueId) {
        self.on_chip.insert(id);
        if let ValueId::Weight(n) = id {
            self.exposed_weight_seconds.remove(&n);
        }
    }

    /// Removes a value.
    pub fn remove(&mut self, id: ValueId) {
        self.on_chip.remove(&id);
        if let ValueId::Weight(n) = id {
            self.exposed_weight_seconds.remove(&n);
        }
    }

    /// Whether a value is resident.
    #[must_use]
    pub fn contains(&self, id: ValueId) -> bool {
        self.on_chip.contains(&id)
    }

    /// Records that the weight of `node`, although resident, has
    /// `seconds` of its load time not hidden by prefetching.
    pub fn set_exposed_weight(&mut self, node: NodeId, seconds: f64) {
        if seconds > 0.0 {
            self.exposed_weight_seconds.insert(node, seconds);
        } else {
            self.exposed_weight_seconds.remove(&node);
        }
    }

    /// The still-exposed weight load time of `node`, if any.
    #[must_use]
    pub fn exposed_weight(&self, node: NodeId) -> f64 {
        self.exposed_weight_seconds
            .get(&node)
            .copied()
            .unwrap_or(0.0)
    }

    /// Iterates over resident values.
    pub fn iter(&self) -> impl Iterator<Item = &ValueId> {
        self.on_chip.iter()
    }

    /// Number of resident values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.on_chip.len()
    }

    /// Whether nothing is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.on_chip.is_empty()
    }
}

impl FromIterator<ValueId> for Residency {
    fn from_iter<I: IntoIterator<Item = ValueId>>(iter: I) -> Self {
        let mut r = Residency::new();
        for v in iter {
            r.insert(v);
        }
        r
    }
}

impl Extend<ValueId> for Residency {
    fn extend<I: IntoIterator<Item = ValueId>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

/// Evaluates residency assignments against an operation latency table.
///
/// An evaluator also carries the counters of the planning run it serves
/// (see [`crate::profiling`]): every pass holds it, so each adds its
/// counts here.
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    graph: &'a Graph,
    profile: &'a GraphProfile,
    /// readers[i] = nodes whose latency row reads node i's value.
    readers: Vec<Vec<NodeId>>,
    /// The counters of [`PassStats`] the passes have added so far; its
    /// timings other than `coloring_seconds` stay 0.
    stats: Cell<PassStats>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over one graph/profile pair.
    #[must_use]
    pub fn new(graph: &'a Graph, profile: &'a GraphProfile) -> Self {
        let mut readers: Vec<Vec<NodeId>> = vec![Vec::new(); graph.len()];
        for node in graph.iter() {
            for (src, _) in &profile.node(node.id()).inputs {
                readers[src.index()].push(node.id());
            }
        }
        Self {
            graph,
            profile,
            readers,
            stats: Cell::default(),
        }
    }

    /// Adds to this run's counters.
    pub(crate) fn count(&self, add: impl FnOnce(&mut PassStats)) {
        let mut stats = self.stats.get();
        add(&mut stats);
        self.stats.set(stats);
    }

    /// Takes the counters added so far, leaving them zeroed.
    pub(crate) fn take_stats(&self) -> PassStats {
        self.stats.take()
    }

    /// The graph under evaluation.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The latency table under evaluation.
    #[must_use]
    pub fn profile(&self) -> &GraphProfile {
        self.profile
    }

    /// Latency of one node under `residency` (paper Eq. 1).
    #[must_use]
    pub fn node_latency(&self, id: NodeId, residency: &Residency) -> f64 {
        let row = self.profile.node(id);
        let if_term: f64 = row
            .inputs
            .iter()
            .filter(|(src, _)| !residency.contains(ValueId::Feature(*src)))
            .map(|(_, t)| *t)
            .sum();
        let wt_term = if residency.contains(ValueId::Weight(id)) {
            residency.exposed_weight(id)
        } else {
            row.weight
        };
        let of_term = if residency.contains(ValueId::Feature(id)) {
            0.0
        } else {
            row.output
        };
        row.compute.max(if_term).max(wt_term).max(of_term)
    }

    /// End-to-end latency under `residency`.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcmm_core::{Evaluator, Residency, ValueId};
    /// use lcmm_fpga::{AccelDesign, Device, Precision};
    ///
    /// let graph = lcmm_graph::zoo::alexnet();
    /// let design = AccelDesign::explore(&graph, &Device::vu9p(), Precision::Fix16);
    /// let profile = design.profile(&graph);
    /// let evaluator = Evaluator::new(&graph, &profile);
    ///
    /// let umm = evaluator.total_latency(&Residency::new());
    /// let mut residency = Residency::new();
    /// residency.insert(ValueId::Weight(graph.node_by_name("fc6").unwrap().id()));
    /// assert!(evaluator.total_latency(&residency) < umm);
    /// ```
    #[must_use]
    pub fn total_latency(&self, residency: &Residency) -> f64 {
        self.count(|s| s.evaluator_calls += 1);
        self.graph
            .iter()
            .map(|n| self.node_latency(n.id(), residency))
            .sum()
    }

    /// Total off-chip transfer time per inference under `residency`,
    /// in seconds: the sum over all nodes of the non-resident input,
    /// weight and output terms. Unlike Eq. 1 this does not take the
    /// per-layer max — it measures the data actually moved across the
    /// DRAM interface (multiply by the design's interface bandwidth to
    /// get bytes), which is the traffic metric `lcmm sweep-fusion`
    /// compares plans on.
    #[must_use]
    pub fn transfer_seconds(&self, residency: &Residency) -> f64 {
        self.graph
            .iter()
            .map(|n| {
                let row = self.profile.node(n.id());
                let if_term: f64 = row
                    .inputs
                    .iter()
                    .filter(|(src, _)| !residency.contains(ValueId::Feature(*src)))
                    .map(|(_, t)| *t)
                    .sum();
                let wt_term = if residency.contains(ValueId::Weight(n.id())) {
                    0.0
                } else {
                    row.weight
                };
                let of_term = if residency.contains(ValueId::Feature(n.id())) {
                    0.0
                } else {
                    row.output
                };
                if_term + wt_term + of_term
            })
            .sum()
    }

    /// Marginal latency reduction of adding `values` to `residency`
    /// (non-negative; only the nodes touching the values are revisited).
    ///
    /// The residency is used as scratch state — `values` are inserted,
    /// the touched nodes re-scored, and every mutation undone — so the
    /// set is bit-identical to its input state on return. This replaces
    /// a full clone of the residency per call, which dominated the
    /// allocator hot path on thousand-node graphs where the resident
    /// set holds hundreds of values. [`Evaluator::gain_of_reference`]
    /// keeps the clone-based formulation as the executable spec.
    #[must_use]
    pub fn gain_of(&self, residency: &mut Residency, values: &[ValueId]) -> f64 {
        self.count(|s| s.evaluator_calls += 1);
        let touched = self.touched_nodes(values);
        let before: f64 = touched
            .iter()
            .map(|&n| self.node_latency(n, residency))
            .sum();
        // Insert-then-undo: record (value, was resident, prior exposure)
        // before each insert. Replayed in reverse, the first record of a
        // duplicated value wins, restoring the original state exactly.
        let mut undo: Vec<(ValueId, bool, f64)> = Vec::with_capacity(values.len());
        for &v in values {
            let was_resident = residency.contains(v);
            let prior_exposure = match v {
                ValueId::Weight(n) => residency.exposed_weight(n),
                ValueId::Feature(_) => 0.0,
            };
            undo.push((v, was_resident, prior_exposure));
            residency.insert(v);
        }
        let after: f64 = touched
            .iter()
            .map(|&n| self.node_latency(n, residency))
            .sum();
        for &(v, was_resident, prior_exposure) in undo.iter().rev() {
            if !was_resident {
                residency.remove(v);
            }
            if let ValueId::Weight(n) = v {
                // `insert`/`remove` both cleared the exposure entry;
                // re-set it (a stale entry recorded while non-resident
                // is restored too — scratch means *exact* restoration).
                if prior_exposure > 0.0 {
                    residency.set_exposed_weight(n, prior_exposure);
                }
            }
        }
        before - after
    }

    /// Clone-based reference implementation of [`Evaluator::gain_of`]:
    /// copies the residency, extends it with `values` and re-scores the
    /// touched nodes. Kept as the executable specification the in-place
    /// fast path is property-tested against (bit-identical results, so
    /// allocator decisions cannot drift).
    #[must_use]
    pub fn gain_of_reference(&self, residency: &Residency, values: &[ValueId]) -> f64 {
        self.count(|s| s.evaluator_calls += 1);
        let touched = self.touched_nodes(values);
        let before: f64 = touched
            .iter()
            .map(|&n| self.node_latency(n, residency))
            .sum();
        let mut with = residency.clone();
        with.extend(values.iter().copied());
        let after: f64 = touched.iter().map(|&n| self.node_latency(n, &with)).sum();
        before - after
    }

    /// The nodes whose latency can change when `values` change
    /// residency: producers and readers.
    #[must_use]
    pub fn touched_nodes(&self, values: &[ValueId]) -> Vec<NodeId> {
        // Dedup via a dense seen-array: colored buffers hand in hundreds
        // of members, and a `Vec::contains` per insert is quadratic.
        // Insertion order is preserved.
        let mut seen = vec![false; self.graph.len()];
        let mut out: Vec<NodeId> = Vec::new();
        let mut push = |out: &mut Vec<NodeId>, n: NodeId| {
            if !seen[n.index()] {
                seen[n.index()] = true;
                out.push(n);
            }
        };
        for v in values {
            match v {
                ValueId::Weight(n) => push(&mut out, *n),
                ValueId::Feature(n) => {
                    push(&mut out, *n);
                    for &reader in &self.readers[n.index()] {
                        push(&mut out, reader);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcmm_fpga::{AccelDesign, Device, Precision};
    use lcmm_graph::zoo;

    fn setup(graph: &Graph) -> (AccelDesign, GraphProfile) {
        let d = AccelDesign::explore(graph, &Device::vu9p(), Precision::Fix16);
        let p = d.profile(graph);
        (d, p)
    }

    #[test]
    fn empty_residency_matches_umm_total() {
        let g = zoo::googlenet();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let umm = ev.total_latency(&Residency::new());
        assert!((umm - p.total_latency()).abs() < 1e-12);
    }

    #[test]
    fn residency_monotonically_helps() {
        let g = zoo::resnet50();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let mut r = Residency::new();
        let mut last = ev.total_latency(&r);
        for node in g.compute_layers().take(20) {
            r.insert(ValueId::Weight(node.id()));
            let now = ev.total_latency(&r);
            assert!(now <= last + 1e-15, "adding residency must not hurt");
            last = now;
        }
    }

    #[test]
    fn full_residency_reaches_compute_floor_for_linear_net() {
        let g = zoo::vgg16();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let mut r = Residency::new();
        for n in g.iter() {
            r.insert(ValueId::Feature(n.id()));
            r.insert(ValueId::Weight(n.id()));
        }
        // Input and output values are still off-chip in reality, but for
        // this bound we include them: the total must hit the floor.
        let total = ev.total_latency(&r);
        assert!((total - p.compute_floor()).abs() / p.compute_floor() < 1e-9);
    }

    #[test]
    fn exposed_weight_partially_stalls() {
        let g = zoo::vgg16();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let fc6 = g.node_by_name("fc6").unwrap().id();
        let mut r = Residency::new();
        r.insert(ValueId::Weight(fc6));
        let hidden = ev.node_latency(fc6, &r);
        r.set_exposed_weight(fc6, 1.0); // a full second exposed
        let stalled = ev.node_latency(fc6, &r);
        assert!(stalled >= 1.0);
        assert!(hidden < stalled);
        r.set_exposed_weight(fc6, 0.0);
        assert_eq!(ev.node_latency(fc6, &r), hidden);
    }

    #[test]
    fn gain_matches_full_reevaluation() {
        let g = zoo::googlenet();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let mut r = Residency::new();
        let conv = g.node_by_name("inception_4a/3x3").unwrap().id();
        let vals = vec![ValueId::Weight(conv), ValueId::Feature(conv)];
        let gain = ev.gain_of(&mut r, &vals);
        let mut with = r.clone();
        with.extend(vals.iter().copied());
        let full_gain = ev.total_latency(&r) - ev.total_latency(&with);
        assert!((gain - full_gain).abs() < 1e-12);
        assert!(gain >= 0.0);
    }

    #[test]
    fn gain_restores_scratch_residency_exactly() {
        let g = zoo::googlenet();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let a = g.node_by_name("inception_3a/3x3").unwrap().id();
        let b = g.node_by_name("inception_4a/3x3").unwrap().id();
        let mut r = Residency::new();
        r.insert(ValueId::Weight(a));
        r.set_exposed_weight(a, 2e-4);
        r.insert(ValueId::Feature(a));
        let snapshot = r.clone();
        // Values overlapping the resident set, duplicated, with a weight
        // whose exposure must survive the round trip.
        let vals = vec![
            ValueId::Weight(a),
            ValueId::Weight(b),
            ValueId::Feature(b),
            ValueId::Weight(b),
        ];
        let fast = ev.gain_of(&mut r, &vals);
        assert_eq!(r, snapshot, "scratch residency must be restored");
        let reference = ev.gain_of_reference(&snapshot, &vals);
        assert_eq!(fast.to_bits(), reference.to_bits(), "{fast} vs {reference}");
    }

    #[test]
    fn gain_fast_path_is_bit_identical_to_reference() {
        // Residency states drawn from a real pipeline-like sweep: every
        // prefix of the weight set, probed with each next buffer. The
        // fast path must agree with the clone-based spec to the last
        // bit, or allocator decisions could drift.
        let g = zoo::resnet50();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let mut r = Residency::new();
        for node in g.compute_layers().take(30) {
            let vals = [ValueId::Weight(node.id()), ValueId::Feature(node.id())];
            let reference = ev.gain_of_reference(&r, &vals);
            let fast = ev.gain_of(&mut r, &vals);
            assert_eq!(fast.to_bits(), reference.to_bits());
            r.insert(ValueId::Weight(node.id()));
        }
    }

    #[test]
    fn stale_exposure_cleared_on_insert() {
        // Regression: set_exposed_weight on a non-resident weight left a
        // stale entry that sprang back to life on a later insert.
        let g = zoo::vgg16();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let fc6 = g.node_by_name("fc6").unwrap().id();
        let mut r = Residency::new();
        r.set_exposed_weight(fc6, 1.0); // not resident: dead entry
        r.insert(ValueId::Weight(fc6));
        assert_eq!(r.exposed_weight(fc6), 0.0, "stale exposure survived");
        let mut fresh = Residency::new();
        fresh.insert(ValueId::Weight(fc6));
        assert_eq!(ev.node_latency(fc6, &r), ev.node_latency(fc6, &fresh));
    }

    #[test]
    fn insert_set_remove_insert_returns_to_hidden_latency() {
        let g = zoo::vgg16();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let fc6 = g.node_by_name("fc6").unwrap().id();
        let mut r = Residency::new();
        r.insert(ValueId::Weight(fc6));
        let hidden = ev.node_latency(fc6, &r);
        r.set_exposed_weight(fc6, 1.0);
        assert!(ev.node_latency(fc6, &r) > hidden);
        r.remove(ValueId::Weight(fc6));
        r.insert(ValueId::Weight(fc6));
        assert_eq!(
            ev.node_latency(fc6, &r),
            hidden,
            "re-inserted weight must start fully hidden"
        );
    }

    #[test]
    fn touched_nodes_cover_readers() {
        let g = zoo::googlenet();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let b1 = g.node_by_name("inception_3a/1x1").unwrap().id();
        let touched = ev.touched_nodes(&[ValueId::Feature(b1)]);
        // Producer plus the 3b heads and pool that read the concat.
        assert!(touched.len() >= 5, "got {touched:?}");
        assert!(touched.contains(&b1));
    }

    #[test]
    fn remove_clears_exposure() {
        let mut r = Residency::new();
        let n = NodeId::new(1);
        r.insert(ValueId::Weight(n));
        r.set_exposed_weight(n, 0.5);
        r.remove(ValueId::Weight(n));
        assert_eq!(r.exposed_weight(n), 0.0);
        assert!(r.is_empty());
    }
}
