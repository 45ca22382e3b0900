//! Interference graphs and size-minimising buffer coloring (§3.1).
//!
//! Classic register allocation minimises the number of colors; LCMM
//! minimises total buffer *bytes* (the paper adapts \[6\] with exactly
//! this change). We use best-fit-decreasing: process values largest
//! first and put each into the compatible buffer where it wastes the
//! least capacity, opening a new buffer when none is compatible.
//!
//! # Scaling
//!
//! The paper's networks top out around 150 layers, where a quadratic
//! coloring is invisible; thousand-node graphs (see
//! `lcmm_graph::zoo::synthetic`) are not so forgiving. The production
//! path therefore never scans buffer members pairwise:
//! [`InterferenceGraph::color`] indexes each open buffer by a sorted
//! vector of its occupied intervals (disjoint by construction, so a
//! placement probe is one binary search) plus a dense member bitset
//! intersected against per-value false-edge bitset rows.
//!
//! The original pairwise implementation survives as
//! [`InterferenceGraph::color_reference`]: it is the executable
//! specification. Property tests assert the fast path returns
//! byte-identical buffers, and the scaling bench measures the gap.

use crate::liveness::LiveInterval;
use crate::value::ValueId;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// An interference graph over tensor values.
///
/// A false edge between two values, smaller value first.
pub(crate) type FalseEdge = (ValueId, ValueId);

/// The false edge between `a` and `b`, in its stored orientation.
pub(crate) fn false_edge(a: ValueId, b: ValueId) -> FalseEdge {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Edges come from lifespan overlap, plus any *false* edges added by the
/// buffer-splitting pass (§3.4) to force two compatible values apart.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InterferenceGraph {
    nodes: Vec<(ValueId, u64)>,
    intervals: HashMap<ValueId, LiveInterval>,
    false_edges: HashSet<FalseEdge>,
}

impl InterferenceGraph {
    /// Builds the graph from values with their sizes and lifespans.
    #[must_use]
    pub fn new(values: Vec<(ValueId, u64, LiveInterval)>) -> Self {
        let nodes = values.iter().map(|&(id, bytes, _)| (id, bytes)).collect();
        let intervals = values.into_iter().map(|(id, _, iv)| (id, iv)).collect();
        Self {
            nodes,
            intervals,
            false_edges: HashSet::new(),
        }
    }

    /// Adds a false lifespan-overlap edge (used by buffer splitting).
    pub fn add_false_edge(&mut self, a: ValueId, b: ValueId) {
        self.false_edges.insert(false_edge(a, b));
    }

    /// Number of false edges currently in force.
    #[must_use]
    pub fn false_edge_count(&self) -> usize {
        self.false_edges.len()
    }

    /// Whether two values interfere (overlap or false edge).
    #[must_use]
    pub fn interferes(&self, a: ValueId, b: ValueId) -> bool {
        if a == b {
            return false;
        }
        if self.false_edges.contains(&false_edge(a, b)) {
            return true;
        }
        match (self.intervals.get(&a), self.intervals.get(&b)) {
            (Some(x), Some(y)) => x.overlaps(y),
            _ => true, // unknown lifespan: be conservative
        }
    }

    /// The values in the graph.
    #[must_use]
    pub fn values(&self) -> &[(ValueId, u64)] {
        &self.nodes
    }

    /// Lifespan of a value, if known.
    #[must_use]
    pub fn interval(&self, id: ValueId) -> Option<LiveInterval> {
        self.intervals.get(&id).copied()
    }

    /// Colors the graph into virtual buffers minimising total bytes
    /// (best-fit decreasing).
    ///
    /// Placement probes run against the interval index, not the member
    /// lists; the result is byte-identical to
    /// [`InterferenceGraph::color_reference`] (property-tested).
    #[must_use]
    pub fn color(&self) -> Vec<VirtualBuffer> {
        let index = DenseIndex::build(self);
        let mut order: Vec<(ValueId, u64)> = self.nodes.clone();
        // Deterministic: sort by size descending, then id.
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut buffers: Vec<VirtualBuffer> = Vec::new();
        let mut open: Vec<OpenBuffer> = Vec::new();
        for (id, bytes) in order {
            let idx = index.index_of(id);
            let interval = index.intervals[idx as usize];
            let mut best: Option<(u64, usize)> = None;
            for (i, buf) in buffers.iter().enumerate() {
                if open[i].conflicts(idx, interval, &index) {
                    continue;
                }
                // Since we process in decreasing size order, the buffer
                // is at least as large as this value: waste = buf - v.
                let waste = buf.bytes - bytes.min(buf.bytes);
                if best.is_none_or(|(w, _)| waste < w) {
                    best = Some((waste, i));
                    if waste == 0 {
                        break; // nothing can beat a perfect fit
                    }
                }
            }
            match best {
                Some((_, i)) => {
                    buffers[i].members.push(id);
                    buffers[i].bytes = buffers[i].bytes.max(bytes);
                    open[i].insert(idx, interval);
                }
                None => {
                    buffers.push(VirtualBuffer {
                        members: vec![id],
                        bytes,
                    });
                    let mut o = OpenBuffer::new(index.words);
                    o.insert(idx, interval);
                    open.push(o);
                }
            }
        }
        buffers
    }

    /// The original pairwise best-fit-decreasing coloring, kept as the
    /// executable specification of [`InterferenceGraph::color`]. Every
    /// placement probe scans the buffer's members through
    /// [`InterferenceGraph::interferes`], so it is O(n·m) probes —
    /// fine at paper scale, quadratic on thousand-node graphs. Used by
    /// property tests and the scaling bench only.
    #[must_use]
    pub fn color_reference(&self) -> Vec<VirtualBuffer> {
        let mut order: Vec<(ValueId, u64)> = self.nodes.clone();
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut buffers: Vec<VirtualBuffer> = Vec::new();
        for (id, bytes) in order {
            let mut best: Option<(u64, usize)> = None;
            for (i, buf) in buffers.iter().enumerate() {
                if buf.members.iter().any(|&m| self.interferes(id, m)) {
                    continue;
                }
                let waste = buf.bytes - bytes.min(buf.bytes);
                if best.is_none_or(|(w, _)| waste < w) {
                    best = Some((waste, i));
                }
            }
            match best {
                Some((_, i)) => {
                    buffers[i].members.push(id);
                    buffers[i].bytes = buffers[i].bytes.max(bytes);
                }
                None => buffers.push(VirtualBuffer {
                    members: vec![id],
                    bytes,
                }),
            }
        }
        buffers
    }
}

/// Dense, sorted view of an [`InterferenceGraph`] backing the fast
/// coloring path. Values sorted by [`ValueId`] get dense indices,
/// intervals live in a flat vector instead of a hash map, and false
/// edges become bitset rows.
struct DenseIndex {
    /// Value ids sorted ascending; position = dense index.
    ids: Vec<ValueId>,
    /// Lifespan per dense index (`None` = unknown, conservative).
    intervals: Vec<Option<LiveInterval>>,
    /// False-edge bitset rows, only for values that have false edges.
    false_rows: HashMap<u32, Box<[u64]>>,
    /// Words per member bitset.
    words: usize,
}

impl DenseIndex {
    fn build(g: &InterferenceGraph) -> Self {
        let mut ids: Vec<ValueId> = g.nodes.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        let intervals: Vec<Option<LiveInterval>> =
            ids.iter().map(|id| g.intervals.get(id).copied()).collect();
        let words = ids.len().div_ceil(64).max(1);
        let mut false_rows: HashMap<u32, Box<[u64]>> = HashMap::new();
        for &(a, b) in &g.false_edges {
            // Edges to values outside the graph cannot affect placement.
            let (Ok(ia), Ok(ib)) = (ids.binary_search(&a), ids.binary_search(&b)) else {
                continue;
            };
            let mut set = |row: usize, bit: usize| {
                false_rows
                    .entry(row as u32)
                    .or_insert_with(|| vec![0u64; words].into_boxed_slice())[bit / 64] |=
                    1 << (bit % 64);
            };
            set(ia, ib);
            set(ib, ia);
        }
        Self {
            ids,
            intervals,
            false_rows,
            words,
        }
    }

    fn index_of(&self, id: ValueId) -> u32 {
        self.ids
            .binary_search(&id)
            .expect("value came from this graph's node list") as u32
    }
}

/// Placement index of one buffer being grown by a coloring pass: the
/// occupied lifespan intervals (disjoint by construction, sorted by
/// start) and a member bitset for false-edge intersection.
struct OpenBuffer {
    occupied: Vec<LiveInterval>,
    members: Box<[u64]>,
    has_unknown: bool,
    nonempty: bool,
}

impl OpenBuffer {
    fn new(words: usize) -> Self {
        Self {
            occupied: Vec::new(),
            members: vec![0u64; words].into_boxed_slice(),
            has_unknown: false,
            nonempty: false,
        }
    }

    /// Whether placing the value would violate an interference edge —
    /// exactly `members.iter().any(|m| g.interferes(id, m))`, without
    /// the member scan.
    fn conflicts(&self, idx: u32, interval: Option<LiveInterval>, index: &DenseIndex) -> bool {
        // A member with unknown lifespan conservatively interferes with
        // everything (and vice versa for an unknown candidate).
        if self.has_unknown {
            return true;
        }
        match interval {
            None => {
                if self.nonempty {
                    return true;
                }
            }
            Some(iv) => {
                // Occupied intervals are disjoint, so sorted-by-start is
                // also sorted-by-end: the only possible overlap is the
                // first interval ending at or after our start.
                let p = self.occupied.partition_point(|o| o.end < iv.start);
                if p < self.occupied.len() && self.occupied[p].start <= iv.end {
                    return true;
                }
            }
        }
        if let Some(row) = index.false_rows.get(&idx) {
            if row.iter().zip(self.members.iter()).any(|(r, m)| r & m != 0) {
                return true;
            }
        }
        false
    }

    fn insert(&mut self, idx: u32, interval: Option<LiveInterval>) {
        match interval {
            None => self.has_unknown = true,
            Some(iv) => {
                let p = self.occupied.partition_point(|o| o.start < iv.start);
                self.occupied.insert(p, iv);
            }
        }
        self.members[(idx / 64) as usize] |= 1 << (idx % 64);
        self.nonempty = true;
    }
}

/// A virtual buffer: values that share one storage region, sized by the
/// largest member (paper §3.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VirtualBuffer {
    /// Values mapped onto this buffer.
    pub members: Vec<ValueId>,
    /// Buffer size: the maximum member size.
    pub bytes: u64,
}

impl VirtualBuffer {
    /// Whether the buffer holds `id`.
    #[must_use]
    pub fn contains(&self, id: ValueId) -> bool {
        self.members.contains(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcmm_graph::NodeId;

    fn f(i: usize) -> ValueId {
        ValueId::Feature(NodeId::new(i))
    }

    fn graph_of(spans: &[(usize, u64, usize, usize)]) -> InterferenceGraph {
        InterferenceGraph::new(
            spans
                .iter()
                .map(|&(i, bytes, s, e)| (f(i), bytes, LiveInterval::new(s, e)))
                .collect(),
        )
    }

    #[test]
    fn disjoint_values_share_one_buffer() {
        // Mirrors the paper's f2/f6 example: disjoint lifespans share,
        // buffer sized by the larger (0.2 MB in the paper's prose).
        let g = graph_of(&[(1, 200_000, 0, 2), (2, 100_000, 3, 5)]);
        let bufs = g.color();
        assert_eq!(bufs.len(), 1);
        assert_eq!(bufs[0].bytes, 200_000);
        assert_eq!(bufs[0].members.len(), 2);
    }

    #[test]
    fn overlapping_values_get_separate_buffers() {
        let g = graph_of(&[(1, 100, 0, 4), (2, 100, 2, 6)]);
        let bufs = g.color();
        assert_eq!(bufs.len(), 2);
    }

    #[test]
    fn false_edge_forces_split() {
        let mut g = graph_of(&[(1, 200, 0, 2), (2, 100, 3, 5)]);
        g.add_false_edge(f(1), f(2));
        assert_eq!(g.false_edge_count(), 1);
        let bufs = g.color();
        assert_eq!(bufs.len(), 2, "false edge must prevent sharing");
    }

    #[test]
    fn coloring_never_places_interfering_values_together() {
        // A chain with staggered overlaps.
        let spans: Vec<(usize, u64, usize, usize)> = (0..20)
            .map(|i| (i, (20 - i) as u64 * 10, i, i + 3))
            .collect();
        let g = graph_of(&spans);
        for buf in g.color() {
            for (ai, &a) in buf.members.iter().enumerate() {
                for &b in &buf.members[ai + 1..] {
                    assert!(
                        !g.interferes(a, b),
                        "{a} and {b} share a buffer but interfere"
                    );
                }
            }
        }
    }

    #[test]
    fn total_bytes_never_exceed_no_sharing() {
        let spans: Vec<(usize, u64, usize, usize)> = (0..12)
            .map(|i| (i, 100 + (i as u64 * 37) % 300, i * 2, i * 2 + 5))
            .collect();
        let g = graph_of(&spans);
        let shared: u64 = g.color().iter().map(|b| b.bytes).sum();
        let unshared: u64 = spans.iter().map(|s| s.1).sum();
        assert!(shared <= unshared);
    }

    #[test]
    fn best_fit_picks_tightest_buffer() {
        // v3 (50 B) fits both the 200 B and the 60 B buffer; it must
        // take the 60 B one.
        let g = graph_of(&[(1, 200, 0, 1), (2, 60, 0, 1), (3, 50, 4, 5)]);
        let bufs = g.color();
        let holder = bufs.iter().find(|b| b.contains(f(3))).unwrap();
        assert_eq!(holder.bytes, 60);
    }

    #[test]
    fn paper_figure5_shape() {
        // Fig. 5: six tensors {f1, f2, f4, f6, f7, f8} colored into 4
        // buffers. Reconstruct a comparable overlap structure: f2, f6
        // and f8 pairwise disjoint (share one buffer); f1, f4, f7
        // pairwise overlapping (one buffer each).
        let g = graph_of(&[
            (2, 200, 0, 1), // f2
            (6, 100, 2, 3), // f6 — shares with f2
            (8, 90, 5, 6),  // f8 — shares with f2/f6
            (1, 300, 0, 4), // f1
            (4, 250, 0, 4), // f4
            (7, 220, 1, 4), // f7
        ]);
        let bufs = g.color();
        assert_eq!(bufs.len(), 4, "six tensors, four buffers");
    }

    #[test]
    fn unknown_interval_is_conservative() {
        let mut g = graph_of(&[(1, 100, 0, 1)]);
        g.nodes.push((f(9), 50));
        assert!(g.interferes(f(1), f(9)));
        assert!(!g.interferes(f(1), f(1)));
    }

    /// The indexed fast path is a drop-in replacement: byte-identical
    /// output, including member order inside each buffer.
    #[test]
    fn indexed_coloring_matches_reference_on_zoo_graphs() {
        use crate::liveness::{feature_lifespans, Schedule};
        use crate::value::ValueTable;
        use lcmm_fpga::{AccelDesign, Device, Precision};
        for g in [
            lcmm_graph::zoo::googlenet(),
            lcmm_graph::zoo::resnet50(),
            lcmm_graph::zoo::synthetic(160, 4, 7),
        ] {
            let d = AccelDesign::explore(&g, &Device::vu9p(), Precision::Fix16);
            let p = d.profile(&g);
            let t = ValueTable::build(&g, &p, Precision::Fix16);
            let s = Schedule::new(&g);
            let spans = feature_lifespans(&s, t.feature_candidates());
            let mut ig = InterferenceGraph::new(
                t.feature_candidates()
                    .map(|v| (v.id, v.bytes, spans[&v.id]))
                    .collect(),
            );
            assert_eq!(ig.color(), ig.color_reference(), "{}", g.name());
            // Force splits with false edges between same-buffer members
            // and re-check (mirrors what splitting::refine does).
            let bufs = ig.color();
            let mut added = 0;
            for buf in &bufs {
                if buf.members.len() >= 2 {
                    ig.add_false_edge(buf.members[0], buf.members[1]);
                    added += 1;
                    if added == 4 {
                        break;
                    }
                }
            }
            assert!(added > 0, "{}: zoo graph should share buffers", g.name());
            assert_eq!(
                ig.color(),
                ig.color_reference(),
                "{} + false edges",
                g.name()
            );
        }
    }

    /// Unknown lifespans must behave identically in both paths too.
    #[test]
    fn indexed_coloring_matches_reference_with_unknown_intervals() {
        let mut g = graph_of(&[(1, 200, 0, 2), (2, 100, 3, 5), (3, 150, 6, 8)]);
        g.nodes.push((f(9), 50));
        g.nodes.push((f(10), 300));
        g.add_false_edge(f(2), f(3));
        assert_eq!(g.color(), g.color_reference());
    }
}
