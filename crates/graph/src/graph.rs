//! The computation graph: nodes, edges, topological order, accounting.

use crate::fast_hash::FnvLanes;
use crate::op::{FcParams, OpKind};
use crate::tensor::FeatureShape;
use crate::GraphError;
use serde::content::{as_map, decode_field};
use serde::{Content, Deserialize, Serialize};
use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Identifier of a node within one [`Graph`].
///
/// Ids are dense indices assigned in insertion order, which for graphs
/// built by [`crate::GraphBuilder`] is also a valid topological order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Creates an id from a dense index. Only meaningful for indices
    /// obtained from the same graph; primarily useful in tests and
    /// serialisation code.
    #[must_use]
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// The dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One layer of the network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    pub(crate) id: NodeId,
    pub(crate) name: String,
    pub(crate) op: OpKind,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) output: FeatureShape,
    /// Label of the network block this node belongs to (e.g.
    /// `"inception_4a"`). Used by the Fig. 2(b) design-space sweep and the
    /// Fig. 8 per-block analysis.
    pub(crate) block: Option<String>,
}

impl Node {
    /// The node's identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Human-readable layer name (unique within the graph).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator this node performs.
    #[must_use]
    pub fn op(&self) -> &OpKind {
        &self.op
    }

    /// Ids of the nodes whose outputs feed this node, in positional order.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Shape of the output feature map.
    #[must_use]
    pub fn output_shape(&self) -> FeatureShape {
        self.output
    }

    /// Block label, if the model builder assigned one.
    #[must_use]
    pub fn block(&self) -> Option<&str> {
        self.block.as_deref()
    }
}

/// An immutable DNN computation graph.
///
/// Construct one with [`crate::GraphBuilder`] or decode one from JSON;
/// both paths validate the structure (dense ids, in-range edges,
/// acyclicity), so every `Graph` in existence is well-formed.
///
/// The name, nodes and consumer lists sit behind shared `Arc`s: a clone
/// (every `zoo::by_name` call returns one) bumps four reference counts
/// instead of copying the graph.
#[derive(Clone)]
pub struct Graph {
    name: Arc<str>,
    nodes: Arc<[Node]>,
    /// consumers[i] = ids of nodes that read node i's output.
    consumers: Arc<[Vec<NodeId>]>,
    output: NodeId,
    /// Memo of [`Graph::fingerprint`], shared by every clone. Not part
    /// of the graph's value: never serialized or printed. `Graph` has no
    /// mutating method, so the memo cannot go stale.
    fingerprint: Arc<OnceLock<Fingerprint>>,
}

/// A graph's canonical fingerprint as a cache-key part: the compact
/// JSON text behind one shared `Arc`, plus a 64-bit hash of it computed
/// once. Cloning copies a pointer, hashing writes the stored hash, and
/// equality and ordering compare the full text (a shared `Arc` short-
/// cuts equality), so a key built from it is exactly as precise as one
/// holding a private copy of the JSON.
///
/// It also keeps the [`FnvLanes`] state after the text, so a digest of
/// the text followed by other parts continues from there instead of
/// hashing the text again.
#[derive(Clone)]
pub struct Fingerprint {
    text: Arc<str>,
    hash: u64,
    lanes: FnvLanes,
}

impl Fingerprint {
    fn new(text: String) -> Self {
        // Keyed once per process, as `HashMap`'s default hasher is:
        // graph JSON can come from outside the program (inline graphs on
        // the serve wire), so colliding stored hashes must not be
        // craftable.
        static KEYS: OnceLock<RandomState> = OnceLock::new();
        let mut lanes = FnvLanes::new();
        lanes.write(text.as_bytes());
        Self {
            hash: KEYS.get_or_init(RandomState::new).hash_one(text.as_str()),
            text: text.into(),
            lanes,
        }
    }

    /// The canonical JSON text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The [`FnvLanes`] state after hashing [`Fingerprint::as_str`].
    #[must_use]
    pub fn lanes(&self) -> FnvLanes {
        self.lanes
    }
}

impl PartialEq for Fingerprint {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.text, &other.text) || (self.hash == other.hash && self.text == other.text)
    }
}

impl Eq for Fingerprint {}

impl Hash for Fingerprint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for Fingerprint {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Fingerprint {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.text.cmp(&other.text)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fingerprint")
            .field("len", &self.text.len())
            .finish_non_exhaustive()
    }
}

impl Graph {
    pub(crate) fn from_parts(
        name: String,
        nodes: Vec<Node>,
        output: NodeId,
    ) -> Result<Self, GraphError> {
        if let Some((index, node)) = nodes.iter().enumerate().find(|(i, n)| n.id.0 != *i) {
            return Err(GraphError::Malformed(format!(
                "node {index} ({}) carries id {}; ids must be dense indices",
                node.name, node.id.0
            )));
        }
        let mut consumers = vec![Vec::new(); nodes.len()];
        for node in &nodes {
            for &input in &node.inputs {
                if input.0 >= nodes.len() {
                    return Err(GraphError::UnknownNode(input.0));
                }
                consumers[input.0].push(node.id);
            }
        }
        if output.0 >= nodes.len() {
            return Err(GraphError::UnknownNode(output.0));
        }
        let graph = Self {
            name: name.into(),
            nodes: nodes.into(),
            consumers: consumers.into(),
            output,
            fingerprint: Arc::default(),
        };
        graph.check_acyclic()?;
        Ok(graph)
    }

    /// Decodes and validates a graph from its serialized form. Only
    /// `name`, `nodes` and `output` are read: consumer lists are
    /// derived data and are rebuilt from the node inputs.
    pub(crate) fn decode(c: &Content) -> Result<Self, GraphError> {
        let malformed =
            |e: serde::Error| GraphError::Malformed(format!("deserialisation failed: {e}"));
        let fields = as_map(c, "Graph").map_err(malformed)?;
        let name = decode_field(fields, "name", "Graph").map_err(malformed)?;
        let nodes = decode_field(fields, "nodes", "Graph").map_err(malformed)?;
        let output = decode_field(fields, "output", "Graph").map_err(malformed)?;
        Self::from_parts(name, nodes, output)
    }

    /// The graph's canonical fingerprint: its compact JSON, the same
    /// bytes as `serde_json::to_string(&graph)`. Computed on first use
    /// and shared by every clone, so cache keys built from it cost a
    /// copy, not a serialisation.
    #[must_use]
    pub fn fingerprint(&self) -> &str {
        self.fingerprint_key().as_str()
    }

    /// [`Graph::fingerprint`] with its memoized hash, for cache keys
    /// that should share the text instead of copying it.
    #[must_use]
    pub fn fingerprint_key(&self) -> &Fingerprint {
        self.fingerprint.get_or_init(|| {
            Fingerprint::new(serde_json::to_string(self).expect("graphs serialise"))
        })
    }

    fn check_acyclic(&self) -> Result<(), GraphError> {
        // Kahn's algorithm; also verifies every node is reachable from
        // the in-degree-0 frontier (inputs reference earlier nodes only
        // for builder-made graphs, but deserialised graphs may not).
        let mut indegree: Vec<usize> = self.nodes.iter().map(|n| n.inputs.len()).collect();
        let mut queue: VecDeque<usize> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut seen = 0usize;
        while let Some(i) = queue.pop_front() {
            seen += 1;
            for &c in &self.consumers[i] {
                indegree[c.0] -= 1;
                if indegree[c.0] == 0 {
                    queue.push_back(c.0);
                }
            }
        }
        if seen != self.nodes.len() {
            return Err(GraphError::Malformed(format!(
                "cycle detected: {} of {} nodes unreachable in topological sweep",
                self.nodes.len() - seen,
                self.nodes.len()
            )));
        }
        Ok(())
    }

    /// The graph's name (e.g. `"inception_v4"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes, including the input pseudo-node.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node carrying the network's final output.
    #[must_use]
    pub fn output_node(&self) -> &Node {
        &self.nodes[self.output.0]
    }

    /// Borrow a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` belongs to a different graph and is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Fallible node lookup.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0)
    }

    /// Look a node up by its unique name.
    #[must_use]
    pub fn node_by_name(&self, name: &str) -> Option<&Node> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Iterate over all nodes in topological (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Ids of the nodes that consume `id`'s output, in insertion order.
    #[must_use]
    pub fn consumers(&self, id: NodeId) -> &[NodeId] {
        &self.consumers[id.0]
    }

    /// Nodes in a valid topological order.
    ///
    /// For builder-made graphs this is simply id order (the builder only
    /// lets a node reference already-inserted nodes).
    #[must_use]
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut indegree: Vec<usize> = self.nodes.iter().map(|n| n.inputs.len()).collect();
        let mut queue: VecDeque<usize> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(i) = queue.pop_front() {
            order.push(NodeId(i));
            for &c in &self.consumers[i] {
                indegree[c.0] -= 1;
                if indegree[c.0] == 0 {
                    queue.push_back(c.0);
                }
            }
        }
        debug_assert_eq!(order.len(), self.nodes.len());
        order
    }

    /// Iterate over the convolution and fully-connected layers — the
    /// nodes that run on the compute array and own weights.
    pub fn compute_layers(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.op.is_compute())
    }

    /// Iterate over convolution layers only.
    pub fn conv_layers(&self) -> impl Iterator<Item = &Node> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, OpKind::Conv(_)))
    }

    /// Multiply-accumulate count of one node (0 for non-compute ops).
    #[must_use]
    pub fn node_macs(&self, id: NodeId) -> u64 {
        let node = &self.nodes[id.0];
        match node.op {
            OpKind::Conv(p) => {
                let input = self.nodes[node.inputs[0].0].output;
                p.macs(input, node.output)
            }
            OpKind::Fc(FcParams { out_features }) => {
                let input = self.nodes[node.inputs[0].0].output;
                input.elems() * out_features as u64
            }
            _ => 0,
        }
    }

    /// Weight tensor element count of one node (0 for weight-less ops).
    #[must_use]
    pub fn node_weight_elems(&self, id: NodeId) -> u64 {
        let node = &self.nodes[id.0];
        match node.op {
            OpKind::Conv(p) => {
                let input = self.nodes[node.inputs[0].0].output;
                p.weight_elems(input.channels)
            }
            OpKind::Fc(FcParams { out_features }) => {
                let input = self.nodes[node.inputs[0].0].output;
                input.elems() * out_features as u64
            }
            _ => 0,
        }
    }

    /// Total input feature elements read by one node (sum over inputs).
    #[must_use]
    pub fn node_input_elems(&self, id: NodeId) -> u64 {
        self.nodes[id.0]
            .inputs
            .iter()
            .map(|&i| self.nodes[i.0].output.elems())
            .sum()
    }

    /// Total MACs of the whole network.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        (0..self.nodes.len())
            .map(|i| self.node_macs(NodeId(i)))
            .sum()
    }

    /// Total weight elements of the whole network.
    #[must_use]
    pub fn total_weight_elems(&self) -> u64 {
        (0..self.nodes.len())
            .map(|i| self.node_weight_elems(NodeId(i)))
            .sum()
    }

    /// Distinct block labels in first-appearance order.
    #[must_use]
    pub fn blocks(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for n in self.nodes.iter() {
            if let Some(b) = n.block.as_deref() {
                if !out.contains(&b) {
                    out.push(b);
                }
            }
        }
        out
    }

    /// Ids of the nodes assigned to `block`.
    #[must_use]
    pub fn block_nodes(&self, block: &str) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.block.as_deref() == Some(block))
            .map(|n| n.id)
            .collect()
    }
}

// Hand-written rather than derived so that the fingerprint memo stays
// out of the serialized form (same fields, same order as a derive) and
// every decode runs the structural validation.
impl Serialize for Graph {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("name".to_string(), self.name.to_content()),
            ("nodes".to_string(), self.nodes.to_content()),
            ("consumers".to_string(), self.consumers.to_content()),
            ("output".to_string(), self.output.to_content()),
        ])
    }
}

impl Deserialize for Graph {
    fn from_content(c: &Content) -> Result<Self, serde::Error> {
        Graph::decode(c).map_err(serde::Error::custom)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("name", &self.name)
            .field("nodes", &self.nodes)
            .field("consumers", &self.consumers)
            .field("output", &self.output)
            .finish()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph {} ({} nodes)", self.name, self.nodes.len())?;
        for n in self.nodes.iter() {
            let ins: Vec<String> = n.inputs.iter().map(|i| i.to_string()).collect();
            writeln!(
                f,
                "  {} {:<28} {:<22} [{}] -> {}",
                n.id,
                n.name,
                n.op.to_string(),
                ins.join(", "),
                n.output
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::op::ConvParams;

    fn diamond() -> Graph {
        // input -> a -> {b, c} -> concat
        let mut gb = GraphBuilder::new("diamond");
        let input = gb.input(FeatureShape::new(3, 32, 32)).expect("input");
        let a = gb
            .conv("a", input, ConvParams::square(16, 3, 1, 1))
            .unwrap();
        let b = gb.conv("b", a, ConvParams::square(8, 1, 1, 0)).unwrap();
        let c = gb.conv("c", a, ConvParams::square(8, 3, 1, 1)).unwrap();
        let d = gb.concat("d", &[b, c]).unwrap();
        gb.finish(d).unwrap()
    }

    #[test]
    fn consumers_are_tracked() {
        let g = diamond();
        let a = g.node_by_name("a").unwrap().id();
        assert_eq!(g.consumers(a).len(), 2);
        let d = g.node_by_name("d").unwrap().id();
        assert!(g.consumers(d).is_empty());
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topo_order();
        assert_eq!(order.len(), g.len());
        let pos: Vec<usize> = {
            let mut pos = vec![0; g.len()];
            for (rank, id) in order.iter().enumerate() {
                pos[id.index()] = rank;
            }
            pos
        };
        for n in g.iter() {
            for &i in n.inputs() {
                assert!(
                    pos[i.index()] < pos[n.id().index()],
                    "edge {} -> {} violated",
                    i,
                    n.id()
                );
            }
        }
    }

    #[test]
    fn macs_and_weights_roll_up() {
        let g = diamond();
        // a: 16*32*32*3*9, b: 8*32*32*16*1, c: 8*32*32*16*9
        let expect_macs = 16 * 32 * 32 * 3 * 9 + 8 * 32 * 32 * 16 + 8 * 32 * 32 * 16 * 9;
        assert_eq!(g.total_macs(), expect_macs as u64);
        let expect_w = 16 * 3 * 9 + 8 * 16 + 8 * 16 * 9;
        assert_eq!(g.total_weight_elems(), expect_w as u64);
    }

    #[test]
    fn concat_output_sums_channels() {
        let g = diamond();
        assert_eq!(
            g.output_node().output_shape(),
            FeatureShape::new(16, 32, 32)
        );
    }

    #[test]
    fn node_input_elems_sums_all_inputs() {
        let g = diamond();
        let d = g.node_by_name("d").unwrap().id();
        assert_eq!(g.node_input_elems(d), 2 * 8 * 32 * 32);
    }

    #[test]
    fn display_lists_every_node() {
        let g = diamond();
        let text = g.to_string();
        for n in g.iter() {
            assert!(text.contains(n.name()), "missing {}", n.name());
        }
    }

    #[test]
    fn fingerprint_is_the_compact_json_and_survives_a_round_trip() {
        let g = diamond();
        let json = serde_json::to_string(&g).expect("serialises");
        assert_eq!(g.fingerprint(), json);
        // The memo is not serialized: serialising after it is filled
        // gives the same bytes.
        assert_eq!(serde_json::to_string(&g).expect("serialises"), json);
        let back: Graph = serde_json::from_str(&json).expect("round trips");
        assert_eq!(back.fingerprint(), g.fingerprint());
        let pretty = Graph::from_json(&g.to_json().expect("serialises")).expect("round trips");
        assert_eq!(pretty.fingerprint(), json);
    }

    #[test]
    fn clones_share_one_fingerprint_allocation() {
        let g = diamond();
        let early = g.clone();
        let fp = g.fingerprint();
        assert!(std::ptr::eq(fp, early.fingerprint()), "clone made before");
        assert!(
            std::ptr::eq(fp, g.clone().fingerprint()),
            "clone made after"
        );
        // A separately built equal graph has its own memo.
        assert!(!std::ptr::eq(fp, diamond().fingerprint()));
        assert_eq!(fp, diamond().fingerprint());
    }

    #[test]
    fn clones_share_nodes_and_consumer_lists() {
        let g = crate::zoo::by_name("resnet50").expect("zoo net");
        let again = crate::zoo::by_name("resnet50").expect("zoo net");
        let first = NodeId(0);
        assert!(std::ptr::eq(g.node(first), again.node(first)));
        assert!(std::ptr::eq(g.consumers(first), again.consumers(first)));
        assert!(std::ptr::eq(g.name(), again.name()));
    }

    #[test]
    fn fingerprint_lanes_are_the_lanes_over_its_text() {
        let g = diamond();
        let mut lanes = FnvLanes::new();
        lanes.write(g.fingerprint().as_bytes());
        assert_eq!(g.fingerprint_key().lanes(), lanes);
    }

    #[test]
    fn fingerprint_keys_compare_by_text_and_hash_once() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |k: &Fingerprint| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        let g = diamond();
        let twin = diamond();
        assert_eq!(g.fingerprint_key(), twin.fingerprint_key());
        assert_eq!(hash(g.fingerprint_key()), hash(twin.fingerprint_key()));
        assert_eq!(
            g.fingerprint_key().cmp(twin.fingerprint_key()),
            std::cmp::Ordering::Equal
        );
        let other = crate::zoo::alexnet();
        assert_ne!(g.fingerprint_key(), other.fingerprint_key());
        assert_eq!(
            g.fingerprint_key().cmp(other.fingerprint_key()),
            g.fingerprint().cmp(other.fingerprint())
        );
        // A cloned key shares the text.
        let key = g.fingerprint_key().clone();
        assert!(std::ptr::eq(key.as_str(), g.fingerprint()));
    }

    #[test]
    fn debug_omits_the_fingerprint_memo() {
        let g = diamond();
        let before = format!("{g:?}");
        let _ = g.fingerprint();
        assert_eq!(format!("{g:?}"), before);
        assert!(!before.contains("fingerprint"), "{before}");
    }

    #[test]
    fn node_lookup() {
        let g = diamond();
        assert!(g.node_by_name("nope").is_none());
        let a = g.node_by_name("a").unwrap();
        assert_eq!(g.node(a.id()).name(), "a");
        assert!(g.get(NodeId(999)).is_none());
    }
}
