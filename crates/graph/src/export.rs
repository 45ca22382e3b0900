//! Graph export: Graphviz DOT and JSON.
//!
//! `Graph` implements `serde::{Serialize, Deserialize}`, so JSON is the
//! interchange format for saving custom models; DOT is for eyeballs.

use crate::graph::Graph;
use crate::GraphError;
use std::fmt::Write as _;

impl Graph {
    /// Renders the graph in Graphviz DOT format, one node per layer,
    /// clustered by block label.
    ///
    /// # Examples
    ///
    /// ```
    /// let g = lcmm_graph::zoo::alexnet();
    /// let dot = g.to_dot();
    /// assert!(dot.starts_with("digraph"));
    /// assert!(dot.contains("conv1"));
    /// ```
    #[must_use]
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph {:?} {{", self.name());
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
        // Group nodes by block into subgraph clusters.
        for (cluster, block) in self.blocks().iter().enumerate() {
            let _ = writeln!(out, "  subgraph cluster_{cluster} {{");
            let _ = writeln!(out, "    label={block:?};");
            for id in self.block_nodes(block) {
                let node = self.node(id);
                let _ = writeln!(
                    out,
                    "    n{} [label=\"{}\\n{} -> {}\"];",
                    id.index(),
                    node.name(),
                    node.op(),
                    node.output_shape()
                );
            }
            let _ = writeln!(out, "  }}");
        }
        // Unlabelled nodes at top level.
        for node in self.iter().filter(|n| n.block().is_none()) {
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\\n{} -> {}\"];",
                node.id().index(),
                node.name(),
                node.op(),
                node.output_shape()
            );
        }
        for node in self.iter() {
            for &input in node.inputs() {
                let _ = writeln!(out, "  n{} -> n{};", input.index(), node.id().index());
            }
        }
        out.push_str("}\n");
        out
    }

    /// Serialises the graph to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns an error if serialisation fails (practically never for
    /// this data model).
    pub fn to_json(&self) -> Result<String, GraphError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| GraphError::Malformed(format!("serialisation failed: {e}")))
    }

    /// Restores a graph from [`Graph::to_json`] output through the same
    /// validating decode as every other deserialisation (dense ids,
    /// in-range edges, acyclicity; consumer lists rebuilt).
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON or on a graph that fails
    /// validation (cycles, dangling node ids).
    pub fn from_json(json: &str) -> Result<Self, GraphError> {
        let content: serde_json::Value = serde_json::from_str(json)
            .map_err(|e| GraphError::Malformed(format!("deserialisation failed: {e}")))?;
        Graph::decode(&content)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn dot_contains_every_node_and_edge() {
        let g = zoo::googlenet();
        let dot = g.to_dot();
        for node in g.iter() {
            assert!(
                dot.contains(&format!("n{} ", node.id().index())),
                "{}",
                node.name()
            );
        }
        let edges = g.iter().map(|n| n.inputs().len()).sum::<usize>();
        assert_eq!(dot.matches(" -> n").count(), edges);
    }

    #[test]
    fn dot_clusters_blocks() {
        let g = zoo::resnet50();
        let dot = g.to_dot();
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains("label=\"stem\""));
    }

    #[test]
    fn json_round_trip_preserves_structure() {
        let g = zoo::alexnet();
        let json = g.to_json().expect("serialises");
        let back = Graph::from_json(&json).expect("deserialises");
        assert_eq!(back.len(), g.len());
        assert_eq!(back.name(), g.name());
        assert_eq!(back.total_macs(), g.total_macs());
        for (a, b) in g.iter().zip(back.iter()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.output_shape(), b.output_shape());
            assert_eq!(a.inputs(), b.inputs());
        }
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Graph::from_json("not json").is_err());
        assert!(Graph::from_json("{\"name\": \"x\"}").is_err());
    }

    /// Compact alexnet JSON with the first `from` replaced by `to`.
    fn tampered_alexnet(from: &str, to: &str) -> String {
        let json = serde_json::to_string(&zoo::alexnet()).expect("serialises");
        let tampered = json.replacen(from, to, 1);
        assert_ne!(tampered, json, "tamper target {from:?} not found");
        tampered
    }

    #[test]
    fn from_json_rejects_structural_damage_with_typed_errors() {
        // conv1 (node 1) reads a node that does not exist.
        let err =
            Graph::from_json(&tampered_alexnet("\"inputs\":[0]", "\"inputs\":[99]")).unwrap_err();
        assert_eq!(err, GraphError::UnknownNode(99));
        // The graph output names a node that does not exist.
        let err =
            Graph::from_json(&tampered_alexnet("\"output\":11}", "\"output\":999}")).unwrap_err();
        assert_eq!(err, GraphError::UnknownNode(999));
        // conv1 reads fc8, closing a cycle.
        let err =
            Graph::from_json(&tampered_alexnet("\"inputs\":[0]", "\"inputs\":[11]")).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
        // A node id that is not its index (this used to panic).
        let err = Graph::from_json(&tampered_alexnet("\"id\":1,", "\"id\":999,")).unwrap_err();
        assert!(err.to_string().contains("id 999"), "{err}");
    }

    #[test]
    fn serde_decode_validates_like_from_json() {
        let bad = tampered_alexnet("\"inputs\":[0]", "\"inputs\":[99]");
        let err = serde_json::from_str::<Graph>(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown node id 99"), "{err}");
    }

    #[test]
    fn decode_rebuilds_consumers_from_inputs() {
        // Consumer lists are derived data: a decode ignores the stored
        // ones and re-serialises the canonical form.
        let canonical = serde_json::to_string(&zoo::alexnet()).expect("serialises");
        let scrambled = tampered_alexnet("\"consumers\":[[1],", "\"consumers\":[[],");
        let back: Graph = serde_json::from_str(&scrambled).expect("consumers are not checked");
        assert_eq!(back.fingerprint(), canonical);
    }

    #[test]
    fn from_json_rejects_cycles() {
        // Hand-craft a cyclic graph JSON by round-tripping a valid one
        // and corrupting an edge.
        let g = zoo::alexnet();
        let json = g.to_json().expect("serialises");
        // conv1 (node 1) reads node 0; point it at the last node instead.
        let corrupted = json.replacen(
            "\"inputs\": [\n        0\n      ]",
            "\"inputs\": [\n        11\n      ]",
            1,
        );
        assert_ne!(json, corrupted, "corruption must hit");
        assert!(Graph::from_json(&corrupted).is_err());
    }
}
