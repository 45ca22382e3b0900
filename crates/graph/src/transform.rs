//! Graph transformations: derive workload variants from a base model.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, NodeId};
use crate::op::OpKind;
use crate::GraphError;

/// Rebuilds `graph` with every convolution's output-channel count
/// scaled by `numerator / denominator` (at least 1), keeping kernels,
/// strides and the classifier width unchanged — the "width multiplier"
/// of the efficiency-model literature.
///
/// Channel-consistency (concat sums, element-wise equality) is
/// preserved automatically because every branch scales by the same
/// ratio; the rebuilt graph passes full builder validation.
///
/// # Errors
///
/// Returns an error if the scaled network becomes structurally invalid
/// (practically impossible for ratios ≥ 1/64 on the zoo models), or if
/// `graph` itself is malformed — a node consuming an input that does
/// not precede it in id order, as an inline graph arriving over the
/// serve wire may be. Malformed inputs must surface as typed errors
/// (`invalid_graph` on the wire), never as a worker panic.
///
/// # Panics
///
/// Panics if `numerator` or `denominator` is zero.
///
/// # Examples
///
/// ```
/// use lcmm_graph::transform::scale_channels;
///
/// # fn main() -> Result<(), lcmm_graph::GraphError> {
/// let full = lcmm_graph::zoo::googlenet();
/// let half = scale_channels(&full, 1, 2)?;
/// assert_eq!(half.len(), full.len());
/// assert!(half.total_macs() < full.total_macs() / 3);
/// # Ok(())
/// # }
/// ```
pub fn scale_channels(
    graph: &Graph,
    numerator: usize,
    denominator: usize,
) -> Result<Graph, GraphError> {
    assert!(
        numerator > 0 && denominator > 0,
        "scale ratio must be nonzero"
    );
    let scale = |c: usize| -> usize { (c * numerator / denominator).max(1) };
    let mut b = GraphBuilder::new(format!("{}_w{}_{}", graph.name(), numerator, denominator));
    let mut map: Vec<Option<NodeId>> = vec![None; graph.len()];
    let mut last_block: Option<String> = None;
    for node in graph.iter() {
        // Track block labels as the original builder set them.
        let block = node.block().map(str::to_string);
        if block != last_block {
            match &block {
                Some(label) => b.set_block(label.clone()),
                None => b.clear_block(),
            }
            last_block = block;
        }
        let mapped_inputs: Vec<NodeId> = node
            .inputs()
            .iter()
            .map(|&i| {
                map.get(i.index()).copied().flatten().ok_or_else(|| {
                    GraphError::Malformed(format!(
                        "node {} ({}) consumes input id {} before it is defined",
                        node.id().index(),
                        node.name(),
                        i.index()
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        let new_id = match node.op() {
            OpKind::Input => b.input(node.output_shape())?,
            OpKind::Conv(p) => {
                let mut scaled = *p;
                scaled.out_channels = scale(p.out_channels);
                b.conv(node.name(), mapped_inputs[0], scaled)?
            }
            OpKind::Pool(p) => {
                let params = *p;
                match params.kind {
                    crate::op::PoolKind::Max => b.max_pool(
                        node.name(),
                        mapped_inputs[0],
                        params.kernel,
                        params.stride,
                        params.pad,
                    )?,
                    crate::op::PoolKind::Avg => b.avg_pool(
                        node.name(),
                        mapped_inputs[0],
                        params.kernel,
                        params.stride,
                        params.pad,
                    )?,
                }
            }
            OpKind::GlobalAvgPool => b.global_avg_pool(node.name(), mapped_inputs[0])?,
            OpKind::Fc(f) => b.fc(node.name(), mapped_inputs[0], f.out_features)?,
            OpKind::Concat => b.concat(node.name(), &mapped_inputs)?,
            OpKind::EltwiseAdd => b.eltwise_add(node.name(), &mapped_inputs)?,
        };
        map[node.id().index()] = Some(new_id);
    }
    let output_id = graph.output_node().id().index();
    let output = map.get(output_id).copied().flatten().ok_or_else(|| {
        GraphError::Malformed(format!("output node id {output_id} was never rebuilt"))
    })?;
    b.finish(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use crate::{ConvParams, FeatureShape};

    #[test]
    fn identity_scale_preserves_everything() {
        let g = zoo::resnet50();
        let same = scale_channels(&g, 1, 1).expect("valid");
        assert_eq!(same.len(), g.len());
        assert_eq!(same.total_macs(), g.total_macs());
        assert_eq!(same.total_weight_elems(), g.total_weight_elems());
    }

    #[test]
    fn half_width_scales_channels_and_macs() {
        let g = zoo::resnet50();
        let half = scale_channels(&g, 1, 2).expect("valid");
        let full_c = g
            .node_by_name("res2a_branch2b")
            .unwrap()
            .output_shape()
            .channels;
        let half_c = half
            .node_by_name("res2a_branch2b")
            .unwrap()
            .output_shape()
            .channels;
        assert_eq!(half_c, full_c / 2);
        // Conv MACs scale ~quadratically in width (stem input excluded).
        let ratio = half.total_macs() as f64 / g.total_macs() as f64;
        assert!((0.2..0.35).contains(&ratio), "got {ratio}");
    }

    #[test]
    fn residual_and_concat_structures_survive_scaling() {
        for (name, g) in [
            ("resnet50", zoo::resnet50()),
            ("googlenet", zoo::googlenet()),
            ("densenet121", zoo::densenet121()),
        ] {
            for (n, d) in [(1usize, 2usize), (3, 4), (2, 1)] {
                let scaled =
                    scale_channels(&g, n, d).unwrap_or_else(|e| panic!("{name} x{n}/{d}: {e}"));
                assert_eq!(scaled.len(), g.len(), "{name}");
            }
        }
    }

    #[test]
    fn block_labels_are_preserved() {
        let g = zoo::googlenet();
        let half = scale_channels(&g, 1, 2).expect("valid");
        assert_eq!(g.blocks(), half.blocks());
    }

    #[test]
    fn malformed_forward_reference_is_a_typed_error() {
        // Deserialisation checks structure (dense ids, in-range edges,
        // acyclicity) but not id order, so an inline graph off the serve
        // wire may have a node read an input that comes *after* it.
        // That used to panic inside `scale_channels` (worker panic
        // containment on the serve path); it must be a typed
        // `GraphError` instead.
        let mut gb = GraphBuilder::new("fork");
        let input = gb.input(FeatureShape::new(3, 8, 8)).expect("input");
        let a = gb.conv("a", input, ConvParams::pointwise(4)).expect("a");
        let b = gb.conv("b", input, ConvParams::pointwise(4)).expect("b");
        let out = gb.concat("out", &[a, b]).expect("concat");
        let g = gb.finish(out).expect("valid fork");
        let json = serde_json::to_string(&g).expect("graphs serialise");
        // Point `a` (id 1) at its sibling `b` (id 2): acyclic, but ahead
        // of it in id order.
        let tampered = json.replacen("\"inputs\":[0]", "\"inputs\":[2]", 1);
        assert_ne!(tampered, json, "tamper target not found");
        let bad: Graph = serde_json::from_str(&tampered).expect("tampered graph still parses");
        let err = scale_channels(&bad, 1, 2).expect_err("forward reference must fail");
        assert!(
            matches!(err, GraphError::Malformed(_)),
            "expected Malformed, got {err:?}"
        );
        assert!(err.to_string().contains("before it is defined"), "{err}");
    }

    #[test]
    fn tiny_ratio_clamps_to_one_channel() {
        let g = zoo::alexnet();
        let skinny = scale_channels(&g, 1, 100_000).expect("valid");
        assert_eq!(
            skinny
                .node_by_name("conv1")
                .unwrap()
                .output_shape()
                .channels,
            1
        );
    }
}
