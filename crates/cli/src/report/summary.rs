//! Model zoo statistics.

use crate::opts::Opts;
use crate::table::Table;
use lcmm_core::Harness;
use lcmm_graph::analysis::summarize;

/// Prints per-model workload statistics. Summaries are computed through
/// the harness worker pool; rows print in the fixed model order.
pub fn run(opts: &Opts, harness: &Harness) -> Result<(), String> {
    let models = match &opts.model {
        Some(name) => {
            vec![crate::opts::zoo_model(name)?]
        }
        None => vec![
            lcmm_graph::zoo::alexnet(),
            lcmm_graph::zoo::vgg16(),
            lcmm_graph::zoo::resnet50(),
            lcmm_graph::zoo::resnet152(),
            lcmm_graph::zoo::squeezenet(),
            lcmm_graph::zoo::densenet121(),
            lcmm_graph::zoo::inception_resnet_v2(),
            lcmm_graph::zoo::googlenet(),
            lcmm_graph::zoo::inception_v4(),
        ],
    };
    let summaries = harness.par_map(&models, summarize);
    let mut table = Table::new([
        "model",
        "nodes",
        "convs",
        "GMACs",
        "params M",
        "features M",
        "max fmap K",
    ]);
    for (graph, s) in models.iter().zip(&summaries) {
        table.row([
            graph.name().to_string(),
            s.nodes.to_string(),
            s.conv_layers.to_string(),
            format!("{:.2}", s.total_macs as f64 / 1e9),
            format!("{:.1}", s.total_weight_elems as f64 / 1e6),
            format!("{:.1}", s.total_feature_elems as f64 / 1e6),
            format!("{:.0}", s.max_feature_elems as f64 / 1e3),
        ]);
    }
    table.print();
    Ok(())
}
