//! A3: analytic model vs event-driven simulator.

use crate::opts::Opts;
use crate::table::{ms, Table};
use lcmm_core::pipeline::compare;
use lcmm_fpga::{Device, Precision};
use lcmm_sim::validate::validate;

/// Prints the analytic-vs-simulated latency table across the suite.
pub fn run(opts: &Opts) -> Result<(), String> {
    let device = Device::vu9p();
    let models = match &opts.model {
        Some(name) => {
            vec![crate::opts::zoo_model(name)?]
        }
        None => lcmm_graph::zoo::benchmark_suite(),
    };
    let precisions = match opts.precision {
        Some(p) => vec![p],
        None => Precision::ALL.to_vec(),
    };

    let mut table = Table::new([
        "benchmark",
        "UMM model ms",
        "UMM sim ms",
        "ratio",
        "LCMM model ms",
        "LCMM sim ms",
        "ratio",
        "sim speedup",
    ]);
    for graph in &models {
        for &precision in &precisions {
            let (umm, lcmm) = compare(graph, &device, precision);
            let v = validate(graph, &umm, &lcmm);
            table.row([
                format!("{} {}", graph.name(), precision),
                ms(v.umm.analytic),
                ms(v.umm.simulated),
                format!("{:.3}", v.umm.ratio()),
                ms(v.lcmm.analytic),
                ms(v.lcmm.simulated),
                format!("{:.3}", v.lcmm.ratio()),
                format!("{:.2}x", v.umm.simulated / v.lcmm.simulated),
            ]);
        }
    }
    table.print();
    println!(
        "\nratio = simulated / analytic; > 1 means channel contention and prefetch\n\
         timing cost time the per-layer max model does not see."
    );
    Ok(())
}
