//! A1/A2: allocator choice and buffer splitting ablations.

use crate::opts::Opts;
use crate::table::{ms, Table};
use lcmm_core::pipeline::{AllocatorKind, LcmmOptions};
use lcmm_core::{PlanRequest, UmmBaseline};
use lcmm_fpga::{Device, Precision};

/// Prints the allocator and splitting ablations over the suite.
pub fn run(opts: &Opts) -> Result<(), String> {
    let device = Device::vu9p();
    let models = match &opts.model {
        Some(name) => {
            vec![crate::opts::zoo_model(name)?]
        }
        None => lcmm_graph::zoo::benchmark_suite(),
    };
    let precision = opts.precision_or(Precision::Fix16);

    println!("--- A1: allocator choice ({precision}) ---\n");
    let mut table = Table::new([
        "benchmark",
        "UMM ms",
        "DNNK ms",
        "DNNK-iter ms",
        "greedy ms",
        "greedy vs DNNK",
    ]);
    for graph in &models {
        let umm = UmmBaseline::build(graph, &device, precision);
        let plan = |allocator: AllocatorKind| {
            PlanRequest::new(graph, &device, precision)
                .allocator(allocator)
                .with_design(umm.design.clone())
                .run()
                .expect("an explored design is always feasible")
        };
        let dnnk = plan(AllocatorKind::Dnnk);
        let iterated = plan(AllocatorKind::DnnkIterative);
        let greedy = plan(AllocatorKind::Greedy);
        table.row([
            graph.name().to_string(),
            ms(umm.latency),
            ms(dnnk.latency),
            ms(iterated.latency),
            ms(greedy.latency),
            format!("{:+.2}%", (greedy.latency / dnnk.latency - 1.0) * 100.0),
        ]);
    }
    table.print();

    println!("\n--- A2: buffer splitting ({precision}) ---\n");
    let mut table = Table::new(["benchmark", "no split ms", "split ms", "gain", "iterations"]);
    for graph in &models {
        let umm = UmmBaseline::build(graph, &device, precision);
        let with = PlanRequest::new(graph, &device, precision)
            .with_design(umm.design.clone())
            .run()
            .expect("an explored design is always feasible");
        let without = PlanRequest::new(graph, &device, precision)
            .options(LcmmOptions::default().with_splitting(false))
            .with_design(umm.design.clone())
            .run()
            .expect("an explored design is always feasible");
        table.row([
            graph.name().to_string(),
            ms(without.latency),
            ms(with.latency),
            format!("{:+.2}%", (without.latency / with.latency - 1.0) * 100.0),
            with.split_iterations.to_string(),
        ]);
    }
    table.print();
    Ok(())
}
