//! Property tests for per-layer weight streaming (AutoWS).
//!
//! Three guarantees keep streaming safe to leave enabled everywhere:
//! forcing every mode to `Pinned` must reproduce the streaming-off
//! plans **bit-identically** on arbitrary graphs, allocators and
//! budgets; mode selection must be oblivious to the harness worker
//! count; and an `Auto` plan must respect the knapsack budget with its
//! *occupied* (mode-aware) bytes.

use lcmm_core::{
    AllocatorKind, Harness, LcmmOptions, LcmmResult, PlanRequest, StreamingMode, WeightMode,
};
use lcmm_fpga::{AccelDesign, Device, Precision};
use lcmm_graph::{zoo, Graph};
use proptest::prelude::*;

fn base(graph: &Graph) -> AccelDesign {
    AccelDesign::explore(graph, &Device::vu9p(), Precision::Fix16)
}

/// Everything observable about a result, bit-for-bit, including the
/// per-buffer weight-mode table (via its stable labels — `WeightMode`
/// deliberately has no serde impl).
fn fingerprint(r: &LcmmResult) -> String {
    let modes: Vec<String> = r.weight_modes.iter().map(WeightMode::label).collect();
    format!(
        "{:016x}|{}|{}|{}|{}|{}|{}",
        r.latency.to_bits(),
        r.split_iterations,
        modes.join(","),
        serde_json::to_string(&r.chosen).expect("chosen serialises"),
        serde_json::to_string(&r.buffers).expect("buffers serialise"),
        serde_json::to_string(&r.residency).expect("residency serialises"),
        serde_json::to_string(&r.prefetch).expect("prefetch serialises"),
    )
}

fn plan(
    graph: &Graph,
    allocator: AllocatorKind,
    streaming: StreamingMode,
    budget: Option<u64>,
) -> LcmmResult {
    PlanRequest::new(graph, &Device::vu9p(), Precision::Fix16)
        .options(
            LcmmOptions::default()
                .with_allocator(allocator)
                .with_weight_streaming(streaming)
                .with_tensor_budget(budget),
        )
        .with_design(base(graph))
        .run()
        .expect("an explored design is always feasible")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `Pinned` and `Off` build the same one-option knapsack rows and
    /// must land on the same plan to the last bit — on random graphs,
    /// across allocators, and across a budget sweep spanning zero,
    /// sub-unit, partial and full budgets.
    #[test]
    fn forced_pinned_is_bit_identical_to_off(
        depth in 2usize..7,
        branching in 1usize..4,
        seed in any::<u64>(),
        alloc_sel in any::<u8>(),
    ) {
        let g = zoo::synthetic(depth, branching, seed);
        let allocator = [
            AllocatorKind::Dnnk,
            AllocatorKind::DnnkIterative,
            AllocatorKind::Greedy,
        ][alloc_sel as usize % 3];
        let full = base(&g).tensor_sram_budget();
        for budget in [None, Some(0), Some(36 * 1024 - 1), Some(full / 5 + 1), Some(full / 2)] {
            let off = plan(&g, allocator, StreamingMode::Off, budget);
            let pinned = plan(&g, allocator, StreamingMode::Pinned, budget);
            prop_assert!(
                pinned.weight_modes.iter().all(|m| matches!(m, WeightMode::Pinned)),
                "forced-pinned plan reported a non-pinned mode"
            );
            prop_assert_eq!(
                fingerprint(&off),
                fingerprint(&pinned),
                "budget {:?} with {:?} diverged on {}-node graph",
                budget,
                allocator,
                g.len()
            );
        }
    }

    /// An `Auto` plan never spends more *occupied* SRAM than the budget
    /// the knapsack was given, even at degenerate budgets, and never
    /// plans worse than the pinned-only plan of the same budget.
    #[test]
    fn auto_fits_budget_and_never_regresses(
        depth in 2usize..7,
        branching in 1usize..4,
        seed in any::<u64>(),
    ) {
        let g = zoo::synthetic(depth, branching, seed);
        let full = base(&g).tensor_sram_budget();
        for budget in [Some(0), Some(36 * 1024), Some(full / 8), Some(full / 2)] {
            let auto = plan(&g, AllocatorKind::Dnnk, StreamingMode::Auto, budget);
            let off = plan(&g, AllocatorKind::Dnnk, StreamingMode::Off, budget);
            let occupied: u64 = auto.occupied_buffer_sizes().iter().sum();
            let effective = budget.unwrap().min(auto.design.tensor_sram_budget());
            prop_assert!(
                occupied <= effective,
                "occupied {} B over budget {} B",
                occupied,
                effective
            );
            prop_assert!(
                auto.latency <= off.latency + 1e-12,
                "auto ({}) planned worse than pinned-only ({})",
                auto.latency,
                off.latency
            );
        }
    }
}

/// Mode selection is oblivious to the worker count: a single-job
/// harness and a 4-job harness replanning the same tiny budgets with
/// AutoWS produce bit-identical plans and identical mode tables.
#[test]
fn mode_selection_is_deterministic_across_jobs() {
    let g = zoo::alexnet();
    let options = LcmmOptions::default().with_weight_streaming(StreamingMode::Auto);
    let serial = Harness::new(1);
    let threaded = Harness::new(4);
    let design = serial
        .try_design(&g, &Device::vu9p(), Precision::Fix16)
        .unwrap();
    let full = design.tensor_sram_budget();
    let budgets: Vec<Option<u64>> = vec![
        Some(36 * 1024),
        Some(1 << 20),
        Some(full / 8),
        Some(full / 2),
        None,
    ];
    let from_serial: Vec<String> = budgets
        .iter()
        .map(|&b| {
            let r = serial
                .try_replan_with_budget(&g, &design, options, b, None)
                .unwrap();
            fingerprint(&r)
        })
        .collect();
    let design4 = threaded
        .try_design(&g, &Device::vu9p(), Precision::Fix16)
        .unwrap();
    let from_threads: Vec<String> = threaded
        .par_map(&budgets, |&b| {
            let r = threaded
                .try_replan_with_budget(&g, &design4, options, b, None)
                .unwrap();
            fingerprint(&r)
        })
        .into_iter()
        .collect();
    assert_eq!(from_serial, from_threads, "jobs=1 and jobs=4 diverged");
    // The tiny budgets must actually exercise streaming, or this test
    // proves nothing about mode selection.
    assert!(
        from_serial
            .iter()
            .any(|f| f.contains("streamed") || f.contains("partial")),
        "no tiny budget picked a non-pinned mode: {from_serial:?}"
    );
}
