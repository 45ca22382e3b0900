//! Property tests for the joint allocator (ISSUE 5 satellite):
//!
//! 1. every per-tenant residency fits its partition's
//!    `tensor_sram_budget()` (and, more tightly, its granted share of
//!    the pool);
//! 2. the sum of the per-tenant grants never exceeds the shared pool,
//!    which never exceeds the device SRAM;
//! 3. a single tenant with a 100 % share is bit-identical to the
//!    single-model pipeline;
//! 4. planning a grid point on a harness shared across the grid is
//!    bit-identical to planning it on a fresh harness.

use lcmm_core::{FusionMode, Harness, LcmmOptions, PlanRequest, StreamingMode};
use lcmm_fpga::{Device, Precision};
use lcmm_graph::{zoo, Graph};
use lcmm_multi::{
    coplan, coplan_summary, plan_with_shares, share_grid, Coplan, CoplanOptions, TenantSpec,
};
use proptest::prelude::*;

fn plan_two(
    a: (&str, Graph),
    b: (&str, Graph),
    precision: Precision,
    shares: Option<(f64, f64)>,
) -> Coplan {
    let harness = Harness::new(2);
    let mut ta = TenantSpec::new(a.0, a.1, precision);
    let mut tb = TenantSpec::new(b.0, b.1, precision);
    if let Some((sa, sb)) = shares {
        ta = ta.with_share(sa);
        tb = tb.with_share(sb);
    }
    let opts = CoplanOptions::default().with_search_steps(4);
    coplan(&harness, &Device::vu9p(), &[ta, tb], &opts).expect("small models fit a VU9P")
}

fn check_budgets(plan: &Coplan) {
    let device_sram = plan.device.sram_bytes();
    assert!(
        plan.pool_bytes <= device_sram,
        "pool {} exceeds device SRAM {device_sram}",
        plan.pool_bytes
    );
    let granted: u64 = plan.tenants.iter().map(|t| t.sram_budget).sum();
    assert!(
        granted <= plan.pool_bytes,
        "grants {granted} exceed pool {}",
        plan.pool_bytes
    );
    for t in &plan.tenants {
        let allocated: u64 = t.result.allocated_buffer_sizes().iter().sum();
        assert!(
            allocated <= t.sram_budget,
            "{}: allocated {allocated} exceeds grant {}",
            t.name,
            t.sram_budget
        );
        // The partition design's own budget is the looser bound the
        // audit invariant checks.
        assert!(
            allocated <= t.result.design.tensor_sram_budget(),
            "{}: allocated {allocated} exceeds the design budget",
            t.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Residencies fit their grants and the grants fit the pool at any
    /// searched or explicit split of two synthetic tenants.
    #[test]
    fn grants_and_residencies_fit_budgets(seed in 0u64..4, k in 1usize..4) {
        let a = zoo::synthetic(24, 2, seed);
        let b = zoo::synthetic(32, 3, seed + 7);
        let share = k as f64 / 4.0;
        let plan = plan_two(
            ("a", a),
            ("b", b),
            Precision::Fix16,
            Some((share, 1.0 - share)),
        );
        check_budgets(&plan);
    }
}

#[test]
fn searched_split_respects_budgets_on_zoo_models() {
    let plan = plan_two(
        ("mobilenet", zoo::mobilenet()),
        ("alexnet", zoo::alexnet()),
        Precision::Fix16,
        None,
    );
    check_budgets(&plan);
    assert!(plan.frontier.iter().any(|p| p.pareto));
    assert!(plan.frontier.len() > 1, "the search must cover the grid");
}

#[test]
fn single_tenant_full_share_is_bit_identical_to_plan_request() {
    let device = Device::vu9p();
    for (name, graph) in [
        ("mobilenet", zoo::mobilenet()),
        ("alexnet", zoo::alexnet()),
        ("squeezenet", zoo::squeezenet()),
    ] {
        let single = PlanRequest::new(&graph, &device, Precision::Fix16)
            .run()
            .expect("feasible");
        let harness = Harness::new(1);
        let tenants = vec![TenantSpec::new(name, graph.clone(), Precision::Fix16).with_share(1.0)];
        let plan =
            coplan(&harness, &device, &tenants, &CoplanOptions::default()).expect("feasible");
        let t = &plan.tenants[0];
        assert_eq!(t.sram_budget, single.design.tensor_sram_budget(), "{name}");
        assert_eq!(t.result.latency, single.latency, "{name}");
        assert_eq!(t.result.residency, single.residency, "{name}");
        assert_eq!(t.result.chosen, single.chosen, "{name}");
        assert_eq!(t.result.split_iterations, single.split_iterations, "{name}");
        assert_eq!(plan.contention.slowdown, vec![1.0], "{name}");
    }
}

#[test]
fn coplan_passes_structural_audit() {
    let graphs = [("mobilenet", zoo::mobilenet()), ("alexnet", zoo::alexnet())];
    let plan = plan_two(
        ("mobilenet", graphs[0].1.clone()),
        ("alexnet", graphs[1].1.clone()),
        Precision::Fix16,
        Some((0.5, 0.5)),
    );
    for t in &plan.tenants {
        let (_, graph) = graphs
            .iter()
            .find(|(name, _)| *name == t.name)
            .expect("tenant names match the input set");
        let findings = lcmm_sim::audit::check_result_invariants(graph, &t.result, t.sram_budget);
        assert!(
            findings.is_empty(),
            "{}: structural audit found {:?}",
            t.name,
            findings
        );
    }
}

#[test]
fn coplan_is_deterministic_across_jobs() {
    let device = Device::vu9p();
    let mk = || {
        vec![
            TenantSpec::new("mobilenet", zoo::mobilenet(), Precision::Fix16),
            TenantSpec::new("alexnet", zoo::alexnet(), Precision::Fix16),
        ]
    };
    let opts = CoplanOptions::default().with_search_steps(4);
    let serial = coplan(&Harness::new(1), &device, &mk(), &opts).expect("feasible");
    let parallel = coplan(&Harness::new(4), &device, &mk(), &opts).expect("feasible");
    let a = serde_json::to_string(&lcmm_multi::coplan_summary(&serial)).expect("serialises");
    let b = serde_json::to_string(&lcmm_multi::coplan_summary(&parallel)).expect("serialises");
    assert_eq!(a, b, "co-planning must be invisible to --jobs");
}

#[test]
fn shared_harness_plans_every_grid_point_like_a_fresh_one() {
    // A harness carries artifact sets, gain-curve memos and DNNK tables
    // from one grid point to the next; none of it may change a plan.
    let device = Device::vu9p();
    let zoo_tenants = [
        ("mobilenet", zoo::mobilenet()),
        ("alexnet", zoo::alexnet()),
        ("squeezenet", zoo::squeezenet()),
    ];
    let summary = |plan: &Coplan| serde_json::to_string(&coplan_summary(plan)).expect("serialises");
    for (count, steps) in [(2, 4), (3, 6)] {
        let tenants: Vec<TenantSpec> = zoo_tenants[..count]
            .iter()
            .map(|(name, graph)| TenantSpec::new(*name, graph.clone(), Precision::Fix16))
            .collect();
        for streaming in [StreamingMode::Off, StreamingMode::Auto] {
            for fusion in [FusionMode::Off, FusionMode::Auto] {
                let options = LcmmOptions::default()
                    .with_weight_streaming(streaming)
                    .with_fusion(fusion);
                let opts = CoplanOptions::default().with_options(options);
                let shared = Harness::new(1);
                let grid = share_grid(count, steps);
                for shares in &grid {
                    let label = format!("{count} tenants, {streaming:?}, {fusion:?}, {shares:?}");
                    let fresh = Harness::new(1);
                    match (
                        plan_with_shares(&shared, &device, &tenants, shares, &opts),
                        plan_with_shares(&fresh, &device, &tenants, shares, &opts),
                    ) {
                        (Ok((a, point_a)), Ok((b, point_b))) => {
                            assert_eq!(point_a, point_b, "{label}");
                            assert_eq!(summary(&a), summary(&b), "{label}");
                        }
                        (Err(a), Err(b)) => assert_eq!(a, b, "{label}"),
                        (a, b) => panic!("{label}: shared {:?} vs fresh {:?}", a.err(), b.err()),
                    }
                }
                // With 3 tenants, slice sizes recur across grid points,
                // so the shared harness really did reuse artifact sets.
                let built = shared.cache_stats().artifact_misses;
                assert!(
                    count == 2 || built < count * grid.len(),
                    "{built} sets built"
                );
            }
        }
    }
}

#[test]
fn each_memoized_replan_simulates_its_load_once() {
    // A tenant's simulated load is kept beside the memoized replan it is
    // derived from: repeating a split reads every load back, and
    // evicting one tenant's graph derives only that tenant's load again.
    let harness = Harness::new(1);
    let device = Device::vu9p();
    let tenants = vec![
        TenantSpec::new("mobilenet", zoo::mobilenet(), Precision::Fix16),
        TenantSpec::new("alexnet", zoo::alexnet(), Precision::Fix16),
    ];
    let opts = CoplanOptions::default();
    let shares = [0.5, 0.5];
    let plan = || {
        let (plan, _) =
            plan_with_shares(&harness, &device, &tenants, &shares, &opts).expect("feasible");
        serde_json::to_string(&coplan_summary(&plan)).expect("serialises")
    };
    let derived = || {
        let stats = harness.cache_stats();
        (stats.derived_misses, stats.derived_hits)
    };
    let first = plan();
    assert_eq!(derived(), (2, 0), "one load per tenant");
    assert_eq!(plan(), first);
    assert_eq!(derived(), (2, 2), "both loads read back");
    harness.invalidate_graph(&tenants[1].graph);
    assert_eq!(plan(), first);
    assert_eq!(derived(), (3, 3), "only the evicted tenant's load again");
}
