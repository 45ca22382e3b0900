//! Property tests for incremental delta-planning: a budget-only replan
//! through [`lcmm_core::PlanArtifacts`] must be **bit-identical** to a
//! from-scratch [`lcmm_core::PlanRequest`] on every graph, option
//! variant, and budget — and the harness's artifact cache must behave
//! identically at any `--jobs` setting and never serve stale artifacts
//! across an invalidation.

use lcmm_core::alloc::dnnk::MAX_STORED_TABLES;
use lcmm_core::{
    AllocatorKind, Harness, LcmmOptions, LcmmResult, PassStats, PlanArtifacts, PlanRequest,
};
use lcmm_fpga::{AccelDesign, Device, Precision};
use lcmm_graph::{zoo, Graph};
use proptest::prelude::*;
use std::sync::Arc;

fn base(graph: &Graph) -> AccelDesign {
    AccelDesign::explore(graph, &Device::vu9p(), Precision::Fix16)
}

/// Everything observable about a result, bit-for-bit. Latency goes in
/// as raw bits (`-0.0 != 0.0` here, deliberately); the plan structures
/// without `PartialEq` go through their canonical JSON.
fn fingerprint(r: &LcmmResult) -> String {
    format!(
        "{:016x}|{}|{}|{}|{}|{}|{}",
        r.latency.to_bits(),
        r.split_iterations,
        serde_json::to_string(&r.chosen).expect("chosen serialises"),
        serde_json::to_string(&r.buffers).expect("buffers serialise"),
        serde_json::to_string(&r.residency).expect("residency serialises"),
        serde_json::to_string(&r.prefetch).expect("prefetch serialises"),
        serde_json::to_string(&r.resources).expect("resources serialise"),
    )
}

/// One of the pass/allocator variants whose front ends differ.
fn options_variant(sel: u8) -> LcmmOptions {
    match sel % 5 {
        0 => LcmmOptions::default(),
        1 => LcmmOptions::feature_reuse_only(),
        2 => LcmmOptions::weight_prefetch_only(),
        3 => LcmmOptions::default().with_allocator(AllocatorKind::Greedy),
        _ => LcmmOptions::default().with_splitting(false),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The core tentpole property: for random graphs, random option
    /// variants, and a budget sweep spanning zero, sub-saturation,
    /// exact, and past-saturation budgets, replaying cached artifacts
    /// is byte-for-byte the scratch pipeline.
    #[test]
    fn replan_is_bit_identical_to_scratch(
        depth in 2usize..7,
        branching in 1usize..4,
        seed in any::<u64>(),
        sel in any::<u8>(),
    ) {
        let g = zoo::synthetic(depth, branching, seed);
        let options = options_variant(sel);
        let artifacts = PlanArtifacts::build(&g, base(&g), options, None).unwrap();
        let full = artifacts.design().tensor_sram_budget();
        let budgets = [
            None,
            Some(0),
            Some(1),
            Some(full / 3 + 1),
            Some(full),
            Some(full.saturating_mul(2)),
        ];
        for budget in budgets {
            let delta = artifacts.replan_with_budget(&g, budget, None).unwrap();
            let scratch = PlanRequest::new(&g, &Device::vu9p(), Precision::Fix16)
                .options(options.with_tensor_budget(budget))
                .with_design(base(&g))
                .run()
                .unwrap();
            prop_assert_eq!(
                fingerprint(&delta),
                fingerprint(&scratch),
                "budget {:?} diverged on {}-node graph (variant {})",
                budget,
                g.len(),
                sel % 5
            );
        }
    }
}

/// The artifact cache is oblivious to the worker count: a single-job
/// harness replanning sequentially and a 4-job harness replanning
/// through `par_map` produce bit-identical results from exactly one
/// front-end build each.
#[test]
fn replans_are_deterministic_across_jobs() {
    let g = zoo::alexnet();
    let serial = Harness::new(1);
    let threaded = Harness::new(4);
    let design = serial
        .try_design(&g, &Device::vu9p(), Precision::Fix16)
        .unwrap();
    let full = {
        // Budgets are against the derated design, same as the CLI path.
        let artifacts =
            PlanArtifacts::build(&g, (*design).clone(), LcmmOptions::default(), None).unwrap();
        artifacts.design().tensor_sram_budget()
    };
    let budgets: Vec<Option<u64>> = vec![
        None,
        Some(0),
        Some(full / 4),
        Some(full / 2),
        Some(3 * full / 4),
        Some(full),
    ];
    let from_serial: Vec<String> = budgets
        .iter()
        .map(|&b| {
            let r = serial
                .try_replan_with_budget(&g, &design, LcmmOptions::default(), b, None)
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
                .try_replan_with_budget(&g, &design4, LcmmOptions::default(), b, None)
                .unwrap();
            fingerprint(&r)
        })
        .into_iter()
        .collect();
    assert_eq!(from_serial, from_threads, "jobs=1 and jobs=4 diverged");
    let stats = serial.cache_stats();
    assert_eq!(
        stats.artifact_misses, 1,
        "every budget must share the single artifact build"
    );
    assert_eq!(stats.artifact_hits, budgets.len() - 1);
    // Concurrent first-misses may legitimately build twice (the cache
    // deduplicates the stored Arc, not the computation), but every
    // lookup is accounted for and most are hits.
    let stats = threaded.cache_stats();
    assert!(stats.artifact_misses >= 1);
    assert_eq!(stats.artifact_hits + stats.artifact_misses, budgets.len());
}

/// After `invalidate_graph`, the harness rebuilds the artifacts rather
/// than serving the dropped ones — reproducing the same bits — while
/// artifacts of other graphs survive untouched.
#[test]
fn invalidation_never_serves_stale_artifacts() {
    let g = zoo::alexnet();
    let other = zoo::squeezenet();
    let harness = Harness::new(2);
    let design = harness
        .try_design(&g, &Device::vu9p(), Precision::Fix16)
        .unwrap();
    let other_design = harness
        .try_design(&other, &Device::vu9p(), Precision::Fix16)
        .unwrap();
    let before = harness
        .try_replan_with_budget(&g, &design, LcmmOptions::default(), Some(1 << 20), None)
        .unwrap();
    let other_before = harness
        .try_replan_with_budget(&other, &other_design, LcmmOptions::default(), None, None)
        .unwrap();
    assert_eq!(harness.cache_stats().artifact_misses, 2);

    let dropped = harness.invalidate_graph(&g);
    assert!(dropped > 0, "alexnet entries must be evicted");

    // Same request again: a fresh Arc (recomputed, not replayed) with
    // identical bits.
    let design_again = harness
        .try_design(&g, &Device::vu9p(), Precision::Fix16)
        .unwrap();
    let after = harness
        .try_replan_with_budget(
            &g,
            &design_again,
            LcmmOptions::default(),
            Some(1 << 20),
            None,
        )
        .unwrap();
    assert!(!Arc::ptr_eq(&before, &after), "stale result served");
    assert_eq!(fingerprint(&before), fingerprint(&after));
    assert_eq!(
        harness.cache_stats().artifact_misses,
        3,
        "the invalidated artifact set must be rebuilt"
    );

    // The other graph's caches were untouched: replaying is a pure hit.
    let other_after = harness
        .try_replan_with_budget(&other, &other_design, LcmmOptions::default(), None, None)
        .unwrap();
    assert!(Arc::ptr_eq(&other_before, &other_after));
    assert_eq!(harness.cache_stats().artifact_misses, 3);
}

/// Everything the table memo could change about a replan, bit-for-bit:
/// latency bits, the buffer set and which buffers are chosen in which
/// mode, the accepted splits, and the resource report.
fn plan_bits(r: &LcmmResult) -> String {
    format!(
        "{:016x}|{}|{}|{:?}|{}|{}",
        r.latency.to_bits(),
        r.split_iterations,
        serde_json::to_string(&r.chosen).expect("chosen serialises"),
        r.weight_modes,
        serde_json::to_string(&r.buffers).expect("buffers serialise"),
        serde_json::to_string(&r.resources).expect("resources serialise"),
    )
}

/// A fresh scratch plan of `graph` at `budget`.
fn scratch_bits(graph: &Graph, options: LcmmOptions, budget: u64) -> String {
    let result = PlanRequest::new(graph, &Device::vu9p(), Precision::Fix16)
        .options(options.with_tensor_budget(Some(budget)))
        .with_design(base(graph))
        .run()
        .unwrap();
    plan_bits(&result)
}

/// `items` in a seeded random order (Fisher–Yates over a xorshift).
fn shuffled<T: Clone>(items: &[T], mut seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    seed |= 1;
    for i in (1..out.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        out.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    out
}

/// Replans `budgets` in order through `artifacts`, checking each against
/// its scratch plan in `expected`; returns the summed table hits, DP
/// runs (allocations that did not backtrack) and accepted splits.
fn replan_all(
    graph: &Graph,
    artifacts: &PlanArtifacts,
    budgets: &[u64],
    expected: &std::collections::HashMap<u64, String>,
) -> (u64, u64, usize) {
    let (mut hits, mut dps, mut splits) = (0, 0, 0);
    for &budget in budgets {
        let r = artifacts
            .replan_with_budget(graph, Some(budget), None)
            .unwrap();
        assert_eq!(
            plan_bits(&r),
            expected[&budget],
            "budget {budget} diverged on {} ({} nodes)",
            graph.name(),
            graph.len()
        );
        hits += r.stats.dnnk_table_hits;
        dps += r.stats.allocator_invocations - r.stats.dnnk_table_hits;
        splits += r.split_iterations;
    }
    (hits, dps, splits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Replans of one artifact set share its stored DNNK choice tables,
    /// so the budgets that came before must not matter: a random budget
    /// sequence — with budget 0 and a budget past the design's — pushed
    /// through one `PlanArtifacts` in random order, and again in another
    /// order by two threads at once, equals a fresh `PlanRequest` at
    /// every step, on random plain and shortcut-heavy graphs with
    /// streaming and fusion each off or auto.
    #[test]
    fn replans_are_independent_of_budget_order(
        depth in 6usize..20,
        branching in 1usize..4,
        seed in any::<u64>(),
        shortcut in any::<bool>(),
        streaming in any::<bool>(),
        fusion in any::<bool>(),
        sixty_fourths in prop::collection::vec(1u64..80, 4..9),
        order in any::<u64>(),
    ) {
        let g = if shortcut {
            zoo::synthetic_shortcut(depth, branching, seed, 100)
        } else {
            zoo::synthetic(depth, branching, seed)
        };
        let options = LcmmOptions::default()
            .with_weight_streaming(if streaming {
                lcmm_core::StreamingMode::Auto
            } else {
                lcmm_core::StreamingMode::Off
            })
            .with_fusion(if fusion {
                lcmm_core::FusionMode::Auto
            } else {
                lcmm_core::FusionMode::Off
            });
        let full = PlanArtifacts::build(&g, base(&g), options, None)
            .unwrap()
            .design()
            .tensor_sram_budget();
        let mut budgets: Vec<u64> = sixty_fourths.iter().map(|k| full * k / 64).collect();
        budgets.extend([0, full + full / 2]);
        let budgets = shuffled(&budgets, order);
        let expected: std::collections::HashMap<u64, String> = budgets
            .iter()
            .map(|&b| (b, scratch_bits(&g, options, b)))
            .collect();

        let artifacts = PlanArtifacts::build(&g, base(&g), options, None).unwrap();
        replan_all(&g, &artifacts, &budgets, &expected);

        let shared = PlanArtifacts::build(&g, base(&g), options, None).unwrap();
        let reversed: Vec<u64> = budgets.iter().rev().copied().collect();
        std::thread::scope(|scope| {
            scope.spawn(|| replan_all(&g, &shared, &budgets, &expected));
            scope.spawn(|| replan_all(&g, &shared, &reversed, &expected));
        });
    }
}

/// The split-key memo on zoo nets where the split loop accepts splits:
/// 24 budgets ascending, descending and in two random orders, streaming
/// off and auto. Every replan equals its scratch plan and splits are
/// accepted along the way, so tables keyed by false edges are stored
/// too. Every order backtracks, ascending budgets too: a refill at
/// twice the stored width answers the next budgets. So no key runs
/// more DPs than doubling from a twenty-fourth of the full budget up to
/// it takes, `1 + ⌈log₂ 24⌉`. Replaying the same budgets through the
/// same set then finds every buffer set and table it needs stored: it
/// colors nothing and runs no DP.
#[test]
fn table_memo_replans_match_scratch_with_accepted_splits() {
    for (net, streaming) in [
        ("squeezenet", lcmm_core::StreamingMode::Off),
        ("mobilenet", lcmm_core::StreamingMode::Auto),
    ] {
        let g = zoo::by_name(net).unwrap();
        let options = LcmmOptions::default().with_weight_streaming(streaming);
        let full = PlanArtifacts::build(&g, base(&g), options, None)
            .unwrap()
            .design()
            .tensor_sram_budget();
        let budgets: Vec<u64> = (1..=24).map(|k| full * k / 24).collect();
        let expected: std::collections::HashMap<u64, String> = budgets
            .iter()
            .map(|&b| (b, scratch_bits(&g, options, b)))
            .collect();
        let descending: Vec<u64> = budgets.iter().rev().copied().collect();
        for (i, order) in [
            budgets.clone(),
            descending,
            shuffled(&budgets, 7),
            shuffled(&budgets, 8),
        ]
        .iter()
        .enumerate()
        {
            let artifacts = PlanArtifacts::build(&g, base(&g), options, None).unwrap();
            let (hits, dps, splits) = replan_all(&g, &artifacts, order, &expected);
            assert!(hits > 0, "{net} order {i}: no allocation backtracked");
            assert!(splits > 0, "{net} order {i}: no split accepted");
            let footprint = artifacts.memo_footprint();
            let max_dps = footprint.keys as u64 * (1 + 24f64.log2().ceil() as u64);
            assert!(
                dps <= max_dps,
                "{net} order {i}: {dps} DP runs over {} keys",
                footprint.keys
            );
            assert!(
                footprint.tables > 1,
                "{net} order {i}: only the initial coloring stored"
            );
            // Under the cap, every key the first pass reached was stored.
            assert!(
                footprint.keys < MAX_STORED_TABLES,
                "{net} order {i}: {} keys reach the memo's cap",
                footprint.keys
            );
            for &budget in order {
                let r = artifacts
                    .replan_with_budget(&g, Some(budget), None)
                    .unwrap();
                assert_eq!(
                    plan_bits(&r),
                    expected[&budget],
                    "{net} order {i}: replayed budget {budget} diverged"
                );
                assert_eq!(
                    r.stats.coloring_seconds, 0.0,
                    "{net} order {i}: replayed budget {budget} recolored"
                );
                assert_eq!(
                    r.stats.dnnk_dp_cells, 0,
                    "{net} order {i}: replayed budget {budget} ran a DP"
                );
            }
            assert_eq!(artifacts.memo_footprint(), footprint);
        }
    }
}

/// A run's `PassStats` counters are its own: a plan run on a thread that
/// has just read a gain curve and replanned another artifact set reports
/// the counters the same plan reports on a fresh thread.
#[test]
fn run_counters_are_independent_of_earlier_runs_on_the_thread() {
    let g = zoo::googlenet();
    let plan = || {
        PlanRequest::new(&g, &Device::vu9p(), Precision::Fix16)
            .run()
            .expect("googlenet plans")
            .stats
    };
    let after_other_runs = || {
        let other = zoo::alexnet();
        let artifacts =
            PlanArtifacts::build(&other, base(&other), LcmmOptions::default(), None).unwrap();
        artifacts.gain_curve(&other, 8 << 20).unwrap();
        artifacts
            .replan_with_budget(&other, Some(4 << 20), None)
            .unwrap();
        plan()
    };
    let (fresh, busy) = std::thread::scope(|s| {
        let fresh = s.spawn(plan).join().expect("fresh thread");
        let busy = s.spawn(after_other_runs).join().expect("busy thread");
        (fresh, busy)
    });
    let counters = |s: PassStats| {
        [
            s.evaluator_calls,
            s.allocator_invocations,
            s.dnnk_dp_cells,
            s.dnnk_table_hits,
            s.gain_cache_hits,
            s.gain_cache_misses,
            s.gain_exact_recomputes,
            s.splits_accepted,
            s.splits_rejected,
        ]
    };
    assert!(fresh.dnnk_dp_cells > 0 && fresh.allocator_invocations > 0);
    assert_eq!(counters(fresh), counters(busy));
}
