//! Incremental delta-planning: budget-only replans from cached pass
//! artifacts.
//!
//! The expensive intermediates of the LCMM pipeline — the liveness
//! intervals folded into the feature interference graph (pass 1), the
//! prefetch plan and weight interference graph (pass 2), and each
//! tenant's DNNK gain curve — depend only on `(graph, profile, design,
//! options − tensor_budget)`. The budget enters the pipeline for the
//! first time in pass 3's capacity DP. [`PlanArtifacts`] captures that
//! invariant: build the passes 1–2 artifacts once per `(graph digest,
//! precision, allocator, design point)`, then
//! [`PlanArtifacts::replan_with_budget`]
//! replays only the capacity DP + pivot compensation + splitting +
//! reporting for any number of budgets.
//!
//! There is one planning route. A from-scratch [`crate::PlanRequest`]
//! builds a throwaway artifact set and replays its one budget, and a
//! one-shot [`crate::tenant_gain_curve`] reads a throwaway set's curve;
//! a delta replan replays a cached set. The replay is therefore
//! **bit-identical** to a from-scratch plan at every budget. The
//! property tests in `crates/core/tests/delta_props.rs` and
//! `crates/multi/tests/coplan_props.rs` check that the DNNK table and
//! gain-curve memos, the only state a cached set adds, never change a
//! result.
//!
//! See `docs/DELTA.md` for the artifact keys, the invariance argument,
//! and the invalidation rules the harness layers on top.

use crate::alloc::dnnk::{self, MemoFootprint, TableMemo};
use crate::alloc::AllocProblem;
use crate::cancel::{check_opt, CancelToken};
use crate::coplan::{GainCurve, CAPACITY_UNIT_BYTES};
use crate::error::LcmmError;
use crate::eval::Evaluator;
use crate::interference::VirtualBuffer;
use crate::pipeline::{
    build_front_end, run_back_end, AllocatorKind, FrontEnd, LcmmOptions, Pipeline,
};
use crate::splitting::color_all;
use crate::LcmmResult;
use lcmm_fpga::{AccelDesign, GraphProfile};
use lcmm_graph::Graph;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Budget-invariant pass artifacts for one `(graph, design, options)`
/// point, plus a per-pool memo of DNNK gain curves and a split-key memo
/// of the buffer sets and DNNK choice tables that budget-only replans
/// read instead of recoloring and backtrack from.
///
/// The stored options have `tensor_budget` normalised to `None`: the
/// budget is the one degree of freedom a replay varies, so two requests
/// that differ only in budget share one artifact set (and one cache
/// entry, see [`crate::Harness::try_artifacts`]).
#[derive(Debug)]
pub struct PlanArtifacts {
    design: AccelDesign,
    profile: Arc<GraphProfile>,
    /// The fused latency table when `options.fusion` selected groups;
    /// `None` otherwise. Replans and gain curves run against this
    /// (falling back to `profile`), while [`Self::profile`] keeps
    /// returning the unfused table — the form [`Self::from_parts`]
    /// takes, since fusion is derived there and nowhere else.
    fused_profile: Option<Arc<GraphProfile>>,
    options: LcmmOptions,
    pub(crate) front: FrontEnd,
    graph_name: String,
    graph_nodes: usize,
    curves: Mutex<HashMap<u64, Arc<GainCurve>>>,
    pub(crate) memo: TableMemo,
    /// Whether [`Self::take_front_end_seconds`] has handed out the build's
    /// pass 1–2 timings.
    front_end_reported: AtomicBool,
}

impl PlanArtifacts {
    /// Builds artifacts from a *base* (undegraded) design: derates it
    /// exactly as [`crate::PlanRequest::with_design`] would, profiles
    /// the graph, and runs passes 1–2.
    ///
    /// Any `tensor_budget` in `options` is ignored (normalised away) —
    /// pass the budget to [`Self::replan_with_budget`] instead.
    pub fn build(
        graph: &Graph,
        base: AccelDesign,
        options: LcmmOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, LcmmError> {
        let design = Pipeline::new(options).lcmm_design(base);
        let profile = Arc::new(design.profile(graph));
        Self::from_parts(graph, design, profile, options, cancel)
    }

    /// Builds artifacts from an already-derated design and its unfused
    /// profile (the harness uses this to share its profile cache). This
    /// is the one place fusion and passes 1–2 run: fusion is not
    /// idempotent (see [`crate::fusion`]), so it is derived once, here.
    pub fn from_parts(
        graph: &Graph,
        design: AccelDesign,
        profile: Arc<GraphProfile>,
        options: LcmmOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, LcmmError> {
        let options = options.with_tensor_budget(None);
        let (fusion, fused_profile) =
            match crate::fusion::prepare(graph, &profile, &design, &options) {
                Some((plan, fused)) => (plan, Some(Arc::new(fused))),
                None => (crate::fusion::FusionPlan::default(), None),
            };
        let effective = fused_profile.as_ref().unwrap_or(&profile);
        let evaluator = Evaluator::new(graph, effective);
        let front = build_front_end(
            graph, effective, &evaluator, &design, &options, &fusion, cancel,
        )?;
        Ok(Self {
            design,
            profile,
            fused_profile,
            options,
            front,
            graph_name: graph.name().to_string(),
            graph_nodes: graph.len(),
            curves: Mutex::new(HashMap::new()),
            memo: TableMemo::default(),
            front_end_reported: AtomicBool::new(false),
        })
    }

    /// The derated design the artifacts were built against.
    #[must_use]
    pub fn design(&self) -> &AccelDesign {
        &self.design
    }

    /// The (unfused) graph profile the artifacts were built against.
    #[must_use]
    pub fn profile(&self) -> &Arc<GraphProfile> {
        &self.profile
    }

    /// The latency table replays actually evaluate: the fused table
    /// when fusion selected groups, the base profile otherwise.
    pub(crate) fn effective_profile(&self) -> &Arc<GraphProfile> {
        self.fused_profile.as_ref().unwrap_or(&self.profile)
    }

    /// The fused groups the artifacts were built under (empty when
    /// fusion is off or selected nothing).
    #[must_use]
    pub fn fusion(&self) -> &crate::fusion::FusionPlan {
        &self.front.fusion
    }

    /// The normalised options (`tensor_budget` is always `None` here).
    #[must_use]
    pub fn options(&self) -> &LcmmOptions {
        &self.options
    }

    /// Guards against replaying artifacts built for a different graph.
    /// A full structural comparison would defeat the purpose of the
    /// cache, so this checks the cheap invariants; the harness key
    /// (graph digest) is the real guarantee.
    fn check_graph(&self, graph: &Graph) -> Result<(), LcmmError> {
        if graph.name() != self.graph_name || graph.len() != self.graph_nodes {
            return Err(LcmmError::InvalidRequest(format!(
                "plan artifacts were built for '{}' ({} nodes), not '{}' ({} nodes)",
                self.graph_name,
                self.graph_nodes,
                graph.name(),
                graph.len()
            )));
        }
        Ok(())
    }

    /// The initial coloring of the cached interference graphs: the split
    /// memo's empty key, colored (and timed on `evaluator`) the first time
    /// any route asks for it.
    pub(crate) fn initial_buffers(&self, evaluator: &Evaluator<'_>) -> Arc<[VirtualBuffer]> {
        self.memo.buffers(&[], || {
            color_all(
                evaluator,
                &self.front.feature_graph,
                &self.front.weight_graph,
            )
        })
    }

    /// Replays passes 3–4 + reporting at `budget` (bytes; `None` = the
    /// design's full SRAM budget).
    ///
    /// Bit-identical to running [`crate::PlanRequest`] from scratch
    /// with the same design and `options.with_tensor_budget(budget)`:
    /// that request replays its budget on a throwaway artifact set built
    /// exactly like this one. Each buffer set the split loop reaches is
    /// read from the set's memo if an earlier replan stored it, and
    /// colored otherwise. Under `allocator: dnnk`, each allocation
    /// whose buffer set has a stored choice table at least as wide as
    /// the budget is a backtrack from it; any other allocation runs the
    /// DP a fresh set runs and offers its table to the memo (see
    /// `docs/DELTA.md`). The result's stats report 0 s for liveness and
    /// prefetch, which this replan did not run.
    pub fn replan_with_budget(
        &self,
        graph: &Graph,
        budget: Option<u64>,
        cancel: Option<&CancelToken>,
    ) -> Result<LcmmResult, LcmmError> {
        self.check_graph(graph)?;
        run_back_end(self, graph, budget, Instant::now(), cancel)
    }

    /// A one-shot plan at `options.tensor_budget`: builds a throwaway
    /// artifact set and replays its budget once — the engine behind
    /// [`crate::PlanRequest`] and [`crate::Harness::try_lcmm_with_design`].
    /// The result's `total_seconds` and pass 1–2 timings include the
    /// build. `cancel` is polled before the build and at every pass
    /// boundary.
    pub(crate) fn plan_once(
        graph: &Graph,
        design: AccelDesign,
        profile: Arc<GraphProfile>,
        options: LcmmOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<LcmmResult, LcmmError> {
        check_opt(cancel)?;
        let t_total = Instant::now();
        let artifacts = Self::from_parts(graph, design, profile, options, cancel)?;
        let mut result = run_back_end(&artifacts, graph, options.tensor_budget, t_total, cancel)?;
        result.stats.liveness_seconds = artifacts.front.liveness_seconds;
        result.stats.prefetch_seconds = artifacts.front.prefetch_seconds;
        Ok(result)
    }

    /// Wall clock `(liveness, prefetch)` of the passes 1–2 this artifact
    /// set was built with, handed out to the first caller only: a
    /// daemon recording pass timings records each build once, however
    /// many replans the build serves.
    pub fn take_front_end_seconds(&self) -> Option<(f64, f64)> {
        (!self.front_end_reported.swap(true, Ordering::Relaxed))
            .then_some((self.front.liveness_seconds, self.front.prefetch_seconds))
    }

    /// The buffer sets and DNNK choice tables stored for replans.
    #[must_use]
    pub fn memo_footprint(&self) -> MemoFootprint {
        self.memo.footprint()
    }

    /// The tenant's DNNK gain curve against a capacity pool of
    /// `pool_bytes`, memoised per pool size.
    ///
    /// [`crate::tenant_gain_curve`] is this method on a throwaway set.
    /// A narrower pool slices a wider memoized curve, bitwise what a
    /// fresh DP at that pool returns. The DP is also the initial coloring's
    /// allocation DP at the pool's width, so its choice table joins the
    /// table memo: a replan at a budget within the pool then starts
    /// with a backtrack.
    pub fn gain_curve(&self, graph: &Graph, pool_bytes: u64) -> Result<Arc<GainCurve>, LcmmError> {
        self.check_graph(graph)?;
        let mut curves = self.curves.lock().expect("curve memo poisoned");
        if let Some(curve) = curves.get(&pool_bytes) {
            return Ok(Arc::clone(curve));
        }
        // A wider memoised curve subsumes this pool: entry `u` of the
        // DNNK value row depends only on columns `<= u`, never on the
        // column count (the standard knapsack prefix property), so the
        // prefix is bitwise the curve a fresh DP at this pool produces.
        let units = (pool_bytes / CAPACITY_UNIT_BYTES) as usize;
        let curve = if let Some(wider) = curves.values().find(|c| c.units() >= units) {
            GainCurve::from_values(wider.values()[..=units].to_vec())
        } else {
            let evaluator = Evaluator::new(graph, self.effective_profile());
            let buffers = self.initial_buffers(&evaluator);
            let problem = AllocProblem::with_streaming(
                &evaluator,
                &buffers,
                pool_bytes,
                &self.front.prefetch,
                self.options.weight_streaming,
            );
            // Only `allocator: dnnk` replans read the memo.
            let memo = (self.options.allocator == AllocatorKind::Dnnk).then_some(&self.memo);
            GainCurve::from_values(dnnk::gain_curve(&problem, memo))
        };
        let curve = Arc::new(curve);
        curves.insert(pool_bytes, Arc::clone(&curve));
        Ok(curve)
    }

    /// Number of distinct pool sizes with a memoised gain curve.
    #[must_use]
    pub fn cached_curves(&self) -> usize {
        self.curves.lock().expect("curve memo poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coplan::tenant_gain_curve;
    use crate::request::PlanRequest;
    use crate::StreamingMode;
    use lcmm_fpga::{Device, Precision};
    use lcmm_graph::zoo;

    fn base(graph: &Graph) -> AccelDesign {
        AccelDesign::explore(graph, &Device::vu9p(), Precision::Fix16)
    }

    #[test]
    fn replan_matches_scratch_at_several_budgets() {
        let g = zoo::alexnet();
        let artifacts = PlanArtifacts::build(&g, base(&g), LcmmOptions::default(), None).unwrap();
        let full = artifacts.design().tensor_sram_budget();
        for budget in [None, Some(0), Some(full / 3), Some(full), Some(full * 2)] {
            let delta = artifacts.replan_with_budget(&g, budget, None).unwrap();
            let scratch = PlanRequest::new(&g, &Device::vu9p(), Precision::Fix16)
                .options(LcmmOptions::default().with_tensor_budget(budget))
                .with_design(base(&g))
                .run()
                .unwrap();
            assert_eq!(delta.latency.to_bits(), scratch.latency.to_bits());
            assert_eq!(delta.chosen, scratch.chosen);
            assert_eq!(delta.buffers, scratch.buffers);
            assert_eq!(delta.residency, scratch.residency);
            assert_eq!(delta.split_iterations, scratch.split_iterations);
            assert_eq!(delta.resources, scratch.resources);
        }
    }

    #[test]
    fn replan_with_streaming_matches_scratch_at_several_budgets() {
        // The mode variants are derived from budget-invariant artifacts
        // (buffers + prefetch plan), so a delta replay with AutoWS must
        // reproduce the from-scratch streaming plan bit-for-bit at any
        // budget — including degenerate ones where streaming carries
        // the whole plan.
        let g = zoo::alexnet();
        let opts = LcmmOptions::default().with_weight_streaming(StreamingMode::Auto);
        let artifacts = PlanArtifacts::build(&g, base(&g), opts, None).unwrap();
        let full = artifacts.design().tensor_sram_budget();
        for budget in [
            Some(0),
            Some(crate::coplan::CAPACITY_UNIT_BYTES),
            Some(full / 8),
            Some(full / 3),
            None,
        ] {
            let delta = artifacts.replan_with_budget(&g, budget, None).unwrap();
            let scratch = PlanRequest::new(&g, &Device::vu9p(), Precision::Fix16)
                .options(opts.with_tensor_budget(budget))
                .with_design(base(&g))
                .run()
                .unwrap();
            assert_eq!(delta.latency.to_bits(), scratch.latency.to_bits());
            assert_eq!(delta.chosen, scratch.chosen);
            assert_eq!(delta.weight_modes, scratch.weight_modes);
            assert_eq!(delta.residency, scratch.residency);
        }
    }

    #[test]
    fn gain_curve_matches_coplan_and_memoises() {
        let g = zoo::alexnet();
        let artifacts = PlanArtifacts::build(&g, base(&g), LcmmOptions::default(), None).unwrap();
        let pool = artifacts.design().tensor_sram_budget();
        let via_artifacts = artifacts.gain_curve(&g, pool).unwrap();
        let scratch = tenant_gain_curve(
            &g,
            artifacts.profile(),
            artifacts.design(),
            artifacts.options(),
            pool,
        );
        let a: Vec<u64> = via_artifacts.values().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = scratch.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
        // Second request for the same pool hits the memo.
        let again = artifacts.gain_curve(&g, pool).unwrap();
        assert!(Arc::ptr_eq(&via_artifacts, &again));
        assert_eq!(artifacts.cached_curves(), 1);
    }

    #[test]
    fn narrower_pools_slice_the_widest_cached_curve_bitwise() {
        let g = zoo::alexnet();
        let artifacts = PlanArtifacts::build(&g, base(&g), LcmmOptions::default(), None).unwrap();
        let full = artifacts.design().tensor_sram_budget();
        let wide = artifacts.gain_curve(&g, full).unwrap();
        for pool in [0, crate::coplan::CAPACITY_UNIT_BYTES, full / 2, full - 1] {
            let sliced = artifacts.gain_curve(&g, pool).unwrap();
            let fresh = tenant_gain_curve(
                &g,
                artifacts.profile(),
                artifacts.design(),
                artifacts.options(),
                pool,
            );
            let a: Vec<u64> = sliced.values().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = fresh.values().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "prefix diverged at pool {pool}");
            assert!(sliced.units() <= wide.units());
        }
        // Every pool size got its own memo entry.
        assert_eq!(artifacts.cached_curves(), 5);
    }

    #[test]
    fn replans_report_only_the_work_they_did() {
        let g = zoo::googlenet();
        let artifacts = PlanArtifacts::build(&g, base(&g), LcmmOptions::default(), None).unwrap();
        let full = artifacts.design().tensor_sram_budget();
        let wide = artifacts.replan_with_budget(&g, None, None).unwrap();
        let narrow = artifacts
            .replan_with_budget(&g, Some(full / 4), None)
            .unwrap();
        for r in [&wide, &narrow] {
            assert_eq!(r.stats.liveness_seconds, 0.0, "pass 1 ran in the build");
            assert_eq!(r.stats.prefetch_seconds, 0.0, "pass 2 ran in the build");
        }
        // The full budget ran the DPs; the narrower one backtracks at
        // least its initial allocation, and fills fewer cells.
        assert_eq!(wide.stats.dnnk_table_hits, 0);
        assert!(wide.stats.dnnk_dp_cells > 0);
        assert!(narrow.stats.dnnk_table_hits > 0);
        assert!(narrow.stats.dnnk_dp_cells < wide.stats.dnnk_dp_cells);
        // The scratch route ran passes 1-2 and reports them.
        let scratch = PlanRequest::new(&g, &Device::vu9p(), Precision::Fix16)
            .with_design(base(&g))
            .run()
            .unwrap();
        assert!(scratch.stats.liveness_seconds > 0.0);
        assert!(scratch.stats.prefetch_seconds > 0.0);
        assert_eq!(scratch.stats.dnnk_table_hits, 0);
        assert_eq!(scratch.stats.dnnk_dp_cells, wide.stats.dnnk_dp_cells);
        // The build's pass 1-2 timings are handed out once.
        assert!(artifacts.take_front_end_seconds().is_some());
        assert_eq!(artifacts.take_front_end_seconds(), None);
    }

    #[test]
    fn coloring_is_timed_inside_alloc_split() {
        // `coloring_seconds` is a subset of `alloc_split_seconds` on
        // every route, a set's first replan included: that replan
        // colors the set's front end, and must do so inside the pass.
        // At budget 0 the allocations are cheap, so coloring outside
        // the timer would outweigh the whole pass.
        let g = zoo::inception_v4();
        let request = PlanRequest::new(&g, &Device::vu9p(), Precision::Fix16)
            .with_design(base(&g))
            .tensor_budget(Some(0))
            .run()
            .unwrap();
        let artifacts = PlanArtifacts::build(&g, base(&g), LcmmOptions::default(), None).unwrap();
        let replan = artifacts.replan_with_budget(&g, Some(0), None).unwrap();
        for (route, stats) in [("request", request.stats), ("first replan", replan.stats)] {
            assert!(stats.coloring_seconds > 0.0, "{route} colored nothing");
            assert!(
                stats.coloring_seconds <= stats.alloc_split_seconds,
                "{route}: coloring {} s is not inside alloc/split {} s",
                stats.coloring_seconds,
                stats.alloc_split_seconds
            );
        }
    }

    #[test]
    fn gain_curve_stores_the_initial_coloring_table() {
        let g = zoo::alexnet();
        let artifacts = PlanArtifacts::build(&g, base(&g), LcmmOptions::default(), None).unwrap();
        let full = artifacts.design().tensor_sram_budget();
        artifacts.gain_curve(&g, full).unwrap();
        let footprint = artifacts.memo_footprint();
        assert_eq!((footprint.keys, footprint.tables), (1, 1));
        let replan = artifacts
            .replan_with_budget(&g, Some(full / 2), None)
            .unwrap();
        assert!(
            replan.stats.dnnk_table_hits > 0,
            "initial allocation backtracks"
        );
        let scratch = PlanRequest::new(&g, &Device::vu9p(), Precision::Fix16)
            .options(LcmmOptions::default().with_tensor_budget(Some(full / 2)))
            .with_design(base(&g))
            .run()
            .unwrap();
        assert_eq!(replan.latency.to_bits(), scratch.latency.to_bits());
        assert_eq!(replan.chosen, scratch.chosen);
    }

    #[test]
    fn wrong_graph_is_rejected() {
        let g = zoo::alexnet();
        let other = zoo::squeezenet();
        let artifacts = PlanArtifacts::build(&g, base(&g), LcmmOptions::default(), None).unwrap();
        let err = artifacts
            .replan_with_budget(&other, None, None)
            .unwrap_err();
        assert!(matches!(err, LcmmError::InvalidRequest(_)));
    }

    #[test]
    fn budget_in_build_options_is_normalised_away() {
        let g = zoo::alexnet();
        let opts = LcmmOptions::default().with_tensor_budget(Some(1));
        let artifacts = PlanArtifacts::build(&g, base(&g), opts, None).unwrap();
        assert_eq!(artifacts.options().tensor_budget, None);
        // The replay budget is the caller's, not the build-time one.
        let full = artifacts.replan_with_budget(&g, None, None).unwrap();
        let scratch = PlanRequest::new(&g, &Device::vu9p(), Precision::Fix16)
            .options(LcmmOptions::default())
            .with_design(base(&g))
            .run()
            .unwrap();
        assert_eq!(full.latency.to_bits(), scratch.latency.to_bits());
    }
}
