//! The LCMM pipeline (paper Fig. 4): feature buffer reuse → weight
//! buffer prefetching → DNNK allocation → buffer splitting.

use crate::alloc::{dnnk_iterative, exhaustive, greedy, AllocProblem};
use crate::cancel::{check_opt, CancelToken};
use crate::delta::PlanArtifacts;
use crate::error::LcmmError;
use crate::eval::{Evaluator, Residency};
use crate::fusion::{FusionMode, FusionPlan};
use crate::interference::{FalseEdge, InterferenceGraph, VirtualBuffer};
use crate::liveness::{feature_lifespans, Schedule};
use crate::prefetch::{PrefetchPlan, StreamingMode, WeightMode};
use crate::profiling::PassStats;
use crate::splitting::{refine_from, SplitConfig, SplitInputs};
use crate::umm::UmmBaseline;
use crate::value::ValueTable;
use lcmm_fpga::{
    resources, AccelDesign, Device, GraphProfile, Precision, ResourceReport, TileBudget,
};
use lcmm_graph::Graph;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Which allocator the pipeline uses for the knapsack stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AllocatorKind {
    /// The paper's DNNK dynamic program (default).
    Dnnk,
    /// DNNK with fixed-point marginal refinement (extension).
    DnnkIterative,
    /// Marginal-gain-density greedy (ablation).
    Greedy,
    /// Exact enumeration (small instances only).
    Exhaustive,
}

/// Pipeline configuration. The defaults reproduce the full LCMM flow;
/// the toggles drive the Fig. 8 ablations.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`LcmmOptions::default`] (or one of the ablation presets) and adapt
/// it through the `with_*` builder methods, so new knobs can be added
/// without breaking downstream callers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct LcmmOptions {
    /// Enable feature buffer reuse (§3.1).
    pub feature_reuse: bool,
    /// Enable weight buffer prefetching and sharing (§3.2).
    pub weight_prefetch: bool,
    /// Enable buffer splitting (§3.4).
    pub splitting: bool,
    /// Allocator for the knapsack stage (§3.3).
    pub allocator: AllocatorKind,
    /// Clock derate relative to the UMM baseline: the extra buffers and
    /// muxing cost timing slack (Table 1: 190 → 180 MHz).
    pub frequency_hz: Option<f64>,
    /// Explicit tensor SRAM budget in bytes for the knapsack stage,
    /// clamped to the design's own [`AccelDesign::tensor_sram_budget`].
    /// `None` (the default) uses the full design budget; multi-tenant
    /// co-planning sets this to the tenant's share of the shared pool.
    pub tensor_budget: Option<u64>,
    /// Per-layer weight streaming (AutoWS): [`StreamingMode::Off`]
    /// (default) is the paper's binary residency, [`StreamingMode::Auto`]
    /// lets DNNK choose pinning / partial residency / double-buffered
    /// streaming per weight, and [`StreamingMode::Pinned`] plans exactly
    /// as `Off` (bit-identical) but is reported as a streaming run.
    pub weight_streaming: StreamingMode,
    /// Fused-layer planning: [`FusionMode::Off`] (default) is the
    /// legacy per-layer pipeline, [`FusionMode::Auto`] runs the fusion
    /// grouping pass ahead of liveness, eliminating intermediate
    /// tensors inside fused groups at the cost of bounded halo
    /// recomputation.
    pub fusion: FusionMode,
}

impl Default for LcmmOptions {
    fn default() -> Self {
        Self {
            feature_reuse: true,
            weight_prefetch: true,
            splitting: true,
            allocator: AllocatorKind::Dnnk,
            frequency_hz: None,
            tensor_budget: None,
            weight_streaming: StreamingMode::Off,
            fusion: FusionMode::Off,
        }
    }
}

impl LcmmOptions {
    /// Feature buffer reuse only (Fig. 8(a)).
    #[must_use]
    pub fn feature_reuse_only() -> Self {
        Self {
            weight_prefetch: false,
            ..Self::default()
        }
    }

    /// Weight prefetching only (Fig. 8(b)).
    #[must_use]
    pub fn weight_prefetch_only() -> Self {
        Self {
            feature_reuse: false,
            ..Self::default()
        }
    }

    /// Returns a copy with feature buffer reuse toggled.
    #[must_use]
    pub fn with_feature_reuse(mut self, on: bool) -> Self {
        self.feature_reuse = on;
        self
    }

    /// Returns a copy with weight prefetching toggled.
    #[must_use]
    pub fn with_weight_prefetch(mut self, on: bool) -> Self {
        self.weight_prefetch = on;
        self
    }

    /// Returns a copy with buffer splitting toggled.
    #[must_use]
    pub fn with_splitting(mut self, on: bool) -> Self {
        self.splitting = on;
        self
    }

    /// Returns a copy using `allocator` for the knapsack stage.
    #[must_use]
    pub fn with_allocator(mut self, allocator: AllocatorKind) -> Self {
        self.allocator = allocator;
        self
    }

    /// Returns a copy with an explicit LCMM clock (`None` restores the
    /// per-precision default derate).
    #[must_use]
    pub fn with_frequency_hz(mut self, frequency_hz: Option<f64>) -> Self {
        self.frequency_hz = frequency_hz;
        self
    }

    /// Returns a copy with an explicit tensor SRAM budget for the
    /// knapsack stage (`None` restores the full design budget).
    #[must_use]
    pub fn with_tensor_budget(mut self, tensor_budget: Option<u64>) -> Self {
        self.tensor_budget = tensor_budget;
        self
    }

    /// Returns a copy with the given weight-streaming mode.
    #[must_use]
    pub fn with_weight_streaming(mut self, weight_streaming: StreamingMode) -> Self {
        self.weight_streaming = weight_streaming;
        self
    }

    /// Returns a copy with the given fused-layer planning mode.
    #[must_use]
    pub fn with_fusion(mut self, fusion: FusionMode) -> Self {
        self.fusion = fusion;
        self
    }
}

/// Default LCMM clocks (Table 1): fixed-point 180 MHz, float 160 MHz.
fn default_lcmm_frequency(precision: Precision) -> f64 {
    match precision {
        Precision::Fix8 | Precision::Fix16 => 180e6,
        Precision::Float32 => 160e6,
    }
}

/// The fully evaluated result of running LCMM on one network.
#[derive(Debug, Clone)]
pub struct LcmmResult {
    /// The accelerator design (LCMM clock and tile budget).
    pub design: AccelDesign,
    /// End-to-end latency, seconds.
    pub latency: f64,
    /// Total operations of one inference (2 × MACs).
    pub ops: u64,
    /// The residency assignment LCMM chose.
    pub residency: Residency,
    /// All virtual buffers after coloring/splitting.
    pub buffers: Vec<VirtualBuffer>,
    /// Which buffers received physical storage.
    pub chosen: Vec<bool>,
    /// Per-buffer weight mode, aligned with `buffers`/`chosen`.  Buffers
    /// that are not single-member weight buffers (and every buffer when
    /// streaming is [`StreamingMode::Off`]) report [`WeightMode::Pinned`].
    pub weight_modes: Vec<WeightMode>,
    /// The weight prefetch plan.
    pub prefetch: PrefetchPlan,
    /// Accepted split iterations.
    pub split_iterations: usize,
    /// Resource utilisation including allocated tensor buffers.
    pub resources: ResourceReport,
    /// Number of memory-bound compute layers in the UMM profile.
    pub memory_bound_layers: usize,
    /// Memory-bound layers whose latency improved — the numerator of
    /// the paper's POL metric (Table 2).
    pub layers_benefiting: usize,
    /// The fused groups this plan executes under (empty unless
    /// [`LcmmOptions::fusion`] selected any). The result's latency,
    /// residency and buffers are all expressed against the fused
    /// latency table.
    pub fusion: FusionPlan,
    /// Per-pass timings and counters of this run.
    pub stats: PassStats,
}

impl LcmmResult {
    /// Achieved throughput in ops/s.
    #[must_use]
    pub fn throughput_ops(&self) -> f64 {
        self.ops as f64 / self.latency
    }

    /// The paper's POL metric: fraction of memory-bound layers that
    /// benefit from LCMM.
    #[must_use]
    pub fn pol(&self) -> f64 {
        if self.memory_bound_layers == 0 {
            return 0.0;
        }
        self.layers_benefiting as f64 / self.memory_bound_layers as f64
    }

    /// Speedup over a baseline latency.
    #[must_use]
    pub fn speedup_over(&self, baseline_latency: f64) -> f64 {
        baseline_latency / self.latency
    }

    /// Sizes of the allocated (physical) buffers, in bytes.
    #[must_use]
    pub fn allocated_buffer_sizes(&self) -> Vec<u64> {
        self.buffers
            .iter()
            .zip(&self.chosen)
            .filter(|(_, &c)| c)
            .map(|(b, _)| b.bytes)
            .collect()
    }

    /// SRAM bytes each chosen buffer actually occupies, mode-aware: a
    /// pinned buffer occupies its full footprint, a streamed buffer only
    /// its ping-pong staging pair, and a partially resident buffer its
    /// resident prefix. With streaming off this equals
    /// [`Self::allocated_buffer_sizes`].
    #[must_use]
    pub fn occupied_buffer_sizes(&self) -> Vec<u64> {
        self.buffers
            .iter()
            .zip(&self.chosen)
            .zip(&self.weight_modes)
            .filter(|((_, &c), _)| c)
            .map(|((b, _), mode)| match *mode {
                WeightMode::Pinned => b.bytes,
                WeightMode::Streamed { .. } => crate::prefetch::STREAM_PING_PONG_BYTES,
                WeightMode::PartialResident { resident_bytes } => resident_bytes,
            })
            .collect()
    }
}

/// The LCMM pipeline's options and the design derating they imply.
/// Planning runs go through [`crate::PlanRequest`] or
/// [`crate::PlanArtifacts`].
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    options: LcmmOptions,
}

impl Pipeline {
    /// Creates a pipeline with the given options.
    #[must_use]
    pub fn new(options: LcmmOptions) -> Self {
        Self { options }
    }

    /// The options in force.
    #[must_use]
    pub fn options(&self) -> &LcmmOptions {
        &self.options
    }

    /// Derates an explored (UMM) design into its LCMM form: the array
    /// shape is kept, the clock is derated and the tile buffers shrunk
    /// per the paper's LCMM designs.
    #[must_use]
    pub fn lcmm_design(&self, base: AccelDesign) -> AccelDesign {
        let freq = self
            .options
            .frequency_hz
            .unwrap_or_else(|| default_lcmm_frequency(base.precision));
        base.with_frequency(freq)
            .with_tile_budget(TileBudget::default_lcmm())
    }
}

/// The budget-invariant intermediates of passes 1–2: liveness intervals
/// folded into the feature interference graph, prefetch spans folded
/// into the weight interference graph, and the prefetch plan itself.
/// These depend only on `(graph, profile, design, options − tensor_budget)`
/// — the invariance [`crate::delta`] builds on.
#[derive(Debug, Clone)]
pub(crate) struct FrontEnd {
    /// Feature-tensor interference graph (pass 1).
    pub feature_graph: InterferenceGraph,
    /// Weight-tensor interference graph (pass 2).
    pub weight_graph: InterferenceGraph,
    /// The weight prefetch plan (pass 2).
    pub prefetch: PrefetchPlan,
    /// The fused groups the front end was built under (empty when
    /// fusion is off or selected nothing). Budget-invariant, like
    /// everything else here, so delta replays carry it for free.
    pub fusion: FusionPlan,
    /// Wall clock of pass 1, seconds.
    pub liveness_seconds: f64,
    /// Wall clock of pass 2, seconds.
    pub prefetch_seconds: f64,
}

/// Runs passes 1–2 on the (fused, when fusion selected groups) latency
/// table. Its one caller is [`PlanArtifacts::from_parts`], which every
/// planning route goes through — a one-shot [`crate::PlanRequest`], a
/// gain curve, a cached delta replan — so they all plan on one front
/// end by construction.
pub(crate) fn build_front_end(
    graph: &Graph,
    profile: &GraphProfile,
    evaluator: &Evaluator<'_>,
    design: &AccelDesign,
    options: &LcmmOptions,
    fusion: &FusionPlan,
    cancel: Option<&CancelToken>,
) -> Result<FrontEnd, LcmmError> {
    let values = ValueTable::build_batched(graph, profile, design.precision, design.batch);
    let schedule = Schedule::new(graph);

    // --- Pass 1: feature buffer reuse -------------------------------
    // Tensors eliminated by fused groups never materialise, so they are
    // dropped from the candidate set: their liveness intervals vanish
    // and the interference graph shrinks accordingly.
    let t_pass = Instant::now();
    let feature_graph = if options.feature_reuse {
        let spans = feature_lifespans(
            &schedule,
            values
                .feature_candidates()
                .filter(|v| !fusion.eliminates(v.id.node())),
        );
        InterferenceGraph::new(
            values
                .feature_candidates()
                .filter(|v| !fusion.eliminates(v.id.node()))
                .map(|v| (v.id, v.bytes, spans[&v.id]))
                .collect(),
        )
    } else {
        InterferenceGraph::default()
    };
    let liveness_seconds = t_pass.elapsed().as_secs_f64();
    check_opt(cancel)?;

    // --- Pass 2: weight buffer prefetching ---------------------------
    let t_pass = Instant::now();
    let (weight_graph, prefetch) = if options.weight_prefetch {
        let plan = PrefetchPlan::build(
            evaluator,
            &schedule,
            &Residency::new(),
            values.weight_candidates(),
        );
        let spans = plan.intervals();
        let graph = InterferenceGraph::new(
            values
                .weight_candidates()
                .filter(|v| spans.contains_key(&v.id))
                .map(|v| (v.id, v.bytes, spans[&v.id]))
                .collect(),
        );
        (graph, plan)
    } else {
        (InterferenceGraph::default(), PrefetchPlan::default())
    };
    let prefetch_seconds = t_pass.elapsed().as_secs_f64();
    check_opt(cancel)?;

    Ok(FrontEnd {
        feature_graph,
        weight_graph,
        prefetch,
        fusion: fusion.clone(),
        liveness_seconds,
        prefetch_seconds,
    })
}

/// Runs passes 3–4 and reporting at `budget` (`None` = the design's full
/// SRAM budget) on the front end of `artifacts` — the budget-dependent
/// tail of the pipeline. `t_total` anchors the run's `total_seconds`:
/// the caller started it before the replay (or before the build, for a
/// one-shot plan). The counters are those of this run's own evaluator.
/// The result's stats report 0 s for liveness and prefetch, which ran in
/// the build: a caller that ran them fills those fields in.
pub(crate) fn run_back_end(
    artifacts: &PlanArtifacts,
    graph: &Graph,
    budget: Option<u64>,
    t_total: Instant,
    cancel: Option<&CancelToken>,
) -> Result<LcmmResult, LcmmError> {
    let options = artifacts.options();
    let design = artifacts.design().clone();
    // An explicit budget is clamped to the design's own SRAM budget.
    let full_budget = design.tensor_sram_budget();
    let profile = artifacts.effective_profile();
    let evaluator = Evaluator::new(graph, profile);
    let front = &artifacts.front;

    // --- Pass 3 + 4: DNNK allocation with splitting ------------------
    // Buffer sets are memoized per artifact set and split key: the first
    // run on a set colors here, so the coloring is timed inside the pass.
    let t_pass = Instant::now();
    // The exact allocator enumerates 2^n subsets: refuse a buffer set it
    // cannot enumerate instead of planning it with the empty allocation.
    if options.allocator == AllocatorKind::Exhaustive {
        let buffers = artifacts.initial_buffers(&evaluator).len();
        if buffers > exhaustive::MAX_BUFFERS {
            return Err(LcmmError::InvalidRequest(format!(
                "exhaustive allocator limited to {} buffers, got {buffers}",
                exhaustive::MAX_BUFFERS,
            )));
        }
    }
    // `allocator: dnnk` calls backtrack from the set's stored DNNK
    // tables where one is wide enough (see `docs/DELTA.md`).
    let allocate = |problem: &AllocProblem<'_>, edges: &[FalseEdge]| match options.allocator {
        AllocatorKind::Dnnk => artifacts.memo.allocate(problem, edges),
        AllocatorKind::DnnkIterative => dnnk_iterative::allocate(problem),
        AllocatorKind::Greedy => greedy::allocate(problem),
        AllocatorKind::Exhaustive => exhaustive::allocate(problem),
    };
    let split_config = if options.splitting {
        SplitConfig::default()
    } else {
        SplitConfig { max_iterations: 0 }
    };
    let split_inputs = SplitInputs {
        evaluator: &evaluator,
        precision: design.precision,
        budget_bytes: budget.map_or(full_budget, |b| b.min(full_budget)),
        plan: &front.prefetch,
        streaming: options.weight_streaming,
        feature_graph: &front.feature_graph,
        weight_graph: &front.weight_graph,
    };
    let result = refine_from(&split_inputs, &artifacts.memo, &allocate, split_config);
    let alloc_split_seconds = t_pass.elapsed().as_secs_f64();
    check_opt(cancel)?;

    // --- Reporting ----------------------------------------------------
    let t_pass = Instant::now();
    let empty = Residency::new();
    let memory_bound = profile.memory_bound_layers(graph);
    let layers_benefiting = memory_bound
        .iter()
        .filter(|&&n| {
            evaluator.node_latency(n, &result.outcome.residency)
                < evaluator.node_latency(n, &empty) - 1e-15
        })
        .count();

    let buffer_sizes: Vec<u64> = result
        .buffers
        .iter()
        .zip(&result.outcome.chosen)
        .filter(|(_, &c)| c)
        .map(|(b, _)| b.bytes)
        .collect();
    let resources = resources::report(&design, &buffer_sizes);

    let ops = design.batch as u64 * 2 * graph.total_macs();
    let reporting_seconds = t_pass.elapsed().as_secs_f64();

    let mut stats = evaluator.take_stats();
    stats.alloc_split_seconds = alloc_split_seconds;
    stats.reporting_seconds = reporting_seconds;
    stats.total_seconds = t_total.elapsed().as_secs_f64();

    Ok(LcmmResult {
        design,
        latency: result.outcome.latency,
        ops,
        residency: result.outcome.residency,
        buffers: result.buffers,
        chosen: result.outcome.chosen,
        weight_modes: result.outcome.modes,
        prefetch: front.prefetch.clone(),
        split_iterations: result.iterations,
        resources,
        memory_bound_layers: memory_bound.len(),
        layers_benefiting,
        fusion: front.fusion.clone(),
        stats,
    })
}

/// Per-block latency of a graph under a residency (drives Fig. 8): the
/// sum of node latencies of the nodes labelled with `block`.
#[must_use]
pub fn block_latency(
    graph: &Graph,
    evaluator: &Evaluator<'_>,
    residency: &Residency,
    block: &str,
) -> f64 {
    graph
        .block_nodes(block)
        .into_iter()
        .map(|n| evaluator.node_latency(n, residency))
        .sum()
}

/// Per-block operation count (2 × MACs), for block throughput plots.
#[must_use]
pub fn block_ops(graph: &Graph, block: &str) -> u64 {
    graph
        .block_nodes(block)
        .into_iter()
        .map(|n| 2 * graph.node_macs(n))
        .sum()
}

/// Convenience: UMM baseline and full-LCMM result side by side.
#[must_use]
pub fn compare(graph: &Graph, device: &Device, precision: Precision) -> (UmmBaseline, LcmmResult) {
    let umm = UmmBaseline::build(graph, device, precision);
    let lcmm = crate::PlanRequest::new(graph, device, precision)
        .with_design(umm.design.clone())
        .run()
        .expect("uncancellable run cannot fail");
    (umm, lcmm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcmm_graph::zoo;

    #[test]
    fn lcmm_beats_umm_on_googlenet_16bit() {
        let g = zoo::googlenet();
        let (umm, lcmm) = compare(&g, &Device::vu9p(), Precision::Fix16);
        let speedup = lcmm.speedup_over(umm.latency);
        assert!(speedup > 1.05, "speedup only {speedup}");
        assert!(speedup < 2.5, "speedup implausibly high: {speedup}");
    }

    #[test]
    fn ablations_bracket_full_lcmm() {
        let g = zoo::googlenet();
        let device = Device::vu9p();
        let umm = UmmBaseline::build(&g, &device, Precision::Fix16);
        let variant = |options: LcmmOptions| {
            crate::PlanRequest::new(&g, &device, Precision::Fix16)
                .options(options)
                .with_design(umm.design.clone())
                .run()
                .expect("explored design is feasible")
        };
        let full = variant(LcmmOptions::default());
        let features_only = variant(LcmmOptions::feature_reuse_only());
        let weights_only = variant(LcmmOptions::weight_prefetch_only());
        assert!(full.latency <= features_only.latency + 1e-12);
        assert!(full.latency <= weights_only.latency + 1e-12);
    }

    #[test]
    fn pol_is_a_fraction_and_nonzero() {
        let g = zoo::googlenet();
        let (_, lcmm) = compare(&g, &Device::vu9p(), Precision::Fix16);
        let pol = lcmm.pol();
        assert!((0.0..=1.0).contains(&pol));
        assert!(pol > 0.3, "POL suspiciously low: {pol}");
    }

    #[test]
    fn sram_utilization_rises_with_lcmm() {
        let g = zoo::googlenet();
        let (umm, lcmm) = compare(&g, &Device::vu9p(), Precision::Fix16);
        let umm_sram = umm.resources.sram_util(&umm.design.device);
        let lcmm_sram = lcmm.resources.sram_util(&lcmm.design.device);
        assert!(lcmm_sram > umm_sram, "{lcmm_sram} <= {umm_sram}");
    }

    #[test]
    fn allocated_buffers_fit_budget() {
        let g = zoo::googlenet();
        let (_, lcmm) = compare(&g, &Device::vu9p(), Precision::Fix16);
        let total: u64 = lcmm.allocated_buffer_sizes().iter().sum();
        assert!(total <= lcmm.design.tensor_sram_budget());
    }

    #[test]
    fn block_latency_sums_to_labelled_nodes() {
        let g = zoo::googlenet();
        let umm = UmmBaseline::build(&g, &Device::vu9p(), Precision::Fix16);
        let ev = Evaluator::new(&g, &umm.profile);
        let r = Residency::new();
        let total_blocks: f64 = g
            .blocks()
            .iter()
            .map(|b| block_latency(&g, &ev, &r, b))
            .sum();
        // Some nodes (pools between stages) are unlabelled, so the block
        // sum is at most the total.
        assert!(total_blocks <= ev.total_latency(&r) + 1e-12);
        assert!(total_blocks > 0.0);
    }

    #[test]
    fn degenerate_budgets_plan_cleanly_across_allocators_and_modes() {
        // Satellite sweep: zero and near-zero pools, budgets below one
        // capacity unit, below the largest tensor, and far above the
        // design budget (exercising the clamp) must all produce a
        // feasible plan — no panics, no divide-by-zero, no over-budget
        // residency — for every allocator × streaming mode.
        let g = zoo::synthetic(16, 2, 1);
        let device = Device::vu9p();
        const UNIT: u64 = 36 * 1024;
        for allocator in [
            AllocatorKind::Dnnk,
            AllocatorKind::DnnkIterative,
            AllocatorKind::Greedy,
            AllocatorKind::Exhaustive,
        ] {
            for streaming in [
                StreamingMode::Off,
                StreamingMode::Pinned,
                StreamingMode::Auto,
            ] {
                for budget in [0, 1, UNIT - 1, UNIT, 100 * 1024, u64::MAX] {
                    let result = crate::request::PlanRequest::new(&g, &device, Precision::Fix16)
                        .options(
                            LcmmOptions::default()
                                .with_allocator(allocator)
                                .with_weight_streaming(streaming)
                                .with_tensor_budget(Some(budget)),
                        )
                        .run()
                        .unwrap_or_else(|e| panic!("{allocator:?}/{streaming:?}/{budget}: {e}"));
                    let occupied: u64 = result.occupied_buffer_sizes().iter().sum();
                    let effective = budget.min(result.design.tensor_sram_budget());
                    assert!(
                        occupied <= effective,
                        "{allocator:?}/{streaming:?}: occupied {occupied} B over budget {effective} B"
                    );
                    assert!(
                        result.latency.is_finite() && result.latency > 0.0,
                        "{allocator:?}/{streaming:?}/{budget}: latency {}",
                        result.latency
                    );
                    if budget == 0 {
                        assert!(
                            result.residency.iter().next().is_none(),
                            "{allocator:?}/{streaming:?}: residency must be empty at zero budget"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn greedy_allocator_option_works() {
        let g = zoo::alexnet();
        let opts = LcmmOptions::default().with_allocator(AllocatorKind::Greedy);
        let device = Device::vu9p();
        let lcmm = crate::request::PlanRequest::new(&g, &device, Precision::Fix16)
            .options(opts)
            .run()
            .expect("alexnet fits the VU9P budget");
        assert!(lcmm.latency > 0.0);
    }
}
