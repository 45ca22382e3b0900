//! The evaluation harness: parallel, memoized, instrumented runs of the
//! zoo × precision × allocator × ablation grid.
//!
//! The CLI report commands all walk the same grid and recompute the
//! same expensive shared artefacts — explored [`AccelDesign`]s,
//! [`GraphProfile`]s, UMM baselines, LCMM results. The harness gives
//! them three things:
//!
//! 1. **Memoization** — every artefact is cached behind a concurrent
//!    map keyed by a deterministic JSON fingerprint of its inputs (for
//!    the graph, its memoized [`Graph::fingerprint`]), so e.g. the
//!    three Fig. 8 ablation variants share one profile of the common
//!    derated design.
//! 2. **Parallelism** — [`Harness::par_map`] fans a work list out over
//!    `jobs` OS threads while preserving input order, so report output
//!    is byte-identical between `--jobs 1` and any parallel run (the
//!    cached artefacts themselves are deterministic values; only *who*
//!    computes them varies).
//! 3. **Instrumentation** — each memoized result keeps its run's
//!    [`PassStats`] under a human-readable label, and cache hit/miss
//!    counters are tracked per artefact kind ([`Harness::profile_report`]).
//!
//! Thread fan-out uses `std::thread::scope`; the crate deliberately has
//! no external runtime dependency (the build environment is offline).

use crate::cancel::CancelToken;
use crate::delta::PlanArtifacts;
use crate::error::LcmmError;
use crate::pipeline::{LcmmOptions, LcmmResult, Pipeline};
use crate::profiling::PassStats;
use crate::umm::UmmBaseline;
use lcmm_fpga::{AccelDesign, Device, GraphProfile, Precision};
use lcmm_graph::Graph;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A concurrent memo table: one `OnceLock` per key so a value is
/// computed exactly once even when several workers request it at the
/// same moment (late arrivals block on the in-flight computation
/// instead of redoing it).
struct Cache<T> {
    map: Mutex<HashMap<String, Arc<OnceLock<Arc<T>>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<T> Cache<T> {
    fn new() -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    fn get_or_compute(&self, key: String, compute: impl FnOnce() -> T) -> Arc<T> {
        let cell = {
            let mut map = self.map.lock().expect("cache lock poisoned");
            map.entry(key)
                .or_insert_with(|| Arc::new(OnceLock::new()))
                .clone()
        };
        let mut computed = false;
        let value = cell
            .get_or_init(|| {
                computed = true;
                Arc::new(compute())
            })
            .clone();
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Fallible variant: a hit returns the cached value; a miss runs
    /// `compute` and stores the value **only on success**, so errors
    /// (cancellation, timeout) are never cached and a retry recomputes.
    /// Concurrent misses may compute twice; artefacts are deterministic
    /// values, so both threads still observe one shared `Arc`.
    fn try_get_or_compute<E>(
        &self,
        key: String,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        let cell = {
            let mut map = self.map.lock().expect("cache lock poisoned");
            map.entry(key)
                .or_insert_with(|| Arc::new(OnceLock::new()))
                .clone()
        };
        if let Some(value) = cell.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(value.clone());
        }
        let value = Arc::new(compute()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        match cell.set(value.clone()) {
            Ok(()) => Ok(value),
            Err(_) => Ok(cell.get().expect("cell observed as set").clone()),
        }
    }

    /// Every stored value, in key order.
    fn values(&self) -> Vec<Arc<T>> {
        let map = self.map.lock().expect("cache lock poisoned");
        let mut entries: Vec<_> = map.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
            .into_iter()
            .filter_map(|(_, cell)| cell.get().cloned())
            .collect()
    }

    /// Drops every entry whose key starts with `prefix`, returning how
    /// many were removed. Every harness key starts with the graph's
    /// fingerprint followed by `\u{1}`, so a graph-fingerprint prefix
    /// evicts exactly that graph's artefacts.
    fn remove_prefix(&self, prefix: &str) -> usize {
        let mut map = self.map.lock().expect("cache lock poisoned");
        let before = map.len();
        map.retain(|key, _| !key.starts_with(prefix));
        before - map.len()
    }

    fn counts(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Hit/miss counters of every artefact cache, for `--profile`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct CacheStats {
    /// Explored-design cache hits.
    pub design_hits: usize,
    /// Explored-design cache misses (designs actually explored).
    pub design_misses: usize,
    /// Profile cache hits.
    pub profile_hits: usize,
    /// Profile cache misses (latency tables actually built).
    pub profile_misses: usize,
    /// UMM-baseline cache hits.
    pub baseline_hits: usize,
    /// UMM-baseline cache misses.
    pub baseline_misses: usize,
    /// LCMM-result cache hits.
    pub result_hits: usize,
    /// LCMM-result cache misses (pipelines actually run).
    pub result_misses: usize,
    /// Delta-plan artifact cache hits (budget-only replans that reused
    /// passes 1–2).
    pub artifact_hits: usize,
    /// Delta-plan artifact cache misses (front ends actually built).
    pub artifact_misses: usize,
}

/// One recorded pipeline run for the `--profile` report.
#[derive(Debug, Clone, Serialize)]
pub struct RunRecord {
    /// `model|precision|options` label of the run.
    pub label: String,
    /// Its per-pass timings and counters.
    pub stats: PassStats,
}

/// The machine-readable `--profile` report.
#[derive(Debug, Clone, Serialize)]
pub struct HarnessProfile {
    /// Worker-thread count the harness was created with.
    pub jobs: usize,
    /// Artefact-cache hit/miss counters.
    pub cache: CacheStats,
    /// The run behind every memoized LCMM result, sorted by label for
    /// stable output.
    pub runs: Vec<RunRecord>,
}

/// A memoized LCMM result with the label of the run that computed it.
/// Keeping the label beside the result makes the `--profile` run log a
/// view of the result cache, so evicting a result drops its record.
struct MemoRun {
    label: String,
    result: Arc<LcmmResult>,
}

/// The parallel, memoized evaluation harness.
pub struct Harness {
    jobs: usize,
    designs: Cache<AccelDesign>,
    profiles: Cache<GraphProfile>,
    baselines: Cache<UmmBaseline>,
    results: Cache<MemoRun>,
    artifacts: Cache<PlanArtifacts>,
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("jobs", &self.jobs)
            .finish_non_exhaustive()
    }
}

/// Deterministic JSON fingerprint of a cache-key part. The vendored
/// serializer emits maps and sets in sorted order, so equal values
/// always fingerprint identically. Graphs use their memoized
/// [`Graph::fingerprint`] instead, which is the same bytes.
fn fp<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| format!("<unserializable:{e}>"))
}

/// Short human label for one pipeline run.
fn run_label(graph: &Graph, design: &AccelDesign, options: &LcmmOptions) -> String {
    format!(
        "{}|{}|fr={} wp={} sp={} alloc={:?}",
        graph.name(),
        design.precision.label(),
        options.feature_reuse,
        options.weight_prefetch,
        options.splitting,
        options.allocator,
    )
}

impl Harness {
    /// Creates a harness that fans work out over `jobs` threads
    /// (clamped to at least 1).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            designs: Cache::new(),
            profiles: Cache::new(),
            baselines: Cache::new(),
            results: Cache::new(),
            artifacts: Cache::new(),
        }
    }

    /// The worker-thread count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items` using up to `jobs` worker threads,
    /// returning results in input order. With `jobs == 1` this is a
    /// plain serial map — the parallel path produces the same vector
    /// because workers write into per-index slots.
    pub fn par_map<T: Sync, U: Send>(&self, items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            return items.iter().map(&f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let out = f(&items[i]);
                    *slots[i].lock().expect("slot lock poisoned") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock poisoned")
                    .expect("worker filled every claimed slot")
            })
            .collect()
    }

    /// The explored (UMM) design for a graph/device/precision triple,
    /// memoized.
    pub fn design(&self, graph: &Graph, device: &Device, precision: Precision) -> Arc<AccelDesign> {
        self.try_design(graph, device, precision)
            .expect("device DSP budget admits no systolic array")
    }

    /// Fallible variant of [`Harness::design`]: an infeasible DSP
    /// budget is [`LcmmError::BudgetInfeasible`] instead of a panic.
    /// Failures are not cached, so a later feasible request with the
    /// same graph recomputes.
    pub fn try_design(
        &self,
        graph: &Graph,
        device: &Device,
        precision: Precision,
    ) -> Result<Arc<AccelDesign>, LcmmError> {
        let key = format!(
            "{}\u{1}{}\u{1}{}",
            graph.fingerprint(),
            fp(device),
            fp(&precision)
        );
        self.designs.try_get_or_compute(key, || {
            AccelDesign::try_explore(graph, device, precision).map_err(LcmmError::BudgetInfeasible)
        })
    }

    /// The operation latency table of `design` on `graph`, memoized.
    pub fn profile(&self, graph: &Graph, design: &AccelDesign) -> Arc<GraphProfile> {
        let key = format!("{}\u{1}{}", graph.fingerprint(), fp(design));
        self.profiles.get_or_compute(key, || design.profile(graph))
    }

    /// The UMM baseline for a graph/device/precision triple, memoized
    /// (the explored design is shared through the design cache).
    pub fn baseline(
        &self,
        graph: &Graph,
        device: &Device,
        precision: Precision,
    ) -> Arc<UmmBaseline> {
        let design = self.design(graph, device, precision);
        self.baseline_from_design(graph, &design)
    }

    /// The UMM baseline of an explicit design (batch studies, granular
    /// DDR variants), memoized.
    pub fn baseline_from_design(&self, graph: &Graph, design: &AccelDesign) -> Arc<UmmBaseline> {
        let key = format!("{}\u{1}{}", graph.fingerprint(), fp(design));
        self.baselines
            .get_or_compute(key, || UmmBaseline::from_design(graph, design.clone()))
    }

    /// The LCMM result for a graph/device/precision triple under
    /// `options`, memoized end to end.
    pub fn lcmm(
        &self,
        graph: &Graph,
        device: &Device,
        precision: Precision,
        options: LcmmOptions,
    ) -> Arc<LcmmResult> {
        let design = self.design(graph, device, precision);
        self.lcmm_with_design(graph, &design, options)
    }

    /// Fallible, cancellable variant of [`Harness::lcmm`]: the whole
    /// chain (design exploration → profile → pipeline) reports errors
    /// instead of panicking, and `cancel` is polled at every pass
    /// boundary.
    pub fn try_lcmm(
        &self,
        graph: &Graph,
        device: &Device,
        precision: Precision,
        options: LcmmOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<LcmmResult>, LcmmError> {
        let design = self.try_design(graph, device, precision)?;
        self.try_lcmm_with_design(graph, &design, options, cancel)
    }

    /// The LCMM result starting from an explored design, memoized. The
    /// derated design's profile comes from the shared profile cache, so
    /// ablation variants of one design profile the graph only once.
    pub fn lcmm_with_design(
        &self,
        graph: &Graph,
        base: &AccelDesign,
        options: LcmmOptions,
    ) -> Arc<LcmmResult> {
        self.try_lcmm_with_design(graph, base, options, None)
            .expect("uncancellable run cannot fail")
    }

    /// Fallible, cancellable variant of [`Harness::lcmm_with_design`].
    /// Cancellations and timeouts are **not** cached — a retry of the
    /// same request recomputes from the shared design/profile caches.
    pub fn try_lcmm_with_design(
        &self,
        graph: &Graph,
        base: &AccelDesign,
        options: LcmmOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<LcmmResult>, LcmmError> {
        let design = Pipeline::new(options).lcmm_design(base.clone());
        let key = format!(
            "{}\u{1}{}\u{1}{}",
            graph.fingerprint(),
            fp(&design),
            fp(&options)
        );
        let run = self.results.try_get_or_compute::<LcmmError>(key, || {
            let result = self.try_plan_with_design(graph, base, options, cancel)?;
            Ok(MemoRun {
                label: run_label(graph, &design, &options),
                result: Arc::new(result),
            })
        })?;
        Ok(Arc::clone(&run.result))
    }

    /// [`Harness::try_lcmm_with_design`] without its result memo: the
    /// derated design's profile still comes from the shared profile
    /// cache, but the result is neither stored nor counted in
    /// `result_*`, so it does not appear in the `--profile` report. The
    /// serve daemon's plan path runs this, because its own bounded plan
    /// LRU is the result cache there and a harness copy of every
    /// computed plan would grow without bound.
    pub fn try_plan_with_design(
        &self,
        graph: &Graph,
        base: &AccelDesign,
        options: LcmmOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<LcmmResult, LcmmError> {
        let pipeline = Pipeline::new(options);
        let design = pipeline.lcmm_design(base.clone());
        let profile = self.profile(graph, &design);
        pipeline.run_with_profile_checked(graph, design, &profile, cancel)
    }

    /// Budget-invariant delta-plan artifacts (passes 1–2 + gain-curve
    /// memo) for `graph` on the derated form of `base` under `options`,
    /// memoized. The key normalises `options.tensor_budget` to `None`,
    /// so every budget variant of a request shares one artifact set —
    /// the cache key is effectively `(graph digest, design point,
    /// precision, allocator, pass toggles)`.
    pub fn try_artifacts(
        &self,
        graph: &Graph,
        base: &AccelDesign,
        options: LcmmOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<PlanArtifacts>, LcmmError> {
        let options = options.with_tensor_budget(None);
        let design = Pipeline::new(options).lcmm_design(base.clone());
        let key = format!(
            "{}\u{1}{}\u{1}{}",
            graph.fingerprint(),
            fp(&design),
            fp(&options)
        );
        self.artifacts_keyed(key, graph, &design, options, cancel)
    }

    /// [`Harness::try_artifacts`] with a precomputed cache key, so
    /// callers that already fingerprinted the request (the replan hot
    /// path) do not serialise the design a second time.
    fn artifacts_keyed(
        &self,
        key: String,
        graph: &Graph,
        design: &AccelDesign,
        options: LcmmOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<PlanArtifacts>, LcmmError> {
        self.artifacts.try_get_or_compute(key, || {
            let profile = self.profile(graph, design);
            PlanArtifacts::from_parts(graph, design.clone(), profile, options, cancel)
        })
    }

    /// Budget-only replan through the artifact cache: bit-identical to
    /// [`Harness::try_lcmm_with_design`] with
    /// `options.with_tensor_budget(budget)`, and cached under the
    /// **same** result key, so the two entry points interoperate — a
    /// replan can hit a result a scratch run cached and vice versa.
    pub fn try_replan_with_budget(
        &self,
        graph: &Graph,
        base: &AccelDesign,
        options: LcmmOptions,
        budget: Option<u64>,
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<LcmmResult>, LcmmError> {
        let options = options.with_tensor_budget(budget);
        let normalised = options.with_tensor_budget(None);
        // The derated design is budget-independent, so one derate (and
        // one design fingerprint) serves both the result key and the
        // artifact key; the graph's fingerprint is memoized on the graph.
        let design = Pipeline::new(options).lcmm_design(base.clone());
        let graph_fp = graph.fingerprint();
        let design_fp = fp(&design);
        let key = format!("{graph_fp}\u{1}{design_fp}\u{1}{}", fp(&options));
        let artifact_key = format!("{graph_fp}\u{1}{design_fp}\u{1}{}", fp(&normalised));
        let run = self.results.try_get_or_compute::<LcmmError>(key, || {
            let artifacts =
                self.artifacts_keyed(artifact_key, graph, &design, normalised, cancel)?;
            let result = artifacts.replan_with_budget(graph, budget, cancel)?;
            Ok(MemoRun {
                label: run_label(graph, &design, &options),
                result: Arc::new(result),
            })
        })?;
        Ok(Arc::clone(&run.result))
    }

    /// Evicts every cached artefact derived from `graph` — designs,
    /// profiles, baselines, results (and with them their `--profile`
    /// run records), and delta-plan artifacts — returning how many
    /// entries were dropped. The serve daemon calls this when a
    /// registered model's graph *content* changes, so a re-registered
    /// digest never serves stale artifacts.
    pub fn invalidate_graph(&self, graph: &Graph) -> usize {
        let prefix = format!("{}\u{1}", graph.fingerprint());
        self.designs.remove_prefix(&prefix)
            + self.profiles.remove_prefix(&prefix)
            + self.baselines.remove_prefix(&prefix)
            + self.results.remove_prefix(&prefix)
            + self.artifacts.remove_prefix(&prefix)
    }

    /// UMM baseline and full-LCMM result side by side (the memoized
    /// equivalent of [`crate::pipeline::compare`]).
    pub fn compare(
        &self,
        graph: &Graph,
        device: &Device,
        precision: Precision,
    ) -> (Arc<UmmBaseline>, Arc<LcmmResult>) {
        let umm = self.baseline(graph, device, precision);
        let lcmm = self.lcmm_with_design(graph, &umm.design, LcmmOptions::default());
        (umm, lcmm)
    }

    /// Cache hit/miss counters so far.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let (design_hits, design_misses) = self.designs.counts();
        let (profile_hits, profile_misses) = self.profiles.counts();
        let (baseline_hits, baseline_misses) = self.baselines.counts();
        let (result_hits, result_misses) = self.results.counts();
        let (artifact_hits, artifact_misses) = self.artifacts.counts();
        CacheStats {
            design_hits,
            design_misses,
            profile_hits,
            profile_misses,
            baseline_hits,
            baseline_misses,
            result_hits,
            result_misses,
            artifact_hits,
            artifact_misses,
        }
    }

    /// The full `--profile` report: cache counters plus the run behind
    /// every memoized result, sorted by label (ties in key order) for
    /// stable output.
    #[must_use]
    pub fn profile_report(&self) -> HarnessProfile {
        let mut runs: Vec<RunRecord> = self
            .results
            .values()
            .iter()
            .map(|run| RunRecord {
                label: run.label.clone(),
                stats: run.result.stats,
            })
            .collect();
        runs.sort_by(|a, b| a.label.cmp(&b.label));
        HarnessProfile {
            jobs: self.jobs,
            cache: self.cache_stats(),
            runs,
        }
    }
}

// par_map shares the harness across worker threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Harness>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use lcmm_graph::zoo;

    fn small_graph() -> Graph {
        zoo::alexnet()
    }

    #[test]
    fn memoizes_designs_and_profiles() {
        let h = Harness::new(1);
        let g = small_graph();
        let device = Device::vu9p();
        let d1 = h.design(&g, &device, Precision::Fix16);
        let d2 = h.design(&g, &device, Precision::Fix16);
        assert!(Arc::ptr_eq(&d1, &d2), "same key must share one artefact");
        let stats = h.cache_stats();
        assert_eq!(stats.design_misses, 1);
        assert_eq!(stats.design_hits, 1);
    }

    #[test]
    fn ablation_variants_share_one_profile() {
        let h = Harness::new(1);
        let g = small_graph();
        let device = Device::vu9p();
        let base = h.design(&g, &device, Precision::Fix16);
        // All three default-clock variants derate to the same design.
        for options in [
            LcmmOptions::default(),
            LcmmOptions::feature_reuse_only(),
            LcmmOptions::weight_prefetch_only(),
        ] {
            let _ = h.lcmm_with_design(&g, &base, options);
        }
        let stats = h.cache_stats();
        assert_eq!(stats.profile_misses, 1, "one shared derated profile");
        assert_eq!(stats.result_misses, 3, "three distinct option sets");
        assert_eq!(h.profile_report().runs.len(), 3);
    }

    #[test]
    fn harness_result_matches_direct_pipeline() {
        let h = Harness::new(1);
        let g = small_graph();
        let device = Device::vu9p();
        let direct = crate::PlanRequest::new(&g, &device, Precision::Fix16)
            .run()
            .expect("feasible");
        let via = h.lcmm(&g, &device, Precision::Fix16, LcmmOptions::default());
        assert_eq!(via.latency, direct.latency);
        assert_eq!(via.residency, direct.residency);
        assert_eq!(via.chosen, direct.chosen);
    }

    #[test]
    fn unmemoized_plan_matches_memoized_and_leaves_no_trace() {
        let h = Harness::new(1);
        let g = small_graph();
        let base = h.design(&g, &Device::vu9p(), Precision::Fix16);
        let options = LcmmOptions::default()
            .with_tensor_budget(Some(base.tensor_sram_budget() / 2))
            .with_weight_streaming(crate::StreamingMode::Auto);
        let memoized = h
            .try_lcmm_with_design(&g, &base, options, None)
            .expect("feasible");
        let before = h.cache_stats();
        let runs_before = h.profile_report().runs.len();
        let plain = h
            .try_plan_with_design(&g, &base, options, None)
            .expect("feasible");
        assert_eq!(plain.latency.to_bits(), memoized.latency.to_bits());
        assert_eq!(plain.residency, memoized.residency);
        assert_eq!(plain.chosen, memoized.chosen);
        assert_eq!(plain.weight_modes, memoized.weight_modes);
        let after = h.cache_stats();
        assert_eq!(after.result_hits, before.result_hits);
        assert_eq!(after.result_misses, before.result_misses);
        assert_eq!(h.profile_report().runs.len(), runs_before);
        assert_eq!(
            after.profile_hits,
            before.profile_hits + 1,
            "shared profile"
        );
    }

    #[test]
    fn cancelled_runs_are_not_cached() {
        let h = Harness::new(1);
        let g = small_graph();
        let device = Device::vu9p();
        let token = CancelToken::new();
        token.cancel();
        let err = h
            .try_lcmm(
                &g,
                &device,
                Precision::Fix16,
                LcmmOptions::default(),
                Some(&token),
            )
            .unwrap_err();
        assert_eq!(err, LcmmError::Cancelled);
        // The failure must not poison the result cache: a retry without
        // the token recomputes (a miss, not a bogus hit).
        let before = h.cache_stats();
        assert_eq!(before.result_misses, 0);
        h.try_lcmm(&g, &device, Precision::Fix16, LcmmOptions::default(), None)
            .expect("retry succeeds");
        let after = h.cache_stats();
        assert_eq!(after.result_misses, 1);
    }

    #[test]
    fn infeasible_design_is_an_error_not_a_panic() {
        let h = Harness::new(1);
        let g = small_graph();
        let mut device = Device::vu9p();
        device.dsp_slices = 1;
        let err = h.try_design(&g, &device, Precision::Fix16).unwrap_err();
        assert!(matches!(err, LcmmError::BudgetInfeasible(_)));
    }

    #[test]
    fn par_map_preserves_order_and_values() {
        for jobs in [1, 2, 5] {
            let h = Harness::new(jobs);
            let items: Vec<u64> = (0..23).collect();
            let out = h.par_map(&items, |&x| x * x);
            let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_and_serial_compares_agree() {
        let g = small_graph();
        let device = Device::vu9p();
        let grid: Vec<Precision> = Precision::ALL.to_vec();

        let serial = Harness::new(1);
        let s: Vec<(f64, f64)> = serial.par_map(&grid, |&p| {
            let (umm, lcmm) = serial.compare(&g, &device, p);
            (umm.latency, lcmm.latency)
        });
        let parallel = Harness::new(4);
        let r: Vec<(f64, f64)> = parallel.par_map(&grid, |&p| {
            let (umm, lcmm) = parallel.compare(&g, &device, p);
            (umm.latency, lcmm.latency)
        });
        assert_eq!(s, r);
    }

    #[test]
    fn replans_share_one_artifact_set() {
        let h = Harness::new(1);
        let g = small_graph();
        let base = h.design(&g, &Device::vu9p(), Precision::Fix16);
        let full = base.tensor_sram_budget();
        for budget in [None, Some(full / 2), Some(full / 4)] {
            h.try_replan_with_budget(&g, &base, LcmmOptions::default(), budget, None)
                .expect("replan succeeds");
        }
        let stats = h.cache_stats();
        assert_eq!(stats.artifact_misses, 1, "one front end for all budgets");
        assert_eq!(stats.artifact_hits, 2);
        assert_eq!(stats.result_misses, 3, "three distinct budgets");
    }

    #[test]
    fn replan_and_scratch_share_the_result_cache() {
        let h = Harness::new(1);
        let g = small_graph();
        let base = h.design(&g, &Device::vu9p(), Precision::Fix16);
        let full = base.tensor_sram_budget();
        let opts = LcmmOptions::default();
        let scratch = h
            .try_lcmm_with_design(&g, &base, opts.with_tensor_budget(Some(full / 2)), None)
            .unwrap();
        let replay = h
            .try_replan_with_budget(&g, &base, opts, Some(full / 2), None)
            .unwrap();
        assert!(
            Arc::ptr_eq(&scratch, &replay),
            "same key, same cached result"
        );
        let stats = h.cache_stats();
        assert_eq!(stats.result_misses, 1);
        assert_eq!(stats.result_hits, 1);
        assert_eq!(stats.artifact_misses, 0, "replay hit the result cache");
    }

    #[test]
    fn invalidate_graph_forces_recompute_with_identical_results() {
        let h = Harness::new(1);
        let g = small_graph();
        let base = h.design(&g, &Device::vu9p(), Precision::Fix16);
        let before = h
            .try_replan_with_budget(&g, &base, LcmmOptions::default(), None, None)
            .unwrap();
        let dropped = h.invalidate_graph(&g);
        assert!(dropped >= 3, "design + profile + result + artifacts");
        let after = h
            .try_replan_with_budget(&g, &base, LcmmOptions::default(), None, None)
            .unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "entry was really evicted");
        assert_eq!(before.latency.to_bits(), after.latency.to_bits());
        assert_eq!(before.chosen, after.chosen);
        // Unrelated graphs are untouched.
        let other = zoo::squeezenet();
        h.try_replan_with_budget(
            &other,
            &h.design(&other, &Device::vu9p(), Precision::Fix16),
            LcmmOptions::default(),
            None,
            None,
        )
        .unwrap();
        let misses = h.cache_stats().artifact_misses;
        h.invalidate_graph(&g);
        h.try_replan_with_budget(
            &other,
            &h.design(&other, &Device::vu9p(), Precision::Fix16),
            LcmmOptions::default(),
            Some(1 << 20),
            None,
        )
        .unwrap();
        assert_eq!(
            h.cache_stats().artifact_misses,
            misses,
            "other graph's artifacts survived the invalidation"
        );
    }

    #[test]
    fn invalidate_graph_drops_that_graphs_run_records() {
        let h = Harness::new(1);
        let g = small_graph();
        let other = zoo::squeezenet();
        let device = Device::vu9p();
        let other_base = h.design(&other, &device, Precision::Fix16);
        h.try_replan_with_budget(&other, &other_base, LcmmOptions::default(), None, None)
            .unwrap();
        let labels = |h: &Harness| -> Vec<String> {
            h.profile_report()
                .runs
                .into_iter()
                .map(|r| r.label)
                .collect()
        };
        let before = labels(&h);
        assert_eq!(before.len(), 1);
        for _ in 0..3 {
            let base = h.design(&g, &device, Precision::Fix16);
            let full = base.tensor_sram_budget();
            for budget in [None, Some(full / 2), Some(full / 4)] {
                h.try_replan_with_budget(&g, &base, LcmmOptions::default(), budget, None)
                    .unwrap();
            }
            h.lcmm_with_design(&g, &base, LcmmOptions::feature_reuse_only());
            assert_eq!(h.profile_report().runs.len(), 5);
            h.invalidate_graph(&g);
            assert_eq!(labels(&h), before, "only the other graph's run is left");
        }
    }

    #[test]
    fn round_tripped_graph_hits_the_same_entries() {
        let h = Harness::new(1);
        let g = small_graph();
        let copy: Graph =
            serde_json::from_str(&serde_json::to_string(&g).unwrap()).expect("round trips");
        let device = Device::vu9p();
        let d1 = h.design(&g, &device, Precision::Fix16);
        let d2 = h.design(&copy, &device, Precision::Fix16);
        assert!(Arc::ptr_eq(&d1, &d2));
        assert!(Arc::ptr_eq(&h.profile(&g, &d1), &h.profile(&copy, &d2)));
        let stats = h.cache_stats();
        assert_eq!((stats.design_misses, stats.profile_misses), (1, 1));
    }

    #[test]
    fn keys_are_the_serialized_inputs() {
        // Keys are the compact JSON of every input, graph included, so
        // the memoized graph fingerprint must leave them unchanged.
        fn keys<T>(cache: &Cache<T>) -> Vec<String> {
            cache.map.lock().unwrap().keys().cloned().collect()
        }
        let h = Harness::new(1);
        let g = small_graph();
        let device = Device::vu9p();
        let options = LcmmOptions::default();
        let base = h.design(&g, &device, Precision::Fix16);
        h.lcmm_with_design(&g, &base, options);
        let graph = serde_json::to_string(&g).unwrap();
        let design = Pipeline::new(options).lcmm_design((*base).clone());
        assert_eq!(
            keys(&h.designs),
            [format!(
                "{graph}\u{1}{}\u{1}{}",
                serde_json::to_string(&device).unwrap(),
                serde_json::to_string(&Precision::Fix16).unwrap()
            )]
        );
        assert_eq!(
            keys(&h.results),
            [format!(
                "{graph}\u{1}{}\u{1}{}",
                serde_json::to_string(&design).unwrap(),
                serde_json::to_string(&options).unwrap()
            )]
        );
    }

    #[test]
    fn pass_stats_are_populated() {
        let h = Harness::new(1);
        let g = small_graph();
        let lcmm = h.lcmm(
            &g,
            &Device::vu9p(),
            Precision::Fix16,
            LcmmOptions::default(),
        );
        let s = lcmm.stats;
        assert!(s.total_seconds > 0.0);
        assert!(s.evaluator_calls > 0, "evaluator must be consulted");
        assert!(s.allocator_invocations > 0, "allocator must run");
        assert!(s.dnnk_dp_cells > 0, "DNNK DP must visit cells");
        let report = h.profile_report();
        assert_eq!(report.runs.len(), 1);
        assert!(report.runs[0].label.starts_with("alexnet|"));
        // The report serializes (what --profile prints).
        let json = serde_json::to_string_pretty(&report).expect("serialises");
        assert!(json.contains("dnnk_dp_cells"));
    }
}
