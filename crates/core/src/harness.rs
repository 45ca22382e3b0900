//! The evaluation harness: parallel, memoized, instrumented runs of the
//! zoo × precision × allocator × ablation grid.
//!
//! The CLI report commands all walk the same grid and recompute the
//! same expensive shared artefacts — explored [`AccelDesign`]s,
//! [`GraphProfile`]s, UMM baselines, LCMM results. The harness gives
//! them three things:
//!
//! 1. **Memoization** — every artefact is cached behind a concurrent
//!    map keyed by its inputs: the graph part is the graph's memoized
//!    [`Graph::fingerprint_key`] (one shared copy of its JSON per graph,
//!    not one per entry), and the device, design and options parts are
//!    the values themselves, compared exactly ([`Exact`]), so a lookup
//!    serializes nothing and e.g. the three Fig. 8 ablation variants
//!    share one profile of the common derated design.
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
use crate::exact::Exact;
use crate::pipeline::{LcmmOptions, LcmmResult, Pipeline};
use crate::profiling::PassStats;
use crate::umm::UmmBaseline;
use lcmm_fpga::{AccelDesign, Device, GraphProfile, Precision};
use lcmm_graph::{Fingerprint, Graph};
use serde::Serialize;
use std::any::Any;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A cache key: the graph's shared fingerprint, then the other inputs
/// of the artefact (`K`). Every part holds its full value, so equal
/// keys mean equal inputs and no entry ever goes stale.
type Key<K> = (Fingerprint, K);

/// The key part past the graph of a design: the design compared
/// exactly.
type DesignKey = Exact<AccelDesign>;

/// The key part past the graph of a delta-plan artifact set: the
/// derated design and the options with `tensor_budget` set to `None`.
type ArtifactKey = (Exact<AccelDesign>, Exact<LcmmOptions>);

/// The key part past the graph of an LCMM result: the artifact key's
/// parts and the budget, carried apart from the options so that no
/// part is built per budget.
type RunKey = (Exact<AccelDesign>, Exact<LcmmOptions>, Option<u64>);

/// The key of `graph` planned on `design`.
fn design_key(graph: &Graph, design: &AccelDesign) -> Key<DesignKey> {
    (graph.fingerprint_key().clone(), Exact::new(design.clone()))
}

/// The key of `graph`'s artifact set on the derated `design` under
/// `options`, whatever their budget.
fn artifact_key(graph: &Graph, design: &AccelDesign, options: LcmmOptions) -> Key<ArtifactKey> {
    (
        graph.fingerprint_key().clone(),
        (
            Exact::new(design.clone()),
            Exact::new(options.with_tensor_budget(None)),
        ),
    )
}

/// The key of `graph`'s result on the derated `design` under `options`.
fn run_key(graph: &Graph, design: &AccelDesign, options: LcmmOptions) -> Key<RunKey> {
    let (graph, (design, normalised)) = artifact_key(graph, design, options);
    (graph, (design, normalised, options.tensor_budget))
}

/// One entry's value, set by the first computation that succeeds.
type Cell<T> = Arc<OnceLock<Arc<T>>>;

/// A concurrent memo table: one `OnceLock` per key so a value is
/// computed exactly once even when several workers request it at the
/// same moment (late arrivals block on the in-flight computation
/// instead of redoing it).
struct Cache<K, T> {
    map: Mutex<HashMap<Key<K>, Cell<T>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<K: Eq + Hash + Clone, T> Cache<K, T> {
    fn new() -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    fn get_or_compute(&self, key: Key<K>, compute: impl FnOnce() -> T) -> Arc<T> {
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
        key: Key<K>,
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

    /// Every stored value with its key, in no particular order.
    fn entries(&self) -> Vec<(Key<K>, Arc<T>)> {
        let map = self.map.lock().expect("cache lock poisoned");
        map.iter()
            .filter_map(|(key, cell)| Some((key.clone(), cell.get()?.clone())))
            .collect()
    }

    /// Drops every entry derived from the graph with fingerprint
    /// `graph`, returning how many were removed.
    fn remove_graph(&self, graph: &Fingerprint) -> usize {
        let mut map = self.map.lock().expect("cache lock poisoned");
        let before = map.len();
        map.retain(|(key_graph, _), _| key_graph != graph);
        before - map.len()
    }

    /// Entries stored, including cells whose computation failed.
    fn len(&self) -> usize {
        self.map.lock().expect("cache lock poisoned").len()
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
    /// Values derived from a memoized result that were read back from
    /// beside it ([`Harness::try_replan_with_derived`]).
    pub derived_hits: usize,
    /// Values derived from a memoized result that were computed.
    pub derived_misses: usize,
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
/// `derived` holds one value computed from the result alone (a co-plan
/// tenant's simulated load), filled by the first caller of
/// [`Harness::try_replan_with_derived`] and evicted with the result.
struct MemoRun {
    label: String,
    result: Arc<LcmmResult>,
    derived: OnceLock<Arc<dyn Any + Send + Sync>>,
}

impl MemoRun {
    fn new(label: String, result: LcmmResult) -> Self {
        Self {
            label,
            result: Arc::new(result),
            derived: OnceLock::new(),
        }
    }
}

/// The parallel, memoized evaluation harness.
pub struct Harness {
    jobs: usize,
    designs: Cache<(Exact<Device>, Precision), AccelDesign>,
    profiles: Cache<DesignKey, GraphProfile>,
    baselines: Cache<DesignKey, UmmBaseline>,
    results: Cache<RunKey, MemoRun>,
    artifacts: Cache<ArtifactKey, PlanArtifacts>,
    derived_hits: AtomicUsize,
    derived_misses: AtomicUsize,
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("jobs", &self.jobs)
            .finish_non_exhaustive()
    }
}

/// Compact JSON of a key part, for the report's order of runs.
fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("key parts serialise")
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
            derived_hits: AtomicUsize::new(0),
            derived_misses: AtomicUsize::new(0),
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
        let key = (
            graph.fingerprint_key().clone(),
            (Exact::new(device.clone()), precision),
        );
        self.designs.try_get_or_compute(key, || {
            AccelDesign::try_explore(graph, device, precision).map_err(LcmmError::BudgetInfeasible)
        })
    }

    /// The operation latency table of `design` on `graph`, memoized.
    pub fn profile(&self, graph: &Graph, design: &AccelDesign) -> Arc<GraphProfile> {
        self.profiles
            .get_or_compute(design_key(graph, design), || design.profile(graph))
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
        self.baselines
            .get_or_compute(design_key(graph, design), || {
                UmmBaseline::from_design(graph, design.clone())
            })
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
    /// A miss plans on a throwaway artifact set, like a
    /// [`crate::PlanRequest`], not through the artifact cache, so its
    /// counters are those of a from-scratch plan.
    pub fn try_lcmm_with_design(
        &self,
        graph: &Graph,
        base: &AccelDesign,
        options: LcmmOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<LcmmResult>, LcmmError> {
        let design = Pipeline::new(options).lcmm_design(base.clone());
        let key = run_key(graph, &design, options);
        let run = self.results.try_get_or_compute::<LcmmError>(key, || {
            let profile = self.profile(graph, &design);
            let result = PlanArtifacts::plan_once(graph, design.clone(), profile, options, cancel)?;
            Ok(MemoRun::new(run_label(graph, &design, &options), result))
        })?;
        Ok(Arc::clone(&run.result))
    }

    /// Budget-invariant delta-plan artifacts (passes 1–2 + gain-curve
    /// memo) for `graph` on the derated form of `base` under `options`,
    /// memoized. The key leaves `options.tensor_budget` out, so every
    /// budget variant of a request shares one artifact set — the cache
    /// key is effectively `(graph, design point, precision, allocator,
    /// pass toggles)`.
    pub fn try_artifacts(
        &self,
        graph: &Graph,
        base: &AccelDesign,
        options: LcmmOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<PlanArtifacts>, LcmmError> {
        let design = Pipeline::new(options).lcmm_design(base.clone());
        self.derated_artifacts(graph, &design, options, cancel)
    }

    /// [`Harness::try_artifacts`] on an already derated `design`.
    fn derated_artifacts(
        &self,
        graph: &Graph,
        design: &AccelDesign,
        options: LcmmOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<PlanArtifacts>, LcmmError> {
        let options = options.with_tensor_budget(None);
        let key = artifact_key(graph, design, options);
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
        let run = self.replan_run(graph, base, options, budget, cancel)?;
        Ok(Arc::clone(&run.result))
    }

    /// [`Harness::try_replan_with_budget`] plus a value derived from the
    /// result alone, memoized beside it: `derive` runs with the result
    /// and the unfused profile of its design (the table the result's
    /// artifact set was built on, read from the profile cache) the first
    /// time any caller asks for the result's derived value, and the
    /// value is evicted with the result by [`Harness::invalidate_graph`].
    /// Each result has one slot: a caller asking for a type other than
    /// the stored one derives its value on every call without storing it.
    pub fn try_replan_with_derived<D: Any + Send + Sync>(
        &self,
        graph: &Graph,
        base: &AccelDesign,
        options: LcmmOptions,
        budget: Option<u64>,
        cancel: Option<&CancelToken>,
        derive: impl FnOnce(&LcmmResult, &GraphProfile) -> D,
    ) -> Result<(Arc<LcmmResult>, Arc<D>), LcmmError> {
        let run = self.replan_run(graph, base, options, budget, cancel)?;
        let profile = || self.profile(graph, &run.result.design);
        let mut derive = Some(derive);
        let slot = run.derived.get_or_init(|| {
            let derive = derive.take().expect("the slot is filled once");
            Arc::new(derive(&run.result, &profile()))
        });
        let (value, derived_here) = match (Arc::clone(slot).downcast::<D>(), derive) {
            (Ok(value), unused) => (value, unused.is_none()),
            (Err(_), Some(derive)) => (Arc::new(derive(&run.result, &profile())), true),
            (Err(_), None) => unreachable!("the value just derived has type D"),
        };
        let counter = if derived_here {
            &self.derived_misses
        } else {
            &self.derived_hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok((Arc::clone(&run.result), value))
    }

    /// The memoized run behind [`Harness::try_replan_with_budget`].
    fn replan_run(
        &self,
        graph: &Graph,
        base: &AccelDesign,
        options: LcmmOptions,
        budget: Option<u64>,
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<MemoRun>, LcmmError> {
        let options = options.with_tensor_budget(budget);
        // The derated design is budget-independent, so one derate
        // serves the result key and, on a miss, the artifact key.
        let design = Pipeline::new(options).lcmm_design(base.clone());
        self.results
            .try_get_or_compute::<LcmmError>(run_key(graph, &design, options), || {
                let artifacts = self.derated_artifacts(graph, &design, options, cancel)?;
                let result = artifacts.replan_with_budget(graph, budget, cancel)?;
                Ok(MemoRun::new(run_label(graph, &design, &options), result))
            })
    }

    /// Evicts every cached artefact derived from `graph` — designs,
    /// profiles, baselines, results (and with them their `--profile`
    /// run records), and delta-plan artifacts — returning how many
    /// entries were dropped. Entries are keyed by graph content, so
    /// none ever goes stale; the serve daemon calls this to bound the
    /// state it keeps for graphs that left its registry.
    pub fn invalidate_graph(&self, graph: &Graph) -> usize {
        let fingerprint = graph.fingerprint_key();
        self.designs.remove_graph(fingerprint)
            + self.profiles.remove_graph(fingerprint)
            + self.baselines.remove_graph(fingerprint)
            + self.results.remove_graph(fingerprint)
            + self.artifacts.remove_graph(fingerprint)
    }

    /// How many entries the artefact caches hold, over every graph.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.designs.len()
            + self.profiles.len()
            + self.baselines.len()
            + self.results.len()
            + self.artifacts.len()
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
            derived_hits: self.derived_hits.load(Ordering::Relaxed),
            derived_misses: self.derived_misses.load(Ordering::Relaxed),
        }
    }

    /// The full `--profile` report: cache counters plus the run behind
    /// every memoized result, sorted by label for stable output. Runs
    /// with equal labels (budget variants of one plan) sort by the
    /// compact JSON of their inputs, graph first, then the design and
    /// the options with their budget: the order the report has always
    /// printed.
    #[must_use]
    pub fn profile_report(&self) -> HarnessProfile {
        let mut runs: Vec<_> = self
            .results
            .entries()
            .into_iter()
            .map(|((graph, (design, options, budget)), run)| {
                let inputs = format!(
                    "{}\u{1}{}",
                    json(design.get()),
                    json(&options.get().with_tensor_budget(budget))
                );
                (run.label.clone(), graph, inputs, run.result.stats)
            })
            .collect();
        runs.sort_by(|a, b| (&a.0, &a.1, &a.2).cmp(&(&b.0, &b.1, &b.2)));
        HarnessProfile {
            jobs: self.jobs,
            cache: self.cache_stats(),
            runs: runs
                .into_iter()
                .map(|(label, _, _, stats)| RunRecord { label, stats })
                .collect(),
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
    fn derived_values_are_kept_beside_their_result() {
        let h = Harness::new(1);
        let g = small_graph();
        let base = h.design(&g, &Device::vu9p(), Precision::Fix16);
        let opts = LcmmOptions::default();
        let budget = Some(base.tensor_sram_budget() / 2);
        let calls = AtomicUsize::new(0);
        let derive = |result: &LcmmResult, profile: &GraphProfile| {
            calls.fetch_add(1, Ordering::Relaxed);
            // The profile handed over is the table the design builds.
            assert_eq!(
                serde_json::to_string(profile).unwrap(),
                serde_json::to_string(&result.design.profile(&g)).unwrap()
            );
            result.latency.to_bits()
        };
        let (r1, v1) = h
            .try_replan_with_derived(&g, &base, opts, budget, None, derive)
            .unwrap();
        let (r2, v2) = h
            .try_replan_with_derived(&g, &base, opts, budget, None, derive)
            .unwrap();
        assert!(Arc::ptr_eq(&r1, &r2) && Arc::ptr_eq(&v1, &v2));
        assert_eq!(*v1, r1.latency.to_bits());
        assert_eq!(calls.load(Ordering::Relaxed), 1, "derived once");
        let stats = h.cache_stats();
        assert_eq!((stats.derived_misses, stats.derived_hits), (1, 1));
        // The slot holds one type: another is derived on every call.
        for _ in 0..2 {
            let (_, other) = h
                .try_replan_with_derived(&g, &base, opts, budget, None, |r, _| r.chosen.len())
                .unwrap();
            assert_eq!(*other, r1.chosen.len());
        }
        assert_eq!(h.cache_stats().derived_misses, 3);
        // A plain replan hits the result and leaves the slot alone.
        let plain = h
            .try_replan_with_budget(&g, &base, opts, budget, None)
            .unwrap();
        assert!(Arc::ptr_eq(&plain, &r1));
        let (_, again) = h
            .try_replan_with_derived(&g, &base, opts, budget, None, derive)
            .unwrap();
        assert!(Arc::ptr_eq(&again, &v1));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        // Evicting the graph evicts the derived value with its result.
        h.invalidate_graph(&g);
        let (r3, v3) = h
            .try_replan_with_derived(&g, &base, opts, budget, None, derive)
            .unwrap();
        assert!(!Arc::ptr_eq(&r3, &r1));
        assert_eq!(*v3, *v1);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "derived again");
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
    fn keys_hold_the_inputs() {
        // Keys hold every input, graph included: serialized, the parts
        // are the inputs' compact JSON, the options without their
        // budget, which the key carries apart. The graph part shares
        // the graph's memoized text instead of copying it.
        let h = Harness::new(1);
        let g = small_graph();
        let device = Device::vu9p();
        let options = LcmmOptions::default().with_tensor_budget(Some(1 << 20));
        let base = h.design(&g, &device, Precision::Fix16);
        h.lcmm_with_design(&g, &base, options);
        let design = Pipeline::new(options).lcmm_design((*base).clone());
        let designs: Vec<_> = h.designs.map.lock().unwrap().keys().cloned().collect();
        assert_eq!(designs.len(), 1);
        let (graph, (key_device, precision)) = &designs[0];
        assert_eq!(graph.as_str(), json(&g));
        assert_eq!(json(key_device.get()), json(&device));
        assert_eq!(*precision, Precision::Fix16);
        let results: Vec<_> = h.results.map.lock().unwrap().keys().cloned().collect();
        assert_eq!(results.len(), 1);
        let (graph, (key_design, key_options, budget)) = &results[0];
        assert!(std::ptr::eq(graph.as_str(), g.fingerprint()));
        assert_eq!(json(key_design.get()), json(&design));
        assert_eq!(
            json(key_options.get()),
            json(&options.with_tensor_budget(None))
        );
        assert_eq!(*budget, Some(1 << 20));
    }

    #[test]
    fn equal_inputs_built_separately_share_one_entry() {
        let h = Harness::new(1);
        let g = small_graph();
        let d1 = h.design(&g, &Device::vu9p(), Precision::Fix16);
        let d2 = h.design(&g, &Device::vu9p(), Precision::Fix16);
        assert!(Arc::ptr_eq(&d1, &d2));
        // Partition views built by two calls with equal shares.
        let part = |shares: &[f64]| Device::vu9p().partition_set(shares).unwrap().remove(0);
        let p1 = h.design(&g, &part(&[0.5, 0.5]), Precision::Fix16);
        let p2 = h.design(&g, &part(&[0.5, 0.5]), Precision::Fix16);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(
            (h.cache_stats().design_misses, h.cache_stats().design_hits),
            (2, 2)
        );
        // A design rebuilt field by field keys like the cached one.
        let copy: AccelDesign = serde_json::from_str(&json(&*d1)).unwrap();
        assert!(Arc::ptr_eq(
            &h.baseline_from_design(&g, &d1),
            &h.baseline_from_design(&g, &copy)
        ));
        assert!(Arc::ptr_eq(&h.profile(&g, &d1), &h.profile(&g, &copy)));
        let opts = LcmmOptions::default();
        let same = LcmmOptions::feature_reuse_only()
            .with_weight_prefetch(true)
            .with_splitting(true);
        let budget = Some(d1.tensor_sram_budget() / 2);
        let r1 = h
            .try_replan_with_budget(&g, &d1, opts, budget, None)
            .unwrap();
        let r2 = h
            .try_replan_with_budget(&g, &copy, same.with_tensor_budget(Some(7)), budget, None)
            .unwrap();
        assert!(Arc::ptr_eq(&r1, &r2));
        let a1 = h.try_artifacts(&g, &d1, opts, None).unwrap();
        let a2 = h
            .try_artifacts(&g, &copy, same.with_tensor_budget(budget), None)
            .unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        let stats = h.cache_stats();
        assert_eq!((stats.baseline_misses, stats.baseline_hits), (1, 1));
        assert_eq!((stats.result_misses, stats.result_hits), (1, 1));
        assert_eq!((stats.artifact_misses, stats.artifact_hits), (1, 2));
    }

    #[test]
    fn inputs_whose_json_differs_get_distinct_entries() {
        let h = Harness::new(1);
        let g = small_graph();
        let base = h.design(&g, &Device::vu9p(), Precision::Fix16);
        // Budgets: `None`, 0 and the largest plan alike (the largest is
        // clamped to the full budget) but are distinct inputs.
        let opts = LcmmOptions::default();
        for budget in [None, Some(0), Some(u64::MAX)] {
            h.try_replan_with_budget(&g, &base, opts, budget, None)
                .unwrap();
        }
        let stats = h.cache_stats();
        assert_eq!((stats.result_misses, stats.artifact_misses), (3, 1));
        // Options that differ in one field each.
        for options in [
            opts.with_weight_streaming(crate::StreamingMode::Auto),
            opts.with_fusion(crate::FusionMode::Auto),
        ] {
            h.try_replan_with_budget(&g, &base, options, None, None)
                .unwrap();
        }
        let stats = h.cache_stats();
        assert_eq!((stats.result_misses, stats.artifact_misses), (5, 3));
        // Clocks of opposite zero signs derate to designs whose JSON
        // differs, and key apart as options and as designs.
        let keys: Vec<_> = [Some(0.0), Some(-0.0)]
            .into_iter()
            .map(|hz| {
                let options = opts.with_frequency_hz(hz);
                run_key(
                    &g,
                    &Pipeline::new(options).lcmm_design((*base).clone()),
                    options,
                )
            })
            .collect();
        assert_ne!(keys[0], keys[1]);
        assert_ne!((keys[0].1).0, (keys[1].1).0, "designs differ");
        assert_ne!((keys[0].1).1, (keys[1].1).1, "options differ");
        // Designs that differ in one field each.
        let variants = [
            AccelDesign {
                batch: 2,
                ..(*base).clone()
            },
            AccelDesign {
                granular_ddr: true,
                ..(*base).clone()
            },
            (*base)
                .clone()
                .with_tile_budget(lcmm_fpga::TileBudget::default_lcmm()),
        ];
        for design in &variants {
            h.baseline_from_design(&g, design);
        }
        h.baseline_from_design(&g, &base);
        assert_eq!(h.cache_stats().baseline_misses, 4);
        // Partition views of two share vectors.
        for shares in [[0.5, 0.5], [0.25, 0.75]] {
            let part = Device::vu9p().partition_set(&shares).unwrap().remove(0);
            h.design(&g, &part, Precision::Fix16);
        }
        assert_eq!(h.cache_stats().design_misses, 3);
    }

    #[test]
    fn profile_report_orders_equal_labels_by_their_serialized_inputs() {
        let h = Harness::new(1);
        let g = small_graph();
        let base = h.design(&g, &Device::vu9p(), Precision::Fix16);
        let opts = LcmmOptions::default();
        // Decimal text orders these budgets apart from their values:
        // "10000000" < "2" < "9999999" < "null".
        let budgets = [Some(9_999_999), None, Some(2), Some(10_000_000), Some(0)];
        let stats: Vec<PassStats> = budgets
            .iter()
            .map(|&budget| {
                h.try_replan_with_budget(&g, &base, opts, budget, None)
                    .unwrap()
                    .stats
            })
            .collect();
        let mut order: Vec<usize> = (0..budgets.len()).collect();
        order.sort_by_key(|&i| json(&opts.with_tensor_budget(budgets[i])));
        let report = h.profile_report();
        let printed: Vec<PassStats> = report.runs.iter().map(|r| r.stats).collect();
        let expected: Vec<PassStats> = order.iter().map(|&i| stats[i]).collect();
        assert_eq!(printed, expected);
        assert_eq!(
            order.iter().map(|&i| budgets[i]).collect::<Vec<_>>(),
            [Some(0), Some(10_000_000), Some(2), Some(9_999_999), None]
        );
    }

    #[test]
    fn invalidate_graph_restores_every_table() {
        let h = Harness::new(1);
        let kept = zoo::squeezenet();
        let device = Device::vu9p();
        let kept_base = h.design(&kept, &device, Precision::Fix16);
        h.try_replan_with_budget(&kept, &kept_base, LcmmOptions::default(), None, None)
            .unwrap();
        let sizes = |h: &Harness| {
            [
                h.designs.len(),
                h.profiles.len(),
                h.baselines.len(),
                h.results.len(),
                h.artifacts.len(),
            ]
        };
        let before = (h.entry_count(), sizes(&h));
        let g = small_graph();
        let part = device.partition_set(&[0.5, 0.5]).unwrap().remove(0);
        for device in [&device, &part] {
            let base = h.design(&g, device, Precision::Fix16);
            h.baseline_from_design(&g, &base);
            h.try_artifacts(&g, &base, LcmmOptions::default(), None)
                .unwrap();
            for budget in [None, Some(1 << 20)] {
                h.try_replan_with_derived(
                    &g,
                    &base,
                    LcmmOptions::default(),
                    budget,
                    None,
                    |r, _| r.latency,
                )
                .unwrap();
            }
            h.lcmm_with_design(&g, &base, LcmmOptions::feature_reuse_only());
        }
        assert!(h.entry_count() > before.0);
        h.invalidate_graph(&g);
        assert_eq!((h.entry_count(), sizes(&h)), before);
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
