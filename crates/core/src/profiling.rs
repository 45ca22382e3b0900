//! Per-pass instrumentation of the LCMM pipeline.
//!
//! Every planning run produces a [`PassStats`]: wall-clock
//! timings of the four passes plus the algorithmic counters that tell
//! you *why* a run was slow (DP cells visited, gain-cache hit rate,
//! split iterations accepted vs rejected, evaluator calls).
//!
//! The counters live in thread-local cells rather than in a context
//! struct because the allocator boundary is a plain `fn` pointer
//! ([`crate::splitting::AllocatorFn`]) with no room to thread state
//! through — and because the parallel harness runs one pipeline per
//! worker thread, so thread-locals give each run its own counter set
//! for free.

use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// Timings and counters of one pipeline run.
///
/// Timings are wall-clock seconds and therefore vary run to run; the
/// counters are deterministic for a given graph/design/options triple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PassStats {
    /// Building the operation latency table (`AccelDesign::profile`).
    pub profile_seconds: f64,
    /// Pass 1: feature lifespans + interference graph construction.
    pub liveness_seconds: f64,
    /// Pass 2: weight prefetch planning + weight interference graph.
    pub prefetch_seconds: f64,
    /// Passes 3+4: the whole allocate/split refinement loop.
    pub alloc_split_seconds: f64,
    /// Graph-coloring time inside the refinement loop (subset of
    /// `alloc_split_seconds`).
    pub coloring_seconds: f64,
    /// Post-pass reporting: POL, resource report.
    pub reporting_seconds: f64,
    /// The whole run, profile included.
    pub total_seconds: f64,
    /// `Evaluator::total_latency` / `gain_of` invocations.
    pub evaluator_calls: u64,
    /// Allocator invocations by the refinement loop.
    pub allocator_invocations: u64,
    /// DNNK DP cells filled (buffers × capacity columns of every DP
    /// actually run; a backtrack from a stored table fills none).
    pub dnnk_dp_cells: u64,
    /// DNNK allocations answered by a backtrack from a stored choice
    /// table instead of a DP (delta replans only).
    pub dnnk_table_hits: u64,
    /// DNNK gain-cache hits.
    pub gain_cache_hits: u64,
    /// DNNK gain-cache misses (gains actually computed).
    pub gain_cache_misses: u64,
    /// Gains computed exactly because the buffer's relevant set exceeds
    /// the 62-bit cache-key capacity (the cache is skipped, never
    /// allowed to collide).
    pub gain_exact_recomputes: u64,
    /// Split iterations that improved latency and were kept.
    pub splits_accepted: u64,
    /// Split iterations that did not improve latency (tried, discarded).
    pub splits_rejected: u64,
}

/// The thread-local counter set the passes increment.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    pub evaluator_calls: u64,
    pub allocator_invocations: u64,
    pub dnnk_dp_cells: u64,
    pub dnnk_table_hits: u64,
    pub gain_cache_hits: u64,
    pub gain_cache_misses: u64,
    pub gain_exact_recomputes: u64,
    pub splits_accepted: u64,
    pub splits_rejected: u64,
    pub coloring_seconds: f64,
}

thread_local! {
    static COUNTERS: Cell<Counters> = const { Cell::new(Counters {
        evaluator_calls: 0,
        allocator_invocations: 0,
        dnnk_dp_cells: 0,
        dnnk_table_hits: 0,
        gain_cache_hits: 0,
        gain_cache_misses: 0,
        gain_exact_recomputes: 0,
        splits_accepted: 0,
        splits_rejected: 0,
        coloring_seconds: 0.0,
    }) };
}

fn bump(f: impl FnOnce(&mut Counters)) {
    COUNTERS.with(|c| {
        let mut v = c.get();
        f(&mut v);
        c.set(v);
    });
}

/// Zeroes this thread's counters (start of a pipeline run).
pub(crate) fn reset_counters() {
    COUNTERS.with(|c| c.set(Counters::default()));
}

/// Reads this thread's counters (end of a pipeline run).
pub(crate) fn snapshot_counters() -> Counters {
    COUNTERS.with(Cell::get)
}

pub(crate) fn count_evaluator_call() {
    bump(|c| c.evaluator_calls += 1);
}

pub(crate) fn count_allocator_invocation() {
    bump(|c| c.allocator_invocations += 1);
}

pub(crate) fn add_dnnk_dp_cells(n: u64) {
    bump(|c| c.dnnk_dp_cells += n);
}

pub(crate) fn count_dnnk_table_hit() {
    bump(|c| c.dnnk_table_hits += 1);
}

pub(crate) fn count_gain_cache_hit() {
    bump(|c| c.gain_cache_hits += 1);
}

pub(crate) fn count_gain_cache_miss() {
    bump(|c| c.gain_cache_misses += 1);
}

pub(crate) fn count_gain_exact_recompute() {
    bump(|c| c.gain_exact_recomputes += 1);
}

pub(crate) fn count_split_accepted() {
    bump(|c| c.splits_accepted += 1);
}

pub(crate) fn count_split_rejected() {
    bump(|c| c.splits_rejected += 1);
}

pub(crate) fn add_coloring_seconds(seconds: f64) {
    bump(|c| c.coloring_seconds += seconds);
}

impl PassStats {
    /// Folds the thread-local counters into a stats record.
    pub(crate) fn from_counters(c: Counters) -> Self {
        Self {
            evaluator_calls: c.evaluator_calls,
            allocator_invocations: c.allocator_invocations,
            dnnk_dp_cells: c.dnnk_dp_cells,
            dnnk_table_hits: c.dnnk_table_hits,
            gain_cache_hits: c.gain_cache_hits,
            gain_cache_misses: c.gain_cache_misses,
            gain_exact_recomputes: c.gain_exact_recomputes,
            splits_accepted: c.splits_accepted,
            splits_rejected: c.splits_rejected,
            coloring_seconds: c.coloring_seconds,
            ..Self::default()
        }
    }

    /// Gain-cache hit rate in `[0, 1]` (0 when the cache was never
    /// consulted).
    #[must_use]
    pub fn gain_cache_hit_rate(&self) -> f64 {
        let total = self.gain_cache_hits + self.gain_cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.gain_cache_hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_reset_and_accumulate() {
        reset_counters();
        count_evaluator_call();
        count_evaluator_call();
        count_gain_cache_hit();
        count_gain_cache_miss();
        add_dnnk_dp_cells(7);
        add_coloring_seconds(0.25);
        let c = snapshot_counters();
        assert_eq!(c.evaluator_calls, 2);
        assert_eq!(c.gain_cache_hits, 1);
        assert_eq!(c.gain_cache_misses, 1);
        assert_eq!(c.dnnk_dp_cells, 7);
        assert!((c.coloring_seconds - 0.25).abs() < 1e-12);
        reset_counters();
        assert_eq!(snapshot_counters().evaluator_calls, 0);
    }

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        assert_eq!(PassStats::default().gain_cache_hit_rate(), 0.0);
        let s = PassStats {
            gain_cache_hits: 3,
            gain_cache_misses: 1,
            ..PassStats::default()
        };
        assert!((s.gain_cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stats_round_trip_through_json() {
        let s = PassStats {
            profile_seconds: 0.5,
            evaluator_calls: 42,
            splits_accepted: 2,
            ..PassStats::default()
        };
        let json = serde_json::to_string(&s).expect("serialises");
        let back: PassStats = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(back, s);
    }
}
