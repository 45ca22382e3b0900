//! Per-pass instrumentation of the LCMM pipeline.
//!
//! Every planning run produces a [`PassStats`]: wall-clock
//! timings of the four passes plus the algorithmic counters that tell
//! you *why* a run was slow (DP cells visited, gain-cache hit rate,
//! split iterations accepted vs rejected, evaluator calls).
//!
//! The counters live on the run's [`crate::Evaluator`], which every
//! pass already holds: allocators reach it through
//! [`crate::alloc::AllocProblem::evaluator`], the split loop through its
//! inputs. A planning run builds a fresh evaluator for passes 3–4 and
//! reads its counters once at the end, so no two runs share a counter
//! set, whichever thread they run on.

use serde::{Deserialize, Serialize};

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

impl PassStats {
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
