//! Weight buffer prefetching and the prefetch dependence graph (§3.2),
//! plus the per-layer weight-mode model built on top of it.
//!
//! Weights are known ahead of time, so the buffer of a memory-bound
//! layer `C_k` can start filling while earlier layers execute. The pass
//! backtracks from `C_k` through the schedule until the accumulated
//! execution time covers the weight load time `T`, and emits a
//! *prefetch edge* `(C_k', C_k)`. The interval `[pos(C_k'), pos(C_k)]`
//! is the weight buffer's occupancy span; weights with disjoint spans
//! can share a buffer (the weight interference graph).
//!
//! The same edge also prices the *streaming* alternatives of a weight
//! (AutoWS-style): instead of pinning all `B` bytes on chip, a layer
//! can stream its weight through a small ping-pong buffer every
//! inference, or keep only a fraction resident and stream the rest.
//! The stream claims exactly the contended idle weight-interface
//! capacity the edge already reserved, so the steady-state exposed time
//! of each mode follows from `(T, E)` of the edge alone — see
//! [`ModeOption`] and `docs/STREAMING.md` for the timing model.

use crate::eval::{Evaluator, Residency};
use crate::liveness::{LiveInterval, Schedule};
use crate::value::{TensorValue, ValueId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One prefetch edge of the PDG.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefetchEdge {
    /// Schedule position where the prefetch may begin (`C_k'`).
    pub start: usize,
    /// Schedule position of the consuming layer (`C_k`).
    pub end: usize,
    /// Weight load time `T` in seconds.
    pub load_seconds: f64,
    /// Portion of `T` that cannot be hidden because the graph does not
    /// reach back far enough (early layers); 0 when fully hidden.
    pub exposed_seconds: f64,
}

impl PrefetchEdge {
    /// The buffer occupancy span implied by this edge.
    #[must_use]
    pub fn interval(&self) -> LiveInterval {
        LiveInterval::new(self.start, self.end)
    }

    /// Whether the whole load is hidden behind earlier execution.
    #[must_use]
    pub fn fully_hidden(&self) -> bool {
        self.exposed_seconds <= 0.0
    }
}

/// The prefetch dependence graph: one edge per prefetched weight value.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PrefetchPlan {
    edges: HashMap<ValueId, PrefetchEdge>,
}

impl PrefetchPlan {
    /// Builds the PDG for the given weight candidates.
    ///
    /// Backtracking accumulates the *current* per-node latencies from
    /// `evaluator` under `residency` (typically the state after feature
    /// buffer reuse), matching the paper's flow where prefetching runs
    /// after feature reuse.
    ///
    /// Unlike the paper's pass, hiding capacity is *contended*: a
    /// prefetch can only use the weight interface's idle time during
    /// each earlier layer (the layer's latency minus its own weight
    /// stream), and capacity consumed by one prefetch is gone for the
    /// next. Without this, stacking many large weights in a deep
    /// network would hide unbounded traffic behind the same window.
    #[must_use]
    pub fn build<'a, I>(
        evaluator: &Evaluator<'_>,
        schedule: &Schedule,
        residency: &Residency,
        weight_values: I,
    ) -> Self
    where
        I: IntoIterator<Item = &'a TensorValue>,
    {
        // Idle weight-interface seconds available during each step.
        let idle: Vec<f64> = (0..schedule.len())
            .map(|pos| {
                let node = schedule.at(pos);
                let lat = evaluator.node_latency(node, residency);
                let own_weight_stream = evaluator.profile().node(node).weight;
                (lat - own_weight_stream).max(0.0)
            })
            .collect();

        // `(consumer position, load seconds, id)` per candidate.
        let mut candidates: Vec<(usize, f64, ValueId)> = weight_values
            .into_iter()
            .filter_map(|v| match v.id {
                ValueId::Weight(node) => {
                    let load = evaluator.profile().node(node).weight;
                    (load > 0.0).then_some((schedule.position(node), load, v.id))
                }
                ValueId::Feature(_) => None,
            })
            .collect();

        // Two claim orders compete for the contended capacity:
        //  - schedule order: earlier layers claim the window closest to
        //    their use point first;
        //  - risk order: the largest loads — the ones whose exposure
        //    would cost the most — claim first, so a stack of small
        //    cheap-to-hide weights cannot starve a big one out of its
        //    window.
        // Neither dominates on every graph, so both are planned and the
        // risk plan wins only when it is a Pareto improvement: strictly
        // fewer exposed seconds AND no more exposed edges. The edge
        // count matters independently of the seconds — POL counts
        // *layers* that benefit, and a risk plan that shaves a few
        // microseconds of total exposure by spreading it across dozens
        // of previously-hidden weights guts that metric (seen on
        // ResNet-152, where the two totals tie to the last bits while
        // the risk plan exposes 76 layers to schedule order's 10).
        // Schedule order wins ties, preserving historical plans.
        candidates.sort_by_key(|&(pos, _, _)| pos);
        let in_schedule_order = plan_edges(&candidates, idle.clone());
        let mut by_risk = candidates;
        // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: a NaN
        // load would otherwise silently collapse the sort into a
        // comparator-order-dependent shuffle. Loads are validated
        // finite at profile ingestion, but the sort must stay total
        // regardless.
        by_risk.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let risk_first = plan_edges(&by_risk, idle);
        let (risk_total, risk_exposed) = exposure_stats(&risk_first);
        let (sched_total, sched_exposed) = exposure_stats(&in_schedule_order);
        let edges = if risk_total < sched_total && risk_exposed <= sched_exposed {
            risk_first
        } else {
            in_schedule_order
        };
        Self { edges }
    }

    /// The edge for a weight value, if one was planned.
    #[must_use]
    pub fn edge(&self, id: ValueId) -> Option<&PrefetchEdge> {
        self.edges.get(&id)
    }

    /// Iterates over all planned edges.
    pub fn iter(&self) -> impl Iterator<Item = (&ValueId, &PrefetchEdge)> {
        self.edges.iter()
    }

    /// Number of planned prefetches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no prefetch was planned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Occupancy spans for the weight interference graph.
    #[must_use]
    pub fn intervals(&self) -> HashMap<ValueId, LiveInterval> {
        self.edges
            .iter()
            .map(|(&id, e)| (id, e.interval()))
            .collect()
    }
}

/// Backtracks each candidate (in the order given) through the shared
/// idle-capacity vector and emits its prefetch edge.
fn plan_edges(
    candidates: &[(usize, f64, ValueId)],
    mut idle: Vec<f64>,
) -> HashMap<ValueId, PrefetchEdge> {
    let mut edges = HashMap::new();
    for &(end, load, id) in candidates {
        let mut needed = load;
        let mut start = end;
        while start > 0 && needed > 0.0 {
            start -= 1;
            let take = idle[start].min(needed);
            idle[start] -= take;
            needed -= take;
        }
        edges.insert(
            id,
            PrefetchEdge {
                start,
                end,
                load_seconds: load,
                exposed_seconds: needed.max(0.0),
            },
        );
    }
    edges
}

/// `(total exposed seconds, edges with any exposure)` of a planned edge
/// set. The total is summed in value-id order: the map's own iteration
/// order is seed-randomised, and float addition is order-sensitive —
/// summing in map order would make the risk-vs-schedule comparison flip
/// between runs on near-ties.
fn exposure_stats(edges: &HashMap<ValueId, PrefetchEdge>) -> (f64, usize) {
    let mut exposed: Vec<(ValueId, f64)> = edges
        .iter()
        .map(|(&id, e)| (id, e.exposed_seconds))
        .collect();
    exposed.sort_by_key(|&(id, _)| id);
    let total = exposed.iter().map(|&(_, e)| e).sum();
    let count = exposed.iter().filter(|&&(_, e)| e > 0.0).count();
    (total, count)
}

// ---------------------------------------------------------------------
// Per-layer weight modes (AutoWS)
// ---------------------------------------------------------------------

/// How the weight-streaming selector runs, as an [`crate::LcmmOptions`]
/// knob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamingMode {
    /// The paper's binary residency (default): a weight is pinned whole
    /// or left off chip, so every knapsack row offers only its pinned
    /// option.
    #[default]
    Off,
    /// Every weight pinned, exactly as under [`Off`]: the plan is the
    /// `Off` plan bit for bit (property-tested). The serve wire reports
    /// it with the `weight_streaming` summary block.
    ///
    /// [`Off`]: StreamingMode::Off
    Pinned,
    /// Full per-layer selection between pinning, double-buffered
    /// streaming, and partial residency.
    Auto,
}

/// How one weight value occupies on-chip memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightMode {
    /// All bytes resident; loaded once at cold start, free thereafter
    /// (for a single-member buffer) or reloaded per inference (shared).
    Pinned,
    /// The weight streams through a small ping-pong buffer every
    /// inference. With `double_buffered` the stream overlaps compute
    /// inside the edge's claimed idle window (steady-state exposure
    /// `E`); without, every access demand-loads (exposure `T`) — the
    /// latter exists for completeness and is never auto-selected.
    Streamed {
        /// Whether the stream ping-pongs two chunks to overlap compute.
        double_buffered: bool,
    },
    /// `resident_bytes` stay pinned; the rest streams per inference.
    PartialResident {
        /// Bytes of the weight kept permanently on chip.
        resident_bytes: u64,
    },
}

impl WeightMode {
    /// Short human-readable label, used by reports and the serve wire
    /// format (`"pinned"`, `"streamed"`, `"streamed-once"`,
    /// `"partial:<bytes>"`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Self::Pinned => "pinned".to_string(),
            Self::Streamed {
                double_buffered: true,
            } => "streamed".to_string(),
            Self::Streamed {
                double_buffered: false,
            } => "streamed-once".to_string(),
            Self::PartialResident { resident_bytes } => format!("partial:{resident_bytes}"),
        }
    }
}

/// One candidate mode for a weight buffer: its SRAM cost and the
/// steady-state exposed seconds the evaluator charges when selected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeOption {
    /// The mode itself.
    pub mode: WeightMode,
    /// On-chip bytes this option consumes.
    pub bytes: u64,
    /// Steady-state exposed weight-load seconds per inference, which
    /// the knapsack charges a single-member weight buffer taken in this
    /// option. For [`WeightMode::Pinned`] it is the paper's pbuf
    /// approximation (the plan's residual exposure) under
    /// [`StreamingMode::Off`] and [`StreamingMode::Pinned`], and `0.0`
    /// under [`StreamingMode::Auto`]; the exact evaluator never charges
    /// a persistent pinned weight. The one pinned option of a feature or
    /// shared buffer holds `0.0`: DNNK charges a shared buffer's weights
    /// their plan exposure instead.
    pub exposed_seconds: f64,
}

/// Ping-pong footprint of a streamed weight: two URAM-unit chunks (one
/// filling while the other feeds the array). Shared with
/// [`crate::alloc::CAPACITY_UNIT_BYTES`].
pub const STREAM_PING_PONG_BYTES: u64 = 2 * 36 * 1024;

/// Resident fractions offered for [`WeightMode::PartialResident`], as
/// `(numerator, denominator)` of the weight's total bytes.
pub const PARTIAL_FRACTIONS: [(u64, u64); 3] = [(3, 4), (1, 2), (1, 4)];

impl PrefetchPlan {
    /// The per-mode options for a weight buffer of `bytes` bytes, priced
    /// from this plan's edge for `id` (see `docs/STREAMING.md`):
    ///
    /// * `Pinned` — `bytes` on chip, steady exposure `0` (see
    ///   [`ModeOption::exposed_seconds`] for what the knapsack charges);
    /// * `PartialResident(f)` — `ceil(f·B)` bytes, exposure
    ///   `max(0, E − f·T)` (the hidden window `T − E` covers the tail of
    ///   the `(1−f)·T`-second stream first);
    /// * `Streamed{double_buffered: true}` — a fixed
    ///   [`STREAM_PING_PONG_BYTES`] footprint, exposure `E`.
    ///
    /// Options are ordered `Pinned` first, then descending residency.
    /// Non-pinned options are only offered under [`StreamingMode::Auto`],
    /// when they save at least one whole capacity unit over pinning, and
    /// only for weights with a planned edge (the stream claims the
    /// edge's idle window). The first entry is always the pinned one.
    #[must_use]
    pub fn mode_options(
        &self,
        id: ValueId,
        bytes: u64,
        streaming: StreamingMode,
    ) -> Vec<ModeOption> {
        let mut options = Vec::new();
        self.push_mode_options(&mut options, id, bytes, streaming);
        options
    }

    /// [`PrefetchPlan::mode_options`], appended to `out` (the knapsack's
    /// flat option table) instead of a fresh vector.
    pub(crate) fn push_mode_options(
        &self,
        out: &mut Vec<ModeOption>,
        id: ValueId,
        bytes: u64,
        streaming: StreamingMode,
    ) {
        let edge = self.edge(id);
        let plan_exposed = edge.map_or(0.0, |e| e.exposed_seconds.max(0.0));
        let pinned_exposed = match streaming {
            // The paper's pbuf approximation: the DP charges the plan's
            // residual exposure for a resident weight.
            StreamingMode::Off | StreamingMode::Pinned => plan_exposed,
            // The exact model: a pinned single-member weight is
            // persistent and pays nothing in the steady state.
            StreamingMode::Auto => 0.0,
        };
        out.push(ModeOption {
            mode: WeightMode::Pinned,
            bytes,
            exposed_seconds: pinned_exposed,
        });
        let (StreamingMode::Auto, Some(edge)) = (streaming, edge) else {
            return;
        };
        let unit = crate::alloc::CAPACITY_UNIT_BYTES;
        let pinned_units = bytes.div_ceil(unit);
        let (t, e) = (edge.load_seconds, edge.exposed_seconds.max(0.0));
        for &(num, den) in &PARTIAL_FRACTIONS {
            let resident = (bytes * num).div_ceil(den);
            if resident.div_ceil(unit) >= pinned_units {
                continue;
            }
            let f = num as f64 / den as f64;
            out.push(ModeOption {
                mode: WeightMode::PartialResident {
                    resident_bytes: resident,
                },
                bytes: resident,
                exposed_seconds: (e - f * t).max(0.0),
            });
        }
        if STREAM_PING_PONG_BYTES.div_ceil(unit) < pinned_units {
            out.push(ModeOption {
                mode: WeightMode::Streamed {
                    double_buffered: true,
                },
                bytes: STREAM_PING_PONG_BYTES,
                exposed_seconds: e,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueTable;
    use lcmm_fpga::{AccelDesign, Device, GraphProfile, Precision};
    use lcmm_graph::{zoo, Graph};

    fn setup(graph: &Graph) -> (GraphProfile, ValueTable, Schedule) {
        let d = AccelDesign::explore(graph, &Device::vu9p(), Precision::Fix16);
        let p = d.profile(graph);
        let t = ValueTable::build(graph, &p, Precision::Fix16);
        let s = Schedule::new(graph);
        (p, t, s)
    }

    #[test]
    fn edges_cover_weight_candidates() {
        let g = zoo::resnet152();
        let (p, t, s) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let plan = PrefetchPlan::build(&ev, &s, &Residency::new(), t.weight_candidates());
        assert_eq!(plan.len(), t.weight_candidates().count());
    }

    #[test]
    fn edge_spans_cover_load_time() {
        let g = zoo::resnet152();
        let (p, t, s) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let r = Residency::new();
        let plan = PrefetchPlan::build(&ev, &s, &r, t.weight_candidates());
        for (&id, edge) in plan.iter() {
            assert!(edge.start <= edge.end);
            if edge.fully_hidden() {
                // Accumulated latency across the span must reach T.
                let span: f64 = (edge.start..edge.end)
                    .map(|k| ev.node_latency(s.at(k), &r))
                    .sum();
                assert!(
                    span + 1e-12 >= edge.load_seconds,
                    "{id}: span {span} < load {}",
                    edge.load_seconds
                );
            } else {
                assert_eq!(edge.start, 0, "exposure only at the graph head");
            }
        }
    }

    #[test]
    fn hiding_capacity_is_contended() {
        // Total hidden prefetch traffic can never exceed the total idle
        // weight-interface time of the whole schedule.
        let g = zoo::resnet152();
        let (p, t, s) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let r = Residency::new();
        let plan = PrefetchPlan::build(&ev, &s, &r, t.weight_candidates());
        let hidden: f64 = plan
            .iter()
            .map(|(_, e)| e.load_seconds - e.exposed_seconds)
            .sum();
        let idle: f64 = (0..s.len())
            .map(|pos| {
                let n = s.at(pos);
                (ev.node_latency(n, &r) - p.node(n).weight).max(0.0)
            })
            .sum();
        assert!(hidden <= idle + 1e-9, "hidden {hidden} > idle {idle}");
        // Early layers must see exposure before late ones run out: at
        // least one edge is exposed in this weight-heavy network at
        // 16-bit, and every exposed edge starts at the graph head or
        // follows from exhausted capacity.
        for (_, e) in plan.iter() {
            assert!(e.exposed_seconds <= e.load_seconds + 1e-12);
            assert!(e.start <= e.end);
        }
    }

    #[test]
    fn first_layer_weight_is_exposed() {
        // A weight used by the very first conv has no history to hide
        // behind; most of its load time must be exposed.
        let g = zoo::vgg16();
        let (p, t, s) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let plan = PrefetchPlan::build(&ev, &s, &Residency::new(), t.weight_candidates());
        let first = g.node_by_name("conv1_1").unwrap().id();
        if let Some(edge) = plan.edge(ValueId::Weight(first)) {
            assert_eq!(edge.start, 0);
        }
    }

    #[test]
    fn intervals_match_edges() {
        let g = zoo::googlenet();
        let (p, t, s) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let plan = PrefetchPlan::build(&ev, &s, &Residency::new(), t.weight_candidates());
        let intervals = plan.intervals();
        assert_eq!(intervals.len(), plan.len());
        for (id, edge) in plan.iter() {
            assert_eq!(intervals[id], edge.interval());
        }
    }

    #[test]
    fn plan_is_independent_of_candidate_iteration_order() {
        // The risk comparator must be total: ties on load (identical
        // layers) fall through to schedule position, so a stable sort
        // of reversed input still yields the same claim order. With the
        // old `partial_cmp(..).unwrap_or(Equal)` comparator this held
        // only by accident of input order.
        let g = zoo::synthetic(512, 2, 11);
        let (p, t, s) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let r = Residency::new();
        let forward: Vec<_> = t.weight_candidates().collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        let a = PrefetchPlan::build(&ev, &s, &r, forward);
        let b = PrefetchPlan::build(&ev, &s, &r, reversed);
        assert_eq!(a.len(), b.len());
        for (id, ea) in a.iter() {
            let eb = b.edge(*id).expect("same edge set");
            assert_eq!(ea, eb, "{id}");
        }
    }

    #[test]
    fn risk_first_never_increases_total_exposure() {
        // The claim-order competition must be a pure win: whatever
        // plan `build` picks exposes at most what the historical
        // schedule-order planning exposed. Checked on a deep stack of
        // heavy FC/conv weights (vgg16) and on deep synthetic graphs,
        // where hundreds of layers contend for the same early windows.
        let graphs = [
            zoo::vgg16(),
            zoo::resnet152(),
            zoo::synthetic(512, 2, 11),
            zoo::synthetic(768, 4, 3),
        ];
        for g in graphs {
            let (p, t, s) = setup(&g);
            let ev = Evaluator::new(&g, &p);
            let r = Residency::new();
            let plan = PrefetchPlan::build(&ev, &s, &r, t.weight_candidates());

            // Reference: schedule-order claims against the same idle
            // capacity.
            let idle: Vec<f64> = (0..s.len())
                .map(|pos| {
                    let n = s.at(pos);
                    (ev.node_latency(n, &r) - p.node(n).weight).max(0.0)
                })
                .collect();
            let mut candidates: Vec<(usize, f64, ValueId)> = t
                .weight_candidates()
                .filter_map(|v| {
                    let load = p.node(v.id.node()).weight;
                    (load > 0.0).then_some((s.position(v.id.node()), load, v.id))
                })
                .collect();
            candidates.sort_by_key(|&(pos, _, _)| pos);
            let reference = plan_edges(&candidates, idle);

            let total: f64 = plan.iter().map(|(_, e)| e.exposed_seconds).sum();
            let exposed_edges = plan.iter().filter(|(_, e)| !e.fully_hidden()).count();
            let (ref_total, ref_exposed) = exposure_stats(&reference);
            assert!(
                total <= ref_total + 1e-12,
                "{}: risk-aware plan exposes {total}, schedule order {ref_total}",
                g.name()
            );
            assert!(
                exposed_edges <= ref_exposed,
                "{}: risk-aware plan exposes {exposed_edges} edges, schedule order {ref_exposed}",
                g.name()
            );
            assert_eq!(plan.len(), reference.len());
        }
    }

    #[test]
    fn non_weight_values_are_skipped() {
        let g = zoo::alexnet();
        let (p, t, s) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        // Pass feature candidates: nothing should be planned.
        let plan = PrefetchPlan::build(&ev, &s, &Residency::new(), t.feature_candidates());
        assert!(plan.is_empty());
    }
}
