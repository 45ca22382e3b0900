//! On-chip memory allocators for virtual buffers.
//!
//! Four allocators share one problem formulation ([`AllocProblem`]):
//!
//! * [`dnnk`] — the paper's DNN-Knapsack dynamic program (Alg. 1) with
//!   pivot compensation;
//! * [`dnnk_iterative`] — DNNK plus fixed-point marginal refinement
//!   (extension; never worse than single-pass);
//! * [`greedy`] — marginal-gain-density greedy, a natural baseline;
//! * [`exhaustive`] — exact subset enumeration for small instances,
//!   used to bound the heuristics' optimality gap in tests and the
//!   allocator ablation bench.

pub mod dnnk;
pub mod dnnk_iterative;
pub mod exhaustive;
pub mod greedy;

use crate::eval::{Evaluator, Residency};
use crate::interference::VirtualBuffer;
use crate::prefetch::{ModeOption, PrefetchPlan, StreamingMode, WeightMode};
use crate::value::ValueId;
use std::collections::HashMap;

/// SRAM quantum for the DNNK capacity axis: one URAM block.
pub const CAPACITY_UNIT_BYTES: u64 = 36 * 1024;

/// Whole capacity units that `bytes` occupy on the DNNK capacity axis.
pub(crate) fn capacity_units(bytes: u64) -> usize {
    bytes.div_ceil(CAPACITY_UNIT_BYTES) as usize
}

/// An allocation problem: which virtual buffers get physical on-chip
/// storage, subject to the SRAM budget.
#[derive(Debug)]
pub struct AllocProblem<'a> {
    /// Ground-truth latency evaluator.
    pub evaluator: &'a Evaluator<'a>,
    /// The candidate virtual buffers (features and weights mixed).
    pub buffers: &'a [VirtualBuffer],
    /// On-chip bytes available for tensor buffers.
    pub budget_bytes: u64,
    /// Residual exposed load time per weight value (from the prefetch
    /// plan); weights absent from the map are fully hidden when
    /// resident.
    exposure: HashMap<ValueId, f64>,
    /// Every buffer's mode options in one flat table: row `i` is
    /// `options[starts[i]..starts[i + 1]]`. Entry 0 of every row is the
    /// pinned option at the buffer's full bytes; only a single-member
    /// weight buffer under [`StreamingMode::Auto`] offers more.
    options: Vec<ModeOption>,
    starts: Vec<usize>,
}

impl<'a> AllocProblem<'a> {
    /// Builds a problem; `plan` supplies the weight-load exposure.
    /// Equivalent to [`AllocProblem::with_streaming`] at
    /// [`StreamingMode::Off`].
    #[must_use]
    pub fn new(
        evaluator: &'a Evaluator<'a>,
        buffers: &'a [VirtualBuffer],
        budget_bytes: u64,
        plan: &PrefetchPlan,
    ) -> Self {
        Self::with_streaming(evaluator, buffers, budget_bytes, plan, StreamingMode::Off)
    }

    /// Builds a problem with per-buffer weight-mode options priced from
    /// the prefetch plan. Only single-member weight buffers can be
    /// offered more than the pinned option: a multi-member (time-shared)
    /// buffer already reloads its weights each inference and charging a
    /// stream on top of that reload would double-pay the exposure, so a
    /// shared buffer, like a feature buffer, has one pinned option.
    #[must_use]
    pub fn with_streaming(
        evaluator: &'a Evaluator<'a>,
        buffers: &'a [VirtualBuffer],
        budget_bytes: u64,
        plan: &PrefetchPlan,
        streaming: StreamingMode,
    ) -> Self {
        let exposure = plan
            .iter()
            .filter(|(_, e)| !e.fully_hidden())
            .map(|(&id, e)| (id, e.exposed_seconds))
            .collect();
        let mut options = Vec::with_capacity(buffers.len());
        let mut starts = Vec::with_capacity(buffers.len() + 1);
        for buf in buffers {
            starts.push(options.len());
            match buf.members.as_slice() {
                &[id @ ValueId::Weight(_)] => {
                    plan.push_mode_options(&mut options, id, buf.bytes, streaming);
                }
                _ => options.push(ModeOption {
                    mode: WeightMode::Pinned,
                    bytes: buf.bytes,
                    exposed_seconds: 0.0,
                }),
            }
        }
        starts.push(options.len());
        Self {
            evaluator,
            buffers,
            budget_bytes,
            exposure,
            options,
            starts,
        }
    }

    /// The mode options of buffer `i`; entry 0 is always the pinned
    /// option at the buffer's full bytes.
    #[must_use]
    pub fn options_of(&self, i: usize) -> &[ModeOption] {
        &self.options[self.starts[i]..self.starts[i + 1]]
    }

    /// The option of buffer `i` in `mode`, if the buffer offers it.
    fn option_for(&self, i: usize, mode: WeightMode) -> Option<&ModeOption> {
        self.options_of(i).iter().find(|o| o.mode == mode)
    }

    /// Materialises the residency implied by a chosen buffer set under
    /// per-buffer weight modes (`modes` aligned with `chosen`).
    ///
    /// Exposure is a *reload* cost. A shared (multi-member) buffer
    /// re-fetches its weights each inference, so they pay their plan
    /// exposure, and never a mode surcharge on top: a weight pays for
    /// its re-streaming exactly once. A pinned single-member weight is
    /// persistent — loaded once, free thereafter — and pays nothing
    /// (charging it per-inference exposure made the analytic model up to
    /// ~15% pessimistic against the simulator). A streamed or partially
    /// resident weight pays its option's steady exposure every
    /// inference.
    #[must_use]
    pub fn residency_for(&self, chosen: &[bool], modes: &[WeightMode]) -> Residency {
        let mut r = Residency::new();
        for (i, buf) in self.buffers.iter().enumerate().filter(|&(i, _)| chosen[i]) {
            let shared = buf.members.len() > 1;
            for &member in &buf.members {
                r.insert(member);
                let ValueId::Weight(node) = member else {
                    continue;
                };
                let exposed = if shared {
                    self.exposure.get(&member).copied()
                } else if modes[i] == WeightMode::Pinned {
                    None
                } else {
                    self.option_for(i, modes[i]).map(|o| o.exposed_seconds)
                };
                if let Some(exp) = exposed {
                    r.set_exposed_weight(node, exp);
                }
            }
        }
        r
    }

    /// Exact end-to-end latency of a chosen buffer set with every weight
    /// pinned.
    #[must_use]
    pub fn latency_of(&self, chosen: &[bool]) -> f64 {
        let pinned = vec![WeightMode::Pinned; chosen.len()];
        self.evaluator
            .total_latency(&self.residency_for(chosen, &pinned))
    }

    /// Total bytes of a chosen buffer set under per-buffer weight modes:
    /// each buffer consumes its selected option's bytes (e.g. only the
    /// ping-pong footprint when streamed).
    #[must_use]
    pub fn bytes_of(&self, chosen: &[bool], modes: &[WeightMode]) -> u64 {
        self.buffers
            .iter()
            .enumerate()
            .filter(|&(i, _)| chosen[i])
            .map(|(i, b)| self.option_for(i, modes[i]).map_or(b.bytes, |o| o.bytes))
            .sum()
    }

    /// Exposed seconds for a weight value (0 when fully hidden).
    #[must_use]
    pub fn exposure_of(&self, id: ValueId) -> f64 {
        self.exposure.get(&id).copied().unwrap_or(0.0)
    }
}

/// The outcome of running an allocator.
#[derive(Debug, Clone)]
pub struct AllocOutcome {
    /// `chosen[i]` — whether buffer `i` received physical storage.
    pub chosen: Vec<bool>,
    /// `modes[i]` — the weight mode of buffer `i`, aligned with
    /// `chosen`: one of the buffer's [`AllocProblem::options_of`] modes,
    /// so [`WeightMode::Pinned`] for features, shared buffers, unchosen
    /// buffers and every buffer of a non-[`StreamingMode::Auto`] run.
    pub modes: Vec<WeightMode>,
    /// The implied residency.
    pub residency: Residency,
    /// Exact end-to-end latency under that residency.
    pub latency: f64,
    /// On-chip bytes consumed.
    pub bytes: u64,
}

impl AllocOutcome {
    /// Assembles the outcome for a chosen vector with every mode pinned.
    #[must_use]
    pub fn from_chosen(problem: &AllocProblem<'_>, chosen: Vec<bool>) -> Self {
        let modes = vec![WeightMode::Pinned; chosen.len()];
        Self::from_modes(problem, chosen, modes)
    }

    /// Assembles the outcome for a chosen vector with per-buffer weight
    /// modes.
    #[must_use]
    pub fn from_modes(
        problem: &AllocProblem<'_>,
        chosen: Vec<bool>,
        modes: Vec<WeightMode>,
    ) -> Self {
        let residency = problem.residency_for(&chosen, &modes);
        let latency = problem.evaluator.total_latency(&residency);
        let bytes = problem.bytes_of(&chosen, &modes);
        Self {
            chosen,
            modes,
            residency,
            latency,
            bytes,
        }
    }

    /// Indices of the allocated buffers.
    #[must_use]
    pub fn allocated_indices(&self) -> Vec<usize> {
        self.chosen
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A small synthetic fixture shared by the allocator tests.

    use crate::eval::{Evaluator, Residency};
    use crate::interference::VirtualBuffer;
    use crate::liveness::Schedule;
    use crate::prefetch::PrefetchPlan;
    use crate::value::{ValueId, ValueTable};
    use lcmm_fpga::{AccelDesign, Device, GraphProfile, Precision};
    use lcmm_graph::{ConvParams, FeatureShape, Graph, GraphBuilder};

    /// A 10-conv linear network that is strongly weight-transfer bound
    /// at fp32: pointwise convolutions over many channels at a tiny
    /// spatial extent have far more weight bytes than arithmetic.
    pub fn chain_graph() -> Graph {
        let mut b = GraphBuilder::new("chain");
        let mut cur = b.input(FeatureShape::new(512, 7, 7)).expect("input");
        for i in 0..10 {
            cur = b
                .conv(format!("c{i}"), cur, ConvParams::pointwise(512))
                .expect("valid conv");
        }
        b.finish(cur).expect("chain is valid")
    }

    pub fn setup(graph: &Graph) -> (AccelDesign, GraphProfile) {
        let d = AccelDesign::explore(graph, &Device::vu9p(), Precision::Float32);
        let p = d.profile(graph);
        (d, p)
    }

    /// A real prefetch plan for the fixture (the default plan has no
    /// edges, so streaming modes would never be offered).
    pub fn real_plan(graph: &Graph, design: &AccelDesign, profile: &GraphProfile) -> PrefetchPlan {
        let ev = Evaluator::new(graph, profile);
        let values = ValueTable::build_batched(graph, profile, design.precision, design.batch);
        PrefetchPlan::build(
            &ev,
            &Schedule::new(graph),
            &Residency::new(),
            values.weight_candidates(),
        )
    }

    /// One single-member buffer per conv weight + feature.
    pub fn singleton_buffers(graph: &Graph, evaluator: &Evaluator<'_>) -> Vec<VirtualBuffer> {
        let b = 4; // fp32 bytes
        let mut bufs = Vec::new();
        for n in graph.conv_layers() {
            bufs.push(VirtualBuffer {
                members: vec![ValueId::Weight(n.id())],
                bytes: graph.node_weight_elems(n.id()) * b,
            });
            bufs.push(VirtualBuffer {
                members: vec![ValueId::Feature(n.id())],
                bytes: n.output_shape().elems() * b,
            });
        }
        let _ = evaluator;
        bufs
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use crate::prefetch::PrefetchPlan;

    #[test]
    fn residency_and_bytes_track_choice() {
        let g = chain_graph();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs = singleton_buffers(&g, &ev);
        let problem = AllocProblem::new(&ev, &bufs, u64::MAX, &PrefetchPlan::default());
        let mut chosen = vec![false; bufs.len()];
        chosen[0] = true;
        chosen[3] = true;
        let out = AllocOutcome::from_chosen(&problem, chosen);
        assert_eq!(out.residency.len(), 2);
        assert_eq!(out.bytes, bufs[0].bytes + bufs[3].bytes);
        assert_eq!(out.allocated_indices(), vec![0, 3]);
    }

    #[test]
    fn every_row_offers_its_pinned_option_first() {
        let g = chain_graph();
        let (d, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let plan = real_plan(&g, &d, &p);
        // Fold the first two weights into one time-shared buffer.
        let mut bufs = singleton_buffers(&g, &ev);
        let second = bufs.remove(2);
        bufs[0].bytes = bufs[0].bytes.max(second.bytes);
        bufs[0].members.extend(second.members);
        let single_weight = |b: &VirtualBuffer| matches!(b.members[..], [ValueId::Weight(_)]);

        let table = |streaming| {
            let problem = AllocProblem::with_streaming(&ev, &bufs, 16 << 20, &plan, streaming);
            (0..bufs.len())
                .map(|i| problem.options_of(i).to_vec())
                .collect::<Vec<_>>()
        };
        let [off, pinned, auto] = [
            StreamingMode::Off,
            StreamingMode::Pinned,
            StreamingMode::Auto,
        ]
        .map(table);
        for rows in [&off, &pinned, &auto] {
            for (buf, options) in bufs.iter().zip(rows) {
                assert_eq!(options[0].mode, WeightMode::Pinned);
                assert_eq!(options[0].bytes, buf.bytes);
                if !single_weight(buf) {
                    assert_eq!(options.len(), 1, "{:?}", buf.members);
                }
            }
        }
        assert!(off.iter().all(|options| options.len() == 1));
        assert_eq!(off, pinned);
        assert!(
            bufs.iter()
                .zip(&auto)
                .any(|(buf, options)| single_weight(buf) && options.len() > 1),
            "auto offered no weight more than its pinned option"
        );
    }

    #[test]
    fn more_budget_never_hurts_latency() {
        let g = chain_graph();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs = singleton_buffers(&g, &ev);
        let problem = AllocProblem::new(&ev, &bufs, u64::MAX, &PrefetchPlan::default());
        let none = problem.latency_of(&vec![false; bufs.len()]);
        let all = problem.latency_of(&vec![true; bufs.len()]);
        assert!(all <= none);
    }
}
