//! DNNK: the DNN-Knapsack allocator (paper Alg. 1).
//!
//! A 0/1-knapsack dynamic program over virtual buffers with the capacity
//! axis quantised to URAM blocks. The twist over the classic knapsack is
//! *pivot compensation* (paper Eq. 4): a layer's latency is the max of
//! its compute and per-tensor transfer terms, so the gain of putting one
//! tensor on chip depends on which of the layer's other tensors are
//! already on chip — the largest remaining off-chip term is the *pivot*,
//! and gains below it are worthless.
//!
//! Where the paper subtracts pivot terms symbolically (Eq. 2/4), this
//! implementation evaluates each affected layer's Eq.-1 latency exactly
//! under the "already chosen at this capacity" approximation that Alg. 1
//! encodes through its `pbuf_table` lookups. The final allocation is
//! re-scored with the exact evaluator.

use super::{capacity_units, AllocOutcome, AllocProblem, CAPACITY_UNIT_BYTES};
use crate::prefetch::WeightMode;
use crate::profiling;
use crate::value::ValueId;
use lcmm_graph::NodeId;

/// Widest relevant-buffer set whose choice bits fit the `u64` gain-cache
/// key without colliding (bit 63 is left unused as a sanity margin).
const GAIN_CACHE_KEY_BITS: usize = 62;

/// Per-node latency terms, with each term tagged by the value whose
/// residency controls it (the paper's operation latency table rows).
#[derive(Debug, Clone)]
struct OpTerms {
    compute: f64,
    /// `(controlling value, seconds)` for each input source.
    inputs: Vec<(ValueId, f64)>,
    /// `(controlling value, seconds, exposed-when-resident seconds)`.
    weight: Option<(ValueId, f64, f64)>,
    /// `(controlling value, seconds)` for the produced tensor.
    output: (ValueId, f64),
}

impl OpTerms {
    /// Eq. 1 with residency decided by `on_chip`. `own` overrides the
    /// exposed-when-resident seconds of one weight value: a single-weight
    /// row charges its option's exposure for its own weight, not the
    /// plan's. Generic (not `dyn`) so the membership probes inline into
    /// the DP's hot loop.
    fn latency<F: Fn(ValueId) -> bool>(&self, on_chip: &F, own: Option<(ValueId, f64)>) -> f64 {
        let if_term: f64 = self
            .inputs
            .iter()
            .filter(|(v, _)| !on_chip(*v))
            .map(|(_, t)| *t)
            .sum();
        let wt_term = match self.weight {
            Some((v, _, exposed)) if on_chip(v) => match own {
                Some((member, seconds)) if member == v => seconds,
                _ => exposed,
            },
            Some((_, t, _)) => t,
            None => 0.0,
        };
        let of_term = if on_chip(self.output.0) {
            0.0
        } else {
            self.output.1
        };
        self.compute.max(if_term).max(wt_term).max(of_term)
    }
}

/// One latency term compiled for the DP's hot loop: the cache-key bit
/// of the buffer owning the controlling value (`u32::MAX` when the
/// context cannot hold it), whether the value belongs to the buffer
/// currently being placed, and the term's transfer seconds.
#[derive(Debug, Clone, Copy)]
struct Term {
    bit: u32,
    member: bool,
    seconds: f64,
}

/// [`OpTerms`] with every value probe pre-resolved against one buffer's
/// DP row; input terms live in a shared arena indexed by range.
#[derive(Debug, Clone, Copy)]
struct OpCompact {
    compute: f64,
    in_start: u32,
    in_len: u32,
    /// `(term, exposed-when-resident seconds)`.
    weight: Option<(Term, f64)>,
    output: Term,
}

/// Runs DNNK and returns the allocation.
#[must_use]
pub fn allocate(problem: &AllocProblem<'_>) -> AllocOutcome {
    let n = problem.buffers.len();
    let units = (problem.budget_bytes / CAPACITY_UNIT_BYTES) as usize;
    if n == 0 || units == 0 {
        return AllocOutcome::from_chosen(problem, vec![false; n]);
    }
    let tables = dp(problem, units);

    // --- Backtrace -------------------------------------------------------
    let mut chosen = vec![false; n];
    let mut modes = vec![WeightMode::Pinned; n];
    let mut j = units;
    for i in (0..n).rev() {
        let cell = i * (units + 1) + j;
        if tables.choice[cell] {
            let option = &problem.options_of(i)[tables.option_choice[cell] as usize];
            chosen[i] = true;
            modes[i] = option.mode;
            j -= capacity_units(option.bytes);
        }
    }
    AllocOutcome::from_modes(problem, chosen, modes)
}

/// The DNNK value curve: entry `u` is the best achievable latency
/// *reduction* (seconds, under the pivot-compensated pbuf approximation
/// of Alg. 1) when the capacity is `u` URAM units. Entry 0 is always
/// `0.0` and the curve is non-decreasing.
///
/// Multi-tenant co-planning combines one curve per tenant in a
/// second-level capacity DP: because tenants' buffers never touch the
/// same ops, the joint knapsack over the union of all buffers decomposes
/// exactly into per-tenant curves plus a split of the shared capacity.
#[must_use]
pub fn gain_curve(problem: &AllocProblem<'_>) -> Vec<f64> {
    let n = problem.buffers.len();
    let units = (problem.budget_bytes / CAPACITY_UNIT_BYTES) as usize;
    if n == 0 || units == 0 {
        return vec![0.0; units + 1];
    }
    dp(problem, units).values
}

/// The tables the shared DP produces: the full `choice` table
/// (row-major, `n × (units+1)`; doubles as the paper's pbuf_table), the
/// index into [`AllocProblem::options_of`] of the option taken in each
/// taken cell, and the final value row (best gain per capacity).
struct DpTables {
    choice: Vec<bool>,
    option_choice: Vec<u8>,
    values: Vec<f64>,
}

/// The shared DP over `units` capacity columns.
fn dp(problem: &AllocProblem<'_>, units: usize) -> DpTables {
    let n = problem.buffers.len();

    // --- Static tables -------------------------------------------------
    let graph = problem.evaluator.graph();
    // Owning buffer per value, dense by node: coloring partitions values
    // across buffers, so one slot per (node, tensor kind) suffices. The
    // DP probes ownership once per latency term per column — a HashMap
    // here is the allocator's hottest line on thousand-node graphs.
    const NO_OWNER: u32 = u32::MAX;
    let mut feature_owner: Vec<u32> = vec![NO_OWNER; graph.len()];
    let mut weight_owner: Vec<u32> = vec![NO_OWNER; graph.len()];
    for (i, b) in problem.buffers.iter().enumerate() {
        for &m in &b.members {
            match m {
                ValueId::Feature(node) => feature_owner[node.index()] = i as u32,
                ValueId::Weight(node) => weight_owner[node.index()] = i as u32,
            }
        }
    }
    let owner_of = |v: ValueId| -> Option<usize> {
        let o = match v {
            ValueId::Feature(node) => feature_owner[node.index()],
            ValueId::Weight(node) => weight_owner[node.index()],
        };
        (o != NO_OWNER).then_some(o as usize)
    };
    let profile = problem.evaluator.profile();
    let op_terms: Vec<OpTerms> = graph
        .iter()
        .map(|node| {
            let row = profile.node(node.id());
            OpTerms {
                compute: row.compute,
                inputs: row
                    .inputs
                    .iter()
                    .map(|&(src, t)| (ValueId::Feature(src), t))
                    .collect(),
                weight: (row.weight > 0.0).then(|| {
                    let v = ValueId::Weight(node.id());
                    (v, row.weight, problem.exposure_of(v))
                }),
                output: (ValueId::Feature(node.id()), row.output),
            }
        })
        .collect();

    // Ops touched by each buffer.
    let touched: Vec<Vec<NodeId>> = problem
        .buffers
        .iter()
        .map(|b| problem.evaluator.touched_nodes(&b.members))
        .collect();

    // --- DP ------------------------------------------------------------
    // choice[i][j]: buffer i taken in cell (i, j). This doubles as the
    // paper's pbuf_table for pivot lookups. option_choice[i][j] is the
    // index of the option taken there.
    let mut choice = vec![false; n * (units + 1)];
    let mut option_choice = vec![0u8; n * (units + 1)];
    let mut prev_l = vec![0.0f64; units + 1];
    let mut cur_l = vec![0.0f64; units + 1];

    // Key-bit slot per buffer while processing one row of the DP;
    // reset after each row by walking the (short) relevant list.
    const NO_BIT: u32 = u32::MAX;
    let mut bit_of: Vec<u32> = vec![NO_BIT; n];

    for (i, touched) in touched.iter().enumerate() {
        // Membership probes in `compute_gain` run once per latency term
        // per cache miss; colored buffers can hold hundreds of members,
        // so a linear `contains` there dominates the whole DP.
        let mut members_sorted: Vec<ValueId> = problem.buffers[i].members.clone();
        members_sorted.sort_unstable();
        // Which buffers interact with buffer i (own tensors at the same
        // ops)? Their choice bits at column j form the cache key. The
        // same sweep records per op the key bits of its *own* term
        // owners (`op_masks[p]`): an op's latency under the column
        // context depends only on those bits, so per-op deltas can be
        // memoized under the masked key. Bits are assigned in first-
        // encounter order, exactly as a plain de-duplicating scan would.
        //
        // Each term is also compiled down to `(bit, member, seconds)`
        // so that a cache miss evaluates straight-line float code — the
        // membership probe and owner lookup are paid once per (buffer,
        // term) here instead of once per evaluated column.
        let mut relevant: Vec<usize> = Vec::new();
        let mut op_masks: Vec<u64> = Vec::with_capacity(touched.len());
        let mut ops_compact: Vec<OpCompact> = Vec::with_capacity(touched.len());
        let mut in_terms: Vec<Term> = Vec::new();
        for &op in touched {
            let t = &op_terms[op.index()];
            let mut mask = 0u64;
            let mut term_of = |v: ValueId, seconds: f64, mask: &mut u64| -> Term {
                let mut bit = NO_BIT;
                if let Some(o) = owner_of(v) {
                    if o < i {
                        bit = bit_of[o];
                        if bit == NO_BIT {
                            bit = relevant.len() as u32;
                            bit_of[o] = bit;
                            relevant.push(o);
                        }
                        if bit < 64 {
                            *mask |= 1 << bit;
                        }
                    }
                }
                Term {
                    bit,
                    member: members_sorted.binary_search(&v).is_ok(),
                    seconds,
                }
            };
            let in_start = in_terms.len() as u32;
            for &(v, seconds) in &t.inputs {
                let term = term_of(v, seconds, &mut mask);
                in_terms.push(term);
            }
            let weight = t
                .weight
                .map(|(v, seconds, exposed)| (term_of(v, seconds, &mut mask), exposed));
            let output = term_of(t.output.0, t.output.1, &mut mask);
            ops_compact.push(OpCompact {
                compute: t.compute,
                in_start,
                in_len: in_terms.len() as u32 - in_start,
                weight,
                output,
            });
            op_masks.push(mask);
        }
        for &r in &relevant {
            bit_of[r] = NO_BIT;
        }
        // The cache key has one bit per relevant buffer. When the
        // relevant set does not fit, the cache is skipped and the gain
        // recomputed exactly per column — truncating the set would make
        // distinct residency contexts silently share one key (a wrong
        // gain, not just a slow one), and the masks go unused.
        let use_cache = relevant.len() <= GAIN_CACHE_KEY_BITS;
        // Eq. 1 twice — once under the column context, once with buffer
        // i's members added — from the compiled terms. Same addends in
        // the same order as `OpTerms::latency`, so bit-identical.
        // `own_exposed` overrides the exposed-when-resident seconds of a
        // single-weight row's own weight (its option's exposure); `None`
        // charges every member its compiled plan exposure.
        let delta_of = |p: usize, rk: u64, own_exposed: Option<f64>| -> f64 {
            let oc = &ops_compact[p];
            let on = |t: Term| t.bit != NO_BIT && (rk >> t.bit) & 1 == 1;
            let mut if_ctx = 0.0f64;
            let mut if_with = 0.0f64;
            for &t in &in_terms[oc.in_start as usize..(oc.in_start + oc.in_len) as usize] {
                if !on(t) {
                    if_ctx += t.seconds;
                    if !t.member {
                        if_with += t.seconds;
                    }
                }
            }
            let (wt_ctx, wt_with) = match oc.weight {
                Some((t, exposed)) => {
                    let c = on(t);
                    let with = if c {
                        exposed
                    } else if t.member {
                        own_exposed.unwrap_or(exposed)
                    } else {
                        t.seconds
                    };
                    (if c { exposed } else { t.seconds }, with)
                }
                None => (0.0, 0.0),
            };
            let out = oc.output;
            let c = on(out);
            let of_ctx = if c { 0.0 } else { out.seconds };
            let of_with = if c || out.member { 0.0 } else { out.seconds };
            let lat_ctx = oc.compute.max(if_ctx).max(wt_ctx).max(of_ctx);
            let lat_with = oc.compute.max(if_with).max(wt_with).max(of_with);
            lat_ctx - lat_with
        };

        // Context key per column, built by transposing the chosen rows
        // (sequential sweeps) instead of gathering `relevant.len()`
        // scattered bits per cell.
        let keys: Vec<u64> = if use_cache {
            let mut keys = vec![0u64; units + 1];
            for (bit, &r) in relevant.iter().enumerate() {
                let row = &choice[r * (units + 1)..(r + 1) * (units + 1)];
                for (k, &c) in keys.iter_mut().zip(row) {
                    if c {
                        *k |= 1 << bit;
                    }
                }
            }
            keys
        } else {
            Vec::new()
        };

        profiling::add_dnnk_dp_cells((units + 1) as u64);
        // A single-weight row charges its own weight the taken option's
        // exposure; every other row charges each member its plan
        // exposure.
        let own_weight = match problem.buffers[i].members.as_slice() {
            &[v @ ValueId::Weight(_)] => Some(v),
            _ => None,
        };
        // At most one option of the row can be taken. Options are the
        // outer loop: each sweeps its columns against the previous row
        // and overwrites a cell only on a strict gain, so every cell
        // still compares the options in list order and the pinned option
        // (entry 0) wins ties. A one-option row is the paper's binary
        // knapsack item.
        let row = i * (units + 1);
        cur_l.copy_from_slice(&prev_l);
        for (oi, option) in problem.options_of(i).iter().enumerate() {
            let size = capacity_units(option.bytes);
            if size == 0 || size > units {
                continue;
            }
            let own = own_weight.map(|v| (v, option.exposed_seconds));
            // Distinct context keys per option are few (the DP fills
            // columns left to right, so the same prefix choices repeat),
            // and a handful of distinct masked keys show up per op: a
            // linear scan over a tiny vec beats any hash map for both the
            // gain cache and the per-op memo of latency deltas. Both are
            // per option: an option changes the own weight's exposed
            // seconds, so the deltas of ops touching it differ between
            // options under the same context.
            let mut gain_cache: Vec<(u64, f64)> = Vec::new();
            let mut op_memo: Vec<Vec<(u64, f64)>> = vec![Vec::new(); op_masks.len()];
            for j in size..=units {
                let gain = if use_cache {
                    let key = keys[j];
                    if let Some(&(_, g)) = gain_cache.iter().find(|&&(k, _)| k == key) {
                        profiling::count_gain_cache_hit();
                        g
                    } else {
                        profiling::count_gain_cache_miss();
                        let g: f64 = (0..touched.len())
                            .map(|p| {
                                let rk = key & op_masks[p];
                                if let Some(&(_, d)) = op_memo[p].iter().find(|&&(k, _)| k == rk) {
                                    d
                                } else {
                                    let d = delta_of(p, rk, own.map(|(_, e)| e));
                                    op_memo[p].push((rk, d));
                                    d
                                }
                            })
                            .sum();
                        gain_cache.push((key, g));
                        g
                    }
                } else {
                    profiling::count_gain_exact_recompute();
                    // Residency context at this capacity (the pbuf_table
                    // approximation of Alg. 1).
                    let ctx_on = |v: ValueId| -> bool {
                        owner_of(v).is_some_and(|o| o < i && choice[o * (units + 1) + j])
                    };
                    let with_i = |v: ValueId| -> bool {
                        ctx_on(v) || members_sorted.binary_search(&v).is_ok()
                    };
                    touched
                        .iter()
                        .map(|&op| {
                            let t = &op_terms[op.index()];
                            t.latency(&ctx_on, None) - t.latency(&with_i, own)
                        })
                        .sum()
                };
                let l1 = prev_l[j - size] + gain;
                if l1 > cur_l[j] {
                    cur_l[j] = l1;
                    choice[row + j] = true;
                    option_choice[row + j] = oi as u8;
                }
            }
        }
        std::mem::swap(&mut prev_l, &mut cur_l);
    }

    DpTables {
        choice,
        option_choice,
        values: prev_l,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::test_support::*;
    use crate::eval::Evaluator;
    use crate::prefetch::PrefetchPlan;

    #[test]
    fn respects_budget() {
        let g = chain_graph();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs = singleton_buffers(&g, &ev);
        let budget = 4 * CAPACITY_UNIT_BYTES * 10;
        let problem = AllocProblem::new(&ev, &bufs, budget, &PrefetchPlan::default());
        let out = allocate(&problem);
        assert!(out.bytes <= budget, "{} > {}", out.bytes, budget);
    }

    #[test]
    fn improves_over_empty_when_budget_allows() {
        let g = chain_graph();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs = singleton_buffers(&g, &ev);
        let problem = AllocProblem::new(&ev, &bufs, 16 << 20, &PrefetchPlan::default());
        let out = allocate(&problem);
        let empty = problem.latency_of(&vec![false; bufs.len()]);
        assert!(out.latency < empty, "DNNK found no improvement");
        assert!(!out.residency.is_empty());
    }

    #[test]
    fn zero_budget_allocates_nothing() {
        let g = chain_graph();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs = singleton_buffers(&g, &ev);
        let problem = AllocProblem::new(&ev, &bufs, 0, &PrefetchPlan::default());
        let out = allocate(&problem);
        assert!(out.residency.is_empty());
        assert_eq!(out.bytes, 0);
    }

    #[test]
    fn huge_budget_takes_everything_useful() {
        let g = chain_graph();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs = singleton_buffers(&g, &ev);
        let problem = AllocProblem::new(&ev, &bufs, 1 << 40, &PrefetchPlan::default());
        let out = allocate(&problem);
        // With unbounded room the latency must reach the best possible
        // full-residency value.
        let all = problem.latency_of(&vec![true; bufs.len()]);
        assert!(
            (out.latency - all).abs() / all < 0.05,
            "{} vs {}",
            out.latency,
            all
        );
    }

    /// Regression test for the silent cache-key collision: with more
    /// than 62 relevant buffers the key used to be truncated, letting
    /// distinct residency contexts share one cached gain. The allocator
    /// must now bypass the cache (exact per-column recomputation) and
    /// stay sound.
    #[test]
    fn wide_fanout_skips_gain_cache_instead_of_colliding() {
        use lcmm_graph::{ConvParams, FeatureShape, GraphBuilder};
        let mut b = GraphBuilder::new("fanout");
        let x = b.input(FeatureShape::new(8, 4, 4)).expect("input");
        let branches: Vec<_> = (0..64)
            .map(|i| {
                b.conv(format!("b{i}"), x, ConvParams::pointwise(4))
                    .expect("valid conv")
            })
            .collect();
        let cat = b.concat("cat", &branches).expect("same spatial");
        let out = b
            .conv("out", cat, ConvParams::pointwise(8))
            .expect("valid conv");
        let g = b.finish(out).expect("valid graph");

        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs = singleton_buffers(&g, &ev);
        // 65 convs × (weight + feature): the concat's last input sees 63
        // earlier feature owners plus its own weight — past the 62-bit
        // key capacity.
        assert!(bufs.len() > 2 * GAIN_CACHE_KEY_BITS);
        let budget = 64 * CAPACITY_UNIT_BYTES;
        let problem = AllocProblem::new(&ev, &bufs, budget, &PrefetchPlan::default());

        crate::profiling::reset_counters();
        let out = allocate(&problem);
        let counters = crate::profiling::snapshot_counters();
        assert!(
            counters.gain_exact_recomputes > 0,
            "wide relevant sets must bypass the gain cache"
        );
        assert!(out.bytes <= budget, "{} > {}", out.bytes, budget);
        let empty = problem.latency_of(&vec![false; bufs.len()]);
        assert!(out.latency <= empty + 1e-12);
    }

    #[test]
    fn gain_curve_is_anchored_and_nonnegative() {
        let g = chain_graph();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs = singleton_buffers(&g, &ev);
        let budget = 16 << 20;
        let problem = AllocProblem::new(&ev, &bufs, budget, &PrefetchPlan::default());
        let curve = gain_curve(&problem);
        let units = (budget / CAPACITY_UNIT_BYTES) as usize;
        assert_eq!(curve.len(), units + 1);
        assert_eq!(curve[0], 0.0);
        assert!(curve.iter().all(|&v| v >= 0.0));
        assert!(
            *curve.last().unwrap() > 0.0,
            "a generous budget must find some gain"
        );
    }

    #[test]
    fn gain_curve_final_value_matches_allocate_choice() {
        // The DP behind gain_curve is the one allocate backtraces, so
        // the curve's final entry must equal the DP value of allocate's
        // chosen set under the same pbuf approximation (which in turn is
        // within re-scoring distance of the exact outcome latency).
        let g = chain_graph();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs = singleton_buffers(&g, &ev);
        let budget = 16 << 20;
        let problem = AllocProblem::new(&ev, &bufs, budget, &PrefetchPlan::default());
        let curve = gain_curve(&problem);
        let out = allocate(&problem);
        let empty = problem.latency_of(&vec![false; bufs.len()]);
        let exact_gain = empty - out.latency;
        let dp_gain = *curve.last().unwrap();
        assert!(
            (dp_gain - exact_gain).abs() / exact_gain.max(1e-12) < 0.2,
            "dp {dp_gain} vs exact {exact_gain}"
        );
    }

    #[test]
    fn op_terms_latency_matches_pivot_example() {
        // The paper's worked example (§3.3): three tensors with
        // reductions 0.01, 0.01, 0.05 — putting f7 on chip while w4
        // stays off leaves the pivot at w4.
        use lcmm_graph::NodeId;
        let f7 = ValueId::Feature(NodeId::new(1));
        let w4 = ValueId::Weight(NodeId::new(2));
        let f4 = ValueId::Feature(NodeId::new(2));
        let t = OpTerms {
            compute: 0.0,
            inputs: vec![(f7, 0.01)],
            weight: Some((w4, 0.01, 0.0)),
            output: (f4, 0.05),
        };
        let none = t.latency(&|_| false, None);
        assert_eq!(none, 0.05);
        // f7 on chip: latency still 0.05 (pivot unaffected).
        let f7_on = t.latency(&|v| v == f7, None);
        assert_eq!(f7_on, 0.05);
        // f4 additionally on chip: pivot drops to w4's 0.01 — the gain
        // relative to f7_on is 0.04, matching the paper's compensation.
        let f4_on = t.latency(&|v| v == f7 || v == f4, None);
        assert_eq!(f4_on, 0.01);
        assert!((f7_on - f4_on - 0.04).abs() < 1e-12);
    }

    #[test]
    fn exposed_weight_limits_gain() {
        use lcmm_graph::NodeId;
        let w = ValueId::Weight(NodeId::new(0));
        let f = ValueId::Feature(NodeId::new(0));
        let t = OpTerms {
            compute: 0.02,
            inputs: vec![],
            weight: Some((w, 0.10, 0.06)),
            output: (f, 0.0),
        };
        assert_eq!(t.latency(&|_| false, None), 0.10);
        // Resident but only partially hidden: the exposed 0.06 remains.
        assert_eq!(t.latency(&|v| v == w, None), 0.06);
    }

    /// `Pinned` and `Off` build the same one-option rows, so DNNK must
    /// return the same allocation to the last bit.
    #[test]
    fn forced_pinned_matches_off_bit_for_bit() {
        use crate::prefetch::StreamingMode;
        let g = chain_graph();
        let (d, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let plan = real_plan(&g, &d, &p);
        let bufs = singleton_buffers(&g, &ev);
        for budget in [
            0,
            CAPACITY_UNIT_BYTES,
            8 * CAPACITY_UNIT_BYTES,
            16 << 20,
            1 << 40,
        ] {
            let off = allocate(&AllocProblem::new(&ev, &bufs, budget, &plan));
            let pinned = allocate(&AllocProblem::with_streaming(
                &ev,
                &bufs,
                budget,
                &plan,
                StreamingMode::Pinned,
            ));
            assert_eq!(off.chosen, pinned.chosen, "budget {budget}");
            assert_eq!(
                off.latency.to_bits(),
                pinned.latency.to_bits(),
                "budget {budget}: {} vs {}",
                off.latency,
                pinned.latency
            );
            assert_eq!(off.bytes, pinned.bytes);
            assert!(pinned.modes.iter().all(|&m| m == WeightMode::Pinned));
        }
    }

    #[test]
    fn auto_streams_weights_when_pinning_cannot_fit() {
        use crate::prefetch::StreamingMode;
        let g = chain_graph();
        let (d, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let plan = real_plan(&g, &d, &p);
        let bufs = singleton_buffers(&g, &ev);
        // Each fp32 weight is 1 MiB (~30 units); at 8 units nothing can
        // be pinned, but a stream needs only the 2-unit ping-pong.
        let budget = 8 * CAPACITY_UNIT_BYTES;
        let off = allocate(&AllocProblem::new(&ev, &bufs, budget, &plan));
        let auto = allocate(&AllocProblem::with_streaming(
            &ev,
            &bufs,
            budget,
            &plan,
            StreamingMode::Auto,
        ));
        assert!(auto.bytes <= budget, "{} > {budget}", auto.bytes);
        assert!(
            auto.latency <= off.latency + 1e-15,
            "auto {} worse than off {}",
            auto.latency,
            off.latency
        );
        let streamed = auto
            .modes
            .iter()
            .zip(&auto.chosen)
            .filter(|&(&m, &c)| c && m != WeightMode::Pinned)
            .count();
        assert!(streamed > 0, "auto never chose a non-pinned mode");
    }

    #[test]
    fn auto_respects_budget_across_scales() {
        use crate::prefetch::StreamingMode;
        let g = chain_graph();
        let (d, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let plan = real_plan(&g, &d, &p);
        let bufs = singleton_buffers(&g, &ev);
        for budget in [
            0,
            CAPACITY_UNIT_BYTES - 1,
            CAPACITY_UNIT_BYTES,
            3 * CAPACITY_UNIT_BYTES,
            2 << 20,
            16 << 20,
            1 << 40,
        ] {
            let problem =
                AllocProblem::with_streaming(&ev, &bufs, budget, &plan, StreamingMode::Auto);
            let out = allocate(&problem);
            assert!(out.bytes <= budget, "budget {budget}: used {}", out.bytes);
            let empty = problem.latency_of(&vec![false; bufs.len()]);
            assert!(
                out.latency <= empty + 1e-15,
                "budget {budget}: {} vs empty {empty}",
                out.latency
            );
        }
    }
}
