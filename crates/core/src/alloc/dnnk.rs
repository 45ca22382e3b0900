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
use crate::interference::{FalseEdge, VirtualBuffer};
use crate::prefetch::WeightMode;
use crate::value::ValueId;
use lcmm_graph::NodeId;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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
    let units = budget_units(problem);
    if n == 0 || units == 0 {
        return AllocOutcome::from_chosen(problem, vec![false; n]);
    }
    backtrack(problem, &dp(problem, units).table, units)
}

/// The problem's budget in whole capacity units: the DP's last column.
fn budget_units(problem: &AllocProblem<'_>) -> usize {
    (problem.budget_bytes / CAPACITY_UNIT_BYTES) as usize
}

/// Reads the allocation at `units` capacity units off `table`, which
/// must be at least that wide: from the last row up, each taken cell
/// fixes its buffer's option and moves left by the option's units.
fn backtrack(problem: &AllocProblem<'_>, table: &ChoiceTable, units: usize) -> AllocOutcome {
    let n = problem.buffers.len();
    let mut chosen = vec![false; n];
    let mut modes = vec![WeightMode::Pinned; n];
    let mut j = units;
    for i in (0..n).rev() {
        let state = table.state(i, j);
        if state != NOT_TAKEN {
            let option = &problem.options_of(i)[usize::from(state) - 1];
            chosen[i] = true;
            modes[i] = option.mode;
            j -= capacity_units(option.bytes);
        }
    }
    AllocOutcome::from_modes(problem, chosen, modes)
}

/// Cell state of a buffer not taken; `k + 1` is "taken with option k".
const NOT_TAKEN: u8 = 0;

/// The DP's choice table (the paper's pbuf_table), stored run-length:
/// for each buffer row, the columns where its cell state changes. A row
/// holds a few dozen runs where a dense table holds a cell per capacity
/// unit, which is what lets the artifact memo keep tables around.
///
/// A table filled at `units` columns answers every budget of at most
/// `units` capacity units: cell `(i, j)` reads only columns `<= j` of
/// the rows above it, so a DP run at a narrower budget fills exactly
/// this table's column prefix.
#[derive(Debug)]
pub(crate) struct ChoiceTable {
    units: usize,
    /// Row `i`'s runs are `run_starts[rows[i]..rows[i + 1]]`.
    rows: Vec<u32>,
    /// First column of each run; every row's first run starts at 0.
    run_starts: Vec<u32>,
    /// The cell state over each run.
    run_states: Vec<u8>,
}

impl ChoiceTable {
    fn new(units: usize) -> Self {
        Self {
            units,
            rows: vec![0],
            run_starts: Vec::new(),
            run_states: Vec::new(),
        }
    }

    /// Appends the next row from its dense cell states.
    fn push_row(&mut self, states: &[u8]) {
        let mut current = None;
        for (j, &state) in states.iter().enumerate() {
            if current != Some(state) {
                current = Some(state);
                self.run_starts
                    .push(u32::try_from(j).expect("fewer than 2^32 columns"));
                self.run_states.push(state);
            }
        }
        let runs = self.run_starts.len();
        self.rows
            .push(u32::try_from(runs).expect("fewer than 2^32 runs"));
    }

    fn runs(&self, i: usize) -> (&[u32], &[u8]) {
        let range = self.rows[i] as usize..self.rows[i + 1] as usize;
        (&self.run_starts[range.clone()], &self.run_states[range])
    }

    /// The state of cell `(i, j)`, for `j` within the table's width.
    fn state(&self, i: usize, j: usize) -> u8 {
        debug_assert!(
            j <= self.units,
            "column {j} past a {}-unit table",
            self.units
        );
        let (starts, states) = self.runs(i);
        states[starts.partition_point(|&s| s as usize <= j) - 1]
    }

    /// Calls `f(first, end)` for every column range `first..end` in
    /// which row `i` is taken.
    fn for_each_taken(&self, i: usize, mut f: impl FnMut(usize, usize)) {
        let (starts, states) = self.runs(i);
        for (k, (&first, &state)) in starts.iter().zip(states).enumerate() {
            if state != NOT_TAKEN {
                let end = starts.get(k + 1).map_or(self.units + 1, |&s| s as usize);
                f(first as usize, end);
            }
        }
    }

    /// Bytes the table's row offsets and runs occupy.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.rows.len() * size_of::<u32>()
            + self.run_starts.len() * (size_of::<u32>() + size_of::<u8>())
    }
}

/// Most keys one artifact set's split-key memo stores, each with its
/// buffer set and at most one table. Past it, a new key's buffer set is
/// colored, and its DP run, without being stored, so an artifact set's
/// memo stays bounded however many budgets replan through it.
pub const MAX_STORED_TABLES: usize = 32;

/// What one key of a [`TableMemo`] stores: the buffer set the key's
/// graphs color into, and the widest DNNK choice table filled over it
/// once an `allocator: dnnk` allocation or a gain curve ran its DP.
#[derive(Debug)]
struct KeyEntry {
    buffers: Arc<[VirtualBuffer]>,
    table: Option<Arc<ChoiceTable>>,
}

/// The split-key memo of one artifact set: buffer sets and DNNK choice
/// tables, keyed by the sorted false edges the split loop added to the
/// initial coloring (the empty key is the initial coloring). The buffer
/// set, and with it every DP row, is a function of that key, and the
/// budget decides only the table width. Each key keeps its buffer set
/// and its widest table.
#[derive(Debug)]
pub(crate) struct TableMemo {
    entries: Mutex<HashMap<Vec<FalseEdge>, KeyEntry>>,
    /// The artifact set's full budget in capacity units: no refill is
    /// wider, since no replan asks for more.
    full_units: usize,
}

/// What an artifact set's split-key memo holds (see
/// [`crate::PlanArtifacts::memo_footprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoFootprint {
    /// Keys stored, each with its buffer set; at most
    /// [`MAX_STORED_TABLES`].
    pub keys: usize,
    /// Keys that also hold a DNNK choice table.
    pub tables: usize,
    /// Heap bytes of the stored buffer sets and their keys.
    pub buffer_bytes: usize,
    /// Heap bytes of the stored tables.
    pub table_bytes: usize,
}

impl TableMemo {
    /// An empty memo for an artifact set whose full budget is
    /// `full_units` capacity units.
    pub(crate) fn new(full_units: usize) -> Self {
        Self {
            entries: Mutex::default(),
            full_units,
        }
    }

    /// The buffer set of `edges`: the stored one, or else `color()`'s,
    /// which is stored if the memo has room. Coloring runs outside the
    /// lock; two threads may color one key at once, and equal keys give
    /// equal sets, so it does not matter which one stores first.
    pub(crate) fn buffers(
        &self,
        edges: &[FalseEdge],
        color: impl FnOnce() -> Vec<VirtualBuffer>,
    ) -> Arc<[VirtualBuffer]> {
        if let Some(entry) = self.lock().get(edges) {
            return Arc::clone(&entry.buffers);
        }
        let mut colored = color();
        // A stored set lives as long as the artifact set: drop the
        // spare capacity coloring leaves in each member list.
        for buffer in &mut colored {
            buffer.members.shrink_to_fit();
        }
        let buffers: Arc<[VirtualBuffer]> = colored.into();
        let mut entries = self.lock();
        if let Some(entry) = entries.get(edges) {
            return Arc::clone(&entry.buffers);
        }
        if entries.len() < MAX_STORED_TABLES {
            let entry = KeyEntry {
                buffers: Arc::clone(&buffers),
                table: None,
            };
            entries.insert(edges.to_vec(), entry);
        }
        buffers
    }

    /// [`allocate`] for a problem whose buffers are the coloring under
    /// `edges`: a backtrack from the stored table when it is wide enough
    /// for the budget. Otherwise a DP runs and its table is offered to
    /// the memo. A key's first fill runs at the budget's width, as
    /// [`allocate`] does. A refill of a stored table too narrow for the
    /// budget runs at twice the stored width, within the budget's and
    /// the full budget's width: it is at most twice as wide as its
    /// request, and a key runs at most `1 + ⌈log₂(full / first)⌉` DPs
    /// over any order of budgets.
    pub(crate) fn allocate(&self, problem: &AllocProblem<'_>, edges: &[FalseEdge]) -> AllocOutcome {
        let n = problem.buffers.len();
        let units = budget_units(problem);
        if n == 0 || units == 0 {
            return AllocOutcome::from_chosen(problem, vec![false; n]);
        }
        let stored = self.lock().get(edges).and_then(|e| e.table.clone());
        let width = match stored {
            Some(table) if table.units >= units => {
                problem.evaluator.count(|s| s.dnnk_table_hits += 1);
                return backtrack(problem, &table, units);
            }
            Some(table) => (2 * table.units).min(self.full_units).max(units),
            None => units,
        };
        let table = dp(problem, width).table;
        let outcome = backtrack(problem, &table, units);
        self.offer(edges, table);
        outcome
    }

    /// Keeps `table` for `edges` if the key's buffer set is stored and
    /// the table is wider than the key's stored table, if any.
    pub(crate) fn offer(&self, edges: &[FalseEdge], table: ChoiceTable) {
        if let Some(entry) = self.lock().get_mut(edges) {
            if entry.table.as_ref().is_none_or(|t| table.units > t.units) {
                entry.table = Some(Arc::new(table));
            }
        }
    }

    pub(crate) fn footprint(&self) -> MemoFootprint {
        use std::mem::size_of;
        let entries = self.lock();
        let set_bytes = |(key, entry): (&Vec<FalseEdge>, &KeyEntry)| {
            key.len() * size_of::<FalseEdge>()
                + entry
                    .buffers
                    .iter()
                    .map(|b| size_of::<VirtualBuffer>() + b.members.len() * size_of::<ValueId>())
                    .sum::<usize>()
        };
        MemoFootprint {
            keys: entries.len(),
            tables: entries.values().filter(|e| e.table.is_some()).count(),
            buffer_bytes: entries.iter().map(set_bytes).sum(),
            table_bytes: entries
                .values()
                .filter_map(|e| e.table.as_ref())
                .map(|t| t.heap_bytes())
                .sum(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<Vec<FalseEdge>, KeyEntry>> {
        self.entries.lock().expect("table memo poisoned")
    }
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
///
/// `problem` holds an initial coloring; the DP's choice table is offered
/// to `memo` as that coloring's table, so a later allocation at a budget
/// within the curve's width is a backtrack.
pub(crate) fn gain_curve(problem: &AllocProblem<'_>, memo: Option<&TableMemo>) -> Vec<f64> {
    let n = problem.buffers.len();
    let units = budget_units(problem);
    if n == 0 || units == 0 {
        return vec![0.0; units + 1];
    }
    let DpTables { table, values } = dp(problem, units);
    if let Some(memo) = memo {
        memo.offer(&[], table);
    }
    values
}

/// What the shared DP produces: the choice table and the final value
/// row (best gain per capacity).
struct DpTables {
    table: ChoiceTable,
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
    // Row i of `table` records whether buffer i is taken in cell (i, j),
    // and with which option; it doubles as the paper's pbuf_table for
    // pivot lookups. `row_states` is the row being filled, densely.
    let mut table = ChoiceTable::new(units);
    let mut row_states = vec![NOT_TAKEN; units + 1];
    let mut prev_l = vec![0.0f64; units + 1];
    let mut cur_l = vec![0.0f64; units + 1];

    // Key-bit slot per buffer while processing one row of the DP;
    // reset after each row by walking the (short) relevant list.
    const NO_BIT: u32 = u32::MAX;
    let mut bit_of: Vec<u32> = vec![NO_BIT; n];
    // Gain-cache traffic, added to the run's counters once per DP.
    let (mut hits, mut misses, mut exact) = (0u64, 0u64, 0u64);

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

        // The context key of a column changes only where a relevant
        // row's taken runs start or end, so it is built from the rows'
        // runs as `(first column, key)` runs: each taken run toggles its
        // bit at its first column and again past its end. Adjacent runs
        // with equal keys merge.
        let key_runs: Vec<(usize, u64)> = if use_cache {
            let mut toggles: Vec<(usize, u64)> = Vec::new();
            for (bit, &r) in relevant.iter().enumerate() {
                table.for_each_taken(r, |first, end| {
                    toggles.push((first, 1 << bit));
                    if end <= units {
                        toggles.push((end, 1 << bit));
                    }
                });
            }
            toggles.sort_unstable_by_key(|&(column, _)| column);
            let mut runs = vec![(0, 0u64)];
            for (column, bit) in toggles {
                let last = runs.last_mut().expect("the column-0 run");
                let key = last.1 ^ bit;
                if last.0 == column {
                    last.1 = key;
                } else {
                    runs.push((column, key));
                }
            }
            runs.dedup_by_key(|run| run.1);
            runs
        } else {
            Vec::new()
        };

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
        row_states.fill(NOT_TAKEN);
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
            // The knapsack step over a run of columns at one gain: cell
            // `j` takes the option on a strict gain over the previous
            // row's cell `j - size`.
            let taken = oi as u8 + 1;
            let mut relax = |columns: std::ops::Range<usize>, gain: f64| {
                let prev = &prev_l[columns.start - size..columns.end - size];
                let cells = cur_l[columns.clone()].iter_mut();
                for ((cur, state), &p) in cells.zip(&mut row_states[columns]).zip(prev) {
                    let l1 = p + gain;
                    if l1 > *cur {
                        *cur = l1;
                        *state = taken;
                    }
                }
            };
            if use_cache {
                // One lookup per key run over `size..=units`. The run's
                // first column is the hit or miss a per-column lookup
                // scores there, and its other columns are hits.
                let first = key_runs.partition_point(|&(start, _)| start <= size) - 1;
                for (r, &(start, key)) in key_runs.iter().enumerate().skip(first) {
                    let end = key_runs.get(r + 1).map_or(units + 1, |&(next, _)| next);
                    let columns = start.max(size)..end;
                    let gain = if let Some(&(_, g)) = gain_cache.iter().find(|&&(k, _)| k == key) {
                        hits += 1;
                        g
                    } else {
                        misses += 1;
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
                    };
                    hits += (columns.len() - 1) as u64;
                    relax(columns, gain);
                }
            } else {
                for j in size..=units {
                    exact += 1;
                    // Residency context at this capacity (the pbuf_table
                    // approximation of Alg. 1).
                    let ctx_on = |v: ValueId| -> bool {
                        owner_of(v).is_some_and(|o| o < i && table.state(o, j) != NOT_TAKEN)
                    };
                    let with_i = |v: ValueId| -> bool {
                        ctx_on(v) || members_sorted.binary_search(&v).is_ok()
                    };
                    let gain = touched
                        .iter()
                        .map(|&op| {
                            let t = &op_terms[op.index()];
                            t.latency(&ctx_on, None) - t.latency(&with_i, own)
                        })
                        .sum();
                    relax(j..j + 1, gain);
                }
            }
        }
        table.push_row(&row_states);
        std::mem::swap(&mut prev_l, &mut cur_l);
    }
    problem.evaluator.count(|s| {
        s.dnnk_dp_cells += (n * (units + 1)) as u64;
        s.gain_cache_hits += hits;
        s.gain_cache_misses += misses;
        s.gain_exact_recomputes += exact;
    });

    DpTables {
        table,
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

        let out = allocate(&problem);
        let counters = ev.take_stats();
        assert!(
            counters.gain_exact_recomputes > 0,
            "wide relevant sets must bypass the gain cache"
        );
        assert!(out.bytes <= budget, "{} > {}", out.bytes, budget);
        let empty = problem.latency_of(&vec![false; bufs.len()]);
        assert!(out.latency <= empty + 1e-12);
    }

    #[test]
    fn run_length_rows_match_their_dense_states() {
        let rows: [&[u8]; 4] = [
            &[0, 0, 0, 0, 0, 0],
            &[0, 1, 1, 2, 2, 1],
            &[3, 3, 0, 0, 1, 1],
            &[1, 1, 1, 1, 1, 1],
        ];
        let mut table = ChoiceTable::new(5);
        for row in rows {
            table.push_row(row);
        }
        // One run per state change.
        assert_eq!(table.run_starts.len(), 1 + 4 + 3 + 1);
        for (i, row) in rows.iter().enumerate() {
            for (j, &state) in row.iter().enumerate() {
                assert_eq!(table.state(i, j), state, "cell ({i}, {j})");
            }
            let mut taken = vec![false; row.len()];
            table.for_each_taken(i, |first, end| taken[first..end].fill(true));
            let dense: Vec<bool> = row.iter().map(|&s| s != NOT_TAKEN).collect();
            assert_eq!(taken, dense, "row {i}");
        }
    }

    /// The prefix argument the table memo rests on: a table filled at
    /// the widest budget answers every narrower budget exactly as a DP
    /// run at that budget, options and latency bits included.
    #[test]
    fn wide_table_backtracks_every_narrower_budget_exactly() {
        use crate::prefetch::StreamingMode;
        let g = chain_graph();
        let (d, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let plan = real_plan(&g, &d, &p);
        let bufs = singleton_buffers(&g, &ev);
        let wide = 200 * CAPACITY_UNIT_BYTES;
        let table = dp(
            &AllocProblem::with_streaming(&ev, &bufs, wide, &plan, StreamingMode::Auto),
            200,
        )
        .table;
        for units in 1..=200 {
            let budget = units as u64 * CAPACITY_UNIT_BYTES + 7;
            let problem =
                AllocProblem::with_streaming(&ev, &bufs, budget, &plan, StreamingMode::Auto);
            let fresh = allocate(&problem);
            let read = backtrack(&problem, &table, units);
            assert_eq!(read.chosen, fresh.chosen, "{units} units");
            assert_eq!(read.modes, fresh.modes, "{units} units");
            assert_eq!(read.latency.to_bits(), fresh.latency.to_bits());
        }
    }

    #[test]
    fn table_memo_keeps_the_widest_table_per_key_up_to_its_cap() {
        let g = chain_graph();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs = singleton_buffers(&g, &ev);
        let plan = PrefetchPlan::default();
        let memo = TableMemo::new(200);
        let colorings = std::cell::Cell::new(0);
        let at = |units: u64| AllocProblem::new(&ev, &bufs, units * CAPACITY_UNIT_BYTES, &plan);
        // A DP at `width` columns fills one cell per buffer per column.
        let dp_at = |width: usize| (0, (bufs.len() * (width + 1)) as u64);
        // The split loop's order: the key's buffer set, then its
        // allocation. A table is kept only beside a stored buffer set.
        let hits_of = |problem: &AllocProblem<'_>, edges: &[FalseEdge]| {
            let set = memo.buffers(edges, || {
                colorings.set(colorings.get() + 1);
                bufs.clone()
            });
            assert_eq!(&set[..], &bufs[..]);
            ev.take_stats();
            let out = memo.allocate(problem, edges);
            let c = ev.take_stats();
            assert_eq!(out.chosen, allocate(problem).chosen);
            assert_eq!(out.modes, allocate(problem).modes);
            (c.dnnk_table_hits, c.dnnk_dp_cells)
        };
        // A first fill runs at the request's width; a budget inside the
        // stored width backtracks and fills no cell.
        assert_eq!(hits_of(&at(30), &[]), dp_at(30));
        assert_eq!(hits_of(&at(10), &[]), (1, 0));
        assert_eq!(hits_of(&at(30), &[]), (1, 0));
        // A refill runs at twice the stored width...
        assert_eq!(hits_of(&at(31), &[]), dp_at(60));
        assert_eq!(hits_of(&at(60), &[]), (1, 0));
        assert_eq!(hits_of(&at(45), &[]), (1, 0));
        // ...but never narrower than its request...
        assert_eq!(hits_of(&at(150), &[]), dp_at(150));
        // ...nor wider than the full budget.
        assert_eq!(hits_of(&at(151), &[]), dp_at(200));
        assert_eq!(hits_of(&at(200), &[]), (1, 0));
        assert_eq!(hits_of(&at(170), &[]), (1, 0));
        assert_eq!(colorings.get(), 1, "a stored buffer set is read");
        let footprint = memo.footprint();
        assert_eq!((footprint.keys, footprint.tables), (1, 1));
        // Other keys fill the memo up to its cap; past it, a new key's
        // buffer set is colored, and its DP run at the request's width,
        // without being stored.
        let edge = |k: usize| {
            let v = ValueId::Feature(NodeId::new(k));
            (v, ValueId::Weight(NodeId::new(k)))
        };
        for k in 1..MAX_STORED_TABLES + 4 {
            hits_of(&at(20), &[edge(k)]);
        }
        let footprint = memo.footprint();
        assert_eq!(footprint.keys, MAX_STORED_TABLES);
        assert_eq!(footprint.tables, MAX_STORED_TABLES);
        assert!(footprint.buffer_bytes > 0 && footprint.table_bytes > 0);
        let colored = colorings.get();
        let past_cap = [edge(MAX_STORED_TABLES + 2)];
        assert_eq!(hits_of(&at(10), &past_cap), dp_at(10));
        assert_eq!(hits_of(&at(30), &past_cap), dp_at(30));
        assert_eq!(
            colorings.get(),
            colored + 2,
            "past the cap, every call colors"
        );
        assert_eq!(hits_of(&at(10), &[edge(1)]), (1, 0));
        assert_eq!(colorings.get(), colored + 2);
    }

    /// The DP looks a gain up once per run of equal context keys but
    /// counts the gain cache per column: hits and misses add up to one
    /// per column each option sweeps.
    #[test]
    fn gain_cache_counts_every_swept_column() {
        use crate::prefetch::StreamingMode;
        let g = chain_graph();
        let (d, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let plan = real_plan(&g, &d, &p);
        let bufs = singleton_buffers(&g, &ev);
        let units = 200;
        let budget = units as u64 * CAPACITY_UNIT_BYTES;
        let problem = AllocProblem::with_streaming(&ev, &bufs, budget, &plan, StreamingMode::Auto);
        ev.take_stats();
        dp(&problem, units);
        let c = ev.take_stats();
        let swept: u64 = (0..bufs.len())
            .flat_map(|i| problem.options_of(i))
            .map(|option| capacity_units(option.bytes))
            .filter(|size| (1..=units).contains(size))
            .map(|size| (units + 1 - size) as u64)
            .sum();
        assert_eq!(c.gain_exact_recomputes, 0, "every row fits the cache key");
        assert!(c.gain_cache_misses > 0 && c.gain_cache_hits > c.gain_cache_misses);
        assert_eq!(c.gain_cache_hits + c.gain_cache_misses, swept);
    }

    #[test]
    fn gain_curve_is_anchored_and_nonnegative() {
        let g = chain_graph();
        let (_, p) = setup(&g);
        let ev = Evaluator::new(&g, &p);
        let bufs = singleton_buffers(&g, &ev);
        let budget = 16 << 20;
        let problem = AllocProblem::new(&ev, &bufs, budget, &PrefetchPlan::default());
        let curve = gain_curve(&problem, None);
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
        let curve = gain_curve(&problem, None);
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
