//! `lcmm sweep-budgets` — the AutoWS budget-sweep study.
//!
//! Replans the zoo across SRAM budgets from 1/16× to 1× of the VU9P
//! tensor budget, three ways per cell: the UMM baseline (budget-blind),
//! pure-resident LCMM (streaming off), and streaming-enabled LCMM
//! (`StreamingMode::Auto`). Streaming pays off exactly where the paper's
//! binary residency model starves — budgets too small to pin the hot
//! weights — so the interesting columns are the small fractions.
//!
//! Budget replans share one artifact build per model through the
//! harness's delta-planning cache, and the JSON output is deterministic
//! across `--jobs` (CI diffs it against goldens at two skewed budgets).

use crate::opts::Opts;
use crate::table::Table;
use lcmm_core::{Harness, LcmmOptions, LcmmResult, StreamingMode, ValueId, WeightMode};
use lcmm_fpga::{Device, Precision};
use lcmm_graph::Graph;
use serde::Serialize;

/// The default sweep grid: 1/16× … 1× of the design's tensor budget.
pub const DEFAULT_FRACTIONS: [(u64, u64); 5] = [(1, 16), (1, 8), (1, 4), (1, 2), (1, 1)];

/// One `(model, budget fraction)` cell of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRecord {
    /// Model name.
    pub model: String,
    /// Budget fraction as `num/den` of the design tensor budget.
    pub fraction: String,
    /// The absolute knapsack budget in bytes.
    pub budget_bytes: u64,
    /// UMM baseline latency (budget-independent), seconds.
    pub umm_latency: f64,
    /// Pure-resident LCMM latency (streaming off), seconds.
    pub pinned_latency: f64,
    /// Streaming-enabled LCMM latency (`StreamingMode::Auto`), seconds.
    pub streaming_latency: f64,
    /// Chosen weight buffers pinned whole in the streaming plan.
    pub pinned_buffers: usize,
    /// Chosen weight buffers streamed through the ping-pong pair.
    pub streamed_buffers: usize,
    /// Chosen weight buffers with a resident prefix + streamed tail.
    pub partial_buffers: usize,
}

impl SweepRecord {
    /// `pinned_latency / streaming_latency` — above 1 means streaming
    /// won the cell.
    #[must_use]
    pub fn streaming_speedup(&self) -> f64 {
        self.pinned_latency / self.streaming_latency
    }

    /// Whether streaming strictly beats both baselines on this cell.
    #[must_use]
    pub fn streaming_wins(&self) -> bool {
        self.streaming_latency < self.pinned_latency && self.streaming_latency < self.umm_latency
    }
}

/// The full sweep: `models × fractions` records in input order.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// All records, model-major then fraction order.
    pub records: Vec<SweepRecord>,
}

/// Counts the chosen weight buffers of a plan by mode.
fn mode_counts(result: &LcmmResult) -> (usize, usize, usize) {
    let (mut pinned, mut streamed, mut partial) = (0, 0, 0);
    let rows = result
        .buffers
        .iter()
        .zip(&result.chosen)
        .zip(&result.weight_modes);
    for ((buf, &chosen), &mode) in rows {
        if !chosen || !buf.members.iter().any(|m| matches!(m, ValueId::Weight(_))) {
            continue;
        }
        match mode {
            WeightMode::Pinned => pinned += 1,
            WeightMode::Streamed { .. } => streamed += 1,
            WeightMode::PartialResident { .. } => partial += 1,
        }
    }
    (pinned, streamed, partial)
}

/// Runs the sweep over `graphs × fractions` through the shared harness.
pub fn sweep(
    harness: &Harness,
    graphs: &[Graph],
    fractions: &[(u64, u64)],
    precision: Precision,
) -> Result<SweepReport, String> {
    let device = Device::vu9p();
    let cells: Vec<(usize, (u64, u64))> = (0..graphs.len())
        .flat_map(|gi| fractions.iter().map(move |&f| (gi, f)))
        .collect();
    let results = harness.par_map(&cells, |&(gi, (num, den))| -> Result<SweepRecord, String> {
        let graph = &graphs[gi];
        let design = harness
            .try_design(graph, &device, precision)
            .map_err(|e| format!("{}: {e}", graph.name()))?;
        let umm = harness.baseline_from_design(graph, &design);
        let budget = design.tensor_sram_budget() * num / den;
        let pinned = harness
            .try_replan_with_budget(graph, &design, LcmmOptions::default(), Some(budget), None)
            .map_err(|e| format!("{} pinned @{num}/{den}: {e}", graph.name()))?;
        let streaming = harness
            .try_replan_with_budget(
                graph,
                &design,
                LcmmOptions::default().with_weight_streaming(StreamingMode::Auto),
                Some(budget),
                None,
            )
            .map_err(|e| format!("{} streaming @{num}/{den}: {e}", graph.name()))?;
        let (pinned_buffers, streamed_buffers, partial_buffers) = mode_counts(&streaming);
        Ok(SweepRecord {
            model: graph.name().to_string(),
            fraction: format!("{num}/{den}"),
            budget_bytes: budget,
            umm_latency: umm.latency,
            pinned_latency: pinned.latency,
            streaming_latency: streaming.latency,
            pinned_buffers,
            streamed_buffers,
            partial_buffers,
        })
    });
    let mut records = Vec::with_capacity(results.len());
    for r in results {
        records.push(r?);
    }
    Ok(SweepReport { records })
}

/// Prints (or emits as JSON) the budget-sweep study.
pub fn run(opts: &Opts, harness: &Harness) -> Result<(), String> {
    let precision = opts.precision_or(Precision::Fix16);
    let graphs = match &opts.model {
        Some(name) => vec![opts.model_or(name)?],
        None => lcmm_graph::zoo::full_zoo(),
    };
    let fractions = opts
        .fractions
        .clone()
        .unwrap_or_else(|| DEFAULT_FRACTIONS.to_vec());
    let report = sweep(harness, &graphs, &fractions, precision)?;

    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    println!("AutoWS budget sweep at {precision} — latency in ms:\n");
    let mut table = Table::new([
        "model",
        "budget",
        "bytes",
        "umm",
        "pinned",
        "stream",
        "speedup",
        "modes p/s/t",
    ]);
    for r in &report.records {
        table.row([
            r.model.clone(),
            r.fraction.clone(),
            format!("{}", r.budget_bytes),
            format!("{:.3}", r.umm_latency * 1e3),
            format!("{:.3}", r.pinned_latency * 1e3),
            format!("{:.3}", r.streaming_latency * 1e3),
            format!("{:.3}x", r.streaming_speedup()),
            format!(
                "{}/{}/{}",
                r.pinned_buffers, r.streamed_buffers, r.partial_buffers
            ),
        ]);
    }
    table.print();

    println!("\nstreaming wins (strictly beats pinned LCMM and UMM):");
    for &(num, den) in &fractions {
        let fraction = format!("{num}/{den}");
        let at: Vec<&SweepRecord> = report
            .records
            .iter()
            .filter(|r| r.fraction == fraction)
            .collect();
        let wins = at.iter().filter(|r| r.streaming_wins()).count();
        println!("  {fraction:>5}x budget : {wins}/{} models", at.len());
    }
    println!(
        "\npaper shape: at full budget streaming changes nothing (pinning wins\n\
         everywhere the knapsack can afford it); as the budget shrinks the\n\
         ping-pong pair and partial residency reclaim the weight interface."
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcmm_graph::zoo;

    #[test]
    fn streaming_wins_at_one_eighth_budget_for_most_of_the_zoo() {
        // The tentpole acceptance bar: at 1/8× of the VU9P tensor
        // budget the streaming-enabled plan strictly beats both the
        // pure-resident LCMM plan and UMM on analytic latency for at
        // least half the zoo.
        let harness = Harness::new(1);
        let graphs = zoo::full_zoo();
        let report = sweep(&harness, &graphs, &[(1, 8)], Precision::Fix16).expect("sweep runs");
        assert_eq!(report.records.len(), graphs.len());
        let wins = report.records.iter().filter(|r| r.streaming_wins()).count();
        assert!(
            wins * 2 >= graphs.len(),
            "streaming won only {wins}/{} models at 1/8x budget: {:?}",
            graphs.len(),
            report
                .records
                .iter()
                .map(|r| format!("{} {:.3}x", r.model, r.streaming_speedup()))
                .collect::<Vec<_>>()
        );
        // And never loses to the pinned plan anywhere (same knapsack
        // with a superset of columns).
        for r in &report.records {
            assert!(
                r.streaming_latency <= r.pinned_latency + 1e-12,
                "{}: streaming regressed ({} > {})",
                r.model,
                r.streaming_latency,
                r.pinned_latency
            );
        }
    }

    #[test]
    fn full_budget_matches_pinned_plan_when_everything_fits() {
        // When the 1× budget can afford every profitable pin (squeezenet
        // is small enough), streaming must not distort the plan: the
        // knapsack prefers pinning on ties, so the latencies agree to
        // the bit and no buffer streams. Weight-heavy models (alexnet's
        // FC layers exceed even the full budget) legitimately keep
        // winning at 1× — that is the feature, not a regression.
        let harness = Harness::new(1);
        let graphs = vec![zoo::squeezenet()];
        let report = sweep(&harness, &graphs, &[(1, 1)], Precision::Fix16).expect("sweep runs");
        let r = &report.records[0];
        assert_eq!(
            r.streaming_latency.to_bits(),
            r.pinned_latency.to_bits(),
            "full-budget streaming shifted latency by {:.3}x",
            r.streaming_speedup()
        );
        assert_eq!((r.streamed_buffers, r.partial_buffers), (0, 0));
    }
}
