//! Analytic-model-vs-simulator validation (experiment A3).
//!
//! The analytic model assumes perfect per-layer overlap and contention-
//! free channels; the simulator relaxes both. This module measures the
//! drift so EXPERIMENTS.md can report how trustworthy the analytic
//! numbers are.

use crate::engine::{SimConfig, Simulator, WeightClass};
use lcmm_core::{Evaluator, LcmmResult, Residency, UmmBaseline, ValueId, WeightMode};
use lcmm_graph::Graph;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Analytic and simulated latency for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValidationPoint {
    /// Analytic end-to-end latency, seconds.
    pub analytic: f64,
    /// Simulated steady-state latency, seconds.
    pub simulated: f64,
}

impl ValidationPoint {
    /// `simulated / analytic` — 1.0 means perfect agreement; values
    /// above 1 mean the analytic model is optimistic.
    ///
    /// # Panics
    ///
    /// Panics unless both latencies are positive finite numbers. A
    /// zero or negative analytic latency would otherwise turn the
    /// drift ratio into `inf`/`NaN`, which serialises into the
    /// experiment tables as a plausible-looking column instead of
    /// failing the run that produced it.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        assert!(
            self.analytic.is_finite() && self.analytic > 0.0,
            "analytic latency must be positive and finite, got {}",
            self.analytic
        );
        assert!(
            self.simulated.is_finite() && self.simulated > 0.0,
            "simulated latency must be positive and finite, got {}",
            self.simulated
        );
        self.simulated / self.analytic
    }
}

/// UMM and LCMM validation for one network/precision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Uniform memory management (empty residency).
    pub umm: ValidationPoint,
    /// Full LCMM allocation.
    pub lcmm: ValidationPoint,
}

/// Derives the per-weight sharing classes from an LCMM result: weights
/// in multi-member chosen buffers are [`WeightClass::Shared`], and
/// single-member weight buffers follow the plan's per-buffer
/// [`WeightMode`] (pinned → persistent, streamed/partial → the matching
/// re-streaming class).
#[must_use]
pub fn weight_classes(result: &LcmmResult) -> HashMap<lcmm_graph::NodeId, WeightClass> {
    let mut classes = HashMap::new();
    let rows = result
        .buffers
        .iter()
        .zip(&result.chosen)
        .zip(&result.weight_modes);
    for ((buf, &chosen), &mode) in rows {
        if !chosen {
            continue;
        }
        let class = if buf.members.len() > 1 {
            WeightClass::Shared
        } else {
            match mode {
                WeightMode::Pinned => WeightClass::Persistent,
                WeightMode::Streamed { double_buffered } => {
                    WeightClass::Streamed { double_buffered }
                }
                WeightMode::PartialResident { resident_bytes } => WeightClass::PartialResident {
                    resident_bytes,
                    total_bytes: buf.bytes,
                },
            }
        };
        for &m in &buf.members {
            if let ValueId::Weight(n) = m {
                classes.insert(n, class);
            }
        }
    }
    classes
}

/// Derives the per-node fused tile counts from an LCMM result's fusion
/// plan, in the shape [`SimConfig::fused_tiles`] expects. Empty when
/// the plan fused nothing (the legacy pipeline).
#[must_use]
pub fn fused_tiles(result: &LcmmResult) -> HashMap<lcmm_graph::NodeId, usize> {
    result.fusion.tile_table().collect()
}

/// The latency table an LCMM result actually planned against: the raw
/// design profile with the result's fusion plan applied (identity when
/// nothing fused). Both the simulator and the analytic cross-checks
/// must use this table, or fused plans would be judged against
/// transfers they eliminated.
#[must_use]
pub fn effective_profile(graph: &Graph, result: &LcmmResult) -> lcmm_fpga::GraphProfile {
    let profile = result.design.profile(graph);
    if result.fusion.is_empty() {
        profile
    } else {
        result.fusion.apply(&profile)
    }
}

/// Simulates an LCMM result with its prefetch plan, sharing classes,
/// and — for fused plans — per-tile execution of fused group members.
#[must_use]
pub fn simulate_lcmm(graph: &Graph, result: &LcmmResult) -> f64 {
    let profile = effective_profile(graph, result);
    let sim = Simulator::new(graph, &profile);
    let config = SimConfig::default()
        .with_inferences(2) // steady state after the first pass
        .with_weight_classes(weight_classes(result))
        .with_prefetch(result.prefetch.clone())
        .with_fused_tiles(fused_tiles(result));
    sim.run(&result.residency, &config).steady_latency
}

/// Runs the full validation for one UMM/LCMM pair.
#[must_use]
pub fn validate(graph: &Graph, umm: &UmmBaseline, lcmm: &LcmmResult) -> ValidationReport {
    let umm_sim = Simulator::new(graph, &umm.profile).run(&Residency::new(), &SimConfig::default());
    let lcmm_profile = effective_profile(graph, lcmm);
    let lcmm_eval = Evaluator::new(graph, &lcmm_profile);
    ValidationReport {
        umm: ValidationPoint {
            analytic: umm.latency,
            simulated: umm_sim.steady_latency,
        },
        lcmm: ValidationPoint {
            analytic: lcmm_eval.total_latency(&lcmm.residency),
            simulated: simulate_lcmm(graph, lcmm),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcmm_core::pipeline::compare;
    use lcmm_fpga::{Device, Precision};
    use lcmm_graph::zoo;

    #[test]
    fn analytic_model_within_band_of_simulator() {
        let g = zoo::googlenet();
        let (umm, lcmm) = compare(&g, &Device::vu9p(), Precision::Fix16);
        let report = validate(&g, &umm, &lcmm);
        // The simulator adds contention, so it may only be slower —
        // but not wildly so.
        assert!(
            report.umm.ratio() >= 0.99,
            "umm ratio {}",
            report.umm.ratio()
        );
        assert!(report.umm.ratio() < 1.5, "umm ratio {}", report.umm.ratio());
        assert!(
            report.lcmm.ratio() >= 0.99,
            "lcmm ratio {}",
            report.lcmm.ratio()
        );
        assert!(
            report.lcmm.ratio() < 1.6,
            "lcmm ratio {}",
            report.lcmm.ratio()
        );
    }

    #[test]
    fn simulated_speedup_preserved() {
        // The paper's headline must survive simulation: LCMM beats UMM
        // with contention modelled.
        let g = zoo::googlenet();
        let (umm, lcmm) = compare(&g, &Device::vu9p(), Precision::Fix16);
        let report = validate(&g, &umm, &lcmm);
        let sim_speedup = report.umm.simulated / report.lcmm.simulated;
        assert!(sim_speedup > 1.05, "simulated speedup only {sim_speedup}");
    }

    #[test]
    fn ratio_of_valid_point() {
        let p = ValidationPoint {
            analytic: 0.004,
            simulated: 0.005,
        };
        assert!((p.ratio() - 1.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "analytic latency must be positive")]
    fn ratio_rejects_zero_analytic() {
        let p = ValidationPoint {
            analytic: 0.0,
            simulated: 0.005,
        };
        let _ = p.ratio();
    }

    #[test]
    #[should_panic(expected = "simulated latency must be positive")]
    fn ratio_rejects_nan_simulated() {
        let p = ValidationPoint {
            analytic: 0.004,
            simulated: f64::NAN,
        };
        let _ = p.ratio();
    }

    #[test]
    fn fused_plans_validate_within_band() {
        use lcmm_core::{FusionMode, LcmmOptions, PlanRequest, UmmBaseline};
        let g = zoo::resnet50();
        let device = Device::vu9p();
        let umm = UmmBaseline::build(&g, &device, Precision::Fix16);
        let design = lcmm_fpga::AccelDesign::explore(&g, &device, Precision::Fix16);
        let budget = Some(design.tensor_sram_budget() / 8);
        let lcmm = PlanRequest::new(&g, &device, Precision::Fix16)
            .options(
                LcmmOptions::default()
                    .with_fusion(FusionMode::Auto)
                    .with_tensor_budget(budget),
            )
            .with_design(design)
            .run()
            .unwrap();
        assert!(!lcmm.fusion.is_empty(), "expected fused groups");
        assert!(!fused_tiles(&lcmm).is_empty());
        let report = validate(&g, &umm, &lcmm);
        // The analytic side of the report must be the plan's own
        // latency: validate() scores fused plans on the fused table.
        assert!(
            (report.lcmm.analytic - lcmm.latency).abs() <= 1e-9 * lcmm.latency,
            "validate() disagrees with the plan: {} vs {}",
            report.lcmm.analytic,
            lcmm.latency
        );
        let ratio = report.lcmm.ratio();
        assert!((0.99..1.6).contains(&ratio), "fused lcmm ratio {ratio}");
    }

    #[test]
    fn weight_classes_follow_buffer_sharing() {
        let g = zoo::resnet152();
        let (_, lcmm) = compare(&g, &Device::vu9p(), Precision::Fix16);
        let classes = weight_classes(&lcmm);
        // There must be at least one shared weight buffer in a network
        // this deep, and classes only for resident weights.
        for node in classes.keys() {
            assert!(lcmm.residency.contains(ValueId::Weight(*node)));
        }
        assert!(
            classes.values().any(|&c| c == WeightClass::Shared),
            "expected some shared weight buffers"
        );
    }
}
