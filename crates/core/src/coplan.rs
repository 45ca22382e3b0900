//! Per-tenant analysis for multi-tenant co-planning.
//!
//! Co-planning N networks on one device needs, for each tenant, the
//! DNNK *value curve* — the best achievable latency reduction as a
//! function of the SRAM capacity granted to that tenant. Because the
//! tenants' virtual buffers never touch each other's ops, the joint
//! knapsack over the union of all buffers decomposes exactly into one
//! curve per tenant plus a second-level DP over the capacity split (the
//! `lcmm_multi` crate runs that DP); per-tenant pivot compensation is
//! preserved because each curve is produced by the unmodified DNNK DP.
//!
//! The curve is computed from passes 1–2 (feature lifespans + prefetch
//! spans) and the *initial* buffer coloring — splitting refinement is
//! deliberately left to the per-tenant finalisation runs, which replan
//! with [`crate::LcmmOptions::tensor_budget`] set to the chosen share.

use crate::delta::PlanArtifacts;
use crate::pipeline::LcmmOptions;
use lcmm_fpga::{AccelDesign, GraphProfile};
use lcmm_graph::Graph;
use std::sync::Arc;

/// SRAM capacity quantum shared with the DNNK DP (one URAM block).
pub use crate::alloc::CAPACITY_UNIT_BYTES;

/// A tenant's DNNK value curve over quantised capacity.
#[derive(Debug, Clone)]
pub struct GainCurve {
    values: Vec<f64>,
}

impl GainCurve {
    /// Builds a curve from raw values (entry `u` = gain at `u` units).
    /// Useful for tests and for synthesising curves outside the DP.
    #[must_use]
    pub fn from_values(values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "a curve needs at least the 0 entry");
        Self { values }
    }

    /// Number of capacity units the curve covers (entries are `0..=units`).
    #[must_use]
    pub fn units(&self) -> usize {
        self.values.len().saturating_sub(1)
    }

    /// Best latency reduction (seconds) at `units` capacity units,
    /// saturating at the curve's last entry.
    #[must_use]
    pub fn value_at(&self, units: usize) -> f64 {
        let i = units.min(self.values.len().saturating_sub(1));
        self.values[i]
    }

    /// The raw curve, entry `u` = best gain with `u` units.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Builds the DNNK value curve for one tenant against a capacity pool
/// of `pool_bytes`: [`PlanArtifacts::gain_curve`] on a throwaway
/// artifact set.
///
/// `design` must be the tenant's *derated* LCMM design (the one the
/// finalisation run will use) and `profile` its unfused latency table
/// for `graph`; `options` controls which of passes 1–2 contribute
/// buffers and whether fusion runs, exactly as in the full pipeline. The
/// curve always uses the DNNK DP regardless of `options.allocator` — it
/// is a split-search estimate, and the finalisation runs apply the
/// configured allocator.
#[must_use]
pub fn tenant_gain_curve(
    graph: &Graph,
    profile: &GraphProfile,
    design: &AccelDesign,
    options: &LcmmOptions,
    pool_bytes: u64,
) -> GainCurve {
    let artifacts = PlanArtifacts::from_parts(
        graph,
        design.clone(),
        Arc::new(profile.clone()),
        *options,
        None,
    )
    .expect("a build without a cancel token cannot fail");
    let curve = artifacts
        .gain_curve(graph, pool_bytes)
        .expect("the artifacts were built for this graph");
    GainCurve::clone(&curve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use lcmm_fpga::{Device, Precision};
    use lcmm_graph::zoo;

    #[test]
    fn curve_matches_pipeline_budget_semantics() {
        let g = zoo::alexnet();
        let device = Device::vu9p();
        let base = AccelDesign::explore(&g, &device, Precision::Fix16);
        let pipeline = Pipeline::new(LcmmOptions::default());
        let design = pipeline.lcmm_design(base);
        let profile = design.profile(&g);
        let budget = design.tensor_sram_budget();
        let curve = tenant_gain_curve(&g, &profile, &design, &LcmmOptions::default(), budget);
        assert_eq!(curve.units(), (budget / CAPACITY_UNIT_BYTES) as usize);
        assert_eq!(curve.value_at(0), 0.0);
        assert!(curve.value_at(curve.units()) > 0.0);
        // Saturation beyond the pool.
        assert_eq!(
            curve.value_at(curve.units() + 10),
            curve.value_at(curve.units())
        );
    }

    #[test]
    fn disabled_passes_flatten_the_curve() {
        let g = zoo::alexnet();
        let device = Device::vu9p();
        let base = AccelDesign::explore(&g, &device, Precision::Fix16);
        let opts = LcmmOptions::default()
            .with_feature_reuse(false)
            .with_weight_prefetch(false);
        let pipeline = Pipeline::new(opts);
        let design = pipeline.lcmm_design(base);
        let profile = design.profile(&g);
        let curve = tenant_gain_curve(&g, &profile, &design, &opts, 16 << 20);
        assert!(curve.values().iter().all(|&v| v == 0.0));
    }
}
