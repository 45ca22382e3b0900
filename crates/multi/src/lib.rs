//! Multi-tenant co-planning: several DNNs sharing one FPGA.
//!
//! LCMM's passes assume one network owns the whole device. This crate
//! plans N networks *jointly*: device resources (DSP slices, DRAM
//! banks) are partitioned across tenants — from explicit per-tenant
//! shares or via a search over splits — and the on-chip SRAM pool is
//! divided by a **joint DNNK knapsack** over the union of all tenants'
//! virtual buffers. Because tenants' buffers never touch each other's
//! ops, that joint knapsack decomposes exactly into one per-tenant DNNK
//! value curve ([`lcmm_core::coplan`]) plus a second-level DP over the
//! capacity split — per-tenant pivot compensation survives intact, so
//! one tenant's non-bottleneck tensors cannot crowd out another
//! tenant's bottleneck ones.
//!
//! Cross-tenant DRAM contention is estimated by
//! [`lcmm_sim::contention`]: each tenant is simulated against its
//! partition, and the interleaved demands are composed on the shared
//! channels, reusing the simulator's oversubscription accounting.
//!
//! # Quick tour
//!
//! ```
//! use lcmm_core::Harness;
//! use lcmm_fpga::{Device, Precision};
//! use lcmm_multi::{coplan, CoplanOptions, TenantSpec};
//!
//! let harness = Harness::new(1);
//! let tenants = vec![
//!     TenantSpec::new("mobilenet", lcmm_graph::zoo::mobilenet(), Precision::Fix16),
//!     TenantSpec::new("alexnet", lcmm_graph::zoo::alexnet(), Precision::Fix16),
//! ];
//! let plan = coplan(&harness, &Device::vu9p(), &tenants, &CoplanOptions::default())
//!     .expect("two small models fit a VU9P");
//! assert_eq!(plan.tenants.len(), 2);
//! assert!(plan.tenants.iter().all(|t| t.contended_latency > 0.0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod plan;
mod search;
mod summary;

pub use plan::{joint_capacity_dp, plan_with_shares, pool_bytes};
pub use search::{search_shares, share_grid};
pub use summary::coplan_summary;

use lcmm_core::{ExactFields, Harness, LcmmError, LcmmOptions, LcmmResult};
use lcmm_fpga::{Device, Precision};
use lcmm_graph::Graph;
use lcmm_sim::ContentionReport;
use serde::{Deserialize, Serialize};

/// One network sharing the device.
///
/// Construct with [`TenantSpec::new`] and the `with_*` builders
/// (mirroring `LcmmOptions`); the struct is `#[non_exhaustive]` so new
/// knobs can be added without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TenantSpec {
    /// Model name (registry key in `lcmm serve`, label in reports).
    pub name: String,
    /// The network.
    pub graph: Graph,
    /// Arithmetic precision for this tenant's design.
    pub precision: Precision,
    /// Weight of this tenant in the aggregate objective (default 1.0).
    pub weight: f64,
    /// Optional latency SLO in seconds, the workload simulator's SLO
    /// for this tenant when its trace sets none.
    pub slo_seconds: Option<f64>,
    /// Explicit compute share in `(0, 1]`. When any tenant leaves this
    /// `None`, the planner searches over splits instead (all tenants
    /// must then leave it `None`).
    pub share: Option<f64>,
}

impl TenantSpec {
    /// A tenant with weight 1, no SLO and a searched share.
    #[must_use]
    pub fn new(name: impl Into<String>, graph: Graph, precision: Precision) -> Self {
        Self {
            name: name.into(),
            graph,
            precision,
            weight: 1.0,
            slo_seconds: None,
            share: None,
        }
    }

    /// Returns a copy with an explicit compute share.
    #[must_use]
    pub fn with_share(mut self, share: f64) -> Self {
        self.share = Some(share);
        self
    }

    /// Returns a copy with an objective weight.
    #[must_use]
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Returns a copy with a latency SLO in seconds.
    #[must_use]
    pub fn with_slo_seconds(mut self, slo: f64) -> Self {
        self.slo_seconds = Some(slo);
        self
    }
}

/// Co-planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct CoplanOptions {
    /// Pipeline options applied to every tenant (the tenant's SRAM
    /// share overrides `tensor_budget` internally).
    pub options: LcmmOptions,
    /// Share-grid resolution for the split search: shares move in steps
    /// of `1 / search_steps`.
    pub search_steps: usize,
}

impl Default for CoplanOptions {
    fn default() -> Self {
        Self {
            options: LcmmOptions::default(),
            search_steps: 8,
        }
    }
}

/// Co-planner configurations key apart exactly where their JSON differs
/// (see [`lcmm_core::exact`]).
impl ExactFields for CoplanOptions {
    type Fields<'a> = (<LcmmOptions as ExactFields>::Fields<'a>, usize);

    fn exact_fields(&self) -> Self::Fields<'_> {
        let CoplanOptions {
            options,
            search_steps,
        } = self;
        (options.exact_fields(), *search_steps)
    }
}

impl CoplanOptions {
    /// Returns a copy with different per-tenant pipeline options.
    #[must_use]
    pub fn with_options(mut self, options: LcmmOptions) -> Self {
        self.options = options;
        self
    }

    /// Returns a copy with a different search-grid resolution.
    #[must_use]
    pub fn with_search_steps(mut self, steps: usize) -> Self {
        self.search_steps = steps;
        self
    }
}

/// One tenant's slice of a co-plan.
#[derive(Debug, Clone)]
pub struct TenantPlan {
    /// Tenant name.
    pub name: String,
    /// Compute share granted (DSP slices, DRAM banks).
    pub share: f64,
    /// SRAM bytes granted by the joint knapsack.
    pub sram_budget: u64,
    /// The tenant's finalised single-model plan under that budget.
    pub result: LcmmResult,
    /// Simulated uncontended steady-state latency, seconds.
    pub steady_latency: f64,
    /// Latency after cross-tenant channel contention, seconds.
    pub contended_latency: f64,
    /// Contention slowdown factor (≥ 1).
    pub slowdown: f64,
}

/// A searched split and its aggregate scores (one Pareto-frontier
/// candidate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitPoint {
    /// Per-tenant compute shares, in tenant order.
    pub shares: Vec<f64>,
    /// Σ weighted contended latency, seconds.
    pub weighted_latency: f64,
    /// Aggregate throughput, inferences per second (Σ 1/latency).
    pub throughput: f64,
    /// The minimised objective's value at this split: the weighted
    /// contended latency.
    pub objective_value: f64,
    /// Whether the point is Pareto-optimal in
    /// (weighted_latency ↓, throughput ↑) over the searched grid.
    pub pareto: bool,
}

/// A complete multi-tenant co-plan.
#[derive(Debug, Clone)]
pub struct Coplan {
    /// The shared device.
    pub device: Device,
    /// Per-tenant plans, in input order.
    pub tenants: Vec<TenantPlan>,
    /// Shared SRAM pool the joint knapsack divided, bytes.
    pub pool_bytes: u64,
    /// Cross-tenant DRAM contention estimate.
    pub contention: ContentionReport,
    /// Value of the minimised objective for the chosen split.
    pub objective_value: f64,
    /// Every searched split with aggregate scores (a single entry when
    /// shares were explicit).
    pub frontier: Vec<SplitPoint>,
}

impl Coplan {
    /// The tenant planned for `name`, if present.
    #[must_use]
    pub fn tenant(&self, name: &str) -> Option<&TenantPlan> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// Sum of the per-tenant SRAM grants, bytes (≤ [`Coplan::pool_bytes`]).
    #[must_use]
    pub fn allocated_pool_bytes(&self) -> u64 {
        self.tenants.iter().map(|t| t.sram_budget).sum()
    }
}

/// Plans `tenants` jointly on `device`.
///
/// With explicit shares on every tenant the split is taken as given
/// (shares must sum to at most 1); with no shares the planner searches
/// the share grid and keeps the split minimising the weighted contended
/// latency. Mixing explicit and searched shares is rejected.
///
/// # Errors
///
/// [`LcmmError::InvalidRequest`] for empty/duplicate/mis-shared tenant
/// sets, and any error of the underlying single-model pipeline (e.g.
/// [`LcmmError::BudgetInfeasible`] when a share leaves a tenant too few
/// DSPs for the smallest systolic array).
pub fn coplan(
    harness: &Harness,
    device: &Device,
    tenants: &[TenantSpec],
    opts: &CoplanOptions,
) -> Result<Coplan, LcmmError> {
    validate_tenants(tenants)?;
    let explicit: Vec<Option<f64>> = tenants.iter().map(|t| t.share).collect();
    if explicit.iter().all(Option::is_some) {
        let shares: Vec<f64> = explicit.into_iter().map(Option::unwrap).collect();
        let sum: f64 = shares.iter().sum();
        if sum > 1.0 + 1e-9 {
            return Err(LcmmError::InvalidRequest(format!(
                "tenant shares sum to {sum:.3} > 1"
            )));
        }
        let (mut plan, point) = plan_with_shares(harness, device, tenants, &shares, opts)?;
        plan.frontier = vec![SplitPoint {
            pareto: true,
            ..point
        }];
        Ok(plan)
    } else if explicit.iter().all(Option::is_none) {
        search_shares(harness, device, tenants, opts)
    } else {
        Err(LcmmError::InvalidRequest(
            "either every tenant or no tenant may carry an explicit share".to_string(),
        ))
    }
}

fn validate_tenants(tenants: &[TenantSpec]) -> Result<(), LcmmError> {
    if tenants.is_empty() {
        return Err(LcmmError::InvalidRequest(
            "a co-plan needs at least one tenant".to_string(),
        ));
    }
    for (i, t) in tenants.iter().enumerate() {
        if t.name.is_empty() {
            return Err(LcmmError::InvalidRequest(format!(
                "tenant {i} has an empty name"
            )));
        }
        if tenants[..i].iter().any(|u| u.name == t.name) {
            return Err(LcmmError::InvalidRequest(format!(
                "duplicate tenant name {:?}",
                t.name
            )));
        }
        if !(t.weight.is_finite() && t.weight > 0.0) {
            return Err(LcmmError::InvalidRequest(format!(
                "tenant {:?} weight {} must be positive and finite",
                t.name, t.weight
            )));
        }
        if let Some(s) = t.share {
            if !(s.is_finite() && s > 0.0 && s <= 1.0) {
                return Err(LcmmError::InvalidRequest(format!(
                    "tenant {:?} share {s} outside (0, 1]",
                    t.name
                )));
            }
        }
        if let Some(slo) = t.slo_seconds {
            if !(slo.is_finite() && slo > 0.0) {
                return Err(LcmmError::InvalidRequest(format!(
                    "tenant {:?} SLO {slo} must be positive and finite",
                    t.name
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcmm_graph::zoo;

    fn two_tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new("mobilenet", zoo::mobilenet(), Precision::Fix16),
            TenantSpec::new("alexnet", zoo::alexnet(), Precision::Fix16),
        ]
    }

    #[test]
    fn rejects_empty_and_duplicate_tenants() {
        let harness = Harness::new(1);
        let device = Device::vu9p();
        let opts = CoplanOptions::default();
        assert!(matches!(
            coplan(&harness, &device, &[], &opts),
            Err(LcmmError::InvalidRequest(_))
        ));
        let mut dup = two_tenants();
        dup[1].name = "mobilenet".to_string();
        assert!(matches!(
            coplan(&harness, &device, &dup, &opts),
            Err(LcmmError::InvalidRequest(_))
        ));
    }

    #[test]
    fn rejects_mixed_and_oversubscribed_shares() {
        let harness = Harness::new(1);
        let device = Device::vu9p();
        let opts = CoplanOptions::default();
        let mut mixed = two_tenants();
        mixed[0].share = Some(0.5);
        assert!(matches!(
            coplan(&harness, &device, &mixed, &opts),
            Err(LcmmError::InvalidRequest(_))
        ));
        let mut over = two_tenants();
        over[0].share = Some(0.7);
        over[1].share = Some(0.7);
        assert!(matches!(
            coplan(&harness, &device, &over, &opts),
            Err(LcmmError::InvalidRequest(_))
        ));
    }

    #[test]
    fn explicit_shares_plan_both_tenants() {
        let harness = Harness::new(1);
        let device = Device::vu9p();
        let mut tenants = two_tenants();
        tenants[0].share = Some(0.5);
        tenants[1].share = Some(0.5);
        let plan = coplan(&harness, &device, &tenants, &CoplanOptions::default())
            .expect("half-and-half fits");
        assert_eq!(plan.tenants.len(), 2);
        assert_eq!(plan.frontier.len(), 1);
        assert!(plan.allocated_pool_bytes() <= plan.pool_bytes);
        for t in &plan.tenants {
            assert!(t.steady_latency > 0.0);
            assert!(t.contended_latency >= t.steady_latency - 1e-15);
            assert!(t.slowdown >= 1.0);
        }
        assert!(plan.tenant("mobilenet").is_some());
        assert!(plan.tenant("vgg16").is_none());
    }
}
