//! The typed planning entry point.
//!
//! [`PlanRequest`] collapses the historical `Pipeline::run` /
//! `run_with_design` / `run_with_profile` trio into one builder:
//!
//! ```
//! use lcmm_core::{AllocatorKind, PlanRequest};
//! use lcmm_fpga::{Device, Precision};
//!
//! let graph = lcmm_graph::zoo::alexnet();
//! let device = Device::vu9p();
//! let result = PlanRequest::new(&graph, &device, Precision::Fix16)
//!     .allocator(AllocatorKind::Dnnk)
//!     .run()
//!     .expect("alexnet on a VU9P is feasible");
//! assert!(result.latency > 0.0);
//! ```
//!
//! Precomputed artefacts slot in through [`PlanRequest::with_design`]
//! (an explored UMM base design) and [`PlanRequest::with_profile`] (the
//! latency table of the *derated* design). A [`CancelToken`]
//! or [`PlanRequest::deadline`] makes the run abortable at every pass
//! boundary. A request is the one-shot use of [`PlanArtifacts`]: it
//! builds a throwaway artifact set and replays its budget once.

use crate::cancel::{check_opt, CancelToken};
use crate::delta::PlanArtifacts;
use crate::error::LcmmError;
use crate::pipeline::{AllocatorKind, LcmmOptions, LcmmResult, Pipeline};
use lcmm_fpga::{AccelDesign, Device, GraphProfile, Precision};
use lcmm_graph::Graph;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A single planning request: one graph on one device at one precision,
/// plus everything optional (options, precomputed artefacts,
/// cancellation).
#[derive(Debug, Clone)]
pub struct PlanRequest<'a> {
    graph: &'a Graph,
    device: &'a Device,
    precision: Precision,
    options: LcmmOptions,
    design: Option<AccelDesign>,
    profile: Option<&'a GraphProfile>,
    cancel: Option<CancelToken>,
}

impl<'a> PlanRequest<'a> {
    /// Starts a request with default [`LcmmOptions`].
    #[must_use]
    pub fn new(graph: &'a Graph, device: &'a Device, precision: Precision) -> Self {
        Self {
            graph,
            device,
            precision,
            options: LcmmOptions::default(),
            design: None,
            profile: None,
            cancel: None,
        }
    }

    /// Replaces the whole option set.
    #[must_use]
    pub fn options(mut self, options: LcmmOptions) -> Self {
        self.options = options;
        self
    }

    /// Selects the allocator for the knapsack stage (shorthand for
    /// adapting [`LcmmOptions`]).
    #[must_use]
    pub fn allocator(mut self, allocator: AllocatorKind) -> Self {
        self.options = self.options.with_allocator(allocator);
        self
    }

    /// Sets the knapsack-stage SRAM budget (shorthand for adapting
    /// [`LcmmOptions`]). This is the one option a
    /// [`crate::delta::PlanArtifacts`] replay can vary without
    /// rebuilding artifacts.
    #[must_use]
    pub fn tensor_budget(mut self, budget: Option<u64>) -> Self {
        self.options = self.options.with_tensor_budget(budget);
        self
    }

    /// Starts from an already-explored (UMM) base design instead of
    /// running design-space exploration — the equivalent of the retired
    /// `Pipeline::run_with_design`.
    #[must_use]
    pub fn with_design(mut self, design: AccelDesign) -> Self {
        self.design = Some(design);
        self
    }

    /// Supplies the latency table of the **derated** design passed to
    /// [`PlanRequest::with_design`] (`profile` must equal
    /// `design.profile(graph)`), skipping both derating and profiling —
    /// the equivalent of the retired `Pipeline::run_with_profile`.
    #[must_use]
    pub fn with_profile(mut self, profile: &'a GraphProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Attaches a cancellation token; the run aborts at the next pass
    /// boundary after the token trips.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Gives the run a deadline measured from now. When a token from
    /// [`PlanRequest::cancel_token`] is already attached its deadline is
    /// left untouched; otherwise a fresh deadline-only token is created.
    #[must_use]
    pub fn deadline(mut self, budget: Duration) -> Self {
        if self.cancel.is_none() {
            self.cancel = Some(CancelToken::with_deadline(Instant::now() + budget));
        }
        self
    }

    /// The options currently configured.
    #[must_use]
    pub fn options_ref(&self) -> &LcmmOptions {
        &self.options
    }

    /// Runs the pipeline.
    ///
    /// # Errors
    ///
    /// * [`LcmmError::BudgetInfeasible`] — design-space exploration
    ///   found no array within the device's DSP budget;
    /// * [`LcmmError::InvalidRequest`] — inconsistent inputs (profile
    ///   without design, design/precision mismatch);
    /// * [`LcmmError::Cancelled`] / [`LcmmError::DeadlineExceeded`] —
    ///   the cancel token tripped at a pass boundary.
    pub fn run(self) -> Result<LcmmResult, LcmmError> {
        let cancel = self.cancel.as_ref();
        if let Some(design) = &self.design {
            if design.precision != self.precision {
                return Err(LcmmError::InvalidRequest(format!(
                    "design precision {} does not match request precision {}",
                    design.precision, self.precision
                )));
            }
        }
        if self.design.is_none() && self.profile.is_some() {
            return Err(LcmmError::InvalidRequest(
                "with_profile requires with_design (the derated design the profile belongs to)"
                    .to_string(),
            ));
        }
        let (design, profile, profile_seconds) = match (self.design, self.profile) {
            (Some(design), Some(profile)) => (design, Arc::new(profile.clone()), 0.0),
            (base, _) => {
                let base = match base {
                    Some(base) => base,
                    None => AccelDesign::try_explore(self.graph, self.device, self.precision)
                        .map_err(LcmmError::BudgetInfeasible)?,
                };
                check_opt(cancel)?;
                let design = Pipeline::new(self.options).lcmm_design(base);
                let t_profile = Instant::now();
                let profile = Arc::new(design.profile(self.graph));
                (design, profile, t_profile.elapsed().as_secs_f64())
            }
        };
        let mut result =
            PlanArtifacts::plan_once(self.graph, design, profile, self.options, cancel)?;
        result.stats.profile_seconds = profile_seconds;
        result.stats.total_seconds += profile_seconds;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcmm_graph::zoo;

    #[test]
    fn request_matches_explicit_explore_bit_identically() {
        let g = zoo::alexnet();
        let device = Device::vu9p();
        let base = AccelDesign::explore(&g, &device, Precision::Fix16);
        let explicit = PlanRequest::new(&g, &device, Precision::Fix16)
            .with_design(base)
            .run()
            .expect("explored design is feasible");
        let new = PlanRequest::new(&g, &device, Precision::Fix16)
            .run()
            .expect("feasible");
        assert_eq!(new.latency, explicit.latency);
        assert_eq!(new.residency, explicit.residency);
        assert_eq!(new.chosen, explicit.chosen);
        assert_eq!(new.split_iterations, explicit.split_iterations);
    }

    #[test]
    fn request_with_design_and_profile_match_each_other() {
        let g = zoo::alexnet();
        let device = Device::vu9p();
        let base = AccelDesign::explore(&g, &device, Precision::Fix16);
        let via_design = PlanRequest::new(&g, &device, Precision::Fix16)
            .with_design(base.clone())
            .run()
            .expect("feasible");
        let derated = Pipeline::new(LcmmOptions::default()).lcmm_design(base);
        let profile = derated.profile(&g);
        let via_profile = PlanRequest::new(&g, &device, Precision::Fix16)
            .with_design(derated)
            .with_profile(&profile)
            .run()
            .expect("feasible");
        assert_eq!(via_design.latency, via_profile.latency);
        assert_eq!(via_design.chosen, via_profile.chosen);
    }

    #[test]
    fn profile_without_design_is_invalid() {
        let g = zoo::alexnet();
        let device = Device::vu9p();
        let design = AccelDesign::explore(&g, &device, Precision::Fix16);
        let profile = design.profile(&g);
        let err = PlanRequest::new(&g, &device, Precision::Fix16)
            .with_profile(&profile)
            .run()
            .unwrap_err();
        assert!(matches!(err, LcmmError::InvalidRequest(_)));
    }

    #[test]
    fn precision_mismatch_is_invalid() {
        let g = zoo::alexnet();
        let device = Device::vu9p();
        let design = AccelDesign::explore(&g, &device, Precision::Fix8);
        let err = PlanRequest::new(&g, &device, Precision::Fix16)
            .with_design(design)
            .run()
            .unwrap_err();
        assert!(matches!(err, LcmmError::InvalidRequest(_)));
    }

    #[test]
    fn infeasible_dsp_budget_reports_error_not_panic() {
        let g = zoo::alexnet();
        let mut device = Device::vu9p();
        device.dsp_slices = 1; // nothing fits
        let err = PlanRequest::new(&g, &device, Precision::Fix16)
            .run()
            .unwrap_err();
        assert!(matches!(err, LcmmError::BudgetInfeasible(_)));
        assert_eq!(err.code(), "infeasible");
    }

    #[test]
    fn cancelled_token_aborts_before_work() {
        let g = zoo::alexnet();
        let device = Device::vu9p();
        let token = CancelToken::new();
        token.cancel();
        let err = PlanRequest::new(&g, &device, Precision::Fix16)
            .cancel_token(token)
            .run()
            .unwrap_err();
        assert_eq!(err, LcmmError::Cancelled);
    }

    #[test]
    fn zero_deadline_times_out() {
        let g = zoo::alexnet();
        let device = Device::vu9p();
        let err = PlanRequest::new(&g, &device, Precision::Fix16)
            .deadline(Duration::ZERO)
            .run()
            .unwrap_err();
        assert_eq!(err, LcmmError::DeadlineExceeded);
    }
}
