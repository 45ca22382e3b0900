//! Integration seam between the fusion subsystem (`lcmm_fusion`) and
//! the pipeline.
//!
//! Fusion runs ahead of liveness as a *profile transform*: when
//! [`crate::LcmmOptions::fusion`] is [`FusionMode::Auto`], `prepare`
//! plans fused groups over the **unfused** latency table and applies
//! them, and everything downstream — liveness, interference, DNNK,
//! splitting, delta replays, gain curves — runs against the fused
//! table. Eliminated interior tensors are additionally dropped from the
//! feature-candidate set (see `pipeline::build_front_end`), shrinking
//! the interference graph.
//!
//! `prepare` has one caller, [`crate::PlanArtifacts::from_parts`],
//! which every planning route goes through: a one-shot
//! [`crate::PlanRequest`], [`crate::tenant_gain_curve`] and cached
//! delta replans all take the unfused profile and get fusion from
//! there. This is deliberate: fusion is **not idempotent** —
//! re-planning over an already-fused table could re-select groups the
//! first pass rejected for overlap (a group output's transfers are
//! still present after apply), producing wrong plans. One derivation
//! site makes double application structurally impossible, and keeps
//! the plan a pure function of `(graph, profile, design, options)` so
//! delta replays and memoised gain curves stay bit-identical to
//! one-shot runs.

use crate::pipeline::LcmmOptions;
use lcmm_fpga::{AccelDesign, GraphProfile};
use lcmm_fusion::FusionConfig;
use lcmm_graph::Graph;

pub use lcmm_fusion::{ExternalReload, FusedGroup, FusionMode, FusionPlan, MemberFactor};

/// Plans fusion for one `(graph, profile, design, options)` point and
/// applies it to the profile. Returns `None` when fusion is off or no
/// group survives costing — callers then run the legacy pipeline on
/// the original profile, byte-identical to pre-fusion builds.
///
/// `profile` must be the **unfused** latency table (see the module
/// docs for why re-fusing a fused table is unsound).
pub(crate) fn prepare(
    graph: &Graph,
    profile: &GraphProfile,
    design: &AccelDesign,
    options: &LcmmOptions,
) -> Option<(FusionPlan, GraphProfile)> {
    if options.fusion != FusionMode::Auto {
        return None;
    }
    let config = FusionConfig::from_design(design);
    let plan = lcmm_fusion::plan(graph, profile, &config);
    if plan.is_empty() {
        return None;
    }
    let fused = plan.apply(profile);
    Some((plan, fused))
}
