//! Cycle-approximate event-driven simulator for LCMM accelerator
//! schedules.
//!
//! The analytic model in `lcmm-fpga`/`lcmm-core` scores each layer as
//! `max(compute, transfers)` in isolation. This simulator executes the
//! whole schedule against *shared* DMA channels: demand streams and
//! weight prefetches queue FIFO on the three tensor interfaces, so
//! contention, prefetch timing and cold-start effects emerge instead of
//! being assumed. It is the reproduction's stand-in for running the
//! bitstream, and `validate` quantifies how far the analytic model
//! drifts from it.
//!
//! # Quick tour
//!
//! ```
//! use lcmm_core::Residency;
//! use lcmm_fpga::{AccelDesign, Device, Precision};
//! use lcmm_sim::{SimConfig, Simulator};
//!
//! let graph = lcmm_graph::zoo::alexnet();
//! let design = AccelDesign::explore(&graph, &Device::vu9p(), Precision::Fix16);
//! let profile = design.profile(&graph);
//! let sim = Simulator::new(&graph, &profile);
//! let report = sim.run(&Residency::new(), &SimConfig::default());
//! assert!(report.total_latency > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
mod channel;
pub mod contention;
pub mod dram;
mod engine;
pub mod trace;
pub mod validate;

pub use channel::{Channel, ChannelKind};
pub use contention::{
    cross_tenant_contention, tenant_load, tenant_load_with_profile, ContentionReport, TenantLoad,
};
pub use engine::{EventKind, NodeTiming, SimConfig, SimEvent, SimReport, Simulator, WeightClass};
