//! FPGA device and accelerator performance model for the LCMM framework.
//!
//! This crate replaces the paper's Vivado-HLS + VU9P hardware substrate
//! with an analytic model of the same accelerator family: the systolic
//! convolution array of Wei et al. (DAC'17, reference \[18\] of the LCMM
//! paper), attached to four DDR4 banks. The memory manager in `lcmm-core`
//! optimises exactly the quantities this crate computes — per-layer
//! compute latency and per-tensor off-chip transfer latency (the
//! "operation latency table" of the paper's Fig. 7(c)).
//!
//! # Quick tour
//!
//! ```
//! use lcmm_fpga::{AccelDesign, Device, Precision};
//!
//! let graph = lcmm_graph::zoo::googlenet();
//! let design = AccelDesign::explore(&graph, &Device::vu9p(), Precision::Fix16);
//! let profile = design.profile(&graph);
//!
//! // Every node gets a latency breakdown.
//! assert_eq!(profile.per_node.len(), graph.len());
//! assert!(profile.total_latency() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod design;
mod device;
mod latency;
mod precision;
mod tiling;

pub mod resources;
pub mod roofline;

pub use array::SystolicArray;
pub use design::AccelDesign;
pub use device::{DdrConfig, Device, DDR_CHUNK_OVERHEAD_BYTES};
pub use latency::{resolved_sources, Boundedness, GraphProfile, OpLatency, TensorKind};
pub use precision::Precision;
pub use resources::{MemoryPacking, ResourceReport};
pub use tiling::{choose_tiling, LoopOrder, TileBudget, TileChoice};
