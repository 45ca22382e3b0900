//! Layer Conscious Memory Management (LCMM) — the paper's contribution.
//!
//! LCMM decides, at compile time, which tensors of a DNN live in the
//! FPGA's on-chip SRAM and which stream through DRAM, so that the
//! memory-bound layers stop waiting on transfers. It combines four
//! passes (paper Fig. 4):
//!
//! 1. [`liveness`]/[`interference`] — feature tensors with disjoint
//!    lifespans share one *virtual buffer* (graph coloring minimising
//!    total bytes);
//! 2. [`prefetch`] — weights of memory-bound layers are fetched early
//!    enough to hide their load time; disjoint prefetch spans also share
//!    buffers;
//! 3. [`alloc`] — the DNNK knapsack assigns physical on-chip storage to
//!    the virtual buffers, maximising latency reduction under the SRAM
//!    budget with pivot compensation;
//! 4. [`splitting`] — spilled buffers whose members have very unequal
//!    value get split and retried.
//!
//! # Quick tour
//!
//! ```
//! use lcmm_core::{PlanRequest, UmmBaseline};
//! use lcmm_fpga::{Device, Precision};
//!
//! let graph = lcmm_graph::zoo::googlenet();
//! let device = Device::vu9p();
//! let umm = UmmBaseline::build(&graph, &device, Precision::Fix16);
//! let lcmm = PlanRequest::new(&graph, &device, Precision::Fix16)
//!     .run()
//!     .expect("googlenet fits the VU9P DSP budget");
//!
//! assert!(lcmm.latency <= umm.latency, "LCMM must never lose to UMM");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod calibrate;
pub mod cancel;
pub mod coplan;
pub mod delta;
pub mod design_space;
pub mod energy;
pub mod error;
pub mod eval;
pub mod exact;
pub mod fusion;
pub mod harness;
pub mod interference;
pub mod liveness;
pub mod manifest;
pub mod paper;
pub mod pipeline;
pub mod prefetch;
pub mod profiling;
pub mod report;
pub mod request;
pub mod splitting;
pub mod strategies;
pub mod umm;
pub mod value;

pub use lcmm_graph::fast_hash;

pub use cancel::CancelToken;
pub use coplan::{tenant_gain_curve, GainCurve};
pub use delta::PlanArtifacts;
pub use error::LcmmError;
pub use eval::{Evaluator, Residency};
pub use exact::{Exact, ExactFields};
pub use fusion::{FusedGroup, FusionMode, FusionPlan};
pub use harness::Harness;
pub use pipeline::{AllocatorKind, LcmmOptions, LcmmResult, Pipeline};
pub use prefetch::{StreamingMode, WeightMode, STREAM_PING_PONG_BYTES};
pub use profiling::PassStats;
pub use request::PlanRequest;
pub use umm::UmmBaseline;
pub use value::{TensorValue, ValueId, ValueKind, ValueTable};
