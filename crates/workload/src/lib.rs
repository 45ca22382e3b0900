//! Trace-driven traffic simulation over multi-tenant co-plans.
//!
//! The planner stack ends at a *co-plan*: per-tenant designs, SRAM
//! grants and contended steady-state latencies for one fixed share
//! split. This crate asks the serving question on top of it — what do
//! tenants actually *observe* under real traffic (diurnal load, bursts,
//! SLO pressure), and when should the shares change?
//!
//! The design follows a strict schedule/executor split:
//!
//! * [`prepare`] plans every share-grid point up front (through the
//!   delta-replan path, so grid points reuse pass artifacts) into an
//!   immutable [`PreparedGrid`] — the *schedule*;
//! * [`simulate`] replays a [`WorkloadSpec`] trace against the grid —
//!   the *executor*: per-tenant FIFO admission queues, batching, and a
//!   [`lcmm_sim::Channel`] service timeline per tenant, recording each
//!   request's latency in completion order. Outcomes report p50/p99
//!   (selected, not sorted), SLO-violation curves and a latency
//!   [`LatencyHistogram`] rather than means. The tick loop only
//!   *consumes* prepared points, it never replans;
//! * the online controller ([`ControllerConfig`]) watches observed
//!   arrival rates over a sliding window and re-partitions tenant
//!   shares by switching between prepared grid points, with hysteresis
//!   and a re-plan budget so it cannot thrash.
//!
//! Everything is deterministic: arrivals come from a seeded LCG (or a
//! replayed trace file), the only parallelism is the harness's
//! order-preserving `par_map`, and reports use fixed-field-order JSON —
//! so `lcmm workload` output is byte-identical at any `--jobs`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod controller;
pub mod exec;
pub mod histogram;
pub mod report;
pub mod trace;

pub use controller::ControllerConfig;
pub use exec::{prepare, simulate, PreparedGrid, PreparedPoint, RunOutcome, TenantOutcome};
pub use histogram::LatencyHistogram;
pub use report::run_workload;
pub use trace::{parse_trace, ArrivalProcess, TenantTraffic, TraceSource, WorkloadSpec};
