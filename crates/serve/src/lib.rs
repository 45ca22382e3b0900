//! Planning-as-a-service for LCMM: a long-running daemon that answers
//! planning requests over a JSON-lines protocol.
//!
//! The batch CLI pays full pipeline cost per invocation; design-space
//! explorations and CI loops issue many near-duplicate requests. The
//! daemon amortises that: one process holds the memoized
//! [`lcmm_core::Harness`] caches plus an LRU cache of finished plans,
//! a fixed worker pool computes, and a bounded admission queue plus
//! per-request deadlines keep latency predictable under load.
//!
//! * [`protocol`] — the wire types: [`WireRequest`], [`WireResponse`],
//!   graph specs, and the deterministic plan summary;
//! * [`server`] — [`Server`]: worker pool, admission control, plan
//!   cache, health watcher, cancellation, graceful shutdown;
//! * [`wal`] — the write-ahead log that makes registry and cache
//!   state survive crashes and restarts;
//! * [`transport`] — the stdio loop and the readiness-polled TCP /
//!   Unix-socket event loop;
//! * [`client`] — the one-shot client behind `lcmm request`;
//! * [`cache`] — the plan LRU.
//!
//! The wire protocol is documented in `docs/SERVE.md`. In-process use
//! needs no socket at all:
//!
//! ```
//! use lcmm_serve::{Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default().with_workers(2));
//! let response = server.handle_line(r#"{"graph":"alexnet"}"#);
//! assert!(response.contains("\"ok\":true"));
//! let replay = server.handle_line(r#"{"graph":"alexnet"}"#);
//! assert!(replay.contains("\"cached\":true"));
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;
pub mod transport;
pub mod wal;

pub use cache::{CacheCounters, PlanCache};
pub use client::{request, Endpoint};
pub use lcmm_workload::histogram::LatencyHistogram;
pub use protocol::{GraphSpec, Op, WireRequest, WireResponse};
pub use server::{Server, ServerConfig};
pub use transport::{serve_stdio, serve_tcp, serve_tcp_listener, serve_unix};
pub use wal::{FsyncPolicy, Wal, WalRecord, WalStats};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering from poisoning instead of propagating the
/// panic. Every critical section in this crate leaves the guarded
/// state consistent at its possible panic points (or the state is
/// rebuilt by the caller), so a worker panic must not take down the
/// daemon by poisoning a shared lock — that was the crash the
/// panic-containment sweep fixed.
pub(crate) fn lock_safe<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
