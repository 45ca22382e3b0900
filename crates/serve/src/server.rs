//! The planning server: worker pool, bounded admission queue, plan
//! cache, deadlines, durability, and graceful shutdown.
//!
//! [`Server::handle_line`] is the transport-independent entry point —
//! every transport (stdin, the in-process integration tests) feeds
//! request lines through it and writes the returned response line
//! back; the event-loop transports use the non-blocking
//! [`Server::handle_line_async`] twin instead. Plan, co-plan, route and
//! workload requests are admitted into a bounded queue and picked up by
//! a fixed pool of worker threads sharing one memoized [`Harness`];
//! everything else (`ping`, `stats`, `register`, `shutdown`) is
//! answered inline, on the calling thread.
//!
//! One kind of plan request is answered inline too: a plan of a zoo net
//! this process has already built is resolved, keyed and looked up in
//! the plan cache at admission, and a hit is answered on the calling
//! thread (the event loop, for the socket transports) without a queue
//! slot or a worker. A miss is queued like any other plan, and the
//! worker resolves and keys it again. Synthetic specs, inline graphs,
//! `debug:` hooks and nets not built yet are not probed, since
//! resolving them builds a graph (a synthetic one of any size);
//! co-plans, routes and workloads are not, since their keys cost a pass
//! over the registry.
//!
//! Three things keep the daemon alive through faults:
//!
//! * every shared lock recovers from poisoning (`lock_safe`) — a
//!   worker panic is surfaced as `internal_error` and must not crash
//!   the *next* unrelated request;
//! * a health watcher recycles workers stuck past the stall budget and
//!   fails their request with a typed `worker_recycled` error, so a
//!   wedged computation can neither hang its client nor shrink the
//!   pool;
//! * registry mutations and cache insertions are logged to a
//!   write-ahead log ([`crate::wal`]) when one is configured, and
//!   replayed bit-identically on restart.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::hash::Hash;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lcmm_core::{CancelToken, Exact, Harness, LcmmError, LcmmOptions, PassStats};
use lcmm_fpga::{Device, Precision};
use lcmm_graph::fast_hash::FnvLanes;
use lcmm_graph::Graph;
use lcmm_multi::{coplan, coplan_summary, CoplanOptions, TenantSpec};
use lcmm_workload::histogram::LatencyHistogram;
use lcmm_workload::ControllerConfig;
use serde::Serialize;
use serde_json::Value;

use crate::cache::PlanCache;
use crate::lock_safe;
use crate::protocol::{
    pass_stats_value, plan_line, plan_summary, precision_name, GraphSpec, Op, Payload,
    ResolvedPlan, WireRequest, WireResponse,
};
use crate::wal::{FsyncPolicy, Wal, WalRecord};

/// Sizing and durability knobs of a [`Server`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Worker threads computing plans.
    pub workers: usize,
    /// Admission bound: a plan request is rejected with `queue_full`
    /// when `queued + in_flight` would exceed this. A plan answered from
    /// the cache at admission takes no slot, so it is answered even
    /// while the queue is full.
    pub queue_capacity: usize,
    /// Plan cache entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Write-ahead-log directory; `None` keeps registry and cache
    /// purely in memory (the pre-WAL behaviour).
    pub wal_dir: Option<PathBuf>,
    /// When appended WAL records are forced to stable storage.
    pub fsync: FsyncPolicy,
    /// Replay an existing WAL on startup; `false` (`--no-recover`)
    /// wipes it and starts cold.
    pub recover: bool,
    /// Recycle a worker stuck on one request longer than this and fail
    /// the request with `worker_recycled`; `None` disables the health
    /// watcher (a wedged worker then hangs its client, as before).
    pub stall_budget: Option<Duration>,
    /// Interpret `debug:` graph names as fault-injection hooks (panic,
    /// lock poisoning, stalls). Tests and the CI gates only.
    pub debug_hooks: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 128,
            wal_dir: None,
            fsync: FsyncPolicy::Os,
            recover: true,
            stall_budget: Some(Duration::from_secs(30)),
            debug_hooks: false,
        }
    }
}

impl ServerConfig {
    /// Sets the worker pool size (at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the admission bound (at least 1).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the plan cache capacity (0 disables caching).
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Enables the write-ahead log in `dir`.
    #[must_use]
    pub fn with_wal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Sets the WAL fsync policy.
    #[must_use]
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Whether to replay an existing WAL on startup.
    #[must_use]
    pub fn with_recover(mut self, recover: bool) -> Self {
        self.recover = recover;
        self
    }

    /// Sets (or with `None` disables) the worker stall budget.
    #[must_use]
    pub fn with_stall_budget(mut self, budget: Option<Duration>) -> Self {
        self.stall_budget = budget;
        self
    }

    /// Enables the `debug:` fault-injection hooks.
    #[must_use]
    pub fn with_debug_hooks(mut self, on: bool) -> Self {
        self.debug_hooks = on;
        self
    }
}

/// How a plan response leaves the server once a worker (or the watcher,
/// or shutdown) produces it.
type Callback = Box<dyn FnOnce(String) + Send>;

/// The slot a plan request's response is delivered through. Blocking
/// callers park on the condvar; event-loop callers attach a callback.
/// `fill` is idempotent — exactly one filler wins, so the watcher can
/// fail a request whose worker later completes (or shutdown can fail a
/// request a worker races to answer) without double delivery.
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Default)]
struct SlotState {
    done: bool,
    response: Option<String>,
    callback: Option<Callback>,
}

impl Slot {
    /// A slot for a blocking caller ([`Server::handle_line`]).
    fn blocking() -> Self {
        Self {
            state: Mutex::new(SlotState::default()),
            cv: Condvar::new(),
        }
    }

    /// A slot that delivers through `callback` instead of waking a
    /// parked thread.
    fn with_callback(callback: Callback) -> Self {
        Self {
            state: Mutex::new(SlotState {
                done: false,
                response: None,
                callback: Some(callback),
            }),
            cv: Condvar::new(),
        }
    }

    /// Delivers `line`; later fills are discarded.
    fn fill(&self, line: String) {
        let callback = {
            let mut state = lock_safe(&self.state);
            if state.done {
                return;
            }
            state.done = true;
            match state.callback.take() {
                Some(callback) => Some(callback),
                None => {
                    state.response = Some(line.clone());
                    None
                }
            }
        };
        match callback {
            // Run the callback outside the slot lock: it typically
            // hands the line to a transport channel.
            Some(callback) => callback(line),
            None => self.cv.notify_all(),
        }
    }

    /// Parks until the slot is filled (blocking callers only).
    fn wait(&self) -> String {
        let mut state = lock_safe(&self.state);
        while state.response.is_none() {
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.response.take().expect("slot observed as filled")
    }
}

/// One admitted plan request.
struct Job {
    request: WireRequest,
    /// The request resolved and keyed at admission, when the admission
    /// probe could do that without a graph build; the worker resolves
    /// and keys the rest.
    probed: Option<(ResolvedPlan, String)>,
    cancel: CancelToken,
    slot: Arc<Slot>,
}

/// Queue state guarded by one mutex so the admission check
/// (`queued + in_flight` against capacity) is exact, not racy.
struct QueueState {
    jobs: VecDeque<Job>,
    in_flight: usize,
}

/// Per-pass latency histograms, recorded for computed plans only.
#[derive(Default)]
struct Histograms {
    liveness: LatencyHistogram,
    prefetch: LatencyHistogram,
    alloc_split: LatencyHistogram,
    total: LatencyHistogram,
}

/// One registered tenant: the resolved graph plus its co-planning
/// parameters, keyed by model name in the registry.
#[derive(Clone)]
struct Registered {
    graph: Graph,
    precision: Precision,
    weight: f64,
    share: Option<f64>,
}

impl Registered {
    /// Whether `other` co-plans exactly like `self`: re-registering a
    /// model with the same graph content and parameters invalidates no
    /// cached co-plan.
    fn same_as(&self, other: &Registered) -> bool {
        self.graph.fingerprint_key() == other.graph.fingerprint_key()
            && self.precision == other.precision
            && self.weight == other.weight
            && self.share == other.share
    }
}

/// The registered tenants, keyed by model name, with the digest state
/// over their part of a co-plan key memoized until the next write.
#[derive(Default)]
struct Registry {
    models: BTreeMap<String, Registered>,
    /// Bumped by every write.
    generation: u64,
    /// [`registry_lanes`] over `models` at `generation`, filled by the
    /// first co-plan or route after a write.
    lanes: Option<FnvLanes>,
}

impl Registry {
    /// Registers `entry` as `model`, returning the entry it replaced.
    fn insert(&mut self, model: String, entry: Registered) -> Option<Registered> {
        self.written();
        self.models.insert(model, entry)
    }

    /// Unregisters `model`, returning its entry if it was registered.
    fn remove(&mut self, model: &str) -> Option<Registered> {
        let removed = self.models.remove(model);
        if removed.is_some() {
            self.written();
        }
        removed
    }

    fn written(&mut self) {
        self.generation += 1;
        self.lanes = None;
    }
}

/// How many graphs that left the registry keep their harness state.
/// Churn over a fixed set of models then replans from memory, while a
/// model re-registered with a new graph at every version, or a client
/// cycling distinct graphs through the registry, leaves the state of at
/// most this many unregistered graphs behind.
const RETIRED_GRAPHS: usize = 8;

/// Records a registry write in the retired-graph queue. `dropped`, the
/// entry the write replaced or removed, retires when no model in
/// `registry` (the state after the write) uses its graph content any
/// more, and a graph registered again leaves the queue. Returns the
/// graphs retired longest ago past [`RETIRED_GRAPHS`], whose harness
/// state the caller drops. Runs under the registry lock, so no
/// registered graph is ever in the queue.
fn retire(
    inner: &Inner,
    registry: &BTreeMap<String, Registered>,
    dropped: Option<Registered>,
) -> Vec<Graph> {
    let registered = |graph: &Graph| {
        registry
            .values()
            .any(|r| r.graph.fingerprint_key() == graph.fingerprint_key())
    };
    let mut retired = lock_safe(&inner.retired);
    retired.retain(|graph| !registered(graph));
    if let Some(old) = dropped.filter(|old| !registered(&old.graph)) {
        retired.push_back(old.graph);
    }
    let excess = retired.len().saturating_sub(RETIRED_GRAPHS);
    retired.drain(..excess).collect()
}

/// The invalidation tag carried by every cached co-plan that inlined
/// `model`.
fn model_tag(model: &str) -> String {
    format!("model:{model}")
}

/// What the health watcher inspects: the job a worker is currently
/// computing. `abandoned` is the handshake — the watcher sets it (and
/// takes over the job's accounting) under the `busy` lock; the worker
/// checks it under the same lock after computing, so exactly one side
/// fills the slot and decrements `in_flight`.
struct BusyJob {
    started: Instant,
    cancel: CancelToken,
    slot: Arc<Slot>,
    request_id: Option<u64>,
    request_v: Option<u64>,
    abandoned: bool,
}

/// One pool member, shared between its worker thread and the watcher.
struct WorkerState {
    id: u64,
    busy: Mutex<Option<BusyJob>>,
}

struct Inner {
    harness: Harness,
    cache: PlanCache,
    registry: Mutex<Registry>,
    /// Graphs no registered model uses, oldest first, whose harness
    /// state is still kept ([`retire`]). Locked only while `registry`
    /// is held.
    retired: Mutex<VecDeque<Graph>>,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    shutting_down: AtomicBool,
    started: Instant,
    queue_capacity: usize,
    workers: usize,
    plans_total: AtomicU64,
    plans_completed: AtomicU64,
    plans_errored: AtomicU64,
    plans_rejected: AtomicU64,
    recycled: AtomicU64,
    stall_budget: Option<Duration>,
    debug_hooks: bool,
    histograms: Mutex<Histograms>,
    /// Durability; `None` runs purely in memory. Every mutation goes
    /// through [`durably`], so WAL order always equals apply order.
    wal: Option<Mutex<Wal>>,
    /// Live (non-abandoned) workers. Workers remove themselves on
    /// exit; the watcher removes the worker it abandons and adds the
    /// replacement. Shutdown completes when this empties.
    pool: Mutex<Vec<Arc<WorkerState>>>,
    pool_cv: Condvar,
    next_worker_id: AtomicU64,
}

/// A running planning daemon: worker pool + queue + caches (+ WAL).
///
/// Cheap to share (`Clone` clones a handle, not the state). Dropping
/// the last handle without calling [`Server::shutdown`] detaches the
/// workers; transports always shut down explicitly.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
    watcher: Arc<Mutex<Option<JoinHandle<()>>>>,
}

impl Server {
    /// Starts the worker pool and returns a serving handle.
    ///
    /// # Panics
    ///
    /// If a configured WAL directory cannot be opened — use
    /// [`Server::try_start`] to handle that; without a `wal_dir` this
    /// never panics.
    #[must_use]
    pub fn start(config: ServerConfig) -> Self {
        Self::try_start(config).expect("WAL directory failed to open")
    }

    /// [`Server::start`], surfacing WAL I/O errors instead of
    /// panicking. When `config.wal_dir` is set, the log is opened (or
    /// wiped first when `recover` is off) and replayed into the
    /// registry and cache before the first worker spawns.
    ///
    /// # Errors
    ///
    /// Filesystem failures opening, truncating, or replaying the WAL.
    pub fn try_start(config: ServerConfig) -> io::Result<Self> {
        let workers = config.workers.max(1);
        let mut replay = Vec::new();
        let wal = match &config.wal_dir {
            Some(dir) => {
                if !config.recover {
                    Wal::reset(dir)?;
                }
                let (wal, records) = Wal::open(dir, config.fsync)?;
                replay = records;
                Some(Mutex::new(wal))
            }
            None => None,
        };
        let inner = Arc::new(Inner {
            // The worker pool is the daemon's parallelism: a request's
            // harness maps run on its worker's thread, without spawning
            // threads of their own.
            harness: Harness::new(1),
            cache: PlanCache::new(config.cache_capacity),
            registry: Mutex::new(Registry::default()),
            retired: Mutex::new(VecDeque::new()),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                in_flight: 0,
            }),
            queue_cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            started: Instant::now(),
            queue_capacity: config.queue_capacity.max(1),
            workers,
            plans_total: AtomicU64::new(0),
            plans_completed: AtomicU64::new(0),
            plans_errored: AtomicU64::new(0),
            plans_rejected: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            stall_budget: config.stall_budget,
            debug_hooks: config.debug_hooks,
            histograms: Mutex::new(Histograms::default()),
            wal,
            pool: Mutex::new(Vec::with_capacity(workers)),
            pool_cv: Condvar::new(),
            next_worker_id: AtomicU64::new(0),
        });
        // Warm-start before anything else can observe the state: the
        // first request already sees the recovered registry and cache.
        for record in replay {
            apply_replayed(&inner, record);
        }
        for _ in 0..workers {
            spawn_worker(&inner);
        }
        let watcher = inner.stall_budget.map(|budget| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || watcher_loop(&inner, budget))
        });
        Ok(Self {
            inner,
            watcher: Arc::new(Mutex::new(watcher)),
        })
    }

    /// Handles one request line and returns one response line (no
    /// trailing newline). Never panics and never returns non-JSON: any
    /// failure becomes an `{"ok":false,"error":{...}}` envelope. Plan
    /// requests block until a worker answers (or admission rejects, or
    /// the watcher recycles a stuck worker).
    pub fn handle_line(&self, line: &str) -> String {
        let slot = Arc::new(Slot::blocking());
        match self.route(line, &slot) {
            Some(inline) => inline,
            None => slot.wait(),
        }
    }

    /// [`Server::handle_line`] for event-loop transports: never blocks
    /// the calling thread on plan computation. `Some` is the answer,
    /// produced on the calling thread: an inline operation, a plan-cache
    /// hit taken at admission, or a rejection; `reply` is then never
    /// called. `None` means the request was queued, and `reply` is
    /// called exactly once, from whichever thread completes it (a
    /// worker, the health watcher, or shutdown).
    pub fn handle_line_async(
        &self,
        line: &str,
        reply: Box<dyn FnOnce(String) + Send>,
    ) -> Option<String> {
        self.route(line, &Arc::new(Slot::with_callback(reply)))
    }

    /// Parses and dispatches one line. `Some` is an inline answer;
    /// `None` means the request was queued and `slot` will be filled.
    fn route(&self, line: &str, slot: &Arc<Slot>) -> Option<String> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Some(
                WireResponse::Error {
                    id: None,
                    code: "bad_request".to_string(),
                    message: "empty request line".to_string(),
                }
                .to_line(),
            );
        }
        let request = match WireRequest::from_line(trimmed) {
            Ok(request) => request,
            Err(message) => {
                return Some(
                    WireResponse::Error {
                        id: None,
                        code: "bad_request".to_string(),
                        message,
                    }
                    .to_line(),
                )
            }
        };
        // The version gate runs before dispatch: only v1 (and the
        // implicit absent-means-1 form) is served. The rejection does
        // not echo `v` — there is no agreed version to speak.
        if let Some(v) = request.v {
            if v != 1 {
                return Some(
                    WireResponse::Error {
                        id: request.id,
                        code: "unsupported_version".to_string(),
                        message: format!(
                            "protocol version {v} is not supported; this server speaks v1"
                        ),
                    }
                    .to_line(),
                );
            }
        }
        match request.op {
            Op::Ping => Some(WireResponse::Pong { id: request.id }.to_line_v(request.v)),
            Op::Stats => Some(
                WireResponse::Stats {
                    id: request.id,
                    stats: self.stats_value(),
                }
                .to_line_v(request.v),
            ),
            Op::Shutdown => {
                let id = request.id;
                self.begin_shutdown();
                Some(WireResponse::Shutdown { id }.to_line_v(request.v))
            }
            Op::Register => Some(self.handle_register(&request)),
            Op::Unregister => Some(self.handle_unregister(&request)),
            // Co-planning is as expensive as planning: both go through
            // admission control and the worker pool, as do routing (a
            // route may have to compute the co-plan it routes from) and
            // the trace-driven workload simulation.
            Op::Plan | Op::Coplan | Op::Route | Op::Workload => self.submit_plan(request, slot),
        }
    }

    /// Registers (or re-registers) a model for co-planning. Any change
    /// to the tenant set invalidates every cached co-plan that inlined
    /// it, and the mutation is WAL-logged for recovery.
    fn handle_register(&self, request: &WireRequest) -> String {
        let answer_err =
            |err: &LcmmError| WireResponse::from_error(request.id, err).to_line_v(request.v);
        let Some(model) = request.model.clone().filter(|m| !m.is_empty()) else {
            return answer_err(&LcmmError::InvalidRequest(
                "register needs a non-empty \"model\" field".to_string(),
            ));
        };
        let Some(spec) = request.graph.as_ref() else {
            return answer_err(&LcmmError::InvalidRequest(
                "register needs a \"graph\" field".to_string(),
            ));
        };
        let graph = match spec.resolve() {
            Ok(graph) => graph,
            Err(err) => return answer_err(&err),
        };
        let precision =
            match crate::protocol::parse_precision(request.precision.as_deref().unwrap_or("fix16"))
            {
                Ok(precision) => precision,
                Err(err) => return answer_err(&err),
            };
        let weight = request.weight.unwrap_or(1.0);
        if !(weight.is_finite() && weight > 0.0) {
            return answer_err(&LcmmError::InvalidRequest(format!(
                "weight {weight} must be positive and finite"
            )));
        }
        if let Some(share) = request.share {
            if !(share.is_finite() && share > 0.0 && share <= 1.0) {
                return answer_err(&LcmmError::InvalidRequest(format!(
                    "share {share} outside (0, 1]"
                )));
            }
        }
        let entry = Registered {
            graph,
            precision,
            weight,
            share: request.share,
        };
        let record = WalRecord::Register {
            model: model.clone(),
            graph_json: entry.graph.fingerprint().to_string(),
            precision: precision_name(entry.precision).to_string(),
            weight: entry.weight,
            share: entry.share,
        };
        let inner = &self.inner;
        let models = durably(inner, || {
            let (models, identical, dropped) = {
                let mut registry = lock_safe(&inner.registry);
                let previous = registry.insert(model.clone(), entry.clone());
                let identical = previous.as_ref().is_some_and(|old| old.same_as(&entry));
                let dropped = retire(inner, &registry.models, previous);
                (registry.models.len() as u64, identical, dropped)
            };
            if !identical {
                // Only co-plans that inlined this model are stale; plans
                // of other tenant sets (and content-addressed
                // single-model `plan` entries) survive.
                inner.cache.invalidate_tag(&model_tag(&model));
            }
            // Harness entries are keyed by graph content, so none is
            // ever stale; only graphs retired long ago are dropped, to
            // bound what the daemon keeps.
            for graph in dropped {
                inner.harness.invalidate_graph(&graph);
            }
            (models, Some(record))
        });
        WireResponse::Registry {
            id: request.id,
            action: "register".to_string(),
            model,
            models,
        }
        .to_line_v(request.v)
    }

    /// Removes a model from the registry, invalidating cached co-plans
    /// and WAL-logging the removal.
    fn handle_unregister(&self, request: &WireRequest) -> String {
        let Some(model) = request.model.clone().filter(|m| !m.is_empty()) else {
            return WireResponse::from_error(
                request.id,
                &LcmmError::InvalidRequest(
                    "unregister needs a non-empty \"model\" field".to_string(),
                ),
            )
            .to_line_v(request.v);
        };
        let inner = &self.inner;
        let (removed, models) = durably(inner, || {
            let (dropped, models) = {
                let mut registry = lock_safe(&inner.registry);
                let dropped = registry
                    .remove(&model)
                    .map(|old| retire(inner, &registry.models, Some(old)));
                (dropped, registry.models.len() as u64)
            };
            let Some(dropped) = dropped else {
                // Nothing changed: nothing to log.
                return ((false, models), None);
            };
            inner.cache.invalidate_tag(&model_tag(&model));
            for graph in dropped {
                inner.harness.invalidate_graph(&graph);
            }
            (
                (true, models),
                Some(WalRecord::Unregister {
                    model: model.clone(),
                }),
            )
        });
        if !removed {
            return WireResponse::from_error(request.id, &LcmmError::UnknownModel(model))
                .to_line_v(request.v);
        }
        WireResponse::Registry {
            id: request.id,
            action: "unregister".to_string(),
            model,
            models,
        }
        .to_line_v(request.v)
    }

    /// True once a shutdown has been requested (new plans are refused).
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutting_down.load(Ordering::SeqCst)
    }

    /// Flags shutdown and wakes the workers; does not wait for them.
    /// Queued work still drains — only *new* plan admissions refuse.
    pub fn begin_shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
    }

    /// Graceful shutdown: refuse new plans, drain the queue, wait for
    /// the workers, fail anything left unanswered. Idempotent; safe to
    /// call from any handle.
    ///
    /// Workers the watcher abandoned as stuck are *not* waited for —
    /// their requests were already failed with `worker_recycled`, and
    /// a thread that never returns must not be able to hang shutdown.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        {
            let mut pool = lock_safe(&self.inner.pool);
            while !pool.is_empty() {
                pool = self
                    .inner
                    .pool_cv
                    .wait(pool)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        if let Some(watcher) = lock_safe(&self.watcher).take() {
            let _ = watcher.join();
        }
        // A submit that raced the drain may have queued after the last
        // worker exited; fail those slots rather than strand their
        // clients (fill is idempotent, so racing a worker is safe).
        let leftovers: Vec<Job> = {
            let mut queue = lock_safe(&self.inner.queue);
            queue.jobs.drain(..).collect()
        };
        for job in leftovers {
            self.inner.plans_rejected.fetch_add(1, Ordering::Relaxed);
            job.slot.fill(
                WireResponse::Error {
                    id: job.request.id,
                    code: "shutting_down".to_string(),
                    message: "server shut down before the request was served".to_string(),
                }
                .to_line_v(job.request.v),
            );
        }
    }

    /// Admission control: `Some` is an inline answer (a plan-cache hit
    /// or a rejection), `None` means the job was queued and `slot` will
    /// be filled asynchronously.
    fn submit_plan(&self, request: WireRequest, slot: &Arc<Slot>) -> Option<String> {
        let inner = &self.inner;
        inner.plans_total.fetch_add(1, Ordering::Relaxed);
        // The cancel token starts ticking at admission, so time spent
        // waiting in the queue counts against the deadline.
        let cancel = match request.deadline_ms {
            Some(ms) => CancelToken::with_deadline(Instant::now() + Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        // A plan of a zoo net already built is keyed here and a hit
        // answered on this thread, under the cache lock alone. A request
        // arriving while the server drains, or already past its
        // deadline, takes the queue's way, so it answers `shutting_down`
        // or `timeout` as before.
        let probe = request.op == Op::Plan && !self.is_shutting_down() && !cancel.is_expired();
        let mut probed = None;
        if let Some(resolved) = probe.then(|| request.resolve_built_plan()).flatten() {
            // A miss is not counted here: the worker's own lookup
            // counts it, or answers a hit stored in the meantime. The
            // worker reuses this resolution and key.
            let key = cache_key(&resolved);
            if let Some(stored) = inner.cache.probe(&key) {
                inner.plans_completed.fetch_add(1, Ordering::Relaxed);
                return Some(plan_line(
                    request.id,
                    Payload::Json(&stored),
                    true,
                    None,
                    request.v,
                ));
            }
            probed = Some((resolved, key));
        }
        {
            let mut queue = lock_safe(&inner.queue);
            if inner.shutting_down.load(Ordering::SeqCst) {
                inner.plans_rejected.fetch_add(1, Ordering::Relaxed);
                return Some(
                    WireResponse::Error {
                        id: request.id,
                        code: "shutting_down".to_string(),
                        message: "server is draining; no new plans accepted".to_string(),
                    }
                    .to_line_v(request.v),
                );
            }
            if queue.jobs.len() + queue.in_flight >= inner.queue_capacity {
                inner.plans_rejected.fetch_add(1, Ordering::Relaxed);
                return Some(
                    WireResponse::Error {
                        id: request.id,
                        code: "queue_full".to_string(),
                        message: format!(
                            "admission queue at capacity ({}); retry later",
                            inner.queue_capacity
                        ),
                    }
                    .to_line_v(request.v),
                );
            }
            queue.jobs.push_back(Job {
                request,
                probed,
                cancel,
                slot: Arc::clone(slot),
            });
        }
        inner.queue_cv.notify_one();
        None
    }

    /// The `/stats` payload.
    fn stats_value(&self) -> Value {
        let inner = &self.inner;
        let cache = inner.cache.counters();
        let (depth, in_flight) = {
            let queue = lock_safe(&inner.queue);
            (queue.jobs.len(), queue.in_flight)
        };
        let histograms = {
            let h = lock_safe(&inner.histograms);
            Value::Map(vec![
                ("alloc_split".to_string(), h.alloc_split.to_value()),
                ("liveness".to_string(), h.liveness.to_value()),
                ("prefetch".to_string(), h.prefetch.to_value()),
                ("total".to_string(), h.total.to_value()),
            ])
        };
        let models = lock_safe(&inner.registry).models.len();
        let wal = match &inner.wal {
            Some(wal) => {
                let s = lock_safe(wal).stats();
                Value::Map(vec![
                    ("appended".to_string(), Value::U64(s.appended)),
                    ("compactions".to_string(), Value::U64(s.compactions)),
                    ("enabled".to_string(), Value::Bool(true)),
                    ("log_bytes".to_string(), Value::U64(s.log_bytes)),
                    ("replayed".to_string(), Value::U64(s.replayed)),
                    ("truncated_bytes".to_string(), Value::U64(s.truncated_bytes)),
                ])
            }
            None => Value::Map(vec![("enabled".to_string(), Value::Bool(false))]),
        };
        Value::Map(vec![
            (
                "cache".to_string(),
                Value::Map(vec![
                    ("capacity".to_string(), Value::U64(cache.capacity as u64)),
                    ("entries".to_string(), Value::U64(cache.entries as u64)),
                    ("evictions".to_string(), Value::U64(cache.evictions)),
                    ("hit_rate".to_string(), Value::F64(cache.hit_rate())),
                    ("hits".to_string(), Value::U64(cache.hits)),
                    ("invalidations".to_string(), Value::U64(cache.invalidations)),
                    ("misses".to_string(), Value::U64(cache.misses)),
                ]),
            ),
            ("harness".to_string(), {
                let h = inner.harness.cache_stats();
                Value::Map(vec![
                    (
                        "artifact_hits".to_string(),
                        Value::U64(h.artifact_hits as u64),
                    ),
                    (
                        "artifact_misses".to_string(),
                        Value::U64(h.artifact_misses as u64),
                    ),
                    ("result_hits".to_string(), Value::U64(h.result_hits as u64)),
                    (
                        "result_misses".to_string(),
                        Value::U64(h.result_misses as u64),
                    ),
                ])
            }),
            (
                "health".to_string(),
                Value::Map(vec![
                    (
                        "recycled".to_string(),
                        Value::U64(inner.recycled.load(Ordering::Relaxed)),
                    ),
                    (
                        "stall_budget_ms".to_string(),
                        match inner.stall_budget {
                            Some(budget) => Value::U64(budget.as_millis() as u64),
                            None => Value::Null,
                        },
                    ),
                ]),
            ),
            ("histograms".to_string(), histograms),
            (
                "queue".to_string(),
                Value::Map(vec![
                    (
                        "capacity".to_string(),
                        Value::U64(inner.queue_capacity as u64),
                    ),
                    ("depth".to_string(), Value::U64(depth as u64)),
                    ("in_flight".to_string(), Value::U64(in_flight as u64)),
                ]),
            ),
            (
                "registry".to_string(),
                Value::Map(vec![("models".to_string(), Value::U64(models as u64))]),
            ),
            (
                "requests".to_string(),
                Value::Map(vec![
                    (
                        "completed".to_string(),
                        Value::U64(inner.plans_completed.load(Ordering::Relaxed)),
                    ),
                    (
                        "errors".to_string(),
                        Value::U64(inner.plans_errored.load(Ordering::Relaxed)),
                    ),
                    (
                        "rejected".to_string(),
                        Value::U64(inner.plans_rejected.load(Ordering::Relaxed)),
                    ),
                    (
                        "total".to_string(),
                        Value::U64(inner.plans_total.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "uptime_seconds".to_string(),
                Value::F64(inner.started.elapsed().as_secs_f64()),
            ),
            ("wal".to_string(), wal),
            ("workers".to_string(), Value::U64(inner.workers as u64)),
        ])
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.inner.workers)
            .field("queue_capacity", &self.inner.queue_capacity)
            .field("wal", &self.inner.wal.is_some())
            .field("shutting_down", &self.is_shutting_down())
            .finish()
    }
}

/// Applies one mutation and logs its WAL record, both under the WAL
/// lock, so the log order always equals the apply order across threads.
/// The closure returns `None` as the record when nothing changed
/// (e.g. unregistering an unknown model). Compaction piggybacks here:
/// when the log outgrows its threshold, the full registry + cache state
/// is snapshotted and the log truncated.
fn durably<R>(inner: &Inner, apply: impl FnOnce() -> (R, Option<WalRecord>)) -> R {
    let Some(wal) = &inner.wal else {
        return apply().0;
    };
    let mut wal = lock_safe(wal);
    let (result, record) = apply();
    if let Some(record) = record {
        if let Err(e) = wal.append(&record) {
            // Keep serving with durability degraded rather than dying:
            // the in-memory state is already consistent.
            eprintln!("lcmm serve: wal append failed: {e}");
        }
        if wal.needs_compaction() {
            let state = snapshot_records(inner);
            if let Err(e) = wal.compact(&state) {
                eprintln!("lcmm serve: wal compaction failed: {e}");
            }
        }
    }
    result
}

/// The full durable state as replayable records: every registry entry,
/// then every cache entry in LRU order. This is what compaction writes
/// as the snapshot.
fn snapshot_records(inner: &Inner) -> Vec<WalRecord> {
    let mut out = Vec::new();
    {
        let registry = lock_safe(&inner.registry);
        for (name, r) in &registry.models {
            out.push(WalRecord::Register {
                model: name.clone(),
                graph_json: r.graph.fingerprint().to_string(),
                precision: precision_name(r.precision).to_string(),
                weight: r.weight,
                share: r.share,
            });
        }
    }
    for (key, value, tags) in inner.cache.dump() {
        out.push(WalRecord::PlanPut { key, value, tags });
    }
    out
}

/// Applies one replayed WAL record at startup. Mirrors the live
/// mutation paths (including the invalidation a non-identical
/// re-register triggers) minus the counters and the retired-graph
/// queue — the harness is empty before the first worker spawns, so no
/// graph retired before the restart has state to drop. Undecodable
/// records (e.g. a graph encoding from a future version) are skipped,
/// not fatal; replay of a valid log is idempotent.
fn apply_replayed(inner: &Inner, record: WalRecord) {
    match record {
        WalRecord::Register {
            model,
            graph_json,
            precision,
            weight,
            share,
        } => {
            let Ok(graph) = serde_json::from_str::<Graph>(&graph_json) else {
                return;
            };
            let Ok(precision) = crate::protocol::parse_precision(&precision) else {
                return;
            };
            let entry = Registered {
                graph,
                precision,
                weight,
                share,
            };
            let previous = lock_safe(&inner.registry).insert(model.clone(), entry.clone());
            if !previous.is_some_and(|old| old.same_as(&entry)) {
                inner.cache.replay_invalidate_tag(&model_tag(&model));
            }
        }
        WalRecord::Unregister { model } => {
            let removed = lock_safe(&inner.registry).remove(&model);
            if removed.is_some() {
                inner.cache.replay_invalidate_tag(&model_tag(&model));
            }
        }
        WalRecord::PlanPut { key, value, tags } => {
            inner.cache.replay_put(key, replayed_value(value), tags);
        }
    }
}

/// A replayed plan value in the form cache hits splice into replies:
/// compact JSON, parsed and re-rendered once here rather than on every
/// hit. A value that is not JSON (a log written by hand or by another
/// version) is kept as its JSON string literal, so a hit answers it as
/// a string, as it always has.
fn replayed_value(value: String) -> String {
    let plan = serde_json::from_str::<Value>(&value).unwrap_or(Value::Str(value));
    serde_json::to_string(&plan).expect("JSON values serialise")
}

/// Adds a fresh worker to the pool and spawns its thread.
fn spawn_worker(inner: &Arc<Inner>) {
    let id = inner.next_worker_id.fetch_add(1, Ordering::Relaxed);
    let state = Arc::new(WorkerState {
        id,
        busy: Mutex::new(None),
    });
    lock_safe(&inner.pool).push(Arc::clone(&state));
    let inner = Arc::clone(inner);
    std::thread::spawn(move || worker_loop(&inner, &state));
}

/// Removes worker `id` from the pool and wakes anyone waiting for the
/// pool to drain (shutdown).
fn leave_pool(inner: &Inner, id: u64) {
    lock_safe(&inner.pool).retain(|w| w.id != id);
    inner.pool_cv.notify_all();
}

/// One worker: pop, compute, answer — until shutdown drains the queue,
/// or the watcher abandons this worker as stuck.
fn worker_loop(inner: &Arc<Inner>, state: &Arc<WorkerState>) {
    loop {
        let job = {
            let mut queue = lock_safe(&inner.queue);
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    queue.in_flight += 1;
                    break job;
                }
                if inner.shutting_down.load(Ordering::SeqCst) {
                    drop(queue);
                    leave_pool(inner, state.id);
                    return;
                }
                queue = inner
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        *lock_safe(&state.busy) = Some(BusyJob {
            started: Instant::now(),
            cancel: job.cancel.clone(),
            slot: Arc::clone(&job.slot),
            request_id: job.request.id,
            request_v: job.request.v,
            abandoned: false,
        });
        // A panic inside the pipeline must never take the worker (and
        // with it the daemon) down: surface it as `internal_error` and
        // keep serving.
        let line = catch_unwind(AssertUnwindSafe(|| process_plan(inner, &job))).unwrap_or_else(
            |payload| {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "pipeline panicked".to_string());
                inner.plans_errored.fetch_add(1, Ordering::Relaxed);
                WireResponse::Error {
                    id: job.request.id,
                    code: "internal_error".to_string(),
                    message,
                }
                .to_line_v(job.request.v)
            },
        );
        let abandoned = {
            let mut busy = lock_safe(&state.busy);
            let abandoned = busy.as_ref().is_some_and(|b| b.abandoned);
            *busy = None;
            abandoned
        };
        if abandoned {
            // The watcher already answered this request, released its
            // in-flight accounting, and spawned a replacement worker —
            // this thread no longer exists as far as the pool knows.
            return;
        }
        // Free the admission slot before answering: a client that sends
        // its next request the moment it reads this reply must not find
        // the queue still full of a request already answered.
        lock_safe(&inner.queue).in_flight -= 1;
        job.slot.fill(line);
    }
}

/// The health watcher: scans the pool for workers stuck on one request
/// past the stall budget, fails that request with `worker_recycled`,
/// abandons the thread (it cannot be killed; it exits on its own if
/// the computation ever returns) and spawns a replacement so the pool
/// never shrinks. Exits once shutdown has drained the pool.
fn watcher_loop(inner: &Arc<Inner>, budget: Duration) {
    let tick = (budget / 4)
        .max(Duration::from_millis(10))
        .min(Duration::from_millis(200));
    loop {
        std::thread::sleep(tick);
        let members: Vec<Arc<WorkerState>> = lock_safe(&inner.pool).clone();
        if members.is_empty() && inner.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        for state in members {
            let stuck = {
                let mut busy = lock_safe(&state.busy);
                match busy.as_mut() {
                    Some(b) if !b.abandoned && b.started.elapsed() > budget => {
                        // Taking over under the busy lock is the
                        // handshake: the worker checks this flag under
                        // the same lock, so exactly one side fills the
                        // slot and decrements in_flight.
                        b.abandoned = true;
                        Some((
                            b.cancel.clone(),
                            Arc::clone(&b.slot),
                            b.request_id,
                            b.request_v,
                        ))
                    }
                    _ => None,
                }
            };
            let Some((cancel, slot, request_id, request_v)) = stuck else {
                continue;
            };
            // Best case the computation notices the cancellation at its
            // next cooperative check and the thread exits promptly;
            // worst case it stays wedged, detached, and harmless.
            cancel.cancel();
            inner.plans_errored.fetch_add(1, Ordering::Relaxed);
            inner.recycled.fetch_add(1, Ordering::Relaxed);
            // As for a worker: release the slot, then answer.
            lock_safe(&inner.queue).in_flight -= 1;
            slot.fill(
                WireResponse::from_error(request_id, &LcmmError::WorkerRecycled)
                    .to_line_v(request_v),
            );
            leave_pool(inner, state.id);
            spawn_worker(inner);
        }
    }
}

/// Key prefix of cached co-plans, which keeps them apart from plan
/// keys. Registry changes invalidate co-plans by their `model:` tags.
const COPLAN_KEY_PREFIX: &str = "coplan:";

/// Digest of a whole key text. Two hex-encoded FNV-1a passes with
/// independent offsets ([`FnvLanes`]) make accidental collisions
/// (~2⁻¹²⁸) a non-concern while keeping keys small even for inline
/// thousand-node graphs. The live keys hash their parts in turn, with
/// the same result; tests spell keys out whole with this.
#[cfg(test)]
fn digest(fingerprint: &str) -> String {
    let mut lanes = FnvLanes::new();
    lanes.write(fingerprint.as_bytes());
    lanes.digest()
}

/// Compact JSON of a key part.
fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("key parts serialise")
}

/// A value's compact JSON split around its `tensor_budget`, so a key
/// hashes the JSON at any budget without serializing the value and
/// without a part per budget (serve-cold sends a new budget with every
/// request).
struct BudgetSplit {
    /// The JSON up to and including `"tensor_budget":`.
    head: String,
    /// The JSON after the budget.
    tail: String,
}

impl BudgetSplit {
    /// Splits the JSON of `value`, whose budget is `None`.
    fn of<T: Serialize>(value: &T) -> Self {
        const FIELD: &str = "\"tensor_budget\":";
        let text = json(value);
        let at = text.find(FIELD).expect("the value has a tensor_budget") + FIELD.len();
        assert!(
            text[at..].starts_with("null") && !text[at..].contains(FIELD),
            "one unset tensor_budget in {text}"
        );
        Self {
            head: text[..at].to_string(),
            tail: text[at + "null".len()..].to_string(),
        }
    }

    /// Hashes the value's JSON at `budget`.
    fn write(&self, lanes: &mut FnvLanes, budget: Option<u64>) {
        lanes.write(self.head.as_bytes());
        match budget {
            Some(budget) => {
                let _ = write!(lanes, "{budget}");
            }
            None => lanes.write(b"null"),
        }
        lanes.write(self.tail.as_bytes());
    }
}

/// Compact JSON of the key parts other than graphs and budgets,
/// serialized once per distinct value and shared by every server in the
/// process. Parts are looked up by exact value ([`Exact`]), so a memo
/// can never answer another value's JSON.
#[derive(Default)]
struct KeyParts {
    devices: HashMap<Exact<Device>, String>,
    precisions: HashMap<Precision, String>,
    options: HashMap<Exact<LcmmOptions>, BudgetSplit>,
    coplan_options: HashMap<Exact<CoplanOptions>, BudgetSplit>,
}

/// Parts a [`KeyParts`] table holds before it starts over. The wire
/// names three devices and three precisions, and its option fields
/// span 192 values once the budget is left out, so only a caller
/// outside the wire reaches this.
const KEY_PARTS_CAP: usize = 1024;

/// `table`'s value for `key`, made and stored on first use.
fn memo<K: Eq + Hash, V>(table: &mut HashMap<K, V>, key: K, make: impl FnOnce() -> V) -> &V {
    if table.len() >= KEY_PARTS_CAP && !table.contains_key(&key) {
        table.clear();
    }
    table.entry(key).or_insert_with(make)
}

impl KeyParts {
    fn device(&mut self, device: &Device) -> &[u8] {
        memo(&mut self.devices, Exact::new(device.clone()), || {
            json(device)
        })
        .as_bytes()
    }

    fn precision(&mut self, precision: Precision) -> &[u8] {
        memo(&mut self.precisions, precision, || json(&precision)).as_bytes()
    }

    fn options(&mut self, options: &LcmmOptions) -> &BudgetSplit {
        let options = options.with_tensor_budget(None);
        memo(&mut self.options, Exact::new(options), || {
            BudgetSplit::of(&options)
        })
    }

    fn coplan_options(&mut self, opts: &CoplanOptions) -> &BudgetSplit {
        let opts = opts.with_options(opts.options.with_tensor_budget(None));
        memo(&mut self.coplan_options, Exact::new(opts), || {
            BudgetSplit::of(&opts)
        })
    }
}

/// The process's [`KeyParts`].
fn key_parts() -> MutexGuard<'static, KeyParts> {
    static PARTS: OnceLock<Mutex<KeyParts>> = OnceLock::new();
    lock_safe(PARTS.get_or_init(Mutex::default))
}

/// Cache key of a single-model plan: digest of the canonical JSON
/// fingerprint of the resolved request, the graph's, the device's, the
/// precision's and the options' joined by `\u{1}`. The graph's JSON,
/// up to tens of KB, comes first, so the digest continues from the
/// lanes memoized beside the graph's fingerprint; the other parts are
/// read from [`KeyParts`].
fn cache_key(resolved: &ResolvedPlan) -> String {
    let mut lanes = resolved.graph.fingerprint_key().lanes();
    let mut parts = key_parts();
    lanes.write(b"\x01");
    lanes.write(parts.device(&resolved.device));
    lanes.write(b"\x01");
    lanes.write(parts.precision(resolved.precision));
    lanes.write(b"\x01");
    parts
        .options(&resolved.options)
        .write(&mut lanes, resolved.options.tensor_budget);
    lanes.digest()
}

/// The digest state over the registry part of a co-plan key: every
/// registered model's name, graph, precision, weight and share.
fn registry_lanes(registry: &[(String, Registered)]) -> FnvLanes {
    let mut lanes = FnvLanes::new();
    for (name, r) in registry {
        let _ = write!(lanes, "{name}\u{1}");
        lanes.write(r.graph.fingerprint().as_bytes());
        lanes.write(b"\x01");
        lanes.write(key_parts().precision(r.precision));
        let _ = write!(lanes, "\u{1}{}\u{1}{:?}\u{2}", r.weight, r.share);
    }
    lanes
}

/// Cache key of a co-plan: covers the *full tenant set* — every
/// registered model's name, graph, precision, weight and share — plus
/// the device and options, so any registry change resolves to a new
/// key (a forced miss) even before the `model:` tag invalidation
/// reclaims the stale entries. The key bytes are stored in WAL records,
/// so they never change. The live path continues [`coplan_key`] from
/// the registry's memoized digest state instead; tests pin both to this
/// from-scratch form.
#[cfg(test)]
fn coplan_cache_key(
    registry: &[(String, Registered)],
    device: &Device,
    opts: &CoplanOptions,
) -> String {
    coplan_key(registry_lanes(registry), device, opts)
}

/// `coplan_cache_key` continued from the digest state over its
/// registry part.
fn coplan_key(mut lanes: FnvLanes, device: &Device, opts: &CoplanOptions) -> String {
    let mut parts = key_parts();
    lanes.write(parts.device(device));
    lanes.write(b"\x01");
    parts
        .coplan_options(opts)
        .write(&mut lanes, opts.options.tensor_budget);
    format!("{COPLAN_KEY_PREFIX}{}", lanes.digest())
}

/// The registered tenants in name order and the digest state over their
/// part of a co-plan key. The state is hashed from the graphs' JSON
/// only by the first call after a registry write, outside the registry
/// lock, and kept for the calls after it unless another write came in
/// between.
fn registry_snapshot(inner: &Inner) -> (Vec<(String, Registered)>, FnvLanes) {
    let (models, generation, lanes) = {
        let registry = lock_safe(&inner.registry);
        let models: Vec<_> = registry
            .models
            .iter()
            .map(|(name, r)| (name.clone(), r.clone()))
            .collect();
        (models, registry.generation, registry.lanes)
    };
    let lanes = lanes.unwrap_or_else(|| {
        let lanes = registry_lanes(&models);
        let mut registry = lock_safe(&inner.registry);
        if registry.generation == generation {
            registry.lanes = Some(lanes);
        }
        lanes
    });
    (models, lanes)
}

/// The routed slice of a co-plan summary: the entry of `tenants` whose
/// `model` field is `model`.
fn tenant_slice(summary: &Value, model: &str) -> Option<Value> {
    match summary.get("tenants")? {
        Value::Seq(items) => items
            .iter()
            .find(|t| t.get("model").and_then(Value::as_str) == Some(model))
            .cloned(),
        _ => None,
    }
}

/// Runs one admitted plan request to a response line.
fn process_plan(inner: &Arc<Inner>, job: &Job) -> String {
    let request = &job.request;
    let answer_err = |err: &LcmmError| {
        inner.plans_errored.fetch_add(1, Ordering::Relaxed);
        WireResponse::from_error(request.id, err).to_line_v(request.v)
    };
    // Deadline may already have passed while the job sat in the queue.
    if let Err(err) = job.cancel.check() {
        return answer_err(&err);
    }
    if inner.debug_hooks {
        if let Some(GraphSpec::Named(name)) = &request.graph {
            if let Some(hook) = name.strip_prefix("debug:") {
                return run_debug_hook(inner, job, hook);
            }
        }
    }
    if matches!(request.op, Op::Coplan | Op::Route) {
        return process_coplan(inner, job);
    }
    if request.op == Op::Workload {
        return process_workload(inner, job);
    }
    // A request the admission probe resolved and keyed is not resolved
    // and keyed again.
    let fresh;
    let (resolved, key) = match &job.probed {
        Some(probed) => probed,
        None => {
            let resolved = match request.resolve_plan() {
                Ok(resolved) => resolved,
                Err(err) => return answer_err(&err),
            };
            if let Err(err) = job.cancel.check() {
                return answer_err(&err);
            }
            let key = cache_key(&resolved);
            fresh = (resolved, key);
            &fresh
        }
    };
    if let Some(stored) = inner.cache.get(key) {
        inner.plans_completed.fetch_add(1, Ordering::Relaxed);
        return plan_line(request.id, Payload::Json(&stored), true, None, request.v);
    }
    let design =
        match inner
            .harness
            .try_design(&resolved.graph, &resolved.device, resolved.precision)
        {
            Ok(design) => design,
            Err(err) => return answer_err(&err),
        };
    let umm = inner.harness.baseline_from_design(&resolved.graph, &design);
    // Every budget of a (graph, design, options) point shares one
    // artifact set, whose stored DNNK tables answer narrower budgets by
    // backtracking. The result is not memoized in the harness: the plan
    // LRU is the result cache here.
    let planned = inner
        .harness
        .try_artifacts(
            &resolved.graph,
            &design,
            resolved.options,
            Some(&job.cancel),
        )
        .and_then(|artifacts| {
            let result = artifacts.replan_with_budget(
                &resolved.graph,
                resolved.options.tensor_budget,
                Some(&job.cancel),
            )?;
            Ok((result, artifacts.take_front_end_seconds()))
        });
    let (result, front_end) = match planned {
        Ok(planned) => planned,
        Err(err) => return answer_err(&err),
    };
    record_pass_stats(inner, &result.stats, front_end);
    let plan = plan_summary(resolved, &result, &umm);
    let stored = serde_json::to_string(&plan).expect("plan summary serialises");
    let pass_stats = request
        .include_stats
        .then(|| pass_stats_value(&result.stats));
    let line = plan_line(
        request.id,
        Payload::Json(&stored),
        false,
        pass_stats.as_ref(),
        request.v,
    );
    store(inner, key.clone(), stored, Vec::new());
    inner.plans_completed.fetch_add(1, Ordering::Relaxed);
    line
}

/// Caches a rendered payload under `key` and logs the put.
fn store(inner: &Inner, key: String, stored: String, tags: Vec<String>) {
    let record = WalRecord::PlanPut {
        key: key.clone(),
        value: stored.clone(),
        tags: tags.clone(),
    };
    durably(inner, || {
        (inner.cache.put_tagged(key, stored, tags), Some(record))
    });
}

/// Executes one `debug:` fault-injection hook (only reachable when
/// [`ServerConfig::debug_hooks`] is on): `debug:panic` panics inside
/// the worker, `debug:poison` genuinely poisons the histograms lock
/// before panicking, `debug:stall:<ms>` busy-waits (cooperatively
/// cancellable) to trip the health watcher.
fn run_debug_hook(inner: &Arc<Inner>, job: &Job, hook: &str) -> String {
    let request = &job.request;
    if hook == "panic" {
        panic!("debug hook: injected worker panic");
    }
    if hook == "poison" {
        // Poison the histograms mutex from a scratch thread, then
        // panic in this worker too. Subsequent stats requests only
        // survive because every lock site recovers from poisoning —
        // exactly the regression this hook exists to catch.
        let poisoned = Arc::clone(inner);
        let _ = std::thread::spawn(move || {
            let _guard = poisoned.histograms.lock();
            panic!("debug hook: poisoning the histograms lock");
        })
        .join();
        panic!("debug hook: injected panic after poisoning");
    }
    if let Some(ms) = hook
        .strip_prefix("stall:")
        .and_then(|v| v.parse::<u64>().ok())
    {
        let until = Instant::now() + Duration::from_millis(ms);
        while Instant::now() < until {
            if job.cancel.is_cancelled() {
                // Recycled (or expired): the slot was already answered,
                // this line is discarded by the idempotent fill.
                return WireResponse::from_error(request.id, &LcmmError::Cancelled)
                    .to_line_v(request.v);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        inner.plans_completed.fetch_add(1, Ordering::Relaxed);
        return WireResponse::Plan {
            id: request.id,
            plan: Value::Map(vec![(
                "debug".to_string(),
                Value::Str(format!("stalled {ms}ms")),
            )]),
            cached: false,
            pass_stats: None,
        }
        .to_line_v(request.v);
    }
    inner.plans_errored.fetch_add(1, Ordering::Relaxed);
    WireResponse::from_error(
        request.id,
        &LcmmError::InvalidRequest(format!("unknown debug hook {hook:?}")),
    )
    .to_line_v(request.v)
}

/// Runs one admitted co-plan or route request to a response line.
///
/// Both compute (or replay from cache) the co-plan of the *entire*
/// current registry; a route then answers with just the named tenant's
/// slice of it. The cached payload is always the full summary, so a
/// co-plan and the routes against it share one entry.
fn process_coplan(inner: &Arc<Inner>, job: &Job) -> String {
    let request = &job.request;
    let answer_err = |err: &LcmmError| {
        inner.plans_errored.fetch_add(1, Ordering::Relaxed);
        WireResponse::from_error(request.id, err).to_line_v(request.v)
    };
    let (registry, registry_lanes) = registry_snapshot(inner);
    if registry.is_empty() {
        return answer_err(&LcmmError::InvalidRequest(
            "no models registered; register tenants before co-planning".to_string(),
        ));
    }
    let route_model = match request.op {
        Op::Route => match request.model.as_deref().filter(|m| !m.is_empty()) {
            Some(m) if registry.iter().any(|(name, _)| name == m) => Some(m.to_string()),
            Some(m) => return answer_err(&LcmmError::UnknownModel(m.to_string())),
            None => {
                return answer_err(&LcmmError::InvalidRequest(
                    "route needs a non-empty \"model\" field".to_string(),
                ))
            }
        },
        _ => None,
    };
    let device_name = request.device.as_deref().unwrap_or("vu9p");
    let Some(device) = Device::by_name(device_name) else {
        return answer_err(&LcmmError::UnknownDevice(device_name.to_string()));
    };
    let options = match request.resolve_options() {
        Ok(options) => options,
        Err(err) => return answer_err(&err),
    };
    let opts = CoplanOptions::default().with_options(options);
    let key = coplan_key(registry_lanes, &device, &opts);
    if let Some(stored) = inner.cache.get(&key) {
        let line = match &route_model {
            // A route answers one tenant's slice, so it reads the stored
            // summary; a co-plan splices it whole.
            Some(m) => {
                let slice = serde_json::from_str::<Value>(&stored)
                    .ok()
                    .and_then(|full| tenant_slice(&full, m));
                match slice {
                    Some(slice) => {
                        plan_line(request.id, Payload::Tree(&slice), true, None, request.v)
                    }
                    None => return answer_err(&LcmmError::UnknownModel(m.clone())),
                }
            }
            None => plan_line(request.id, Payload::Json(&stored), true, None, request.v),
        };
        inner.plans_completed.fetch_add(1, Ordering::Relaxed);
        return line;
    }
    if let Err(err) = job.cancel.check() {
        return answer_err(&err);
    }
    let tenants: Vec<TenantSpec> = registry
        .iter()
        .map(|(name, r)| {
            let mut tenant =
                TenantSpec::new(name.clone(), r.graph.clone(), r.precision).with_weight(r.weight);
            if let Some(share) = r.share {
                tenant = tenant.with_share(share);
            }
            tenant
        })
        .collect();
    let plan = match coplan(&inner.harness, &device, &tenants, &opts) {
        Ok(plan) => plan,
        Err(err) => return answer_err(&err),
    };
    let summary = coplan_summary(&plan);
    let stored = serde_json::to_string(&summary).expect("co-plan summary serialises");
    let line = match &route_model {
        Some(m) => {
            let slice = tenant_slice(&summary, m).expect("routed model is a tenant");
            plan_line(request.id, Payload::Tree(&slice), false, None, request.v)
        }
        None => plan_line(request.id, Payload::Json(&stored), false, None, request.v),
    };
    let tags: Vec<String> = registry.iter().map(|(name, _)| model_tag(name)).collect();
    store(inner, key, stored, tags);
    inner.plans_completed.fetch_add(1, Ordering::Relaxed);
    line
}

/// Key prefix of cached workload reports.
const WORKLOAD_KEY_PREFIX: &str = "workload:";

/// Runs one admitted workload-simulation request to a response line.
///
/// The report is a pure function of the request (the simulator is
/// seeded and the grid search deterministic), so inline traces cache
/// like plans do. File-based traces are *never* cached: the path says
/// nothing about the file's contents, and a stale replay after an
/// edited trace would be silently wrong.
fn process_workload(inner: &Arc<Inner>, job: &Job) -> String {
    let request = &job.request;
    let answer_err = |err: &LcmmError| {
        inner.plans_errored.fetch_add(1, Ordering::Relaxed);
        WireResponse::from_error(request.id, err).to_line_v(request.v)
    };
    let Some(models) = request.models.as_deref().filter(|m| !m.is_empty()) else {
        return answer_err(&LcmmError::InvalidRequest(
            "workload needs a non-empty \"models\" field (comma-separated zoo names)".to_string(),
        ));
    };
    let precision =
        match crate::protocol::parse_precision(request.precision.as_deref().unwrap_or("fix16")) {
            Ok(precision) => precision,
            Err(err) => return answer_err(&err),
        };
    let mut tenants = Vec::new();
    for name in models.split(',').map(str::trim) {
        let graph = match crate::protocol::resolve_name(name) {
            Ok(graph) => graph,
            Err(err) => return answer_err(&err),
        };
        tenants.push(TenantSpec::new(name.to_string(), graph, precision));
    }
    let device_name = request.device.as_deref().unwrap_or("vu9p");
    let Some(device) = Device::by_name(device_name) else {
        return answer_err(&LcmmError::UnknownDevice(device_name.to_string()));
    };
    let options = match request.resolve_options() {
        Ok(options) => options,
        Err(err) => return answer_err(&err),
    };
    let steps = request.steps.unwrap_or(4).clamp(2, 64) as usize;
    let opts = CoplanOptions::default()
        .with_options(options)
        .with_search_steps(steps);
    let trace = request.trace.as_deref().unwrap_or("bursty2");
    let controller = ControllerConfig::default().with_enabled(request.controller.unwrap_or(true));
    let cacheable = trace == "bursty2" || trace.contains(':');
    // The digest of `{models}\u{1}{precision}\u{1}{device}\u{1}{options}
    // \u{1}{trace}\u{1}{controller}\u{1}{steps}`, the JSON parts read
    // from [`KeyParts`].
    let key = cacheable.then(|| {
        let mut lanes = FnvLanes::new();
        let mut parts = key_parts();
        let _ = write!(lanes, "{models}\u{1}");
        lanes.write(parts.precision(precision));
        lanes.write(b"\x01");
        lanes.write(parts.device(&device));
        lanes.write(b"\x01");
        parts
            .options(&opts.options)
            .write(&mut lanes, opts.options.tensor_budget);
        let _ = write!(lanes, "\u{1}{trace}\u{1}{}\u{1}{steps}", controller.enabled);
        format!("{WORKLOAD_KEY_PREFIX}{}", lanes.digest())
    });
    if let Some(stored) = key.as_ref().and_then(|k| inner.cache.get(k)) {
        inner.plans_completed.fetch_add(1, Ordering::Relaxed);
        return plan_line(request.id, Payload::Json(&stored), true, None, request.v);
    }
    if let Err(err) = job.cancel.check() {
        return answer_err(&err);
    }
    let report = match lcmm_workload::run_workload(
        &inner.harness,
        &device,
        &tenants,
        trace,
        &controller,
        &opts,
    ) {
        Ok(report) => report,
        Err(err) => return answer_err(&err),
    };
    let stored = serde_json::to_string(&report).expect("workload report serialises");
    let line = plan_line(request.id, Payload::Json(&stored), false, None, request.v);
    if let Some(key) = key {
        store(inner, key, stored, Vec::new());
    }
    inner.plans_completed.fetch_add(1, Ordering::Relaxed);
    line
}

/// Folds one computed plan's pass timings into the `/stats` histograms.
/// A plan replays passes 3–4 on a shared artifact set, so liveness and
/// prefetch are recorded from `front_end`, the build's `(liveness,
/// prefetch)` seconds, which only the first plan of a build receives.
fn record_pass_stats(inner: &Inner, stats: &PassStats, front_end: Option<(f64, f64)>) {
    let mut h = lock_safe(&inner.histograms);
    if let Some((liveness, prefetch)) = front_end {
        h.liveness.record(liveness);
        h.prefetch.record(prefetch);
    }
    h.alloc_split.record(stats.alloc_split_seconds);
    h.total.record(stats.total_seconds);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_of(line: &str) -> Value {
        let v: Value = serde_json::from_str(line).expect("response is JSON");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{line}");
        v.get("plan").cloned().expect("plan payload")
    }

    #[test]
    fn plans_ping_stats_and_shutdown() {
        let server = Server::start(ServerConfig::default().with_workers(2));
        assert_eq!(
            server.handle_line(r#"{"op":"ping","id":1}"#),
            r#"{"id":1,"ok":true,"pong":true}"#
        );
        let first = server.handle_line(r#"{"graph":"alexnet"}"#);
        let plan = plan_of(&first);
        assert_eq!(plan.get("model").and_then(Value::as_str), Some("alexnet"));
        let stats_line = server.handle_line(r#"{"op":"stats"}"#);
        let stats: Value = serde_json::from_str(&stats_line).unwrap();
        let requests = stats.get("stats").and_then(|s| s.get("requests")).unwrap();
        assert_eq!(requests.get("completed").and_then(Value::as_u64), Some(1));
        let ack = server.handle_line(r#"{"op":"shutdown"}"#);
        assert!(ack.contains("\"shutdown\":true"));
        server.shutdown();
        // After shutdown, plans are refused but the handle still answers.
        let refused = server.handle_line(r#"{"graph":"alexnet"}"#);
        assert!(refused.contains("shutting_down"), "{refused}");
    }

    #[test]
    fn duplicate_plans_are_byte_identical_cache_hits() {
        let server = Server::start(ServerConfig::default().with_workers(2));
        let line = r#"{"graph":"alexnet","precision":"8"}"#;
        let first = server.handle_line(line);
        let second = server.handle_line(line);
        let third = server.handle_line(line);
        assert!(first.contains("\"cached\":false"));
        assert!(second.contains("\"cached\":true"));
        assert_eq!(second, third, "two cache hits are byte-identical");
        assert_eq!(plan_of(&first), plan_of(&second));
        server.shutdown();
    }

    #[test]
    fn bad_requests_do_not_kill_the_daemon() {
        let server = Server::start(ServerConfig::default().with_workers(1));
        let garbage = server.handle_line("][");
        assert!(garbage.contains("bad_request"));
        let model = server.handle_line(r#"{"graph":"not-a-net"}"#);
        assert!(model.contains("unknown_model"));
        let device = server.handle_line(r#"{"graph":"alexnet","device":"gpu"}"#);
        assert!(device.contains("unknown_device"));
        // Still serving after three failures.
        let ok = server.handle_line(r#"{"graph":"alexnet"}"#);
        assert!(ok.contains("\"ok\":true"));
        server.shutdown();
    }

    #[test]
    fn exhaustive_allocator_past_its_limit_is_a_bad_request() {
        let server = Server::start(ServerConfig::default().with_workers(1));
        let refused = server.handle_line(r#"{"graph":"googlenet","allocator":"exhaustive"}"#);
        assert!(refused.contains("\"code\":\"bad_request\""), "{refused}");
        assert!(
            refused.contains("limited to 20 buffers, got 37"),
            "{refused}"
        );
        assert_eq!(
            server.handle_line(r#"{"op":"ping","id":1}"#),
            r#"{"id":1,"ok":true,"pong":true}"#
        );
        // A net small enough to enumerate still plans exactly.
        let plan = server.handle_line(
            r#"{"graph":"alexnet","allocator":"exhaustive","options":{"tensor_budget":1048576}}"#,
        );
        assert!(plan.contains("\"ok\":true"), "{plan}");
        assert!(plan.contains("\"allocator\":\"exhaustive\""), "{plan}");
        assert!(plan.contains("\"buffers\":9"), "{plan}");
        server.shutdown();
    }

    #[test]
    fn registry_mutations_acknowledge_and_validate() {
        let server = Server::start(ServerConfig::default().with_workers(1));
        let ack = server.handle_line(r#"{"op":"register","model":"a","graph":"alexnet","id":1}"#);
        assert_eq!(
            ack,
            r#"{"action":"register","id":1,"model":"a","models":1,"ok":true}"#
        );
        // Re-registering overwrites in place: still one model.
        let again = server
            .handle_line(r#"{"op":"register","model":"a","graph":"squeezenet","weight":2.0}"#);
        assert!(again.contains("\"models\":1"), "{again}");
        // Bad registrations are typed errors.
        let missing = server.handle_line(r#"{"op":"register","graph":"alexnet"}"#);
        assert!(missing.contains("bad_request"), "{missing}");
        let model = server.handle_line(r#"{"op":"register","model":"b","graph":"nope"}"#);
        assert!(model.contains("unknown_model"), "{model}");
        let share =
            server.handle_line(r#"{"op":"register","model":"b","graph":"alexnet","share":1.5}"#);
        assert!(share.contains("bad_request"), "{share}");
        // Unregister removes; a second attempt is unknown.
        let gone = server.handle_line(r#"{"op":"unregister","model":"a"}"#);
        assert_eq!(
            gone,
            r#"{"action":"unregister","model":"a","models":0,"ok":true}"#
        );
        let repeat = server.handle_line(r#"{"op":"unregister","model":"a"}"#);
        assert!(repeat.contains("unknown_model"), "{repeat}");
        server.shutdown();
    }

    #[test]
    fn coplan_routes_and_replays_from_cache() {
        let server = Server::start(ServerConfig::default().with_workers(2));
        // No tenants yet: co-planning is a typed error.
        let empty = server.handle_line(r#"{"op":"coplan"}"#);
        assert!(empty.contains("bad_request"), "{empty}");
        // Explicit shares keep the test off the (slower) split search.
        server.handle_line(r#"{"op":"register","model":"axn","graph":"alexnet","share":0.5}"#);
        server.handle_line(r#"{"op":"register","model":"sqz","graph":"squeezenet","share":0.5}"#);
        let first = server.handle_line(r#"{"op":"coplan"}"#);
        assert!(first.contains("\"cached\":false"), "{first}");
        let replay = server.handle_line(r#"{"op":"coplan"}"#);
        assert!(replay.contains("\"cached\":true"), "{replay}");
        // Routing shares the cached entry and answers one tenant's slice.
        let routed = server.handle_line(r#"{"op":"route","model":"sqz"}"#);
        assert!(routed.contains("\"cached\":true"), "{routed}");
        assert!(routed.contains("\"model\":\"sqz\""), "{routed}");
        assert!(!routed.contains("\"model\":\"axn\""), "{routed}");
        let unknown = server.handle_line(r#"{"op":"route","model":"vgg"}"#);
        assert!(unknown.contains("unknown_model"), "{unknown}");
        server.shutdown();
    }

    #[test]
    fn expired_deadline_times_out() {
        let server = Server::start(ServerConfig::default().with_workers(1));
        // A large unique synthetic graph with a 1 ms budget cannot finish.
        let line = r#"{"graph":"synthetic:1024x4x99","deadline_ms":0}"#;
        let resp = server.handle_line(line);
        assert!(resp.contains("\"code\":\"timeout\""), "{resp}");
        server.shutdown();
    }

    #[test]
    fn async_handle_replies_through_the_callback() {
        let server = Server::start(ServerConfig::default().with_workers(2));
        let (tx, rx) = std::sync::mpsc::channel();
        let reply = |tx: &std::sync::mpsc::Sender<String>| {
            let tx = tx.clone();
            Box::new(move |line| tx.send(line).unwrap()) as Callback
        };
        // Inline op: answered on return, and the callback never fires.
        assert_eq!(
            server
                .handle_line_async(r#"{"op":"ping","id":7}"#, reply(&tx))
                .as_deref(),
            Some(r#"{"id":7,"ok":true,"pong":true}"#)
        );
        // Queued plan: callback fires from a worker thread.
        let line = r#"{"graph":"alexnet"}"#;
        assert_eq!(server.handle_line_async(line, reply(&tx)), None);
        let computed = rx.recv_timeout(Duration::from_secs(60)).unwrap();
        assert!(computed.contains("\"cached\":false"), "{computed}");
        // Its repeat is a hit answered on return, byte for byte the
        // computed reply with the flag flipped.
        let hit = server.handle_line_async(line, reply(&tx));
        assert_eq!(
            hit,
            Some(computed.replacen("\"cached\":false", "\"cached\":true", 1))
        );
        drop(tx);
        assert!(rx.recv().is_err(), "no callback fired for an inline answer");
        server.shutdown();
    }

    #[test]
    fn cache_keys_are_digests_of_the_serialized_parts() {
        // The memoized graph fingerprint must leave every key as it was
        // (a digest over the compact JSON of each part), or plans a WAL
        // recorded earlier would stop replaying into hits.
        fn json<T: serde::Serialize>(value: &T) -> String {
            serde_json::to_string(value).expect("key parts serialise")
        }
        let request = WireRequest::from_line(
            r#"{"graph":"googlenet","precision":"8","allocator":"greedy","options":{"tensor_budget":65536}}"#,
        )
        .expect("parses");
        let resolved = request.resolve_plan().expect("resolves");
        assert_eq!(
            cache_key(&resolved),
            digest(&format!(
                "{}\u{1}{}\u{1}{}\u{1}{}",
                json(&resolved.graph),
                json(&resolved.device),
                json(&resolved.precision),
                json(&resolved.options),
            ))
        );
        let tenant = |graph: Graph, share| Registered {
            graph,
            precision: Precision::Fix8,
            weight: 2.0,
            share,
        };
        let registry = vec![
            (
                "axn".to_string(),
                tenant(lcmm_graph::zoo::alexnet(), Some(0.5)),
            ),
            (
                "sqz".to_string(),
                tenant(lcmm_graph::zoo::squeezenet(), None),
            ),
        ];
        let device = Device::vu9p();
        let opts = CoplanOptions::default();
        let mut fingerprint = String::new();
        for (name, r) in &registry {
            fingerprint.push_str(&format!(
                "{name}\u{1}{}\u{1}{}\u{1}{}\u{1}{:?}\u{2}",
                json(&r.graph),
                json(&r.precision),
                r.weight,
                r.share,
            ));
        }
        fingerprint.push_str(&format!("{}\u{1}{}", json(&device), json(&opts)));
        assert_eq!(
            coplan_cache_key(&registry, &device, &opts),
            format!("{COPLAN_KEY_PREFIX}{}", digest(&fingerprint))
        );
    }

    /// The co-plan key a co-plan or route builds from the registry's
    /// memoized digest state equals the key built from scratch after
    /// every kind of registry write, WAL replay included.
    #[test]
    fn memoized_coplan_keys_follow_every_registry_write() {
        let dir = std::env::temp_dir().join(format!("lcmm_coplan_key_memo_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || ServerConfig::default().with_workers(1).with_wal_dir(&dir);
        let device = Device::vu9p();
        let opts = CoplanOptions::default();
        let key = |server: &Server, after: &str| {
            let (registry, lanes) = registry_snapshot(&server.inner);
            let live = coplan_key(lanes, &device, &opts);
            assert_eq!(
                live,
                coplan_cache_key(&registry, &device, &opts),
                "after {after}"
            );
            // The next read answers from the memo, and keys alike.
            assert!(lock_safe(&server.inner.registry).lanes.is_some());
            let (_, memoized) = registry_snapshot(&server.inner);
            assert_eq!(coplan_key(memoized, &device, &opts), live, "after {after}");
            live
        };
        let server = Server::start(config());
        let ok = |line: &str| {
            let reply = server.handle_line(line);
            assert!(reply.contains("\"ok\":true"), "{line}: {reply}");
        };
        ok(r#"{"op":"register","model":"axn","graph":"alexnet","share":0.4}"#);
        ok(r#"{"op":"register","model":"sqz","graph":"squeezenet","share":0.4}"#);
        let mut last = key(&server, "two registers");
        for (write, line, changes) in [
            (
                "a no-op register",
                r#"{"op":"register","model":"sqz","graph":"squeezenet","share":0.4}"#,
                false,
            ),
            (
                "a new graph",
                r#"{"op":"register","model":"sqz","graph":"mobilenet","share":0.4}"#,
                true,
            ),
            (
                "a new precision",
                r#"{"op":"register","model":"sqz","graph":"mobilenet","precision":"8","share":0.4}"#,
                true,
            ),
            (
                "a new weight",
                r#"{"op":"register","model":"sqz","graph":"mobilenet","precision":"8","weight":2.0,"share":0.4}"#,
                true,
            ),
            (
                "a new share",
                r#"{"op":"register","model":"sqz","graph":"mobilenet","precision":"8","weight":2.0,"share":0.3}"#,
                true,
            ),
            (
                "an unregister",
                r#"{"op":"unregister","model":"axn"}"#,
                true,
            ),
        ] {
            ok(line);
            let next = key(&server, write);
            assert_eq!(next != last, changes, "{write} changes the key");
            last = next;
        }
        server.shutdown();
        let revived = Server::start(config());
        assert_eq!(key(&revived, "a WAL replay"), last);
        revived.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Registry churn over ever-new graphs keeps the harness bounded: a
    /// model re-registered with a new graph at every version, and a
    /// client cycling new graphs through register, co-plan and
    /// unregister, leave the state of at most [`RETIRED_GRAPHS`]
    /// unregistered graphs behind.
    #[test]
    fn registry_churn_over_new_graphs_keeps_the_harness_bounded() {
        let server = Server::start(ServerConfig::default().with_workers(1));
        let ok = |line: &str| {
            let reply = server.handle_line(line);
            assert!(reply.contains("\"ok\":true"), "{line}: {reply}");
        };
        let register = |model: &str, seed: usize| {
            ok(&format!(
                r#"{{"op":"register","model":"{model}","graph":"synthetic:48x3x{seed}","share":0.5}}"#
            ));
        };
        let rollout = |seed: usize| {
            register("m", seed);
            ok(r#"{"op":"coplan"}"#);
        };
        let cycle = |seed: usize| {
            register("c", seed);
            ok(r#"{"op":"coplan"}"#);
            ok(r#"{"op":"unregister","model":"c"}"#);
        };
        let entries = || server.inner.harness.entry_count();
        for (phase, churn) in [(0, &rollout as &dyn Fn(usize)), (1000, &cycle)] {
            // The first RETIRED_GRAPHS + 1 graphs fill the retired queue
            // with graphs of this phase's kind; past that, every new
            // graph retires the oldest one and drops its state.
            for seed in phase..=phase + RETIRED_GRAPHS {
                churn(seed);
            }
            let bound = entries();
            for seed in phase + RETIRED_GRAPHS + 1..phase + 3 * (RETIRED_GRAPHS + 1) {
                churn(seed);
                assert_eq!(entries(), bound, "graph {seed} grew the harness");
            }
        }
        server.shutdown();
    }

    #[test]
    fn structurally_broken_inline_graphs_are_bad_requests() {
        let server = Server::start(ServerConfig::default().with_workers(1));
        let alexnet = serde_json::to_string(&lcmm_graph::zoo::alexnet()).expect("serialises");
        let probes = [
            ("\"inputs\":[0]", "\"inputs\":[99]", "unknown node id 99"),
            ("\"output\":11}", "\"output\":999}", "unknown node id 999"),
            ("\"inputs\":[0]", "\"inputs\":[11]", "cycle"),
            ("\"id\":1,", "\"id\":999,", "id 999"),
        ];
        for (from, to, why) in probes {
            let graph = alexnet.replacen(from, to, 1);
            assert_ne!(graph, alexnet, "tamper target {from:?} not found");
            for line in [
                format!(r#"{{"graph":{{"inline":{graph}}}}}"#),
                format!(r#"{{"op":"register","model":"bad","graph":{{"inline":{graph}}}}}"#),
            ] {
                let resp = server.handle_line(&line);
                assert!(resp.contains("\"code\":\"bad_request\""), "{why}: {resp}");
                assert!(resp.contains(why), "{why}: {resp}");
            }
        }
        let stats: Value = serde_json::from_str(&server.handle_line(r#"{"op":"stats"}"#)).unwrap();
        let registry = stats.get("stats").and_then(|s| s.get("registry")).unwrap();
        assert_eq!(registry.get("models").and_then(Value::as_u64), Some(0));
        // Still serving, the untampered inline graph included.
        let ok = server.handle_line(&format!(r#"{{"graph":{{"inline":{alexnet}}}}}"#));
        assert!(ok.contains("\"ok\":true"), "{ok}");
        server.shutdown();
    }
}
