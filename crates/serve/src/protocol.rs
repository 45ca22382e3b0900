//! The JSON-lines wire protocol of the `lcmm serve` daemon.
//!
//! One request per line, one response per line, in order. The full
//! schema — field tables, error codes, examples — is documented in
//! `docs/SERVE.md`; this module is its executable form: parsing
//! ([`WireRequest::from_line`]), resolution of graph/device/precision
//! names into model types ([`WireRequest::resolve_plan`]), and
//! deterministic response rendering ([`WireResponse`]).

use lcmm_core::pipeline::AllocatorKind;
use lcmm_core::{
    FusionMode, LcmmError, LcmmOptions, LcmmResult, PassStats, StreamingMode, UmmBaseline, ValueId,
    WeightMode, STREAM_PING_PONG_BYTES,
};
use lcmm_fpga::{Device, Precision};
use lcmm_graph::Graph;
use serde_json::Value;

/// What a request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Run (or replay from cache) an LCMM plan.
    Plan,
    /// Register (or re-register) a model in the tenant registry.
    Register,
    /// Remove a model from the tenant registry.
    Unregister,
    /// Co-plan every registered model jointly on one device.
    Coplan,
    /// Route one registered model's slice out of the active co-plan.
    Route,
    /// Report daemon statistics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Begin graceful shutdown: drain queued work, then exit.
    Shutdown,
    /// Run the trace-driven workload simulator over a set of models.
    Workload,
}

/// Which graph a plan request is about.
#[derive(Debug, Clone)]
pub enum GraphSpec {
    /// A zoo name (`"googlenet"`) or synthetic spec string
    /// (`"synthetic:256x4x7"`, optionally `@<width%>`).
    Named(String),
    /// An explicit synthetic-generator parameterisation.
    Synthetic {
        /// Requested node count.
        depth: usize,
        /// Branch cap per inception module.
        branching: usize,
        /// Topology seed.
        seed: u64,
        /// Channel width scale in percent (100 = unscaled).
        width_percent: usize,
    },
    /// A full inline graph, in the `lcmm export --json` encoding.
    Inline(Box<Graph>),
}

impl GraphSpec {
    /// Builds the graph this spec names.
    ///
    /// # Errors
    ///
    /// [`LcmmError::UnknownModel`] for unresolvable names.
    pub fn resolve(&self) -> Result<Graph, LcmmError> {
        match self {
            GraphSpec::Named(name) => {
                lcmm_graph::zoo::by_name(name).ok_or_else(|| LcmmError::UnknownModel(name.clone()))
            }
            GraphSpec::Synthetic {
                depth,
                branching,
                seed,
                width_percent,
            } => {
                if *depth == 0 || *width_percent == 0 {
                    return Err(LcmmError::InvalidRequest(
                        "synthetic depth and width_percent must be positive".to_string(),
                    ));
                }
                Ok(lcmm_graph::zoo::synthetic_scaled(
                    *depth,
                    *branching,
                    *seed,
                    *width_percent,
                ))
            }
            GraphSpec::Inline(graph) => Ok((**graph).clone()),
        }
    }
}

/// A parsed (but not yet resolved) request line.
#[derive(Debug, Clone)]
pub struct WireRequest {
    /// Protocol version the client speaks. Absent means 1 (every
    /// pre-versioning request form is part of the frozen v1 surface).
    /// When present, the response echoes it as a trailing `"v"` field;
    /// versions above 1 are rejected with `unsupported_version`.
    pub v: Option<u64>,
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// The operation; defaults to [`Op::Plan`] when `graph` is present.
    pub op: Op,
    /// The graph to plan (required for [`Op::Plan`]).
    pub graph: Option<GraphSpec>,
    /// Device short name; defaults to `vu9p`.
    pub device: Option<String>,
    /// Precision name; defaults to 16-bit fixed point.
    pub precision: Option<String>,
    /// Allocator name; defaults to `dnnk`.
    pub allocator: Option<String>,
    /// Overrides `LcmmOptions::feature_reuse`.
    pub feature_reuse: Option<bool>,
    /// Overrides `LcmmOptions::weight_prefetch`.
    pub weight_prefetch: Option<bool>,
    /// Overrides `LcmmOptions::splitting`.
    pub splitting: Option<bool>,
    /// Overrides `LcmmOptions::weight_streaming` — `"off"`, `"pinned"`
    /// or `"auto"`.
    pub weight_streaming: Option<String>,
    /// Overrides `LcmmOptions::fusion` — `"off"` or `"auto"`. Auto runs
    /// the fused-layer grouping pass ahead of liveness.
    pub fusion: Option<String>,
    /// Overrides `LcmmOptions::tensor_budget` — caps the knapsack's
    /// SRAM budget in bytes (the knob that makes streaming matter).
    pub tensor_budget: Option<u64>,
    /// Per-request deadline in milliseconds, measured from admission.
    pub deadline_ms: Option<u64>,
    /// Attach this run's `PassStats` to the response (computed plans
    /// only; cache hits replay stored bytes and omit stats).
    pub include_stats: bool,
    /// Registry model name ([`Op::Register`] / [`Op::Unregister`] /
    /// [`Op::Route`]).
    pub model: Option<String>,
    /// Objective weight of a registered tenant ([`Op::Register`]).
    pub weight: Option<f64>,
    /// Explicit compute share of a registered tenant ([`Op::Register`]).
    pub share: Option<f64>,
    /// Comma-separated zoo models to simulate ([`Op::Workload`]).
    pub models: Option<String>,
    /// Trace spec — `bursty2`, an inline spec, or a JSON trace file
    /// path ([`Op::Workload`]).
    pub trace: Option<String>,
    /// Whether the adaptive share controller runs ([`Op::Workload`];
    /// defaults to on).
    pub controller: Option<bool>,
    /// Share-grid resolution ([`Op::Workload`]; defaults to 4).
    pub steps: Option<u64>,
}

/// A plan request resolved into model types, ready to run.
#[derive(Debug, Clone)]
pub struct ResolvedPlan {
    /// The graph to plan.
    pub graph: Graph,
    /// The target device.
    pub device: Device,
    /// Datapath precision.
    pub precision: Precision,
    /// Pipeline options (allocator and pass toggles applied).
    pub options: LcmmOptions,
}

impl WireRequest {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A human-readable message for malformed JSON, non-object lines,
    /// unknown `op` values, or ill-typed fields. The daemon maps these
    /// to the `bad_request` error code.
    pub fn from_line(line: &str) -> Result<Self, String> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let obj = value
            .as_object()
            .ok_or_else(|| "request must be a JSON object".to_string())?;
        for (key, _) in obj {
            match key.as_str() {
                "v" | "id" | "op" | "graph" | "device" | "precision" | "allocator" | "options"
                | "deadline_ms" | "include_stats" | "model" | "weight" | "share" | "models"
                | "trace" | "controller" | "steps" => {}
                other => return Err(format!("unknown request field {other:?}")),
            }
        }
        let v = match value.get("v") {
            None | Some(Value::Null) => None,
            Some(val) => Some(
                val.as_u64()
                    .ok_or_else(|| "v must be an unsigned integer".to_string())?,
            ),
        };
        let id = match value.get("id") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| "id must be an unsigned integer".to_string())?,
            ),
        };
        let op = match value.get("op") {
            None => Op::Plan,
            Some(v) => match v.as_str() {
                Some("plan") => Op::Plan,
                Some("register") => Op::Register,
                Some("unregister") => Op::Unregister,
                Some("coplan") => Op::Coplan,
                Some("route") => Op::Route,
                Some("stats") => Op::Stats,
                Some("ping") => Op::Ping,
                Some("shutdown") => Op::Shutdown,
                Some("workload") => Op::Workload,
                Some(other) => return Err(format!("unknown op {other:?}")),
                None => return Err("op must be a string".to_string()),
            },
        };
        let graph = match value.get("graph") {
            None | Some(Value::Null) => None,
            Some(v) => Some(parse_graph_spec(v)?),
        };
        let str_field = |name: &str| -> Result<Option<String>, String> {
            match value.get(name) {
                None | Some(Value::Null) => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(|s| Some(s.to_string()))
                    .ok_or_else(|| format!("{name} must be a string")),
            }
        };
        let device = str_field("device")?;
        let precision = str_field("precision")?;
        let allocator = str_field("allocator")?;
        let (mut feature_reuse, mut weight_prefetch, mut splitting) = (None, None, None);
        let mut weight_streaming = None;
        let mut fusion = None;
        let mut tensor_budget = None;
        if let Some(options) = value.get("options") {
            let entries = options
                .as_object()
                .ok_or_else(|| "options must be an object".to_string())?;
            let bool_option = |key: &str, v: &Value| -> Result<bool, String> {
                v.as_bool()
                    .ok_or_else(|| format!("options.{key} must be a boolean"))
            };
            for (key, v) in entries {
                match key.as_str() {
                    "feature_reuse" => feature_reuse = Some(bool_option(key, v)?),
                    "weight_prefetch" => weight_prefetch = Some(bool_option(key, v)?),
                    "splitting" => splitting = Some(bool_option(key, v)?),
                    "weight_streaming" => {
                        let mode = v.as_str().ok_or_else(|| {
                            "options.weight_streaming must be a string".to_string()
                        })?;
                        weight_streaming = Some(mode.to_string());
                    }
                    "fusion" => {
                        let mode = v
                            .as_str()
                            .ok_or_else(|| "options.fusion must be a string".to_string())?;
                        fusion = Some(mode.to_string());
                    }
                    "tensor_budget" => {
                        tensor_budget = Some(v.as_u64().ok_or_else(|| {
                            "options.tensor_budget must be an unsigned integer".to_string()
                        })?);
                    }
                    other => return Err(format!("unknown option {other:?}")),
                }
            }
        }
        let deadline_ms = match value.get("deadline_ms") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| "deadline_ms must be an unsigned integer".to_string())?,
            ),
        };
        let include_stats = match value.get("include_stats") {
            None | Some(Value::Null) => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| "include_stats must be a boolean".to_string())?,
        };
        let model = str_field("model")?;
        let f64_field = |name: &str| -> Result<Option<f64>, String> {
            match value.get(name) {
                None | Some(Value::Null) => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| format!("{name} must be a number")),
            }
        };
        let weight = f64_field("weight")?;
        let share = f64_field("share")?;
        let models = str_field("models")?;
        let trace = str_field("trace")?;
        let controller = match value.get("controller") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_bool()
                    .ok_or_else(|| "controller must be a boolean".to_string())?,
            ),
        };
        let steps = match value.get("steps") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| "steps must be an unsigned integer".to_string())?,
            ),
        };
        Ok(Self {
            v,
            id,
            op,
            graph,
            device,
            precision,
            allocator,
            feature_reuse,
            weight_prefetch,
            splitting,
            weight_streaming,
            fusion,
            tensor_budget,
            deadline_ms,
            include_stats,
            model,
            weight,
            share,
            models,
            trace,
            controller,
            steps,
        })
    }

    /// Resolves the plan fields into model types.
    ///
    /// # Errors
    ///
    /// [`LcmmError::InvalidRequest`] for a missing graph or unknown
    /// precision/allocator, [`LcmmError::UnknownModel`] /
    /// [`LcmmError::UnknownDevice`] for unresolvable names.
    pub fn resolve_plan(&self) -> Result<ResolvedPlan, LcmmError> {
        let spec = self.graph.as_ref().ok_or_else(|| {
            LcmmError::InvalidRequest("plan request needs a \"graph\" field".to_string())
        })?;
        self.resolve_plan_of(spec.resolve()?)
    }

    /// [`WireRequest::resolve_plan`] when that costs no graph build:
    /// the request names a zoo net this process has already built
    /// ([`lcmm_graph::zoo::built_by_name`]). `None` for synthetic specs,
    /// inline graphs, nets not built yet, and requests that do not
    /// resolve (those are left to [`WireRequest::resolve_plan`], which
    /// reports why).
    #[must_use]
    pub(crate) fn resolve_built_plan(&self) -> Option<ResolvedPlan> {
        let Some(GraphSpec::Named(name)) = &self.graph else {
            return None;
        };
        self.resolve_plan_of(lcmm_graph::zoo::built_by_name(name)?)
            .ok()
    }

    /// Resolves the fields other than the graph around `graph`.
    fn resolve_plan_of(&self, graph: Graph) -> Result<ResolvedPlan, LcmmError> {
        let device_name = self.device.as_deref().unwrap_or("vu9p");
        let device = Device::by_name(device_name)
            .ok_or_else(|| LcmmError::UnknownDevice(device_name.to_string()))?;
        let precision = parse_precision(self.precision.as_deref().unwrap_or("fix16"))?;
        Ok(ResolvedPlan {
            graph,
            device,
            precision,
            options: self.resolve_options()?,
        })
    }

    /// Resolves just the allocator and pass-toggle fields — shared by
    /// plan and co-plan requests.
    ///
    /// # Errors
    ///
    /// [`LcmmError::InvalidRequest`] for an unknown allocator name.
    pub(crate) fn resolve_options(&self) -> Result<LcmmOptions, LcmmError> {
        let mut options = LcmmOptions::default();
        if let Some(name) = self.allocator.as_deref() {
            options = options.with_allocator(parse_allocator(name)?);
        }
        if let Some(flag) = self.feature_reuse {
            options = options.with_feature_reuse(flag);
        }
        if let Some(flag) = self.weight_prefetch {
            options = options.with_weight_prefetch(flag);
        }
        if let Some(flag) = self.splitting {
            options = options.with_splitting(flag);
        }
        if let Some(mode) = self.weight_streaming.as_deref() {
            let mode = match mode {
                "off" => StreamingMode::Off,
                "pinned" => StreamingMode::Pinned,
                "auto" => StreamingMode::Auto,
                other => {
                    return Err(LcmmError::InvalidRequest(format!(
                        "unknown weight_streaming mode {other:?} (expected off, pinned or auto)"
                    )))
                }
            };
            options = options.with_weight_streaming(mode);
        }
        if let Some(mode) = self.fusion.as_deref() {
            let mode = match mode {
                "off" => FusionMode::Off,
                "auto" => FusionMode::Auto,
                other => {
                    return Err(LcmmError::InvalidRequest(format!(
                        "unknown fusion mode {other:?} (expected off or auto)"
                    )))
                }
            };
            options = options.with_fusion(mode);
        }
        if let Some(budget) = self.tensor_budget {
            options = options.with_tensor_budget(Some(budget));
        }
        Ok(options)
    }
}

/// Parses the `graph` field: a name string, a `{"zoo": ...}` /
/// `{"synthetic": {...}}` / `{"inline": {...}}` object.
fn parse_graph_spec(v: &Value) -> Result<GraphSpec, String> {
    if let Some(name) = v.as_str() {
        return Ok(GraphSpec::Named(name.to_string()));
    }
    let obj = v
        .as_object()
        .ok_or_else(|| "graph must be a name string or an object".to_string())?;
    if obj.len() != 1 {
        return Err("graph object must have exactly one of: zoo, synthetic, inline".to_string());
    }
    let (key, inner) = &obj[0];
    match key.as_str() {
        "zoo" => inner
            .as_str()
            .map(|s| GraphSpec::Named(s.to_string()))
            .ok_or_else(|| "graph.zoo must be a string".to_string()),
        "synthetic" => {
            let field = |name: &str, default: Option<u64>| -> Result<u64, String> {
                match inner.get(name) {
                    None | Some(Value::Null) => {
                        default.ok_or_else(|| format!("graph.synthetic.{name} is required"))
                    }
                    Some(v) => v
                        .as_u64()
                        .ok_or_else(|| format!("graph.synthetic.{name} must be an integer")),
                }
            };
            inner
                .as_object()
                .ok_or_else(|| "graph.synthetic must be an object".to_string())?;
            Ok(GraphSpec::Synthetic {
                depth: field("depth", None)? as usize,
                branching: field("branching", Some(2))? as usize,
                seed: field("seed", Some(7))?,
                width_percent: field("width_percent", Some(100))? as usize,
            })
        }
        "inline" => {
            let graph: Graph = serde_json::from_value(inner)
                .map_err(|e| format!("graph.inline does not decode as a graph: {e}"))?;
            if graph.is_empty() {
                return Err("graph.inline is empty".to_string());
            }
            Ok(GraphSpec::Inline(Box::new(graph)))
        }
        other => Err(format!("unknown graph spec kind {other:?}")),
    }
}

/// Parses a precision name (`8`/`fix8`, `16`/`fix16`, `32`/`float32`…).
pub(crate) fn parse_precision(name: &str) -> Result<Precision, LcmmError> {
    match name.to_ascii_lowercase().as_str() {
        "8" | "fix8" | "int8" | "8-bit" => Ok(Precision::Fix8),
        "16" | "fix16" | "int16" | "16-bit" => Ok(Precision::Fix16),
        "32" | "float32" | "fp32" | "32-bit" => Ok(Precision::Float32),
        other => Err(LcmmError::InvalidRequest(format!(
            "unknown precision {other:?} (use 8, 16 or 32)"
        ))),
    }
}

/// Parses an allocator name.
fn parse_allocator(name: &str) -> Result<AllocatorKind, LcmmError> {
    match name.to_ascii_lowercase().as_str() {
        "dnnk" => Ok(AllocatorKind::Dnnk),
        "dnnk-iterative" | "dnnk_iterative" | "iterative" => Ok(AllocatorKind::DnnkIterative),
        "greedy" => Ok(AllocatorKind::Greedy),
        "exhaustive" => Ok(AllocatorKind::Exhaustive),
        other => Err(LcmmError::InvalidRequest(format!(
            "unknown allocator {other:?} (use dnnk, dnnk-iterative, greedy or exhaustive)"
        ))),
    }
}

/// Canonical allocator name for summaries (inverse of the wire
/// `allocator` field's parser).
#[must_use]
pub fn allocator_name(kind: AllocatorKind) -> &'static str {
    match kind {
        AllocatorKind::Dnnk => "dnnk",
        AllocatorKind::DnnkIterative => "dnnk-iterative",
        AllocatorKind::Greedy => "greedy",
        AllocatorKind::Exhaustive => "exhaustive",
    }
}

/// Canonical precision name for summaries.
#[must_use]
pub fn precision_name(precision: Precision) -> &'static str {
    match precision {
        Precision::Fix8 => "fix8",
        Precision::Fix16 => "fix16",
        Precision::Float32 => "float32",
    }
}

/// Builds the deterministic plan summary embedded in responses (and
/// stored in the plan cache). Every field is a pure function of the
/// request, so byte-identity across duplicate requests holds; wall
/// clock timings live in the separate `pass_stats` response field.
#[must_use]
pub fn plan_summary(resolved: &ResolvedPlan, result: &LcmmResult, umm: &UmmBaseline) -> Value {
    let allocated: u64 = result.allocated_buffer_sizes().iter().sum();
    let chosen = result.chosen.iter().filter(|&&c| c).count();
    let design = Value::Map(vec![
        (
            "array_cols".to_string(),
            Value::U64(result.design.array.cols as u64),
        ),
        (
            "array_rows".to_string(),
            Value::U64(result.design.array.rows as u64),
        ),
        (
            "array_simd".to_string(),
            Value::U64(result.design.array.simd as u64),
        ),
        ("batch".to_string(), Value::U64(result.design.batch as u64)),
        (
            "frequency_hz".to_string(),
            Value::F64(result.design.freq_hz),
        ),
    ]);
    let mut fields = vec![
        ("allocated_bytes".to_string(), Value::U64(allocated)),
        (
            "allocator".to_string(),
            Value::Str(allocator_name(resolved.options.allocator).to_string()),
        ),
        (
            "buffers".to_string(),
            Value::U64(result.buffers.len() as u64),
        ),
        ("chosen_buffers".to_string(), Value::U64(chosen as u64)),
        ("design".to_string(), design),
        (
            "device".to_string(),
            Value::Str(result.design.device.name.clone()),
        ),
        ("latency_seconds".to_string(), Value::F64(result.latency)),
        (
            "layers_benefiting".to_string(),
            Value::U64(result.layers_benefiting as u64),
        ),
        (
            "memory_bound_layers".to_string(),
            Value::U64(result.memory_bound_layers as u64),
        ),
        (
            "model".to_string(),
            Value::Str(resolved.graph.name().to_string()),
        ),
        ("nodes".to_string(), Value::U64(resolved.graph.len() as u64)),
        ("ops".to_string(), Value::U64(result.ops)),
        ("pol".to_string(), Value::F64(result.pol())),
        (
            "precision".to_string(),
            Value::Str(precision_name(resolved.precision).to_string()),
        ),
        (
            "resident_values".to_string(),
            Value::U64(result.residency.len() as u64),
        ),
        (
            "speedup_over_umm".to_string(),
            Value::F64(result.speedup_over(umm.latency)),
        ),
        (
            "split_iterations".to_string(),
            Value::U64(result.split_iterations as u64),
        ),
        ("umm_latency_seconds".to_string(), Value::F64(umm.latency)),
    ];
    // Optional blocks are surfaced only when their pass was requested,
    // so legacy responses (and their goldens) stay byte-identical. The
    // fusion block keeps the summary's alphabetical key order ("fusion"
    // sorts between "device" and "latency_seconds").
    if resolved.options.fusion != FusionMode::Off {
        let pos = fields.partition_point(|(k, _)| k.as_str() < "fusion");
        fields.insert(
            pos,
            ("fusion".to_string(), fusion_summary(resolved, result)),
        );
    }
    if resolved.options.weight_streaming != StreamingMode::Off {
        fields.push((
            "weight_streaming".to_string(),
            weight_streaming_summary(resolved, result),
        ));
    }
    Value::Map(fields)
}

/// The `fusion` block of a plan summary: aggregate benefit plus one
/// table row per selected fused group (member/output layer names and
/// the tile count the group executes with). Pure function of the
/// result's fusion plan, so it replays byte-identically from the cache.
fn fusion_summary(resolved: &ResolvedPlan, result: &LcmmResult) -> Value {
    let groups: Vec<Value> = result
        .fusion
        .groups
        .iter()
        .map(|g| {
            Value::Map(vec![
                (
                    "nodes".to_string(),
                    Value::Seq(
                        g.nodes
                            .iter()
                            .map(|&n| Value::Str(resolved.graph.node(n).name().to_string()))
                            .collect(),
                    ),
                ),
                (
                    "output".to_string(),
                    Value::Str(resolved.graph.node(g.output).name().to_string()),
                ),
                ("tiles".to_string(), Value::U64(g.tiles as u64)),
                (
                    "transfer_saved_seconds".to_string(),
                    Value::F64(g.transfer_saved_seconds),
                ),
            ])
        })
        .collect();
    Value::Map(vec![
        (
            "benefit_seconds".to_string(),
            Value::F64(result.fusion.benefit_seconds()),
        ),
        (
            "eliminated_tensors".to_string(),
            Value::U64(result.fusion.eliminated().len() as u64),
        ),
        (
            "fused_nodes".to_string(),
            Value::U64(result.fusion.fused_nodes() as u64),
        ),
        ("groups".to_string(), Value::Seq(groups)),
        (
            "transfer_saved_seconds".to_string(),
            Value::F64(result.fusion.transfer_saved_seconds()),
        ),
    ])
}

/// The `weight_streaming` block of a plan summary: occupied (mode-aware)
/// bytes, per-mode buffer counts, and one table row per chosen buffer
/// that is not pinned whole.
fn weight_streaming_summary(resolved: &ResolvedPlan, result: &LcmmResult) -> Value {
    let occupied: u64 = result.occupied_buffer_sizes().iter().sum();
    let (mut pinned, mut streamed, mut partial) = (0u64, 0u64, 0u64);
    let mut table = Vec::new();
    let rows = result
        .buffers
        .iter()
        .zip(&result.chosen)
        .zip(&result.weight_modes);
    for (i, ((buf, &chosen), &mode)) in rows.enumerate() {
        if !chosen || !buf.members.iter().any(|m| matches!(m, ValueId::Weight(_))) {
            continue;
        }
        let bytes = match mode {
            WeightMode::Pinned => {
                pinned += 1;
                continue;
            }
            WeightMode::Streamed { .. } => {
                streamed += 1;
                STREAM_PING_PONG_BYTES
            }
            WeightMode::PartialResident { resident_bytes } => {
                partial += 1;
                resident_bytes
            }
        };
        let ValueId::Weight(node) = buf.members[0] else {
            continue;
        };
        table.push(Value::Map(vec![
            ("buffer".to_string(), Value::U64(i as u64)),
            ("mode".to_string(), Value::Str(mode.label())),
            (
                "node".to_string(),
                Value::Str(resolved.graph.node(node).name().to_string()),
            ),
            ("occupied_bytes".to_string(), Value::U64(bytes)),
            ("weight_bytes".to_string(), Value::U64(buf.bytes)),
        ]));
    }
    Value::Map(vec![
        ("occupied_bytes".to_string(), Value::U64(occupied)),
        ("partial".to_string(), Value::U64(partial)),
        ("pinned".to_string(), Value::U64(pinned)),
        ("streamed".to_string(), Value::U64(streamed)),
        ("table".to_string(), Value::Seq(table)),
    ])
}

/// JSON form of a `PassStats` (wall-clock fields — nondeterministic,
/// never cached or goldened).
#[must_use]
pub fn pass_stats_value(stats: &PassStats) -> Value {
    serde_json::to_value(stats).unwrap_or(Value::Null)
}

/// Response envelopes. Each renders to one JSON line with a fixed field
/// order, so equal payloads are byte-identical lines.
#[derive(Debug, Clone)]
pub enum WireResponse {
    /// A successful plan: the summary, whether it came from the cache,
    /// and (for computed plans that asked) the run's pass stats.
    Plan {
        /// Echoed request id.
        id: Option<u64>,
        /// The [`plan_summary`] payload.
        plan: Value,
        /// Whether the payload was replayed from the plan cache.
        cached: bool,
        /// `PassStats` of the computing run, when requested.
        pass_stats: Option<Value>,
    },
    /// A `/stats` report.
    Stats {
        /// Echoed request id.
        id: Option<u64>,
        /// The stats payload (see `docs/SERVE.md`).
        stats: Value,
    },
    /// Acknowledges a registry mutation (`register` / `unregister`).
    Registry {
        /// Echoed request id.
        id: Option<u64>,
        /// `"register"` or `"unregister"`.
        action: String,
        /// The model the action applied to.
        model: String,
        /// Registered models after the action.
        models: u64,
    },
    /// A ping reply.
    Pong {
        /// Echoed request id.
        id: Option<u64>,
    },
    /// Acknowledges a shutdown request.
    Shutdown {
        /// Echoed request id.
        id: Option<u64>,
    },
    /// Any failure, with a stable machine-readable code.
    Error {
        /// Echoed request id (when the line parsed far enough to tell).
        id: Option<u64>,
        /// Stable error code (`bad_request`, `timeout`, `queue_full`…).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl WireResponse {
    /// An error response from an [`LcmmError`].
    #[must_use]
    pub fn from_error(id: Option<u64>, err: &LcmmError) -> Self {
        WireResponse::Error {
            id,
            code: err.code().to_string(),
            message: err.to_string(),
        }
    }

    /// Renders the response as one JSON line (no trailing newline).
    /// Equivalent to [`WireResponse::to_line_v`] with no version echo —
    /// the byte-exact pre-versioning encoding.
    #[must_use]
    pub fn to_line(&self) -> String {
        self.to_line_v(None)
    }

    /// Renders the response as one JSON line, echoing the protocol
    /// version when the request carried one. `"v"` sorts after every
    /// existing response key, so versioned responses are the legacy
    /// line with `,"v":1` appended before the closing brace — legacy
    /// clients (which never send `v`) keep byte-identical responses.
    #[must_use]
    pub fn to_line_v(&self, v: Option<u64>) -> String {
        let mut line = Envelope::new();
        match self {
            WireResponse::Plan {
                id,
                plan,
                cached,
                pass_stats,
            } => {
                return plan_line(*id, Payload::Tree(plan), *cached, pass_stats.as_ref(), v);
            }
            WireResponse::Stats { id, stats } => {
                line.id(*id);
                line.value("ok", &Value::Bool(true));
                line.value("stats", stats);
            }
            WireResponse::Registry {
                id,
                action,
                model,
                models,
            } => {
                line.value("action", &Value::Str(action.clone()));
                line.id(*id);
                line.value("model", &Value::Str(model.clone()));
                line.value("models", &Value::U64(*models));
                line.value("ok", &Value::Bool(true));
            }
            WireResponse::Pong { id } => {
                line.id(*id);
                line.value("ok", &Value::Bool(true));
                line.value("pong", &Value::Bool(true));
            }
            WireResponse::Shutdown { id } => {
                line.id(*id);
                line.value("ok", &Value::Bool(true));
                line.value("shutdown", &Value::Bool(true));
            }
            WireResponse::Error { id, code, message } => {
                let error = Value::Map(vec![
                    ("code".to_string(), Value::Str(code.clone())),
                    ("message".to_string(), Value::Str(message.clone())),
                ]);
                line.value("error", &error);
                line.id(*id);
                line.value("ok", &Value::Bool(false));
            }
        }
        line.finish(v)
    }
}

/// The `plan` payload of a plan response.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Payload<'a> {
    /// A tree, rendered compact into the line.
    Tree(&'a Value),
    /// Compact JSON already rendered (a stored plan), spliced in as is.
    /// Rendering the tree it parses to gives the same bytes, so both
    /// forms of one payload make the same line.
    Json(&'a str),
}

/// The one writer of plan response lines, for computed plans and cache
/// hits alike: `cached`, `id`, `ok`, `pass_stats`, `plan`, then `v`.
pub(crate) fn plan_line(
    id: Option<u64>,
    plan: Payload<'_>,
    cached: bool,
    pass_stats: Option<&Value>,
    v: Option<u64>,
) -> String {
    let mut line = Envelope::new();
    line.value("cached", &Value::Bool(cached));
    line.id(id);
    line.value("ok", &Value::Bool(true));
    if let Some(stats) = pass_stats {
        line.value("pass_stats", stats);
    }
    match plan {
        Payload::Tree(plan) => line.value("plan", plan),
        Payload::Json(json) => line.key("plan").push_str(json),
    }
    line.finish(v)
}

/// A response line under construction: a compact JSON object written
/// field by field, in the order the fields are added. Every caller adds
/// them in sorted key order, and keys are plain identifiers that need
/// no escaping, so the line equals `serde_json::to_string` of the same
/// map.
struct Envelope(String);

impl Envelope {
    fn new() -> Self {
        Self(String::from("{"))
    }

    /// Starts field `key` and returns the buffer its value goes into.
    fn key(&mut self, key: &str) -> &mut String {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        self.0.push('"');
        self.0.push_str(key);
        self.0.push_str("\":");
        &mut self.0
    }

    fn value(&mut self, key: &str, value: &Value) {
        serde::content::write_compact_into(self.key(key), value);
    }

    /// The echoed request id, when there is one.
    fn id(&mut self, id: Option<u64>) {
        if let Some(id) = id {
            self.value("id", &Value::U64(id));
        }
    }

    /// Appends the version echo, when there is one, and closes the line.
    fn finish(mut self, v: Option<u64>) -> String {
        if let Some(v) = v {
            self.value("v", &Value::U64(v));
        }
        self.0.push('}');
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_plan_request() {
        let r = WireRequest::from_line(r#"{"graph":"alexnet"}"#).expect("parses");
        assert_eq!(r.op, Op::Plan);
        assert!(matches!(r.graph, Some(GraphSpec::Named(ref n)) if n == "alexnet"));
        let resolved = r.resolve_plan().expect("resolves");
        assert_eq!(resolved.graph.name(), "alexnet");
        assert_eq!(resolved.device.name, "xcvu9p");
        assert_eq!(resolved.precision, Precision::Fix16);
        assert_eq!(resolved.options.allocator, AllocatorKind::Dnnk);
    }

    #[test]
    fn parses_the_full_field_set() {
        let line = r#"{"id":7,"op":"plan","graph":{"synthetic":{"depth":64,"branching":3,"seed":5,"width_percent":50}},"device":"zu9eg","precision":"8","allocator":"greedy","options":{"splitting":false},"deadline_ms":250,"include_stats":true}"#;
        let r = WireRequest::from_line(line).expect("parses");
        assert_eq!(r.id, Some(7));
        assert_eq!(r.deadline_ms, Some(250));
        assert!(r.include_stats);
        let resolved = r.resolve_plan().expect("resolves");
        assert_eq!(resolved.device.name, "xczu9eg");
        assert_eq!(resolved.precision, Precision::Fix8);
        assert_eq!(resolved.options.allocator, AllocatorKind::Greedy);
        assert!(!resolved.options.splitting);
        assert!(resolved.options.feature_reuse);
    }

    #[test]
    fn inline_graphs_roundtrip() {
        let g = lcmm_graph::zoo::alexnet();
        let inline = serde_json::to_string(&g).expect("graph serialises");
        let line = format!("{{\"graph\":{{\"inline\":{inline}}}}}");
        let r = WireRequest::from_line(&line).expect("parses");
        let resolved = r.resolve_plan().expect("resolves");
        assert_eq!(resolved.graph.len(), g.len());
        assert_eq!(resolved.graph.name(), "alexnet");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(WireRequest::from_line("not json").is_err());
        assert!(WireRequest::from_line("[1,2]").is_err());
        assert!(WireRequest::from_line(r#"{"op":"fry"}"#).is_err());
        assert!(WireRequest::from_line(r#"{"graph":"a","bogus":1}"#).is_err());
        assert!(WireRequest::from_line(r#"{"graph":"a","options":{"turbo":true}}"#).is_err());
        assert!(WireRequest::from_line(r#"{"graph":"a","deadline_ms":"soon"}"#).is_err());
        assert!(WireRequest::from_line(r#"{"graph":{"zoo":"a","inline":{}}}"#).is_err());
    }

    #[test]
    fn resolve_reports_typed_errors() {
        let missing = WireRequest::from_line(r#"{"op":"plan"}"#).unwrap();
        assert!(matches!(
            missing.resolve_plan(),
            Err(LcmmError::InvalidRequest(_))
        ));
        let model = WireRequest::from_line(r#"{"graph":"nonexistent-net"}"#).unwrap();
        assert!(matches!(
            model.resolve_plan(),
            Err(LcmmError::UnknownModel(_))
        ));
        let device = WireRequest::from_line(r#"{"graph":"alexnet","device":"asic"}"#).unwrap();
        assert!(matches!(
            device.resolve_plan(),
            Err(LcmmError::UnknownDevice(_))
        ));
        let precision = WireRequest::from_line(r#"{"graph":"alexnet","precision":"11"}"#).unwrap();
        assert!(matches!(
            precision.resolve_plan(),
            Err(LcmmError::InvalidRequest(_))
        ));
    }

    #[test]
    fn parses_and_validates_weight_streaming() {
        let line = r#"{"graph":"alexnet","options":{"weight_streaming":"auto"}}"#;
        let r = WireRequest::from_line(line).expect("parses");
        let resolved = r.resolve_plan().expect("resolves");
        assert_eq!(resolved.options.weight_streaming, StreamingMode::Auto);
        for (mode, expect) in [
            ("off", StreamingMode::Off),
            ("pinned", StreamingMode::Pinned),
        ] {
            let line =
                format!("{{\"graph\":\"alexnet\",\"options\":{{\"weight_streaming\":{mode:?}}}}}");
            let resolved = WireRequest::from_line(&line)
                .expect("parses")
                .resolve_plan()
                .expect("resolves");
            assert_eq!(resolved.options.weight_streaming, expect);
        }
        // Unknown mode strings resolve to a typed error; non-string
        // values are rejected at parse time.
        let bad =
            WireRequest::from_line(r#"{"graph":"alexnet","options":{"weight_streaming":"turbo"}}"#)
                .expect("parses");
        assert!(matches!(
            bad.resolve_plan(),
            Err(LcmmError::InvalidRequest(_))
        ));
        assert!(WireRequest::from_line(
            r#"{"graph":"alexnet","options":{"weight_streaming":true}}"#
        )
        .is_err());
    }

    #[test]
    fn parses_and_validates_fusion() {
        let line = r#"{"graph":"alexnet","options":{"fusion":"auto"}}"#;
        let r = WireRequest::from_line(line).expect("parses");
        let resolved = r.resolve_plan().expect("resolves");
        assert_eq!(resolved.options.fusion, FusionMode::Auto);
        let off = WireRequest::from_line(r#"{"graph":"alexnet","options":{"fusion":"off"}}"#)
            .expect("parses")
            .resolve_plan()
            .expect("resolves");
        assert_eq!(off.options.fusion, FusionMode::Off);
        // Unknown mode strings resolve to a typed error; non-string
        // values are rejected at parse time.
        let bad = WireRequest::from_line(r#"{"graph":"alexnet","options":{"fusion":"max"}}"#)
            .expect("parses");
        assert!(matches!(
            bad.resolve_plan(),
            Err(LcmmError::InvalidRequest(_))
        ));
        assert!(
            WireRequest::from_line(r#"{"graph":"alexnet","options":{"fusion":true}}"#).is_err()
        );
    }

    #[test]
    fn plan_summary_gates_the_fusion_block() {
        // Fusion off (the default): no block, so pre-fusion goldens
        // stay byte-identical.
        let r = WireRequest::from_line(r#"{"graph":"resnet50"}"#).unwrap();
        let resolved = r.resolve_plan().unwrap();
        let umm = UmmBaseline::build(&resolved.graph, &resolved.device, resolved.precision);
        let result =
            lcmm_core::PlanRequest::new(&resolved.graph, &resolved.device, resolved.precision)
                .with_design(umm.design.clone())
                .run()
                .expect("feasible");
        let off = serde_json::to_string(&plan_summary(&resolved, &result, &umm)).unwrap();
        assert!(!off.contains("\"fusion\""));

        // Fusion auto at a tight budget: the block appears right after
        // "device" (alphabetical key order preserved) with group rows.
        let budget = umm.design.tensor_sram_budget() / 8;
        let line = format!(
            "{{\"graph\":\"resnet50\",\"options\":{{\"fusion\":\"auto\",\"tensor_budget\":{budget}}}}}"
        );
        let r = WireRequest::from_line(&line).unwrap();
        let resolved = r.resolve_plan().unwrap();
        let result =
            lcmm_core::PlanRequest::new(&resolved.graph, &resolved.device, resolved.precision)
                .options(resolved.options)
                .with_design(umm.design.clone())
                .run()
                .expect("feasible");
        assert!(!result.fusion.is_empty(), "tight budget must fuse groups");
        let auto = serde_json::to_string(&plan_summary(&resolved, &result, &umm)).unwrap();
        assert!(auto.contains("\"fusion\":{\"benefit_seconds\":"));
        assert!(auto.contains("\"tiles\":"));
        let fusion_at = auto.find("\"fusion\"").unwrap();
        assert!(auto.find("\"device\"").unwrap() < fusion_at);
        assert!(fusion_at < auto.find("\"latency_seconds\"").unwrap());
    }

    #[test]
    fn plan_summary_gates_the_weight_streaming_block() {
        // Streaming off (the default): the summary must not mention the
        // block at all, so the pre-AutoWS goldens stay byte-identical.
        let r = WireRequest::from_line(r#"{"graph":"alexnet"}"#).unwrap();
        let resolved = r.resolve_plan().unwrap();
        let umm = UmmBaseline::build(&resolved.graph, &resolved.device, resolved.precision);
        let result =
            lcmm_core::PlanRequest::new(&resolved.graph, &resolved.device, resolved.precision)
                .with_design(umm.design.clone())
                .run()
                .expect("feasible");
        let off = serde_json::to_string(&plan_summary(&resolved, &result, &umm)).unwrap();
        assert!(!off.contains("weight_streaming"));

        // Streaming auto at a tiny budget: the block appears with a
        // non-empty mode table and the occupied bytes respect it.
        let line =
            r#"{"graph":"alexnet","options":{"weight_streaming":"auto","tensor_budget":1048576}}"#;
        let r = WireRequest::from_line(line).unwrap();
        let resolved = r.resolve_plan().unwrap();
        let result =
            lcmm_core::PlanRequest::new(&resolved.graph, &resolved.device, resolved.precision)
                .options(resolved.options)
                .with_design(umm.design.clone())
                .run()
                .expect("feasible");
        let auto = serde_json::to_string(&plan_summary(&resolved, &result, &umm)).unwrap();
        assert!(auto.contains("\"weight_streaming\":{\"occupied_bytes\":"));
        assert!(
            auto.contains("\"mode\":\"streamed\"") || auto.contains("\"mode\":\"partial\""),
            "a 1 MiB budget on alexnet must stream something: {auto}"
        );
    }

    #[test]
    fn responses_have_fixed_field_order() {
        let pong = WireResponse::Pong { id: Some(3) }.to_line();
        assert_eq!(pong, r#"{"id":3,"ok":true,"pong":true}"#);
        let err = WireResponse::Error {
            id: None,
            code: "queue_full".to_string(),
            message: "try later".to_string(),
        }
        .to_line();
        assert_eq!(
            err,
            r#"{"error":{"code":"queue_full","message":"try later"},"ok":false}"#
        );
    }

    #[test]
    fn plan_summary_is_deterministic() {
        let r = WireRequest::from_line(r#"{"graph":"alexnet"}"#).unwrap();
        let resolved = r.resolve_plan().unwrap();
        let umm = UmmBaseline::build(&resolved.graph, &resolved.device, resolved.precision);
        let result =
            lcmm_core::PlanRequest::new(&resolved.graph, &resolved.device, resolved.precision)
                .with_design(umm.design.clone())
                .run()
                .expect("feasible");
        let a = serde_json::to_string(&plan_summary(&resolved, &result, &umm)).unwrap();
        let b = serde_json::to_string(&plan_summary(&resolved, &result, &umm)).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"model\":\"alexnet\""));
        assert!(a.contains("\"speedup_over_umm\""));
        assert!(!a.contains("seconds\":0.0,\"total"), "no wall-clock stats");
    }
}
