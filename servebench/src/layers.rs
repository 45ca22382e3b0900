//! The traced in-process replay: the same generated requests, fed
//! through each layer's public functions with a span around every call.
//! Nothing here times code from inside the crates; each span wraps one
//! public call made from this file.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;

use lcmm_core::alloc::{dnnk, AllocProblem, CAPACITY_UNIT_BYTES};
use lcmm_core::interference::InterferenceGraph;
use lcmm_core::liveness::{feature_lifespans, Schedule};
use lcmm_core::prefetch::PrefetchPlan;
use lcmm_core::splitting::{refine, SplitConfig};
use lcmm_core::{
    tenant_gain_curve, Evaluator, FusionMode, FusionPlan, Harness, LcmmOptions, PassStats,
    Pipeline, PlanArtifacts, PlanRequest, Residency, StreamingMode, ValueTable,
};
use lcmm_fpga::{AccelDesign, Device, GraphProfile, Precision};
use lcmm_fusion::FusionConfig;
use lcmm_multi::{coplan, joint_capacity_dp, pool_bytes, CoplanOptions, TenantSpec};
use lcmm_serve::protocol::plan_summary;
use lcmm_serve::{Op, Server, ServerConfig, WireRequest, WireResponse};
use lcmm_workload::{
    prepare, simulate, ArrivalProcess, ControllerConfig, PreparedGrid, TenantTraffic, WorkloadSpec,
};

use crate::gen::{Expect, Request};
use crate::trace::Tracer;

/// Upper bounds on what one traced replay re-runs, so a traced run
/// stays well inside its time limit.
const MAX_PLANS: usize = 66;
const MAX_COPLANS: usize = 6;
const MAX_WORKLOADS: usize = 3;

/// Counters summed over the replayed plans.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub plans: usize,
    pub pass_stats: PassStats,
    pub scratch_s: f64,
    pub replan_s: f64,
    /// Audit findings and delta/scratch mismatches; must stay empty.
    pub failures: Vec<String>,
}

/// googlenet Fix16 at one budget: the DNN-level numbers behind the
/// `dnn.*` metrics.
#[derive(Debug, Clone, Copy)]
pub struct DnnPoint {
    pub memory_bound_layers: usize,
    pub layers_benefiting: usize,
    pub sim_over_model: f64,
}

/// Replays requests through the layers, recording spans in `tracer`.
pub struct Replay<'t> {
    tracer: &'t mut Tracer,
    harness: Harness,
    device: Device,
    next_id: u64,
    profiles: HashMap<(String, Precision), Arc<GraphProfile>>,
    artifacts: HashMap<String, PlanArtifacts>,
    pub counts: LayerCounts,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl<'t> Replay<'t> {
    /// Trace ids start at `first_id`, above the client phase's ids.
    pub fn new(tracer: &'t mut Tracer, first_id: u64) -> Self {
        Self {
            tracer,
            harness: Harness::new(1),
            device: Device::vu9p(),
            next_id: first_id,
            profiles: HashMap::new(),
            artifacts: HashMap::new(),
            counts: LayerCounts::default(),
        }
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// One plan request through protocol → harness → fpga → fusion →
    /// liveness → prefetch → interference → DNNK → splitting, then the
    /// whole pipeline, the delta replay and the reply serialisation.
    pub fn plan(&mut self, line: &str, budget: u64) -> Result<(), String> {
        let id = self.id();
        let t = &mut *self.tracer;
        let span = t.open(id, "request", None);
        let root = Some(span);
        let request = t.time(id, "protocol.parse", root, || WireRequest::from_line(line))?;
        let resolved = t
            .time(id, "protocol.resolve", root, || request.resolve_plan())
            .map_err(err)?;
        let (graph, precision, options) = (&resolved.graph, resolved.precision, resolved.options);
        // The daemon's harness is warm after set-up; so is this one
        // before the timed lookup.
        self.harness
            .try_design(graph, &self.device, precision)
            .map_err(err)?;
        let base = t
            .time(id, "harness.design_hit", root, || {
                self.harness.try_design(graph, &self.device, precision)
            })
            .map_err(err)?;
        let design = Pipeline::new(options).lcmm_design((*base).clone());
        let profile_key = (graph.name().to_string(), precision);
        let profile = match self.profiles.get(&profile_key) {
            Some(p) => Arc::clone(p),
            None => {
                t.time(id, "fpga.explore", root, || {
                    AccelDesign::try_explore(graph, &self.device, precision)
                })?;
                let p = Arc::new(t.time(id, "fpga.profile", root, || design.profile(graph)));
                self.profiles.insert(profile_key, Arc::clone(&p));
                p
            }
        };

        let (fusion, fused) = if options.fusion == FusionMode::Auto {
            t.time(id, "fusion.plan", root, || {
                let plan = lcmm_fusion::plan(graph, &profile, &FusionConfig::from_design(&design));
                let fused = plan.apply(&profile);
                (plan, Some(fused))
            })
        } else {
            (FusionPlan::default(), None)
        };
        let effective = match &fused {
            Some(fused) if !fusion.is_empty() => fused,
            _ => &*profile,
        };
        let evaluator = Evaluator::new(graph, effective);
        let (values, schedule, feature_graph) = t.time(id, "liveness.build", root, || {
            let values =
                ValueTable::build_batched(graph, effective, design.precision, design.batch);
            let schedule = Schedule::new(graph);
            let live = || {
                values
                    .feature_candidates()
                    .filter(|v| !fusion.eliminates(v.id.node()))
            };
            let spans = feature_lifespans(&schedule, live());
            let fg =
                InterferenceGraph::new(live().map(|v| (v.id, v.bytes, spans[&v.id])).collect());
            (values, schedule, fg)
        });
        let (prefetch, weight_graph) = t.time(id, "prefetch.build", root, || {
            let plan = PrefetchPlan::build(
                &evaluator,
                &schedule,
                &Residency::new(),
                values.weight_candidates(),
            );
            let spans = plan.intervals();
            let wg = InterferenceGraph::new(
                values
                    .weight_candidates()
                    .filter(|v| spans.contains_key(&v.id))
                    .map(|v| (v.id, v.bytes, spans[&v.id]))
                    .collect(),
            );
            (plan, wg)
        });
        let streaming = options.weight_streaming;
        if streaming == StreamingMode::Auto {
            t.time(id, "prefetch.mode_pricing", root, || {
                for v in values.weight_candidates() {
                    black_box(prefetch.mode_options(v.id, v.bytes, streaming));
                }
            });
        }
        let buffers = t.time(id, "interference.color", root, || {
            let mut buffers = feature_graph.color();
            buffers.extend(weight_graph.color());
            buffers
        });
        let effective_budget = budget.min(design.tensor_sram_budget());
        t.time(id, "alloc.dnnk", root, || {
            black_box(dnnk::allocate(&AllocProblem::with_streaming(
                &evaluator,
                &buffers,
                effective_budget,
                &prefetch,
                streaming,
            )))
        });
        t.time(id, "splitting.refine", root, || {
            black_box(refine(
                &evaluator,
                design.precision,
                effective_budget,
                &prefetch,
                streaming,
                feature_graph,
                weight_graph,
                dnnk::allocate,
                SplitConfig::default(),
            ))
        });

        let scratch = t.open(id, "pipeline.plan", root);
        let result = PlanRequest::new(graph, &self.device, precision)
            .options(options)
            .with_design(design.clone())
            .with_profile(&profile)
            .run()
            .map_err(err)?;
        t.close(scratch);
        let scratch_s = t.spans[scratch].end - t.spans[scratch].start;

        let umm = self.harness.baseline_from_design(graph, &base);
        t.time(id, "protocol.summary", root, || {
            let plan = plan_summary(&resolved, &result, &umm);
            black_box(
                WireResponse::Plan {
                    id: None,
                    plan,
                    cached: false,
                    pass_stats: None,
                }
                .to_line(),
            )
        });

        let artifact_key = format!(
            "{}|{:?}|{:?}",
            graph.name(),
            precision,
            options.with_tensor_budget(None)
        );
        if !self.artifacts.contains_key(&artifact_key) {
            let built = PlanArtifacts::from_parts(
                graph,
                design.clone(),
                Arc::clone(&profile),
                options,
                None,
            )
            .map_err(err)?;
            self.artifacts.insert(artifact_key.clone(), built);
        }
        let artifacts = &self.artifacts[&artifact_key];
        let replay = t.open(id, "delta.replan", root);
        let replanned = artifacts
            .replan_with_budget(graph, options.tensor_budget, None)
            .map_err(err)?;
        t.close(replay);
        let replan_s = t.spans[replay].end - t.spans[replay].start;
        t.close(span);

        let c = &mut self.counts;
        c.plans += 1;
        c.scratch_s += scratch_s;
        c.replan_s += replan_s;
        let s = &result.stats;
        c.pass_stats.dnnk_dp_cells += s.dnnk_dp_cells;
        c.pass_stats.gain_cache_hits += s.gain_cache_hits;
        c.pass_stats.gain_cache_misses += s.gain_cache_misses;
        c.pass_stats.allocator_invocations += s.allocator_invocations;
        if replanned.latency.to_bits() != result.latency.to_bits() {
            c.failures
                .push(format!("{line}: delta replan latency differs from scratch"));
        }
        for finding in lcmm_sim::audit::check_result_invariants(graph, &result, effective_budget) {
            c.failures.push(format!("{line}: audit: {finding:?}"));
        }
        Ok(())
    }

    /// Co-plans `tenants` (explicit shares) and, separately, times the
    /// joint capacity DP over their gain curves.
    pub fn coplan(&mut self, tenants: &[TenantSpec]) -> Result<(), String> {
        let id = self.id();
        let t = &mut *self.tracer;
        let span = t.open(id, "coplan", None);
        let root = Some(span);
        let opts = CoplanOptions::default();
        t.time(id, "multi.coplan", root, || {
            coplan(&self.harness, &self.device, tenants, &opts)
        })
        .map_err(err)?;
        let shares: Vec<f64> = tenants.iter().map(|t| t.share.unwrap_or(0.2)).collect();
        let parts = self.device.partition_set(&shares)?;
        let mut designs = Vec::with_capacity(tenants.len());
        for (tenant, part) in tenants.iter().zip(&parts) {
            let base = self
                .harness
                .try_design(&tenant.graph, part, tenant.precision)
                .map_err(err)?;
            designs.push(Pipeline::new(opts.options).lcmm_design((*base).clone()));
        }
        let pool = pool_bytes(&designs.iter().collect::<Vec<_>>());
        let curves: Vec<_> = tenants
            .iter()
            .zip(&designs)
            .map(|(tenant, design)| {
                let profile = self.harness.profile(&tenant.graph, design);
                (
                    tenant.weight,
                    tenant_gain_curve(&tenant.graph, &profile, design, &opts.options, pool),
                )
            })
            .collect();
        let units = (pool / CAPACITY_UNIT_BYTES) as usize;
        t.time(id, "multi.joint_dp", root, || {
            black_box(joint_capacity_dp(&curves, units))
        });
        t.close(span);
        Ok(())
    }

    /// Prepares the share grid of a two-model workload and simulates a
    /// two-tenant anti-phase burst trace over it.
    pub fn workload(&mut self, tenants: &[TenantSpec], steps: usize) -> Result<(), String> {
        let id = self.id();
        let t = &mut *self.tracer;
        let span = t.open(id, "workload", None);
        let root = Some(span);
        let opts = CoplanOptions::default().with_search_steps(steps);
        let grid = t
            .time(id, "workload.prepare", root, || {
                prepare(&self.harness, &self.device, tenants, &opts)
            })
            .map_err(err)?;
        let spec = anti_phase_bursts(&grid)?;
        let config = ControllerConfig::default();
        t.time(id, "workload.simulate", root, || {
            black_box(simulate(&grid, &spec, &config, grid.even_point()))
        });
        t.close(span);
        Ok(())
    }
}

/// Two tenants bursting in turn at 1.5× their even-split capacity,
/// each for 45% of a horizon of 400 slowest service times.
fn anti_phase_bursts(grid: &PreparedGrid) -> Result<WorkloadSpec, String> {
    let even = &grid.points[grid.even_point()];
    let slowest = even.service_seconds.iter().copied().fold(0.0f64, f64::max);
    let horizon = 400.0 * slowest;
    let tenants = even
        .service_seconds
        .iter()
        .enumerate()
        .map(|(t, &service)| {
            let capacity = 1.0 / service;
            TenantTraffic::new(ArrivalProcess::Burst {
                base: 0.2 * capacity,
                peak: 1.5 * capacity,
                period: horizon,
                duty: 0.45,
                phase: t as f64 * 0.5 * horizon,
            })
        })
        .collect();
    WorkloadSpec::new(tenants)
        .with_horizon_seconds(horizon)
        .sanitized()
        .map_err(err)
}

/// googlenet at Fix16 on VU9P with the tensor budget at `1/divisor` of
/// its full size: the plan's memory-bound and benefiting layer counts
/// and the simulated over modelled steady latency.
pub fn dnn_point(divisor: u64) -> Result<DnnPoint, String> {
    let graph = lcmm_graph::zoo::googlenet();
    let device = Device::vu9p();
    let base = AccelDesign::try_explore(&graph, &device, Precision::Fix16)?;
    let budget = base.tensor_sram_budget() / divisor;
    let result = PlanRequest::new(&graph, &device, Precision::Fix16)
        .options(LcmmOptions::default())
        .with_design(base)
        .tensor_budget(Some(budget))
        .run()
        .map_err(err)?;
    let simulated = lcmm_sim::validate::simulate_lcmm(&graph, &result);
    Ok(DnnPoint {
        memory_bound_layers: result.memory_bound_layers,
        layers_benefiting: result.layers_benefiting,
        sim_over_model: simulated / result.latency,
    })
}

/// Feeds `lines` through an in-process [`Server::handle_line`] (no
/// sockets), sending each plan line a second time right after its
/// first. Plan lines are timed as `server.inproc_hit` or
/// `server.inproc_miss` by the reply's `cached` flag; other ops only
/// keep the server's state in step with the daemon's.
pub fn inproc_server(tracer: &mut Tracer, first_id: u64, lines: &[&str]) -> Result<(), String> {
    let server = Server::start(ServerConfig::default().with_workers(2));
    let mut seen = HashSet::new();
    let mut id = first_id;
    let mut outcome = Ok(());
    'lines: for &line in lines {
        let is_plan = WireRequest::from_line(line).is_ok_and(|r| r.op == Op::Plan);
        let sends = if is_plan && seen.insert(line) { 2 } else { 1 };
        for _ in 0..sends {
            id += 1;
            let span = tracer.open(id, "server.handle_line", None);
            let reply = server.handle_line(line);
            tracer.close(span);
            if !reply.contains("\"ok\":true") {
                outcome = Err(format!("in-process server failed {line}: {reply}"));
                break 'lines;
            }
            if is_plan {
                tracer.spans[span].name = if reply.starts_with("{\"cached\":true") {
                    "server.inproc_hit"
                } else {
                    "server.inproc_miss"
                };
            }
        }
    }
    server.shutdown();
    outcome
}

/// Tenant specs for a registry state: name → (zoo graph, precision,
/// share), in the daemon's name order.
fn tenants_of(registry: &BTreeMap<String, (Precision, f64)>) -> Result<Vec<TenantSpec>, String> {
    registry
        .iter()
        .map(|(name, &(precision, share))| {
            let graph =
                lcmm_graph::zoo::by_name(name).ok_or_else(|| format!("no zoo net {name}"))?;
            Ok(TenantSpec::new(name.clone(), graph, precision).with_share(share))
        })
        .collect()
}

/// What the traced run replays through the multi-tenant layers.
#[derive(Debug, Default)]
pub struct ChurnProbes {
    /// Distinct co-planned tenant sets.
    pub coplans: Vec<Vec<TenantSpec>>,
    /// Distinct workload simulations: tenants and share-grid steps.
    pub workloads: Vec<(Vec<TenantSpec>, usize)>,
}

/// Walks a churn op sequence, tracking the registry, and collects the
/// distinct co-plan tenant sets and workload ops to replay.
pub fn churn_probes(setup: &[Request], ops: &[Request]) -> Result<ChurnProbes, String> {
    let mut registry: BTreeMap<String, (Precision, f64)> = BTreeMap::new();
    let mut probes = ChurnProbes::default();
    let (mut seen_states, mut seen_workloads) = (HashSet::new(), HashSet::new());
    for request in setup.iter().chain(ops) {
        let wire = WireRequest::from_line(&request.line)?;
        match wire.op {
            Op::Register => {
                let precision = precision_of(wire.precision.as_deref());
                let name = wire.model.clone().ok_or("register without model")?;
                registry.insert(name, (precision, wire.share.unwrap_or(0.2)));
            }
            Op::Unregister => {
                registry.remove(wire.model.as_deref().unwrap_or_default());
            }
            Op::Coplan | Op::Route => {
                let state = format!("{registry:?}");
                if probes.coplans.len() < MAX_COPLANS && seen_states.insert(state) {
                    probes.coplans.push(tenants_of(&registry)?);
                }
            }
            Op::Workload
                if probes.workloads.len() < MAX_WORKLOADS
                    && seen_workloads.insert(request.line.clone()) =>
            {
                let precision = precision_of(wire.precision.as_deref());
                let tenants = wire
                    .models
                    .as_deref()
                    .unwrap_or_default()
                    .split(',')
                    .map(|name| {
                        let graph = lcmm_graph::zoo::by_name(name)
                            .ok_or_else(|| format!("no zoo net {name}"))?;
                        Ok(TenantSpec::new(name.to_string(), graph, precision))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                probes
                    .workloads
                    .push((tenants, wire.steps.unwrap_or(4) as usize));
            }
            _ => {}
        }
    }
    Ok(probes)
}

fn precision_of(name: Option<&str>) -> Precision {
    match name {
        Some("8") => Precision::Fix8,
        Some("32") => Precision::Float32,
        _ => Precision::Fix16,
    }
}

/// The distinct plan requests among `requests`, at most [`MAX_PLANS`].
pub fn distinct_plans(requests: &[Request]) -> Vec<(&str, u64)> {
    let mut seen = HashSet::new();
    requests
        .iter()
        .filter_map(|r| match r.expect {
            Expect::Plan { budget, .. } if seen.insert(r.line.as_str()) => {
                Some((r.line.as_str(), budget))
            }
            _ => None,
        })
        .take(MAX_PLANS)
        .collect()
}
