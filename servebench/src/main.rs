//! One-command benchmark of the `lcmm serve` daemon.
//!
//! ```text
//! servebench --workload <serve-cold|serve-warm|serve-churn> --seed <n>
//!            --seconds <s> --trace <0|1> [--lcmm <path>] [--out <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced replay and reports the per-layer
//! metrics. Every metric is printed as a table row (name, value, unit,
//! sample count); the last stdout line is the JSON result. A failed
//! correctness check makes the command exit 1. See README.md.

mod check;
mod daemon;
mod gen;
mod layers;
mod load;
mod report;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde_json::Value;

use check::Checker;
use daemon::{Connection, Daemon, ScratchDir};
use gen::{Generator, Request, Workload};
use report::{median, quantile, ratio, Metric, Outcome};
use trace::Tracer;

/// Daemons per untraced run. Each is set up afresh and driven with the
/// same request stream for an equal share of `--seconds`. A daemon
/// settles into its own scheduling regime for its whole life, so the
/// spread between runs comes mostly from between daemons, and only more
/// daemons per run narrow it.
const REPLICATES: usize = 9;

/// The request metrics come from the `QUIET` daemons that lost the least
/// CPU time to the host (`steal` in `/proc/stat`) while measured: on a
/// shared machine, stolen time slows every layer at once and swamps
/// what the benchmark is after. An odd count, so that the median is one
/// daemon's value even when the daemons split between two event-loop
/// regimes.
const QUIET: usize = 5;

/// Pings timed on a traced run's connection before any traffic.
const PING_SAMPLES: usize = 200;

/// Measured requests (setup aside) the traced replay re-runs in process.
const REPLAY_REQUESTS: usize = 200;

/// Log size at which the daemon compacts its WAL (the default of
/// `lcmm serve`), used to count the bytes a compaction truncates.
const WAL_COMPACT_BYTES: f64 = (4u64 << 20) as f64;

/// Trace-id bases keeping the phases of one traced run apart (client
/// requests use their stream index).
const PING_IDS: u64 = 1 << 32;
const INPROC_IDS: u64 = 2 << 32;
const REPLAY_IDS: u64 = 3 << 32;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    lcmm: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    let (mut lcmm, mut out) = (None, None);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--lcmm" => lcmm = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
        lcmm: lcmm.unwrap_or_else(|| target.join("release").join("lcmm")),
        out: out.unwrap_or_else(|| target.join("servebench")),
    })
}

/// A daemon after set-up, with its connections and WAL directory.
struct Live {
    daemon: Daemon,
    conns: Vec<Connection>,
    _wal: Option<ScratchDir>,
}

/// Spawns a daemon, opens the workload's connections and sends the
/// set-up requests (checked, untimed as requests). Returns it with the
/// seconds from spawn to ready.
fn set_up(
    args: &Args,
    workload: Workload,
    setup: &[Request],
    checker: &mut Checker,
    round: usize,
) -> Result<(Live, f64), String> {
    let wal = if workload.uses_wal() {
        let dir = args.out.join(format!("wal-{}-{round}", std::process::id()));
        Some(ScratchDir::create(dir)?)
    } else {
        None
    };
    let t0 = Instant::now();
    let daemon = Daemon::spawn(&args.lcmm, wal.as_ref().map(|d| d.0.as_path()))?;
    let mut conns = (0..workload.connections())
        .map(|_| Connection::open(&daemon.addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect {}: {e}", daemon.addr))?;
    for request in setup {
        let reply = conns[0]
            .call(&request.line)
            .map_err(|e| format!("set-up request: {e}"))?;
        checker.check(request, reply, false);
    }
    let seconds = t0.elapsed().as_secs_f64();
    Ok((
        Live {
            daemon,
            conns,
            _wal: wal,
        },
        seconds,
    ))
}

/// The committed serve goldens, relative to the repository root.
const GOLDEN_DIR: &str = "checks/golden";

fn fetch_stats(conn: &mut Connection) -> Result<Value, String> {
    let reply = conn
        .call("{\"op\":\"stats\"}")
        .map_err(|e| format!("stats: {e}"))?;
    let v: Value = serde_json::from_str(reply).map_err(|e| format!("stats reply: {e}"))?;
    v.get("stats")
        .cloned()
        .ok_or("stats reply without stats".to_string())
}

fn stat(stats: &Value, section: &str, key: &str) -> f64 {
    stats
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// One daemon's share of an untraced run.
struct Replicate {
    setup_s: f64,
    phase: load::Phase,
    rss_mb: f64,
    /// Share of the machine's CPU time the host stole while measuring.
    steal: f64,
}

/// Request figures over a set of daemons.
struct Figures {
    /// Median of the daemons' p50s.
    p50_ms: f64,
    /// p99 of the daemons' requests pooled: a tail quantile needs the
    /// samples more than it needs the median's robustness.
    p99_ms: f64,
    /// Median of the daemons' request rates.
    per_s: f64,
    /// Median of the daemons' peak RSS.
    rss_mb: f64,
    requests: usize,
}

impl Figures {
    fn over(reps: &[&Replicate]) -> Self {
        let per_daemon =
            |f: &dyn Fn(&Replicate) -> f64| median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>());
        let pooled: Vec<f64> = reps.iter().flat_map(|r| r.phase.latencies_ms()).collect();
        Self {
            p50_ms: per_daemon(&|r| quantile(&r.phase.latencies_ms(), 0.5)),
            p99_ms: quantile(&pooled, 0.99),
            per_s: per_daemon(&|r| r.phase.samples.len() as f64 / r.phase.elapsed_s),
            rss_mb: per_daemon(&|r| r.rss_mb),
            requests: pooled.len(),
        }
    }
}

/// End-to-end metrics with tracing off.
fn run_untraced(args: &Args, workload: Workload) -> Result<Outcome, String> {
    let mut checker = Checker::default();
    let setup = Generator::new(workload, args.seed).setup();
    let cpus = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    let mut reps = Vec::with_capacity(REPLICATES);
    for round in 0..REPLICATES {
        let (mut live, setup_s) = set_up(args, workload, &setup, &mut checker, round)?;
        let mut gen = Generator::new(workload, args.seed);
        let share = args.seconds / REPLICATES as f64;
        let stolen = daemon::host_steal_seconds();
        let phase = load::closed_loop(&mut live.conns, &mut gen, &mut checker, share, None)?;
        let steal = match (stolen, daemon::host_steal_seconds()) {
            (Some(before), Some(after)) => (after - before) / (phase.elapsed_s * cpus),
            _ => 0.0,
        };
        let rss_mb = live.daemon.peak_rss_mb()?;
        if round + 1 == REPLICATES {
            checker.check_goldens(&mut live.conns[0], Path::new(GOLDEN_DIR))?;
        }
        live.daemon.shutdown(&mut live.conns[0])?;
        reps.push(Replicate {
            setup_s,
            phase,
            rss_mb,
            steal,
        });
    }
    // A stable sort: without steal figures the first daemons are used.
    let mut order: Vec<usize> = (0..REPLICATES).collect();
    order.sort_by(|&a, &b| reps[a].steal.total_cmp(&reps[b].steal));
    let quiet: Vec<&Replicate> = order[..QUIET].iter().map(|&i| &reps[i]).collect();
    let used = Figures::over(&quiet);
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let (geomean, plans) = checker.model_latency_geomean_ms();
    let mut notes = class_notes(quiet.iter().flat_map(|r| &r.phase.samples));
    // The same figures over every daemon, to show what the ranking by
    // steal changes.
    let all = Figures::over(&reps.iter().collect::<Vec<_>>());
    notes.push(format!(
        "all {REPLICATES} daemons: p50 {:.3} ms, p99 {:.3} ms, {:.1} req/s, rss {:.1} MB",
        all.p50_ms, all.p99_ms, all.per_s, all.rss_mb
    ));
    for (i, r) in reps.iter().enumerate() {
        let latencies = r.phase.latencies_ms();
        notes.push(format!(
            "daemon {i}: host steal {:.1}%, p50 {:.3} ms, p99 {:.3} ms, {:.1} req/s, rss {:.1} MB{}",
            r.steal * 100.0,
            quantile(&latencies, 0.5),
            quantile(&latencies, 0.99),
            latencies.len() as f64 / r.phase.elapsed_s,
            r.rss_mb,
            if order[..QUIET].contains(&i) { "" } else { " (not used)" }
        ));
    }
    Ok(Outcome {
        notes,
        metrics: vec![
            Metric::new("setup_s", median(&setups), "s", REPLICATES),
            Metric::new("req_p50_ms", used.p50_ms, "ms", used.requests),
            Metric::new("req_p99_ms", used.p99_ms, "ms", used.requests),
            Metric::new("req_per_s", used.per_s, "1/s", used.requests),
            Metric::new(
                "error_rate",
                ratio(checker.failed as f64, checker.checked as f64),
                "ratio",
                checker.checked as usize,
            ),
            Metric::new("server_rss_mb", used.rss_mb, "MB", QUIET),
            Metric::new("model_latency_geomean_ms", geomean, "ms", plans),
        ],
        attempted: checker.checked,
        failed: checker.failed,
        failures: checker.failures,
    })
}

/// Per-op-class latency of a phase, and which classes its slowest 1%
/// falls in (the p99 should sit inside one class, not on a border).
fn class_notes<'a>(samples: impl IntoIterator<Item = &'a load::Sample>) -> Vec<String> {
    let samples: Vec<load::Sample> = samples.into_iter().copied().collect();
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &samples {
        by_class.entry(s.class).or_default().push(s.latency_ms);
    }
    let mut notes: Vec<String> = by_class
        .iter()
        .map(|(class, v)| {
            format!(
                "class {class:<9} n={:<6} p50={:.3} ms p99={:.3} ms",
                v.len(),
                quantile(v, 0.5),
                quantile(v, 0.99)
            )
        })
        .collect();
    let mut sorted = samples;
    sorted.sort_by(|a, b| b.latency_ms.total_cmp(&a.latency_ms));
    let top = sorted.len().div_ceil(100);
    let mut tail: BTreeMap<&str, usize> = BTreeMap::new();
    for s in &sorted[..top] {
        *tail.entry(s.class).or_default() += 1;
    }
    notes.push(format!("slowest 1% ({top} requests) by class: {tail:?}"));
    notes
}

/// Per-layer metrics from the traced run.
///
/// Half of `--seconds` drives an untraced daemon, the other half a
/// traced one, both set up afresh with the same seed, so both serve the
/// same request stream; the tracing overhead compares the requests both
/// got through.
fn run_traced(args: &Args, workload: Workload) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut checker = Checker::default();
    let setup = Generator::new(workload, args.seed).setup();
    let half = args.seconds / 2.0;

    let (mut live, _) = set_up(args, workload, &setup, &mut checker, 0)?;
    let mut gen = Generator::new(workload, args.seed);
    let untraced = load::closed_loop(&mut live.conns, &mut gen, &mut checker, half, None)?;
    live.daemon.shutdown(&mut live.conns[0])?;

    let (mut live, _) = set_up(args, workload, &setup, &mut checker, 1)?;
    let mut gen = Generator::new(workload, args.seed);
    let before = fetch_stats(&mut live.conns[0])?;
    for i in 0..PING_SAMPLES as u64 {
        let span = tracer.open(PING_IDS + i, "transport.ping_rtt", None);
        let pong = live.conns[0]
            .call("{\"op\":\"ping\"}")
            .map_err(|e| format!("ping: {e}"))?;
        tracer.close(span);
        if pong != "{\"ok\":true,\"pong\":true}" {
            checker.fail(format!("ping answered {pong}"));
        }
    }
    let phase = load::closed_loop(
        &mut live.conns,
        &mut gen,
        &mut checker,
        half,
        Some(&mut tracer),
    )?;
    let after = fetch_stats(&mut live.conns[0])?;
    checker.check_goldens(&mut live.conns[0], Path::new(GOLDEN_DIR))?;
    live.daemon.shutdown(&mut live.conns[0])?;

    // The in-process replay of the same generated requests.
    let replayed = Generator::new(workload, args.seed).take(REPLAY_REQUESTS);
    let lines: Vec<&str> = setup
        .iter()
        .chain(&replayed)
        .map(|r| r.line.as_str())
        .collect();
    layers::inproc_server(&mut tracer, INPROC_IDS, &lines)?;
    let plans = layers::distinct_plans(&replayed);
    let churn_gen = Generator::new(Workload::Churn, args.seed);
    let probes = layers::churn_probes(&churn_gen.setup(), &churn_gen.take(REPLAY_REQUESTS))?;
    let mut replay = layers::Replay::new(&mut tracer, REPLAY_IDS);
    for (line, budget) in &plans {
        replay.plan(line, *budget)?;
    }
    for tenants in &probes.coplans {
        replay.coplan(tenants)?;
    }
    for (tenants, steps) in &probes.workloads {
        replay.workload(tenants, *steps)?;
    }
    let counts = std::mem::take(&mut replay.counts);
    let full = layers::dnn_point(1)?;
    let eighth = layers::dnn_point(8)?;

    let trace_file = args
        .out
        .join(format!("trace-{}-{}.jsonl", workload.name(), args.seed));
    tracer
        .write_jsonl(&trace_file)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    let by_name = tracer.self_by_name();
    // A span-timed metric: the median self time of the named spans,
    // reported under `<name>_<unit>`.
    let span = |name: &str, unit: &'static str| {
        let scale = if unit == "us" { 1e6 } else { 1e3 };
        let samples = by_name.get(name).map_or(&[][..], Vec::as_slice);
        Metric::new(
            format!("{name}_{unit}"),
            median(samples) * scale,
            unit,
            samples.len(),
        )
    };
    let delta = |section: &str, key: &str| stat(&after, section, key) - stat(&before, section, key);
    // Counters per request of the traced phase, so that serving more
    // requests in the same time does not read as more work per request.
    let served = phase.samples.len();
    let per_request = |name: &str, value: f64, unit: &'static str| {
        Metric::new(name, ratio(value, served as f64), unit, served)
    };
    // A compaction truncates the log after the append that took it past
    // the threshold, so each one hides about that many bytes.
    let log_bytes = delta("wal", "log_bytes") + delta("wal", "compactions") * WAL_COMPACT_BYTES;
    let (hits, misses) = (delta("cache", "hits"), delta("cache", "misses"));
    let (a_hits, a_misses) = (
        delta("harness", "artifact_hits"),
        delta("harness", "artifact_misses"),
    );
    let p = &counts.pass_stats;
    let count = |name: &str, value: f64, n: usize| Metric::new(name, value, "count", n);
    let share =
        |name: &str, num: f64, den: f64, n: usize| Metric::new(name, ratio(num, den), "ratio", n);
    let common = untraced.samples.len().min(phase.samples.len()) as u64;
    let (traced, plain) = (
        phase.prefix_latencies_ms(common),
        untraced.prefix_latencies_ms(common),
    );
    let metrics = vec![
        span("transport.ping_rtt", "ms"),
        span("server.inproc_hit", "us"),
        span("server.inproc_miss", "ms"),
        span("protocol.parse", "us"),
        span("protocol.resolve", "us"),
        span("protocol.summary", "us"),
        span("harness.design_hit", "us"),
        per_request(
            "harness.result_misses",
            delta("harness", "result_misses"),
            "count/req",
        ),
        share(
            "harness.artifact_hit_ratio",
            a_hits,
            a_hits + a_misses,
            (a_hits + a_misses) as usize,
        ),
        share(
            "cache.hit_ratio",
            hits,
            hits + misses,
            (hits + misses) as usize,
        ),
        per_request("cache.evictions", delta("cache", "evictions"), "count/req"),
        per_request(
            "cache.invalidations",
            delta("cache", "invalidations"),
            "count/req",
        ),
        per_request("wal.appended", delta("wal", "appended"), "count/req"),
        per_request("wal.log_bytes", log_bytes, "bytes/req"),
        span("fpga.explore", "ms"),
        span("fpga.profile", "ms"),
        span("fusion.plan", "ms"),
        span("liveness.build", "ms"),
        span("prefetch.build", "ms"),
        span("prefetch.mode_pricing", "ms"),
        span("interference.color", "ms"),
        span("alloc.dnnk", "ms"),
        count("alloc.dp_cells", p.dnnk_dp_cells as f64, counts.plans),
        share(
            "alloc.gain_cache_hit_ratio",
            p.gain_cache_hits as f64,
            (p.gain_cache_hits + p.gain_cache_misses) as f64,
            counts.plans,
        ),
        span("splitting.refine", "ms"),
        count(
            "splitting.allocator_invocations",
            p.allocator_invocations as f64,
            counts.plans,
        ),
        span("pipeline.plan", "ms"),
        span("delta.replan", "ms"),
        share(
            "delta.scratch_over_replan",
            counts.scratch_s,
            counts.replan_s,
            counts.plans,
        ),
        span("multi.coplan", "ms"),
        span("multi.joint_dp", "us"),
        span("workload.prepare", "ms"),
        span("workload.simulate", "ms"),
        count(
            "dnn.memory_bound_layers",
            full.memory_bound_layers as f64,
            1,
        ),
        count("dnn.layers_benefiting", full.layers_benefiting as f64, 1),
        count(
            "dnn.layers_benefiting_8th",
            eighth.layers_benefiting as f64,
            1,
        ),
        Metric::new("dnn.sim_over_model", full.sim_over_model, "ratio", 1),
        Metric::new("dnn.sim_over_model_8th", eighth.sim_over_model, "ratio", 1),
        // Tracing overhead: the traced phase's p50 minus the untraced
        // phase's, over the same requests.
        Metric::new(
            "trace.overhead_p50_ms",
            median(&traced) - median(&plain),
            "ms",
            traced.len(),
        ),
    ];

    let mut failures = checker.failures;
    let failed = checker.failed + counts.failures.len() as u64;
    failures.extend(counts.failures);
    Ok(Outcome {
        notes: class_notes(&phase.samples),
        metrics,
        attempted: checker.checked + counts.plans as u64,
        failed,
        failures,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    let workload = args.workload;
    println!(
        "workload {}: closed loop, {} connection(s), one outstanding request each; seed {}; {}",
        workload.name(),
        workload.connections(),
        args.seed,
        workload.why()
    );
    let outcome = if args.traced {
        run_traced(&args, workload)
    } else {
        run_untraced(&args, workload)
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("servebench: {}: {e}", workload.name());
            std::process::exit(1);
        }
    };
    report::print_table(workload.name(), &outcome);
    // error_rate is carried by `failed`/`attempted`: a metric that is 0
    // on every good run has no spread.
    outcome.metrics.retain(|m| m.name != "error_rate");
    let correct = outcome.failed == 0;
    for failure in &outcome.failures {
        eprintln!("servebench: check failed: {failure}");
    }
    println!(
        "{}",
        report::json_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if !correct {
        eprintln!("servebench: {} check(s) failed", outcome.failed);
        std::process::exit(1);
    }
}
