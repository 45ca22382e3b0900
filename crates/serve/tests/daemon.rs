//! In-process daemon integration tests: 64 concurrent requests with
//! duplicates, deadlines, admission pressure, and a draining shutdown.
//!
//! These drive [`Server::handle_line`] directly from client threads —
//! the same transport-independent path the stdio/TCP/Unix loops use —
//! so the whole daemon contract is tested without opening sockets.

use lcmm_serve::{Server, ServerConfig};
use serde_json::Value;
use std::sync::Arc;

fn parse(line: &str) -> Value {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("non-JSON response {line:?}: {e}"))
}

fn error_code(v: &Value) -> Option<String> {
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .map(str::to_string)
}

fn stat_u64(server: &Server, section: &str, field: &str) -> u64 {
    let v = parse(&server.handle_line(r#"{"op":"stats"}"#));
    v.get("stats")
        .and_then(|s| s.get(section))
        .and_then(|s| s.get(field))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing stats.{section}.{field}"))
}

/// The tentpole acceptance test: 64 concurrent requests — 16 duplicates
/// of one plan, a mixed zoo/synthetic load, and a batch of
/// already-expired deadlines — answered with zero panics, byte-identical
/// cache hits, and typed timeout errors.
#[test]
fn sixty_four_concurrent_requests() {
    let server = Arc::new(Server::start(
        ServerConfig::default()
            .with_workers(4)
            .with_queue_capacity(64),
    ));
    let duplicate_line = r#"{"graph":"alexnet","precision":"8"}"#;
    let mut handles = Vec::new();
    for i in 0..64u64 {
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            let line = match i % 4 {
                // 16 byte-identical duplicates — must collapse onto one
                // cached plan.
                0 => duplicate_line.to_string(),
                // 16 already-expired deadlines on big unique graphs —
                // must come back as typed timeouts, not hang or panic.
                1 => format!(r#"{{"graph":"synthetic:512x4x{i}","deadline_ms":0,"id":{i}}}"#),
                // Unique small synthetics.
                2 => format!(r#"{{"graph":"synthetic:48x3x{i}","id":{i}}}"#),
                // Zoo models (repeated across threads — more duplicates).
                _ => {
                    let model =
                        ["alexnet", "squeezenet", "googlenet", "vgg16"][(i as usize / 4) % 4];
                    format!(r#"{{"graph":"{model}","id":{i}}}"#)
                }
            };
            (i, server.handle_line(&line))
        }));
    }
    let mut duplicate_responses = Vec::new();
    for handle in handles {
        let (i, line) = handle.join().expect("client thread must not panic");
        let v = parse(&line);
        match i % 4 {
            0 => duplicate_responses.push((line.clone(), v)),
            1 => {
                assert_eq!(
                    error_code(&v).as_deref(),
                    Some("timeout"),
                    "expired deadline must time out: {line}"
                );
                assert_eq!(v.get("id").and_then(Value::as_u64), Some(i));
            }
            _ => {
                assert_eq!(
                    v.get("ok").and_then(Value::as_bool),
                    Some(true),
                    "plan failed: {line}"
                );
                assert_eq!(v.get("id").and_then(Value::as_u64), Some(i));
            }
        }
    }
    // Every duplicate answered with the same plan payload...
    assert_eq!(duplicate_responses.len(), 16);
    let reference = duplicate_responses[0].1.get("plan").cloned().expect("plan");
    for (line, v) in &duplicate_responses {
        assert_eq!(v.get("plan"), Some(&reference), "divergent plan: {line}");
    }
    // ...and the cache-hit responses are byte-identical whole lines.
    // With 4 workers and 16 duplicates, at most 4 can miss concurrently
    // before a finished compute has populated the cache.
    let hits: Vec<&String> = duplicate_responses
        .iter()
        .filter(|(_, v)| v.get("cached").and_then(Value::as_bool) == Some(true))
        .map(|(line, _)| line)
        .collect();
    assert!(hits.len() >= 12, "only {} cache hits", hits.len());
    for hit in &hits {
        assert_eq!(*hit, hits[0], "cache hits must be byte-identical");
    }
    // The counters saw everything: 64 plans, no rejections at capacity 64.
    assert_eq!(stat_u64(&server, "requests", "total"), 64);
    assert_eq!(stat_u64(&server, "requests", "rejected"), 0);
    assert_eq!(stat_u64(&server, "requests", "errors"), 16);
    assert_eq!(stat_u64(&server, "requests", "completed"), 48);
    assert!(stat_u64(&server, "cache", "hits") >= 12);
    server.shutdown();
}

/// Admission control: with one worker and a queue bound of 1, a second
/// plan is rejected with `queue_full` while the first is still running.
#[test]
fn full_queue_rejects_with_admission_error() {
    let server = Arc::new(Server::start(
        ServerConfig::default()
            .with_workers(1)
            .with_queue_capacity(1),
    ));
    let slow = Arc::clone(&server);
    let blocker = std::thread::spawn(move || {
        // A unique several-thousand-node graph keeps the single worker
        // busy long enough to observe the full queue.
        slow.handle_line(r#"{"graph":"synthetic:3072x4x424242","id":1}"#)
    });
    // Wait until the slow plan occupies the system (queued or in flight).
    let mut occupied = false;
    for _ in 0..2000 {
        let depth = stat_u64(&server, "queue", "depth");
        let in_flight = stat_u64(&server, "queue", "in_flight");
        if depth + in_flight >= 1 {
            occupied = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(occupied, "slow plan never showed up in the queue stats");
    let rejected = parse(&server.handle_line(r#"{"graph":"alexnet","id":2}"#));
    assert_eq!(error_code(&rejected).as_deref(), Some("queue_full"));
    assert_eq!(rejected.get("id").and_then(Value::as_u64), Some(2));
    // Non-plan ops bypass admission and still answer while full.
    assert!(server.handle_line(r#"{"op":"ping"}"#).contains("pong"));
    // The occupying plan still completes.
    let done = parse(&blocker.join().expect("blocked client must not panic"));
    assert_eq!(done.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(stat_u64(&server, "requests", "rejected"), 1);
    server.shutdown();
}

/// Graceful shutdown: admitted plans drain to completion, late plans
/// are refused with `shutting_down`, and `shutdown()` joins cleanly.
#[test]
fn shutdown_drains_in_flight_work() {
    let server = Arc::new(Server::start(
        ServerConfig::default()
            .with_workers(2)
            .with_queue_capacity(16),
    ));
    let mut clients = Vec::new();
    for i in 0..6u64 {
        let server = Arc::clone(&server);
        clients.push(std::thread::spawn(move || {
            server.handle_line(&format!(r#"{{"graph":"synthetic:96x3x{i}","id":{i}}}"#))
        }));
    }
    // Let the clients get admitted, then start draining.
    let mut admitted = 0;
    for _ in 0..2000 {
        admitted = stat_u64(&server, "requests", "total");
        if admitted == 6 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(admitted, 6, "clients were not admitted in time");
    server.shutdown();
    for client in clients {
        let v = parse(&client.join().expect("draining client must not panic"));
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(true),
            "admitted plan was dropped during shutdown"
        );
    }
    let late = parse(&server.handle_line(r#"{"graph":"alexnet"}"#));
    assert_eq!(error_code(&late).as_deref(), Some("shutting_down"));
    // Idempotent: a second shutdown is a no-op.
    server.shutdown();
}

/// Registry churn that does not touch a co-plan's own tenants leaves
/// that cached co-plan alone: the key covers the full tenant set, so
/// the old entry can never answer the new registry, and restoring the
/// original set replays it byte-identically from cache.
#[test]
fn registry_churn_preserves_unrelated_coplans() {
    let server = Server::start(ServerConfig::default().with_workers(2));
    // Explicit shares keep the test off the (slower) split search.
    let reg = |model: &str, graph: &str, share: f64| {
        let v = parse(&server.handle_line(&format!(
            r#"{{"op":"register","model":"{model}","graph":"{graph}","share":{share}}}"#
        )));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    };
    reg("axn", "alexnet", 0.5);
    reg("sqz", "squeezenet", 0.5);
    assert_eq!(stat_u64(&server, "registry", "models"), 2);

    let first = server.handle_line(r#"{"op":"coplan"}"#);
    let first_v = parse(&first);
    assert_eq!(first_v.get("cached").and_then(Value::as_bool), Some(false));
    let replay = parse(&server.handle_line(r#"{"op":"coplan"}"#));
    assert_eq!(replay.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(replay.get("plan"), first_v.get("plan"));
    // Routes share the cached co-plan entry.
    let routed = parse(&server.handle_line(r#"{"op":"route","model":"axn"}"#));
    assert_eq!(routed.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(
        routed
            .get("plan")
            .and_then(|p| p.get("model"))
            .and_then(Value::as_str),
        Some("axn")
    );
    assert_eq!(stat_u64(&server, "cache", "invalidations"), 0);

    // A third tenant changes the registry, so the next co-plan keys
    // differently — but the {axn, sqz} entry is not stale (its key
    // names its exact tenant set) and must not be reclaimed.
    reg("mbn", "mobilenet", 0.0001);
    assert_eq!(stat_u64(&server, "cache", "invalidations"), 0);
    let removed = parse(&server.handle_line(r#"{"op":"unregister","model":"mbn"}"#));
    assert_eq!(removed.get("models").and_then(Value::as_u64), Some(2));
    // Restoring the original tenant set replays the surviving entry.
    let restored = parse(&server.handle_line(r#"{"op":"coplan"}"#));
    assert_eq!(
        restored.get("cached").and_then(Value::as_bool),
        Some(true),
        "untouched tenant set must keep its cached co-plan across churn"
    );
    assert_eq!(restored.get("plan"), first_v.get("plan"));
    server.shutdown();
}

/// Mutating one registered model evicts exactly the co-plans that
/// inlined it — counted once per entry — while content-addressed
/// single-model plan entries survive, and a content-identical
/// re-registration invalidates nothing.
#[test]
fn model_mutation_invalidates_exactly_its_coplans() {
    let server = Server::start(ServerConfig::default().with_workers(2));
    let reg = |model: &str, graph: &str, share: f64| {
        let v = parse(&server.handle_line(&format!(
            r#"{{"op":"register","model":"{model}","graph":"{graph}","share":{share}}}"#
        )));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    };
    reg("axn", "alexnet", 0.5);
    reg("sqz", "squeezenet", 0.5);

    // One single-model plan entry (content-addressed key) ...
    let plan = parse(&server.handle_line(r#"{"graph":"alexnet"}"#));
    assert_eq!(plan.get("cached").and_then(Value::as_bool), Some(false));
    // ... and one co-plan entry tagged model:axn + model:sqz.
    let coplan = parse(&server.handle_line(r#"{"op":"coplan"}"#));
    assert_eq!(coplan.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(stat_u64(&server, "cache", "entries"), 2);
    assert_eq!(stat_u64(&server, "cache", "invalidations"), 0);

    // Content-identical re-registration is a no-op: nothing evicted,
    // the co-plan still replays from cache.
    reg("axn", "alexnet", 0.5);
    assert_eq!(stat_u64(&server, "cache", "entries"), 2);
    assert_eq!(stat_u64(&server, "cache", "invalidations"), 0);
    let replay = parse(&server.handle_line(r#"{"op":"coplan"}"#));
    assert_eq!(replay.get("cached").and_then(Value::as_bool), Some(true));

    // Re-registering axn with a different graph drops the co-plan that
    // inlined it — exactly one entry, counted exactly once even though
    // the entry carried two tags — but the alexnet plan entry is
    // content-addressed, never stale, and must survive.
    reg("axn", "mobilenet", 0.5);
    assert_eq!(stat_u64(&server, "cache", "entries"), 1);
    assert_eq!(stat_u64(&server, "cache", "invalidations"), 1);
    let survivor = parse(&server.handle_line(r#"{"graph":"alexnet"}"#));
    assert_eq!(
        survivor.get("cached").and_then(Value::as_bool),
        Some(true),
        "single-model plan entries are content-addressed and survive churn"
    );
    assert_eq!(survivor.get("plan"), plan.get("plan"));

    // The mutated registry co-plans fresh, then unregistering axn
    // evicts that entry too (second invalidation).
    let fresh = parse(&server.handle_line(r#"{"op":"coplan"}"#));
    assert_eq!(fresh.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(stat_u64(&server, "cache", "entries"), 2);
    let gone = parse(&server.handle_line(r#"{"op":"unregister","model":"axn"}"#));
    assert_eq!(gone.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(stat_u64(&server, "cache", "entries"), 1);
    assert_eq!(stat_u64(&server, "cache", "invalidations"), 2);
    server.shutdown();
}

/// The `/stats` cache section reports LRU evictions.
#[test]
fn stats_report_cache_evictions() {
    let server = Server::start(
        ServerConfig::default()
            .with_workers(1)
            .with_cache_capacity(1),
    );
    assert_eq!(stat_u64(&server, "cache", "evictions"), 0);
    server.handle_line(r#"{"graph":"alexnet"}"#);
    server.handle_line(r#"{"graph":"squeezenet"}"#);
    assert_eq!(stat_u64(&server, "cache", "evictions"), 1);
    assert_eq!(stat_u64(&server, "cache", "entries"), 1);
    server.shutdown();
}

/// Malformed and unresolvable requests get typed errors and never take
/// the daemon down.
#[test]
fn bad_requests_keep_the_daemon_alive() {
    let server = Server::start(ServerConfig::default().with_workers(1));
    let cases = [
        ("{\"graph\":", "bad_request"),
        (r#"{"graph":"made-up-net"}"#, "unknown_model"),
        (r#"{"graph":"alexnet","device":"tpu"}"#, "unknown_device"),
        (r#"{"graph":"alexnet","precision":"12"}"#, "bad_request"),
        (r#"{"graph":"alexnet","allocator":"magic"}"#, "bad_request"),
        (r#"{"op":"plan"}"#, "bad_request"),
        (r#"{"graph":{"synthetic":{"depth":0}}}"#, "bad_request"),
    ];
    for (line, expected) in cases {
        let v = parse(&server.handle_line(line));
        assert_eq!(
            error_code(&v).as_deref(),
            Some(expected),
            "wrong code for {line}"
        );
    }
    let ok = parse(&server.handle_line(r#"{"graph":"alexnet"}"#));
    assert_eq!(ok.get("ok").and_then(Value::as_bool), Some(true));
    server.shutdown();
}

/// A synthetic graph deeper than `MAX_SYNTHETIC_DEPTH` is refused before
/// anything is built, as a `bad_request` naming the cap: a plan of a
/// `synthetic:` spec (answered by a worker), a `register` of one
/// (answered on the calling thread, the serve event loop), the explicit
/// `{"synthetic":{..}}` object and a `workload` model list. The specs
/// one past the cap come first: a build without the cap plans them.
#[test]
fn synthetic_specs_past_the_depth_cap_are_bad_requests() {
    use lcmm_graph::zoo::MAX_SYNTHETIC_DEPTH;
    use std::time::{Duration, Instant};
    let server = Server::start(ServerConfig::default().with_workers(1));
    let past = MAX_SYNTHETIC_DEPTH + 1;
    let probe = "synthetic:99999999x9x1";
    let lines = [
        format!(r#"{{"id":1,"graph":"synthetic:{past}x3x1"}}"#),
        format!(r#"{{"id":2,"op":"register","model":"m","graph":"synthetic:{past}x3x1"}}"#),
        format!(r#"{{"id":3,"graph":{{"synthetic":{{"depth":{past}}}}}}}"#),
        format!(r#"{{"id":4,"op":"workload","models":"synthetic:{past}x3x1,alexnet"}}"#),
        format!(r#"{{"id":5,"graph":"{probe}"}}"#),
        format!(r#"{{"id":6,"op":"register","model":"m","graph":"{probe}"}}"#),
    ];
    let cap = format!("exceeds the cap of {MAX_SYNTHETIC_DEPTH} nodes");
    for line in &lines {
        let start = Instant::now();
        let reply = server.handle_line(line);
        let elapsed = start.elapsed();
        let v = parse(&reply);
        assert_eq!(error_code(&v).as_deref(), Some("bad_request"), "{reply}");
        assert!(reply.contains(&cap), "{reply}");
        assert!(
            elapsed < Duration::from_millis(10),
            "{line} took {elapsed:?}"
        );
    }
    assert_eq!(stat_u64(&server, "registry", "models"), 0);
    let ok = parse(&server.handle_line(r#"{"graph":"synthetic:48x3x5"}"#));
    assert_eq!(ok.get("ok").and_then(Value::as_bool), Some(true));
    server.shutdown();
}

/// Computed plans are not memoized in the harness: the plan LRU is the
/// daemon's only result cache, so budget-only variants of one request
/// leave `stats.harness.result_misses` at 0 instead of growing it by
/// one retained result each. They do share one artifact set: N plan
/// misses of one net at distinct budgets build it once and hit it N−1
/// times, and a budget narrower than one already planned backtracks
/// from a stored DNNK table.
#[test]
fn computed_plans_are_not_memoized_in_the_harness() {
    let server = Server::start(ServerConfig::default().with_workers(1));
    let plan = |budget: u64| {
        let v = parse(&server.handle_line(&format!(
            r#"{{"graph":"alexnet","options":{{"tensor_budget":{budget}}},"include_stats":true}}"#
        )));
        assert_eq!(v.get("cached").and_then(Value::as_bool), Some(false));
        v.get("pass_stats")
            .and_then(|s| s.get("dnnk_table_hits"))
            .and_then(Value::as_u64)
            .expect("pass_stats.dnnk_table_hits")
    };
    let budgets = [3u64 << 20, 1 << 20, 2 << 20];
    assert_eq!(plan(budgets[0]), 0, "the first plan runs its DPs");
    for &budget in &budgets[1..] {
        assert!(plan(budget) > 0, "{budget} B is within a stored table");
    }
    let n = budgets.len() as u64;
    assert_eq!(stat_u64(&server, "harness", "artifact_misses"), 1);
    assert_eq!(stat_u64(&server, "harness", "artifact_hits"), n - 1);
    assert_eq!(stat_u64(&server, "harness", "result_misses"), 0);
    assert_eq!(stat_u64(&server, "harness", "result_hits"), 0);

    // Re-registering a model from alexnet to squeezenet retires
    // alexnet's graph, and the daemon keeps the state of recently
    // retired graphs: alexnet's artifact set, stored tables included,
    // stays, so the next narrower plan backtracks from them.
    for graph in ["alexnet", "squeezenet"] {
        let v = parse(&server.handle_line(&format!(
            r#"{{"op":"register","model":"m","graph":"{graph}","share":0.5}}"#
        )));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    }
    assert!(
        plan(1 << 19) > 0,
        "the stored tables outlive registry churn"
    );
    assert_eq!(stat_u64(&server, "harness", "artifact_misses"), 1);

    // The pass histograms sample passes 3-4 once per plan, and passes
    // 1-2 once per artifact set built, not once per plan.
    let stats = parse(&server.handle_line(r#"{"op":"stats"}"#));
    let count = |pass: &str| {
        stats
            .get("stats")
            .and_then(|s| s.get("histograms"))
            .and_then(|h| h.get(pass))
            .and_then(|h| h.get("count"))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("missing stats.histograms.{pass}.count"))
    };
    assert_eq!((count("alloc_split"), count("total")), (n + 1, n + 1));
    assert_eq!((count("liveness"), count("prefetch")), (1, 1));
    server.shutdown();
}

/// With the harness no longer holding results, a request whose plan-LRU
/// entry was evicted is planned again from scratch; the reply must be
/// byte-identical to the first one.
#[test]
fn evicted_plan_recomputes_byte_identically() {
    let server = Server::start(
        ServerConfig::default()
            .with_workers(1)
            .with_cache_capacity(1),
    );
    let line =
        r#"{"graph":"alexnet","options":{"weight_streaming":"auto","tensor_budget":1048576}}"#;
    let first = server.handle_line(line);
    server.handle_line(r#"{"graph":"squeezenet"}"#);
    assert_eq!(stat_u64(&server, "cache", "evictions"), 1);
    let again = server.handle_line(line);
    assert_eq!(
        parse(&again).get("cached").and_then(Value::as_bool),
        Some(false),
        "the entry was evicted, so the plan is computed again"
    );
    assert_eq!(again, first);
    server.shutdown();
}

/// Registry churn keeps what the daemon planned. Each cycle unregisters
/// and re-registers every model in turn, routing and co-planning each
/// registry state it passes through and running a workload op; every
/// unregister drops the co-plans tagged with its model, so those
/// replies are recomputed on every cycle. The harness keeps the
/// artifacts and replans of graphs that recently left the registry, so
/// after the first cycle nothing is rebuilt, and each recomputed reply
/// equals the first one computed for its registry state byte for byte.
#[test]
fn registry_churn_keeps_the_harness_state() {
    let server = Server::start(ServerConfig::default().with_workers(1));
    let models = [
        ("axn", "alexnet"),
        ("mbn", "mobilenet"),
        ("sqz", "squeezenet"),
    ];
    let ok = |line: &str| {
        let reply = server.handle_line(line);
        assert_eq!(
            parse(&reply).get("ok").and_then(Value::as_bool),
            Some(true),
            "{line}: {reply}"
        );
        reply
    };
    // Explicit shares keep the co-plans off the split search.
    let register = |model: &str, graph: &str| {
        ok(&format!(
            r#"{{"op":"register","model":"{model}","graph":"{graph}","share":0.3}}"#
        ));
    };
    for (model, graph) in models {
        register(model, graph);
    }
    // The first computed reply per request kind and registry state.
    let mut first: std::collections::BTreeMap<String, String> = Default::default();
    let mut computed = |kind: String, line: &str| {
        let reply = ok(line);
        assert!(reply.contains("\"cached\":false"), "{line}: {reply}");
        let expected = first.entry(kind).or_insert(reply.clone());
        assert_eq!(&reply, expected, "{line} changed across churn");
    };
    let misses = || {
        (
            stat_u64(&server, "harness", "artifact_misses"),
            stat_u64(&server, "harness", "result_misses"),
        )
    };
    let mut budget = 1u64 << 20;
    let mut after_first_cycle = None;
    for cycle in 0..3 {
        for (model, graph) in models {
            ok(&format!(r#"{{"op":"unregister","model":"{model}"}}"#));
            // A route computes the co-plan of the registry it routes in.
            let rest: Vec<&str> = models
                .iter()
                .map(|&(m, _)| m)
                .filter(|&m| m != model)
                .collect();
            computed(
                format!("route {rest:?}"),
                &format!(r#"{{"op":"route","model":"{}"}}"#, rest[0]),
            );
            // Each workload op misses the plan LRU through its budget,
            // which co-planning replaces, so every report is the same.
            budget += 4096;
            computed(
                "workload".to_string(),
                &format!(
                    r#"{{"op":"workload","models":"mobilenet,squeezenet","steps":2,"options":{{"tensor_budget":{budget}}}}}"#
                ),
            );
            register(model, graph);
            computed("coplan".to_string(), r#"{"op":"coplan"}"#);
        }
        match after_first_cycle {
            None => after_first_cycle = Some(misses()),
            Some(kept) => assert_eq!(misses(), kept, "cycle {cycle} rebuilt harness state"),
        }
    }
    server.shutdown();
}

/// Every plan request counts once in `cache.hits + cache.misses` and in
/// `requests.total` and `requests.completed`, whichever thread answers
/// it: zoo hits are answered at admission, zoo misses probe the cache
/// there and are looked up again by a worker, and synthetic plans go to
/// a worker either way. Admission refuses a cached zoo plan past its
/// deadline or after shutdown has begun, as it refuses a computed one.
#[test]
fn plan_accounting_counts_each_request_once_on_either_route() {
    let server = Server::start(ServerConfig::default().with_workers(1));
    let plan = |line: &str, cached: bool| {
        let v = parse(&server.handle_line(line));
        assert_eq!(
            v.get("cached").and_then(Value::as_bool),
            Some(cached),
            "{line}: {v:?}"
        );
    };
    let alexnet = r#"{"graph":"alexnet"}"#;
    let narrow = r#"{"graph":"alexnet","options":{"tensor_budget":2097152}}"#;
    let synthetic = r#"{"graph":"synthetic:48x3x5"}"#;
    let lines = [
        (alexnet, false),
        (alexnet, true),
        (narrow, false),
        (narrow, true),
        (r#"{"graph":"squeezenet"}"#, false),
        (r#"{"graph":"sq"}"#, true),
        (synthetic, false),
        (synthetic, true),
        (r#"{"graph":"alexnet","precision":"8"}"#, false),
        (narrow, true),
    ];
    for (line, cached) in lines {
        plan(line, cached);
    }
    let n = lines.len() as u64;
    let hits = stat_u64(&server, "cache", "hits");
    let misses = stat_u64(&server, "cache", "misses");
    assert_eq!((hits, misses), (5, 5), "one count per request");
    assert_eq!(hits + misses, n);
    assert_eq!(stat_u64(&server, "requests", "total"), n);
    assert_eq!(stat_u64(&server, "requests", "completed"), n);

    let expired = parse(&server.handle_line(r#"{"graph":"alexnet","deadline_ms":0,"id":1}"#));
    assert_eq!(
        error_code(&expired).as_deref(),
        Some("timeout"),
        "{expired:?}"
    );
    server.begin_shutdown();
    let late = parse(&server.handle_line(alexnet));
    assert_eq!(
        error_code(&late).as_deref(),
        Some("shutting_down"),
        "{late:?}"
    );
    assert_eq!(stat_u64(&server, "requests", "total"), n + 2);
    assert_eq!(stat_u64(&server, "requests", "completed"), n);
    server.shutdown();
}
