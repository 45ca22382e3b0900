//! Crash/restart recovery tests: a daemon killed uncleanly (handle
//! dropped, no shutdown, including mid-WAL-append via the fault
//! injection hook) and restarted on the same `--wal-dir` must serve
//! byte-identical registry/cache state and plan replies versus an
//! uninterrupted run.

use lcmm_serve::{FsyncPolicy, Server, ServerConfig, Wal, WalRecord};
use serde_json::Value;
use std::path::{Path, PathBuf};

fn parse(line: &str) -> Value {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("non-JSON response {line:?}: {e}"))
}

fn stat_u64(server: &Server, section: &str, field: &str) -> u64 {
    let v = parse(&server.handle_line(r#"{"op":"stats"}"#));
    v.get("stats")
        .and_then(|s| s.get(section))
        .and_then(|s| s.get(field))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing stats.{section}.{field}"))
}

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcmm_recovery_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &PathBuf) -> ServerConfig {
    ServerConfig::default().with_workers(2).with_wal_dir(dir)
}

/// The registry + cache churn every test drives: two tenants, a
/// co-plan computed and replayed, a single-model plan computed and
/// replayed, plus a register/unregister round-trip of a third model.
/// Returns the *cached* co-plan and plan reply lines — the bytes a
/// recovered daemon must reproduce.
fn churn(server: &Server) -> (String, String) {
    server.handle_line(r#"{"op":"register","model":"axn","graph":"alexnet","share":0.5}"#);
    server.handle_line(r#"{"op":"register","model":"sqz","graph":"squeezenet","share":0.5}"#);
    // A third tenant comes and goes — replay must end with it absent.
    server.handle_line(r#"{"op":"register","model":"tmp","graph":"googlenet","share":0.3}"#);
    server.handle_line(r#"{"op":"unregister","model":"tmp"}"#);
    let first = server.handle_line(r#"{"op":"coplan"}"#);
    assert!(first.contains("\"cached\":false"), "{first}");
    let coplan = server.handle_line(r#"{"op":"coplan"}"#);
    assert!(coplan.contains("\"cached\":true"), "{coplan}");
    let plan_line = r#"{"graph":"alexnet","precision":"8"}"#;
    server.handle_line(plan_line);
    let plan = server.handle_line(plan_line);
    assert!(plan.contains("\"cached\":true"), "{plan}");
    (coplan, plan)
}

#[test]
fn unclean_restart_replays_state_bit_identically() {
    let dir = wal_dir("restart");
    // The uninterrupted reference run holds no WAL at all.
    let reference = Server::start(ServerConfig::default().with_workers(2));
    let (ref_coplan, ref_plan) = churn(&reference);
    reference.shutdown();

    let (entries, coplan, plan) = {
        let server = Server::start(config(&dir));
        let (coplan, plan) = churn(&server);
        assert_eq!(coplan, ref_coplan, "WAL daemon answers like a plain one");
        assert_eq!(plan, ref_plan);
        let entries = stat_u64(&server, "cache", "entries");
        assert_eq!(stat_u64(&server, "registry", "models"), 2);
        assert!(
            stat_u64(&server, "wal", "appended") >= 6,
            "churn was logged"
        );
        // Unclean death: the handle is dropped without shutdown.
        (entries, coplan, plan)
    };

    let revived = Server::start(config(&dir));
    assert_eq!(
        stat_u64(&revived, "registry", "models"),
        2,
        "registry recovered"
    );
    assert_eq!(
        stat_u64(&revived, "cache", "entries"),
        entries,
        "cache recovered entry-for-entry"
    );
    assert!(stat_u64(&revived, "wal", "replayed") > 0);
    // The recovered cache replays the exact bytes the dead daemon (and
    // the uninterrupted reference) served — first request, no warmup.
    let replayed_coplan = revived.handle_line(r#"{"op":"coplan"}"#);
    assert_eq!(replayed_coplan, coplan, "co-plan replay is byte-identical");
    let replayed_plan = revived.handle_line(r#"{"graph":"alexnet","precision":"8"}"#);
    assert_eq!(replayed_plan, plan, "plan replay is byte-identical");
    // Replay is idempotent: a third incarnation sees the same state.
    drop(revived);
    let third = Server::start(config(&dir));
    assert_eq!(stat_u64(&third, "registry", "models"), 2);
    assert_eq!(stat_u64(&third, "cache", "entries"), entries);
    assert_eq!(third.handle_line(r#"{"op":"coplan"}"#), coplan);
    third.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_mid_append_recovers_the_intact_prefix() {
    let dir = wal_dir("torn");
    let coplan = {
        let server = Server::start(config(&dir));
        let (coplan, _) = churn(&server);
        coplan
    };
    // Simulate power loss mid-append: chop into the last WAL record.
    lcmm_serve::wal::truncate_log_tail(&dir, 5).expect("fault injection");
    let revived = Server::start(config(&dir));
    assert!(
        stat_u64(&revived, "wal", "truncated_bytes") > 0,
        "the torn tail was detected and truncated"
    );
    // The torn record was one of the cache puts; everything before it
    // replays. The registry (logged earlier) must be fully intact.
    assert_eq!(stat_u64(&revived, "registry", "models"), 2);
    // Whatever the cache lost is recomputed deterministically: the
    // co-plan reply converges back to the original bytes, cached or
    // not, and the second request replays it verbatim.
    let first = parse(&revived.handle_line(r#"{"op":"coplan"}"#));
    let again = revived.handle_line(r#"{"op":"coplan"}"#);
    assert!(again.contains("\"cached\":true"), "{again}");
    assert_eq!(
        first.get("plan"),
        parse(&coplan).get("plan"),
        "recomputed co-plan matches the pre-crash plan"
    );
    revived.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_recover_starts_cold_and_rebuilds_the_wal() {
    let dir = wal_dir("cold");
    {
        let server = Server::start(config(&dir));
        churn(&server);
    }
    let cold = Server::start(config(&dir).with_recover(false));
    assert_eq!(stat_u64(&cold, "registry", "models"), 0, "state was wiped");
    assert_eq!(stat_u64(&cold, "cache", "entries"), 0);
    assert_eq!(stat_u64(&cold, "wal", "replayed"), 0);
    // The wiped daemon still logs going forward.
    cold.handle_line(r#"{"op":"register","model":"axn","graph":"alexnet","share":0.5}"#);
    assert_eq!(stat_u64(&cold, "wal", "appended"), 1);
    drop(cold);
    let revived = Server::start(config(&dir));
    assert_eq!(stat_u64(&revived, "registry", "models"), 1);
    revived.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Appends a `PlanPut` of `value` under `key` to the log in `dir`, as a
/// daemon would: framed and checksummed.
fn append_plan_put(dir: &Path, key: &str, value: &str) {
    let (mut wal, _) = Wal::open(dir, FsyncPolicy::Always).expect("open wal");
    wal.append(&WalRecord::PlanPut {
        key: key.to_string(),
        value: value.to_string(),
        tags: Vec::new(),
    })
    .expect("append");
}

#[test]
fn replayed_plan_values_answer_as_they_always_have() {
    let dir = wal_dir("values");
    let line = r#"{"graph":"alexnet","precision":"8"}"#;
    let hit = {
        let server = Server::start(config(&dir));
        server.handle_line(line);
        let hit = server.handle_line(line);
        assert!(hit.starts_with(r#"{"cached":true,"#), "{hit}");
        server.shutdown();
        hit
    };
    let (_, records) = Wal::open(&dir, FsyncPolicy::Os).expect("open wal");
    let key = records
        .iter()
        .find_map(|r| match r {
            WalRecord::PlanPut { key, .. } => Some(key.clone()),
            _ => None,
        })
        .expect("the plan was logged");
    let replayed = || {
        let server = Server::start(config(&dir));
        let reply = server.handle_line(line);
        server.shutdown();
        reply
    };
    // The compact value the daemon logged replays byte for byte.
    assert_eq!(replayed(), hit);
    // The same plan logged with whitespace answers the same bytes.
    let plan = parse(&hit).get("plan").cloned().expect("plan");
    let pretty = serde_json::to_string_pretty(&plan).expect("plan serialises");
    assert!(pretty.contains('\n'));
    append_plan_put(&dir, &key, &pretty);
    assert_eq!(replayed(), hit);
    // A value that is not JSON answers as its string literal.
    append_plan_put(&dir, &key, "not json: {\"a\" \\ b\n");
    assert_eq!(
        replayed(),
        r#"{"cached":true,"ok":true,"plan":"not json: {\"a\" \\ b\n"}"#
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A co-plan key is the digest of its parts' compact JSON, spelled out
/// whole here: a co-plan a WAL holds under that key replays as a hit,
/// both for the first co-plan after the restart, which hashes the
/// replayed registry, and for the next, which reads the digest state
/// the first one memoized.
#[test]
fn wal_coplan_keys_are_digests_of_the_serialized_parts() {
    use lcmm_fpga::{Device, Precision};
    use lcmm_graph::fast_hash::FnvLanes;
    use lcmm_graph::zoo;
    use lcmm_multi::CoplanOptions;

    fn json<T: serde::Serialize>(value: &T) -> String {
        serde_json::to_string(value).expect("key parts serialise")
    }
    let dir = wal_dir("coplan_key");
    {
        let server = Server::start(config(&dir));
        for line in [
            r#"{"op":"register","model":"axn","graph":"alexnet","share":0.4}"#,
            r#"{"op":"register","model":"sqz","graph":"squeezenet","precision":"8","share":0.3}"#,
            r#"{"op":"register","model":"sqz","graph":"squeezenet","precision":"8","share":0.5}"#,
            r#"{"op":"unregister","model":"axn"}"#,
            r#"{"op":"register","model":"mbn","graph":"mobilenet","weight":2.0,"share":0.25}"#,
        ] {
            let reply = server.handle_line(line);
            assert!(reply.contains("\"ok\":true"), "{line}: {reply}");
        }
        server.shutdown();
    }
    // The registry in name order, then the device and the options.
    let mut parts = String::new();
    for (name, graph, precision, weight, share) in [
        ("mbn", zoo::mobilenet(), Precision::Fix16, 2.0, Some(0.25)),
        ("sqz", zoo::squeezenet(), Precision::Fix8, 1.0, Some(0.5)),
    ] {
        parts.push_str(&format!(
            "{name}\u{1}{}\u{1}{}\u{1}{}\u{1}{:?}\u{2}",
            json(&graph),
            json(&precision),
            weight,
            share,
        ));
    }
    parts.push_str(&format!(
        "{}\u{1}{}",
        json(&Device::vu9p()),
        json(&CoplanOptions::default())
    ));
    let mut lanes = FnvLanes::new();
    lanes.write(parts.as_bytes());
    let key = format!("coplan:{}", lanes.digest());
    append_plan_put(&dir, &key, r#"{"stored":"by hand"}"#);
    let revived = Server::start(config(&dir));
    for _ in 0..2 {
        assert_eq!(
            revived.handle_line(r#"{"op":"coplan"}"#),
            r#"{"cached":true,"ok":true,"plan":{"stored":"by hand"}}"#
        );
    }
    revived.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
