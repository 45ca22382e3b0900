//! End-to-end tests of the `lcmm` binary.

use std::process::Command;

fn lcmm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lcmm"))
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = lcmm().output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn unknown_command_fails() {
    let out = lcmm().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn unknown_model_fails_cleanly() {
    let out = lcmm()
        .args(["roofline", "--model", "lenet"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown model"));
}

#[test]
fn synthetic_spec_past_the_depth_cap_fails_naming_it() {
    let out = lcmm()
        .args(["roofline", "--model", "synthetic:4097x3x1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"synthetic:4097x3x1\""), "{stderr}");
    assert!(stderr.contains("exceeds the cap of 4096 nodes"), "{stderr}");
}

#[test]
fn summary_lists_the_zoo() {
    let out = lcmm().arg("summary").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for model in ["alexnet", "vgg16", "resnet152", "googlenet", "inception_v4"] {
        assert!(text.contains(model), "missing {model} in:\n{text}");
    }
}

#[test]
fn export_dot_is_wellformed() {
    let out = lcmm()
        .args(["export", "--model", "alexnet"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let dot = String::from_utf8_lossy(&out.stdout);
    assert!(dot.starts_with("digraph"));
    assert!(dot.trim_end().ends_with('}'));
    assert!(dot.contains("conv1"));
}

#[test]
fn export_json_round_trips() {
    let out = lcmm()
        .args(["export", "--model", "squeezenet", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    let graph = lcmm_graph::Graph::from_json(&json).expect("valid graph json");
    assert_eq!(graph.name(), "squeezenet");
}

#[test]
fn table1_json_is_machine_readable() {
    let out = lcmm()
        .args([
            "table1",
            "--model",
            "googlenet",
            "--precision",
            "16",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let suite: lcmm_core::report::SuiteReport =
        serde_json::from_slice(&out.stdout).expect("valid suite json");
    assert_eq!(suite.records.len(), 1);
    assert!(suite.records[0].speedup > 1.0);
}

#[test]
fn roofline_reports_memory_bound_layers() {
    let out = lcmm()
        .args(["roofline", "--model", "googlenet", "--precision", "16"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("memory-bound layers:"), "{text}");
}

#[test]
fn fig7_respects_block_flag() {
    let out = lcmm()
        .args(["fig7", "--model", "googlenet", "--block", "inception_3a"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("inception_3a/3x3"));

    let bad = lcmm()
        .args(["fig7", "--model", "googlenet", "--block", "nope"])
        .output()
        .expect("binary runs");
    assert!(!bad.status.success());
}
