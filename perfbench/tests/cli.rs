//! The benchmark command as it runs from the repository root:
//! short-input runs of every workload pass their own correctness
//! checks, and the metrics they print are exactly the ones
//! `BENCHMARK.json` declares.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries(v: &Value) -> &Vec<(String, Value)> {
    match v {
        Value::Object(e) => e,
        other => panic!("expected an object, got {other:?}"),
    }
}

/// Runs one short workload and returns its result line. It runs in
/// Cargo's temporary directory for tests, so a traced run's span file lands
/// there rather than in the source tree.
fn run(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "small"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("result line");
    serde_json::from_str(last).expect("result line is JSON")
}

/// (name, unit) pairs of a `BENCHMARK.json` metric list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()[list]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_owned(),
                m["unit"].as_str().expect("unit").to_owned(),
            )
        })
        .collect()
}

/// (name, unit) pairs a result line reports, in order.
fn reported(result: &Value) -> Vec<(String, String)> {
    entries(&result["metrics"])
        .iter()
        .map(|(name, m)| {
            assert!(m["value"].as_f64().is_some(), "{name} has a numeric value");
            (name.clone(), m["unit"].as_str().expect("unit").to_owned())
        })
        .collect()
}

fn check(workload: &str) {
    for trace in [false, true] {
        let result = run(workload, trace);
        assert_eq!(
            result["correct"],
            Value::Bool(true),
            "{workload} checks pass"
        );
        assert_eq!(result["failed"].as_u64(), Some(0));
        assert!(result["attempted"].as_u64().unwrap_or(0) >= 1);
        let keys: Vec<&str> = entries(&result).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let list = if trace { "per_layer" } else { "end_to_end" };
        assert_eq!(reported(&result), declared(list), "{workload} {list}");
    }
}

#[test]
fn benchmark_json_names_the_three_workloads() {
    let names: Vec<String> = benchmark_json()["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("name").to_owned())
        .collect();
    assert_eq!(names, ["node_replay", "gpa_fanin", "scenarios"]);
}

#[test]
fn node_replay_short_run_passes_and_reports_declared_metrics() {
    check("node_replay");
}

#[test]
fn gpa_fanin_short_run_passes_and_reports_declared_metrics() {
    check("gpa_fanin");
    let traced = run("gpa_fanin", true);
    let evicted = traced["metrics"]["gpa.records_evicted"]["value"].as_f64();
    assert!(
        evicted.unwrap_or(0.0) > 0.0,
        "retention eviction is on the measured path"
    );
}

#[test]
fn scenarios_short_run_passes_and_reports_declared_metrics() {
    check("scenarios");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no_such_workload", "--seed", "1"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
