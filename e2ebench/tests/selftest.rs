//! Tiny-scale self-test of the benchmark: every workload runs end to end,
//! untraced and traced, and every metric it prints must be declared in
//! `BENCHMARK.json` under the matching list, with the same unit.

use serde::Value;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["scan_cold", "rescan_edit", "train"];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn array_of(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// `(name, unit)` of every metric declared under `key`.
fn declared(bench: &Value, key: &str) -> Vec<(String, String)> {
    array_of(bench.get(key).expect("metric list"))
        .iter()
        .map(|m| {
            (
                str_of(m.get("name").expect("name")).to_string(),
                str_of(m.get("unit").expect("unit")).to_string(),
            )
        })
        .collect()
}

/// Where the benchmark runs: the repository root.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .current_dir(ROOT)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--scale",
            "tiny",
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::parse_value(last).expect("the result line is JSON")
}

#[test]
fn every_printed_metric_is_declared_with_its_unit() {
    let bench = benchmark_json();
    let declared_workloads: Vec<&str> = array_of(bench.get("workloads").expect("workloads"))
        .iter()
        .map(|w| str_of(w.get("name").expect("workload name")))
        .collect();
    assert_eq!(declared_workloads, WORKLOADS);

    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let declared = declared(&bench, key);
        for workload in WORKLOADS {
            let result = run(workload, trace);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert_eq!(result.get("failed"), Some(&Value::UInt(0)), "{workload}");
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics object");
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    (
                        name.clone(),
                        str_of(m.get("unit").expect("unit")).to_string(),
                    )
                })
                .collect();
            assert_eq!(
                printed, declared,
                "{workload} --trace {trace}: printed metrics must match the `{key}` list"
            );
        }
    }
}

#[test]
fn bad_arguments_are_usage_errors() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "train", "--trace", "2"][..],
        &["--workload", "train", "--seconds"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
            .current_dir(ROOT)
            .args(args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "no result line on a usage error");
    }
}
