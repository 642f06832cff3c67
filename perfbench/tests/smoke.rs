//! A tiny-scale run of every workload prints every metric that
//! `BENCHMARK.json` names, with its unit, and checks its answers.

use std::process::Command;

use sj_telemetry::json::{self, JsonValue};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("strict JSON")
}

fn metrics(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> (String, JsonValue) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .args(["--scale", "0.02"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    (
        stdout,
        json::parse(&last).expect("the result line is strict JSON"),
    )
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let bench = benchmark_json();
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), perfbench::Workload::ALL.len());
    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (stdout, result) = run(workload, trace);
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true)
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
            let printed = result.get("metrics").unwrap();
            let expected = metrics(&bench, list);
            for (name, unit) in &expected {
                let m = printed
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                assert!(
                    m.get("value").and_then(JsonValue::as_f64).is_some(),
                    "{name}"
                );
                assert!(
                    stdout.lines().any(|l| l.starts_with(&format!("{name} "))),
                    "{name} line"
                );
            }
            if let JsonValue::Object(fields) = printed {
                assert_eq!(
                    fields.len(),
                    expected.len(),
                    "{workload} trace {trace}: extra metrics"
                );
            }
        }
    }
}

#[test]
fn the_serve_latency_limit_is_the_one_benchmark_json_states() {
    let bench = benchmark_json();
    let why = bench
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .find(|w| w.get("name").and_then(JsonValue::as_str) == Some("serve-churn"))
        .and_then(|w| w.get("why"))
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string();
    let limit = format!("{} s", perfbench::serve_churn::LATENCY_LIMIT_S);
    let rate = format!("{} req/s", perfbench::serve_churn::FIXED_RATE_RPS);
    assert!(
        why.contains(&limit),
        "{why:?} should state the {limit} limit"
    );
    assert!(why.contains(&rate), "{why:?} should state the {rate} rate");
}
