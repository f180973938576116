//! Self-test of the benchmark at tiny fleet sizes: every metric that
//! `BENCHMARK.json` names is printed with its unit, on every workload and
//! in both modes, and a perturbed reference digest is reported as a
//! failed operation with a non-zero exit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::{Command, Output};

use safehome_types::json::Json;

const WORKLOADS: [&str; 3] = ["morning_batch", "service_skewed", "service_calm_evict"];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_tiny(workload: &str, trace: bool, extra: &[&str]) -> (Output, Json) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.05"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(output.stdout.clone()).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    let result = Json::parse(last).expect("last line is one JSON object");
    (output, result)
}

fn number(json: &Json) -> Option<f64> {
    match json {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

#[test]
fn workloads_match_benchmark_json() {
    let listed: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(listed, WORKLOADS);
}

#[test]
fn every_named_metric_is_printed_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let (output, result) = run_tiny(workload, trace, &[]);
            assert!(output.status.success(), "{workload} trace={trace} failed");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_i64) > Some(0));
            let metrics = result.get("metrics").expect("metrics");
            let Json::Obj(printed) = metrics else {
                panic!("metrics is an object");
            };
            let names = declared(section);
            assert_eq!(
                printed.len(),
                names.len(),
                "{workload}: exactly the declared metrics"
            );
            for (name, unit) in names {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let value = m.get("value").and_then(number);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
            }
        }
    }
}

#[test]
fn perturbed_reference_is_reported_as_failure() {
    for trace in [false, true] {
        let (output, result) = run_tiny("morning_batch", trace, &["--perturb-reference"]);
        assert!(
            !output.status.success(),
            "a digest mismatch must exit non-zero"
        );
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
        assert!(result.get("failed").and_then(Json::as_i64) > Some(0));
    }
}

#[test]
fn rejects_incomplete_arguments() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "morning_batch", "--seed", "1"])
        .output()
        .expect("run perfbench");
    assert!(!output.status.success());
    assert!(
        output.stdout.is_empty(),
        "no result without a complete command line"
    );
}
