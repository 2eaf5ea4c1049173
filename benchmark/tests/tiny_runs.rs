//! A tiny run of each workload prints exactly the metrics `BENCHMARK.json`
//! lists, with their units, and no failed cells. Run with
//! `cargo test --release`.

use phast_experiments::artifact::JsonValue;
use phast_experiments::jsonio;
use std::process::Command;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    jsonio::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// (name, unit) of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(JsonValue::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs the benchmark binary in a scratch directory and returns its
/// parsed last line.
fn run(workload: &str, trace: &str) -> JsonValue {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("tiny-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_phast-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "4",
            "--seconds",
            "0.1",
            "--trace",
            trace,
        ])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    jsonio::parse(last).expect("the last line is JSON")
}

fn assert_result(result: &JsonValue, metrics: &[(String, String)]) {
    let keys: Vec<&str> = match result {
        JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("result is an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(
        result
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            >= 1
    );
    let printed = match result.get("metrics") {
        Some(JsonValue::Object(fields)) => fields,
        _ => panic!("metrics is an object"),
    };
    let got: Vec<(String, String)> = printed
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("unit")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(got, metrics);
    for (name, v) in printed {
        let value = v
            .get("value")
            .and_then(JsonValue::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn each_workload_prints_the_six_end_to_end_metrics() {
    let e2e = declared("end_to_end");
    assert_eq!(e2e.len(), 6);
    for workload in ["fig15_quick", "sampled_phase", "serve_bench"] {
        let result = run(workload, "0");
        assert_result(&result, &e2e);
        for (name, _) in &e2e {
            let v = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"));
            assert!(
                v.and_then(JsonValue::as_f64).unwrap_or(0.0) > 0.0,
                "{workload}: {name} is not positive"
            );
        }
    }
}

#[test]
fn the_traced_run_prints_every_per_layer_metric() {
    assert_result(&run("serve_bench", "1"), &declared("per_layer"));
}
