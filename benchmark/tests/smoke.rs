//! End-to-end self-tests of the benchmark binary at a hundredth of its
//! load: the result line matches the metric lists in `BENCHMARK.json`,
//! the sampled differential runs, and wrong outputs fail the run.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["paper-matrix", "serve-burst", "serve-durable", "serve-traced"];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mak-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn small_run(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec!["run", "--workload", workload, "--seed", seed, "--seconds", "0"];
    args.extend(["--scale", "0.01", "--trace", trace]);
    args.extend(extra);
    bench(&args)
}

fn result_line(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().expect("a result line");
    serde_json::from_str(line).unwrap_or_else(|e| panic!("result line is JSON ({e}): {line}"))
}

fn keys(value: &Value) -> Vec<String> {
    value.as_object().expect("an object").iter().map(|(k, _)| k.clone()).collect()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(metrics)) = spec.get(section) else { panic!("no {section}") };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("metric without name or unit in {section}"),
        })
        .collect()
}

fn number(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Float(f)) => *f,
        Some(Value::UInt(n)) => *n as f64,
        Some(Value::Int(n)) => *n as f64,
        other => panic!("not a number: {other:?}"),
    }
}

fn check_schema(output: &Output, section: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "run failed: {stderr}");
    let result = result_line(output);
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert!(number(result.get("attempted")) >= 1.0);
    assert_eq!(number(result.get("failed")), 0.0);
    let metrics = result.get("metrics").expect("metrics");
    let printed: Vec<(String, String)> = metrics
        .as_object()
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert_eq!(keys(m), ["value", "unit"], "{name}");
            assert!(number(m.get("value")).is_finite(), "{name}");
            let Some(Value::Str(unit)) = m.get("unit") else { panic!("{name} has no unit") };
            (name.clone(), unit.clone())
        })
        .collect();
    assert_eq!(printed, declared(section));
    if section == "end_to_end" {
        for (name, m) in metrics.as_object().expect("metrics object") {
            assert!(number(m.get("value")) > 0.0, "end-to-end {name} is never 0");
        }
    }
}

#[test]
fn every_workload_prints_its_end_to_end_metrics_and_passes_the_differential() {
    for workload in WORKLOADS {
        let output = small_run(workload, "1", "0", &[]);
        check_schema(&output, "end_to_end");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(" 0 mismatches"), "{workload}: {stderr}");
        assert!(!stderr.contains(" 0 sampled"), "{workload} compared no session: {stderr}");
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_write_the_ledger() {
    for workload in WORKLOADS {
        check_schema(&small_run(workload, "1", "1", &[]), "per_layer");
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        for artifact in [format!("{workload}.trace.json"), format!("{workload}.layers.json")] {
            let text = std::fs::read_to_string(out.join(&artifact)).expect("artifact written");
            let parsed: Value = serde_json::from_str(&text).expect("artifact is JSON");
            if artifact.ends_with("layers.json") {
                let layers = parsed.get("layers_s").and_then(Value::as_object).expect("layers");
                let sum: f64 = layers.iter().map(|(_, v)| number(Some(v))).sum();
                let total = sum + number(parsed.get("residual_s"));
                let capacity = number(parsed.get("capacity_s"));
                assert!((total - capacity).abs() <= 1e-9 * capacity.max(1.0), "{artifact}");
            } else {
                assert!(parsed.get("traceEvents").is_some(), "{artifact}");
            }
        }
    }
}

/// A scratch path inside this package's `out/` directory.
fn scratch(name: &str) -> PathBuf {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out).expect("out/ is writable");
    out.join(format!("{name}-{}.json", std::process::id()))
}

#[test]
fn a_wrong_reference_digest_fails_the_run() {
    let expected = scratch("expected");
    let path = expected.to_str().expect("utf-8 path");
    let bless = bench(&[
        "bless",
        "--workload",
        "paper-matrix",
        "--rounds",
        "1",
        "--scale",
        "0.01",
        "--out",
        path,
    ]);
    assert!(bless.status.success(), "{}", String::from_utf8_lossy(&bless.stderr));

    let good = small_run("paper-matrix", "0", "0", &["--expected", path]);
    assert!(good.status.success(), "{}", String::from_utf8_lossy(&good.stderr));
    assert_eq!(result_line(&good).get("correct"), Some(&Value::Bool(true)));

    let text = std::fs::read_to_string(&expected).expect("blessed digests");
    let start = text.find("[\"").expect("one digest") + 2;
    let mut corrupted = text.clone();
    let flipped = if &text[start..start + 1] == "0" { "1" } else { "0" };
    corrupted.replace_range(start..start + 1, flipped);
    std::fs::write(&expected, corrupted).expect("scratch file is writable");

    let bad = small_run("paper-matrix", "0", "0", &["--expected", path]);
    let _ = std::fs::remove_file(&expected);
    assert!(!bad.status.success(), "a digest mismatch must fail the run");
    let result = result_line(&bad);
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert!(number(result.get("failed")) >= 1.0);
}

#[test]
fn bad_arguments_print_no_result() {
    for args in [&["run"][..], &["run", "--workload", "nope"], &["run", "--seconds"]] {
        let output = bench(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
