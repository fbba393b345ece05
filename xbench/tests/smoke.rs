//! End-to-end smoke test: every workload `BENCHMARK.json` names runs
//! `--smoke` (a few jobs, one real daemon for the serve workloads),
//! prints every metric named there with its unit, fails no job, and
//! reports the same quality on a second run.

use std::process::Command;

use xsynth::trace::json::{self, Value};

const QUALITY: [&str; 3] = ["premap_lits", "map_lits", "power"];

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{key} entry without {f}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one smoke workload and returns its result line.
fn smoke(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_xbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .env("CARGO_TARGET_DIR", ".")
        .output()
        .expect("xbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    if trace {
        let path = format!(
            "{}/xbench/trace-{workload}-1.json",
            env!("CARGO_TARGET_TMPDIR")
        );
        let spans = std::fs::read_to_string(&path).expect("the traced run writes its spans");
        json::validate(&spans).expect("the span file is valid JSON");
        assert!(spans.contains("\"job\""), "{workload}: no job spans");
    }
    let last = stdout.lines().last().expect("a result line");
    json::parse(last)
        .unwrap_or_else(|e| panic!("{workload}: result line is not JSON ({e}): {last}"))
}

fn assert_metrics(workload: &str, result: &Value, expected: &[(String, String)]) {
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{workload}: fail_frac must be 0"
    );
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object");
    assert_eq!(metrics.len(), expected.len(), "{workload}: metric count");
    for (name, unit) in expected {
        let m = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{workload}: {name} value"
        );
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{workload}: {name} unit"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_and_repeats_its_quality() {
    let doc = benchmark();
    let end_to_end = names_and_units(&doc, "end_to_end");
    let per_layer = names_and_units(&doc, "per_layer");
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads");
    assert!(!workloads.is_empty());
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        let first = smoke(name, false);
        assert_metrics(name, &first, &end_to_end);
        let second = smoke(name, false);
        for q in QUALITY {
            let value = |r: &Value| {
                r.get("metrics")
                    .and_then(|m| m.get(q))
                    .and_then(|m| m.get("value"))
                    .cloned()
            };
            assert_eq!(
                value(&first),
                value(&second),
                "{name}: {q} differs between runs"
            );
        }
        assert_metrics(name, &smoke(name, true), &per_layer);
    }
}
