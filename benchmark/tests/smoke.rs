//! Runs the whole suite at smoke size and holds what it prints and
//! writes against `BENCHMARK.json`.

use abc_benchmark::json::{self, Value};
use std::path::Path;
use std::process::Command;

fn names(spec: &Value, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

#[test]
fn smoke_run_reports_every_metric_once_per_workload_and_fails_nothing() {
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(spec_path).expect("BENCHMARK.json"))
        .expect("spec parses");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("smoke")
        .join("result.json");

    let run = Command::new(env!("CARGO_BIN_EXE_abc-benchmark"))
        .args(["run", "--smoke", "--out"])
        .arg(&out)
        // The benchmark must take such overrides away, not obey them.
        .env("ABC_FHE_THREADS", "1")
        .output()
        .expect("abc-benchmark starts");
    assert!(
        run.status.success(),
        "run --smoke failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    // One `workload metric value unit` line per pairing, value finite.
    let stdout = String::from_utf8(run.stdout).expect("utf-8 output");
    let lines: Vec<Vec<&str>> = stdout.lines().map(|l| l.split(' ').collect()).collect();
    let metrics: Vec<String> = [names(&spec, "end_to_end"), names(&spec, "per_layer")].concat();
    for workload in names(&spec, "workloads") {
        for metric in &metrics {
            let hits: Vec<_> = lines
                .iter()
                .filter(|l| l.len() == 4 && l[0] == workload && l[1] == metric)
                .collect();
            assert_eq!(
                hits.len(),
                1,
                "{workload} {metric} printed {} times",
                hits.len()
            );
            let value: f64 = hits[0][2].parse().expect("a number");
            assert!(value.is_finite(), "{workload} {metric} = {value}");
        }
    }
    assert_eq!(
        lines.len(),
        names(&spec, "workloads").len() * metrics.len(),
        "no other lines"
    );

    // The result file: same schema as a full run, nothing failed, the
    // override is on record as taken away.
    let result =
        json::parse(&std::fs::read_to_string(&out).expect("result file")).expect("result parses");
    assert_eq!(result.get("claim"), Some(&Value::Null));
    assert_eq!(result.get("smoke"), Some(&Value::Bool(true)));
    let stripped = result
        .get("host")
        .and_then(|h| h.get("stripped_env"))
        .and_then(Value::as_arr)
        .expect("host.stripped_env");
    assert!(stripped.contains(&Value::str("ABC_FHE_THREADS")));
    for workload in names(&spec, "workloads") {
        let w = result
            .get("workloads")
            .and_then(|ws| ws.get(&workload))
            .expect("workload in result");
        assert_eq!(
            w.get("failed").and_then(Value::as_f64),
            Some(0.0),
            "{workload}"
        );
        assert_eq!(w.get("correct"), Some(&Value::Bool(true)), "{workload}");
        assert!(
            w.get("attempted")
                .and_then(Value::as_f64)
                .expect("attempted")
                >= 1.0
        );
        assert!(w
            .get("output_hash")
            .and_then(Value::as_str)
            .is_some_and(|h| h.starts_with("0x")));
        for metric in names(&spec, "end_to_end") {
            let rounds = w
                .get("end_to_end")
                .and_then(|e| e.get(&metric))
                .and_then(|m| m.get("rounds"))
                .and_then(Value::as_arr);
            assert!(
                rounds.is_some_and(|r| !r.is_empty()),
                "{workload} {metric} rounds"
            );
        }
    }
    // The traced pass left its spans behind.
    let trace = out.with_file_name("trace-upload_n16.json");
    let spans =
        json::parse(&std::fs::read_to_string(trace).expect("trace file")).expect("trace parses");
    assert!(spans
        .get("spans")
        .and_then(Value::as_arr)
        .is_some_and(|s| s.len() > 10));
}
