//! `abc-benchmark run`: every workload, several rounds, one result
//! file. Each (workload, round) is its own child process, one at a
//! time; rounds are interleaved `A B C D A B C D …` so a noisy minute
//! on a shared box cannot land on one workload.

use crate::json::{self, Value};
use crate::spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats::median;
use crate::{write_file, Flags, DEFAULT_OUT_DIR};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Timed rounds per workload; the bounds are calibrated for this many
/// runs of [`RUN_SECONDS`] each.
const ROUNDS: usize = 3;
const SMOKE_SECONDS: f64 = 0.4;

struct Suite {
    exe: PathBuf,
    out_dir: PathBuf,
    seed: u64,
    seconds: f64,
    smoke: bool,
}

impl Suite {
    /// Runs one child to completion and returns the result file it
    /// wrote.
    fn child(&self, workload: &str, trace: bool) -> Result<Value, String> {
        let file = self
            .out_dir
            .join(format!("{workload}.trace{}.json", trace as u8));
        // A stale file must not pass for this child's.
        let _ = std::fs::remove_file(&file);
        let mut cmd = Command::new(&self.exe);
        cmd.args(["--workload", workload, "--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&self.out_dir)
            .stdout(Stdio::null());
        if self.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("starting {}: {e}", self.exe.display()))?;
        // 1 = the run was made and an output was wrong: its file says
        // so, and `run` folds that into the workload's `correct`.
        if !matches!(status.code(), Some(0 | 1)) {
            return Err(format!(
                "{workload} (trace {}) ended with {status}",
                trace as u8
            ));
        }
        read_json(&file)
    }
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_value(result: &Value, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("a run reported no finite {name}"))
}

fn number(result: &Value, key: &str) -> f64 {
    result.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    flags.only(&["seed", "smoke", "out"])?;
    let smoke = flags.has("smoke");
    // Smoke: same code paths and schema at N = 2^10, inside 10 s.
    let (rounds, seconds) = if smoke {
        (1, SMOKE_SECONDS)
    } else {
        (ROUNDS, RUN_SECONDS as f64)
    };
    let out = PathBuf::from(
        flags
            .get("out")
            .map_or_else(|| format!("{DEFAULT_OUT_DIR}/result.json"), str::to_owned),
    );
    let suite = Suite {
        exe: std::env::current_exe().map_err(|e| format!("own path: {e}"))?,
        out_dir: out
            .parent()
            .map_or_else(|| PathBuf::from("."), Path::to_path_buf),
        seed: flags.parsed("seed")?.unwrap_or(2026),
        seconds,
        smoke,
    };

    let mut timed: Vec<Vec<Value>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for round in 0..rounds {
        for (w, runs) in WORKLOADS.iter().zip(&mut timed) {
            eprintln!("round {}/{rounds}: {}", round + 1, w.name);
            runs.push(suite.child(w.name, false)?);
        }
    }
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (w, runs) in WORKLOADS.iter().zip(&timed) {
        eprintln!("traced: {}", w.name);
        let traced = suite.child(w.name, true)?;
        let mut end_to_end = Vec::new();
        for (m, _) in &END_TO_END {
            let per_round = runs
                .iter()
                .map(|r| metric_value(r, m.name))
                .collect::<Result<Vec<_>, _>>()?;
            println!("{} {} {} {}", w.name, m.name, median(&per_round), m.unit);
            end_to_end.push((
                m.name,
                Value::obj([
                    ("unit", Value::str(m.unit)),
                    ("median", Value::Num(median(&per_round))),
                    ("rounds", Value::nums(&per_round)),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for m in &PER_LAYER {
            let value = metric_value(&traced, m.name)?;
            println!("{} {} {value} {}", w.name, m.name, m.unit);
            per_layer.push((
                m.name,
                Value::obj([("unit", Value::str(m.unit)), ("value", Value::Num(value))]),
            ));
        }
        // The timings before scaling to the nominal host, and how far
        // from it the host was, round by round.
        let as_measured = [
            "raw_op_p50_ms",
            "raw_ops_per_s",
            "raw_cpu_ms_per_op",
            "host_factor",
        ]
        .map(|key| {
            let per_round: Vec<f64> = runs.iter().map(|r| number(r, key)).collect();
            (key, Value::nums(&per_round))
        });
        let every_run = || runs.iter().chain([&traced]);
        let hash = runs[0].get("output_hash").cloned().unwrap_or(Value::Null);
        // Same seed, same inputs: every timed round must produce the
        // same bits.
        let correct = every_run().all(|r| r.get("correct") == Some(&Value::Bool(true)))
            && runs.iter().all(|r| r.get("output_hash") == Some(&hash));
        all_correct &= correct;
        workloads.push((
            w.name,
            Value::obj([
                ("correct", Value::Bool(correct)),
                (
                    "attempted",
                    Value::Num(every_run().map(|r| number(r, "attempted")).sum()),
                ),
                (
                    "failed",
                    Value::Num(every_run().map(|r| number(r, "failed")).sum()),
                ),
                ("output_hash", hash),
                (
                    "kernels",
                    traced.get("kernels").cloned().unwrap_or(Value::Null),
                ),
                ("end_to_end", Value::obj(end_to_end)),
                ("as_measured", Value::obj(as_measured)),
                ("per_layer", Value::obj(per_layer)),
            ]),
        ));
    }
    let result = Value::obj([
        ("schema", Value::Num(1.0)),
        // This file states measurements; a gain is claimed by a later
        // change against it, never by the benchmark.
        ("claim", Value::Null),
        ("seed", Value::Num(suite.seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("rounds", Value::Num(rounds as f64)),
        ("smoke", Value::Bool(smoke)),
        // The bounds these numbers were taken under, so a later change
        // to `BENCHMARK.json` cannot silently re-judge them.
        (
            "bounds",
            Value::obj(
                END_TO_END
                    .iter()
                    .map(|(m, bound)| (m.name, Value::Num(*bound))),
            ),
        ),
        (
            "host",
            timed[0][0].get("host").cloned().unwrap_or(Value::Null),
        ),
        ("workloads", Value::obj(workloads)),
    ]);
    write_file(&out, &result.pretty())?;
    eprintln!("wrote {}", out.display());
    Ok(all_correct)
}
