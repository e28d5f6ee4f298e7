//! The reference benchmark of the ABC-FHE client
//! pipeline and gateway. See `benchmark/README.md`.
//!
//! ```text
//! abc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, JSON on the last line
//! abc-benchmark run [--seed n] [--smoke] [--out file]
//! abc-benchmark compare <base.json> <new.json> [--spec BENCHMARK.json]
//! abc-benchmark spec                                                      prints BENCHMARK.json
//! ```

pub mod alloc;
pub mod client;
pub mod compare;
pub mod host;
pub mod hostref;
pub mod inputs;
pub mod json;
pub mod measure;
pub mod probes;
pub mod procfs;
pub mod service;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod traced;

use json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where a run leaves its result and trace files, relative to the
/// directory it is started in (the repository root).
pub const DEFAULT_OUT_DIR: &str = "benchmark/out";

/// `--key value` pairs and bare `--switch`es, in any order.
pub struct Flags {
    pairs: Vec<(String, Option<String>)>,
    pub positional: Vec<String>,
}

impl Flags {
    pub fn parse(args: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                None => flags.positional.push(arg.clone()),
                Some(key) if switches.contains(&key) => flags.pairs.push((key.to_owned(), None)),
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    flags.pairs.push((key.to_owned(), Some(value.clone())));
                }
            }
        }
        Ok(flags)
    }

    pub fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")))
            .transpose()
    }

    /// Rejects anything but `known` keys, so a typo is not ignored.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One run of one workload, as the pipeline invokes it.
fn single(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    flags.only(&["workload", "seed", "seconds", "trace", "smoke", "out-dir"])?;
    if !flags.positional.is_empty() {
        return Err(format!("unexpected argument {:?}", flags.positional[0]));
    }
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds: f64 = flags.parsed("seconds")?.unwrap_or(spec::RUN_SECONDS as f64);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let args = measure::Args {
        workload,
        seed: flags.parsed("seed")?.unwrap_or(2026),
        seconds,
        trace,
        smoke: flags.has("smoke"),
    };
    let out_dir = PathBuf::from(flags.get("out-dir").unwrap_or(DEFAULT_OUT_DIR));

    let stripped = host::strip_library_overrides();
    let report = measure::run(&args)?;

    let mut metrics = Vec::new();
    let mut finite = true;
    for (name, value) in &report.metrics {
        let unit = spec::unit(name).expect("metric is in the spec");
        println!("{} {name} {value} {unit}", workload.name);
        finite &= value.is_finite();
        metrics.push((
            *name,
            Value::obj([("value", Value::Num(*value)), ("unit", Value::str(unit))]),
        ));
    }
    let listed = if trace {
        spec::PER_LAYER.len()
    } else {
        spec::END_TO_END.len()
    };
    assert_eq!(
        metrics.len(),
        listed,
        "every metric of the spec is reported once"
    );
    let correct = report.failed == 0 && finite;
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ]);

    let mut file = vec![
        ("schema".to_owned(), Value::Num(1.0)),
        ("workload".to_owned(), Value::str(workload.name)),
        ("seed".to_owned(), Value::Num(args.seed as f64)),
        ("seconds".to_owned(), Value::Num(seconds)),
        ("trace".to_owned(), Value::Bool(trace)),
        ("smoke".to_owned(), Value::Bool(args.smoke)),
        ("host".to_owned(), host::header(&stripped)),
    ];
    file.extend(report.detail.into_iter().map(|(k, v)| (k.to_owned(), v)));
    file.extend(result.as_obj().expect("object").iter().cloned());
    let stem = format!("{}.trace{}", workload.name, trace as u8);
    write_file(
        &out_dir.join(format!("{stem}.json")),
        &Value::Obj(file).pretty(),
    )?;
    if trace {
        let spans = Value::obj([
            ("workload", Value::str(workload.name)),
            ("spans", report.tracer.to_json()),
        ]);
        write_file(
            &out_dir.join(format!("trace-{}.json", workload.name)),
            &spans.compact(),
        )?;
    }
    println!("{}", result.compact());
    Ok(correct)
}

/// The command line: exit code 0 when every output was correct, 1 when
/// not (or `compare` found a regression), 2 when the run could not be
/// made.
pub fn cli(args: &[String]) -> ExitCode {
    let outcome = match args.first().map(String::as_str) {
        Some("run") => suite::run(&args[1..]),
        Some("compare") => compare::run(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        _ => single(args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("abc-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
