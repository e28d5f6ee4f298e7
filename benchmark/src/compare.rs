//! `abc-benchmark compare base.json new.json`: one verdict per
//! (workload, end-to-end metric) against the bounds in
//! `BENCHMARK.json`. No combined score.

use crate::json::Value;
use crate::spec::Better;
use crate::stats::{median, spread};
use crate::suite::read_json;
use crate::Flags;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The rounds of one side differ by more than the bound, and the two
    /// sides overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `bound` is the share of the base median by which the metric may
/// worsen.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (b, n) = (median(base), median(new));
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (n - b) / b.abs();
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let every_new_beats_every_base = new.iter().all(|&x| base.iter().all(|&y| beats(x, y)));
    if worse_by > bound {
        Verdict::Worse
    } else if spread(base).max(spread(new)) > bound && !every_new_beats_every_base {
        Verdict::Unresolved
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn rounds(result: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("rounds")?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn failed(result: &Value, workload: &str) -> f64 {
    result
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("failed"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::INFINITY)
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &[])?;
    flags.only(&["spec"])?;
    let [base_path, new_path] = flags.positional.as_slice() else {
        return Err("usage: compare <base.json> <new.json> [--spec BENCHMARK.json]".into());
    };
    let base = read_json(Path::new(base_path))?;
    let new = read_json(Path::new(new_path))?;
    let spec = read_json(Path::new(flags.get("spec").unwrap_or("BENCHMARK.json")))?;
    let list = |key: &str| {
        spec.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("spec has no {key}"))
    };

    let mut ok = true;
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base"
    );
    for w in list("workloads")? {
        let workload = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload without a name")?;
        for m in list("end_to_end")? {
            let field = |k: &str| m.get(k).and_then(Value::as_str);
            let (Some(metric), Some(better), Some(bound)) = (
                field("name"),
                field("better").and_then(Better::parse),
                m.get("bound").and_then(Value::as_f64),
            ) else {
                return Err("spec: an end_to_end metric lacks name, better or bound".into());
            };
            let (Some(b), Some(n)) = (
                rounds(&base, workload, metric),
                rounds(&new, workload, metric),
            ) else {
                return Err(format!("{workload} {metric}: missing from a result file"));
            };
            let v = verdict(&b, &n, better, bound);
            ok &= v != Verdict::Worse;
            println!(
                "{workload:<20} {metric:<18} {:>14.6} {:>14.6} {:>7.3}  {}",
                median(&b),
                median(&n),
                median(&n) / median(&b),
                v.as_str()
            );
        }
        let (fb, fn_) = (failed(&base, workload), failed(&new, workload));
        if fn_ > fb {
            println!("{workload:<20} failed ops rose from {fb} to {fn_}");
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(&base, &[100.5, 102.0, 100.0], Lower, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0], Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &[80.0, 81.0, 79.0], Lower, 0.10),
            Verdict::Better
        );
        // Direction flips for throughput-like metrics.
        assert_eq!(
            verdict(&base, &[80.0, 81.0, 79.0], Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0], Higher, 0.10),
            Verdict::Better
        );
        // One side's rounds disagree by more than the bound and overlap
        // the other's: the runs cannot tell.
        assert_eq!(
            verdict(&base, &[90.0, 100.0, 112.0], Lower, 0.10),
            Verdict::Unresolved
        );
        // A noisy side still resolves when every run beats every run.
        assert_eq!(
            verdict(&base, &[60.0, 70.0, 80.0], Lower, 0.10),
            Verdict::Better
        );
        // Counts that must repeat: any rise is worse.
        assert_eq!(verdict(&[14.0; 3], &[14.0; 3], Lower, 0.0), Verdict::Same);
        assert_eq!(verdict(&[14.0; 3], &[15.0; 3], Lower, 0.0), Verdict::Worse);
    }
}
