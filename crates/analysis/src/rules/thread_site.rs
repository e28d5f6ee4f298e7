//! Rule 6 — `thread-site`.
//!
//! The library streams one message at a time and all of its parallelism
//! is the process-wide fan-out (`abc_transform::fanout`): parked workers,
//! started by one function on first use, that every parallel pass wakes
//! and helps. Every second site — a batch path that spawns a producer, an
//! engine with a thread count of its own, a per-call scope — is a second
//! policy to tune and oversubscribes the first. In the library crates
//! (`math`, `float`, `prng`, `transform`, `ckks`), outside `#[cfg(test)]`,
//! `thread::spawn` and `thread::Builder` are therefore a finding anywhere
//! but the registered worker-start function, and `thread::scope` — a
//! spawn and a join per call, what the parked workers replaced — is a
//! finding everywhere, that function and tests included. The gateway's
//! worker pool and queue parallelise across *requests* and are out of
//! scope.

use crate::parse::File;
use crate::report::Finding;

use super::{finding, in_library_crate, Ctx};

pub(super) const RULE: &str = "thread-site";

/// The one function (by file and name) allowed to start threads: the
/// fan-out's worker start.
const FAN_OUT_FILE: &str = "crates/transform/src/fanout.rs";
const FAN_OUT_FN: &str = "start_worker";

pub(super) fn check(_ctx: &Ctx, f: &File, out: &mut Vec<Finding>) {
    if !in_library_crate(&f.path) {
        return;
    }
    let fan_out_body = f
        .fns
        .iter()
        .find(|item| f.path.ends_with(FAN_OUT_FILE) && item.name == FAN_OUT_FN)
        .and_then(|item| item.body);
    let toks = &f.toks;
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    for w in code.windows(4) {
        let &[a, b, c, d] = w else { continue };
        let what = toks[d].text.as_str();
        if !toks[a].is_ident("thread")
            || !toks[b].is_punct(':')
            || !toks[c].is_punct(':')
            || !matches!(what, "scope" | "spawn" | "Builder")
        {
            continue;
        }
        let exempt = f.line_in_test(toks[a].line)
            || fan_out_body.is_some_and(|(b0, b1)| (b0..=b1).contains(&a));
        if what != "scope" && exempt {
            continue;
        }
        out.push(finding(
            RULE,
            f,
            toks[a].line,
            toks[a].col,
            format!(
                "`thread::{what}` in a library crate: the fan-out's parked workers \
                 (started by `{FAN_OUT_FN}` in `{FAN_OUT_FILE}`) are the only threads it \
                 starts, and no pass spawns per call — route parallel work through \
                 `abc_transform::fanout`, and leave parallelism across messages to the caller"
            ),
        ));
    }
}
