//! Rule 6 — `thread-site`.
//!
//! The library streams one message at a time and all of its parallelism
//! is the per-limb fan-out of `RnsNttEngine`: one function decides
//! serial vs parallel and starts the threads. Every second site — a
//! batch path that spawns a producer, an engine with a thread count of
//! its own — is a second policy to tune and oversubscribes the first.
//! In the library crates (`math`, `float`, `prng`, `transform`, `ckks`),
//! outside `#[cfg(test)]`, `thread::scope`, `thread::spawn` and
//! `thread::Builder` are therefore a finding anywhere but the registered
//! fan-out function. The gateway's worker pool and queue parallelise
//! across *requests* and are out of scope.

use crate::parse::File;
use crate::report::Finding;

use super::{finding, in_library_crate, Ctx};

pub(super) const RULE: &str = "thread-site";

/// The one function (by file and name) allowed to start threads.
const FAN_OUT_FILE: &str = "crates/transform/src/rns_ntt.rs";
const FAN_OUT_FN: &str = "fan_out";

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
            || f.line_in_test(toks[a].line)
            || fan_out_body.is_some_and(|(b0, b1)| (b0..=b1).contains(&a))
        {
            continue;
        }
        out.push(finding(
            RULE,
            f,
            toks[a].line,
            toks[a].col,
            format!(
                "`thread::{what}` in a library crate: the limb fan-out \
                 (`{FAN_OUT_FN}` in `{FAN_OUT_FILE}`) is the one place that starts threads — \
                 route per-limb work through it, and leave parallelism across messages to \
                 the caller"
            ),
        ));
    }
}
