//! Rule 7 — `lock-site`.
//!
//! A client operation recycles memory through one pool, the process-wide
//! limb pool of `abc_transform::pool`, and its lock is the one shared
//! state the library must recover from poisoning. A second lock in a
//! library crate is a second pool, or a second shared state every
//! caller has to survive a panic under. In the library crates (`math`,
//! `float`, `prng`, `transform`, `ckks`), outside `#[cfg(test)]`,
//! `Mutex` and `RwLock` are therefore a finding anywhere but the limb
//! pool and the test-only environment lock of `abc_math::envtest`.

use crate::parse::File;
use crate::report::Finding;

use super::{finding, in_library_crate, Ctx};

pub(super) const RULE: &str = "lock-site";

/// The files allowed to hold a lock.
const LOCK_FILES: [&str; 2] = ["crates/transform/src/pool.rs", "crates/math/src/envtest.rs"];

pub(super) fn check(_ctx: &Ctx, f: &File, out: &mut Vec<Finding>) {
    if !in_library_crate(&f.path) || LOCK_FILES.iter().any(|p| f.path.ends_with(p)) {
        return;
    }
    for tok in &f.toks {
        if !(tok.is_ident("Mutex") || tok.is_ident("RwLock")) || f.line_in_test(tok.line) {
            continue;
        }
        out.push(finding(
            RULE,
            f,
            tok.line,
            tok.col,
            format!(
                "`{}` in a library crate: the limb pool (`{}`) is the one lock a client \
                 operation takes — recycle memory through it instead of a second pool",
                tok.text, LOCK_FILES[0]
            ),
        ));
    }
}
