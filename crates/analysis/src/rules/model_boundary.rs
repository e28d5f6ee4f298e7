//! Rule 8 — `model-boundary`.
//!
//! The product crates (`math`, `float`, `prng`, `transform`, `ckks`,
//! `gateway`) are what a client runs; the model crates (`abc-hw`,
//! `abc-sim`) describe the paper's accelerator and depend on the product
//! crates, never the reverse. The crate graph enforces that today — no
//! product manifest lists a model crate — and this rule keeps it true
//! past the next manifest edit: in a product crate's `src/`, outside
//! `#[cfg(test)]`, a code identifier `abc_hw` or `abc_sim` (a path, a
//! `use`, an `extern crate`) is a finding. Comments may name them.

use crate::parse::File;
use crate::report::Finding;

use super::{finding, in_product_crate, Ctx};

pub(super) const RULE: &str = "model-boundary";

/// The model crates, by their Rust names.
const MODEL_CRATES: [&str; 2] = ["abc_hw", "abc_sim"];

pub(super) fn check(_ctx: &Ctx, f: &File, out: &mut Vec<Finding>) {
    if !in_product_crate(&f.path) {
        return;
    }
    for tok in &f.toks {
        let Some(model) = MODEL_CRATES.iter().find(|m| tok.is_ident(m)) else {
            continue;
        };
        if f.line_in_test(tok.line) {
            continue;
        }
        out.push(finding(
            RULE,
            f,
            tok.line,
            tok.col,
            format!(
                "`{model}` in a product crate: the hardware and simulator models depend on \
                 the client path, not the reverse — move the shared item into a product \
                 crate, or the use into `abc-hw`"
            ),
        ));
    }
}
