//! Rule 10 — `constant-time`.
//!
//! The samplers draw secret coefficients (the errors, the ephemeral
//! ternary), and the functions that turn keystream into such a
//! coefficient must not branch, search or leave early on it: the time
//! and the load addresses would then follow the secret. A function says
//! it keeps to that with a doc-comment line that starts
//! `Constant-time:`, and this rule holds its body to it: none of `if`,
//! `match`, `while`, `loop`, `return`, `?`, `&&`, `||`,
//! `partition_point` or `binary_search` may appear there. A `for` is
//! allowed, as its trip count is a public table's or chunk range's
//! length. By token, so a floor: a call into an unmarked helper is not
//! followed.

use crate::parse::File;
use crate::report::Finding;

use super::{finding, Ctx};

pub(super) const RULE: &str = "constant-time";

/// The doc-comment line prefix that puts a function in scope.
const MARKER: &str = "Constant-time:";

/// Keywords and search calls a marked body may not contain.
const BRANCH_WORDS: [&str; 7] = [
    "if",
    "match",
    "while",
    "loop",
    "return",
    "partition_point",
    "binary_search",
];

pub(super) fn check(_ctx: &Ctx, f: &File, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    for item in &f.fns {
        if !item.doc.lines().any(|l| l.starts_with(MARKER)) {
            continue;
        }
        let Some((b0, b1)) = item.body else { continue };
        for i in b0..=b1 {
            let tok = &toks[i];
            let pair = |c: char| {
                tok.is_punct(c)
                    && toks.get(i + 1).is_some_and(|next| {
                        next.is_punct(c) && next.line == tok.line && next.col == tok.col + 1
                    })
            };
            let what = if BRANCH_WORDS.iter().any(|w| tok.is_ident(w)) {
                tok.text.clone()
            } else if tok.is_punct('?') {
                "?".to_string()
            } else if pair('&') {
                "&&".to_string()
            } else if pair('|') {
                "||".to_string()
            } else {
                continue;
            };
            out.push(finding(
                RULE,
                f,
                tok.line,
                tok.col,
                format!(
                    "`{what}` in fn `{}`, whose doc says `{MARKER}`: compute the result by \
                     arithmetic or masks over the whole input, or drop the claim",
                    item.name
                ),
            ));
        }
    }
}
