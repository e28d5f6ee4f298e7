//! Rule 9 — `pub-reach`.
//!
//! rustc's `dead_code` lint cannot see an unused item while the item is
//! `pub`: the compiler has to assume another crate calls it. The public
//! surface of a product crate is therefore kept to what something
//! outside the crate names, so that the compiler finds the rest. In a
//! product crate's `src/` (its `src/bin/` targets are outside it),
//! outside `#[cfg(test)]`, a `pub fn` (also `const` / `unsafe`), `pub
//! const` or `pub static` is a finding when its name appears as an
//! identifier token in no walked `.rs` file outside that `src/`: not in
//! another crate, the crate's own `tests/`, the root `src/`, `tests/` and
//! `examples/`, nor `benchmark/src`. Comments and doctests are not uses.
//!
//! Matching is by name, not by path, so the rule is a floor and not a
//! proof: an item named `new` is reached by every `new` in the
//! workspace. Types, traits and fields are out of scope (a type named in
//! a reached signature cannot be narrowed). Deliberate user API that
//! nothing in the workspace calls yet is allowlisted, per module or per
//! line, with a reason.

use crate::parse::{File, PubItem};
use crate::report::Finding;

use super::{finding, Ctx, PRODUCT_CRATES};

pub(super) const RULE: &str = "pub-reach";

/// Bit of the reach mask for files outside every product crate's `src/`.
const OUTSIDE: u8 = 1 << PRODUCT_CRATES.len();

/// The index in `PRODUCT_CRATES` of the crate whose library source holds
/// `path` (`crates/<name>/src/`, not `src/bin/`).
pub(super) fn home(path: &str) -> Option<usize> {
    PRODUCT_CRATES.iter().position(|krate| {
        let src = format!("crates/{krate}/src/");
        path.contains(&src) && !path.contains(&format!("{src}bin/"))
    })
}

/// The reach mask a file's identifiers contribute: its crate's bit, or
/// `OUTSIDE`.
pub(super) fn bit(path: &str) -> u8 {
    home(path).map_or(OUTSIDE, |i| 1 << i)
}

/// The items of `f` the rule examines, with their crate's index.
pub(crate) fn in_scope(f: &File) -> Option<(usize, impl Iterator<Item = &PubItem>)> {
    let krate = home(&f.path)?;
    Some((krate, f.pub_items.iter().filter(|item| !item.in_test)))
}

pub(super) fn check(ctx: &Ctx, f: &File, out: &mut Vec<Finding>) {
    let Some((krate, items)) = in_scope(f) else {
        return;
    };
    let own = 1u8 << krate;
    for item in items {
        let reach = ctx.reach.get(&item.name).copied().unwrap_or(0);
        if reach & !own != 0 {
            continue;
        }
        out.push(finding(
            RULE,
            f,
            item.line,
            item.col,
            format!(
                "`pub {} {}` is named nowhere outside `crates/{}/src/`: make it `pub(crate)` \
                 or private (rustc then reports it if it is dead), or allowlist it as API \
                 with a reason",
                item.kind.keyword(),
                item.name,
                PRODUCT_CRATES[krate]
            ),
        ));
    }
}
