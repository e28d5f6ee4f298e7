//! Rule 2 — `simd-gating`.
//!
//! Four checks keep every AVX-512 kernel behind runtime detection, and
//! the IFMA datapath in one module:
//!
//! 1. A function whose body uses `_mm*` intrinsics must be an
//!    `unsafe fn` carrying either `#[target_feature(...)]` or
//!    `#[inline(always)]`. The second form exists because rustc
//!    rejects `#[inline(always)]` + `#[target_feature]` on one item:
//!    small shared helpers (`mul_shoup52_x8`, `csub_x8`, ...) are
//!    `#[inline(always)] unsafe fn` and inherit the caller's features
//!    after inlining into a `#[target_feature]` kernel.
//! 2. A *safe* function that references a `#[target_feature]` function
//!    defined in the same file is a dispatch entry point: its body must
//!    consult the workspace's one capability registry, `CpuCaps`
//!    (`assert!(CpuCaps::detect().ifma(), …)`). This is what keeps an
//!    intrinsic kernel from becoming reachable ungated when someone
//!    adds a new wrapper and forgets the assert.
//! 3. `is_x86_feature_detected!` itself appears in one function only —
//!    `CpuCaps::detect` in `crates/math/src/kernel.rs` — so "which CPU
//!    features did this process find" has one answer and one place to
//!    read it from.
//! 4. In a product crate's `src/`, a `_mm512_madd52*` intrinsic or an
//!    `avx512ifma` target feature appears only under
//!    `crates/math/src/simd` — the one home of the IFMA datapath, whose
//!    Shoup multiply, conditional subtract and loaders the NTT passes
//!    and the element-wise kernels share. A second copy elsewhere is how
//!    the datapath split across crates before.

use crate::parse::File;
use crate::report::Finding;

use super::{finding, in_product_crate, Ctx};

pub(super) const RULE: &str = "simd-gating";

/// The capability registry: the type dispatchers consult, and the one
/// function (by file and name) allowed to probe the CPU.
const REGISTRY_TYPE: &str = "CpuCaps";
const REGISTRY_FILE: &str = "crates/math/src/kernel.rs";
const REGISTRY_FN: &str = "detect";
const DETECT_MACRO: &str = "is_x86_feature_detected";

/// The IFMA datapath's home (a path prefix: `simd.rs` and `simd/`), its
/// intrinsics' prefix and its target feature.
const IFMA_HOME: &str = "crates/math/src/simd";
const IFMA_INTRINSIC: &str = "_mm512_madd52";
const IFMA_FEATURE: &str = "avx512ifma";

/// Idents treated as intrinsic uses.
fn is_intrinsic(name: &str) -> bool {
    name.starts_with("_mm512_") || name.starts_with("_mm256_") || name.starts_with("_mm_")
}

pub(super) fn check(ctx: &Ctx, f: &File, out: &mut Vec<Finding>) {
    check_ifma_home(f, out);
    let tf_here = ctx.target_feature_fns.get(&f.path);
    for item in &f.fns {
        let Some((b0, b1)) = item.body else {
            continue;
        };
        let body = &f.toks[b0..=b1];
        let is_registry = f.path.ends_with(REGISTRY_FILE) && item.name == REGISTRY_FN;
        if !is_registry && body.iter().any(|t| t.is_ident(DETECT_MACRO)) {
            out.push(finding(
                RULE,
                f,
                item.line,
                1,
                format!(
                    "fn `{}` probes the CPU with `{DETECT_MACRO}!`; read \
                     `{REGISTRY_TYPE}::{REGISTRY_FN}()` instead (the one detection site, \
                     `{REGISTRY_FILE}`)",
                    item.name
                ),
            ));
        }
        let uses_intrinsics = body
            .iter()
            .any(|t| !t.is_comment() && is_intrinsic(&t.text));
        if uses_intrinsics {
            let has_tf = item.attrs.iter().any(|a| a.text.contains("target_feature"));
            let has_inline_always = item
                .attrs
                .iter()
                .any(|a| a.text.starts_with("inline") && a.text.contains("always"));
            if !item.is_unsafe {
                out.push(finding(
                    RULE,
                    f,
                    item.line,
                    1,
                    format!(
                        "fn `{}` uses `_mm*` intrinsics but is not an `unsafe fn`",
                        item.name
                    ),
                ));
            } else if !has_tf && !has_inline_always {
                out.push(finding(
                    RULE,
                    f,
                    item.line,
                    1,
                    format!(
                        "fn `{}` uses `_mm*` intrinsics without `#[target_feature]` \
                         (or `#[inline(always)]` for feature-inheriting helpers)",
                        item.name
                    ),
                ));
            }
        }
        // Dispatch-entry cross-check: safe fn referencing a
        // target_feature fn from this file.
        if item.is_unsafe {
            continue;
        }
        let Some(tf) = tf_here else { continue };
        let references_tf = body.iter().any(|t| {
            !t.is_comment()
                && tf.contains(&t.text)
                // Not its own recursive mention.
                && t.text != item.name
        });
        if !references_tf {
            continue;
        }
        let gated = body.iter().any(|t| t.is_ident(REGISTRY_TYPE));
        if !gated {
            out.push(finding(
                RULE,
                f,
                item.line,
                1,
                format!(
                    "safe fn `{}` dispatches to a `#[target_feature]` kernel without a \
                     runtime-detection check (`{REGISTRY_TYPE}::{REGISTRY_FN}()`)",
                    item.name
                ),
            ));
        }
    }
}

/// Check 4: no IFMA intrinsic or target feature outside the datapath's
/// home, in a product crate's source.
fn check_ifma_home(f: &File, out: &mut Vec<Finding>) {
    if !in_product_crate(&f.path) || f.path.contains(IFMA_HOME) {
        return;
    }
    let mut lines: Vec<(u32, String)> = f
        .toks
        .iter()
        .filter(|t| !t.is_comment() && t.text.starts_with(IFMA_INTRINSIC))
        .map(|t| (t.line, format!("intrinsic `{}`", t.text)))
        .collect();
    for item in &f.fns {
        for attr in &item.attrs {
            if attr.text.contains("target_feature") && attr.text.contains(IFMA_FEATURE) {
                lines.push((
                    attr.line,
                    format!("`{IFMA_FEATURE}` target feature on fn `{}`", item.name),
                ));
            }
        }
    }
    for (line, what) in lines {
        out.push(finding(
            RULE,
            f,
            line,
            1,
            format!(
                "{what} outside `{IFMA_HOME}`: the IFMA datapath has one home — build the \
                 kernel there on its shared helpers and call it through a safe entry point"
            ),
        ));
    }
}
