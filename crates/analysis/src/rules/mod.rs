//! The rule engine: shared context plus the nine shipped rules.
//!
//! Each rule is a function `fn(&Ctx, &File, &mut Vec<Finding>)`; rules
//! never read the filesystem — everything they need (token streams,
//! function items, the workspace-wide const-string map, the
//! `#[target_feature]` registry, the identifier reach map) is
//! precomputed in [`Ctx`], which makes the engine trivially testable
//! against synthetic fixtures.

use std::collections::{HashMap, HashSet};

use crate::lexer::TokKind;
use crate::parse::File;
use crate::report::{Allowed, Finding, Surface};

mod domain_doc;
mod env_access;
mod lock_site;
mod model_boundary;
mod panic_path;
mod pub_reach;
mod safety;
mod simd_gating;
mod thread_site;

/// Workspace-wide facts shared by all rules.
pub struct Ctx {
    /// `const NAME: &str = "VALUE"` bindings across the workspace
    /// (used to resolve env-var names passed by identifier).
    pub str_consts: HashMap<String, String>,
    /// Names of functions carrying `#[target_feature]`, per file path.
    pub target_feature_fns: HashMap<String, HashSet<String>>,
    /// For every identifier token in the walked files, a mask of where
    /// it appears: bit `i` for the library source of `PRODUCT_CRATES[i]`,
    /// the next bit for every other file (rule `pub-reach`).
    pub reach: HashMap<String, u8>,
}

impl Ctx {
    /// Builds the shared context from all parsed files.
    pub fn build(files: &[File]) -> Ctx {
        let mut str_consts = HashMap::new();
        let mut target_feature_fns: HashMap<String, HashSet<String>> = HashMap::new();
        let mut reach: HashMap<String, u8> = HashMap::new();
        for f in files {
            let bit = pub_reach::bit(&f.path);
            for tok in f.toks.iter().filter(|t| t.kind == TokKind::Ident) {
                *reach.entry(tok.text.clone()).or_default() |= bit;
            }
            for (name, value) in &f.consts {
                str_consts.insert(name.clone(), value.clone());
            }
            for item in &f.fns {
                if item.attrs.iter().any(|a| a.text.contains("target_feature")) {
                    target_feature_fns
                        .entry(f.path.clone())
                        .or_default()
                        .insert(item.name.clone());
                }
            }
        }
        Ctx {
            str_consts,
            target_feature_fns,
            reach,
        }
    }
}

/// Runs every rule over every file; findings come back sorted by
/// (path, line, col, rule) for deterministic output.
pub fn run(files: &[File]) -> Vec<Finding> {
    let ctx = Ctx::build(files);
    let mut findings = Vec::new();
    for f in files {
        safety::check(&ctx, f, &mut findings);
        simd_gating::check(&ctx, f, &mut findings);
        domain_doc::check(&ctx, f, &mut findings);
        env_access::check(&ctx, f, &mut findings);
        panic_path::check(&ctx, f, &mut findings);
        thread_site::check(&ctx, f, &mut findings);
        lock_site::check(&ctx, f, &mut findings);
        model_boundary::check(&ctx, f, &mut findings);
        pub_reach::check(&ctx, f, &mut findings);
    }
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    findings
}

/// Per product crate, how many items rule `pub-reach` examines and how
/// many of its findings `allowed` holds.
pub fn surface(files: &[File], allowed: &[Allowed]) -> Vec<Surface> {
    let mut in_scope = [0usize; PRODUCT_CRATES.len()];
    for (krate, items) in files.iter().filter_map(pub_reach::in_scope) {
        in_scope[krate] += items.count();
    }
    PRODUCT_CRATES
        .iter()
        .zip(in_scope)
        .enumerate()
        .map(|(i, (&krate, in_scope))| Surface {
            krate,
            in_scope,
            allowlisted: allowed
                .iter()
                .filter(|a| {
                    a.finding.rule == pub_reach::RULE && pub_reach::home(&a.finding.path) == Some(i)
                })
                .count(),
        })
        .collect()
}

/// The library crates: the client datapath, one message at a time.
const LIBRARY_CRATES: [&str; 5] = ["math", "float", "prng", "transform", "ckks"];

/// The product crates: the library crates and the gateway.
const PRODUCT_CRATES: [&str; 6] = ["math", "float", "prng", "transform", "ckks", "gateway"];

/// Whether `path` is source (not tests) of a library crate.
pub(crate) fn in_library_crate(path: &str) -> bool {
    LIBRARY_CRATES
        .iter()
        .any(|krate| path.contains(&format!("crates/{krate}/src/")))
}

/// Whether `path` is source (not tests) of a product crate: a library
/// crate or the gateway.
pub(crate) fn in_product_crate(path: &str) -> bool {
    in_library_crate(path) || path.contains("crates/gateway/src/")
}

/// Helper: constructs a finding anchored at token position.
pub(crate) fn finding(
    rule: &'static str,
    f: &File,
    line: u32,
    col: u32,
    message: String,
) -> Finding {
    Finding {
        rule,
        path: f.path.clone(),
        line,
        col,
        message,
        excerpt: f.line_text(line).to_string(),
    }
}
