//! `abc-analysis` — the in-repo static analysis suite for the ABC-FHE
//! workspace.
//!
//! The hot paths of this reproduction (IFMA NTT, Montgomery dyadic
//! engine, AVX-512 SpecialFft) rest on ~80 `unsafe` occurrences, a
//! pile of `#[target_feature]` kernels behind a handful of runtime
//! detection sites, and lazy-reduction domain contracts that are
//! invisible to the type system. Three real bugs shipped through hand
//! review before this tool existed:
//!
//! * **PR 2** — a Barrett reduction quotient bound was off by one
//!   domain: the precomputed quotient was only valid for inputs below
//!   `2q`, but a caller fed it values up to `4q`. A machine-checked
//!   "state the interval in the doc" rule makes that mismatch visible
//!   at review time (rule `lazy-domain-doc`).
//! * **PR 5** — `scalar_mul_assign` overflowed `u64` because a value
//!   documented nowhere as "lazy, in `[0, 4q)`" was multiplied as if
//!   canonical (`lazy-domain-doc` again).
//! * **PR 8** — a lazy multiply accepted operands up to `3q` while its
//!   SAFETY comment (had it existed) would have promised `2q`; the
//!   fused kernel produced wrong residues one lane in ~2^40
//!   (`unsafe-safety-comment` forces the promise to be written down
//!   where the review can see it).
//!
//! Because the build container has no registry access, the tool is
//! dependency-free: a hand-rolled lexer ([`lexer`]) feeds a
//! structural scanner ([`parse`]) feeds nine rules ([`rules`]).
//!
//! # Rules
//!
//! | id | contract |
//! |----|----------|
//! | `unsafe-safety-comment` | every `unsafe` block / fn / impl / trait carries a `// SAFETY:` comment (or `# Safety` doc section for `unsafe fn`) |
//! | `simd-gating` | `_mm*`-using fns are `unsafe` + `#[target_feature]` (or `#[inline(always)]` feature-inheriting helpers); safe dispatchers to such kernels must consult `CpuCaps`, whose `detect` is the only fn that may invoke `is_x86_feature_detected!` |
//! | `lazy-domain-doc` | fns whose name/params mention `lazy`/`2q`/`4q` state an interval bound (`[0, 2q)`-style) in their docs |
//! | `env-access` | no direct `env::var`/`set_var`/`remove_var` on `ABC_FHE_*` outside `EnvGuard` and allowlisted hardened parsers |
//! | `gateway-panic-free` | no `unwrap`/`expect`/`panic!`-family in `crates/gateway` non-test request-path code |
//! | `thread-site` | no `thread::spawn`/`Builder` in the library crates (`math`, `float`, `prng`, `transform`, `ckks`) outside tests, except the fan-out's one worker-start function (`start_worker` in `crates/transform/src/fanout.rs`), and no `thread::scope` in them at all |
//! | `lock-site` | no `Mutex`/`RwLock` in the library crates outside tests, except the limb pool (`crates/transform/src/pool.rs`) and the test-only environment lock (`crates/math/src/envtest.rs`) |
//! | `model-boundary` | no `abc_hw` / `abc_sim` path in the product crates (`math`, `float`, `prng`, `transform`, `ckks`, `gateway`) outside tests: the models depend on the client path, not the reverse |
//! | `pub-reach` | every `pub` fn / const / static in a product crate's `src/` outside tests is named (as a code identifier, not in a comment or doctest) in some walked file outside that `src/` — another crate, the crate's own `tests/`, the root `src/` / `tests/` / `examples/`, `benchmark/src` — so that rustc's `dead_code` lint sees the rest; by name, so a floor and not a proof |
//!
//! Suppressions live in `analysis-allow.toml` at the workspace root;
//! every entry requires a justification string, and entries that match
//! nothing fail the run (see [`allowlist`]).
//!
//! # Running
//!
//! ```text
//! cargo run -p abc-analysis -- check            # human diagnostics, exit 1 on findings
//! cargo run -p abc-analysis -- check --json report.json
//! cargo run -p abc-analysis -- fix              # print allowlist entries for the current delta
//! ```

pub mod allowlist;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod walk;

use std::path::Path;

pub use report::{Allowed, Finding, Surface};

/// Analyzes in-memory `(path, content)` pairs — the fixture-friendly
/// entry point. Paths are workspace-relative with forward slashes.
pub fn analyze(files: &[(String, String)]) -> Vec<Finding> {
    rules::run(&parse_all(files))
}

fn parse_all(files: &[(String, String)]) -> Vec<parse::File> {
    files
        .iter()
        .map(|(p, c)| parse::File::parse(p, c))
        .collect()
}

/// Outcome of a full `check` run.
pub struct Outcome {
    /// Findings not covered by the allowlist (these fail the run).
    pub reported: Vec<Finding>,
    /// Findings suppressed by allowlist entries.
    pub allowed: Vec<Allowed>,
    /// Descriptions of allowlist entries that matched nothing (these
    /// also fail the run).
    pub unused_allow: Vec<String>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Per product crate, the items rule `pub-reach` examines and how
    /// many of them are allowlisted.
    pub surface: Vec<Surface>,
}

impl Outcome {
    /// Whether the run is clean (nothing reported, no stale entries).
    pub fn is_clean(&self) -> bool {
        self.reported.is_empty() && self.unused_allow.is_empty()
    }
}

/// Walks `root`, runs all rules, and applies the allowlist at
/// `allow_path` (a missing allowlist file means "no suppressions").
pub fn run_check(root: &Path, allow_path: &Path) -> Result<Outcome, String> {
    let files = walk::collect(root).map_err(|e| format!("walking {}: {}", root.display(), e))?;
    let files_scanned = files.len();
    let parsed = parse_all(&files);
    let findings = rules::run(&parsed);
    let entries = if allow_path.exists() {
        let text = std::fs::read_to_string(allow_path)
            .map_err(|e| format!("reading {}: {}", allow_path.display(), e))?;
        allowlist::parse(&text).map_err(|errs| {
            format!(
                "allowlist {}:\n  {}",
                allow_path.display(),
                errs.join("\n  ")
            )
        })?
    } else {
        Vec::new()
    };
    let (reported, allowed, unused_allow) = allowlist::apply(findings, &entries);
    let surface = rules::surface(&parsed, &allowed);
    Ok(Outcome {
        reported,
        allowed,
        unused_allow,
        files_scanned,
        surface,
    })
}
