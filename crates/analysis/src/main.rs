//! CLI for `abc-analysis`.
//!
//! ```text
//! cargo run -p abc-analysis -- check [--root DIR] [--allow FILE] [--json FILE]
//! cargo run -p abc-analysis -- fix   [--root DIR] [--allow FILE]
//! ```
//!
//! `check` exits 0 when the workspace is clean under the committed
//! allowlist, 1 when there are findings or stale allowlist entries,
//! 2 on usage or I/O errors. `fix` prints ready-to-paste `[[allow]]`
//! entries for the current delta (with TODO justifications that the
//! committer must fill in — empty justifications are rejected).

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: abc-analysis <check|fix> [--root DIR] [--allow FILE] [--json FILE]\n\
         \n\
         check   run all rules; exit 1 on non-allowlisted findings or stale allow entries\n\
         fix     print allowlist entries covering the current findings delta"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    // Defaults: workspace root is two levels above this crate's
    // manifest; allowlist sits next to the root Cargo.toml.
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let mut allow: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<PathBuf> {
            *i += 1;
            args.get(*i).map(PathBuf::from)
        };
        match args[i].as_str() {
            "--root" => match take(&mut i) {
                Some(p) => root = p,
                None => return usage(),
            },
            "--allow" => match take(&mut i) {
                Some(p) => allow = Some(p),
                None => return usage(),
            },
            "--json" => match take(&mut i) {
                Some(p) => json = Some(p),
                None => return usage(),
            },
            _ => return usage(),
        }
        i += 1;
    }
    let allow = allow.unwrap_or_else(|| root.join("analysis-allow.toml"));

    let outcome = match abc_analysis::run_check(&root, &allow) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("abc-analysis: {}", e);
            return ExitCode::from(2);
        }
    };

    match cmd.as_str() {
        "check" => {
            for f in &outcome.reported {
                println!("{}", f.human());
            }
            for u in &outcome.unused_allow {
                println!("stale allowlist entry (matched nothing): {}", u);
            }
            if let Some(path) = json {
                let doc = abc_analysis::report::to_json(
                    &root.to_string_lossy(),
                    outcome.files_scanned,
                    &outcome.reported,
                    &outcome.allowed,
                    &outcome.unused_allow,
                    &outcome.surface,
                );
                if let Err(e) = std::fs::write(&path, doc) {
                    eprintln!("abc-analysis: writing {}: {}", path.display(), e);
                    return ExitCode::from(2);
                }
            }
            println!(
                "abc-analysis: {} files scanned, {} finding(s) reported, {} allowlisted, {} stale allow entr(ies)",
                outcome.files_scanned,
                outcome.reported.len(),
                outcome.allowed.len(),
                outcome.unused_allow.len()
            );
            for c in &outcome.surface {
                println!(
                    "abc-analysis: pub-reach surface of {}: {} item(s) in scope, {} allowlisted",
                    c.krate, c.in_scope, c.allowlisted
                );
            }
            if outcome.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        "fix" => {
            if outcome.reported.is_empty() {
                println!("# no findings to allowlist");
            }
            for f in &outcome.reported {
                println!("[[allow]]");
                println!("rule = \"{}\"", f.rule);
                println!("path = \"{}\"", f.path);
                if !f.excerpt.is_empty() {
                    println!(
                        "contains = \"{}\"",
                        f.excerpt.replace('\\', "\\\\").replace('"', "\\\"")
                    );
                }
                println!(
                    "justification = \"TODO: justify or fix ({}:{})\"",
                    f.path, f.line
                );
                println!();
            }
            if !outcome.unused_allow.is_empty() {
                println!("# stale entries to delete:");
                for u in &outcome.unused_allow {
                    println!("#   {}", u);
                }
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
