//! The checked-in allowlist (`analysis-allow.toml`).
//!
//! Format — a TOML subset parsed by hand (no registry deps):
//!
//! ```toml
//! [[allow]]
//! rule = "env-access"
//! path = "crates/math/src/dyadic.rs"
//! contains = "env::var"                # optional line-text filter
//! justification = "hardened parser; single read site"
//! ```
//!
//! Policy, enforced here:
//! * `rule`, `path`, and a **non-empty** `justification` are mandatory;
//! * unknown keys are errors (typos must not silently disable entries);
//! * entries that match nothing fail the run (stale suppressions are
//!   themselves findings — the allowlist can only shrink honestly).

use crate::report::{Allowed, Finding};

/// One `[[allow]]` entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Rule id the entry suppresses.
    pub rule: String,
    /// Path suffix the entry applies to.
    pub path: String,
    /// Optional substring of the flagged source line.
    pub contains: Option<String>,
    /// Mandatory human justification.
    pub justification: String,
    /// 1-based line of the `[[allow]]` header (for diagnostics).
    pub line: u32,
}

impl Entry {
    fn matches(&self, f: &Finding) -> bool {
        f.rule == self.rule
            && (f.path == self.path || f.path.ends_with(&format!("/{}", self.path)))
            && self
                .contains
                .as_ref()
                .is_none_or(|c| f.excerpt.contains(c.as_str()))
    }

    /// Short description used in "unused entry" diagnostics.
    pub fn describe(&self) -> String {
        match &self.contains {
            Some(c) => format!(
                "[[allow]] line {}: {} @ {} ~ {:?}",
                self.line, self.rule, self.path, c
            ),
            None => format!(
                "[[allow]] line {}: {} @ {}",
                self.line, self.rule, self.path
            ),
        }
    }
}

/// Parses allowlist text. Returns entries or a list of format errors.
pub fn parse(text: &str) -> Result<Vec<Entry>, Vec<String>> {
    let mut entries: Vec<Entry> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    // Fields of the entry currently being assembled.
    let mut cur: Option<(Entry, bool)> = None; // (entry, saw_justification)
    let finish =
        |cur: &mut Option<(Entry, bool)>, errors: &mut Vec<String>, entries: &mut Vec<Entry>| {
            if let Some((e, saw_just)) = cur.take() {
                if e.rule.is_empty() {
                    errors.push(format!("entry at line {}: missing `rule`", e.line));
                } else if e.path.is_empty() {
                    errors.push(format!("entry at line {}: missing `path`", e.line));
                } else if !saw_just || e.justification.trim().is_empty() {
                    errors.push(format!(
                        "entry at line {}: missing or empty `justification` (mandatory)",
                        e.line
                    ));
                } else {
                    entries.push(e);
                }
            }
        };
    for (i, raw) in text.lines().enumerate() {
        let lineno = (i + 1) as u32;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            finish(&mut cur, &mut errors, &mut entries);
            cur = Some((
                Entry {
                    rule: String::new(),
                    path: String::new(),
                    contains: None,
                    justification: String::new(),
                    line: lineno,
                },
                false,
            ));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            errors.push(format!(
                "line {}: expected `key = \"value\"`, got {:?}",
                lineno, line
            ));
            continue;
        };
        let key = key.trim();
        let Some(value) = parse_string_value(value) else {
            errors.push(format!(
                "line {}: value for `{}` must be a double-quoted string",
                lineno, key
            ));
            continue;
        };
        let Some((e, saw_just)) = cur.as_mut() else {
            errors.push(format!(
                "line {}: `{}` before any [[allow]] header",
                lineno, key
            ));
            continue;
        };
        match key {
            "rule" => e.rule = value,
            "path" => e.path = value.replace('\\', "/"),
            "contains" => e.contains = Some(value),
            "justification" => {
                e.justification = value;
                *saw_just = true;
            }
            other => errors.push(format!(
                "line {}: unknown key `{}` (allowed: rule, path, contains, justification)",
                lineno, other
            )),
        }
    }
    finish(&mut cur, &mut errors, &mut entries);
    if errors.is_empty() {
        Ok(entries)
    } else {
        Err(errors)
    }
}

/// Parses the right-hand side of `key = "value"` (with optional
/// trailing comment). Supports the escapes the workspace needs.
fn parse_string_value(v: &str) -> Option<String> {
    let v = v.trim();
    let rest = v.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

/// Splits findings into (reported, allowed) against the entries, and
/// returns descriptions of entries that matched nothing.
pub fn apply(
    findings: Vec<Finding>,
    entries: &[Entry],
) -> (Vec<Finding>, Vec<Allowed>, Vec<String>) {
    let mut reported = Vec::new();
    let mut allowed = Vec::new();
    let mut used = vec![false; entries.len()];
    for f in findings {
        match entries.iter().position(|e| e.matches(&f)) {
            Some(idx) => {
                used[idx] = true;
                allowed.push(Allowed {
                    finding: f,
                    justification: entries[idx].justification.clone(),
                });
            }
            None => reported.push(f),
        }
    }
    let unused = entries
        .iter()
        .zip(used)
        .filter(|(_, u)| !u)
        .map(|(e, _)| e.describe())
        .collect();
    (reported, allowed, unused)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, excerpt: &str) -> Finding {
        Finding {
            rule,
            path: path.into(),
            line: 1,
            col: 1,
            message: "m".into(),
            excerpt: excerpt.into(),
        }
    }

    #[test]
    fn round_trip() {
        let text = "# header comment\n[[allow]]\nrule = \"env-access\"\npath = \"crates/math/src/kernel.rs\"\ncontains = \"env::var\"\njustification = \"hardened parser\"\n";
        let entries = parse(text).unwrap();
        assert_eq!(entries.len(), 1);
        let hits = vec![finding(
            "env-access",
            "crates/math/src/kernel.rs",
            "let raw = env::var(KERNEL_ENV);",
        )];
        let (reported, allowed, unused) = apply(hits, &entries);
        assert!(reported.is_empty());
        assert_eq!(allowed.len(), 1);
        assert_eq!(allowed[0].justification, "hardened parser");
        assert!(unused.is_empty());
    }

    #[test]
    fn missing_justification_is_an_error() {
        let text = "[[allow]]\nrule = \"env-access\"\npath = \"a.rs\"\n";
        let errs = parse(text).unwrap_err();
        assert!(errs[0].contains("justification"));
    }

    #[test]
    fn empty_justification_is_an_error() {
        let text = "[[allow]]\nrule = \"r\"\npath = \"a.rs\"\njustification = \"  \"\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn unknown_keys_are_errors() {
        let text = "[[allow]]\nrule = \"r\"\npath = \"a.rs\"\njustifcation = \"typo\"\n";
        let errs = parse(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("unknown key")));
    }

    #[test]
    fn unused_entries_surface() {
        let text = "[[allow]]\nrule = \"r\"\npath = \"nope.rs\"\njustification = \"x\"\n";
        let entries = parse(text).unwrap();
        let (reported, allowed, unused) = apply(vec![], &entries);
        assert!(reported.is_empty() && allowed.is_empty());
        assert_eq!(unused.len(), 1);
    }

    #[test]
    fn path_suffix_matching() {
        let text = "[[allow]]\nrule = \"r\"\npath = \"src/a.rs\"\njustification = \"x\"\n";
        let entries = parse(text).unwrap();
        let (reported, allowed, _) = apply(vec![finding("r", "crates/m/src/a.rs", "z")], &entries);
        assert!(reported.is_empty());
        assert_eq!(allowed.len(), 1);
        // But `xsrc/a.rs` must not match `src/a.rs` (suffix is
        // component-aligned).
        let (reported, _, _) = apply(vec![finding("r", "crates/m/xsrc/a.rs", "z")], &entries);
        assert_eq!(reported.len(), 1);
    }
}
