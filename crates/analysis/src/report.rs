//! Findings and the machine-readable JSON report.
//!
//! The JSON serializer is hand-rolled (the build container has no
//! registry access, so no `serde`); it emits a stable, sorted document
//! that CI uploads next to the bench snapshot.

use std::fmt::Write as _;

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `unsafe-safety-comment`.
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable message.
    pub message: String,
    /// The source line the finding points at (trimmed), used both for
    /// diagnostics and for allowlist `contains` matching.
    pub excerpt: String,
}

impl Finding {
    /// Renders the human diagnostic form: `path:line:col: [rule] msg`.
    pub fn human(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.col, self.rule, self.message, self.excerpt
        )
    }
}

/// A finding that matched an allowlist entry, with its justification.
#[derive(Debug, Clone)]
pub struct Allowed {
    /// The suppressed finding.
    pub finding: Finding,
    /// Justification string from the matching allowlist entry.
    pub justification: String,
}

/// One product crate's public surface as rule `pub-reach` sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Surface {
    /// Crate directory name under `crates/`.
    pub krate: &'static str,
    /// `pub` fn / const / static items outside tests in its `src/`.
    pub in_scope: usize,
    /// How many of those are unreached and allowlisted as API.
    pub allowlisted: usize,
}

/// Escapes a string for JSON output.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding, indent: &str) -> String {
    format!(
        "{i}{{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\", \"excerpt\": \"{}\"}}",
        esc(f.rule),
        esc(&f.path),
        f.line,
        f.col,
        esc(&f.message),
        esc(&f.excerpt),
        i = indent,
    )
}

/// Appends `"name": [...]` with one item per line.
fn push_list(s: &mut String, name: &str, items: &[String]) {
    let _ = writeln!(s, "  \"{name}\": [");
    s.push_str(&items.join(",\n"));
    if !items.is_empty() {
        s.push('\n');
    }
    s.push_str("  ],\n");
}

/// Serializes the full report document.
pub fn to_json(
    root: &str,
    files_scanned: usize,
    reported: &[Finding],
    allowed: &[Allowed],
    unused_allow: &[String],
    surface: &[Surface],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"tool\": \"abc-analysis\",");
    let _ = writeln!(s, "  \"root\": \"{}\",", esc(root));
    let _ = writeln!(s, "  \"files_scanned\": {},", files_scanned);
    let items: Vec<String> = reported.iter().map(|f| finding_json(f, "    ")).collect();
    push_list(&mut s, "findings", &items);
    let items: Vec<String> = allowed
        .iter()
        .map(|a| {
            format!(
                "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"justification\": \"{}\"}}",
                esc(a.finding.rule),
                esc(&a.finding.path),
                a.finding.line,
                esc(&a.justification),
            )
        })
        .collect();
    push_list(&mut s, "allowed", &items);
    let items: Vec<String> = unused_allow
        .iter()
        .map(|u| format!("    \"{}\"", esc(u)))
        .collect();
    push_list(&mut s, "unused_allow", &items);
    let items: Vec<String> = surface
        .iter()
        .map(|c| {
            format!(
                "    {{\"crate\": \"{}\", \"in_scope\": {}, \"allowlisted\": {}}}",
                c.krate, c.in_scope, c.allowlisted
            )
        })
        .collect();
    push_list(&mut s, "pub_surface", &items);
    let _ = writeln!(
        s,
        "  \"summary\": {{\"reported\": {}, \"allowed\": {}, \"unused_allow\": {}}}",
        reported.len(),
        allowed.len(),
        unused_allow.len()
    );
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_counts() {
        let f = Finding {
            rule: "unsafe-safety-comment",
            path: "crates/x/src/a.rs".into(),
            line: 3,
            col: 5,
            message: "say \"why\"".into(),
            excerpt: "unsafe { ptr.read() }".into(),
        };
        let surface = Surface {
            krate: "math",
            in_scope: 12,
            allowlisted: 2,
        };
        let doc = to_json("/repo", 7, &[f], &[], &["stale".into()], &[surface]);
        assert!(doc.contains("\\\"why\\\""));
        assert!(doc.contains("\"files_scanned\": 7"));
        assert!(doc.contains("\"reported\": 1, \"allowed\": 0, \"unused_allow\": 1"));
        assert!(doc.contains("{\"crate\": \"math\", \"in_scope\": 12, \"allowlisted\": 2}"));
    }
}
