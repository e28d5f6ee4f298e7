//! Token-stream "parser": extracts just enough structure for the rule
//! engine — function items with their attributes and doc comments,
//! plain-`pub` fn / const / static items, `#[cfg(test)]` regions,
//! matched brace pairs, and `const NAME: &str = "..."` bindings (used to
//! resolve env-var names passed by ident).
//!
//! This is deliberately not a Rust grammar. It is a set of robust scans
//! over the token stream from [`crate::lexer`], designed so that the
//! constructs this workspace actually uses are recognised exactly and
//! anything unrecognised degrades to "no item here" rather than a
//! mis-parse.

use crate::lexer::{Tok, TokKind};

/// One `#[...]` attribute group, flattened to the source text between
/// the brackets (e.g. `target_feature(enable = "avx512f")`).
#[derive(Debug, Clone)]
pub struct Attr {
    /// Text between the outer `[` and `]`.
    pub text: String,
    /// Line of the opening `#`.
    pub line: u32,
}

/// A function item recognised in the token stream.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Whether the header carries `unsafe`.
    pub is_unsafe: bool,
    /// Attributes attached to the item.
    pub attrs: Vec<Attr>,
    /// Concatenated doc-comment text attached to the item.
    pub doc: String,
    /// Flattened parameter-list text (between the header parens).
    pub params: String,
    /// Token range of the body `{ ... }` (inclusive brace indices), or
    /// `None` for bodyless forms (trait methods, extern decls).
    pub body: Option<(usize, usize)>,
    /// Whether the item lies inside a `#[cfg(test)]` region or a file
    /// that is wholly test code (under `tests/` or `benches/`).
    pub in_test: bool,
}

/// What a plain-`pub` item declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PubKind {
    /// `pub fn`, with any of `const` / `unsafe` / `async` / `extern`.
    Fn,
    /// `pub const NAME: T`.
    Const,
    /// `pub static [mut] NAME: T`.
    Static,
}

impl PubKind {
    /// The item keyword, as written.
    pub fn keyword(self) -> &'static str {
        match self {
            PubKind::Fn => "fn",
            PubKind::Const => "const",
            PubKind::Static => "static",
        }
    }
}

/// A `pub` fn, const or static item. Restricted visibility
/// (`pub(crate)`, `pub(super)`, `pub(in …)`) is not recorded.
#[derive(Debug, Clone)]
pub struct PubItem {
    /// Item kind.
    pub kind: PubKind,
    /// Item name.
    pub name: String,
    /// 1-based line of the `pub` keyword.
    pub line: u32,
    /// 1-based column of the `pub` keyword.
    pub col: u32,
    /// Whether the item lies inside a `#[cfg(test)]` region, carries a
    /// test attribute itself, or sits in a test file.
    pub in_test: bool,
}

/// Parsed view of one source file.
pub struct File {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Raw source text (rules scan comment lines and build excerpts).
    pub src: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// For every `{`/`[`/`(` token index, the index of its match (and
    /// vice versa). `usize::MAX` marks an unmatched delimiter.
    pub matches: Vec<usize>,
    /// Recognised function items.
    pub fns: Vec<FnItem>,
    /// Plain-`pub` fn / const / static items.
    pub pub_items: Vec<PubItem>,
    /// Byte-line ranges (start, end inclusive) of `#[cfg(test)]` items.
    pub test_regions: Vec<(u32, u32)>,
    /// Whether the whole file is test/bench code by location.
    pub whole_file_test: bool,
    /// `const NAME: &str = "LIT"` bindings found in this file.
    pub consts: Vec<(String, String)>,
}

impl File {
    /// Lexes and scans `content` under workspace-relative `path`.
    pub fn parse(path: &str, content: &str) -> File {
        let toks = crate::lexer::lex(content);
        let matches = match_delims(&toks);
        let whole_file_test = is_test_path(path);
        let test_regions = find_test_regions(&toks, &matches);
        let consts = find_string_consts(&toks);
        let mut f = File {
            path: path.to_string(),
            src: content.to_string(),
            toks,
            matches,
            fns: Vec::new(),
            pub_items: Vec::new(),
            test_regions,
            whole_file_test,
            consts,
        };
        f.fns = find_fns(&f);
        f.pub_items = find_pub_items(&f);
        f
    }

    /// Whether `line` lies in test code (cfg(test) region or test file).
    pub fn line_in_test(&self, line: u32) -> bool {
        self.whole_file_test
            || self
                .test_regions
                .iter()
                .any(|&(s, e)| line >= s && line <= e)
    }

    /// Trimmed text of 1-based `line` (empty if out of range).
    pub fn line_text(&self, line: u32) -> &str {
        self.src
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .map(str::trim)
            .unwrap_or("")
    }

    /// Next non-comment token index at or after `i`.
    pub fn next_code(&self, mut i: usize) -> Option<usize> {
        while i < self.toks.len() {
            if !self.toks[i].is_comment() {
                return Some(i);
            }
            i += 1;
        }
        None
    }
}

fn is_test_path(path: &str) -> bool {
    path.split('/').any(|c| c == "tests" || c == "benches")
}

/// Computes matching-delimiter indices for `{}`, `[]`, `()`.
fn match_delims(toks: &[Tok]) -> Vec<usize> {
    let mut matches = vec![usize::MAX; toks.len()];
    let mut stack: Vec<(char, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct(open @ ('{' | '[' | '(')) => stack.push((open, i)),
            TokKind::Punct(close @ ('}' | ']' | ')')) => {
                let want = match close {
                    '}' => '{',
                    ']' => '[',
                    _ => '(',
                };
                // Pop until the matching opener kind; tolerate damage.
                while let Some(&(open, j)) = stack.last() {
                    stack.pop();
                    if open == want {
                        matches[i] = j;
                        matches[j] = i;
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    matches
}

/// Collects `#[cfg(test)]`-attributed item line ranges.
fn find_test_regions(toks: &[Tok], matches: &[usize]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let close = matches[i + 1];
            if close != usize::MAX {
                let attr_text = flatten(&toks[i + 2..close]);
                if attr_text.starts_with("cfg")
                    && attr_text.contains("test")
                    && !attr_text.contains("not")
                {
                    // Find the item's body braces after the attribute
                    // (skipping further attributes and comments).
                    if let Some((_, end)) = item_body_after(toks, matches, close + 1) {
                        out.push((toks[i].line, toks[end].line));
                    }
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// From `start`, skips comments and further attributes, then scans
/// forward to the item's body `{ ... }` (stopping at `;` for bodyless
/// items). Returns brace token indices.
fn item_body_after(toks: &[Tok], matches: &[usize], mut i: usize) -> Option<(usize, usize)> {
    let mut depth_guard = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_comment() {
            i += 1;
            continue;
        }
        if t.is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let close = matches[i + 1];
            if close == usize::MAX {
                return None;
            }
            i = close + 1;
            continue;
        }
        match t.kind {
            TokKind::Punct(';') => return None,
            TokKind::Punct('{') => {
                let close = matches[i];
                if close == usize::MAX {
                    return None;
                }
                return Some((i, close));
            }
            // Skip nested delimiter groups in the header (e.g. params,
            // where-clauses with brackets).
            TokKind::Punct('(') | TokKind::Punct('[') => {
                let close = matches[i];
                if close == usize::MAX {
                    return None;
                }
                i = close + 1;
                continue;
            }
            _ => {}
        }
        i += 1;
        depth_guard += 1;
        if depth_guard > 4096 {
            return None;
        }
    }
    None
}

/// Joins token texts with spaces (adequate for substring checks).
pub fn flatten(toks: &[Tok]) -> String {
    let mut s = String::new();
    for t in toks {
        if t.is_comment() {
            continue;
        }
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(&t.text);
    }
    s
}

/// Collects `const NAME: &str = "LIT"` bindings (also `pub const`,
/// `pub(crate) const`, `static`).
fn find_string_consts(toks: &[Tok]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    for i in 0..code.len() {
        let kw_ok = code[i].is_ident("const") || code[i].is_ident("static");
        if !kw_ok
            || code.get(i + 1).map(|t| t.kind) != Some(TokKind::Ident)
            || !code.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            continue;
        }
        // Find the `=` then a string literal; the type part is short
        // (`& str`, `& 'static str`).
        let name = code[i + 1].text.clone();
        for k in i + 3..(i + 9).min(code.len()) {
            if code[k].is_punct('=') {
                if let Some(lit) = code.get(k + 1) {
                    if lit.kind == TokKind::Str {
                        out.push((name.clone(), unquote(&lit.text)));
                    }
                }
                break;
            }
            // A `;` or `{` before `=` means no initializer here.
            if code[k].is_punct(';') || code[k].is_punct('{') {
                break;
            }
        }
    }
    out
}

/// Strips quotes/prefixes from a string-literal token's text.
pub fn unquote(text: &str) -> String {
    let t = text
        .trim_start_matches(['r', 'b', 'c'])
        .trim_start_matches('#');
    let t = t.trim_start_matches('"');
    let t = t.trim_end_matches('#');
    let t = t.trim_end_matches('"');
    t.to_string()
}

/// Keywords that may precede `fn` in an item header.
fn is_fn_qualifier(t: &Tok) -> bool {
    matches!(
        t.text.as_str(),
        "pub" | "unsafe" | "const" | "async" | "extern" | "default"
    ) && t.kind == TokKind::Ident
        || t.kind == TokKind::Str // `extern "C"`
}

/// Scans the token stream for function items.
fn find_fns(f: &File) -> Vec<FnItem> {
    let toks = &f.toks;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        // `fn` inside a `(` group is a fn-pointer type; require the
        // next token to be an identifier (the fn name).
        let Some(name_i) = f.next_code(i + 1) else {
            break;
        };
        if toks[name_i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = toks[name_i].text.clone();
        // Walk the header backwards over qualifiers to find where the
        // item starts; `unsafe` anywhere in that run marks the fn.
        let mut head = i;
        let mut is_unsafe = false;
        {
            let mut j = i;
            while j > 0 {
                let mut k = j - 1;
                // Skip comments going backwards.
                while k > 0 && toks[k].is_comment() {
                    k -= 1;
                }
                if toks[k].is_comment() {
                    break;
                }
                if is_fn_qualifier(&toks[k]) {
                    if toks[k].is_ident("unsafe") {
                        is_unsafe = true;
                    }
                    head = k;
                    j = k;
                    continue;
                }
                // `pub(crate)` / `pub(super)`: a `)` whose matching `(`
                // is preceded by `pub`.
                if toks[k].is_punct(')') && f.matches[k] != usize::MAX {
                    let open = f.matches[k];
                    if open > 0 {
                        let mut p = open - 1;
                        while p > 0 && toks[p].is_comment() {
                            p -= 1;
                        }
                        if toks[p].is_ident("pub") {
                            head = p;
                            j = p;
                            continue;
                        }
                    }
                }
                break;
            }
        }
        // Attributes + doc comments immediately above `head`.
        let (attrs, doc) = leading_trivia(f, head);
        // Parameter list: next `(` after the name (skipping generics).
        let params = param_text(f, name_i);
        // Body: brace after the header.
        let body = item_body_after(toks, &f.matches, name_i + 1);
        let line = toks[i].line;
        let in_test = f.line_in_test(line) || has_test_attr(&attrs);
        out.push(FnItem {
            name,
            line,
            is_unsafe,
            attrs,
            doc,
            params,
            body,
            in_test,
        });
        // Continue after the name (bodies may contain nested fns; the
        // scan naturally finds them).
        i = name_i + 1;
    }
    out
}

/// Whether one of `attrs` is `#[test]` or a `cfg` naming `test`.
fn has_test_attr(attrs: &[Attr]) -> bool {
    attrs
        .iter()
        .any(|a| a.text.contains("test") && (a.text == "test" || a.text.contains("cfg")))
}

/// Scans the token stream for plain-`pub` fn / const / static items.
fn find_pub_items(f: &File) -> Vec<PubItem> {
    let toks = &f.toks;
    let mut out = Vec::new();
    for (head, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") {
            continue;
        }
        // Walk the qualifiers after `pub` to the item keyword; `(` right
        // after `pub` is a restricted visibility and ends the scan.
        let mut j = head;
        let item = loop {
            let Some(k) = f.next_code(j + 1) else {
                break None;
            };
            j = k;
            let next_name = |at: usize| {
                f.next_code(at + 1)
                    .filter(|&n| toks[n].kind == TokKind::Ident)
            };
            let tok = &toks[k];
            if tok.is_ident("fn") {
                break next_name(k).map(|n| (PubKind::Fn, n));
            }
            if tok.is_ident("static") {
                let n = next_name(k);
                break match n {
                    Some(m) if toks[m].is_ident("mut") => next_name(m),
                    _ => n,
                }
                .map(|n| (PubKind::Static, n));
            }
            if tok.is_ident("const") {
                // `const fn` / `const unsafe fn` qualify a fn; otherwise
                // `const NAME:` is the item.
                if let Some(n) = next_name(k) {
                    let named = f.next_code(n + 1).is_some_and(|c| toks[c].is_punct(':'));
                    if named {
                        break Some((PubKind::Const, n));
                    }
                }
                continue;
            }
            if tok.is_ident("unsafe")
                || tok.is_ident("async")
                || tok.is_ident("extern")
                || tok.kind == TokKind::Str
            {
                continue;
            }
            break None;
        };
        let Some((kind, name_i)) = item else {
            continue;
        };
        let (attrs, _) = leading_trivia(f, head);
        out.push(PubItem {
            kind,
            name: toks[name_i].text.clone(),
            line: t.line,
            col: t.col,
            in_test: f.line_in_test(t.line) || has_test_attr(&attrs),
        });
    }
    out
}

/// Collects `#[...]` attributes and doc comments immediately preceding
/// token index `head`, in source order.
fn leading_trivia(f: &File, head: usize) -> (Vec<Attr>, String) {
    let toks = &f.toks;
    let mut attrs = Vec::new();
    let mut docs: Vec<String> = Vec::new();
    let mut j = head;
    while j > 0 {
        let k = j - 1;
        let t = &toks[k];
        if t.is_doc() {
            docs.push(doc_text(t));
            j = k;
            continue;
        }
        if t.is_comment() {
            // Plain comments don't break attachment.
            j = k;
            continue;
        }
        if t.is_punct(']') && f.matches[k] != usize::MAX {
            let open = f.matches[k];
            if open > 0 && toks[open - 1].is_punct('#') {
                attrs.push(Attr {
                    text: flatten(&toks[open + 1..k]),
                    line: toks[open - 1].line,
                });
                j = open - 1;
                continue;
            }
        }
        break;
    }
    attrs.reverse();
    docs.reverse();
    (attrs, docs.join("\n"))
}

/// Extracts the doc text from a doc-comment token.
fn doc_text(t: &Tok) -> String {
    let s = t.text.as_str();
    let s = s
        .trim_start_matches("///")
        .trim_start_matches("//!")
        .trim_start_matches("/**")
        .trim_start_matches("/*!");
    s.trim_end_matches("*/").trim().to_string()
}

/// Flattened parameter-list text of the fn whose name is at `name_i`.
fn param_text(f: &File, name_i: usize) -> String {
    let toks = &f.toks;
    let mut i = name_i + 1;
    // Skip generics `<...>` (token-level: balance on < >, ignoring `->`
    // which can't appear before the param list).
    if let Some(j) = f.next_code(i) {
        if toks[j].is_punct('<') {
            let mut depth = 1i32;
            let mut k = j + 1;
            while k < toks.len() && depth > 0 {
                match toks[k].kind {
                    TokKind::Punct('<') => depth += 1,
                    // A `>` that closes generics — but not the `>` of a
                    // `->` return arrow inside an `Fn(..) -> ..` bound.
                    TokKind::Punct('>') if !toks[k - 1].is_punct('-') => depth -= 1,
                    _ => {}
                }
                k += 1;
            }
            i = k;
        }
    }
    if let Some(j) = f.next_code(i) {
        if toks[j].is_punct('(') && f.matches[j] != usize::MAX {
            return flatten(&toks[j + 1..f.matches[j]]);
        }
    }
    String::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_plain_and_unsafe_fns() {
        let f = File::parse(
            "a.rs",
            "pub fn a() {}\nunsafe fn b(x: u64) -> u64 { x }\npub(crate) unsafe fn c() {}",
        );
        let names: Vec<_> = f
            .fns
            .iter()
            .map(|x| (x.name.as_str(), x.is_unsafe))
            .collect();
        assert_eq!(names, vec![("a", false), ("b", true), ("c", true)]);
        assert_eq!(f.fns[1].params, "x : u64");
    }

    #[test]
    fn attributes_and_docs_attach() {
        let src = "/// Does things.\n/// Output in `[0, 2q)`.\n#[inline(always)]\n#[target_feature(enable = \"avx512f\")]\npub unsafe fn go() {}";
        let f = File::parse("a.rs", src);
        assert_eq!(f.fns.len(), 1);
        let item = &f.fns[0];
        assert!(item.is_unsafe);
        assert_eq!(item.attrs.len(), 2);
        assert!(item.attrs[1].text.contains("target_feature"));
        assert!(item.doc.contains("[0, 2q)"));
    }

    #[test]
    fn cfg_test_regions_cover_mods() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let f = File::parse("a.rs", src);
        let live = f.fns.iter().find(|x| x.name == "live").unwrap();
        let helper = f.fns.iter().find(|x| x.name == "helper").unwrap();
        assert!(!live.in_test);
        assert!(helper.in_test);
    }

    #[test]
    fn string_consts_resolve() {
        let src = "pub const THREADS_ENV: &str = \"ABC_FHE_THREADS\";\nstatic OTHER: &'static str = \"X\";";
        let f = File::parse("a.rs", src);
        assert!(f
            .consts
            .contains(&("THREADS_ENV".into(), "ABC_FHE_THREADS".into())));
        assert!(f.consts.contains(&("OTHER".into(), "X".into())));
    }

    #[test]
    fn tests_dir_is_whole_file_test() {
        let f = File::parse("crates/math/tests/x.rs", "fn t() {}");
        assert!(f.fns[0].in_test);
    }

    #[test]
    fn pub_items_skip_restricted_visibility_and_other_kinds() {
        let src = "pub fn a() {}\npub(crate) fn b() {}\npub const unsafe fn c() {}\n\
                   pub const D: u32 = 1;\npub static mut E: u8 = 0;\npub struct S { pub f: u8 }\n\
                   #[cfg(test)]\npub const T: u8 = 0;\n";
        let f = File::parse("a.rs", src);
        let items: Vec<_> = f
            .pub_items
            .iter()
            .map(|x| (x.kind, x.name.as_str(), x.in_test))
            .collect();
        assert_eq!(
            items,
            vec![
                (PubKind::Fn, "a", false),
                (PubKind::Fn, "c", false),
                (PubKind::Const, "D", false),
                (PubKind::Static, "E", false),
                (PubKind::Const, "T", true),
            ]
        );
    }

    #[test]
    fn generics_do_not_break_params() {
        let f = File::parse(
            "a.rs",
            "fn map<T: Fn(u64) -> u64>(f: T, x: u64) -> u64 { f(x) }",
        );
        assert_eq!(f.fns[0].name, "map");
        assert!(f.fns[0].params.contains("x : u64"));
    }
}
