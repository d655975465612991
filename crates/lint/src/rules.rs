//! The determinism rule catalog and its per-rule checkers.
//!
//! Every checker works on the masked views of [`ScannedFile`]: token
//! matches never fire inside comments or string literals, and lines
//! inside `#[cfg(test)]` items are skipped (unit tests are not part of
//! the shipped determinism surface). See the crate docs for the
//! catalog and `DETERMINISM.md` at the workspace root for the contract
//! the rules defend.

use crate::lex::ScannedFile;
use crate::{Config, Diagnostic};
use std::collections::BTreeSet;

/// Iteration-order-dependent methods on hash collections (keyed access
/// like `get`/`contains`/`entry`/`insert` is deliberately absent).
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Comment markers that satisfy D004: the fold's order is stated where
/// the fold happens.
const FOLD_MARKERS: &[&str] = &[
    "node-index order",
    "node index order",
    "ascending node index",
    "window order",
    "fold order",
];

/// Ambient (non-seeded) randomness entry points.
const AMBIENT_RANDOM: &[&str] = &["thread_rng", "OsRng", "from_entropy"];

/// Runs every applicable rule over one scanned file.
pub(crate) fn check_file(path: &str, scanned: &ScannedFile, cfg: &Config) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if cfg
        .deterministic_prefixes
        .iter()
        .any(|p| path.starts_with(p.as_str()))
    {
        d001(path, scanned, &mut diags);
    }
    if !cfg
        .wall_clock_allow
        .iter()
        .any(|p| path.starts_with(p.as_str()))
    {
        d002(path, scanned, &mut diags);
    }
    d003(path, scanned, &mut diags);
    d004(path, scanned, cfg, &mut diags);
    if cfg.hot_path_files.iter().any(|p| path == p) {
        h001(path, scanned, &mut diags);
    }
    diags
}

/// **D001** — no `HashMap`/`HashSet` iteration in deterministic
/// modules. Hash iteration order is seeded per process, so any fold,
/// render, or decision driven by it breaks byte-identical output.
fn d001(path: &str, s: &ScannedFile, diags: &mut Vec<Diagnostic>) {
    let names = hash_typed_names(s);
    if names.is_empty() {
        return;
    }
    for (line_no, line) in s.code.iter().enumerate() {
        if s.is_test_line(line_no) {
            continue;
        }
        for name in &names {
            for pos in token_positions(line, name) {
                let mut cur = Cursor::new(&s.code, line_no, pos + name.len());
                let Some((_, _, c)) = cur.next_nonspace() else {
                    continue;
                };
                if c != '.' {
                    continue;
                }
                let Some((mline, _, method)) = cur.next_token() else {
                    continue;
                };
                if ITER_METHODS.contains(&method.as_str())
                    && cur.next_nonspace().map(|(_, _, c)| c) == Some('(')
                {
                    diags.push(Diagnostic::new(
                        "D001",
                        path,
                        mline + 1,
                        format!(
                            "iteration over hash collection `{name}` (`.{method}()`): hash \
                             order is nondeterministic; use BTreeMap/sorted Vec/index \
                             addressing, or justify with an allow"
                        ),
                    ));
                }
            }
        }
        // `for x in &self.map { ... }` — iteration without a method call.
        if let Some(expr) = for_loop_expr(line) {
            let stripped = strip_iteree(&expr);
            if names.contains(stripped) {
                diags.push(Diagnostic::new(
                    "D001",
                    path,
                    line_no + 1,
                    format!(
                        "for-loop over hash collection `{stripped}`: hash order is \
                         nondeterministic; use BTreeMap/sorted Vec/index addressing, or \
                         justify with an allow"
                    ),
                ));
            }
        }
    }
}

/// **D002** — no wall-clock reads outside the allowlisted profiling
/// surfaces. Wall time differs per run; anything it touches must stay
/// out of the deterministic export.
fn d002(path: &str, s: &ScannedFile, diags: &mut Vec<Diagnostic>) {
    for (line_no, line) in s.code.iter().enumerate() {
        if s.is_test_line(line_no) {
            continue;
        }
        for pos in token_positions(line, "Instant") {
            let mut cur = Cursor::new(&s.code, line_no, pos + "Instant".len());
            if cur.next_nonspace().map(|(_, _, c)| c) == Some(':')
                && cur.next_nonspace().map(|(_, _, c)| c) == Some(':')
                && cur.next_token().map(|(_, _, t)| t).as_deref() == Some("now")
            {
                diags.push(Diagnostic::new(
                    "D002",
                    path,
                    line_no + 1,
                    "wall-clock read (`Instant::now`) outside an allowlisted profiling \
                     surface"
                        .to_string(),
                ));
            }
        }
        for _ in token_positions(line, "SystemTime") {
            diags.push(Diagnostic::new(
                "D002",
                path,
                line_no + 1,
                "wall-clock type (`SystemTime`) outside an allowlisted profiling surface"
                    .to_string(),
            ));
        }
    }
}

/// **D003** — no ambient randomness. Every random stream must flow
/// from an explicit seed handed in by a constructor.
fn d003(path: &str, s: &ScannedFile, diags: &mut Vec<Diagnostic>) {
    for (line_no, line) in s.code.iter().enumerate() {
        if s.is_test_line(line_no) {
            continue;
        }
        for tok in AMBIENT_RANDOM {
            for _ in token_positions(line, tok) {
                diags.push(Diagnostic::new(
                    "D003",
                    path,
                    line_no + 1,
                    format!(
                        "ambient randomness (`{tok}`): derive randomness from an \
                         explicit seed instead"
                    ),
                ));
            }
        }
    }
}

/// How many comment lines above a fold call may carry its order marker.
const FOLD_MARKER_WINDOW: usize = 8;

/// **D004** — parallel folds must state their fold order in a nearby
/// comment (`node-index order`, `window order`, ...), so a reader — and
/// this lint — can see the reduce is deterministic by construction.
fn d004(path: &str, s: &ScannedFile, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    for fold in &cfg.fold_fns {
        if let Some(prefix) = &fold.prefix {
            if !path.starts_with(prefix.as_str()) {
                continue;
            }
        }
        for (line_no, line) in s.code.iter().enumerate() {
            if s.is_test_line(line_no) {
                continue;
            }
            for pos in token_positions(line, &fold.name) {
                // Skip the definition site; only call sites need markers.
                if prev_token(&s.code, line_no, pos).as_deref() == Some("fn") {
                    continue;
                }
                let mut cur = Cursor::new(&s.code, line_no, pos + fold.name.len());
                if cur.next_nonspace().map(|(_, _, c)| c) != Some('(') {
                    continue;
                }
                let from = line_no.saturating_sub(FOLD_MARKER_WINDOW);
                let marked = s.comments[from..=line_no].iter().any(|c| {
                    let lower = c.to_lowercase();
                    FOLD_MARKERS.iter().any(|m| lower.contains(m))
                });
                if !marked {
                    diags.push(Diagnostic::new(
                        "D004",
                        path,
                        line_no + 1,
                        format!(
                            "parallel fold `{}` without a fold-order marker comment \
                             (state e.g. `node-index order` or `window order` within \
                             the preceding {FOLD_MARKER_WINDOW} lines)",
                            fold.name
                        ),
                    ));
                }
            }
        }
    }
}

/// **H001** — no `unwrap()`, and only `expect("invariant: ...")`, on
/// the dispatch hot path: when a hot-path invariant breaks in a long
/// fleet run, the panic message is the whole post-mortem.
fn h001(path: &str, s: &ScannedFile, diags: &mut Vec<Diagnostic>) {
    for (line_no, line) in s.code.iter().enumerate() {
        if s.is_test_line(line_no) {
            continue;
        }
        for pos in token_positions(line, "unwrap") {
            if prev_nonspace_char(line, pos) != Some('.') {
                continue;
            }
            let mut cur = Cursor::new(&s.code, line_no, pos + "unwrap".len());
            if cur.next_nonspace().map(|(_, _, c)| c) == Some('(')
                && cur.next_nonspace().map(|(_, _, c)| c) == Some(')')
            {
                diags.push(Diagnostic::new(
                    "H001",
                    path,
                    line_no + 1,
                    "bare `unwrap()` on the dispatch hot path: name the invariant with \
                     `expect(\"invariant: ...\")` or handle the None/Err arm"
                        .to_string(),
                ));
            }
        }
        for pos in token_positions(line, "expect") {
            if prev_nonspace_char(line, pos) != Some('.') {
                continue;
            }
            let mut cur = Cursor::new(&s.code, line_no, pos + "expect".len());
            let Some((pline, pcol, c)) = cur.next_nonspace() else {
                continue;
            };
            if c != '(' {
                continue;
            }
            match s.string_at_or_after(pline, pcol, 2) {
                Some(lit) if lit.text.starts_with("invariant:") => {}
                Some(lit) => diags.push(Diagnostic::new(
                    "H001",
                    path,
                    line_no + 1,
                    format!(
                        "hot-path `expect(\"{}\")` message must name the invariant \
                         (`expect(\"invariant: ...\")`)",
                        lit.text
                    ),
                )),
                None => diags.push(Diagnostic::new(
                    "H001",
                    path,
                    line_no + 1,
                    "hot-path `expect(...)` must carry a literal `\"invariant: ...\"` \
                     message"
                        .to_string(),
                )),
            }
        }
    }
}

/// Collects identifiers declared with a `HashMap`/`HashSet` type in
/// this file: field/param declarations (`name: HashMap<...>`, possibly
/// through `&mut` or a path like `std::collections::HashMap`) and `let`
/// bindings initialized from a hash-collection constructor.
fn hash_typed_names(s: &ScannedFile) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in &s.code {
        if line.trim_start().starts_with("use ") {
            continue;
        }
        for ty in ["HashMap", "HashSet"] {
            for pos in token_positions(line, ty) {
                if let Some(name) = decl_name_before(line, pos) {
                    names.insert(name);
                } else if let Some(name) = let_binding_name(line) {
                    // `let [mut] x = HashMap::new()` and friends.
                    names.insert(name);
                }
            }
        }
    }
    names
}

/// Walks left from a type token over type-ish characters (whitespace,
/// `&`, `<`, `(`, `,`, path segments) looking for the declaration's
/// single `:`; returns the identifier before it. `::` path separators
/// are stepped over; hitting anything else (e.g. `=`) means this is not
/// a typed declaration.
fn decl_name_before(line: &str, type_pos: usize) -> Option<String> {
    let chars: Vec<char> = line.chars().collect();
    let mut i = type_pos;
    loop {
        if i == 0 {
            return None;
        }
        i -= 1;
        let c = chars[i];
        if c == ':' {
            if i > 0 && chars[i - 1] == ':' {
                // A `::` path separator: step over it and keep walking.
                i -= 1;
                continue;
            }
            // Found the declaration colon; the name sits before it.
            let end = chars[..i].iter().rposition(|c| !c.is_whitespace())? + 1;
            let start = chars[..end]
                .iter()
                .rposition(|c| !(c.is_alphanumeric() || *c == '_'))
                .map_or(0, |p| p + 1);
            if start == end {
                return None;
            }
            return Some(chars[start..end].iter().collect());
        }
        let type_ish = c.is_whitespace() || c.is_alphanumeric() || "&<(,_".contains(c);
        if !type_ish {
            return None;
        }
    }
}

/// The identifier bound by a `let [mut] name ...` on this line, if any.
fn let_binding_name(line: &str) -> Option<String> {
    let pos = token_positions(line, "let").first().copied()?;
    let mut cur = OneLineTokens::new(line, pos + 3);
    let mut tok = cur.next()?;
    if tok == "mut" {
        tok = cur.next()?;
    }
    Some(tok)
}

/// The iterated expression of a `for ... in EXPR {` on this line.
fn for_loop_expr(line: &str) -> Option<String> {
    let for_pos = token_positions(line, "for").first().copied()?;
    let tail = &line[for_pos..];
    let in_rel = token_positions(tail, "in").first().copied()?;
    let after_in = &tail[in_rel + 2..];
    let expr = match after_in.find('{') {
        Some(b) => &after_in[..b],
        None => after_in,
    };
    Some(expr.trim().to_string())
}

/// Strips reference/`mut`/`self.` prefixes off an iterated expression,
/// leaving the collection identifier when the expression is that
/// simple (anything more complex is out of this heuristic's reach).
fn strip_iteree(expr: &str) -> &str {
    let mut e = expr.trim();
    while let Some(rest) = e.strip_prefix('&') {
        e = rest.trim_start();
    }
    if let Some(rest) = e.strip_prefix("mut ") {
        e = rest.trim_start();
    }
    if let Some(rest) = e.strip_prefix("self.") {
        e = rest;
    }
    e
}

/// Word-bounded occurrences (byte offsets) of `tok` in `line`.
pub(crate) fn token_positions(line: &str, tok: &str) -> Vec<usize> {
    let mut out = Vec::new();
    if tok.is_empty() {
        return out;
    }
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(rel) = line[from..].find(tok) {
        let start = from + rel;
        let end = start + tok.len();
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            out.push(start);
        }
        from = start + 1;
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The last non-whitespace char before byte offset `pos` on `line`.
fn prev_nonspace_char(line: &str, pos: usize) -> Option<char> {
    line[..pos].chars().rev().find(|c| !c.is_whitespace())
}

/// The identifier token ending immediately before byte offset `pos`
/// (used to recognize `fn name(` definition sites).
fn prev_token(code: &[String], line_no: usize, pos: usize) -> Option<String> {
    let line = &code[line_no];
    let chars: Vec<char> = line[..pos].chars().collect();
    let end = chars.iter().rposition(|c| !c.is_whitespace())? + 1;
    let start = chars[..end]
        .iter()
        .rposition(|c| !(c.is_alphanumeric() || *c == '_'))
        .map_or(0, |p| p + 1);
    if start == end {
        return None;
    }
    Some(chars[start..end].iter().collect())
}

/// A forward cursor over masked code that steps across line breaks —
/// how rules follow a method chain that wraps.
struct Cursor<'a> {
    code: &'a [String],
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    fn new(code: &'a [String], line: usize, col: usize) -> Self {
        Cursor { code, line, col }
    }

    /// Advances to the next non-whitespace char, returning
    /// `(line, col, char)` and consuming it.
    fn next_nonspace(&mut self) -> Option<(usize, usize, char)> {
        while self.line < self.code.len() {
            let chars: Vec<char> = self.code[self.line].chars().collect();
            while self.col < chars.len() {
                let c = chars[self.col];
                let at = (self.line, self.col, c);
                self.col += 1;
                if !c.is_whitespace() {
                    return Some(at);
                }
            }
            self.line += 1;
            self.col = 0;
        }
        None
    }

    /// Reads the next identifier token, returning `(line, col, token)`.
    fn next_token(&mut self) -> Option<(usize, usize, String)> {
        let (line, col, first) = self.next_nonspace()?;
        if !(first.is_alphanumeric() || first == '_') {
            // Put conceptually nothing back; a non-ident char simply
            // means there is no token here.
            return None;
        }
        let mut tok = String::new();
        tok.push(first);
        let chars: Vec<char> = self.code[line].chars().collect();
        while self.line == line && self.col < chars.len() {
            let c = chars[self.col];
            if c.is_alphanumeric() || c == '_' {
                tok.push(c);
                self.col += 1;
            } else {
                break;
            }
        }
        Some((line, col, tok))
    }
}

/// Simple same-line identifier token reader.
struct OneLineTokens<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> OneLineTokens<'a> {
    fn new(line: &'a str, pos: usize) -> Self {
        OneLineTokens { line, pos }
    }
}

impl Iterator for OneLineTokens<'_> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let bytes = self.line.as_bytes();
        while self.pos < bytes.len() && !is_ident_byte(bytes[self.pos]) {
            self.pos += 1;
        }
        if self.pos >= bytes.len() {
            return None;
        }
        let start = self.pos;
        while self.pos < bytes.len() && is_ident_byte(bytes[self.pos]) {
            self.pos += 1;
        }
        Some(self.line[start..self.pos].to_string())
    }
}
