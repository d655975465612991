//! A comment- and string-aware scanner over one Rust source file.
//!
//! The auditor's rules are textual, so before any rule runs the source
//! is split into three synchronized views:
//!
//! * **masked code** — the source with comment text, string/char
//!   literal *contents*, and raw-string bodies replaced by spaces
//!   (length-preserving, so columns still line up). Rules match tokens
//!   against this view only, which is what makes the pass immune to
//!   `"Instant::now"` appearing inside a diagnostic message or a doc
//!   comment.
//! * **comments** — the text of every `//`, `///`, `//!`, and
//!   (possibly nested) `/* ... */` comment, collected per line. Allow
//!   directives and fold-order markers are read from here.
//! * **string literals** — each literal's content with the line/column
//!   of its opening quote, so a rule can ask "what message does this
//!   `expect(` call carry?" without unmasking the code.
//!
//! The scanner also brace-matches `#[cfg(test)]` items and marks their
//! lines as test-only: unit tests are not part of the shipped
//! determinism surface, so every rule skips them (integration-test
//! *files* are excluded by the workspace walker instead).

/// One string literal: where its opening quote sits and what it says.
#[derive(Debug, Clone)]
pub struct StrLit {
    /// 0-based line of the opening quote.
    pub line: usize,
    /// 0-based column of the opening quote within the masked code line.
    pub col: usize,
    /// The literal's unescaped-as-written content (escape sequences are
    /// kept verbatim; rules only ever prefix-match).
    pub text: String,
}

/// The three synchronized views of one scanned source file.
#[derive(Debug, Default)]
pub struct ScannedFile {
    /// Per-line code with comments and literal contents masked.
    pub code: Vec<String>,
    /// Per-line comment text (empty when the line has none).
    pub comments: Vec<String>,
    /// Every string literal, in source order.
    pub strings: Vec<StrLit>,
    /// Lines inside a `#[cfg(test)]` item (rules skip these).
    pub test_lines: Vec<bool>,
}

impl ScannedFile {
    /// Scans `source` into its masked views.
    #[must_use]
    pub fn scan(source: &str) -> Self {
        let mut s = Lexer::new(source).run();
        s.mark_test_regions();
        s
    }

    /// Whether rules should skip `line` (0-based).
    #[must_use]
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line).copied().unwrap_or(false)
    }

    /// The first string literal at or after `(line, col)`, if any lies
    /// within the next `max_lines` lines — how rules bind an `expect(`
    /// call to its message across a line break.
    #[must_use]
    pub fn string_at_or_after(&self, line: usize, col: usize, max_lines: usize) -> Option<&StrLit> {
        self.strings.iter().find(|s| {
            (s.line > line || (s.line == line && s.col >= col)) && s.line <= line + max_lines
        })
    }

    /// Marks the body lines of every `#[cfg(test)]` item by brace
    /// matching over the masked code (mask first, match after: braces
    /// inside strings or comments can no longer confuse the count).
    fn mark_test_regions(&mut self) {
        self.test_lines = vec![false; self.code.len()];
        for start in 0..self.code.len() {
            let compact: String = self.code[start]
                .chars()
                .filter(|c| !c.is_whitespace())
                .collect();
            if !compact.contains("#[cfg(test)]") {
                continue;
            }
            // Scan forward from the attribute for the item's first `{`;
            // a `;` first means a declaration-only item (e.g. an
            // out-of-line `mod tests;`) with no body in this file.
            let mut depth = 0usize;
            let mut line = start;
            let mut col = self.code[start]
                .find("#[cfg(test)]")
                .map_or(0, |p| p + "#[cfg(test)]".len());
            let mut opened = false;
            'outer: while line < self.code.len() {
                let chars: Vec<char> = self.code[line].chars().collect();
                while col < chars.len() {
                    let c = chars[col];
                    if !opened && c == ';' && depth == 0 {
                        break 'outer;
                    }
                    if c == '{' {
                        opened = true;
                        depth += 1;
                    } else if c == '}' && opened {
                        depth -= 1;
                        if depth == 0 {
                            self.mark_lines(start, line);
                            break 'outer;
                        }
                    }
                    col += 1;
                }
                line += 1;
                col = 0;
            }
            if opened && depth > 0 {
                // Unbalanced (truncated source): treat the rest of the
                // file as test-only rather than under-skipping.
                self.mark_lines(start, self.code.len() - 1);
            }
        }
    }

    fn mark_lines(&mut self, from: usize, to: usize) {
        for l in &mut self.test_lines[from..=to] {
            *l = true;
        }
    }
}

/// The character-level state machine producing a [`ScannedFile`].
struct Lexer {
    chars: Vec<char>,
    i: usize,
    code_line: String,
    comment_line: String,
    out: ScannedFile,
}

impl Lexer {
    fn new(source: &str) -> Self {
        Lexer {
            chars: source.chars().collect(),
            i: 0,
            code_line: String::new(),
            comment_line: String::new(),
            out: ScannedFile::default(),
        }
    }

    fn run(mut self) -> ScannedFile {
        while self.i < self.chars.len() {
            let c = self.chars[self.i];
            match c {
                '\n' => self.newline(),
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(false),
                'r' | 'b' if self.raw_string_ahead() => self.raw_string(),
                'b' if self.peek(1) == Some('"') && !self.prev_is_ident() => {
                    self.push_code('b');
                    self.string(false);
                }
                '\'' => self.char_or_lifetime(),
                _ => self.push_code(c),
            }
        }
        // Flush a trailing unterminated line.
        if !self.code_line.is_empty() || !self.comment_line.is_empty() {
            self.newline_flush();
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// Whether the char before the cursor continues an identifier (so a
    /// leading `r`/`b` belongs to a name like `for` or `grab`, not to a
    /// raw/byte string prefix).
    fn prev_is_ident(&self) -> bool {
        self.code_line
            .chars()
            .last()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    }

    fn push_code(&mut self, c: char) {
        self.code_line.push(c);
        self.i += 1;
    }

    fn newline(&mut self) {
        self.newline_flush();
        self.i += 1;
    }

    fn newline_flush(&mut self) {
        self.out.code.push(std::mem::take(&mut self.code_line));
        self.out
            .comments
            .push(std::mem::take(&mut self.comment_line));
    }

    fn line_comment(&mut self) {
        while self.i < self.chars.len() && self.chars[self.i] != '\n' {
            self.comment_line.push(self.chars[self.i]);
            self.code_line.push(' ');
            self.i += 1;
        }
    }

    fn block_comment(&mut self) {
        let mut depth = 0usize;
        loop {
            if self.i >= self.chars.len() {
                return;
            }
            let c = self.chars[self.i];
            if c == '\n' {
                self.newline();
            } else if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.comment_line.push_str("/*");
                self.code_line.push_str("  ");
                self.i += 2;
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.comment_line.push_str("*/");
                self.code_line.push_str("  ");
                self.i += 2;
                if depth == 0 {
                    return;
                }
            } else {
                self.comment_line.push(c);
                self.code_line.push(' ');
                self.i += 1;
            }
        }
    }

    /// A plain (or byte) string literal: quotes stay in the code view,
    /// the content is masked and recorded.
    fn string(&mut self, raw: bool) {
        let line = self.out.code.len();
        let col = self.code_line.len();
        self.push_code('"');
        let mut text = String::new();
        while self.i < self.chars.len() {
            let c = self.chars[self.i];
            if c == '\\' && !raw {
                text.push(c);
                self.code_line.push(' ');
                self.i += 1;
                if let Some(e) = self.peek(0) {
                    text.push(e);
                    if e == '\n' {
                        self.newline_flush();
                        self.code_line.clear();
                    } else {
                        self.code_line.push(' ');
                    }
                    self.i += 1;
                }
            } else if c == '"' {
                self.push_code('"');
                break;
            } else if c == '\n' {
                text.push(c);
                self.newline();
            } else {
                text.push(c);
                self.code_line.push(' ');
                self.i += 1;
            }
        }
        self.out.strings.push(StrLit { line, col, text });
    }

    /// Whether the cursor sits on a raw/raw-byte string prefix
    /// (`r"`, `r#"`, `br"`, ...) rather than an identifier.
    fn raw_string_ahead(&self) -> bool {
        if self.prev_is_ident() {
            return false;
        }
        let mut j = self.i;
        if self.chars.get(j) == Some(&'b') {
            j += 1;
        }
        if self.chars.get(j) != Some(&'r') {
            return false;
        }
        j += 1;
        while self.chars.get(j) == Some(&'#') {
            j += 1;
        }
        self.chars.get(j) == Some(&'"')
    }

    fn raw_string(&mut self) {
        // Consume the prefix (`b`? `r` `#`*) into the code view.
        if self.chars[self.i] == 'b' {
            self.push_code('b');
        }
        self.push_code('r');
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            self.push_code('#');
            hashes += 1;
        }
        let line = self.out.code.len();
        let col = self.code_line.len();
        self.push_code('"');
        let mut text = String::new();
        while self.i < self.chars.len() {
            if self.chars[self.i] == '"' && self.hashes_follow(hashes) {
                self.push_code('"');
                for _ in 0..hashes {
                    self.push_code('#');
                }
                break;
            }
            let c = self.chars[self.i];
            if c == '\n' {
                text.push(c);
                self.newline();
            } else {
                text.push(c);
                self.code_line.push(' ');
                self.i += 1;
            }
        }
        self.out.strings.push(StrLit { line, col, text });
    }

    fn hashes_follow(&self, hashes: usize) -> bool {
        (1..=hashes).all(|k| self.peek(k) == Some('#'))
    }

    /// Disambiguates a char literal (`'x'`, `'\n'`, `'\u{1F600}'`) from
    /// a lifetime (`'a`, `'static`, `'_`): an escape or a close quote
    /// two ahead means char literal; anything else is a lifetime and
    /// passes through as code.
    fn char_or_lifetime(&mut self) {
        let is_char = match self.peek(1) {
            Some('\\') => true,
            Some(_) => self.peek(2) == Some('\''),
            None => false,
        };
        if !is_char {
            self.push_code('\'');
            return;
        }
        self.push_code('\'');
        while self.i < self.chars.len() && self.chars[self.i] != '\'' {
            if self.chars[self.i] == '\\' {
                self.code_line.push(' ');
                self.i += 1;
                if self.i < self.chars.len() {
                    self.code_line.push(' ');
                    self.i += 1;
                }
            } else {
                self.code_line.push(' ');
                self.i += 1;
            }
        }
        if self.peek(0) == Some('\'') {
            self.push_code('\'');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_masked_out_of_code() {
        let s = ScannedFile::scan(
            "let x = \"Instant::now\"; // Instant::now here too\nlet y = 1; /* SystemTime */\n",
        );
        assert!(!s.code[0].contains("Instant"));
        assert!(s.comments[0].contains("Instant::now"));
        assert!(!s.code[1].contains("SystemTime"));
        assert_eq!(s.strings.len(), 1);
        assert_eq!(s.strings[0].text, "Instant::now");
    }

    #[test]
    fn raw_strings_and_char_literals_do_not_derail_the_scan() {
        let src = "let a = r#\"no \" end // not a comment\"#;\nlet b = '\"';\nlet c = '{';\nlet real = 1; // tail\n";
        let s = ScannedFile::scan(src);
        assert!(
            s.comments[0].is_empty(),
            "raw string content is not a comment"
        );
        assert_eq!(s.strings[0].text, "no \" end // not a comment");
        assert!(!s.code[1].contains('"'), "char-literal quote is masked");
        assert!(!s.code[2].contains('{'), "char-literal brace is masked");
        assert!(s.comments[3].contains("tail"));
    }

    #[test]
    fn lifetimes_stay_in_the_code_view() {
        let s = ScannedFile::scan("impl<'a> Foo<'a> { fn f(&'a self) {} }\n");
        assert!(s.code[0].contains("'a"));
        assert!(s.strings.is_empty());
    }

    #[test]
    fn cfg_test_bodies_are_marked_and_declarations_are_not() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn live2() {}\n#[cfg(test)]\nmod out_of_line;\nfn live3() {}\n";
        let s = ScannedFile::scan(src);
        assert!(!s.is_test_line(0));
        assert!(s.is_test_line(2));
        assert!(s.is_test_line(3));
        assert!(s.is_test_line(4));
        assert!(!s.is_test_line(5));
        assert!(!s.is_test_line(8), "declaration-only mod skips nothing");
    }

    #[test]
    fn multiline_strings_keep_line_accounting_straight() {
        let src = "let x = \"line one\nline two\";\nlet y = 2; // after\n";
        let s = ScannedFile::scan(src);
        assert_eq!(s.code.len(), 3);
        assert!(s.comments[2].contains("after"));
        assert_eq!(s.strings[0].text, "line one\nline two");
    }
}
