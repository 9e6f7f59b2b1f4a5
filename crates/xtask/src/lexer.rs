//! A hand-rolled, line-aware Rust lexer.
//!
//! The workspace has no crates.io access, so `syn` is not an option. The
//! rules in this tool only need a token stream that is faithful about the
//! things a regex gets wrong:
//!
//! * string literals (plain, raw, byte, raw-byte) — their *contents* are
//!   kept for the format-interpolation rule but never mistaken for code;
//! * comments (line, nested block) — stripped, except that the
//!   `PANIC-OK:`, `SPAWN-OK:`, `TAINT-OK:`, `BLOCKING-OK:` and
//!   `DEAD-PUB-OK:` justification markers are remembered per line;
//! * char literals vs. lifetimes;
//! * `#[cfg(test)]` / `#[test]` attributes and `mod tests` blocks, whose
//!   enclosed lines are marked as test-scoped.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword.
    Ident(String),
    /// A string literal's cooked content (escapes left verbatim).
    Str(String),
    /// A character or byte literal.
    Char,
    /// A numeric literal.
    Num,
    /// A single punctuation character.
    Punct(char),
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// A lexed source file with per-line scope information.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// The token stream, comments and whitespace removed.
    pub tokens: Vec<Token>,
    /// `test_lines[n]` (1-based) is true when line `n` is inside test-only
    /// code (`#[cfg(test)]` items, `#[test]` functions, `mod tests`).
    pub test_lines: Vec<bool>,
    /// `panic_ok_lines[n]` is true when line `n` carries a
    /// `// PANIC-OK: <justification>` comment.
    pub panic_ok_lines: Vec<bool>,
    /// `spawn_ok_lines[n]` is true when line `n` carries a
    /// `// SPAWN-OK: <justification>` comment.
    pub spawn_ok_lines: Vec<bool>,
    /// `taint_ok_lines[n]` is true when line `n` carries a
    /// `// TAINT-OK: <justification>` comment.
    pub taint_ok_lines: Vec<bool>,
    /// `blocking_ok_lines[n]` is true when line `n` carries a
    /// `// BLOCKING-OK: <justification>` comment.
    pub blocking_ok_lines: Vec<bool>,
    /// `dead_pub_ok_lines[n]` is true when line `n` carries a
    /// `// DEAD-PUB-OK: <reason>` comment with a non-empty reason.
    pub dead_pub_ok_lines: Vec<bool>,
}

impl LexedFile {
    /// Whether the given 1-based line is test-scoped.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.get(line as usize).copied().unwrap_or(false)
    }

    /// Whether the given 1-based line carries a PANIC-OK justification.
    pub fn is_panic_ok_line(&self, line: u32) -> bool {
        self.panic_ok_lines
            .get(line as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Whether the given 1-based line, or one of the two lines above it,
    /// carries a SPAWN-OK justification. The window exists because the
    /// justification conventionally sits in a (possibly two-line)
    /// comment immediately above the `spawn` call.
    pub fn is_spawn_ok_near(&self, line: u32) -> bool {
        (line.saturating_sub(2)..=line).any(|l| {
            self.spawn_ok_lines
                .get(l as usize)
                .copied()
                .unwrap_or(false)
        })
    }

    /// Whether the given 1-based line, or one of the two lines above it,
    /// carries a TAINT-OK justification (same window convention as
    /// SPAWN-OK: the comment sits on or just above the flagged call).
    pub fn is_taint_ok_near(&self, line: u32) -> bool {
        (line.saturating_sub(2)..=line).any(|l| {
            self.taint_ok_lines
                .get(l as usize)
                .copied()
                .unwrap_or(false)
        })
    }

    /// Whether the given 1-based line, or one of the two lines above it,
    /// carries a BLOCKING-OK justification.
    pub fn is_blocking_ok_near(&self, line: u32) -> bool {
        (line.saturating_sub(2)..=line).any(|l| {
            self.blocking_ok_lines
                .get(l as usize)
                .copied()
                .unwrap_or(false)
        })
    }

    /// Whether the given 1-based line, or one of the two lines above it,
    /// carries a DEAD-PUB-OK reason (the comment sits just above the
    /// kept `pub fn`).
    pub fn is_dead_pub_ok_near(&self, line: u32) -> bool {
        (line.saturating_sub(2)..=line).any(|l| {
            self.dead_pub_ok_lines
                .get(l as usize)
                .copied()
                .unwrap_or(false)
        })
    }
}

/// Lexes a whole source file.
pub fn lex(source: &str) -> LexedFile {
    let chars: Vec<char> = source.chars().collect();
    let line_count = source.lines().count() + 1;
    let mut out = LexedFile {
        tokens: Vec::new(),
        test_lines: vec![false; line_count + 1],
        panic_ok_lines: vec![false; line_count + 1],
        spawn_ok_lines: vec![false; line_count + 1],
        taint_ok_lines: vec![false; line_count + 1],
        blocking_ok_lines: vec![false; line_count + 1],
        dead_pub_ok_lines: vec![false; line_count + 1],
    };

    let mut i = 0usize;
    let mut line: u32 = 1;
    let n = chars.len();
    let at = |idx: usize| -> char {
        if idx < n {
            chars[idx]
        } else {
            '\0'
        }
    };

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if at(i + 1) == '/' => {
                // Line comment; remember the justification markers.
                let start = i;
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
                let comment: String = chars[start..i].iter().collect();
                if comment.contains("PANIC-OK:") {
                    if let Some(slot) = out.panic_ok_lines.get_mut(line as usize) {
                        *slot = true;
                    }
                }
                if comment.contains("SPAWN-OK:") {
                    if let Some(slot) = out.spawn_ok_lines.get_mut(line as usize) {
                        *slot = true;
                    }
                }
                if comment.contains("TAINT-OK:") {
                    if let Some(slot) = out.taint_ok_lines.get_mut(line as usize) {
                        *slot = true;
                    }
                }
                if comment.contains("BLOCKING-OK:") {
                    if let Some(slot) = out.blocking_ok_lines.get_mut(line as usize) {
                        *slot = true;
                    }
                }
                let dead_pub_reason = comment
                    .split_once("DEAD-PUB-OK:")
                    .is_some_and(|(_, reason)| !reason.trim().is_empty());
                if dead_pub_reason {
                    if let Some(slot) = out.dead_pub_ok_lines.get_mut(line as usize) {
                        *slot = true;
                    }
                }
            }
            '/' if at(i + 1) == '*' => {
                // Nested block comment.
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && at(i + 1) == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && at(i + 1) == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let tok_line = line;
                let (content, next, nl) = lex_string(&chars, i + 1);
                out.tokens.push(Token {
                    tok: Tok::Str(content),
                    line: tok_line,
                });
                line += nl;
                i = next;
            }
            'r' | 'b' if is_string_prefix(&chars, i) => {
                let tok_line = line;
                let (tok, next, nl) = lex_prefixed_literal(&chars, i);
                out.tokens.push(Token {
                    tok,
                    line: tok_line,
                });
                line += nl;
                i = next;
            }
            '\'' => {
                // Char literal or lifetime.
                if at(i + 1) == '\\' {
                    // Escaped char literal: consume to closing quote.
                    i += 2;
                    while i < n && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                    out.tokens.push(Token {
                        tok: Tok::Char,
                        line,
                    });
                } else if at(i + 2) == '\'' {
                    i += 3;
                    out.tokens.push(Token {
                        tok: Tok::Char,
                        line,
                    });
                } else {
                    // Lifetime: skip the quote and the label.
                    i += 1;
                    while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let ident: String = chars[start..i].iter().collect();
                out.tokens.push(Token {
                    tok: Tok::Ident(ident),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                // Float continuation: `1.5`, but not `1.max(..)`.
                if at(i) == '.' && at(i + 1).is_ascii_digit() {
                    i += 1;
                    while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
                out.tokens.push(Token {
                    tok: Tok::Num,
                    line,
                });
            }
            other => {
                out.tokens.push(Token {
                    tok: Tok::Punct(other),
                    line,
                });
                i += 1;
            }
        }
    }

    mark_test_scopes(&mut out);
    out
}

/// Whether position `i` starts a raw/byte string or byte-char prefix
/// (`r"`, `r#"`, `b"`, `br"`, `b'`, ...), as opposed to a plain identifier.
fn is_string_prefix(chars: &[char], i: usize) -> bool {
    let n = chars.len();
    let at = |idx: usize| -> char {
        if idx < n {
            chars[idx]
        } else {
            '\0'
        }
    };
    // Previous char must not be part of an identifier (else this is the
    // tail of e.g. `attr` or `sub`).
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return false;
    }
    match chars[i] {
        'r' => at(i + 1) == '"' || (at(i + 1) == '#' && (at(i + 2) == '"' || at(i + 2) == '#')),
        'b' => {
            at(i + 1) == '"'
                || at(i + 1) == '\''
                || (at(i + 1) == 'r' && (at(i + 2) == '"' || at(i + 2) == '#'))
        }
        _ => false,
    }
}

/// Lexes a plain `"..."` string starting *after* the opening quote.
/// Returns (content, next index, newlines consumed).
fn lex_string(chars: &[char], mut i: usize) -> (String, usize, u32) {
    let n = chars.len();
    let mut content = String::new();
    let mut newlines = 0u32;
    while i < n {
        match chars[i] {
            '\\' => {
                content.push('\\');
                if i + 1 < n {
                    content.push(chars[i + 1]);
                    if chars[i + 1] == '\n' {
                        newlines += 1;
                    }
                }
                i += 2;
            }
            '"' => return (content, i + 1, newlines),
            c => {
                if c == '\n' {
                    newlines += 1;
                }
                content.push(c);
                i += 1;
            }
        }
    }
    (content, i, newlines)
}

/// Lexes an `r`/`b`-prefixed literal starting at the prefix.
fn lex_prefixed_literal(chars: &[char], mut i: usize) -> (Tok, usize, u32) {
    let n = chars.len();
    let at = |idx: usize| -> char {
        if idx < n {
            chars[idx]
        } else {
            '\0'
        }
    };
    let mut raw = false;
    if chars[i] == 'b' {
        i += 1;
    }
    if at(i) == 'r' {
        raw = true;
        i += 1;
    }
    if at(i) == '\'' {
        // Byte char literal b'x' / b'\n'.
        i += 1;
        if at(i) == '\\' {
            i += 1;
        }
        i += 1;
        while i < n && chars[i] != '\'' {
            i += 1;
        }
        return (Tok::Char, i + 1, 0);
    }
    let mut hashes = 0usize;
    while at(i) == '#' {
        hashes += 1;
        i += 1;
    }
    if at(i) != '"' {
        // `r#ident` raw identifier: lex the identifier.
        let start = i;
        let mut j = i;
        while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
        let ident: String = chars[start..j].iter().collect();
        return (Tok::Ident(ident), j, 0);
    }
    i += 1; // opening quote
    let mut content = String::new();
    let mut newlines = 0u32;
    while i < n {
        if chars[i] == '"' && !raw {
            return (Tok::Str(content), i + 1, newlines);
        }
        if chars[i] == '"' && raw {
            // Need `hashes` following '#'s to close.
            let mut ok = true;
            for k in 0..hashes {
                if at(i + 1 + k) != '#' {
                    ok = false;
                    break;
                }
            }
            if ok {
                return (Tok::Str(content), i + 1 + hashes, newlines);
            }
        }
        if chars[i] == '\\' && !raw {
            content.push('\\');
            if i + 1 < n {
                content.push(chars[i + 1]);
                if chars[i + 1] == '\n' {
                    newlines += 1;
                }
            }
            i += 2;
            continue;
        }
        if chars[i] == '\n' {
            newlines += 1;
        }
        content.push(chars[i]);
        i += 1;
    }
    (Tok::Str(content), i, newlines)
}

/// Marks lines belonging to test-only items: `#[cfg(test)]` / `#[test]`
/// attributed items and `mod tests { .. }` blocks.
fn mark_test_scopes(file: &mut LexedFile) {
    let toks = &file.tokens;
    let n = toks.len();
    let mut spans: Vec<(u32, u32)> = Vec::new();
    let mut i = 0usize;
    while i < n {
        match &toks[i].tok {
            Tok::Punct('#') if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('['))) => {
                // Collect the attribute's identifiers up to the matching ']'.
                let mut j = i + 2;
                let mut depth = 1usize;
                let mut idents: Vec<&str> = Vec::new();
                while j < n && depth > 0 {
                    match &toks[j].tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') => depth -= 1,
                        Tok::Ident(s) => idents.push(s.as_str()),
                        _ => {}
                    }
                    j += 1;
                }
                let is_test_attr = idents.contains(&"test") && !idents.contains(&"not");
                if is_test_attr {
                    if let Some(span) = item_block_span(toks, j) {
                        spans.push(span);
                        i = j;
                        continue;
                    }
                }
                i = j;
            }
            Tok::Ident(m) if m == "mod" => {
                if let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) {
                    let testish = name == "tests" || name == "test" || name.ends_with("_tests");
                    if testish {
                        if let Some(span) = item_block_span(toks, i + 2) {
                            spans.push(span);
                        }
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    for (lo, hi) in spans {
        for l in lo..=hi {
            if let Some(slot) = file.test_lines.get_mut(l as usize) {
                *slot = true;
            }
        }
    }
}

/// From token index `start` (just after an attribute or `mod name`), finds
/// the item's `{ .. }` block and returns its (first, last) line span.
/// Returns `None` when a `;` ends the item before any block opens.
fn item_block_span(toks: &[Token], start: usize) -> Option<(u32, u32)> {
    let n = toks.len();
    let mut i = start;
    // Skip any further attributes.
    loop {
        match toks.get(i).map(|t| &t.tok) {
            Some(Tok::Punct('#'))
                if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('['))) =>
            {
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    match &toks[i].tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') => depth -= 1,
                        _ => {}
                    }
                    i += 1;
                }
            }
            _ => break,
        }
    }
    // Find the block opener; bail on a semicolon item.
    while i < n {
        match &toks[i].tok {
            Tok::Punct(';') => return None,
            Tok::Punct('{') => {
                let first = toks[i].line;
                let mut depth = 1usize;
                let mut j = i + 1;
                let mut last = first;
                while j < n && depth > 0 {
                    match &toks[j].tok {
                        Tok::Punct('{') => depth += 1,
                        Tok::Punct('}') => depth -= 1,
                        _ => {}
                    }
                    last = toks[j].line;
                    j += 1;
                }
                return Some((first, last));
            }
            _ => i += 1,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        let src = r##"
// unwrap in a comment
/* panic! in /* a nested */ block */
let s = "call .unwrap() here";
let r = r#"panic!("raw")"#;
let real = value;
"##;
        let ids = idents(src);
        assert!(!ids.iter().any(|s| s == "unwrap"));
        assert!(!ids.iter().any(|s| s == "panic"));
        assert!(ids.iter().any(|s| s == "real"));
    }

    #[test]
    fn string_contents_are_preserved() {
        let f = lex(r#"println!("leak {master_key}");"#);
        let strs: Vec<&str> = f
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["leak {master_key}"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let chars = f
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Char))
            .count();
        assert_eq!(chars, 1);
    }

    #[test]
    fn cfg_test_mod_is_test_scoped() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let f = lex(src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(4));
    }

    #[test]
    fn cfg_not_test_is_not_test_scoped() {
        let src = "#[cfg(not(test))]\nmod real {\n    fn f() {}\n}\n";
        let f = lex(src);
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn cfg_test_use_item_does_not_swallow_rest_of_file() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn lib() { x.unwrap(); }\n";
        let f = lex(src);
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn panic_ok_marker_is_line_scoped() {
        let src = "let a = x.unwrap(); // PANIC-OK: statically sized\nlet b = y.unwrap();\n";
        let f = lex(src);
        assert!(f.is_panic_ok_line(1));
        assert!(!f.is_panic_ok_line(2));
    }

    #[test]
    fn spawn_ok_marker_covers_a_short_window_below() {
        let src = "// SPAWN-OK: fixed pool sized once\n// at startup, not per connection.\nstd::thread::spawn(f);\nstd::thread::spawn(g);\n";
        let f = lex(src);
        assert!(f.is_spawn_ok_near(3), "marker two lines above applies");
        assert!(
            !f.is_spawn_ok_near(4),
            "a marker must not leak past its window"
        );
    }

    #[test]
    fn dead_pub_ok_marker_needs_a_reason() {
        let src = "// DEAD-PUB-OK: reference for the batch proptest\npub fn a() {}\n\
                   // DEAD-PUB-OK:\npub fn b() {}\n";
        let f = lex(src);
        assert!(f.is_dead_pub_ok_near(2));
        assert!(!f.is_dead_pub_ok_near(4), "an empty reason does not count");
    }

    #[test]
    fn byte_and_raw_literals() {
        let f = lex(r##"let a = b"bytes"; let c = b'x'; let d = br#"raw"#;"##);
        let strs = f
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Str(_)))
            .count();
        assert_eq!(strs, 2);
        let chars = f
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Char))
            .count();
        assert_eq!(chars, 1);
    }
}
