//! A lightweight item parser on top of the [`crate::lexer`] token stream.
//!
//! The taint and reactor-safety passes need more structure than a flat
//! ident scan: function items with their parameter/return types, impl
//! blocks (so methods get qualified names), struct fields (so the type
//! taint closure can see plaintext-bearing containers), and the call
//! expressions inside each function body. The workspace has no crates.io
//! access, so `syn` is not an option; this parser recovers exactly the
//! shape those passes consume and nothing more.
//!
//! Coverage is a tested invariant: [`ParsedFile::fully_parsed`] must hold
//! for every `.rs` file in the workspace (see `tests/analysis.rs`), so a
//! construct this parser cannot handle fails CI instead of silently
//! dropping items from the call graph.

use crate::lexer::{LexedFile, Tok, Token};

/// One identifier appearing in a type position, with the root of its
/// path when the mention is `::`-qualified (`F::Event` → root `F`,
/// `psguard_model::Event` → root `psguard_model`, bare `Event` → none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeRef {
    /// The (final) identifier.
    pub ident: String,
    /// First segment of the path when qualified.
    pub root: Option<String>,
}

/// One function parameter: pattern binding names plus type identifiers.
#[derive(Debug, Clone, Default)]
pub struct Param {
    /// Names bound by the pattern (`mut buf` → `buf`; `(a, b)` → both).
    pub names: Vec<String>,
    /// Identifiers mentioned in the declared type. For a `self`
    /// receiver this is the enclosing impl's self type.
    pub ty: Vec<TypeRef>,
}

/// One call expression (or macro invocation) inside a statement.
#[derive(Debug, Clone)]
pub struct CallExpr {
    /// Callee name (method or function identifier, macro name).
    pub name: String,
    /// `Qual::name(..)` path qualifier, when present.
    pub qual: Option<String>,
    /// For method calls, the chain of idents before the final `.`
    /// (`slot.etx.send(..)` → `["slot", "etx"]`). Empty for free calls.
    pub receiver: Vec<String>,
    /// 1-based line of the callee token.
    pub line: u32,
    /// True for `name!(..)` macro invocations.
    pub is_macro: bool,
}

/// One approximate statement of a function body: the flat facts the
/// dataflow passes consume. Statements are split on `;` and block
/// boundaries; a `match` arm list may fold into one statement, which
/// only ever over-approximates taint.
#[derive(Debug, Clone, Default)]
pub struct Stmt {
    /// 1-based line of the first token.
    pub line: u32,
    /// Names bound by a `let` / `if let` / `for` pattern in this statement.
    pub lets: Vec<String>,
    /// Identifiers in a `let` type ascription.
    pub ty: Vec<TypeRef>,
    /// Calls and macro invocations, in order.
    pub calls: Vec<CallExpr>,
    /// Root identifiers referenced (receivers, arguments, plain uses) —
    /// excludes call/macro names and field/method names after `.`.
    pub atoms: Vec<String>,
    /// Identifiers passed as `&mut name` (mutated by the statement).
    pub mut_borrows: Vec<String>,
    /// String literal contents (format-string interpolation checks).
    pub strs: Vec<String>,
    /// Statement starts with `return`.
    pub is_return: bool,
    /// Statement was terminated by `;` (false for tail expressions).
    pub ends_semi: bool,
}

/// A parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing impl/trait self type, when any (`Conn::offer`).
    pub qual: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameters, in order.
    pub params: Vec<Param>,
    /// Identifiers in the declared return type (empty when none).
    pub ret: Vec<TypeRef>,
    /// Whether the signature declares `-> ...` at all.
    pub has_ret: bool,
    /// Body statements (empty for `;`-terminated declarations).
    pub stmts: Vec<Stmt>,
    /// Whether the `fn` keyword sits on a test-scoped line.
    pub is_test: bool,
    /// Whether the item is declared plain `pub` (`pub(crate)` and
    /// narrower are not public surface).
    pub is_pub: bool,
}

/// A struct/enum item and the type identifiers of its fields/payloads.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Type name.
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// Identifiers appearing in field (or enum payload) types.
    pub field_types: Vec<TypeRef>,
}

/// Everything recovered from one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Crate name derived from `crates/<name>/src/...`.
    pub crate_name: String,
    /// Function items, in source order.
    pub fns: Vec<FnItem>,
    /// Struct/enum items.
    pub structs: Vec<StructItem>,
    /// `fn`-keyword item starts seen.
    pub fn_keywords_seen: u32,
    /// Item starts successfully parsed into [`FnItem`]s.
    pub fns_parsed: u32,
}

impl ParsedFile {
    /// Whether every `fn` item start was parsed (the tested invariant).
    pub fn fully_parsed(&self) -> bool {
        self.fn_keywords_seen == self.fns_parsed
    }
}

/// One source file in all three representations the passes consume.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative `/`-separated path.
    pub rel: String,
    /// Token stream + per-line scope/marker info.
    pub lexed: LexedFile,
    /// Parsed items.
    pub parsed: ParsedFile,
}

/// Lexes and parses one file.
pub fn load(rel: &str, source: &str) -> SourceFile {
    let lexed = crate::lexer::lex(source);
    let parsed = parse(rel, &lexed);
    SourceFile {
        rel: rel.to_owned(),
        lexed,
        parsed,
    }
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "mut", "ref", "move", "fn", "pub", "impl", "trait", "struct", "enum", "mod", "use",
    "where", "dyn", "const", "static", "unsafe", "async", "await", "crate", "super", "type",
    "extern", "box", "true", "false", "union",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Parses one lexed file. `rel_path` is the workspace-relative path
/// (used for the crate name and carried through to findings).
pub fn parse(rel_path: &str, lexed: &LexedFile) -> ParsedFile {
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_owned();
    let mut out = ParsedFile {
        rel_path: rel_path.to_owned(),
        crate_name,
        ..ParsedFile::default()
    };
    let toks = &lexed.tokens;
    let n = toks.len();

    // Impl/trait context stack: (brace depth at which the block opened,
    // self-type name). The innermost frame qualifies `fn` items.
    let mut quals: Vec<(i32, String)> = Vec::new();
    let mut depth: i32 = 0;
    // Token spans of fn bodies, for nested-fn exclusion in stmt extraction.
    let mut body_spans: Vec<(usize, usize, usize)> = Vec::new(); // (fn idx, start, end)

    let mut i = 0usize;
    while i < n {
        match &toks[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                i += 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                while quals.last().is_some_and(|(d, _)| *d > depth) {
                    quals.pop();
                }
                i += 1;
            }
            Tok::Ident(kw) if kw == "impl" || kw == "trait" => {
                // Header runs to the block opener (or `;` for a marker
                // trait). Self type: last path ident before `{`, taken
                // after `for` when present (`impl Trait for Type`).
                let mut j = i + 1;
                let mut angle = 0i32;
                let mut last_ident: Option<String> = None;
                let mut after_for: Option<String> = None;
                let mut seen_for = false;
                let mut seen_where = false;
                while j < n {
                    match &toks[j].tok {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>')
                            if !matches!(
                                toks.get(j.wrapping_sub(1)).map(|t| &t.tok),
                                Some(Tok::Punct('-'))
                            ) =>
                        {
                            angle -= 1;
                        }
                        Tok::Punct('{') | Tok::Punct(';') if angle <= 0 => break,
                        Tok::Ident(s) if s == "for" && angle <= 0 => seen_for = true,
                        Tok::Ident(s) if s == "where" && angle <= 0 => {
                            // where clause: self type is already known.
                            seen_where = true;
                        }
                        Tok::Ident(s) if !is_keyword(s) && angle <= 0 && !seen_where => {
                            if seen_for {
                                if after_for.is_none() {
                                    after_for = Some(s.clone());
                                }
                            } else {
                                last_ident = Some(s.clone());
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(name) = after_for.or(last_ident) {
                    if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('{'))) {
                        quals.push((depth + 1, name));
                    }
                }
                i = j;
            }
            Tok::Ident(kw) if kw == "struct" || kw == "enum" => {
                i = parse_struct(&mut out, toks, i, kw == "enum");
            }
            Tok::Ident(kw) if kw == "fn" => {
                // Only item starts: `fn` followed by a name. (`fn(u32)`
                // pointer types and `Fn` trait bounds don't match.)
                if let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) {
                    if !is_keyword(name) {
                        out.fn_keywords_seen += 1;
                        let qual = quals.last().map(|(_, q)| q.clone());
                        match parse_fn_signature(toks, i, name.clone(), qual, lexed) {
                            Some((item, body, sig_end)) => {
                                out.fns_parsed += 1;
                                let idx = out.fns.len();
                                out.fns.push(item);
                                if let Some((bs, be)) = body {
                                    body_spans.push((idx, bs, be));
                                }
                                // Resume just past the signature; bodies
                                // are rescanned so nested items parse too.
                                i = sig_end;
                                continue;
                            }
                            None => {
                                i += 1;
                                continue;
                            }
                        }
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }

    // Statement extraction per body, excluding nested fn body spans.
    for k in 0..body_spans.len() {
        let (idx, start, end) = body_spans[k];
        let nested: Vec<(usize, usize)> = body_spans
            .iter()
            .filter(|(_, s, e)| *s > start && *e <= end)
            .map(|(_, s, e)| (*s, *e))
            .collect();
        out.fns[idx].stmts = extract_stmts(toks, start, end, &nested);
    }
    out
}

/// Parses a struct/enum item starting at the keyword; returns the token
/// index to resume from.
fn parse_struct(out: &mut ParsedFile, toks: &[Token], kw_idx: usize, is_enum: bool) -> usize {
    let n = toks.len();
    let name = match toks.get(kw_idx + 1).map(|t| &t.tok) {
        Some(Tok::Ident(s)) if !is_keyword(s) => s.clone(),
        _ => return kw_idx + 1,
    };
    let line = toks[kw_idx].line;
    let mut j = kw_idx + 2;
    let mut angle = 0i32;
    // Skip generics/bounds to the body opener or `;`.
    while j < n {
        match &toks[j].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>')
                if !matches!(toks.get(j - 1).map(|t| &t.tok), Some(Tok::Punct('-'))) =>
            {
                angle -= 1;
            }
            Tok::Punct('{') | Tok::Punct('(') if angle <= 0 => break,
            Tok::Punct(';') if angle <= 0 => {
                out.structs.push(StructItem {
                    name,
                    line,
                    field_types: Vec::new(),
                });
                return j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    if j >= n {
        return j;
    }
    let (open, close) = match toks[j].tok {
        Tok::Punct('(') => ('(', ')'),
        _ => ('{', '}'),
    };
    // Body: collect every type-position ident. For braced bodies, field
    // types sit between `:` and `,`; for tuple bodies everything inside
    // is a type. Enum payload types live inside variant parens/braces.
    // Collecting all non-keyword idents that are not field/variant names
    // (i.e. not immediately followed by `:` at field depth, for structs)
    // is precise enough for the type-taint closure; for enums, variant
    // names are included too, which is harmless.
    let mut depth = 0i32;
    let mut field_types = Vec::new();
    let body_start = j;
    while j < n {
        match &toks[j].tok {
            Tok::Punct(c) if *c == open => depth += 1,
            Tok::Punct(c) if *c == close => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            Tok::Ident(s) if !is_keyword(s) => {
                let is_field_name = !is_enum
                    && depth == 1
                    && matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
                    && !matches!(toks.get(j + 2).map(|t| &t.tok), Some(Tok::Punct(':')));
                let is_variant_name = is_enum
                    && depth == 1
                    && matches!(
                        toks.get(j + 1).map(|t| &t.tok),
                        Some(Tok::Punct('(') | Tok::Punct('{') | Tok::Punct(',') | Tok::Punct('='))
                    );
                if !is_field_name && !is_variant_name && j > body_start && !is_path_prefix(toks, j)
                {
                    field_types.push(type_ref_at(toks, j, s));
                }
            }
            _ => {}
        }
        j += 1;
    }
    out.structs.push(StructItem {
        name,
        line,
        field_types,
    });
    j
}

/// Identifiers captured inline by a format-style literal: `{ident}` or
/// `{ident:spec}`. `{{` escapes and positional/expression captures are
/// skipped.
fn format_captures(s: &str) -> Vec<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'{' {
            i += 1;
            continue;
        }
        if bytes.get(i + 1) == Some(&b'{') {
            i += 2; // `{{` literal brace
            continue;
        }
        let start = i + 1;
        let mut j = start;
        while j < bytes.len() && bytes[j] != b'}' && bytes[j] != b':' {
            j += 1;
        }
        let name = &s[start..j];
        let valid = !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if valid {
            out.push(name.to_owned());
        }
        i = j + 1;
    }
    out
}

/// Whether the ident at `j` is a path-prefix segment (`foo::` in
/// `foo::Bar`) rather than the final type name.
fn is_path_prefix(toks: &[Token], j: usize) -> bool {
    matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
        && matches!(toks.get(j + 2).map(|t| &t.tok), Some(Tok::Punct(':')))
}

/// Builds a [`TypeRef`] for the ident at `j`, resolving its path root by
/// walking back over `::` segments.
fn type_ref_at(toks: &[Token], j: usize, ident: &str) -> TypeRef {
    let mut root: Option<String> = None;
    let mut k = j;
    while k >= 2
        && matches!(toks[k - 1].tok, Tok::Punct(':'))
        && matches!(toks[k - 2].tok, Tok::Punct(':'))
    {
        // Walk over one `seg::` to its left; `::<` turbofish has no ident.
        if k >= 3 {
            if let Tok::Ident(seg) = &toks[k - 3].tok {
                root = Some(seg.clone());
                k -= 3;
                continue;
            }
        }
        break;
    }
    TypeRef {
        ident: ident.to_owned(),
        root,
    }
}

/// Parses an fn signature starting at the `fn` keyword. Returns the
/// item, the body token span when a `{ .. }` body exists, and the token
/// index just past the signature (the body opener or the `;`).
#[allow(clippy::type_complexity)]
fn parse_fn_signature(
    toks: &[Token],
    fn_idx: usize,
    name: String,
    qual: Option<String>,
    lexed: &LexedFile,
) -> Option<(FnItem, Option<(usize, usize)>, usize)> {
    let n = toks.len();
    let line = toks[fn_idx].line;
    let mut j = fn_idx + 2;

    // Generics.
    if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('<'))) {
        let mut angle = 0i32;
        while j < n {
            match &toks[j].tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>')
                    if !matches!(toks.get(j - 1).map(|t| &t.tok), Some(Tok::Punct('-'))) =>
                {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }

    // Parameter list.
    if !matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('('))) {
        return None;
    }
    let params_start = j + 1;
    let mut depth = 1i32;
    j += 1;
    while j < n && depth > 0 {
        match &toks[j].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    let params_end = j - 1; // index of the closing ')'
    let params = parse_params(toks, params_start, params_end, qual.as_deref());

    // Return type: `-> ...` until `{`, `;`, or `where` at angle depth 0.
    let mut ret = Vec::new();
    let mut has_ret = false;
    if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('-')))
        && matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('>')))
    {
        has_ret = true;
        j += 2;
        let mut angle = 0i32;
        while j < n {
            match &toks[j].tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>')
                    if !matches!(toks.get(j - 1).map(|t| &t.tok), Some(Tok::Punct('-'))) =>
                {
                    angle -= 1;
                }
                Tok::Punct('{') | Tok::Punct(';') if angle <= 0 => break,
                Tok::Ident(s) if s == "where" && angle <= 0 => break,
                Tok::Ident(s) if !is_keyword(s) => {
                    ret.push(type_ref_at(toks, j, s));
                }
                _ => {}
            }
            j += 1;
        }
    }

    // Where clause: skip to `{` or `;`.
    let mut angle = 0i32;
    while j < n {
        match &toks[j].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>')
                if !matches!(toks.get(j - 1).map(|t| &t.tok), Some(Tok::Punct('-'))) =>
            {
                angle -= 1;
            }
            Tok::Punct('{') | Tok::Punct(';') if angle <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    if j >= n {
        return None;
    }

    let (body, resume) = match toks[j].tok {
        Tok::Punct(';') => (None, j + 1),
        Tok::Punct('{') => {
            // Find the matching close for the span; resume at the opener
            // so the main loop counts its brace (keeping the impl
            // qualifier for the next method) and rescans nested items.
            let mut d = 1i32;
            let mut k = j + 1;
            while k < n && d > 0 {
                match &toks[k].tok {
                    Tok::Punct('{') => d += 1,
                    Tok::Punct('}') => d -= 1,
                    _ => {}
                }
                k += 1;
            }
            (Some((j + 1, k.saturating_sub(1))), j)
        }
        _ => return None,
    };

    let item = FnItem {
        name,
        qual,
        line,
        params,
        ret,
        has_ret,
        stmts: Vec::new(),
        is_test: lexed.is_test_line(line),
        is_pub: declared_pub(toks, fn_idx),
    };
    Some((item, body, resume))
}

/// Whether the `fn` keyword at `fn_idx` is preceded by a plain `pub`,
/// skipping the `const`/`async`/`unsafe`/`extern "abi"` qualifiers.
fn declared_pub(toks: &[Token], fn_idx: usize) -> bool {
    let mut k = fn_idx;
    while k > 0 {
        k -= 1;
        match &toks[k].tok {
            Tok::Ident(q) if matches!(q.as_str(), "const" | "async" | "unsafe" | "extern") => {}
            Tok::Str(_) => {}
            Tok::Ident(v) => return v == "pub",
            _ => return false,
        }
    }
    false
}

/// Parses the parameter list tokens in `[start, end)`, splitting on
/// top-level commas. `self_ty` substitutes the `self` receiver's type.
fn parse_params(toks: &[Token], start: usize, end: usize, self_ty: Option<&str>) -> Vec<Param> {
    let mut params = Vec::new();
    let mut piece_start = start;
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut j = start;
    while j <= end {
        let at_end = j == end;
        let split = at_end || (depth == 0 && angle <= 0 && matches!(toks[j].tok, Tok::Punct(',')));
        if split {
            if j > piece_start {
                if let Some(p) = parse_one_param(toks, piece_start, j, self_ty) {
                    params.push(p);
                }
            }
            piece_start = j + 1;
            if at_end {
                break;
            }
        } else {
            match &toks[j].tok {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>')
                    if !matches!(toks.get(j - 1).map(|t| &t.tok), Some(Tok::Punct('-'))) =>
                {
                    angle -= 1;
                }
                _ => {}
            }
        }
        j += 1;
    }
    params
}

/// One `pattern: type` parameter (or a `self` receiver).
fn parse_one_param(
    toks: &[Token],
    start: usize,
    end: usize,
    self_ty: Option<&str>,
) -> Option<Param> {
    // Top-level `:` (not `::`) splits pattern from type.
    let mut colon: Option<usize> = None;
    let mut depth = 0i32;
    for j in start..end {
        match &toks[j].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('<') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('>')
                if !matches!(toks.get(j - 1).map(|t| &t.tok), Some(Tok::Punct('-'))) =>
            {
                depth -= 1;
            }
            Tok::Punct(':') if depth == 0 => {
                let double = matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
                    || matches!(
                        toks.get(j.wrapping_sub(1)).map(|t| &t.tok),
                        Some(Tok::Punct(':'))
                    );
                if !double {
                    colon = Some(j);
                    break;
                }
            }
            _ => {}
        }
    }
    match colon {
        Some(c) => {
            let mut names = Vec::new();
            for t in &toks[start..c] {
                if let Tok::Ident(s) = &t.tok {
                    if !is_keyword(s) || s == "self" {
                        names.push(s.clone());
                    }
                }
            }
            let mut ty = Vec::new();
            for j in (c + 1)..end {
                if let Tok::Ident(s) = &toks[j].tok {
                    if s == "Self" {
                        if let Some(st) = self_ty {
                            ty.push(TypeRef {
                                ident: st.to_owned(),
                                root: None,
                            });
                        }
                    } else if !is_keyword(s) && !is_path_prefix(toks, j) {
                        ty.push(type_ref_at(toks, j, s));
                    }
                }
            }
            Some(Param { names, ty })
        }
        None => {
            // Receiver form: `self`, `&self`, `&mut self`, `mut self`.
            let is_self =
                (start..end).any(|j| matches!(&toks[j].tok, Tok::Ident(s) if s == "self"));
            if is_self {
                let ty = self_ty
                    .map(|st| {
                        vec![TypeRef {
                            ident: st.to_owned(),
                            root: None,
                        }]
                    })
                    .unwrap_or_default();
                Some(Param {
                    names: vec!["self".to_owned()],
                    ty,
                })
            } else {
                None
            }
        }
    }
}

/// Splits a body token span into [`Stmt`]s, skipping nested fn spans.
fn extract_stmts(toks: &[Token], start: usize, end: usize, nested: &[(usize, usize)]) -> Vec<Stmt> {
    let mut stmts = Vec::new();
    let mut cur = Stmt::default();
    let mut paren = 0i32;
    let mut in_let_pattern = false; // between `let` and `=`
    let mut in_for_pattern = false; // between `for` and `in`

    let flush = |cur: &mut Stmt, stmts: &mut Vec<Stmt>, semi: bool| {
        if cur.line != 0 {
            cur.ends_semi = semi;
            stmts.push(std::mem::take(cur));
        } else {
            *cur = Stmt::default();
        }
    };

    let mut j = start;
    while j < end {
        // Skip nested fn bodies (their own items cover them). Also skip
        // the nested fn's signature tokens: find a span starting ahead
        // and jump when we reach its `fn` keyword is not tracked, so we
        // conservatively skip only the body span itself.
        if let Some(&(_, ne)) = nested.iter().find(|(ns, _)| *ns == j) {
            j = ne + 1;
            continue;
        }
        let t = &toks[j];
        if cur.line == 0 {
            cur.line = t.line;
        }
        match &t.tok {
            Tok::Punct(';') if paren == 0 => {
                flush(&mut cur, &mut stmts, true);
                in_let_pattern = false;
                in_for_pattern = false;
            }
            Tok::Punct('{') | Tok::Punct('}') if paren == 0 => {
                flush(&mut cur, &mut stmts, false);
                in_let_pattern = false;
                in_for_pattern = false;
            }
            Tok::Punct('(') | Tok::Punct('[') => paren += 1,
            Tok::Punct(')') | Tok::Punct(']') => paren -= 1,
            Tok::Punct('=') if in_let_pattern => {
                // `=` (not `==`) ends the let pattern.
                let eq_next = matches!(toks.get(j + 1).map(|x| &x.tok), Some(Tok::Punct('=')));
                let eq_prev = matches!(
                    toks.get(j.wrapping_sub(1)).map(|x| &x.tok),
                    Some(Tok::Punct('='))
                );
                if !eq_next && !eq_prev {
                    in_let_pattern = false;
                }
            }
            Tok::Str(s) => {
                // Inline format captures (`"{ident}"`, `"{ident:?}"`)
                // reference bindings from inside the literal; surface
                // them as atoms so dataflow sees the mention.
                for cap in format_captures(s) {
                    cur.atoms.push(cap);
                }
                cur.strs.push(s.clone());
            }
            Tok::Ident(s) => {
                let next = toks.get(j + 1).map(|x| &x.tok);
                let prev = if j > 0 { Some(&toks[j - 1].tok) } else { None };
                if s == "let" {
                    in_let_pattern = true;
                } else if s == "for"
                    && !matches!(next, Some(Tok::Punct('<')))
                    && !matches!(prev, Some(Tok::Ident(p)) if p == "impl")
                {
                    in_for_pattern = true;
                } else if s == "in" {
                    in_for_pattern = false;
                } else if s == "return" {
                    cur.is_return = true;
                } else if !is_keyword(s) || s == "self" {
                    let followed_by_paren = matches!(next, Some(Tok::Punct('(')));
                    let followed_by_bang = matches!(next, Some(Tok::Punct('!')));
                    let after_dot = matches!(prev, Some(Tok::Punct('.')));
                    let turbofish_call = matches!(next, Some(Tok::Punct(':')))
                        && matches!(toks.get(j + 2).map(|x| &x.tok), Some(Tok::Punct(':')))
                        && matches!(toks.get(j + 3).map(|x| &x.tok), Some(Tok::Punct('<')))
                        && turbofish_is_call(toks, j + 3, end);

                    if (in_let_pattern || in_for_pattern) && !followed_by_paren {
                        if s != "self" {
                            cur.lets.push(s.clone());
                        }
                        if in_let_pattern {
                            // A `let x: Ty = ..` ascription: idents after
                            // `:` until `=` land here too; route them to
                            // `ty` when they follow a top-level colon.
                        }
                    } else if followed_by_bang {
                        // Macro invocation.
                        cur.calls.push(CallExpr {
                            name: s.clone(),
                            qual: None,
                            receiver: Vec::new(),
                            line: t.line,
                            is_macro: true,
                        });
                    } else if followed_by_paren || turbofish_call {
                        if !matches!(next, Some(Tok::Punct('('))) || !after_dot {
                            // Free/assoc call: qualifier from the path.
                        }
                        let qual = call_qualifier(toks, j);
                        let receiver = if after_dot {
                            receiver_chain(toks, j, &mut cur)
                        } else {
                            Vec::new()
                        };
                        cur.calls.push(CallExpr {
                            name: s.clone(),
                            qual,
                            receiver,
                            line: t.line,
                            is_macro: false,
                        });
                    } else if after_dot {
                        // Field access / method name without call — skip.
                    } else {
                        let qualifies_next = matches!(next, Some(Tok::Punct(':')))
                            && matches!(toks.get(j + 2).map(|x| &x.tok), Some(Tok::Punct(':')));
                        if !qualifies_next {
                            cur.atoms.push(s.clone());
                            let amp_mut = j >= 2
                                && matches!(&toks[j - 1].tok, Tok::Ident(m) if m == "mut")
                                && matches!(&toks[j - 2].tok, Tok::Punct('&'));
                            if amp_mut {
                                cur.mut_borrows.push(s.clone());
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    flush(&mut cur, &mut stmts, false);
    stmts
}

/// Whether `name::<...>` at the `<` position closes and is followed by
/// `(` — a turbofish call.
fn turbofish_is_call(toks: &[Token], lt: usize, end: usize) -> bool {
    let mut angle = 0i32;
    let mut j = lt;
    while j < end {
        match &toks[j].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>')
                if !matches!(toks.get(j - 1).map(|t| &t.tok), Some(Tok::Punct('-'))) =>
            {
                angle -= 1;
                if angle == 0 {
                    return matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('(')));
                }
            }
            Tok::Punct(';') | Tok::Punct('{') => return false,
            _ => {}
        }
        j += 1;
    }
    false
}

/// Path qualifier of a call: for `A::B::name(..)` returns the segment
/// immediately before the name (`B`).
fn call_qualifier(toks: &[Token], name_idx: usize) -> Option<String> {
    if name_idx >= 3
        && matches!(toks[name_idx - 1].tok, Tok::Punct(':'))
        && matches!(toks[name_idx - 2].tok, Tok::Punct(':'))
    {
        if let Tok::Ident(q) = &toks[name_idx - 3].tok {
            return Some(q.clone());
        }
    }
    None
}

/// For a method call `a.b.name(..)`, walks back over the `.`-chain and
/// returns the ident links (`["a", "b"]`). Chains rooted in a call
/// result (`f().name(..)`) return whatever trailing idents exist.
/// The chain's idents also count as atoms of the statement.
fn receiver_chain(toks: &[Token], name_idx: usize, cur: &mut Stmt) -> Vec<String> {
    let mut chain = Vec::new();
    let mut j = name_idx;
    // Invariant: toks[j] is an ident preceded by `.` (checked by caller
    // for the first step).
    loop {
        if j < 2 || !matches!(toks[j - 1].tok, Tok::Punct('.')) {
            break;
        }
        match &toks[j - 2].tok {
            Tok::Ident(s) if !is_keyword(s) || s == "self" => {
                chain.push(s.clone());
                j -= 2;
            }
            _ => break,
        }
    }
    chain.reverse();
    for link in &chain {
        cur.atoms.push(link.clone());
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse("crates/demo/src/lib.rs", &lex(src))
    }

    #[test]
    fn every_method_of_an_impl_keeps_its_qualifier() {
        let f = parse_src(
            "impl<F> Engine<F> where F: Eq {\n  pub fn a(&self) {}\n  pub fn b(&self) {}\n}\n\
             impl Pool {\n  fn c() { let x = 1; }\n  fn d() {}\n}\n",
        );
        let quals: Vec<(&str, Option<&str>)> = f
            .fns
            .iter()
            .map(|i| (i.name.as_str(), i.qual.as_deref()))
            .collect();
        assert_eq!(
            quals,
            vec![
                ("a", Some("Engine")),
                ("b", Some("Engine")),
                ("c", Some("Pool")),
                ("d", Some("Pool"))
            ]
        );
    }

    #[test]
    fn visibility_flag_is_plain_pub_only() {
        let f = parse_src(
            "pub fn a() {}\npub const unsafe fn b() {}\npub(crate) fn c() {}\nfn d() {}\n\
             pub extern \"C\" fn e() {}\nimpl T for S { fn f(&self) {} }\n",
        );
        let public: Vec<(&str, bool)> = f.fns.iter().map(|i| (i.name.as_str(), i.is_pub)).collect();
        assert_eq!(
            public,
            vec![
                ("a", true),
                ("b", true),
                ("c", false),
                ("d", false),
                ("e", true),
                ("f", false)
            ]
        );
    }

    #[test]
    fn simple_fn_with_params_and_ret() {
        let p = parse_src("pub fn seal(event: &Event, epoch: u64) -> SecureEvent { todo() }\n");
        assert!(p.fully_parsed());
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "seal");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].names, vec!["event"]);
        assert_eq!(f.params[0].ty[0].ident, "Event");
        assert_eq!(f.ret[0].ident, "SecureEvent");
    }

    #[test]
    fn impl_methods_get_qualified_and_self_typed() {
        let p = parse_src(
            "impl Conn {\n  pub fn offer(&self, frame: SharedFrame) -> bool { true }\n}\n\
             impl std::fmt::Debug for Redacted {\n  fn fmt(&self) {}\n}\n",
        );
        assert!(p.fully_parsed());
        assert_eq!(p.fns[0].qual.as_deref(), Some("Conn"));
        assert_eq!(p.fns[0].params[0].ty[0].ident, "Conn");
        assert_eq!(p.fns[1].qual.as_deref(), Some("Redacted"));
    }

    #[test]
    fn generic_fn_with_where_clause() {
        let p = parse_src(
            "fn run<F>(rx: Receiver<WorkerMsg>, tx: Sender<Input<F>>)\nwhere\n  F: Clone,\n\
             F::Event: Wire,\n{ let x = rx.try_recv(); }\n",
        );
        assert!(p.fully_parsed());
        let f = &p.fns[0];
        assert_eq!(f.params.len(), 2);
        assert!(f.params[0].ty.iter().any(|t| t.ident == "WorkerMsg"));
        assert_eq!(f.stmts.len(), 1);
        assert_eq!(f.stmts[0].calls[0].name, "try_recv");
        assert_eq!(f.stmts[0].calls[0].receiver, vec!["rx"]);
    }

    #[test]
    fn qualified_type_refs_carry_roots() {
        let p = parse_src("fn f(e: &psguard_model::Event, g: F::Event) {}\n");
        let f = &p.fns[0];
        assert_eq!(f.params[0].ty[0].root.as_deref(), Some("psguard_model"));
        assert_eq!(f.params[1].ty[0].root.as_deref(), Some("F"));
    }

    #[test]
    fn calls_atoms_lets_and_mut_borrows() {
        let p = parse_src(
            "fn f(event: &Event) {\n  let bytes = event.payload();\n  \
             encode_into(&mut buf, bytes);\n  helper(Event::builder(\"t\"));\n}\n",
        );
        let f = &p.fns[0];
        assert_eq!(f.stmts.len(), 3);
        assert_eq!(f.stmts[0].lets, vec!["bytes"]);
        assert_eq!(f.stmts[0].calls[0].receiver, vec!["event"]);
        assert!(f.stmts[1].mut_borrows.contains(&"buf".to_owned()));
        let s2 = &f.stmts[2];
        assert!(s2
            .calls
            .iter()
            .any(|c| c.name == "builder" && c.qual.as_deref() == Some("Event")));
    }

    #[test]
    fn nested_fns_parse_and_do_not_leak_stmts() {
        let p = parse_src(
            "fn outer() {\n  inner_call();\n  fn inner(x: u32) { deep_call(); }\n  after();\n}\n",
        );
        assert!(p.fully_parsed());
        assert_eq!(p.fns.len(), 2);
        let outer = p.fns.iter().find(|f| f.name == "outer").expect("outer");
        let names: Vec<&str> = outer
            .stmts
            .iter()
            .flat_map(|s| s.calls.iter().map(|c| c.name.as_str()))
            .collect();
        assert!(names.contains(&"inner_call"));
        assert!(names.contains(&"after"));
        assert!(!names.contains(&"deep_call"));
        let inner = p.fns.iter().find(|f| f.name == "inner").expect("inner");
        assert_eq!(inner.stmts[0].calls[0].name, "deep_call");
    }

    #[test]
    fn struct_fields_collected() {
        let p = parse_src(
            "pub struct Slot {\n  pub event: Event,\n  count: usize,\n}\n\
             struct Pair(Filter, u32);\nstruct Marker;\n",
        );
        assert_eq!(p.structs.len(), 3);
        assert!(p.structs[0].field_types.iter().any(|t| t.ident == "Event"));
        assert!(p.structs[1].field_types.iter().any(|t| t.ident == "Filter"));
        assert!(p.structs[2].field_types.is_empty());
    }

    #[test]
    fn trait_decl_and_fn_pointer_types_do_not_break_coverage() {
        let p = parse_src(
            "pub trait Poller {\n  fn wait(&mut self, out: &mut Vec<u32>);\n}\n\
             fn take(cb: fn(u32) -> bool) -> impl Fn(u32) { move |x| cb(x) }\n",
        );
        assert!(p.fully_parsed(), "{p:?}");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].qual.as_deref(), Some("Poller"));
    }

    #[test]
    fn if_let_and_for_patterns_bind() {
        let p = parse_src(
            "fn f(events: Vec<Event>) {\n  for e in events { use_it(e); }\n  \
             if let Some(m) = next() { use_it(m); }\n}\n",
        );
        let f = &p.fns[0];
        let all_lets: Vec<&str> = f
            .stmts
            .iter()
            .flat_map(|s| s.lets.iter().map(|x| x.as_str()))
            .collect();
        assert!(all_lets.contains(&"e"), "{all_lets:?}");
        assert!(all_lets.contains(&"m"), "{all_lets:?}");
    }

    #[test]
    fn turbofish_calls_are_calls() {
        let p = parse_src("fn f() { let (tx, rx) = bounded::<Event>(4); }\n");
        let f = &p.fns[0];
        assert!(f.stmts[0].calls.iter().any(|c| c.name == "bounded"));
        assert_eq!(f.stmts[0].lets, vec!["tx", "rx"]);
    }
}
