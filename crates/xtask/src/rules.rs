//! The rule families: secret hygiene, panic-freedom, sim determinism,
//! hot-path allocation, thread-per-connection and the unsafe island.
//! Each rule takes a lexed file plus its workspace-relative path and
//! emits [`Finding`]s.

use crate::config;
use crate::lexer::{LexedFile, Tok};

/// Which rule family produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Key material reachable from Debug/Display/Serialize or a format
    /// string.
    SecretHygiene,
    /// `unwrap()`/`expect(`/panicking macro on a non-test library path.
    PanicFreedom,
    /// Wall clock, sleep, or OS randomness inside the deterministic
    /// simulator's scope.
    SimDeterminism,
    /// A per-call allocating serialization (`.to_bytes()` / `.to_vec()`)
    /// on a dissemination hot path that must encode through the
    /// `FramePool` instead.
    HotPathAlloc,
    /// A `thread::spawn` inside the reactor transport without a
    /// `// SPAWN-OK:` justification. The reactor's contract is a fixed
    /// thread count decided at spawn time; an unmarked spawn is a
    /// regression toward thread-per-connection.
    ThreadPerConnection,
    /// The plaintext event model (or its wire codec) referenced inside
    /// the durable log. The log stores already-encoded opaque bytes —
    /// that is what makes it encrypted-at-rest for free under the
    /// honest-but-curious broker; (de)serializing `Event` there puts
    /// structured plaintext on the disk path. Emitted by the taint
    /// pass's scope backstop ([`crate::taint`]).
    CiphertextAtRest,
    /// An interprocedural plaintext→sink flow found by the taint pass:
    /// a plaintext model value originates (constructor or
    /// plaintext-returning call) and reaches a broker-visible sink
    /// (socket/frame write, log write, format macro) without passing a
    /// sanitizer. See [`crate::taint`] and DESIGN.md §17.
    ConfidentialityTaint,
    /// A blocking operation (bounded-channel `send`, bare `recv`,
    /// `thread::sleep`) reachable from a reactor entry point. See
    /// [`crate::reactor_safety`].
    ReactorBlocking,
    /// Two reactor components with blocking bounded sends toward each
    /// other — a deadlock candidate. See [`crate::reactor_safety`].
    ChannelCycle,
    /// A workspace crate that does not inherit `[workspace.lints]`
    /// (and is not a sanctioned unsafe-audit override). See
    /// [`crate::manifests`].
    LintsInheritance,
    /// A `pub fn` that no shipped code uses, or a `// DEAD-PUB-OK:`
    /// marker on one that is used. See [`crate::dead_pub`].
    DeadPub,
    /// An attribute relaxing the `unsafe_code` lint (`allow`, `expect`
    /// or `warn`) outside the audited files in
    /// [`config::UNSAFE_ISLANDS`]. A crate that lints `deny` would
    /// otherwise admit `unsafe` wherever someone adds an `#[allow]`.
    UnsafeIsland,
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rule::SecretHygiene => f.write_str("secret-hygiene"),
            Rule::PanicFreedom => f.write_str("panic-freedom"),
            Rule::SimDeterminism => f.write_str("sim-determinism"),
            Rule::HotPathAlloc => f.write_str("hot-path-alloc"),
            Rule::ThreadPerConnection => f.write_str("thread-per-connection"),
            Rule::CiphertextAtRest => f.write_str("ciphertext-at-rest"),
            Rule::ConfidentialityTaint => f.write_str("confidentiality-taint"),
            Rule::ReactorBlocking => f.write_str("reactor-blocking"),
            Rule::ChannelCycle => f.write_str("channel-cycle"),
            Rule::LintsInheritance => f.write_str("lints-inheritance"),
            Rule::DeadPub => f.write_str("dead-pub"),
            Rule::UnsafeIsland => f.write_str("unsafe-island"),
        }
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The rule family.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
    /// True when the site carries a `// PANIC-OK:` justification and is
    /// therefore subject to the allowlist budget instead of being a hard
    /// violation (panic-freedom only).
    pub allowlisted: bool,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Runs every applicable rule over one file.
pub fn scan_file(rel_path: &str, lexed: &LexedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    secret_hygiene(rel_path, lexed, &mut findings);
    if config::panic_scope_contains(rel_path) {
        panic_freedom(rel_path, lexed, &mut findings);
    }
    if config::determinism_scope_contains(rel_path) {
        sim_determinism(rel_path, lexed, &mut findings);
    }
    if config::hot_path_contains(rel_path) {
        hot_path_alloc(rel_path, lexed, &mut findings);
    }
    if config::spawn_scope_contains(rel_path) {
        thread_per_connection(rel_path, lexed, &mut findings);
    }
    if !config::UNSAFE_ISLANDS.contains(&rel_path) {
        unsafe_island(rel_path, lexed, &mut findings);
    }
    findings
}

fn ident_at(lexed: &LexedFile, i: usize) -> Option<&str> {
    match lexed.tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(lexed: &LexedFile, i: usize) -> Option<char> {
    match lexed.tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Secret hygiene: tainted types must not derive `Debug`/`Serialize` or
/// implement `Display`/`Serialize`; no format string may interpolate a
/// tainted binding.
fn secret_hygiene(rel_path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    let n = toks.len();
    let mut i = 0usize;
    // Derives seen since the last item started, with the line they sit on.
    let mut pending_derives: Vec<(String, u32)> = Vec::new();
    while i < n {
        match &toks[i].tok {
            // Attribute: collect derive lists, pass through others.
            Tok::Punct('#') if punct_at(lexed, i + 1) == Some('[') => {
                let mut j = i + 2;
                let mut depth = 1usize;
                let mut attr_idents: Vec<(String, u32)> = Vec::new();
                while j < n && depth > 0 {
                    match &toks[j].tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') => depth -= 1,
                        Tok::Ident(s) => attr_idents.push((s.clone(), toks[j].line)),
                        _ => {}
                    }
                    j += 1;
                }
                if attr_idents.first().map(|(s, _)| s.as_str()) == Some("derive") {
                    pending_derives.extend(attr_idents.into_iter().skip(1));
                }
                i = j;
            }
            Tok::Ident(kw) if kw == "struct" || kw == "enum" => {
                if let Some(name) = ident_at(lexed, i + 1) {
                    if config::TAINTED_TYPES.contains(&name) {
                        for (derived, line) in &pending_derives {
                            if config::FORBIDDEN_DERIVES.contains(&derived.as_str()) {
                                out.push(Finding {
                                    file: rel_path.to_owned(),
                                    line: *line,
                                    rule: Rule::SecretHygiene,
                                    message: format!(
                                        "tainted type `{name}` derives `{derived}`; \
                                         write a redacting manual impl instead"
                                    ),
                                    allowlisted: false,
                                });
                            }
                        }
                    }
                }
                pending_derives.clear();
                i += 1;
            }
            // Any other item keyword ends the influence of pending derives.
            Tok::Ident(kw)
                if kw == "fn" || kw == "impl" || kw == "mod" || kw == "trait" || kw == "use" =>
            {
                pending_derives.clear();
                if kw == "impl" {
                    check_forbidden_impl(rel_path, lexed, i, out);
                }
                i += 1;
            }
            Tok::Ident(m)
                if config::FORMAT_MACROS.contains(&m.as_str())
                    && punct_at(lexed, i + 1) == Some('!') =>
            {
                i = check_format_macro(rel_path, lexed, i, out);
            }
            _ => i += 1,
        }
    }
}

/// Flags `impl Display for TaintedType` / `impl Serialize for TaintedType`.
fn check_forbidden_impl(
    rel_path: &str,
    lexed: &LexedFile,
    impl_idx: usize,
    out: &mut Vec<Finding>,
) {
    let toks = &lexed.tokens;
    let n = toks.len();
    let mut j = impl_idx + 1;
    let mut trait_hit: Option<String> = None;
    let mut target_hit: Option<String> = None;
    let mut seen_for = false;
    while j < n {
        match &toks[j].tok {
            Tok::Punct('{') | Tok::Punct(';') => break,
            Tok::Ident(s) if s == "for" => seen_for = true,
            Tok::Ident(s) => {
                if !seen_for && config::FORBIDDEN_IMPLS.contains(&s.as_str()) {
                    trait_hit = Some(s.clone());
                }
                if seen_for && config::TAINTED_TYPES.contains(&s.as_str()) {
                    target_hit = Some(s.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    if let (Some(tr), Some(ty)) = (trait_hit, target_hit) {
        out.push(Finding {
            file: rel_path.to_owned(),
            line: toks[impl_idx].line,
            rule: Rule::SecretHygiene,
            message: format!("tainted type `{ty}` must not implement `{tr}`"),
            allowlisted: false,
        });
    }
}

/// Scans one format-macro invocation for tainted bindings; returns the
/// token index just past the macro's argument list.
fn check_format_macro(
    rel_path: &str,
    lexed: &LexedFile,
    macro_idx: usize,
    out: &mut Vec<Finding>,
) -> usize {
    let toks = &lexed.tokens;
    let n = toks.len();
    let mut j = macro_idx + 2;
    let open = match punct_at(lexed, j) {
        Some(c @ ('(' | '[' | '{')) => c,
        _ => return macro_idx + 1,
    };
    let close = match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    };
    let mut depth = 0usize;
    while j < n {
        match &toks[j].tok {
            Tok::Punct(c) if *c == open => depth += 1,
            Tok::Punct(c) if *c == close => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            Tok::Str(content) => {
                for name in interpolated_idents(content) {
                    if config::binding_is_tainted(&name) {
                        out.push(Finding {
                            file: rel_path.to_owned(),
                            line: toks[j].line,
                            rule: Rule::SecretHygiene,
                            message: format!(
                                "format string interpolates tainted binding `{{{name}}}`"
                            ),
                            allowlisted: false,
                        });
                    }
                }
            }
            Tok::Ident(name) if config::binding_is_tainted(name.as_str()) => {
                out.push(Finding {
                    file: rel_path.to_owned(),
                    line: toks[j].line,
                    rule: Rule::SecretHygiene,
                    message: format!("format argument references tainted binding `{name}`"),
                    allowlisted: false,
                });
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Extracts the identifiers interpolated by `{name}` / `{name:spec}`
/// placeholders in a format string (skipping `{{` escapes and positional
/// placeholders).
fn interpolated_idents(fmt: &str) -> Vec<String> {
    let chars: Vec<char> = fmt.chars().collect();
    let n = chars.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < n {
        if chars[i] == '{' {
            if i + 1 < n && chars[i + 1] == '{' {
                i += 2;
                continue;
            }
            let mut name = String::new();
            let mut j = i + 1;
            while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                name.push(chars[j]);
                j += 1;
            }
            if !name.is_empty() && !name.chars().all(|c| c.is_ascii_digit()) {
                out.push(name);
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// Panic-freedom: `.unwrap()` / `.expect(` / `panic!`-family macros on
/// non-test lines. Sites carrying a `// PANIC-OK:` justification are
/// reported as allowlist candidates, which [`crate::allowlist`] budgets.
fn panic_freedom(rel_path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    for (i, t) in lexed.tokens.iter().enumerate() {
        let line = t.line;
        if lexed.is_test_line(line) {
            continue;
        }
        let hit: Option<String> = match &t.tok {
            Tok::Ident(m)
                if config::PANIC_METHODS.contains(&m.as_str())
                    && punct_at(lexed, i.wrapping_sub(1)) == Some('.')
                    && i >= 1
                    && punct_at(lexed, i + 1) == Some('(') =>
            {
                Some(format!(".{m}(..)"))
            }
            Tok::Ident(m)
                if config::PANIC_MACROS.contains(&m.as_str())
                    && punct_at(lexed, i + 1) == Some('!') =>
            {
                Some(format!("{m}!"))
            }
            _ => None,
        };
        if let Some(what) = hit {
            let allowlisted = lexed.is_panic_ok_line(line);
            out.push(Finding {
                file: rel_path.to_owned(),
                line,
                rule: Rule::PanicFreedom,
                message: if allowlisted {
                    format!("{what} on a library path (justified by PANIC-OK)")
                } else {
                    format!("{what} on a library path; use a typed error or add // PANIC-OK: <why>")
                },
                allowlisted,
            });
        }
    }
}

/// Sim determinism: no wall clock, sleep, or OS randomness in scope.
fn sim_determinism(rel_path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    for (i, t) in lexed.tokens.iter().enumerate() {
        if let Tok::Ident(name) = &t.tok {
            if config::NONDETERMINISTIC_IDENTS.contains(&name.as_str()) {
                // `Instant` only counts when used, not in a doc path like
                // `std::time::Instant` inside a `use` — but a `use` already
                // makes it callable, so flag those too. The single
                // exception: `.sleep` as a field name would be a false
                // positive; require call or path position for `sleep`.
                if name == "sleep" && punct_at(lexed, i + 1) != Some('(') {
                    continue;
                }
                out.push(Finding {
                    file: rel_path.to_owned(),
                    line: t.line,
                    rule: Rule::SimDeterminism,
                    message: format!(
                        "`{name}` is non-deterministic; the simulator scope must use \
                         seeded RNG and virtual time"
                    ),
                    allowlisted: false,
                });
            }
        }
    }
}

/// Hot-path allocation: `.to_bytes()` / `.to_vec()` on a non-test line
/// of a dissemination hot-path file. Fan-out there must serialize once
/// through the `FramePool` and share the resulting `Arc` frame; a
/// per-call conversion silently reintroduces one allocation (and one
/// copy) per recipient.
fn hot_path_alloc(rel_path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    for (i, t) in lexed.tokens.iter().enumerate() {
        let line = t.line;
        if lexed.is_test_line(line) {
            continue;
        }
        if let Tok::Ident(m) = &t.tok {
            if config::HOT_PATH_ALLOC_METHODS.contains(&m.as_str())
                && i >= 1
                && punct_at(lexed, i - 1) == Some('.')
                && punct_at(lexed, i + 1) == Some('(')
            {
                out.push(Finding {
                    file: rel_path.to_owned(),
                    line,
                    rule: Rule::HotPathAlloc,
                    message: format!(
                        ".{m}(..) allocates per call on the dissemination hot path; \
                         encode once via FramePool and fan out the shared frame"
                    ),
                    allowlisted: false,
                });
            }
        }
    }
}

/// Thread-per-connection: a `spawn(` call on a non-test line of the
/// reactor transport. The fixed sanctioned spawn sites (the broker's
/// worker pool, the client reactor) carry a `// SPAWN-OK:`
/// justification on or just above the call; those produce no finding.
/// Anything else — typically a per-connection reader/writer creeping
/// back in — is a hard violation.
fn thread_per_connection(rel_path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    for (i, t) in lexed.tokens.iter().enumerate() {
        let line = t.line;
        if lexed.is_test_line(line) {
            continue;
        }
        if let Tok::Ident(m) = &t.tok {
            if m == "spawn" && punct_at(lexed, i + 1) == Some('(') && !lexed.is_spawn_ok_near(line)
            {
                out.push(Finding {
                    file: rel_path.to_owned(),
                    line,
                    rule: Rule::ThreadPerConnection,
                    message: "spawn(..) in the fixed-thread reactor transport; host the \
                              connection on the worker pool, or justify a fixed-count \
                              thread with // SPAWN-OK: <why>"
                        .to_owned(),
                    allowlisted: false,
                });
            }
        }
    }
}

/// Attribute names that relax a lint.
const LINT_RELAXERS: &[&str] = &["allow", "expect", "warn"];

/// Unsafe island: an attribute (`#[..]` or `#![..]`, including inside
/// `cfg_attr`) that names `unsafe_code` together with `allow`, `expect`
/// or `warn`, in a file outside [`config::UNSAFE_ISLANDS`]. Test code is
/// not exempt: `unsafe` in a test is still `unsafe`.
fn unsafe_island(rel_path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if punct_at(lexed, i) != Some('#') {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if punct_at(lexed, j) == Some('!') {
            j += 1;
        }
        if punct_at(lexed, j) != Some('[') {
            i += 1;
            continue;
        }
        let (mut depth, mut relaxes, mut names_unsafe) = (0usize, false, false);
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(s) if LINT_RELAXERS.contains(&s.as_str()) => relaxes = true,
                Tok::Ident(s) if s == "unsafe_code" => names_unsafe = true,
                _ => {}
            }
            j += 1;
        }
        if relaxes && names_unsafe {
            out.push(Finding {
                file: rel_path.to_owned(),
                line: toks[i].line,
                rule: Rule::UnsafeIsland,
                message: "attribute relaxes `unsafe_code` outside the audited unsafe islands; \
                          keep FFI and raw-pointer code in one of config::UNSAFE_ISLANDS"
                    .to_owned(),
                allowlisted: false,
            });
        }
        i = j + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan(path: &str, src: &str) -> Vec<Finding> {
        scan_file(path, &lex(src))
    }

    #[test]
    fn derive_debug_on_tainted_type_flagged() {
        let f = scan(
            "crates/crypto/src/key.rs",
            "#[derive(Debug, Clone)]\npub struct DeriveKey([u8; 20]);\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::SecretHygiene);
    }

    #[test]
    fn manual_redacting_debug_is_fine() {
        let f = scan(
            "crates/crypto/src/key.rs",
            "pub struct DeriveKey([u8; 20]);\nimpl std::fmt::Debug for DeriveKey {}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn display_impl_on_tainted_type_flagged() {
        let f = scan(
            "crates/crypto/src/key.rs",
            "impl std::fmt::Display for AesKey { }\n",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn format_interpolation_of_tainted_binding_flagged() {
        let f = scan(
            "crates/keys/src/kdc.rs",
            "fn f(topic_key: &DeriveKey) { println!(\"k = {topic_key:?}\"); }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn unwrap_on_library_path_flagged_but_not_in_tests() {
        let src = "fn lib(x: Option<u8>) { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n  fn t(x: Option<u8>) { x.unwrap(); }\n}\n";
        let f = scan("crates/keys/src/kdc.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn panic_ok_marks_allowlisted() {
        let f = scan(
            "crates/keys/src/kdc.rs",
            "fn lib(x: Option<u8>) { x.unwrap(); } // PANIC-OK: invariant\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].allowlisted);
    }

    #[test]
    fn bench_crate_is_out_of_panic_scope() {
        let f = scan(
            "crates/bench/src/perf.rs",
            "fn f(x: Option<u8>) { x.unwrap(); }\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn instant_in_sim_scope_flagged_but_transport_exempt() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        assert!(scan("crates/siena/src/reactor/conn.rs", src).is_empty());
        let f = scan("crates/net/src/sim.rs", src);
        assert!(f.iter().all(|x| x.rule == Rule::SimDeterminism));
        assert!(f.len() >= 2);
    }

    #[test]
    fn to_bytes_in_transport_hot_path_flagged() {
        let f = scan(
            "crates/siena/src/reactor/conn.rs",
            "fn fan_out(msg: &Msg) { for w in writers { offer(w, msg.to_bytes()); } }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::HotPathAlloc);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn to_vec_in_transport_hot_path_flagged() {
        let f = scan(
            "crates/siena/src/reactor/conn.rs",
            "fn f(frame: &[u8]) { queue.push(frame.to_vec()); }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::HotPathAlloc);
    }

    #[test]
    fn to_bytes_outside_hot_path_not_flagged() {
        let f = scan(
            "crates/siena/src/wire.rs",
            "fn f(msg: &Msg) -> Vec<u8> { msg.to_bytes() }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn to_bytes_on_hot_path_test_lines_not_flagged() {
        let src = "fn lib(m: &Msg) -> Vec<u8> { pool.encode(m) }\n\
                   #[cfg(test)]\nmod tests {\n  fn t(m: &Msg) { m.to_bytes(); }\n}\n";
        let f = scan("crates/siena/src/reactor/conn.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn similar_names_are_not_hot_path_allocs() {
        let f = scan(
            "crates/siena/src/reactor/conn.rs",
            "fn f(s: &str) { s.to_owned(); to_vec(s); let to_bytes = 1; }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unmarked_spawn_in_reactor_flagged() {
        let f = scan(
            "crates/siena/src/reactor/worker.rs",
            "fn accept(s: TcpStream) { std::thread::spawn(move || serve(s)); }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::ThreadPerConnection);
    }

    #[test]
    fn spawn_ok_marker_above_the_call_suppresses() {
        let f = scan(
            "crates/siena/src/reactor/broker.rs",
            "// SPAWN-OK: fixed worker pool, sized once\n\
             // at startup from the config.\n\
             fn pool() { std::thread::spawn(worker); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn spawn_in_tests_and_lookalike_names_are_fine() {
        let src = "fn start() { spawn_broker(addr); }\n\
                   #[cfg(test)]\nmod tests {\n  fn t() { std::thread::spawn(|| {}); }\n}\n";
        let f = scan("crates/siena/src/reactor/broker.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_allow_is_confined_to_the_islands() {
        let src = "#![allow(unsafe_code)]\nfn f() {}\n";
        let f = scan("crates/siena/src/broker.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::UnsafeIsland);
        assert!(scan("crates/siena/src/reactor/sys.rs", src).is_empty());
        assert!(scan("crates/crypto/src/x86.rs", src).is_empty());
        assert_eq!(scan("crates/crypto/src/aes.rs", src).len(), 1);
        let strict = "#![deny(unsafe_code)]\n#[allow(dead_code)]\nfn f() {}\n";
        assert!(scan("crates/siena/src/broker.rs", strict).is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let f = scan(
            "crates/keys/src/kdc.rs",
            "fn lib(x: Option<u8>) { x.unwrap_or_else(|| 0); x.unwrap_or(1); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
