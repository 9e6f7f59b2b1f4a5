//! The dead-pub pass: public functions and methods that no shipped code
//! uses (DESIGN.md §12).
//!
//! A *declaration* is a plain `pub fn` — free or inherent — on a
//! non-test line of `crates/*/src/**`, outside the crates in
//! [`config::DEAD_PUB_EXCLUDED_CRATES`]. A *use* is any identifier token
//! on a non-test line of a shipped file ([`is_shipped_path`]): every
//! crate's `src/` (bins included), `examples/` and `benchmark/src/`.
//! `use` items and the name after a `fn` keyword are not uses, and
//! neither is anything in `tests/`, `benches/`, `#[cfg(test)]` code or a
//! comment. A declaration whose name never occurs as a use is dead.
//!
//! The pass is name-based: one use of a name keeps every declaration of
//! that name alive, so it under-reports and never flags a live item.
//! A dead item that stays on purpose carries `// DEAD-PUB-OK: <reason>`
//! on or just above its `fn` line; those sites are budgeted per file by
//! the shrink-only `dead_pub_allowlist.txt`, reconciled like `TAINT-OK`.

use std::collections::{BTreeMap, HashSet};

use crate::config;
use crate::lexer::{LexedFile, Tok};
use crate::parser::SourceFile;
use crate::rules::{Finding, Rule};

/// What the pass found.
#[derive(Debug, Default)]
pub struct DeadPubReport {
    /// Unmarked dead declarations, and markers on items that are in use.
    pub findings: Vec<Finding>,
    /// `// DEAD-PUB-OK:` kept items, per file.
    pub justified: BTreeMap<String, u32>,
}

/// Whether a workspace-relative path holds shipped code, whose
/// identifiers count as uses.
pub fn is_shipped_path(rel: &str) -> bool {
    let mut parts = rel.split('/');
    matches!(
        (parts.next(), parts.next(), parts.next()),
        (Some("crates"), Some(_), Some("src"))
            | (Some("benchmark"), Some("src"), _)
            | (Some("examples"), _, _)
    )
}

/// Whether a workspace-relative path can declare items the pass checks.
fn is_declaring_path(rel: &str) -> bool {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("crates"), Some(krate), Some("src")) => {
            !config::DEAD_PUB_EXCLUDED_CRATES.contains(&krate)
        }
        _ => false,
    }
}

/// Adds the identifiers `file` uses on non-test lines to `uses`.
fn collect_uses(file: &LexedFile, uses: &mut HashSet<String>) {
    let mut toks = file.tokens.iter().peekable();
    let mut after_fn = false;
    while let Some(t) = toks.next() {
        let Tok::Ident(name) = &t.tok else {
            after_fn = false;
            continue;
        };
        if name == "use" {
            // A `use` item runs to its `;`; none of its names is a use.
            for u in toks.by_ref() {
                if u.tok == Tok::Punct(';') {
                    break;
                }
            }
        } else if !after_fn && !file.is_test_line(t.line) {
            uses.insert(name.clone());
        }
        after_fn = name == "fn";
    }
}

/// Runs the pass. `parsed` are the parsed `crates/*/src` files (both
/// declarations and uses); `lexed` are further files that only
/// contribute uses. Files outside the shipped paths contribute nothing.
pub fn run(parsed: &[SourceFile], lexed: &[(String, LexedFile)]) -> DeadPubReport {
    let mut uses = HashSet::new();
    let users = parsed
        .iter()
        .map(|f| (f.rel.as_str(), &f.lexed))
        .chain(lexed.iter().map(|(rel, f)| (rel.as_str(), f)));
    for (rel, file) in users {
        if is_shipped_path(rel) {
            collect_uses(file, &mut uses);
        }
    }

    let mut report = DeadPubReport::default();
    for file in parsed.iter().filter(|f| is_declaring_path(&f.rel)) {
        for item in file.parsed.fns.iter().filter(|i| i.is_pub && !i.is_test) {
            let marked = file.lexed.is_dead_pub_ok_near(item.line);
            let used = uses.contains(&item.name);
            let name = match &item.qual {
                Some(q) => format!("{q}::{}", item.name),
                None => item.name.clone(),
            };
            let message = match (used, marked) {
                (false, true) => {
                    *report.justified.entry(file.rel.clone()).or_insert(0) += 1;
                    continue;
                }
                (true, false) => continue,
                (false, false) => format!(
                    "public fn `{name}` has no use in shipped code; delete it, or keep it \
                     with // DEAD-PUB-OK: <reason>"
                ),
                (true, true) => format!(
                    "public fn `{name}` is used in shipped code; drop its DEAD-PUB-OK marker"
                ),
            };
            report.findings.push(Finding {
                file: file.rel.clone(),
                line: item.line,
                rule: Rule::DeadPub,
                message,
                allowlisted: false,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::load;

    fn dead_names(report: &DeadPubReport) -> Vec<&str> {
        report
            .findings
            .iter()
            .filter_map(|f| f.message.split('`').nth(1))
            .collect()
    }

    #[test]
    fn shipped_paths() {
        assert!(is_shipped_path("crates/siena/src/wire.rs"));
        assert!(is_shipped_path("crates/bench/src/bin/repro.rs"));
        assert!(is_shipped_path("benchmark/src/live.rs"));
        assert!(is_shipped_path("examples/quickstart.rs"));
        assert!(!is_shipped_path("crates/siena/tests/chaos.rs"));
        assert!(!is_shipped_path("crates/crypto/benches/aes.rs"));
        assert!(!is_shipped_path("benchmark/tests/cli.rs"));
        assert!(!is_shipped_path("tests/security.rs"));
        assert!(!is_declaring_path("crates/xtask/src/lib.rs"));
    }

    #[test]
    fn use_items_declarations_and_tests_are_not_uses() {
        let src = "use a::{dead_a, dead_b};\nfn dead_c() { live(); }\n\
                   #[cfg(test)]\nmod tests { fn t() { dead_d(); } }\n";
        let mut uses = HashSet::new();
        collect_uses(&lex(src), &mut uses);
        assert!(uses.contains("live"));
        for dead in ["dead_a", "dead_b", "dead_c", "dead_d"] {
            assert!(!uses.contains(dead), "{dead}");
        }
    }

    #[test]
    fn marker_keeps_a_dead_item_and_must_not_sit_on_a_live_one() {
        let src = "pub fn dead() {}\n// DEAD-PUB-OK: test oracle\npub fn kept() {}\n\
                   // DEAD-PUB-OK: stale\npub fn live() {}\nfn caller() { live(); }\n";
        let report = run(&[load("crates/demo/src/lib.rs", src)], &[]);
        assert_eq!(dead_names(&report), vec!["dead", "live"]);
        assert_eq!(report.justified.get("crates/demo/src/lib.rs"), Some(&1));
    }
}
