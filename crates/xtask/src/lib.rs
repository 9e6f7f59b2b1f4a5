//! `psguard-xtask` — workspace static analysis for the PSGuard suite.
//!
//! The `check` subcommand walks every `crates/*/src/**/*.rs` file, lexes
//! it with the hand-rolled tokenizer in [`lexer`], parses items with
//! [`parser`], and runs two layers of analysis:
//!
//! * **Per-file rules** ([`rules`], DESIGN.md §12): secret hygiene,
//!   panic-freedom (budgeted by the `// PANIC-OK:` allowlist in
//!   [`allowlist`]), sim determinism, hot-path allocation, the
//!   thread-per-connection spawn ban, and the unsafe-island rule (an
//!   `#[allow(unsafe_code)]` only in `config::UNSAFE_ISLANDS`).
//! * **Whole-workspace passes** (DESIGN.md §17): the confidentiality
//!   taint analysis in [`taint`] over the [`symbols`]/[`callgraph`]
//!   pipeline (budgeted by the `// TAINT-OK:` allowlist), the
//!   reactor-safety lints in [`reactor_safety`], the workspace-lints
//!   inheritance check in [`manifests`], and the [`dead_pub`] pass over
//!   public functions nothing ships (budgeted by `// DEAD-PUB-OK:`).
//!
//! Every rule family always reports: a failure in one family (including
//! a malformed allowlist) never masks findings from the others.

pub mod allowlist;
pub mod callgraph;
pub mod config;
pub mod dead_pub;
pub mod lexer;
pub mod manifests;
pub mod parser;
pub mod reactor_safety;
pub mod rules;
pub mod symbols;
pub mod taint;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use rules::{Finding, Rule};

/// Everything `check` found.
#[derive(Debug, Default)]
pub struct Report {
    /// Hard rule violations (never allowlisted), across all families.
    pub violations: Vec<Finding>,
    /// Panic sites justified with `// PANIC-OK:`, per file.
    pub justified: BTreeMap<String, u32>,
    /// Taint flows justified with `// TAINT-OK:`, per file.
    pub taint_justified: BTreeMap<String, u32>,
    /// Unused public fns kept with `// DEAD-PUB-OK:`, per file.
    pub dead_pub_justified: BTreeMap<String, u32>,
    /// Panic-allowlist budget problems.
    pub budget_issues: Vec<allowlist::BudgetIssue>,
    /// Taint-allowlist budget problems.
    pub taint_budget_issues: Vec<allowlist::BudgetIssue>,
    /// Dead-pub-allowlist budget problems.
    pub dead_pub_budget_issues: Vec<allowlist::BudgetIssue>,
    /// Malformed allowlist files. Reported alongside everything else so
    /// a broken allowlist can't mask rule findings.
    pub allowlist_errors: Vec<String>,
    /// Files whose items the analysis parser could not fully recover —
    /// a gap would silently drop call-graph nodes, so it fails the check.
    pub parse_gaps: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: u32,
    /// Number of functions in the workspace call graph.
    pub fns_analyzed: u32,
}

impl Report {
    /// True when the tree passes.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
            && self.budget_issues.is_empty()
            && self.taint_budget_issues.is_empty()
            && self.dead_pub_budget_issues.is_empty()
            && self.allowlist_errors.is_empty()
            && self.parse_gaps.is_empty()
    }
}

/// A failure of the checker itself (I/O) — distinct from the tree
/// failing the check.
#[derive(Debug)]
pub enum CheckError {
    Io {
        path: PathBuf,
        error: std::io::Error,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Io { path, error } => write!(f, "{}: {error}", path.display()),
        }
    }
}

impl std::error::Error for CheckError {}

/// Runs the full check against the workspace rooted at `root`.
pub fn run_check(root: &Path) -> Result<Report, CheckError> {
    let mut report = Report::default();
    let mut files: Vec<parser::SourceFile> = Vec::new();

    for file in workspace_sources(root)? {
        let rel = rel_path(root, &file);
        let source = std::fs::read_to_string(&file).map_err(|error| CheckError::Io {
            path: file.clone(),
            error,
        })?;
        let loaded = parser::load(&rel, &source);
        report.files_scanned += 1;
        for finding in rules::scan_file(&rel, &loaded.lexed) {
            if finding.rule == Rule::PanicFreedom && finding.allowlisted {
                *report.justified.entry(rel.clone()).or_insert(0) += 1;
            } else {
                report.violations.push(finding);
            }
        }
        if !loaded.parsed.fully_parsed() {
            report.parse_gaps.push(format!(
                "{rel}: parsed {} of {} fn items",
                loaded.parsed.fns_parsed, loaded.parsed.fn_keywords_seen
            ));
        }
        files.push(loaded);
    }

    // Whole-workspace passes over the symbol table and call graph.
    let table = symbols::SymbolTable::build(files.iter().map(|f| &f.parsed));
    let graph = callgraph::CallGraph::build(&table);
    report.fns_analyzed = table.fns.len() as u32;

    let taint_report = taint::run(&files, &table);
    report.violations.extend(taint_report.findings);
    report.taint_justified = taint_report.justified;

    report.violations.extend(reactor_safety::run(
        &files,
        &table,
        &graph,
        config::REACTOR_ENTRY_POINTS,
    ));

    report
        .violations
        .extend(manifests::check_workspace(root, &crate_names(root)?));

    // Shipped users outside `crates/` are lexed only: they never meet
    // the parser-coverage check.
    let mut users = Vec::new();
    for dir in config::DEAD_PUB_USER_DIRS {
        let mut paths = Vec::new();
        collect_rs(&root.join(dir), &mut paths)?;
        for path in paths {
            let source = std::fs::read_to_string(&path).map_err(|error| CheckError::Io {
                path: path.clone(),
                error,
            })?;
            users.push((rel_path(root, &path), lexer::lex(&source)));
        }
    }
    let dead_pub_report = dead_pub::run(&files, &users);
    report.violations.extend(dead_pub_report.findings);
    report.dead_pub_justified = dead_pub_report.justified;

    // Allowlist reconciliation. Parse errors are reported, not fatal:
    // every other family above has already contributed its findings.
    let (panic_list, panic_errs) = read_allowlist(root, config::ALLOWLIST_PATH)?;
    let (taint_list, taint_errs) = read_allowlist(root, config::TAINT_ALLOWLIST_PATH)?;
    let (dead_pub_list, dead_pub_errs) = read_allowlist(root, config::DEAD_PUB_ALLOWLIST_PATH)?;
    report.allowlist_errors.extend(panic_errs);
    report.allowlist_errors.extend(taint_errs);
    report.allowlist_errors.extend(dead_pub_errs);
    let exists = |rel: &str| root.join(rel).is_file();
    report.budget_issues = allowlist::reconcile(&panic_list, &report.justified, exists);
    report.taint_budget_issues = allowlist::reconcile(&taint_list, &report.taint_justified, exists);
    report.dead_pub_budget_issues =
        allowlist::reconcile(&dead_pub_list, &report.dead_pub_justified, exists);

    Ok(report)
}

/// Reads and parses one allowlist file; a malformed file yields an empty
/// list plus an error string for the report.
fn read_allowlist(
    root: &Path,
    rel: &str,
) -> Result<(allowlist::Allowlist, Vec<String>), CheckError> {
    let path = root.join(rel);
    match std::fs::read_to_string(&path) {
        Ok(text) => match allowlist::parse(&text) {
            Ok(list) => Ok((list, Vec::new())),
            Err(e) => Ok((allowlist::Allowlist::default(), vec![format!("{rel}: {e}")])),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Ok((allowlist::Allowlist::default(), Vec::new()))
        }
        Err(error) => Err(CheckError::Io { path, error }),
    }
}

/// Names of all workspace crates (directories under `crates/`).
fn crate_names(root: &Path) -> Result<Vec<String>, CheckError> {
    let mut names = Vec::new();
    for entry in read_dir_sorted(&root.join("crates"))? {
        if entry.is_dir() {
            if let Some(name) = entry.file_name().and_then(|n| n.to_str()) {
                names.push(name.to_owned());
            }
        }
    }
    Ok(names)
}

/// Collects every `crates/*/src/**/*.rs` file, sorted for stable output.
fn workspace_sources(root: &Path) -> Result<Vec<PathBuf>, CheckError> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    for entry in read_dir_sorted(&crates_dir)? {
        let src = entry.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), CheckError> {
    for entry in read_dir_sorted(dir)? {
        if entry.is_dir() {
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, CheckError> {
    let rd = std::fs::read_dir(dir).map_err(|error| CheckError::Io {
        path: dir.to_path_buf(),
        error,
    })?;
    let mut entries = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|error| CheckError::Io {
            path: dir.to_path_buf(),
            error,
        })?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}

/// Workspace-relative `/`-separated path for rule matching and output.
fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Renders the report the way `cargo`-adjacent tools do: one line per
/// problem, then a summary.
pub fn render(report: &Report) -> String {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&format!("error: {v}\n"));
    }
    for b in &report.budget_issues {
        out.push_str(&format!("error: [allowlist] {b}\n"));
    }
    for b in &report.taint_budget_issues {
        out.push_str(&format!("error: [taint-allowlist] {b}\n"));
    }
    for b in &report.dead_pub_budget_issues {
        out.push_str(&format!("error: [dead-pub-allowlist] {b}\n"));
    }
    for e in &report.allowlist_errors {
        out.push_str(&format!("error: [allowlist] {e}\n"));
    }
    for g in &report.parse_gaps {
        out.push_str(&format!("error: [parser] {g}\n"));
    }
    let justified_total: u32 = report.justified.values().sum();
    let taint_justified_total: u32 = report.taint_justified.values().sum();
    let dead_pub_justified_total: u32 = report.dead_pub_justified.values().sum();
    out.push_str(&format!(
        "psguard-xtask check: {} file(s), {} fn(s), {} violation(s), {} allowlist issue(s), \
         {} justified panic site(s), {} justified taint site(s), {} kept unused pub fn(s)\n",
        report.files_scanned,
        report.fns_analyzed,
        report.violations.len(),
        report.budget_issues.len()
            + report.taint_budget_issues.len()
            + report.dead_pub_budget_issues.len()
            + report.allowlist_errors.len(),
        justified_total,
        taint_justified_total,
        dead_pub_justified_total,
    ));
    out
}

/// Renders the report as a JSON document for CI artifacts.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"clean\": {},\n", report.is_clean()));
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"fns_analyzed\": {},\n", report.fns_analyzed));

    out.push_str("  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            json_str(&v.file),
            v.line,
            json_str(&v.rule.to_string()),
            json_str(&v.message)
        ));
    }
    if !report.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");

    json_str_list(
        &mut out,
        "budget_issues",
        report
            .budget_issues
            .iter()
            .map(|b| b.to_string())
            .chain(report.taint_budget_issues.iter().map(|b| b.to_string()))
            .chain(report.dead_pub_budget_issues.iter().map(|b| b.to_string()))
            .chain(report.allowlist_errors.iter().cloned()),
    );
    out.push_str(",\n");
    json_str_list(&mut out, "parse_gaps", report.parse_gaps.iter().cloned());
    out.push_str(",\n");

    let justified_total: u32 = report.justified.values().sum();
    let taint_justified_total: u32 = report.taint_justified.values().sum();
    let dead_pub_justified_total: u32 = report.dead_pub_justified.values().sum();
    out.push_str(&format!(
        "  \"justified_panic_sites\": {justified_total},\n  \
         \"justified_taint_sites\": {taint_justified_total},\n  \
         \"kept_unused_pub_fns\": {dead_pub_justified_total}\n}}\n"
    ));
    out
}

fn json_str_list(out: &mut String, key: &str, items: impl Iterator<Item = String>) {
    out.push_str(&format!("  \"{key}\": ["));
    let mut any = false;
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}", json_str(&item)));
        any = true;
    }
    if any {
        out.push_str("\n  ");
    }
    out.push(']');
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_report_shape() {
        let mut report = Report {
            files_scanned: 3,
            ..Report::default()
        };
        report.violations.push(Finding {
            file: "crates/a/src/lib.rs".into(),
            line: 7,
            rule: Rule::ConfidentialityTaint,
            message: "plaintext \"x\" leaks".into(),
            allowlisted: false,
        });
        let json = render_json(&report);
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"rule\": \"confidentiality-taint\""));
        assert!(json.contains("\\\"x\\\""));
    }
}
