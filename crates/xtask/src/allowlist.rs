//! The shrink-only allowlists.
//!
//! `crates/xtask/allowlist.txt` holds one `path = N` entry per file that
//! still has justified panic sites. A site is justified when its line
//! carries a `// PANIC-OK: <reason>` comment. `taint_allowlist.txt`
//! (`// TAINT-OK:`) and `dead_pub_allowlist.txt` (`// DEAD-PUB-OK:`)
//! use the same format and reconciler. The budget must match the
//! number of justified sites *exactly*: a larger budget is stale slack
//! (the list must shrink as sites are fixed), a smaller one means new
//! sites slipped in. Entries naming files that no longer exist are errors.

use std::collections::BTreeMap;

/// Parsed allowlist: workspace-relative path → budget.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Allowlist {
    pub budgets: BTreeMap<String, u32>,
}

/// A malformed allowlist line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "allowlist.txt:{}: {}", self.line, self.message)
    }
}

/// Parses the `path = N` format. Blank lines and `#` comments are skipped.
pub fn parse(text: &str) -> Result<Allowlist, ParseError> {
    let mut budgets = BTreeMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (path, count) = line.split_once('=').ok_or_else(|| ParseError {
            line: lineno,
            message: format!("expected `path = N`, got `{line}`"),
        })?;
        let path = path.trim().to_owned();
        let count: u32 = count.trim().parse().map_err(|_| ParseError {
            line: lineno,
            message: format!("budget is not a number: `{}`", count.trim()),
        })?;
        if count == 0 {
            return Err(ParseError {
                line: lineno,
                message: format!("`{path}` has budget 0; delete the entry instead"),
            });
        }
        if budgets.insert(path.clone(), count).is_some() {
            return Err(ParseError {
                line: lineno,
                message: format!("duplicate entry for `{path}`"),
            });
        }
    }
    Ok(Allowlist { budgets })
}

/// Budget-check outcome for one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetIssue {
    /// Entry names a file that does not exist in the workspace.
    MissingFile { path: String },
    /// Budget exceeds the justified-site count: slack must be removed.
    Stale {
        path: String,
        budget: u32,
        actual: u32,
    },
    /// More justified sites than budget: the list only ever shrinks, so a
    /// new justified site needs an explicit (reviewed) budget bump.
    OverBudget {
        path: String,
        budget: u32,
        actual: u32,
    },
    /// A file has justified sites but no allowlist entry at all.
    Unlisted { path: String, actual: u32 },
}

impl std::fmt::Display for BudgetIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetIssue::MissingFile { path } => {
                write!(
                    f,
                    "allowlist entry `{path}` names a file that does not exist"
                )
            }
            BudgetIssue::Stale {
                path,
                budget,
                actual,
            } => write!(
                f,
                "allowlist entry `{path} = {budget}` is stale: only {actual} justified site(s) \
                 remain; shrink the budget"
            ),
            BudgetIssue::OverBudget {
                path,
                budget,
                actual,
            } => write!(
                f,
                "`{path}` has {actual} justified site(s) but a budget of {budget}; the allowlist \
                 only shrinks — remove the sites or justify the bump in review"
            ),
            BudgetIssue::Unlisted { path, actual } => write!(
                f,
                "`{path}` has {actual} justified site(s) but no allowlist entry"
            ),
        }
    }
}

/// Reconciles per-file justified-site counts against the allowlist.
///
/// `exists` answers whether a workspace-relative path is a real file, so
/// the core logic stays testable without touching the filesystem.
pub fn reconcile(
    list: &Allowlist,
    justified_counts: &BTreeMap<String, u32>,
    exists: impl Fn(&str) -> bool,
) -> Vec<BudgetIssue> {
    let mut issues = Vec::new();
    for (path, &budget) in &list.budgets {
        if !exists(path) {
            issues.push(BudgetIssue::MissingFile { path: path.clone() });
            continue;
        }
        let actual = justified_counts.get(path).copied().unwrap_or(0);
        if budget > actual {
            issues.push(BudgetIssue::Stale {
                path: path.clone(),
                budget,
                actual,
            });
        } else if actual > budget {
            issues.push(BudgetIssue::OverBudget {
                path: path.clone(),
                budget,
                actual,
            });
        }
    }
    for (path, &actual) in justified_counts {
        if actual > 0 && !list.budgets.contains_key(path) {
            issues.push(BudgetIssue::Unlisted {
                path: path.clone(),
                actual,
            });
        }
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, u32)]) -> BTreeMap<String, u32> {
        pairs.iter().map(|(p, n)| ((*p).to_owned(), *n)).collect()
    }

    #[test]
    fn parses_entries_comments_blanks() {
        let list = parse("# header\n\ncrates/keys/src/kdc.rs = 2\ncrates/crypto/src/aes.rs=1\n")
            .unwrap_or_default();
        assert_eq!(list.budgets.len(), 2);
        assert_eq!(list.budgets.get("crates/keys/src/kdc.rs"), Some(&2));
    }

    #[test]
    fn rejects_zero_and_duplicates_and_garbage() {
        assert!(parse("a.rs = 0\n").is_err());
        assert!(parse("a.rs = 1\na.rs = 2\n").is_err());
        assert!(parse("just words\n").is_err());
        assert!(parse("a.rs = many\n").is_err());
    }

    #[test]
    fn exact_match_is_clean() {
        let list = parse("a.rs = 2\n").unwrap_or_default();
        let issues = reconcile(&list, &counts(&[("a.rs", 2)]), |_| true);
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn stale_over_and_unlisted_flagged() {
        let list = parse("a.rs = 3\nb.rs = 1\n").unwrap_or_default();
        let issues = reconcile(
            &list,
            &counts(&[("a.rs", 2), ("b.rs", 2), ("c.rs", 1)]),
            |_| true,
        );
        assert_eq!(issues.len(), 3);
        assert!(issues
            .iter()
            .any(|i| matches!(i, BudgetIssue::Stale { path, .. } if path == "a.rs")));
        assert!(issues
            .iter()
            .any(|i| matches!(i, BudgetIssue::OverBudget { path, .. } if path == "b.rs")));
        assert!(issues
            .iter()
            .any(|i| matches!(i, BudgetIssue::Unlisted { path, .. } if path == "c.rs")));
    }

    #[test]
    fn missing_file_flagged() {
        let list = parse("gone.rs = 1\n").unwrap_or_default();
        let issues = reconcile(&list, &counts(&[]), |_| false);
        assert_eq!(
            issues,
            vec![BudgetIssue::MissingFile {
                path: "gone.rs".into()
            }]
        );
    }
}
