//! Cross-crate symbol table over the parsed workspace.
//!
//! Resolution is name-based: the workspace has one binary namespace of
//! function items, indexed both by bare name and by `Qual::name` for
//! methods. That is deliberately coarser than rustc's resolution, so
//! [`SymbolTable::resolve_call`] applies discipline instead of
//! over-merging: qualified calls match their exact `Qual::name` (with a
//! free-function-only fallback for module paths), and ambiguous bare
//! names resolve only with same-file preference or not at all. The
//! result slightly under-approximates reachability for colliding method
//! names — documented, and far cheaper than the hard false positives
//! that wrong edges feed into the reactor-safety pass.

use std::collections::BTreeMap;

use crate::parser::{FnItem, ParsedFile};

/// Identifier of a function node: index into [`SymbolTable::fns`].
pub type FnId = usize;

/// A function known to the analysis, with its provenance.
#[derive(Debug)]
pub struct FnNode {
    /// The parsed item.
    pub item: FnItem,
    /// Workspace-relative file.
    pub rel_path: String,
    /// Crate the file belongs to.
    pub crate_name: String,
}

impl FnNode {
    /// `Qual::name` when qualified, else `name`.
    pub fn display_name(&self) -> String {
        match &self.item.qual {
            Some(q) => format!("{q}::{}", self.item.name),
            None => self.item.name.clone(),
        }
    }
}

/// The workspace symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Every non-test function item in the workspace.
    pub fns: Vec<FnNode>,
    /// Bare name → candidate fn ids (a name can resolve to several
    /// items; all of them become call edges).
    by_name: BTreeMap<String, Vec<FnId>>,
    /// `Qual::name` → candidate fn ids.
    by_qual: BTreeMap<String, Vec<FnId>>,
    /// Struct name → field type idents, for the type-taint closure.
    pub struct_fields: BTreeMap<String, Vec<String>>,
}

impl SymbolTable {
    /// Builds the table from every parsed file. Test functions are
    /// excluded: fixtures and `#[cfg(test)]` helpers must not create
    /// edges into production reachability.
    pub fn build<'a>(files: impl IntoIterator<Item = &'a ParsedFile>) -> Self {
        let mut table = SymbolTable::default();
        for file in files {
            for item in &file.fns {
                if item.is_test {
                    continue;
                }
                let id = table.fns.len();
                table.by_name.entry(item.name.clone()).or_default().push(id);
                if let Some(q) = &item.qual {
                    table
                        .by_qual
                        .entry(format!("{q}::{}", item.name))
                        .or_default()
                        .push(id);
                }
                table.fns.push(FnNode {
                    item: item.clone(),
                    rel_path: file.rel_path.clone(),
                    crate_name: file.crate_name.clone(),
                });
            }
            for s in &file.structs {
                table
                    .struct_fields
                    .entry(s.name.clone())
                    .or_default()
                    .extend(s.field_types.iter().map(|t| t.ident.clone()));
            }
        }
        table
    }

    /// Resolves a call site into edge targets. A qualified call
    /// (`Conn::offer`) matches the exact `Qual::name` entries; when the
    /// qualifier is unknown (a module path, an std type like
    /// `TcpStream`) only *free* functions with the bare name may match —
    /// falling back to someone's method of the same name would invent
    /// edges (`TcpStream::connect` aliasing into `TcpClient::connect`).
    /// Unqualified and method calls resolve by bare name only
    /// when unambiguous, with same-file candidates preferred (same-
    /// module items are in scope without import). Ambiguous method
    /// names produce no edge: for the reactor-safety reachability pass
    /// a wrong edge is a hard false positive, so unresolvable calls
    /// under-approximate and the limitation is documented.
    pub fn resolve_call(&self, name: &str, qual: Option<&str>, caller_rel: &str) -> Vec<FnId> {
        if let Some(q) = qual {
            if let Some(ids) = self.by_qual.get(&format!("{q}::{name}")) {
                return ids.clone();
            }
            return self
                .by_name
                .get(name)
                .map(|ids| {
                    ids.iter()
                        .copied()
                        .filter(|&i| self.fns[i].item.qual.is_none())
                        .collect()
                })
                .unwrap_or_default();
        }
        let Some(ids) = self.by_name.get(name) else {
            return Vec::new();
        };
        if ids.len() == 1 {
            return ids.clone();
        }
        let same_file: Vec<FnId> = ids
            .iter()
            .copied()
            .filter(|&i| self.fns[i].rel_path == caller_rel)
            .collect();
        if same_file.len() == 1 {
            return same_file;
        }
        Vec::new()
    }

    /// Strict resolution, for taint-*origin* checks: a qualified call
    /// matches only its exact `Qual::name` items — a qualifier that
    /// names a different type must not alias into the model's
    /// constructors via the bare-name fallback.
    pub fn resolve_strict(&self, name: &str, qual: Option<&str>) -> &[FnId] {
        match qual {
            Some(q) => self
                .by_qual
                .get(&format!("{q}::{name}"))
                .map(Vec::as_slice)
                .unwrap_or(&[]),
            None => self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[]),
        }
    }

    /// All fn ids defined in `rel_path` whose name matches.
    pub fn find_in_file(&self, rel_path: &str, name: &str) -> Option<FnId> {
        self.fns
            .iter()
            .position(|f| f.rel_path == rel_path && f.item.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    #[test]
    fn build_resolve_and_exclude_tests() {
        let a = parse(
            "crates/a/src/lib.rs",
            &lex("impl Conn { pub fn offer(&self) {} }\npub fn offer() {}\n\
                  #[cfg(test)]\nmod tests {\n  #[test]\n  fn offer_works() { offer(); }\n}\n"),
        );
        let table = SymbolTable::build(&[a]);
        assert_eq!(table.fns.len(), 2, "test fn excluded");
        let rel = "crates/a/src/lib.rs";
        assert_eq!(table.resolve_call("offer", Some("Conn"), rel).len(), 1);
        // Ambiguous bare name, but both candidates are in the caller's
        // file — still ambiguous, no edge.
        assert!(table.resolve_call("offer", None, rel).is_empty());
        // Unknown qualifier falls back to free fns only.
        let fallback = table.resolve_call("offer", Some("Unknown"), rel);
        assert_eq!(fallback.len(), 1);
        assert!(table.fns[fallback[0]].item.qual.is_none());
        assert!(table.resolve_call("missing", None, rel).is_empty());
    }

    #[test]
    fn ambiguous_method_prefers_same_file_candidate() {
        let a = parse(
            "crates/a/src/lib.rs",
            &lex("impl Conn { pub fn push(&self) {} }\n"),
        );
        let b = parse(
            "crates/b/src/lib.rs",
            &lex("impl Queue { pub fn push(&self) {} }\n"),
        );
        let table = SymbolTable::build([&a, &b]);
        let hit = table.resolve_call("push", None, "crates/a/src/lib.rs");
        assert_eq!(hit.len(), 1);
        assert_eq!(table.fns[hit[0]].rel_path, "crates/a/src/lib.rs");
        // From a third file, the name is ambiguous: no edge.
        assert!(table
            .resolve_call("push", None, "crates/c/src/lib.rs")
            .is_empty());
    }

    #[test]
    fn struct_fields_indexed() {
        let a = parse(
            "crates/a/src/lib.rs",
            &lex("pub struct Slot { event: Event, n: usize }\n"),
        );
        let table = SymbolTable::build(&[a]);
        assert!(table.struct_fields["Slot"].contains(&"Event".to_owned()));
    }
}
