//! Interprocedural confidentiality taint analysis (DESIGN.md §17).
//!
//! The invariant: plaintext event content must never reach broker-visible
//! bytes — sockets, the durable log, debug output. Sources are the
//! plaintext model types ([`config::PLAINTEXT_SOURCE_TYPES`]) plus the
//! closure of structs that embed them; sinks are raw byte writes and
//! frame writes inside the `taint-sink` scope plus format macros inside
//! the `taint-format-sink` scope; sanitizers are the seal/encrypt entry
//! points ([`config::SANITIZER_FNS`]).
//!
//! The pass computes a per-function summary to fixpoint — "does it
//! return plaintext", "does a parameter flow to a sink (and through
//! which chain)" — then reports a violation wherever plaintext
//! *originates* (a model-type constructor or a call to a
//! plaintext-returning function) and reaches a sink, rendering the full
//! source→…→sink call chain. Parameter-typed flows only ever produce
//! summaries, not violations: `impl Wire for Event` (the retained
//! classic-family codec) writes its plaintext parameter to the socket
//! *by design*, and only a caller feeding it a concrete plaintext value
//! can complete a leak.
//!
//! A finding can be justified with `// TAINT-OK: <why>` on or just above
//! the origin line; justified sites are budgeted by the shrink-only
//! allowlist at [`config::TAINT_ALLOWLIST_PATH`], which is empty today.
//!
//! The old `ciphertext-at-rest` ident ban survives here as a scope
//! backstop: flows the call-graph pass cannot see (e.g. a decode written
//! inline in the log module) still trip the ban on naming the plaintext
//! model inside `siena/src/log/`.

use std::collections::{BTreeMap, BTreeSet};

use crate::config;
use crate::lexer::Tok;
use crate::parser::{SourceFile, Stmt, TypeRef};
use crate::rules::{Finding, Rule};
use crate::symbols::{FnNode, SymbolTable};

/// One hop of a rendered source→sink chain.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChainStep {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What happens at this hop.
    pub what: String,
}

type Chain = Vec<ChainStep>;

/// Chains are capped so mutually recursive summaries cannot balloon.
const MAX_CHAIN: usize = 8;

/// Per-function dataflow summary.
#[derive(Debug, Clone, Default)]
struct Summary {
    /// The function's return value carries plaintext.
    returns_taint: bool,
    /// A parameter flows to a broker-visible sink; the chain runs from
    /// the sink (or forwarding call) inside this function down to the
    /// raw sink.
    sink: Option<Chain>,
}

/// What the taint pass found.
#[derive(Debug, Default)]
pub struct TaintReport {
    /// Hard violations (taint flows plus ciphertext-at-rest backstop).
    pub findings: Vec<Finding>,
    /// `// TAINT-OK:` justified flow sites, per file.
    pub justified: BTreeMap<String, u32>,
}

/// Runs the pass over the whole (possibly virtual) workspace.
pub fn run(files: &[SourceFile], table: &SymbolTable) -> TaintReport {
    let sources = source_type_closure(files);
    let mut summaries: Vec<Summary> = Vec::new();
    for node in &table.fns {
        summaries.push(Summary {
            returns_taint: ret_mentions_source(node, &sources),
            sink: None,
        });
    }

    // Fixpoint: summaries only ever gain facts, so this terminates in at
    // most `fns` rounds; real call chains converge in a handful.
    for _ in 0..summaries.len().max(1) {
        let mut changed = false;
        for (id, node) in table.fns.iter().enumerate() {
            if is_sanitizer(&node.item.name) {
                continue;
            }
            let r = analyze_fn(node, table, &sources, &summaries);
            if r.returns_taint && !summaries[id].returns_taint {
                summaries[id].returns_taint = true;
                changed = true;
            }
            if summaries[id].sink.is_none() {
                if let Some(chain) = r.sink {
                    summaries[id].sink = Some(chain);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Final pass: collect locally-originated flows as findings.
    let lexed_by_rel: BTreeMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel.as_str(), f)).collect();
    let mut report = TaintReport::default();
    let mut seen = BTreeSet::new();
    for node in &table.fns {
        if is_sanitizer(&node.item.name) {
            continue;
        }
        let r = analyze_fn(node, table, &sources, &summaries);
        for v in r.violations {
            if !seen.insert((node.rel_path.clone(), v.origin_line, v.chain.clone())) {
                continue;
            }
            let justified = lexed_by_rel
                .get(node.rel_path.as_str())
                .is_some_and(|f| f.lexed.is_taint_ok_near(v.origin_line));
            if justified {
                *report.justified.entry(node.rel_path.clone()).or_insert(0) += 1;
                continue;
            }
            let chain = v
                .chain
                .iter()
                .map(|s| format!("{}:{} ({})", s.file, s.line, s.what))
                .collect::<Vec<_>>()
                .join(" -> ");
            report.findings.push(Finding {
                file: node.rel_path.clone(),
                line: v.origin_line,
                rule: Rule::ConfidentialityTaint,
                message: format!(
                    "plaintext reaches a broker-visible sink: {} in `{}`, then {}; \
                     seal via the psguard-crypto entry points before the trust boundary, \
                     or justify with // TAINT-OK: <why>",
                    v.origin_what,
                    node.display_name(),
                    chain,
                ),
                allowlisted: false,
            });
        }
    }

    // Scope backstop: the durable log must not even name the plaintext
    // model (subsumes the PR 7 ciphertext-at-rest rule).
    for f in files {
        if config::ciphertext_scope_contains(&f.rel) {
            ciphertext_backstop(f, &mut report.findings);
        }
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// A locally-originated plaintext→sink flow inside one function.
#[derive(Debug)]
struct Violation {
    origin_line: u32,
    origin_what: String,
    chain: Chain,
}

#[derive(Debug, Default)]
struct FnResult {
    returns_taint: bool,
    sink: Option<Chain>,
    violations: Vec<Violation>,
}

/// Whether a type mention counts as a source: the ident is a source type
/// and the path is either unqualified or rooted in the model crate
/// (`F::Event`, an associated type of a generic transport, is not).
fn is_source_mention(t: &TypeRef, sources: &BTreeSet<String>) -> bool {
    sources.contains(&t.ident)
        && t.root
            .as_deref()
            .is_none_or(|r| config::MODEL_PATH_ROOTS.contains(&r))
}

fn is_sanitizer(name: &str) -> bool {
    config::SANITIZER_FNS.contains(&name)
}

/// Source types plus every struct (in the plaintext-handling crates)
/// that embeds one: a container holding an `Event` field is as tainted
/// as the `Event`. Restricted to the model/client/routing crates so
/// generic broker containers don't join the closure spuriously.
fn source_type_closure(files: &[SourceFile]) -> BTreeSet<String> {
    let mut set: BTreeSet<String> = config::PLAINTEXT_SOURCE_TYPES
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    loop {
        let mut changed = false;
        for f in files {
            if !matches!(
                f.parsed.crate_name.as_str(),
                "model" | "psguard" | "routing"
            ) {
                continue;
            }
            for s in &f.parsed.structs {
                if f.lexed.is_test_line(s.line) || set.contains(&s.name) {
                    continue;
                }
                if s.field_types.iter().any(|t| is_source_mention(t, &set)) {
                    set.insert(s.name.clone());
                    changed = true;
                }
            }
        }
        if !changed {
            return set;
        }
    }
}

/// Return-type idents with `Self` resolved to the impl's self type.
fn effective_ret(node: &FnNode) -> Vec<TypeRef> {
    node.item
        .ret
        .iter()
        .map(|t| {
            if t.ident == "Self" {
                TypeRef {
                    ident: node.item.qual.clone().unwrap_or_else(|| "Self".to_owned()),
                    root: None,
                }
            } else {
                t.clone()
            }
        })
        .collect()
}

fn ret_mentions_source(node: &FnNode, sources: &BTreeSet<String>) -> bool {
    node.item.has_ret
        && effective_ret(node)
            .iter()
            .any(|t| is_source_mention(t, sources))
}

/// Whether the declared return type cannot carry plaintext content, so
/// tail-expression taint must not set `returns_taint` (kills the
/// `fn matches(..) -> bool` class of false positives).
fn ret_is_safe(node: &FnNode, sources: &BTreeSet<String>) -> bool {
    if !node.item.has_ret {
        return true;
    }
    let ret = effective_ret(node);
    if ret.iter().any(|t| is_source_mention(t, sources)) {
        return false;
    }
    ret.iter()
        .all(|t| config::SAFE_RETURN_IDENTS.contains(&t.ident.as_str()))
}

/// Strictly resolves a call for *origin* purposes: a qualified call only
/// matches its exact `Qual::name` items (no bare-name fallback — a
/// known-different qualifier must not alias into the model's
/// constructors), and method calls never originate taint on their own
/// (their receiver would already have tainted the statement).
fn strict_origin_returns_taint(
    call: &crate::parser::CallExpr,
    table: &SymbolTable,
    summaries: &[Summary],
) -> bool {
    if !call.receiver.is_empty() {
        return false;
    }
    let ids = table.resolve_strict(&call.name, call.qual.as_deref());
    ids.iter().any(|&id| summaries[id].returns_taint)
}

/// The intra-procedural analysis of one function body.
fn analyze_fn(
    node: &FnNode,
    table: &SymbolTable,
    sources: &BTreeSet<String>,
    summaries: &[Summary],
) -> FnResult {
    let rel = &node.rel_path;
    let in_sink_scope = config::rule_scope_contains("taint-sink", rel);
    let in_format_scope = config::rule_scope_contains("taint-format-sink", rel);

    // Bindings tainted by parameter type.
    let mut param_taint: BTreeSet<String> = BTreeSet::new();
    for p in &node.item.params {
        if p.ty.iter().any(|t| is_source_mention(t, sources)) {
            param_taint.extend(p.names.iter().cloned());
        }
    }
    // Bindings tainted by a local origin, with where/why.
    let mut local: BTreeMap<String, (u32, String)> = BTreeMap::new();

    // Phase 1: propagate binding taint to a fixpoint (loops can carry
    // taint backward through the statement list).
    for _ in 0..6 {
        let mut changed = false;
        for stmt in &node.item.stmts {
            if stmt_is_sanitized(stmt) {
                continue;
            }
            let (param_hit, local_hit) =
                stmt_taint(stmt, &param_taint, &local, table, sources, summaries);
            if !param_hit && local_hit.is_none() {
                continue;
            }
            for b in stmt.lets.iter().chain(stmt.mut_borrows.iter()) {
                if let Some(origin) = &local_hit {
                    if !local.contains_key(b) {
                        local.insert(b.clone(), origin.clone());
                        changed = true;
                    }
                } else if !local.contains_key(b) && param_taint.insert(b.clone()) {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Phase 2: with stable binding taint, record sinks and returns.
    let mut result = FnResult::default();
    let n_stmts = node.item.stmts.len();
    for (si, stmt) in node.item.stmts.iter().enumerate() {
        if stmt_is_sanitized(stmt) {
            continue;
        }
        let (param_hit, local_hit) =
            stmt_taint(stmt, &param_taint, &local, table, sources, summaries);
        if !param_hit && local_hit.is_none() {
            continue;
        }
        if let Some(chain) = stmt_sink_chain(
            stmt,
            rel,
            &node.display_name(),
            in_sink_scope,
            in_format_scope,
            table,
            summaries,
        ) {
            if let Some((oline, owhat)) = &local_hit {
                result.violations.push(Violation {
                    origin_line: *oline,
                    origin_what: owhat.clone(),
                    chain,
                });
            } else if result.sink.is_none() {
                result.sink = Some(chain);
            }
        }
        let is_tail = si + 1 == n_stmts && !stmt.ends_semi;
        if (stmt.is_return || is_tail) && local_hit.is_some() && !ret_is_safe(node, sources) {
            result.returns_taint = true;
        }
    }
    result
}

/// A statement containing a sanitizer call neither propagates taint nor
/// counts as a sink: its value crosses into ciphertext.
fn stmt_is_sanitized(stmt: &Stmt) -> bool {
    stmt.calls
        .iter()
        .any(|c| !c.is_macro && is_sanitizer(&c.name))
}

/// Computes whether a statement is tainted: via a parameter-tainted
/// atom, a locally-tainted atom, or a taint origin in the statement
/// itself (model constructor / strict call to a plaintext returner).
fn stmt_taint(
    stmt: &Stmt,
    param_taint: &BTreeSet<String>,
    local: &BTreeMap<String, (u32, String)>,
    table: &SymbolTable,
    sources: &BTreeSet<String>,
    summaries: &[Summary],
) -> (bool, Option<(u32, String)>) {
    let param_hit = stmt.atoms.iter().any(|a| param_taint.contains(a));
    let mut local_hit: Option<(u32, String)> =
        stmt.atoms.iter().find_map(|a| local.get(a).cloned());
    if local_hit.is_none() {
        for c in &stmt.calls {
            if c.is_macro {
                continue;
            }
            if let Some(q) = &c.qual {
                if sources.contains(q) {
                    local_hit = Some((
                        c.line,
                        format!("plaintext `{q}` obtained via `{q}::{}`", c.name),
                    ));
                    break;
                }
            }
            if strict_origin_returns_taint(c, table, summaries) {
                local_hit = Some((c.line, format!("plaintext returned by `{}(..)`", c.name)));
                break;
            }
        }
    }
    (param_hit, local_hit)
}

/// Whether a tainted statement hits a sink, and through which chain.
fn stmt_sink_chain(
    stmt: &Stmt,
    rel: &str,
    fn_display: &str,
    in_sink_scope: bool,
    in_format_scope: bool,
    table: &SymbolTable,
    summaries: &[Summary],
) -> Option<Chain> {
    for c in &stmt.calls {
        if c.is_macro {
            if in_format_scope && config::FORMAT_MACROS.contains(&c.name.as_str()) {
                return Some(vec![ChainStep {
                    file: rel.to_owned(),
                    line: c.line,
                    what: format!("format/debug sink `{}!` in `{fn_display}`", c.name),
                }]);
            }
            continue;
        }
        if in_sink_scope && config::RAW_SINK_METHODS.contains(&c.name.as_str()) {
            return Some(vec![ChainStep {
                file: rel.to_owned(),
                line: c.line,
                what: format!("raw byte write `.{}(..)` in `{fn_display}`", c.name),
            }]);
        }
        if config::SINK_FNS.contains(&c.name.as_str()) {
            return Some(vec![ChainStep {
                file: rel.to_owned(),
                line: c.line,
                what: format!("frame write `{}(..)` in `{fn_display}`", c.name),
            }]);
        }
        // A callee one or more hops from a sink: extend its chain.
        for id in table.resolve_call(&c.name, c.qual.as_deref(), rel) {
            if let Some(sub) = &summaries[id].sink {
                if sub.len() >= MAX_CHAIN {
                    continue;
                }
                let mut chain = vec![ChainStep {
                    file: rel.to_owned(),
                    line: c.line,
                    what: format!("passed into `{}`", table.fns[id].display_name()),
                }];
                chain.extend(sub.iter().cloned());
                return Some(chain);
            }
        }
    }
    None
}

/// The ciphertext-at-rest ident ban (PR 7), now a backstop of the taint
/// pass: the durable log must treat payloads as opaque bytes, so naming
/// the plaintext model or the wire codec there is a hard violation even
/// when no call-graph flow is visible.
fn ciphertext_backstop(f: &SourceFile, out: &mut Vec<Finding>) {
    for t in &f.lexed.tokens {
        if f.lexed.is_test_line(t.line) {
            continue;
        }
        if let Tok::Ident(name) = &t.tok {
            if config::CIPHERTEXT_BANNED_IDENTS.contains(&name.as_str()) {
                out.push(Finding {
                    file: f.rel.clone(),
                    line: t.line,
                    rule: Rule::CiphertextAtRest,
                    message: format!(
                        "`{name}` inside the durable log: the log stores opaque \
                         already-encoded bytes only; decode/encode events at the \
                         dispatcher, never on the disk path"
                    ),
                    allowlisted: false,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::load;

    fn run_on(files: &[(&str, &str)]) -> TaintReport {
        let loaded: Vec<SourceFile> = files.iter().map(|(r, s)| load(r, s)).collect();
        let table = SymbolTable::build(loaded.iter().map(|f| &f.parsed));
        run(&loaded, &table)
    }

    #[test]
    fn direct_plaintext_to_socket_write_flagged_with_chain() {
        let r = run_on(&[(
            "crates/siena/src/reactor/demo.rs",
            "fn leak(w: &mut W) {\n  let event = Event::builder(\"t\").build();\n  \
             w.write_all(event.as_bytes());\n}\n",
        )]);
        assert_eq!(r.findings.len(), 1, "{:#?}", r.findings);
        let f = &r.findings[0];
        assert_eq!(f.rule, Rule::ConfidentialityTaint);
        assert!(f.message.contains("write_all"), "{}", f.message);
    }

    #[test]
    fn flow_through_intermediate_helper_builds_full_chain() {
        let r = run_on(&[(
            "crates/siena/src/reactor/demo.rs",
            "fn origin(w: &mut W) {\n  let event = Event::builder(\"t\").build();\n  \
             forward(w, &event);\n}\n\
             fn forward(w: &mut W, event: &Event) {\n  emit(w, event);\n}\n\
             fn emit(w: &mut W, event: &Event) {\n  w.write_all(event.as_bytes());\n}\n",
        )]);
        assert_eq!(r.findings.len(), 1, "{:#?}", r.findings);
        let msg = &r.findings[0].message;
        assert!(msg.contains("passed into `forward`"), "{msg}");
        assert!(msg.contains("passed into `emit`"), "{msg}");
        assert!(msg.contains("write_all"), "{msg}");
    }

    #[test]
    fn sanitized_flow_is_clean() {
        let r = run_on(&[(
            "crates/siena/src/reactor/demo.rs",
            "fn ok(w: &mut W, p: &Publisher) {\n  let event = Event::builder(\"t\").build();\n  \
             let sealed = p.publish(event);\n  w.write_all(&sealed);\n}\n",
        )]);
        assert!(r.findings.is_empty(), "{:#?}", r.findings);
    }

    #[test]
    fn param_typed_codec_is_summary_not_violation() {
        // The classic-family codec (`impl Wire for Event`) legitimately
        // writes its plaintext parameter — only a caller completing the
        // source→sink path is a violation.
        let r = run_on(&[(
            "crates/siena/src/wire.rs",
            "impl Wire for Event {\n  fn encode(&self, w: &mut W) {\n    \
             w.write_all(&self.bytes);\n  }\n}\n",
        )]);
        assert!(r.findings.is_empty(), "{:#?}", r.findings);
    }

    #[test]
    fn format_sink_in_broker_scope_flagged_but_not_client_side() {
        let broker = run_on(&[(
            "crates/siena/src/index.rs",
            "fn debug_dump() {\n  let filter = Filter::builder().build();\n  \
             println!(\"{filter:?}\");\n}\n",
        )]);
        assert_eq!(broker.findings.len(), 1, "{:#?}", broker.findings);
        let client = run_on(&[(
            "crates/psguard/src/publisher.rs",
            "fn debug_dump() {\n  let filter = Filter::builder().build();\n  \
             println!(\"{filter:?}\");\n}\n",
        )]);
        assert!(client.findings.is_empty(), "{:#?}", client.findings);
    }

    #[test]
    fn taint_ok_marker_moves_finding_to_justified() {
        let r = run_on(&[(
            "crates/siena/src/reactor/demo.rs",
            "fn leak(w: &mut W) {\n  // TAINT-OK: fixture exercising the budget path\n  \
             let event = Event::builder(\"t\").build();\n  w.write_all(event.as_bytes());\n}\n",
        )]);
        assert!(r.findings.is_empty(), "{:#?}", r.findings);
        assert_eq!(
            r.justified.get("crates/siena/src/reactor/demo.rs"),
            Some(&1)
        );
    }

    #[test]
    fn generic_associated_event_is_not_a_source() {
        let r = run_on(&[(
            "crates/siena/src/reactor/demo.rs",
            "fn deliver<F: Fam>(w: &mut W, event: F::Event) {\n  \
             w.write_all(event.as_bytes());\n}\n",
        )]);
        assert!(r.findings.is_empty(), "{:#?}", r.findings);
    }

    #[test]
    fn struct_embedding_event_joins_the_closure() {
        let r = run_on(&[
            (
                "crates/psguard/src/holder.rs",
                "pub struct Pending { pub event: Event }\n\
                 impl Pending { pub fn take(self) -> Event { self.event } }\n",
            ),
            (
                "crates/siena/src/reactor/demo.rs",
                "fn leak(w: &mut W) {\n  let pending = Pending::fetch();\n  \
                 w.write_all(pending.as_bytes());\n}\n\
                 impl Pending { pub fn fetch() -> Pending { todo_source() } }\n",
            ),
        ]);
        // `Pending::fetch` returns a closure member ⇒ origin.
        assert_eq!(r.findings.len(), 1, "{:#?}", r.findings);
    }

    #[test]
    fn ciphertext_backstop_still_bans_model_idents_in_log() {
        let r = run_on(&[(
            "crates/siena/src/log/mod.rs",
            "use psguard_model::Event;\nfn bad(p: &[u8]) { let _ = Event::from_bytes(p); }\n",
        )]);
        let backstop: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == Rule::CiphertextAtRest)
            .collect();
        assert_eq!(backstop.len(), 3, "{backstop:#?}");
    }

    #[test]
    fn ciphertext_backstop_allows_opaque_bytes_and_test_code() {
        let r = run_on(&[(
            "crates/siena/src/log/mod.rs",
            "pub struct EventLog { scratch: Vec<u8> }\n\
             impl EventLog { fn append(&mut self, payload: &[u8]) { let _ = payload; } }\n\
             #[cfg(test)]\nmod tests {\n  use psguard_model::Event;\n}\n",
        )]);
        assert!(r.findings.is_empty(), "{:#?}", r.findings);
    }

    #[test]
    fn ciphertext_backstop_stops_at_the_log_boundary() {
        let r = run_on(&[(
            "crates/siena/src/reactor/broker.rs",
            "fn replay(p: &[u8]) { let n = decode_len(p); use_it(n); }\n",
        )]);
        assert!(
            r.findings.iter().all(|f| f.rule != Rule::CiphertextAtRest),
            "{:#?}",
            r.findings
        );
    }

    #[test]
    fn untainted_writes_in_sink_scope_are_clean() {
        let r = run_on(&[(
            "crates/siena/src/reactor/demo.rs",
            "fn pump(w: &mut W, frame: &SharedFrame) {\n  w.write_all(frame.bytes());\n}\n",
        )]);
        assert!(r.findings.is_empty(), "{:#?}", r.findings);
    }
}
