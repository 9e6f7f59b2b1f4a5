//! Reactor-safety lints over the workspace call graph (DESIGN.md §17).
//!
//! Motivated by the PR 6 review fixes: one blocking `send` on the client
//! I/O thread stalled every connection. Two lints run on code reachable
//! from the reactor entry points ([`crate::config::REACTOR_ENTRY_POINTS`] —
//! broker worker, whose worker 0 also dispatches, and client reactor):
//!
//! 1. **Blocking ops** (`reactor-blocking`): a blocking `.send(..)` on a
//!    *bounded* channel, a bare `.recv()`, or a `thread::sleep` call in
//!    any reachable function. Bounded-ness is tracked by provenance:
//!    `let (tx, rx) = bounded::<T>(n)` registers both ends, `.clone()`
//!    aliases propagate, and a send through a struct field resolves via
//!    the field's name (`slot.etx.send` → `etx`). Unknown senders are
//!    allowed — unbounded sends never block. `// BLOCKING-OK: <why>` on
//!    or just above the call suppresses, for justified bounded waits
//!    (e.g. shutdown drains).
//! 2. **Bounded-channel cycles** (`channel-cycle`): two reactor
//!    components with blocking bounded sends toward each other — each
//!    can fill the other's queue while blocked, a deadlock candidate.
//!    `try_send` escapes (the PR 6 fix) break the edge.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::parser::SourceFile;
use crate::rules::{Finding, Rule};
use crate::symbols::{FnId, SymbolTable};

/// Which end of a channel a binding names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Sender,
    Receiver,
}

/// One registered channel creation site.
#[derive(Debug)]
struct Channel {
    bounded: bool,
    file: String,
    line: u32,
}

/// Binding-name → (channel id, end) registry with `.clone()` aliasing.
#[derive(Debug, Default)]
struct Registry {
    channels: Vec<Channel>,
    ends: BTreeMap<String, Vec<(usize, End)>>,
}

impl Registry {
    fn register(&mut self, name: &str, chan: usize, end: End) {
        let ends = self.ends.entry(name.to_owned()).or_default();
        if !ends.contains(&(chan, end)) {
            ends.push((chan, end));
        }
    }

    /// Channels a `.send(..)` through `name` might block on.
    fn bounded_send_channels(&self, name: &str) -> Vec<usize> {
        self.ends
            .get(name)
            .map(|v| {
                v.iter()
                    .filter(|(c, e)| *e == End::Sender && self.channels[*c].bounded)
                    .map(|(c, _)| *c)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Channels drained through `name`.
    fn recv_channels(&self, name: &str) -> Vec<usize> {
        self.ends
            .get(name)
            .map(|v| {
                v.iter()
                    .filter(|(_, e)| *e == End::Receiver)
                    .map(|(c, _)| *c)
                    .collect()
            })
            .unwrap_or_default()
    }
}

const RECV_METHODS: &[&str] = &["recv", "try_recv", "recv_timeout"];

/// Runs both lints. `entries` is `(file, fn)` — production callers pass
/// [`crate::config::REACTOR_ENTRY_POINTS`]; fixture tests pass their own.
pub fn run(
    files: &[SourceFile],
    table: &SymbolTable,
    graph: &CallGraph,
    entries: &[(&str, &str)],
) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Resolve entry points; a missing one is config rot and a hard error.
    let mut entry_ids: Vec<FnId> = Vec::new();
    for (file, name) in entries {
        match table.find_in_file(file, name) {
            Some(id) => entry_ids.push(id),
            None => findings.push(Finding {
                file: (*file).to_owned(),
                line: 1,
                rule: Rule::ReactorBlocking,
                message: format!(
                    "configured reactor entry point `{name}` not found in this file; \
                     update REACTOR_ENTRY_POINTS"
                ),
                allowlisted: false,
            }),
        }
    }
    if entry_ids.is_empty() {
        return findings;
    }

    let registry = build_registry(table);
    let union_state = graph.reach_from(&entry_ids);
    let lexed_by_rel: BTreeMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel.as_str(), f)).collect();

    // Lint 1: blocking ops in reachable code.
    for (id, node) in table.fns.iter().enumerate() {
        if union_state[id].is_none() {
            continue;
        }
        let lexed = lexed_by_rel.get(node.rel_path.as_str()).map(|f| &f.lexed);
        for stmt in &node.item.stmts {
            let holds_lock = stmt.calls.iter().any(|c| !c.is_macro && c.name == "lock");
            for c in &stmt.calls {
                if c.is_macro {
                    continue;
                }
                let what = match c.name.as_str() {
                    "send" if !c.receiver.is_empty() => {
                        let via = c.receiver.last().map(String::as_str).unwrap_or("");
                        if registry.bounded_send_channels(via).is_empty() {
                            None
                        } else {
                            Some(format!(
                                "blocking `.send(..)` on the bounded channel `{via}`; \
                                 use `try_send` with an overflow policy"
                            ))
                        }
                    }
                    "recv" if !c.receiver.is_empty() => Some(
                        "bare `.recv()` blocks the reactor thread indefinitely; \
                         use `try_recv` or `recv_timeout`"
                            .to_owned(),
                    ),
                    "sleep" => Some(
                        "`thread::sleep` stalls the reactor thread; use the poller's \
                         timed wait instead"
                            .to_owned(),
                    ),
                    _ => None,
                };
                let Some(mut what) = what else { continue };
                if lexed.is_some_and(|l| l.is_blocking_ok_near(c.line)) {
                    continue;
                }
                if holds_lock {
                    what.push_str(" (a lock is held in the same statement)");
                }
                let chain = render_chain(&union_state, table, id);
                findings.push(Finding {
                    file: node.rel_path.clone(),
                    line: c.line,
                    rule: Rule::ReactorBlocking,
                    message: format!("{what}; reachable via {chain}"),
                    allowlisted: false,
                });
            }
        }
    }

    // Lint 2: bounded-channel send cycles between entry components.
    findings.extend(find_cycles(table, graph, &entry_ids, entries, &registry));

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings.dedup();
    findings
}

/// Scans every function for channel creations and `.clone()` aliases.
/// Aliasing iterates to a fixpoint so a clone of a clone still resolves.
fn build_registry(table: &SymbolTable) -> Registry {
    let mut reg = Registry::default();
    for node in &table.fns {
        for stmt in &node.item.stmts {
            for c in &stmt.calls {
                if c.is_macro || !(c.name == "bounded" || c.name == "unbounded") {
                    continue;
                }
                if stmt.lets.len() != 2 {
                    continue;
                }
                let chan = reg.channels.len();
                reg.channels.push(Channel {
                    bounded: c.name == "bounded",
                    file: node.rel_path.clone(),
                    line: c.line,
                });
                reg.register(&stmt.lets[0], chan, End::Sender);
                reg.register(&stmt.lets[1], chan, End::Receiver);
            }
        }
    }
    for _ in 0..4 {
        let mut changed = false;
        for node in &table.fns {
            for stmt in &node.item.stmts {
                for c in &stmt.calls {
                    if c.is_macro || c.name != "clone" || c.receiver.is_empty() {
                        continue;
                    }
                    let src = c.receiver.last().map(String::as_str).unwrap_or("");
                    let entries = reg.ends.get(src).cloned().unwrap_or_default();
                    if entries.is_empty() {
                        continue;
                    }
                    for target in &stmt.lets {
                        for (chan, end) in &entries {
                            let known = reg
                                .ends
                                .get(target)
                                .is_some_and(|v| v.contains(&(*chan, *end)));
                            if !known {
                                reg.register(target, *chan, *end);
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    reg
}

/// Renders `entry -> … -> fn` for a finding message.
fn render_chain(
    state: &[Option<Option<crate::callgraph::Edge>>],
    table: &SymbolTable,
    target: FnId,
) -> String {
    CallGraph::path_to(state, target)
        .iter()
        .map(|&id| format!("`{}`", table.fns[id].display_name()))
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Detects two entry components with blocking bounded sends toward each
/// other: component A blocking-sends on a channel drained by component
/// B, and B blocking-sends on a channel drained by A.
fn find_cycles(
    table: &SymbolTable,
    graph: &CallGraph,
    entry_ids: &[FnId],
    entries: &[(&str, &str)],
    registry: &Registry,
) -> Vec<Finding> {
    // Per-entry reachable sets.
    let comps: Vec<Vec<bool>> = entry_ids
        .iter()
        .map(|&e| graph.reach_from(&[e]).iter().map(Option::is_some).collect())
        .collect();

    // Per-component: channels blocking-sent on (with a witness site) and
    // channels drained.
    let mut sends: Vec<BTreeMap<usize, (String, u32)>> = vec![BTreeMap::new(); comps.len()];
    let mut drains: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); comps.len()];
    for (id, node) in table.fns.iter().enumerate() {
        for (ci, comp) in comps.iter().enumerate() {
            if !comp.get(id).copied().unwrap_or(false) {
                continue;
            }
            for stmt in &node.item.stmts {
                for c in &stmt.calls {
                    if c.is_macro || c.receiver.is_empty() {
                        continue;
                    }
                    let via = c.receiver.last().map(String::as_str).unwrap_or("");
                    if c.name == "send" {
                        for chan in registry.bounded_send_channels(via) {
                            sends[ci]
                                .entry(chan)
                                .or_insert((node.rel_path.clone(), c.line));
                        }
                    } else if RECV_METHODS.contains(&c.name.as_str()) {
                        for chan in registry.recv_channels(via) {
                            drains[ci].insert(chan);
                        }
                    }
                }
            }
        }
    }

    let mut findings = Vec::new();
    for a in 0..comps.len() {
        for b in (a + 1)..comps.len() {
            let a_to_b = sends[a].iter().find(|(chan, _)| drains[b].contains(chan));
            let b_to_a = sends[b].iter().find(|(chan, _)| drains[a].contains(chan));
            if let (Some((c1, site)), Some((c2, _))) = (a_to_b, b_to_a) {
                let chan1 = &registry.channels[*c1];
                let chan2 = &registry.channels[*c2];
                findings.push(Finding {
                    file: site.0.clone(),
                    line: site.1,
                    rule: Rule::ChannelCycle,
                    message: format!(
                        "bounded-channel send cycle between `{}` and `{}`: blocking sends \
                         both directions (channels created at {}:{} and {}:{}) can deadlock \
                         with both queues full; break one direction with `try_send`",
                        entries[a].1, entries[b].1, chan1.file, chan1.line, chan2.file, chan2.line,
                    ),
                    allowlisted: false,
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::load;

    fn run_on(files: &[(&str, &str)], entries: &[(&str, &str)]) -> Vec<Finding> {
        let loaded: Vec<SourceFile> = files.iter().map(|(r, s)| load(r, s)).collect();
        let table = SymbolTable::build(loaded.iter().map(|f| &f.parsed));
        let graph = CallGraph::build(&table);
        run(&loaded, &table, &graph, entries)
    }

    const FILE: &str = "crates/siena/src/reactor/demo.rs";

    #[test]
    fn blocking_send_on_bounded_channel_reachable_from_entry_flagged() {
        let f = run_on(
            &[(
                FILE,
                "fn run_client_reactor() {\n  let (etx, erx) = bounded::<Event>(64);\n  \
                 deliver(&etx);\n}\nfn deliver(etx: &Sender<Event>) {\n  \
                 etx.send(make()).ok();\n}\n",
            )],
            &[(FILE, "run_client_reactor")],
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, Rule::ReactorBlocking);
        assert!(
            f[0].message.contains("run_client_reactor"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn try_send_and_unbounded_send_are_clean() {
        let f = run_on(
            &[(
                FILE,
                "fn run_client_reactor() {\n  let (etx, erx) = bounded::<Event>(64);\n  \
                 let (atx, arx) = unbounded::<Act>();\n  etx.try_send(make()).ok();\n  \
                 atx.send(act()).ok();\n}\n",
            )],
            &[(FILE, "run_client_reactor")],
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn clone_alias_and_field_send_still_resolve() {
        let f = run_on(
            &[(
                FILE,
                "fn run_client_reactor() {\n  let (etx, erx) = bounded::<Event>(64);\n  \
                 let slot = Slot { etx: etx.clone() };\n  pump(&slot);\n}\n\
                 fn pump(slot: &Slot) {\n  slot.etx.send(make()).ok();\n}\n",
            )],
            &[(FILE, "run_client_reactor")],
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("etx"));
    }

    #[test]
    fn unreachable_code_and_blocking_ok_marker_are_not_flagged() {
        let f = run_on(
            &[(
                FILE,
                "fn run_client_reactor() {\n  let (etx, erx) = bounded::<Event>(64);\n  \
                 flush(&etx);\n}\n\
                 fn flush(etx: &Sender<Event>) {\n  \
                 // BLOCKING-OK: bounded shutdown drain, reactor is exiting\n  \
                 std::thread::sleep(NAP);\n}\n\
                 fn app_side(etx: &Sender<Event>) {\n  etx.send(make()).ok();\n}\n",
            )],
            &[(FILE, "run_client_reactor")],
        );
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn bare_recv_and_sleep_flagged() {
        let f = run_on(
            &[(
                FILE,
                "fn run_dispatcher() {\n  let (tx, rx) = unbounded::<Msg>();\n  \
                 let m = rx.recv();\n  std::thread::sleep(NAP);\n}\n",
            )],
            &[(FILE, "run_dispatcher")],
        );
        assert_eq!(f.len(), 2, "{f:#?}");
    }

    #[test]
    fn bounded_cycle_between_components_flagged_and_try_send_escape_clean() {
        let cycle = run_on(
            &[(
                FILE,
                "fn run_dispatcher() {\n  fwd_to_worker();\n  let m = drx.recv_timeout(T);\n}\n\
                 fn run_broker_worker() {\n  fwd_to_dispatcher();\n  let m = wrx.try_recv();\n}\n\
                 fn fwd_to_worker() { wtx.send(job()).ok(); }\n\
                 fn fwd_to_dispatcher() { dtx.send(msg()).ok(); }\n\
                 fn setup() {\n  let (wtx, wrx) = bounded::<Job>(4);\n  \
                 let (dtx, drx) = bounded::<Msg>(4);\n}\n",
            )],
            &[(FILE, "run_dispatcher"), (FILE, "run_broker_worker")],
        );
        assert!(
            cycle.iter().any(|f| f.rule == Rule::ChannelCycle),
            "{cycle:#?}"
        );
        let escaped = run_on(
            &[(
                FILE,
                "fn run_dispatcher() {\n  fwd_to_worker();\n  let m = drx.recv_timeout(T);\n}\n\
                 fn run_broker_worker() {\n  fwd_to_dispatcher();\n  let m = wrx.try_recv();\n}\n\
                 fn fwd_to_worker() { wtx.send(job()).ok(); }\n\
                 fn fwd_to_dispatcher() { dtx.try_send(msg()).ok(); }\n\
                 fn setup() {\n  let (wtx, wrx) = bounded::<Job>(4);\n  \
                 let (dtx, drx) = bounded::<Msg>(4);\n}\n",
            )],
            &[(FILE, "run_dispatcher"), (FILE, "run_broker_worker")],
        );
        assert!(
            escaped.iter().all(|f| f.rule != Rule::ChannelCycle),
            "{escaped:#?}"
        );
    }

    #[test]
    fn missing_entry_point_is_config_rot() {
        let f = run_on(
            &[(FILE, "fn something_else() {}\n")],
            &[(FILE, "run_dispatcher")],
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("not found"));
    }
}
