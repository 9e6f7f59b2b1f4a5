//! Fixture-based rule tests: each rule family must catch its seeded
//! violation file and pass its clean counterpart, plus a self-check that
//! the live workspace (and its allowlist) stays clean.

use std::path::{Path, PathBuf};

use psguard_xtask::callgraph::CallGraph;
use psguard_xtask::lexer::lex;
use psguard_xtask::parser::{load, SourceFile};
use psguard_xtask::rules::{scan_file, Finding, Rule};
use psguard_xtask::symbols::SymbolTable;
use psguard_xtask::taint::TaintReport;
use psguard_xtask::{dead_pub, reactor_safety, taint};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Scans a fixture as if it lived at `rel_path` in the workspace.
fn scan(rel_path: &str, name: &str) -> Vec<Finding> {
    scan_file(rel_path, &lex(&fixture(name)))
}

fn load_fixtures(files: &[(&str, &str)]) -> (Vec<SourceFile>, SymbolTable) {
    let loaded: Vec<SourceFile> = files
        .iter()
        .map(|(rel, n)| load(rel, &fixture(n)))
        .collect();
    let table = SymbolTable::build(loaded.iter().map(|f| &f.parsed));
    (loaded, table)
}

/// Runs the interprocedural taint pass over fixtures placed at the
/// given workspace-relative paths.
fn taint_on(files: &[(&str, &str)]) -> TaintReport {
    let (loaded, table) = load_fixtures(files);
    taint::run(&loaded, &table)
}

/// Runs the reactor-safety pass over fixtures with explicit entry
/// points.
fn reactor_on(files: &[(&str, &str)], entries: &[(&str, &str)]) -> Vec<Finding> {
    let (loaded, table) = load_fixtures(files);
    let graph = CallGraph::build(&table);
    reactor_safety::run(&loaded, &table, &graph, entries)
}

fn by_rule(findings: &[Finding], rule: Rule) -> Vec<&Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

fn hard_violations(findings: &[Finding]) -> Vec<&Finding> {
    findings.iter().filter(|f| !f.allowlisted).collect()
}

#[test]
fn secret_hygiene_catches_seeded_violations() {
    let findings = scan("crates/crypto/src/fixture.rs", "secret_violation.rs");
    let secret: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::SecretHygiene)
        .collect();
    // derive(Debug) on DeriveKey, derive(Serialize) on AesKey,
    // derive(Debug) on CacheSlot, Display on Kdc, {topic_key:?}
    // interpolation, raw_key format argument.
    assert!(secret.len() >= 6, "{secret:#?}");
    assert!(
        secret.iter().any(|f| f.message.contains("CacheSlot")),
        "{secret:#?}"
    );
}

#[test]
fn secret_hygiene_passes_clean_snippet() {
    let findings = scan("crates/crypto/src/fixture.rs", "secret_clean.rs");
    let secret: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::SecretHygiene)
        .collect();
    assert!(secret.is_empty(), "{secret:#?}");
}

#[test]
fn secret_hygiene_covers_reusable_crypto_contexts() {
    let findings = scan("crates/crypto/src/fixture.rs", "context_violation.rs");
    let secret: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::SecretHygiene)
        .collect();
    // derive(Debug) on PrfContext, derive(Serialize) on HmacContext,
    // Display on AesContext, derive(Debug) on ProbeTable.
    assert!(secret.len() >= 4, "{secret:#?}");
}

#[test]
fn secret_hygiene_accepts_redacted_crypto_contexts() {
    let findings = scan("crates/crypto/src/fixture.rs", "context_clean.rs");
    let secret: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::SecretHygiene)
        .collect();
    assert!(secret.is_empty(), "{secret:#?}");
}

#[test]
fn secret_hygiene_covers_batched_rekey_types() {
    let findings = scan("crates/groupkey/src/fixture.rs", "batch_violation.rs");
    let secret: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::SecretHygiene)
        .collect();
    // derive(Debug) on NodeKeys, derive(Serialize) on RekeyBatch,
    // Display on GroupRekeyCoordinator, {arena:?} interpolation.
    assert!(secret.len() >= 4, "{secret:#?}");
}

#[test]
fn secret_hygiene_accepts_redacted_batched_rekey_types() {
    let findings = scan("crates/groupkey/src/fixture.rs", "batch_clean.rs");
    let secret: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::SecretHygiene)
        .collect();
    assert!(secret.is_empty(), "{secret:#?}");
}

#[test]
fn panic_freedom_catches_seeded_violations() {
    let findings = scan("crates/keys/src/fixture.rs", "panic_violation.rs");
    let panics: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::PanicFreedom)
        .collect();
    // unwrap(), expect(), unimplemented!.
    assert_eq!(panics.len(), 3, "{panics:#?}");
    assert!(panics.iter().all(|f| !f.allowlisted));
}

#[test]
fn panic_freedom_passes_clean_snippet_and_classifies_panic_ok() {
    let findings = scan("crates/keys/src/fixture.rs", "panic_clean.rs");
    let panics: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::PanicFreedom)
        .collect();
    // The only panic site carries a PANIC-OK justification; the
    // test-module unwrap and unwrap_or are not findings at all.
    assert_eq!(panics.len(), 1, "{panics:#?}");
    assert!(panics[0].allowlisted);
}

#[test]
fn panic_freedom_is_scoped_to_library_crates() {
    let findings = scan("crates/bench/src/fixture.rs", "panic_violation.rs");
    assert!(hard_violations(&findings).is_empty(), "{findings:#?}");
}

#[test]
fn determinism_catches_seeded_violations() {
    let findings = scan("crates/net/src/fixture.rs", "determinism_violation.rs");
    let det: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::SimDeterminism)
        .collect();
    // Instant (use + call), SystemTime (return type + call), sleep, OsRng.
    assert!(det.len() >= 5, "{det:#?}");
}

#[test]
fn determinism_passes_clean_snippet_and_ignores_sleep_field() {
    let findings = scan("crates/net/src/fixture.rs", "determinism_clean.rs");
    let det: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::SimDeterminism)
        .collect();
    assert!(det.is_empty(), "{det:#?}");
}

#[test]
fn determinism_rule_only_applies_in_scope() {
    let findings = scan(
        "crates/siena/src/reactor/fixture.rs",
        "determinism_violation.rs",
    );
    let det: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::SimDeterminism)
        .collect();
    assert!(det.is_empty(), "{det:#?}");
}

#[test]
fn thread_per_connection_catches_seeded_violations() {
    let findings = scan("crates/siena/src/reactor/fixture.rs", "spawn_violation.rs");
    let spawns: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::ThreadPerConnection)
        .collect();
    // thread::spawn per connection + Builder::new().spawn.
    assert_eq!(spawns.len(), 2, "{spawns:#?}");
    assert!(spawns.iter().all(|f| !f.allowlisted));
}

#[test]
fn thread_per_connection_passes_clean_snippet() {
    let findings = scan("crates/siena/src/reactor/fixture.rs", "spawn_clean.rs");
    let spawns: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::ThreadPerConnection)
        .collect();
    assert!(spawns.is_empty(), "{spawns:#?}");
}

#[test]
fn unsafe_island_catches_seeded_violations() {
    let findings = scan(
        "crates/siena/src/reactor/fixture.rs",
        "unsafe_island_violation.rs",
    );
    let islands = by_rule(&findings, Rule::UnsafeIsland);
    // Inner allow, item allow, cfg_attr allow, expect, warn in a test.
    assert_eq!(islands.len(), 5, "{islands:#?}");
    assert!(islands.iter().all(|f| !f.allowlisted));
}

#[test]
fn unsafe_island_passes_clean_snippet_and_the_islands() {
    let findings = scan(
        "crates/siena/src/reactor/fixture.rs",
        "unsafe_island_clean.rs",
    );
    assert!(
        by_rule(&findings, Rule::UnsafeIsland).is_empty(),
        "{findings:#?}"
    );
    // The same relaxations are sanctioned inside an audited island.
    for island in psguard_xtask::config::UNSAFE_ISLANDS {
        let findings = scan(island, "unsafe_island_violation.rs");
        assert!(
            by_rule(&findings, Rule::UnsafeIsland).is_empty(),
            "{island}: {findings:#?}"
        );
    }
}

#[test]
fn ciphertext_at_rest_catches_seeded_violations() {
    // The ident ban now lives inside the taint pass as the log's scope
    // backstop; the seeded fixture must still trip it.
    let report = taint_on(&[("crates/siena/src/log/fixture.rs", "ciphertext_violation.rs")]);
    let cipher = by_rule(&report.findings, Rule::CiphertextAtRest);
    // use Event; use Message + Wire; Event::from_bytes; event.encode via
    // Wire; Message arg + to_bytes framing — at least the five named
    // identifier sites outside the test module.
    assert!(cipher.len() >= 5, "{cipher:#?}");
    assert!(cipher.iter().all(|f| !f.allowlisted));
}

#[test]
fn ciphertext_at_rest_passes_opaque_byte_handling() {
    let report = taint_on(&[("crates/siena/src/log/fixture.rs", "ciphertext_clean.rs")]);
    let cipher = by_rule(&report.findings, Rule::CiphertextAtRest);
    assert!(cipher.is_empty(), "{cipher:#?}");
}

#[test]
fn ciphertext_at_rest_only_applies_to_the_log() {
    // The dispatcher is exactly where events ARE decoded for replay
    // matching; the backstop must not leak outside `siena/src/log/`.
    let report = taint_on(&[(
        "crates/siena/src/reactor/broker.rs",
        "ciphertext_violation.rs",
    )]);
    let cipher = by_rule(&report.findings, Rule::CiphertextAtRest);
    assert!(cipher.is_empty(), "{cipher:#?}");
}

#[test]
fn taint_plaintext_to_socket_flagged_with_full_chain() {
    let report = taint_on(&[(
        "crates/siena/src/reactor/fixture.rs",
        "taint_socket_violation.rs",
    )]);
    let flows = by_rule(&report.findings, Rule::ConfidentialityTaint);
    assert_eq!(flows.len(), 1, "{flows:#?}");
    let msg = &flows[0].message;
    assert!(msg.contains("build_and_ship"), "{msg}");
    assert!(msg.contains("passed into `forward`"), "{msg}");
    assert!(msg.contains("passed into `emit`"), "{msg}");
    assert!(msg.contains("write_all"), "{msg}");
}

#[test]
fn taint_plaintext_to_log_flagged_with_full_chain() {
    let report = taint_on(&[("crates/siena/src/log/fixture.rs", "taint_log_violation.rs")]);
    let flows = by_rule(&report.findings, Rule::ConfidentialityTaint);
    assert_eq!(flows.len(), 1, "{flows:#?}");
    let msg = &flows[0].message;
    assert!(msg.contains("passed into `append_plain`"), "{msg}");
    assert!(msg.contains("write_frame"), "{msg}");
    // Under `log/` the ident-ban backstop fires as well: the fixture
    // names `Event` on the disk path.
    assert!(
        !by_rule(&report.findings, Rule::CiphertextAtRest).is_empty(),
        "{:#?}",
        report.findings
    );
}

#[test]
fn taint_plaintext_to_format_sink_flagged_with_full_chain() {
    let report = taint_on(&[("crates/siena/src/fixture.rs", "taint_format_violation.rs")]);
    let flows = by_rule(&report.findings, Rule::ConfidentialityTaint);
    assert_eq!(flows.len(), 1, "{flows:#?}");
    let msg = &flows[0].message;
    assert!(msg.contains("diagnose"), "{msg}");
    assert!(msg.contains("passed into `dump`"), "{msg}");
}

#[test]
fn taint_sealed_flows_pass_clean() {
    let report = taint_on(&[("crates/siena/src/reactor/fixture.rs", "taint_clean.rs")]);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert!(report.justified.is_empty());
}

const REACTOR_FIXTURE: &str = "crates/siena/src/reactor/fixture.rs";

#[test]
fn blocking_send_in_client_reactor_flagged_with_chain() {
    let findings = reactor_on(
        &[(REACTOR_FIXTURE, "blocking_violation.rs")],
        &[(REACTOR_FIXTURE, "run_client_reactor")],
    );
    let blocking = by_rule(&findings, Rule::ReactorBlocking);
    assert_eq!(blocking.len(), 1, "{blocking:#?}");
    let msg = &blocking[0].message;
    assert!(msg.contains(".send"), "{msg}");
    assert!(msg.contains("`pump`"), "{msg}");
}

#[test]
fn nonblocking_reactor_passes_clean() {
    let findings = reactor_on(
        &[(REACTOR_FIXTURE, "blocking_clean.rs")],
        &[(REACTOR_FIXTURE, "run_client_reactor")],
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn bounded_channel_cycle_flagged() {
    let findings = reactor_on(
        &[(REACTOR_FIXTURE, "cycle_violation.rs")],
        &[
            (REACTOR_FIXTURE, "run_dispatcher"),
            (REACTOR_FIXTURE, "run_broker_worker"),
        ],
    );
    let cycles = by_rule(&findings, Rule::ChannelCycle);
    assert!(!cycles.is_empty(), "{findings:#?}");
}

#[test]
fn try_send_escape_breaks_the_cycle() {
    let findings = reactor_on(
        &[(REACTOR_FIXTURE, "cycle_clean.rs")],
        &[
            (REACTOR_FIXTURE, "run_dispatcher"),
            (REACTOR_FIXTURE, "run_broker_worker"),
        ],
    );
    assert!(
        by_rule(&findings, Rule::ChannelCycle).is_empty(),
        "{findings:#?}"
    );
}

/// Runs the dead-pub pass over the four dead-pub fixtures, each placed
/// where its name says; returns the flagged fn names and the pass report.
fn dead_pub_on_fixtures() -> (Vec<String>, dead_pub::DeadPubReport) {
    let parsed = vec![
        load("crates/demo/src/lib.rs", &fixture("dead_pub_lib.rs")),
        load("crates/demo/src/bin/tool.rs", &fixture("dead_pub_bin.rs")),
    ];
    let lexed = vec![
        (
            "benchmark/src/run.rs".to_owned(),
            lex(&fixture("dead_pub_benchmark.rs")),
        ),
        (
            "crates/demo/tests/it.rs".to_owned(),
            lex(&fixture("dead_pub_tests_dir.rs")),
        ),
    ];
    let report = dead_pub::run(&parsed, &lexed);
    let names = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::DeadPub)
        .filter_map(|f| f.message.split('`').nth(1).map(str::to_owned))
        .collect();
    (names, report)
}

#[test]
fn dead_pub_flags_fns_only_tests_call() {
    let (flagged, report) = dead_pub_on_fixtures();
    assert_eq!(
        flagged,
        vec!["only_unit_tested", "only_integration_tested"],
        "{:#?}",
        report.findings
    );
    assert_eq!(report.justified.get("crates/demo/src/lib.rs"), Some(&1));
}

#[test]
fn dead_pub_counts_bin_and_benchmark_callers_as_shipped() {
    let (flagged, _) = dead_pub_on_fixtures();
    for shipped in [
        "used_by_bin",
        "used_by_benchmark",
        "kept_reference",
        "crate_private",
    ] {
        assert!(
            !flagged.iter().any(|f| f == shipped),
            "{shipped}: {flagged:?}"
        );
    }
}

/// Self-check: the live tree passes `psguard-xtask check`, which includes
/// validating that every allowlist entry references a file that still
/// exists and that budgets match the PANIC-OK counts exactly.
#[test]
fn workspace_and_allowlist_are_clean() {
    let root = workspace_root();
    let report = psguard_xtask::run_check(&root).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        report.is_clean(),
        "workspace check failed:\n{}",
        psguard_xtask::render(&report)
    );
    assert!(report.files_scanned > 50, "walker found too few files");
}

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}
