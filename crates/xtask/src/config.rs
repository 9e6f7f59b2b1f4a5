//! Project invariants enforced by `psguard-xtask check`.
//!
//! Everything here is deliberately a compile-time constant: the point of
//! the tool is that loosening an invariant is a reviewed code change, not
//! an environment tweak. DESIGN.md §12 documents how to extend each list;
//! §17 documents the taint-analysis source/sink/sanitizer tables.
//!
//! Path scopes for every rule family live in the one declarative
//! [`SCOPED_RULES`] table; `tests` asserts each configured path exists on
//! disk so a rename can't silently turn a rule into a no-op.

/// Type names that hold raw key material ("tainted" types).
///
/// A tainted type must not `#[derive(Debug)]` or `#[derive(Serialize)]`,
/// and must not have a `Display` or manual `Serialize` impl: leakage
/// through debug/display/serialization paths is the classic
/// implementation-level failure mode of confidentiality-preserving
/// pub/sub. Manual *redacting* `Debug` impls (fingerprints only) are the
/// sanctioned replacement.
pub const TAINTED_TYPES: &[&str] = &[
    // crypto: raw key bytes and expanded schedules.
    "DeriveKey",
    "AesKey",
    "Aes128",
    // crypto: keyed MAC states and reusable keyed contexts — pad-absorbed
    // digest states are key-equivalent for forging MACs, and round keys
    // invert to the key. `HmacContext` and `AesContext` no longer exist;
    // their entries (and fixtures) keep them from coming back leaky.
    "Hmac",
    "PrfContext",
    "HmacContext",
    "AesContext",
    // crypto: the broker's sweep table holds the pad states of every
    // live subscription token.
    "ProbeTable",
    // keys: hierarchy roots and authorization material.
    "Kdc",
    "NaktKeySpace",
    "CategoryKeySpace",
    "StringKeySpace",
    "AuthKey",
    "ConstraintGrant",
    "Grant",
    "KeyCache",
    // The key cache's slab entry: a derived key under a label that
    // encodes an authorized hierarchy path.
    "CacheSlot",
    // `CachedKdc` (a grant memo) no longer exists; its entry keeps it
    // from coming back leaky.
    "CachedKdc",
    // groupkey: per-segment group keys and LKH node keys.
    "LkhTree",
    "Segment",
    "SubscriberGroupManager",
    // groupkey batching: the node-key arena holds every internal LKH
    // key, and the pending batch names departed subscribers (whose ids
    // leak membership if logged alongside key state).
    "NodeKeys",
    "RekeyBatch",
    // keys: the epoch-batched coordinator owns a full group manager.
    "GroupRekeyCoordinator",
];

/// Binding names that denote key material. A format string interpolating
/// one of these (or passing one as a format argument) is a violation even
/// when the type's `Debug` redacts — the binding may be raw bytes.
pub const TAINTED_BINDINGS: &[&str] = &[
    "secret",
    "master",
    "master_key",
    "raw_key",
    "key_bytes",
    "root_key",
    "topic_key",
    "node_key",
    "derive_key",
    "auth_key",
    "content_key",
    "group_key",
    "event_key",
    "mac_key",
    "private_key",
    "privkey",
];

/// Suffixes that also mark a binding as tainted (`*_secret`, `*_sk`).
pub const TAINTED_BINDING_SUFFIXES: &[&str] = &["_secret", "_sk"];

/// Whether a binding name denotes key material.
pub fn binding_is_tainted(name: &str) -> bool {
    TAINTED_BINDINGS.contains(&name)
        || TAINTED_BINDING_SUFFIXES
            .iter()
            .any(|suf| name.len() > suf.len() && name.ends_with(suf))
}

/// Macros whose format string / arguments are checked for tainted
/// bindings. `assert*` family is excluded on purpose: failure output goes
/// through `Debug`, which the derive rule already forces to redact.
pub const FORMAT_MACROS: &[&str] = &[
    "format", "print", "println", "eprint", "eprintln", "write", "writeln", "panic",
];

/// Derives that must not appear on a tainted type.
pub const FORBIDDEN_DERIVES: &[&str] = &["Debug", "Serialize"];

/// Traits that must not be implemented (even manually) for tainted types.
pub const FORBIDDEN_IMPLS: &[&str] = &["Display", "Serialize"];

/// Crates whose `src/` trees must be panic-free on non-test paths.
/// `bench` is excluded: it is a measurement harness of `fn main()`s where
/// aborting on a broken setup is the correct behavior.
pub const PANIC_SCOPE_CRATES: &[&str] = &[
    "analysis", "crypto", "groupkey", "keys", "model", "net", "psguard", "routing", "siena",
    "xtask",
];

/// Methods (called as `.name(`) that panic and are banned on library paths.
pub const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros that panic and are banned on library paths.
pub const PANIC_MACROS: &[&str] = &["panic", "unimplemented", "todo", "unreachable"];

/// Identifiers banned inside the determinism scope.
pub const NONDETERMINISTIC_IDENTS: &[&str] = &[
    "Instant",
    "SystemTime",
    "sleep",
    "thread_rng",
    "OsRng",
    "from_entropy",
    "getrandom",
];

/// Methods (called as `.name(`) that allocate a fresh buffer per call
/// and therefore must not appear in hot-path files: `to_bytes` is the
/// old one-copy-per-recipient serialization, `to_vec` the classic
/// borrowed-slice detour.
pub const HOT_PATH_ALLOC_METHODS: &[&str] = &["to_bytes", "to_vec"];

/// Identifiers banned inside the ciphertext-at-rest scope: the
/// plaintext event/message model and its codec. `EventLog` is a single
/// distinct identifier and does not match `Event`. Enforced as the
/// scope backstop of the taint pass (DESIGN.md §17).
pub const CIPHERTEXT_BANNED_IDENTS: &[&str] = &["Event", "Message", "Wire", "psguard_model"];

// ---------------------------------------------------------------------
// Declarative rule→scope table (all path-scoped rule families).
// ---------------------------------------------------------------------

/// A rule family's path scope. Entries are workspace-relative,
/// `/`-separated; an entry ending in `/` covers the whole directory,
/// anything else must match the file path exactly.
#[derive(Debug)]
pub struct ScopedRule {
    /// Stable rule-family key (matches the `Rule` display name).
    pub rule: &'static str,
    /// Scope entries.
    pub paths: &'static [&'static str],
}

/// Every path-scoped rule family in one place.
///
/// * `sim-determinism` — code reachable from the seeded simulator must
///   not read wall clocks, sleep, or draw OS randomness.
///   `siena/src/reactor/` is the real-transport boundary and is
///   deliberately *not* in scope.
/// * `hot-path-alloc` — the allocation-free dissemination hot path:
///   per-message serialization goes through the shared `FramePool`
///   (encode once, fan out `Arc` clones), so per-call allocating
///   conversions are banned. See DESIGN.md §14. The arena `MatchIndex`
///   (DESIGN.md §18) and `Broker::route`, the match stage the reactor
///   dispatcher runs per publish, are in scope too: a steady-state
///   query must reuse its scratch, not re-collect — and so is the
///   `ProbeTable` sweep it runs per event (`crypto/src/context.rs`),
///   whose hits land in that scratch.
/// * `thread-per-connection` — the reactor transport's contract is a
///   *fixed* thread count; an unmarked `thread::spawn` is a regression
///   back toward thread-per-connection.
/// * `ciphertext-at-rest` — the durable event log stores already-encoded
///   opaque bytes; naming the plaintext model there means structured
///   plaintext is being (de)serialized onto the disk path.
/// * `taint-sink` — files whose raw I/O writes (`write_all` etc.) count
///   as broker-visible sinks for the confidentiality taint pass.
/// * `taint-format-sink` — files whose format macros count as
///   broker-visible debug sinks (broker-side code only; client-side
///   crates may legitimately format their own plaintext).
/// * `reactor-blocking` / `channel-cycle` — files whose channel
///   creations and blocking ops the reactor-safety pass tracks.
pub const SCOPED_RULES: &[ScopedRule] = &[
    ScopedRule {
        rule: "sim-determinism",
        paths: &[
            "crates/net/src/",
            "crates/routing/src/",
            "crates/siena/src/fault.rs",
        ],
    },
    ScopedRule {
        rule: "hot-path-alloc",
        paths: &[
            "crates/siena/src/reactor/",
            "crates/siena/src/index.rs",
            "crates/siena/src/broker.rs",
            "crates/crypto/src/context.rs",
        ],
    },
    ScopedRule {
        rule: "thread-per-connection",
        paths: &["crates/siena/src/reactor/"],
    },
    ScopedRule {
        rule: "ciphertext-at-rest",
        paths: &["crates/siena/src/log/"],
    },
    ScopedRule {
        rule: "taint-sink",
        paths: &[
            "crates/siena/src/wire.rs",
            "crates/siena/src/reactor/",
            "crates/siena/src/log/",
        ],
    },
    ScopedRule {
        rule: "taint-format-sink",
        paths: &["crates/siena/src/"],
    },
    ScopedRule {
        rule: "reactor-blocking",
        paths: &["crates/siena/src/reactor/"],
    },
    ScopedRule {
        rule: "channel-cycle",
        paths: &["crates/siena/src/reactor/"],
    },
];

/// Whether `rel` falls in the named rule family's scope. Unknown rule
/// keys match nothing.
pub fn rule_scope_contains(rule: &str, rel: &str) -> bool {
    SCOPED_RULES
        .iter()
        .filter(|s| s.rule == rule)
        .any(|s| file_or_dir_match(s.paths, rel))
}

/// Whether a workspace-relative file path is in the panic-freedom scope.
pub fn panic_scope_contains(rel: &str) -> bool {
    PANIC_SCOPE_CRATES.iter().any(|krate| {
        let prefix = format!("crates/{krate}/src/");
        rel.starts_with(&prefix) && !rel.starts_with(&format!("{prefix}bin/"))
    })
}

/// Whether a workspace-relative file path is in the determinism scope.
pub fn determinism_scope_contains(rel: &str) -> bool {
    rule_scope_contains("sim-determinism", rel)
}

/// Whether a path matches a scope list of exact files and `dir/` prefixes.
fn file_or_dir_match(list: &[&str], rel: &str) -> bool {
    list.iter().any(|p| {
        if p.ends_with('/') {
            rel.starts_with(p)
        } else {
            rel == *p
        }
    })
}

/// Whether a workspace-relative file path is a dissemination hot path.
pub fn hot_path_contains(rel: &str) -> bool {
    rule_scope_contains("hot-path-alloc", rel)
}

/// Whether a workspace-relative file path is in the fixed-thread-count
/// (spawn-ban) scope.
pub fn spawn_scope_contains(rel: &str) -> bool {
    rule_scope_contains("thread-per-connection", rel)
}

/// Whether a workspace-relative file path must stay ciphertext-only at
/// rest.
pub fn ciphertext_scope_contains(rel: &str) -> bool {
    rule_scope_contains("ciphertext-at-rest", rel)
}

// ---------------------------------------------------------------------
// Confidentiality taint pass (DESIGN.md §17).
// ---------------------------------------------------------------------

/// Plaintext-bearing model types: a value of one of these types is a
/// taint *source*. Restricted to the types that always carry plaintext
/// content — `AttrValue`/`Constraint`/`Op` are deliberately excluded
/// because `SecureEvent`/`SecureFilter` legitimately reuse them as
/// opaque-payload containers; they still become tainted the moment they
/// flow out of a tainted `Event`/`Filter`.
pub const PLAINTEXT_SOURCE_TYPES: &[&str] = &["Event", "EventBuilder", "Filter", "Subscription"];

/// Path roots under which a qualified mention of a source type still
/// counts (`psguard_model::Event` yes, `F::Event` no — the latter is an
/// associated type of a generic transport, already sealed by contract).
pub const MODEL_PATH_ROOTS: &[&str] = &["psguard_model", "model"];

/// Functions that launder taint: a value passed through one of these is
/// sealed/encrypted and its result is broker-safe ciphertext.
/// Name-matched, so any `publish` call sanitizes — an accepted
/// approximation, reviewed in DESIGN.md §17.
pub const SANITIZER_FNS: &[&str] = &["publish", "publish_batch", "from_filter", "encrypt_cbc"];

/// Raw I/O methods that are broker-visible byte sinks *within the
/// `taint-sink` scope* (sockets, the durable log).
pub const RAW_SINK_METHODS: &[&str] = &["write_all", "write_vectored", "write"];

/// Named seed sink functions: a tainted argument reaching one of these
/// is a violation wherever the call appears. `wire::write_frame` no
/// longer exists; its entry (and fixtures) guard against its return.
pub const SINK_FNS: &[&str] = &["write_frame", "write_frames"];

/// Return-type identifiers considered incapable of carrying plaintext
/// content. A function whose return type mentions *only* these never
/// gets `returns_taint` from tail-expression inference (kills the
/// `fn matches(&self, e: &Event) -> bool` class of false positives).
/// `u8` is deliberately absent: `&[u8]` / `Vec<u8>` returns can be
/// plaintext payload bytes.
pub const SAFE_RETURN_IDENTS: &[&str] = &[
    "bool", "usize", "isize", "u16", "u32", "u64", "u128", "i16", "i32", "i64", "f32", "f64",
    "Ordering", "Duration",
];

/// Relative path of the panic allowlist file.
pub const ALLOWLIST_PATH: &str = "crates/xtask/allowlist.txt";

/// Relative path of the taint allowlist (shrink-only `TAINT-OK` budget,
/// same format and reconciler as the panic allowlist). Kept empty: the
/// workspace currently has no justified plaintext→sink paths.
pub const TAINT_ALLOWLIST_PATH: &str = "crates/xtask/taint_allowlist.txt";

/// Relative path of the dead-pub allowlist (shrink-only `DEAD-PUB-OK`
/// budget, same format and reconciler as the panic allowlist).
pub const DEAD_PUB_ALLOWLIST_PATH: &str = "crates/xtask/dead_pub_allowlist.txt";

/// Crates whose `pub fn`s the dead-pub pass does not check: xtask's
/// library serves only its own CLI and tests.
pub const DEAD_PUB_EXCLUDED_CRATES: &[&str] = &["xtask"];

/// Directories outside `crates/` whose files count as shipped users for
/// the dead-pub pass. They are lexed only, never parsed.
pub const DEAD_PUB_USER_DIRS: &[&str] = &["examples", "benchmark/src"];

// ---------------------------------------------------------------------
// Reactor-safety pass (DESIGN.md §17).
// ---------------------------------------------------------------------

/// Entry points of the reactor's fixed threads: (file, fn name). Code
/// reachable from these must not block (bounded-channel `send`, bare
/// `recv`, `thread::sleep`) outside `// BLOCKING-OK:` marked sites —
/// the PR 6 bug class, where one blocking send on the client I/O thread
/// stalled every connection.
pub const REACTOR_ENTRY_POINTS: &[(&str, &str)] = &[
    ("crates/siena/src/reactor/worker.rs", "run_broker_worker"),
    ("crates/siena/src/reactor/client.rs", "run_client_reactor"),
];

// ---------------------------------------------------------------------
// Workspace-lints inheritance rule.
// ---------------------------------------------------------------------

/// Crates allowed to override `[lints] workspace = true`, with the
/// exact override they must carry instead. `crypto` needs
/// `unsafe_code = "deny"` (not `forbid`) for the zeroize volatile
/// writes and the SHA/AES instruction kernels; `bench` for the counting `GlobalAlloc` of the allocation
/// benches; `siena` for the reactor's epoll FFI. `deny` still rejects
/// unsafe everywhere except `#[allow]`-marked items, and the
/// `unsafe-island` rule admits those only in [`UNSAFE_ISLANDS`].
pub const LINTS_OVERRIDE_CRATES: &[(&str, &str)] = &[
    ("crypto", "unsafe_code = \"deny\""),
    ("bench", "unsafe_code = \"deny\""),
    ("siena", "unsafe_code = \"deny\""),
];

/// The audited `unsafe` islands: the only files where an attribute may
/// relax `unsafe_code` (the `unsafe-island` rule). `zeroize.rs` holds
/// the volatile key wipe, `x86.rs` the SHA-NI/AES-NI kernels' unaligned
/// loads and stores and their calls after CPUID detection,
/// `alloc_counter.rs` the counting allocator of the allocation benches,
/// and `sys.rs` the reactor's epoll/eventfd FFI.
pub const UNSAFE_ISLANDS: &[&str] = &[
    "crates/crypto/src/zeroize.rs",
    "crates/crypto/src/x86.rs",
    "crates/bench/src/alloc_counter.rs",
    "crates/siena/src/reactor/sys.rs",
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn scopes() {
        assert!(panic_scope_contains("crates/crypto/src/aes.rs"));
        assert!(!panic_scope_contains("crates/bench/src/perf.rs"));
        assert!(!panic_scope_contains("crates/crypto/src/bin/tool.rs"));
        assert!(determinism_scope_contains("crates/net/src/sim.rs"));
        assert!(determinism_scope_contains("crates/siena/src/fault.rs"));
        assert!(!determinism_scope_contains(
            "crates/siena/src/reactor/config.rs"
        ));
        assert!(hot_path_contains("crates/siena/src/reactor/broker.rs"));
        assert!(hot_path_contains("crates/siena/src/index.rs"));
        assert!(hot_path_contains("crates/siena/src/broker.rs"));
        assert!(hot_path_contains("crates/crypto/src/context.rs"));
        assert!(!hot_path_contains("crates/siena/src/wire.rs"));
        assert!(spawn_scope_contains("crates/siena/src/reactor/client.rs"));
        assert!(ciphertext_scope_contains("crates/siena/src/log/mod.rs"));
        assert!(ciphertext_scope_contains("crates/siena/src/log/segment.rs"));
        assert!(!ciphertext_scope_contains("crates/siena/src/wire.rs"));
        assert!(rule_scope_contains(
            "taint-sink",
            "crates/siena/src/wire.rs"
        ));
        assert!(rule_scope_contains(
            "taint-sink",
            "crates/siena/src/log/segment.rs"
        ));
        assert!(!rule_scope_contains(
            "taint-sink",
            "crates/psguard/src/publisher.rs"
        ));
        assert!(rule_scope_contains(
            "taint-format-sink",
            "crates/siena/src/index.rs"
        ));
        assert!(!rule_scope_contains(
            "taint-format-sink",
            "crates/model/src/event.rs"
        ));
        assert!(!rule_scope_contains(
            "no-such-rule",
            "crates/siena/src/wire.rs"
        ));
    }

    #[test]
    fn tainted_bindings() {
        assert!(binding_is_tainted("master_key"));
        assert!(binding_is_tainted("session_secret"));
        assert!(!binding_is_tainted("key_count"));
        assert!(!binding_is_tainted("topic"));
    }

    /// Every configured path must exist on disk: a rename must not
    /// silently turn a rule family into a no-op.
    #[test]
    fn configured_paths_exist() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
            .to_path_buf();
        let mut checked = 0usize;
        for scoped in SCOPED_RULES {
            for p in scoped.paths {
                let on_disk = root.join(p);
                assert!(
                    on_disk.exists(),
                    "rule `{}` scope entry `{p}` does not exist on disk",
                    scoped.rule
                );
                if p.ends_with('/') {
                    assert!(on_disk.is_dir(), "`{p}` should be a directory");
                } else {
                    assert!(on_disk.is_file(), "`{p}` should be a file");
                }
                checked += 1;
            }
        }
        for krate in PANIC_SCOPE_CRATES {
            assert!(
                root.join("crates").join(krate).join("src").is_dir(),
                "panic-scope crate `{krate}` has no src/ on disk"
            );
            checked += 1;
        }
        for (file, _) in REACTOR_ENTRY_POINTS {
            assert!(
                root.join(file).is_file(),
                "reactor entry-point file `{file}` does not exist on disk"
            );
            checked += 1;
        }
        for dir in DEAD_PUB_USER_DIRS {
            assert!(
                root.join(dir).is_dir(),
                "dead-pub user directory `{dir}` does not exist on disk"
            );
            checked += 1;
        }
        for island in UNSAFE_ISLANDS {
            assert!(
                root.join(island).is_file(),
                "unsafe island `{island}` does not exist on disk"
            );
            checked += 1;
        }
        for (krate, _) in LINTS_OVERRIDE_CRATES {
            assert!(
                root.join("crates").join(krate).join("Cargo.toml").is_file(),
                "lints-override crate `{krate}` has no Cargo.toml on disk"
            );
            checked += 1;
        }
        assert!(checked > 15, "table unexpectedly small: {checked}");
    }
}
