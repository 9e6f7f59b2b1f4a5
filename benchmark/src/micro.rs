//! Stated bounds and single-layer measurements that need no running
//! deployment: what the hardware allows (SHA-1 compressions/s, AES
//! blocks/s, loopback bytes/s, syscalls/s) and what one call into the
//! crypto, key and log layers costs at a workload's sizes.

use std::hint::black_box;
use std::io::{Read, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use psguard_crypto::{cbc_encrypt, hmac_sha1, Aes128, Sha1};
use psguard_groupkey::RekeyStrategy;
use psguard_keys::{
    EpochId, EpochSchedule, GroupRekeyCoordinator, OpCounter, RekeyWindow, TopicScope,
};
use psguard_model::IntRange;
use psguard_routing::RoutableTag;
use psguard_siena::wire::Wire;
use psguard_siena::{EventLog, LogConfig};

use crate::live::{deployment, schema};
use crate::staged::loopback_pair;
use crate::workload::{Generator, VALUE_RANGE};

/// Repeats `f` for at least `budget` and returns seconds per call.
fn per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy set-up
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..16 {
            f();
        }
        calls += 16;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return elapsed.as_secs_f64() / calls as f64;
        }
    }
}

/// What the machine allows, stated next to the layers it bounds.
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    /// SHA-1 compression-function calls per second (64-byte blocks).
    pub sha1_blocks_per_s: f64,
    /// AES-128 block encryptions per second.
    pub aes_blocks_per_s: f64,
    /// Bytes per second through one loopback TCP stream, in MB/s.
    pub loopback_mb_per_s: f64,
    /// One-byte socket writes and reads per second.
    pub syscalls_per_s: f64,
}

/// Measures the four bounds, spending about `budget` on each.
pub fn bounds(budget: Duration) -> Bounds {
    let block = [0x5au8; 64 * 64];
    let sha1 = per_call(budget, || {
        black_box(Sha1::digest(black_box(&block)));
    });
    let cipher = Aes128::new(&[7u8; 16]);
    let mut state = [1u8; 16];
    let aes = per_call(budget, || {
        for _ in 0..64 {
            cipher.encrypt_block(&mut state);
        }
        black_box(&state);
    });

    let (mut tx, mut rx) = loopback_pair();
    let chunk = vec![0xa5u8; 64 * 1024];
    let mut sink = vec![0u8; 64 * 1024];
    let bulk = per_call(budget, || {
        tx.write_all(&chunk).expect("loopback write");
        rx.read_exact(&mut sink).expect("loopback read");
    });
    let mut one = [0u8; 1];
    let tiny = per_call(budget, || {
        tx.write_all(&[1]).expect("loopback write");
        rx.read_exact(&mut one).expect("loopback read");
    });
    Bounds {
        // 64 data blocks plus the padding block per digest call.
        sha1_blocks_per_s: 65.0 / sha1,
        aes_blocks_per_s: 64.0 / aes,
        loopback_mb_per_s: chunk.len() as f64 / bulk / 1e6,
        syscalls_per_s: 2.0 / tiny,
    }
}

/// Crypto-layer unit costs at one workload's payload size.
#[derive(Debug, Clone, Copy)]
pub struct CryptoCosts {
    /// One broker-side token probe (`RoutableTag::matches`), ns.
    pub prf_probe_ns: f64,
    /// AES-128-CBC encryption, ns per plaintext byte.
    pub aes_cbc_ns_per_byte: f64,
    /// HMAC-SHA1, ns per message byte.
    pub hmac_sha1_ns_per_byte: f64,
}

/// Measures [`CryptoCosts`] for payloads of `payload` bytes.
pub fn crypto(payload: usize, budget: Duration) -> CryptoCosts {
    let ps = deployment();
    let token = ps.routing_token("topic000");
    let other = ps.routing_token("topic001");
    let tag = RoutableTag::with_nonce(&token, [9u8; 16]);
    // A miss: what all but one of the live tokens cost per event.
    let probe = per_call(budget, || {
        black_box(black_box(&tag).matches(black_box(&other)));
    });
    let plain = vec![0x33u8; payload.max(16)];
    let cipher = Aes128::new(&[7u8; 16]);
    let cbc = per_call(budget, || {
        black_box(cbc_encrypt(&cipher, &[1u8; 16], black_box(&plain)));
    });
    let mac = per_call(budget, || {
        black_box(hmac_sha1(b"twenty-byte-mac-key!", black_box(&plain)));
    });
    CryptoCosts {
        prf_probe_ns: probe * 1e9,
        aes_cbc_ns_per_byte: cbc * 1e9 / plain.len() as f64,
        hmac_sha1_ns_per_byte: mac * 1e9 / plain.len() as f64,
    }
}

/// Time and operations of probing every live token against one event
/// tag: what the index pays before it counts a single predicate.
pub fn tag_match_ns(gen: &Generator, budget: Duration) -> f64 {
    let ps = deployment();
    let tokens: Vec<_> = gen
        .topic_names()
        .iter()
        .map(|t| ps.routing_token(t))
        .collect();
    let tag = RoutableTag::with_nonce(&tokens[0], [3u8; 16]);
    per_call(budget, || {
        for token in &tokens {
            black_box(tag.matches(black_box(token)));
        }
    }) * 1e9
}

/// KDC-side cost of one grant at the workload's subscription shape.
#[derive(Debug, Clone, Copy)]
pub struct GrantCosts {
    /// Wall time per `Kdc::grant`, ns.
    pub ns_per_op: f64,
    /// Hash plus keyed-hash operations per grant.
    pub kh_per_op: f64,
}

/// Measures `Kdc::grant` over the workload's own background
/// subscriptions (its churned ones, or full ranges, when it has none).
pub fn grants(gen: &Generator, n: usize) -> GrantCosts {
    let spec = gen.spec();
    let ps = deployment();
    let schema = schema();
    let filters: Vec<_> = (0..n)
        .map(|k| {
            if spec.bg_subs > 0 {
                gen.filter(&gen.bg_sub(k % spec.bg_subs))
            } else if spec.churn.is_some() {
                gen.filter(&gen.churn_sub(k as u64))
            } else {
                gen.full_range_filter((k % spec.topics) as u32)
            }
        })
        .collect();
    let mut ops = OpCounter::new();
    let start = Instant::now();
    for f in &filters {
        let grant = ps
            .kdc()
            .grant(&schema, f, EpochId(0), &TopicScope::Shared, &mut ops)
            .expect("generated filters are grantable");
        black_box(grant);
    }
    GrantCosts {
        ns_per_op: start.elapsed().as_nanos() as f64 / n.max(1) as f64,
        kh_per_op: ops.total() as f64 / n.max(1) as f64,
    }
}

/// Cost of settling revocations through the batched LKH flush.
#[derive(Debug, Clone, Copy)]
pub struct RekeyCosts {
    /// Wall time of `flush_now` per queued leave, ns.
    pub flush_ns_per_leave: f64,
    /// Rekey messages per queued leave.
    pub msgs_per_leave: f64,
}

/// Builds a group of `members` full-range key holders, revokes every
/// tenth and times the one batched flush that settles them.
pub fn rekey(members: u64) -> RekeyCosts {
    let ps = deployment();
    let range = IntRange::new(0, VALUE_RANGE - 1).expect("0 < VALUE_RANGE");
    let mut ops = OpCounter::new();
    let window = RekeyWindow::new(EpochSchedule::new(1_000), "holders", 0, usize::MAX);
    let mut coordinator =
        GroupRekeyCoordinator::new(range, RekeyStrategy::Lkh, ps.kdc(), window, &mut ops);
    for m in 0..members {
        coordinator.queue_join(m, range);
    }
    coordinator.flush_now(ps.kdc(), 0, &mut ops);
    let leaves = (members / 10).max(1);
    for m in (0..members).step_by(10).take(leaves as usize) {
        coordinator.queue_leave(m);
    }
    let start = Instant::now();
    let (_, report) = coordinator.flush_now(ps.kdc(), 1_000, &mut ops);
    RekeyCosts {
        flush_ns_per_leave: start.elapsed().as_nanos() as f64 / leaves as f64,
        msgs_per_leave: report.total_messages() as f64 / leaves as f64,
    }
}

/// Durable-log unit costs at one workload's event size.
#[derive(Debug, Clone, Copy)]
pub struct LogCosts {
    /// `EventLog::append` per event, ns (no per-append fsync).
    pub append_ns_per_event: f64,
    /// Bytes on disk per event, record header included.
    pub bytes_per_event: f64,
    /// `EventLog::replay_next` per event read back, ns.
    pub replay_ns_per_event: f64,
    /// Reopen (CRC scan and repair) time, seconds per GB.
    pub open_s_per_gb: f64,
    /// One `EventLog::sync`, ns. Disk-dependent; printed, never gated.
    pub fsync_ns: f64,
}

/// Appends `n` of the workload's sealed-event-sized records to a fresh
/// log under `scratch`, replays them, reopens the directory.
pub fn log(gen: &Generator, n: u64, scratch: &Path) -> LogCosts {
    let dir = scratch.join(format!("micro-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = LogConfig {
        // Retention must hold everything appended, so the replay and the
        // reopen see all `n` records.
        max_segments: 1_024,
        ..LogConfig::new(&dir)
    };
    // The record the broker logs is the encoded sealed event; its size
    // is the encoded plaintext event plus tag, iv, epoch, mac and CBC
    // padding. The log never looks inside, so a same-sized stand-in does.
    let mut record = Vec::new();
    gen.event(0).encode(&mut record);
    record.resize(record.len() + 16 + 20 + 16 + 8 + 20 + 16, 0x77);

    let (mut log, _) = EventLog::open(cfg.clone()).expect("open micro log");
    let start = Instant::now();
    for _ in 0..n {
        log.append(&record).expect("append");
    }
    let append = start.elapsed();
    let start = Instant::now();
    log.sync().expect("sync");
    let fsync = start.elapsed();
    let bytes = log.stats().bytes_appended;

    let mut cursor = log.replay_cursor(1);
    let mut out = Vec::new();
    let start = Instant::now();
    let mut replayed = 0u64;
    loop {
        out.clear();
        let more = log
            .replay_next(&mut cursor, log.replay_budget(), &mut out)
            .expect("replay");
        replayed += out.len() as u64;
        if !more {
            break;
        }
    }
    let replay = start.elapsed();
    assert_eq!(replayed, n, "the replay yields every appended record");
    drop(log);

    let start = Instant::now();
    let (_, report) = EventLog::open(cfg).expect("reopen micro log");
    let open = start.elapsed();
    assert_eq!(report.records, n, "recovery finds every record");
    let _ = std::fs::remove_dir_all(&dir);

    LogCosts {
        append_ns_per_event: append.as_nanos() as f64 / n as f64,
        bytes_per_event: bytes as f64 / n as f64,
        replay_ns_per_event: replay.as_nanos() as f64 / n as f64,
        open_s_per_gb: open.as_secs_f64() / (bytes as f64 / 1e9),
        fsync_ns: fsync.as_nanos() as f64,
    }
}
