//! End-to-end dissemination throughput: serial broker vs. sharded pipeline.
//!
//! Routes pools of secure (tokenized) events through tables of
//! {100, 1k, 10k, 100k} subscriptions, comparing the serial
//! `Broker::publish` loop (one cloned delivery per recipient) against
//! `ShardedPipeline::publish_batch` with {1, 2, 4, 8} shards (reused
//! scratch, clone-free `BatchDeliveries`). Both sides probe tokens
//! through the index's one `ProbeTable` sweep; what that sweep buys is
//! microbenchmarked separately: one-shot `prf_verify` per live token
//! (re-deriving HMAC pads per probe) vs. one sweep over the same tokens.
//!
//! Writes machine-readable results to `BENCH_pipeline.json` in the
//! current directory. Pass `--smoke` for a seconds-long CI variant that
//! skips the throughput assertions.

use psguard_bench::support::{assert_floor, measure, write_bench_json, Json, Measured};
use psguard_crypto::{prf, prf_verify, ProbeTable, Token};
use psguard_model::{Constraint, Event, Op};
use psguard_routing::{RoutableTag, SecureEvent, SecureFilter};
use psguard_siena::{Broker, Peer, ShardedPipeline};

/// Distinct topics (= live tokens each event is probed against).
const TOPICS: usize = 128;
/// Events per measured pool; larger than the probe-memo capacity so
/// repeated passes keep paying for PRF probes on both paths.
const POOL: usize = 2_048;
/// Events per `publish_batch` call.
const BATCH: usize = 256;
/// Encrypted payload bytes per event.
const PAYLOAD: usize = 1_024;

fn topic_token(t: usize) -> Token {
    prf(b"bench-master", format!("topic{t:03}").as_bytes())
}

/// `n` subscriptions spread over the topics, each with a range
/// constraint about half the events satisfy — a realistic mix of token
/// probing, predicate counting, and high fanout at large `n`.
fn subscriptions(n: usize) -> Vec<(Peer, SecureFilter)> {
    (0..n)
        .map(|i| {
            let filter = SecureFilter {
                token: topic_token(i % TOPICS),
                constraints: vec![Constraint::new("x", Op::Ge((i % 50) as i64))],
            };
            (Peer::Local(i as u32), filter)
        })
        .collect()
}

fn event_pool() -> Vec<SecureEvent> {
    (0..POOL)
        .map(|i| {
            let mut nonce = [0u8; 16];
            nonce[..8].copy_from_slice(&(i as u64).to_le_bytes());
            SecureEvent {
                tag: RoutableTag::with_nonce(&topic_token(i % TOPICS), nonce),
                event: Event::builder("")
                    .attr("x", (i % 50) as i64)
                    .payload(vec![0xAB; PAYLOAD])
                    .build(),
                iv: [0u8; 16],
                epoch: 0,
                mac: [0u8; 20],
            }
        })
        .collect()
}

/// Events/second over whole pool passes: at least `min_passes` passes
/// and `min_ms` of wall time per cell (one warm-up pass first).
fn measure_pool(min_passes: usize, min_ms: u128, mut run_pass: impl FnMut()) -> Measured {
    let m = measure(1, min_passes, min_ms, |_| run_pass());
    Measured {
        per_sec: m.per_sec * POOL as f64,
        iters: m.iters,
    }
}

struct ShardCell {
    shards: usize,
    eps: f64,
    passes: usize,
    batch_work: u64,
}

struct Row {
    subscriptions: usize,
    serial_eps: f64,
    serial_passes: usize,
    cells: Vec<ShardCell>,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Full-mode cells must sample several whole pool passes: a cell that
    // crosses the wall-time floor after a single pass reports whatever
    // scheduling noise that one pass absorbed (observed as a 1.42x
    // outlier between 2.1x neighbors at 10k subscriptions).
    let (sizes, shard_counts, min_passes, min_ms): (&[usize], &[usize], usize, u128) = if smoke {
        (&[100, 1_000], &[1, 2], 1, 10)
    } else {
        (&[100, 1_000, 10_000, 100_000], &[1, 2, 4, 8], 4, 600)
    };

    let pool = event_pool();
    let mut rows = Vec::new();
    for &n in sizes {
        let subs = subscriptions(n);

        let mut broker: Broker<SecureFilter> = Broker::new(true);
        for (peer, filter) in &subs {
            broker.subscribe(*peer, filter.clone());
        }
        let serial = measure_pool(min_passes, min_ms, || {
            for e in &pool {
                std::hint::black_box(broker.publish(Peer::Parent, e.clone()));
            }
        });
        drop(broker);

        let mut cells = Vec::new();
        for &shards in shard_counts {
            let mut pipeline: ShardedPipeline<SecureFilter> =
                ShardedPipeline::with_capacity(true, shards, n);
            for (peer, filter) in &subs {
                pipeline.subscribe(*peer, filter.clone());
            }
            let m = measure_pool(min_passes, min_ms, || {
                for batch in pool.chunks(BATCH) {
                    std::hint::black_box(pipeline.publish_batch(Peer::Parent, batch));
                }
            });
            let batch_work = pipeline.last_batch_work();
            println!(
                "n={n:>6}  shards={shards}  pipeline {:>12.0} ev/s ({} passes)  speedup {:>6.2}x",
                m.per_sec,
                m.iters,
                m.per_sec / serial.per_sec
            );
            cells.push(ShardCell {
                shards,
                eps: m.per_sec,
                passes: m.iters,
                batch_work,
            });
        }
        println!(
            "n={n:>6}  serial   {:>12.0} ev/s ({} passes)",
            serial.per_sec, serial.iters
        );
        rows.push(Row {
            subscriptions: n,
            serial_eps: serial.per_sec,
            serial_passes: serial.iters,
            cells,
        });
    }

    // Token-probe microbench: what one event pays to test every live
    // token, one-shot per token vs. the index's sweep, single-threaded.
    let tokens: Vec<Token> = (0..TOPICS).map(topic_token).collect();
    let mut table = ProbeTable::new();
    for (slot, token) in tokens.iter().enumerate() {
        table.set(slot as u32, token);
    }
    let tags: Vec<&RoutableTag> = pool.iter().take(64).map(|e| &e.tag).collect();
    let probes_per_pass = (tags.len() * TOPICS) as f64;
    let oneshot = measure(1, 8, min_ms, |_| {
        for tag in &tags {
            for token in &tokens {
                std::hint::black_box(prf_verify(token, &tag.nonce, &tag.tag));
            }
        }
    });
    let oneshot_vps = oneshot.per_sec * probes_per_pass;
    let mut hits = Vec::new();
    let sweep = measure(1, 8, min_ms, |_| {
        for tag in &tags {
            hits.clear();
            table.sweep(&tag.nonce, &tag.tag, &mut hits);
            assert_eq!(hits.len(), 1, "every pool tag has exactly one token");
        }
    });
    let sweep_vps = sweep.per_sec * probes_per_pass;
    let prf_speedup = sweep_vps / oneshot_vps;
    println!(
        "token-probe  one-shot {oneshot_vps:>12.0} /s  sweep {sweep_vps:>12.0} /s  speedup {prf_speedup:.2}x"
    );

    let doc = Json::obj()
        .field("bench", Json::str("pipeline_scaling"))
        .field("unit", Json::str("events_per_second"))
        .field("topics", Json::Int(TOPICS as u64))
        .field("pool", Json::Int(POOL as u64))
        .field("batch", Json::Int(BATCH as u64))
        .field("payload_bytes", Json::Int(PAYLOAD as u64))
        .field("smoke", Json::Bool(smoke))
        .field(
            "probe_sweep",
            Json::obj()
                .field("oneshot_vps", Json::f1(oneshot_vps))
                .field("oneshot_passes", Json::Int(oneshot.iters as u64))
                .field("sweep_vps", Json::f1(sweep_vps))
                .field("sweep_passes", Json::Int(sweep.iters as u64))
                .field("speedup", Json::f2(prf_speedup)),
        )
        .field(
            "sizes",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj()
                            .field("subscriptions", Json::Int(r.subscriptions as u64))
                            .field("serial_eps", Json::f1(r.serial_eps))
                            .field("serial_passes", Json::Int(r.serial_passes as u64))
                            .field(
                                "shards",
                                Json::Arr(
                                    r.cells
                                        .iter()
                                        .map(|c| {
                                            Json::obj()
                                                .field("shards", Json::Int(c.shards as u64))
                                                .field("eps", Json::f1(c.eps))
                                                .field("passes", Json::Int(c.passes as u64))
                                                .field("speedup", Json::f2(c.eps / r.serial_eps))
                                                .field("batch_work", Json::Int(c.batch_work))
                                        })
                                        .collect(),
                                ),
                            )
                    })
                    .collect(),
            ),
        );
    write_bench_json("BENCH_pipeline.json", &doc);

    if smoke {
        println!("smoke mode: skipping throughput assertions");
        return;
    }
    let at_100k = rows
        .iter()
        .find(|r| r.subscriptions == 100_000)
        .expect("100k row");
    // Which shard count wins is machine-dependent (on a single-core box
    // anything past one shard is oversharding), so the floor applies to
    // the best cell, not a pinned shard count. Both sides sweep the same
    // prepared token table, so the ratio is the clone-free fan-out alone:
    // 3.37x with one shard and 4.90x at best on the 2-vCPU host that
    // recorded BENCH_pipeline.json.
    let speedup = at_100k
        .cells
        .iter()
        .map(|c| c.eps / at_100k.serial_eps)
        .fold(0.0f64, f64::max);
    assert_floor(
        "pipeline (best shard count) vs serial broker at 100k",
        speedup,
        2.5,
    );
    assert_floor("ProbeTable sweep vs one-shot prf_verify", prf_speedup, 1.5);
}
