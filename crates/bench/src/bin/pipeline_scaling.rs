//! Dissemination throughput of the shipped match driver: `Broker::route`
//! vs. its cloning `Broker::publish` wrapper.
//!
//! Routes pools of secure (tokenized) events through tables of
//! {100, 1k, 10k, 100k} subscriptions on one broker, comparing
//! `Broker::publish` (one cloned `Deliver` per recipient — what the
//! simulators and the staged replay in `benchmark/` consume) against
//! `Broker::route` (recipients as a slice over reused scratch — what the
//! reactor dispatcher runs). Both sides probe tokens through the index's
//! one `ProbeTable` sweep; what that sweep buys is microbenchmarked
//! separately: one-shot `RoutableTag::matches` per live token
//! (re-deriving HMAC pads per probe) vs. one sweep over the same tokens.
//!
//! Writes machine-readable results to `BENCH_pipeline.json` in the
//! current directory — run it from a scratch directory: the committed
//! file is the record of the retired sharded pipeline. Pass `--smoke`
//! for a seconds-long CI variant that skips the throughput assertions.

use psguard_bench::support::{assert_floor, measure, write_bench_json, Json, Measured};
use psguard_crypto::{prf, ProbeTable, Token};
use psguard_model::{Constraint, Event, Op};
use psguard_routing::{RoutableTag, SecureEvent, SecureFilter};
use psguard_siena::{Broker, Peer};

/// Distinct topics (= live tokens each event is probed against).
const TOPICS: usize = 128;
/// Events per measured pool; larger than the probe-memo capacity so
/// repeated passes keep paying for PRF probes on both paths.
const POOL: usize = 2_048;
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

struct Row {
    subscriptions: usize,
    publish: Measured,
    route: Measured,
    match_work: u64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Full-mode cells must sample several whole pool passes: a cell that
    // crosses the wall-time floor after a single pass reports whatever
    // scheduling noise that one pass absorbed (observed as a 1.42x
    // outlier between 2.1x neighbors at 10k subscriptions).
    let (sizes, min_passes, min_ms): (&[usize], usize, u128) = if smoke {
        (&[100, 1_000], 1, 10)
    } else {
        (&[100, 1_000, 10_000, 100_000], 4, 600)
    };

    let pool = event_pool();
    let mut rows = Vec::new();
    for &n in sizes {
        let mut broker: Broker<SecureFilter> = Broker::new(true);
        for (peer, filter) in subscriptions(n) {
            broker.subscribe(peer, filter);
        }
        let publish = measure_pool(min_passes, min_ms, || {
            for e in &pool {
                std::hint::black_box(broker.publish(Peer::Parent, e.clone()));
            }
        });
        let route = measure_pool(min_passes, min_ms, || {
            for e in &pool {
                std::hint::black_box(broker.route(Peer::Parent, e));
            }
        });
        println!(
            "n={n:>6}  publish {:>12.0} ev/s ({} passes)  route {:>12.0} ev/s ({} passes)  speedup {:>6.2}x",
            publish.per_sec,
            publish.iters,
            route.per_sec,
            route.iters,
            route.per_sec / publish.per_sec
        );
        rows.push(Row {
            subscriptions: n,
            publish,
            route,
            match_work: broker.last_match_work(),
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
                std::hint::black_box(tag.matches(token));
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
                            .field("publish_eps", Json::f1(r.publish.per_sec))
                            .field("publish_passes", Json::Int(r.publish.iters as u64))
                            .field("route_eps", Json::f1(r.route.per_sec))
                            .field("route_passes", Json::Int(r.route.iters as u64))
                            .field("speedup", Json::f2(r.route.per_sec / r.publish.per_sec))
                            .field("match_work", Json::Int(r.match_work))
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
    // Both sides sweep the same prepared token table on the same broker,
    // so the ratio is the clone-free fan-out alone: the retired sharded
    // pipeline measured 3.37x with one shard on the 2-vCPU host that
    // recorded BENCH_pipeline.json.
    assert_floor(
        "Broker::route vs Broker::publish at 100k",
        at_100k.route.per_sec / at_100k.publish.per_sec,
        2.5,
    );
    // The sweep's lane kernels measured 5.49x here (3.02x with one scalar
    // token at a time, 3.18x recorded before them): a refactor that
    // leaves the round loops scalar lands near 3x and fails this floor.
    assert_floor("ProbeTable sweep vs one-shot matches", prf_speedup, 4.0);
}
