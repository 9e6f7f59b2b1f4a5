//! Matching-throughput scaling: indexed fast path vs. linear scan.
//!
//! Runs `SubscriptionTable::matching_peers` (the counting `MatchIndex`)
//! and `matching_peers_linear` (the original O(n) reference) over tables
//! of {100, 1k, 10k, 100k, 1M} subscriptions, reports events/second for
//! both, and writes machine-readable results to `BENCH_matching.json`
//! in the current directory.

use psguard_bench::support::{measure, write_bench_json, Json};
use psguard_model::{Constraint, Event, Filter, IntRange, Op};
use psguard_siena::{Peer, SubscriptionTable};

const TOPICS: usize = 64;
const SIZES: [usize; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

fn build_table(subscriptions: usize) -> SubscriptionTable<Filter> {
    let mut table = SubscriptionTable::new();
    for i in 0..subscriptions {
        let lo = (i % 50) as i64;
        let filter = Filter::for_topic(format!("topic{:02}", i % TOPICS)).with(Constraint::new(
            "x",
            Op::InRange(IntRange::new(lo, lo + 30).expect("valid range")),
        ));
        table.insert(Peer::Local(i as u32), filter);
    }
    table
}

fn events() -> Vec<Event> {
    (0..TOPICS)
        .map(|t| {
            Event::builder(format!("topic{:02}", t))
                .attr("x", (t % 60) as i64)
                .build()
        })
        .collect()
}

struct Row {
    subscriptions: usize,
    indexed_eps: f64,
    indexed_iters: usize,
    linear_eps: f64,
    linear_iters: usize,
    indexed_work: u64,
}

fn main() {
    let evs = events();
    let mut rows = Vec::new();
    for n in SIZES {
        let mut table = build_table(n);

        // 200 ms of wall time per cell keeps even the largest tables
        // above a few dozen samples (a 50 ms floor made the 100k cell
        // jitter run-to-run); the iteration counts land in the JSON so
        // a reader can judge each number's stability.
        let indexed = measure(64, 1_000, 200, |i| {
            std::hint::black_box(table.matching_peers(&evs[i % evs.len()]));
        });
        let indexed_work = table.last_match_work();

        // The linear reference needs far fewer iterations at large n.
        let min_iters = (1_000_000 / n).max(8);
        let linear = measure(min_iters.min(64), min_iters, 200, |i| {
            std::hint::black_box(table.matching_peers_linear(&evs[i % evs.len()]));
        });

        println!(
            "n={n:>7}  indexed {:>12.0} ev/s ({} iters)  linear {:>12.0} ev/s ({} iters)  speedup {:>7.1}x  work/event {indexed_work}",
            indexed.per_sec,
            indexed.iters,
            linear.per_sec,
            linear.iters,
            indexed.per_sec / linear.per_sec
        );
        rows.push(Row {
            subscriptions: n,
            indexed_eps: indexed.per_sec,
            indexed_iters: indexed.iters,
            linear_eps: linear.per_sec,
            linear_iters: linear.iters,
            indexed_work,
        });
    }

    let doc = Json::obj()
        .field("bench", Json::str("matching_scaling"))
        .field("unit", Json::str("events_per_second"))
        .field(
            "sizes",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj()
                            .field("subscriptions", Json::Int(r.subscriptions as u64))
                            .field("indexed_eps", Json::f1(r.indexed_eps))
                            .field("indexed_iters", Json::Int(r.indexed_iters as u64))
                            .field("linear_eps", Json::f1(r.linear_eps))
                            .field("linear_iters", Json::Int(r.linear_iters as u64))
                            .field("speedup", Json::f2(r.indexed_eps / r.linear_eps))
                            .field("indexed_work_per_event", Json::Int(r.indexed_work))
                            .field("linear_work_per_event", Json::Int(r.subscriptions as u64))
                    })
                    .collect(),
            ),
        );
    write_bench_json("BENCH_matching.json", &doc);

    let at_10k = rows
        .iter()
        .find(|r| r.subscriptions == 10_000)
        .expect("10k row");
    let speedup = at_10k.indexed_eps / at_10k.linear_eps;
    assert!(
        speedup >= 5.0,
        "indexed path must be >= 5x the linear scan at 10k subscriptions, got {speedup:.1}x"
    );
    let at_1m = rows
        .iter()
        .find(|r| r.subscriptions == 1_000_000)
        .expect("1M row");
    let speedup_1m = at_1m.indexed_eps / at_1m.linear_eps;
    assert!(
        speedup_1m >= 50.0,
        "indexed path must be >= 50x the linear scan at 1M subscriptions, got {speedup_1m:.1}x"
    );
}
