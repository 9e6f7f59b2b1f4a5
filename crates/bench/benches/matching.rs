//! Matching fast-path benchmarks: the broker's counting `MatchIndex`
//! against a linear scan over a local copy of the registrations, at
//! subscription-table sizes from 100 to 100 000.
//!
//! The workload models a realistic broker: subscriptions spread over 64
//! topics, each with a numeric range constraint; events hit one topic
//! with one numeric attribute. `matching_scaling` (a bin target) runs
//! the same comparison and emits machine-readable `BENCH_matching.json`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use psguard_bench::support::{linear_scan, matching_events, matching_filter};
use psguard_model::Filter;
use psguard_siena::{Broker, Peer};

fn bench_matching(c: &mut Criterion) {
    let evs = matching_events();
    let mut group = c.benchmark_group("matching");
    for n in [100usize, 1_000, 10_000, 100_000] {
        let regs: Vec<(Peer, Filter)> = (0..n)
            .map(|i| (Peer::Local(i as u32), matching_filter(i)))
            .collect();
        let mut broker: Broker<Filter> = Broker::new(true);
        for (peer, filter) in &regs {
            broker.subscribe(*peer, filter.clone());
        }
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| {
                i = (i + 1) % evs.len();
                black_box(broker.route(Peer::Parent, black_box(&evs[i])).len())
            })
        });
        // The linear reference gets slow past 10k; skip the largest size
        // to keep bench wall time sane (the scaling bin covers it).
        if n <= 10_000 {
            let mut j = 0usize;
            group.bench_with_input(BenchmarkId::new("linear", n), &n, |b, _| {
                b.iter(|| {
                    j = (j + 1) % evs.len();
                    black_box(linear_scan(&regs, black_box(&evs[j])))
                })
            });
        }
    }
    group.finish();
}

fn bench_insert_with_duplicates(c: &mut Criterion) {
    // Duplicate-heavy subscribe churn: the duplicate test walks one
    // entry list of the filter's bucket, never the table.
    let subs: Vec<Filter> = (0..4_096)
        .map(|i| Filter::for_topic(format!("t{}", i % 32)))
        .collect();
    c.bench_function("table_insert_4096_dup_heavy", |b| {
        b.iter(|| {
            let mut broker: Broker<Filter> = Broker::new(true);
            for (i, f) in subs.iter().enumerate() {
                broker.subscribe(Peer::Local((i % 64) as u32), f.clone());
            }
            black_box(broker.table().len())
        })
    });
}

criterion_group!(benches, bench_matching, bench_insert_with_duplicates);
criterion_main!(benches);
