//! Matching and mutation scaling of the broker's subscription store.
//!
//! For tables of {100, 1k, 10k, 100k, 1M} subscriptions, reports:
//!
//! * events/second through `Broker::route` (the counting `MatchIndex`)
//!   and through a first-seen linear scan over a local copy of the
//!   registrations (the original O(n) reference);
//! * `Broker::unsubscribe` µs per operation;
//! * `Broker::peer_down` ms for a peer holding half the table (a table
//!   of its own, of distinct filters in buckets of 16, so the number is
//!   the store's bookkeeping rather than the sorted-boundary removal a
//!   bucket of thousands of distinct ranges costs);
//! * heap bytes per registration of a `Broker`, from a counting global
//!   allocator.
//!
//! Writes machine-readable results to `BENCH_matching.json` in the
//! current directory.

use std::sync::atomic::Ordering;
use std::time::Instant;

use psguard_bench::support::{
    linear_scan, matching_events, matching_filter, measure, range_filter, write_bench_json, Json,
};
use psguard_model::Filter;
use psguard_siena::{Broker, Peer};

#[path = "../alloc_counter.rs"]
mod alloc_counter;

#[global_allocator]
static GLOBAL: alloc_counter::Counting = alloc_counter::Counting;

const SIZES: [usize; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];
/// Unsubscribes timed per size (spread over the table).
const UNSUBSCRIBES: usize = 1_000;
/// The peer that holds half the table in the `peer_down` measurement.
const HEAVY: Peer = Peer::Child(0);

/// A root broker holding the (distinct) registrations `regs`, and the
/// heap bytes it took per registration.
fn build(regs: impl Iterator<Item = (Peer, Filter)>) -> (Broker<Filter>, f64) {
    let before = alloc_counter::LIVE_BYTES.load(Ordering::Relaxed) as f64;
    let mut broker = Broker::new(true);
    for (peer, filter) in regs {
        broker.subscribe(peer, filter);
    }
    let bytes = alloc_counter::LIVE_BYTES.load(Ordering::Relaxed) as f64 - before;
    let per_registration = bytes / broker.table().len() as f64;
    (broker, per_registration)
}

fn main() {
    let evs = matching_events();
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for n in SIZES {
        let regs: Vec<(Peer, Filter)> = (0..n)
            .map(|i| (Peer::Local(i as u32), matching_filter(i)))
            .collect();
        let (mut broker, bytes_per_registration) = build(regs.iter().cloned());

        // 200 ms of wall time per cell keeps even the largest tables
        // above a few dozen samples (a 50 ms floor made the 100k cell
        // jitter run-to-run); the iteration counts land in the JSON so
        // a reader can judge each number's stability.
        let indexed = measure(64, 1_000, 200, |i| {
            std::hint::black_box(broker.route(Peer::Parent, &evs[i % evs.len()]));
        });
        let indexed_work = broker.last_match_work();

        // The linear reference needs far fewer iterations at large n.
        let min_iters = (1_000_000 / n).max(8);
        let linear = measure(min_iters.min(64), min_iters, 200, |i| {
            std::hint::black_box(linear_scan(&regs, &evs[i % evs.len()]));
        });

        // Unsubscribe registrations spread over the table.
        let picked = UNSUBSCRIBES.min(n);
        let start = Instant::now();
        for (peer, filter) in regs.iter().step_by(n / picked) {
            broker.unsubscribe(*peer, filter);
        }
        let unsubscribe_us = start.elapsed().as_secs_f64() * 1e6 / picked as f64;
        assert_eq!(broker.table().len(), n - picked);
        drop((broker, regs));

        // One peer holds every even registration of n distinct filters.
        let (mut broker, _) = build((0..n).map(|i| {
            let peer = if i % 2 == 0 {
                HEAVY
            } else {
                Peer::Local(i as u32)
            };
            (peer, range_filter(format!("t{}", i / 16), (i % 16) as i64))
        }));
        assert_eq!(broker.table().len(), n);
        let start = Instant::now();
        assert_eq!(broker.peer_down(HEAVY), n.div_ceil(2));
        let peer_down_ms = start.elapsed().as_secs_f64() * 1e3;
        drop(broker);

        let speedup = indexed.per_sec / linear.per_sec;
        println!(
            "n={n:>7}  indexed {:>12.0} ev/s ({} iters)  linear {:>12.0} ev/s ({} iters)  speedup {speedup:>7.1}x  work/event {indexed_work}  unsubscribe {unsubscribe_us:.2} us/op  peer_down(n/2) {peer_down_ms:.2} ms  {bytes_per_registration:.0} B/registration",
            indexed.per_sec, indexed.iters, linear.per_sec, linear.iters,
        );
        speedups.push((n, speedup));
        rows.push(
            Json::obj()
                .field("subscriptions", Json::Int(n as u64))
                .field("indexed_eps", Json::f1(indexed.per_sec))
                .field("indexed_iters", Json::Int(indexed.iters as u64))
                .field("linear_eps", Json::f1(linear.per_sec))
                .field("linear_iters", Json::Int(linear.iters as u64))
                .field("speedup", Json::f2(speedup))
                .field("indexed_work_per_event", Json::Int(indexed_work))
                .field("linear_work_per_event", Json::Int(n as u64))
                .field("unsubscribe_us_per_op", Json::f2(unsubscribe_us))
                .field("peer_down_half_ms", Json::f2(peer_down_ms))
                .field("bytes_per_registration", Json::f1(bytes_per_registration)),
        );
    }

    let doc = Json::obj()
        .field("bench", Json::str("matching_scaling"))
        .field("unit", Json::str("events_per_second"))
        .field("sizes", Json::Arr(rows));
    write_bench_json("BENCH_matching.json", &doc);

    for (n, floor) in [(10_000, 5.0), (1_000_000, 50.0)] {
        let &(_, speedup) = speedups.iter().find(|r| r.0 == n).expect("measured size");
        assert!(
            speedup >= floor,
            "indexed path must be >= {floor}x the linear scan at {n} subscriptions, got {speedup:.1}x"
        );
    }
}
