//! Broker-substrate benchmarks: matching throughput, the covering
//! optimization ablation, and the wire codec.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use psguard_bench::support::range_filter;
use psguard_model::{Event, Filter};
use psguard_siena::{Broker, Peer, Wire};

fn filters(n: usize) -> Vec<Filter> {
    (0..n)
        .map(|i| range_filter(format!("topic{:02}", i % 16), (i % 50) as i64))
        .collect()
}

fn bench_broker_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("broker_publish");
    for n in [16usize, 64, 256] {
        let mut broker: Broker<Filter> = Broker::new(true);
        for (i, f) in filters(n).into_iter().enumerate() {
            broker.subscribe(Peer::Local(i as u32), f);
        }
        let event = Event::builder("topic05").attr("x", 20i64).build();
        group.bench_with_input(BenchmarkId::from_parameter(n), &event, |b, e| {
            b.iter(|| broker.publish(Peer::Parent, black_box(e.clone())))
        });
    }
    group.finish();
}

/// Covering ablation: how much upstream table growth the covering test
/// suppresses when many subscribers share interests.
fn bench_covering_ablation(c: &mut Criterion) {
    // 256 subscriptions over 16 distinct filters.
    let subs: Vec<Filter> = (0..256)
        .map(|i| Filter::for_topic(format!("t{}", i % 16)))
        .collect();
    c.bench_function("table_insert_with_covering_256", |b| {
        b.iter(|| {
            let mut broker: Broker<Filter> = Broker::new(false);
            let mut forwarded = 0usize;
            for (i, f) in subs.iter().enumerate() {
                forwarded += broker.subscribe(Peer::Local(i as u32), f.clone()).len();
            }
            black_box(forwarded) // 16 with covering; 256 without
        })
    });
}

fn bench_wire_codec(c: &mut Criterion) {
    let event = Event::builder("stocks")
        .publisher("nasdaq")
        .attr("price", 95i64)
        .attr("sym", "GOOG")
        .payload(vec![0u8; 256])
        .build();
    c.bench_function("wire_encode_event_256B", |b| {
        b.iter(|| black_box(&event).to_bytes())
    });
    let bytes = event.to_bytes();
    c.bench_function("wire_decode_event_256B", |b| {
        b.iter(|| Event::from_bytes(black_box(&bytes)).expect("valid"))
    });

    // Payload sizes of a small event and of `durable_bulk`'s sealed one.
    let mut group = c.benchmark_group("wire_decode_event");
    for len in [64usize, 4112] {
        let bytes = Event::builder("stocks")
            .attr("price", 95i64)
            .payload(vec![0u8; len])
            .build()
            .to_bytes();
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(len), &bytes, |b, bytes| {
            b.iter(|| Event::from_bytes(black_box(bytes)).expect("valid"))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_broker_publish,
    bench_covering_ablation,
    bench_wire_codec
);
criterion_main!(benches);
