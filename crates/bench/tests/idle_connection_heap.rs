//! An idle subscriber connection costs what it holds, not what it might
//! hold: its delivered-event queue allocates as events arrive, so 64
//! connected `ReactorClient`s that receive nothing keep well under
//! 64 KiB of heap each (a queue preallocated at its 4096-event cap would
//! hold ~786 KiB of `SecureEvent` slots per connection).

use std::sync::atomic::Ordering;
use std::time::Duration;

use psguard_crypto::prf;
use psguard_routing::SecureFilter;
use psguard_siena::{spawn_broker_with, ClientReactor, ReactorClient, TcpConfig};

#[path = "../src/alloc_counter.rs"]
mod alloc_counter;

#[global_allocator]
static GLOBAL: alloc_counter::Counting = alloc_counter::Counting;

const CONNECTIONS: usize = 64;
const PER_CONNECTION_CEILING: usize = 64 * 1024;
const ACK_WAIT: Duration = Duration::from_secs(10);

fn live_bytes() -> usize {
    alloc_counter::LIVE_BYTES.load(Ordering::Relaxed)
}

fn filter(topic: &[u8]) -> SecureFilter {
    SecureFilter {
        token: prf(b"idle-heap", topic),
        constraints: Vec::new(),
    }
}

// The only test in this binary: the counter is process-wide.
#[test]
fn idle_connections_hold_under_64_kib_of_heap_each() {
    let cfg = TcpConfig {
        heartbeat_interval: Duration::ZERO,
        worker_threads: 1,
        ..TcpConfig::default()
    };
    let broker = spawn_broker_with::<SecureFilter>("127.0.0.1:0", None, cfg).expect("spawn");
    let reactor: ClientReactor<SecureFilter> = ClientReactor::with_config(cfg);
    // A probe connection on the same reactor: once its subscription is
    // acknowledged, the reactor thread has registered every connection
    // handed to it before, and the broker has accepted them.
    let probe = reactor.connect(broker.addr()).expect("connect");
    probe
        .subscribe_acked(filter(b"before"), ACK_WAIT)
        .expect("acked");
    let before = live_bytes();

    let idle: Vec<ReactorClient<SecureFilter>> = (0..CONNECTIONS)
        .map(|_| reactor.connect(broker.addr()).expect("connect"))
        .collect();
    probe
        .subscribe_acked(filter(b"after"), ACK_WAIT)
        .expect("acked");
    let per_connection = live_bytes().saturating_sub(before) / CONNECTIONS;
    assert!(
        per_connection < PER_CONNECTION_CEILING,
        "{per_connection} B of heap per idle connection (ceiling {PER_CONNECTION_CEILING} B)"
    );

    drop(idle);
    drop(probe);
    drop(reactor);
    broker.shutdown();
}
