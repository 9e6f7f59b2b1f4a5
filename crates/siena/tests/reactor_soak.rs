//! Reactor soak: hold 1000+ concurrent loopback subscriber connections
//! on one broker, assert the worker-thread count never moves, fan an
//! event out to all of them, and check that a stalled consumer degrades
//! gracefully (bounded-queue drops, not broker stalls).
//!
//! Subscribers are hosted on a handful of shared [`ClientReactor`]s —
//! the point of the reactor client is precisely that N connections do
//! not cost N threads on either side of the socket.

use std::time::{Duration, Instant};

use psguard_model::{Event, Filter};
use psguard_siena::{spawn_broker_with, ClientReactor, ReactorClient, TcpConfig};

const SOAK_CONNS: usize = 1000;
const ACK_WAIT: Duration = Duration::from_secs(30);

/// OS threads of the current process (Linux: /proc/self/status).
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[test]
fn thousand_connections_fixed_threads_and_fanout() {
    // Heartbeats off: a 1k-conn soak under the scan poller on a small CI
    // box can starve individual connection heartbeats long enough to
    // trip eviction; liveness is not what this test measures.
    let cfg = TcpConfig {
        heartbeat_interval: Duration::ZERO,
        worker_threads: 2,
        queue_capacity: 64,
        ..TcpConfig::default()
    };
    let broker = spawn_broker_with::<Filter>("127.0.0.1:0", None, cfg).expect("spawn");
    assert_eq!(broker.worker_threads(), 2, "explicit pool size respected");
    let broker_threads = broker.thread_count();
    assert_eq!(broker_threads, 2, "the broker owns exactly its workers");
    let before = process_threads();

    // 8 client reactors host all subscriber connections: thread cost is
    // 8 + broker's fixed pool, independent of SOAK_CONNS.
    let reactors: Vec<ClientReactor<Filter>> =
        (0..8).map(|_| ClientReactor::with_config(cfg)).collect();
    let mut subs: Vec<ReactorClient<Filter>> = Vec::with_capacity(SOAK_CONNS);
    for i in 0..SOAK_CONNS {
        let r = &reactors[i % reactors.len()];
        let c = r.connect(broker.addr()).expect("connect");
        c.subscribe(Filter::for_topic("soak")).expect("subscribe");
        subs.push(c);
    }
    // One ack fence per connection confirms every subscription is
    // installed (frames are ordered per connection, so the second
    // subscribe acking implies the first is live).
    for c in &subs {
        c.subscribe_acked(Filter::for_topic("fence"), ACK_WAIT)
            .expect("acked under soak load");
    }

    // Thread count stayed flat: broker handle reports the same fixed
    // pool, and the process as a whole grew only by the 8 reactors (give
    // a small allowance for test-harness threads).
    assert_eq!(
        broker.thread_count(),
        broker_threads,
        "broker thread count must not grow with connections"
    );
    if let (Some(b), Some(a)) = (before, process_threads()) {
        let grown = a.saturating_sub(b);
        assert!(
            grown <= reactors.len() + 4,
            "process grew {grown} threads for {SOAK_CONNS} connections — \
             not a fixed-pool reactor"
        );
    }

    // Fan one publish out to all 1000 subscribers.
    let publisher = reactors[0].connect(broker.addr()).expect("connect");
    let e = Event::builder("soak").payload(vec![7u8; 32]).build();
    publisher.publish(e.clone()).expect("publish");
    let deadline = Instant::now() + Duration::from_secs(60);
    for (i, c) in subs.iter().enumerate() {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(
            c.recv_timeout(left.max(Duration::from_millis(1))) == Some(e.clone()),
            "subscriber {i}/{SOAK_CONNS} missed the fan-out"
        );
    }

    drop(publisher);
    drop(subs);
    drop(reactors);
    broker.shutdown();
}

#[test]
fn stalled_consumer_degrades_gracefully() {
    // A subscriber that never drains its socket must not stall the
    // broker: its bounded queue fills, overflow is counted as drops, and
    // other subscribers keep receiving.
    let cfg = TcpConfig {
        heartbeat_interval: Duration::ZERO,
        worker_threads: 1,
        queue_capacity: 8,
        ..TcpConfig::default()
    };
    let broker = spawn_broker_with::<Filter>("127.0.0.1:0", None, cfg).expect("spawn");
    assert_eq!(
        broker.thread_count(),
        1,
        "the broker owns exactly its worker"
    );

    // The stalled consumer: subscribes via raw socket, then never reads.
    use psguard_siena::wire::Message;
    let pool = psguard_siena::FramePool::new();
    let mut stalled = std::net::TcpStream::connect(broker.addr()).expect("connect");
    let hello: Message<Filter, Event> = Message::Hello { kind: 1 };
    pool.encode(&hello).write_to(&mut stalled).expect("hello");
    let sub: Message<Filter, Event> = Message::Subscribe(Filter::for_topic("t"));
    pool.encode(&sub).write_to(&mut stalled).expect("subscribe");

    let reactor: ClientReactor<Filter> = ClientReactor::with_config(cfg);
    let healthy = reactor.connect(broker.addr()).expect("connect");
    healthy
        .subscribe_acked(Filter::for_topic("t"), Duration::from_secs(5))
        .expect("acked");
    let publisher = reactor.connect(broker.addr()).expect("connect");

    // Enough large events to fill the stalled peer's kernel buffer and
    // then its 8-frame queue.
    let e = Event::builder("t").payload(vec![0u8; 64 * 1024]).build();
    let mut healthy_got = 0u32;
    for _ in 0..200 {
        publisher.publish(e.clone()).expect("publish");
        if healthy.recv_timeout(Duration::from_secs(10)).is_some() {
            healthy_got += 1;
        }
    }
    assert_eq!(
        healthy_got, 200,
        "healthy subscriber must keep receiving past a stalled peer"
    );
    let drops = broker.stats().dropped_frames;
    assert!(
        drops > 0,
        "stalled peer's overflow must surface as counted drops: {:?}",
        broker.stats()
    );

    drop(stalled);
    drop(publisher);
    drop(healthy);
    drop(reactor);
    broker.shutdown();
}

#[test]
fn stalled_app_consumer_does_not_stall_client_reactor() {
    // The client-side mirror of the broker test above: an application
    // that stops draining recv on one connection must not block the
    // reactor's I/O thread — other connections hosted by the same
    // reactor keep receiving, and the stalled connection's overflow is
    // counted as dropped deliveries rather than deadlocking a
    // push_blocking publisher against a stuck reactor.
    let cfg = TcpConfig {
        heartbeat_interval: Duration::ZERO,
        worker_threads: 1,
        ..TcpConfig::default()
    };
    let broker = spawn_broker_with::<Filter>("127.0.0.1:0", None, cfg).expect("spawn");

    // One reactor hosts all three connections, so a blocked reactor
    // thread would starve the healthy subscriber and the publisher too.
    let reactor: ClientReactor<Filter> = ClientReactor::with_config(cfg);
    let stalled = reactor.connect(broker.addr()).expect("connect");
    let healthy = reactor.connect(broker.addr()).expect("connect");
    let publisher = reactor.connect(broker.addr()).expect("connect");
    stalled
        .subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");
    healthy
        .subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");

    // More events than the per-connection delivery channel holds
    // (4096): the stalled handle never calls recv, so its channel must
    // fill and overflow without wedging anything else.
    const EVENTS: usize = 4400;
    let e = Event::builder("t").payload(vec![3u8; 16]).build();
    for i in 0..EVENTS {
        publisher.publish(e.clone()).expect("publish");
        assert!(
            healthy.recv_timeout(Duration::from_secs(10)) == Some(e.clone()),
            "healthy connection starved at event {i}/{EVENTS} — reactor stalled on the stalled consumer"
        );
    }
    // Exactly the overflow is dropped: the channel holds its 4096 and
    // counts the rest. The stalled socket may still be read after the
    // healthy one got the last event, so poll with a deadline.
    let want = (EVENTS - 4096) as u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while stalled.stats().dropped_deliveries < want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        stalled.stats().dropped_deliveries,
        want,
        "stalled consumer's overflow must surface as dropped deliveries: {:?}",
        stalled.stats()
    );

    drop(publisher);
    drop(healthy);
    drop(stalled);
    drop(reactor);
    broker.shutdown();
}
