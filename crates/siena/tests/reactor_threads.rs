//! The broker's thread model: exactly `worker_threads` threads, worker 0
//! accepting and dispatching inline, the other workers forwarding to it.
//! Connections are sharded by peer id (`id % workers`), and ids count up
//! from 1 in accept order, so connecting sequentially places each peer
//! on a known shard.

use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use psguard_model::{Constraint, Event, Filter, Op};
use psguard_siena::wire::Message;
use psguard_siena::{spawn_broker_with, ClientReactor, FramePool, TcpConfig};

const ACK_WAIT: Duration = Duration::from_secs(10);

/// A raw peer that says hello, subscribes to `topic` and then never
/// speaks again (no heartbeats).
fn silent_peer(addr: std::net::SocketAddr, topic: &str) -> TcpStream {
    let pool = FramePool::new();
    let mut s = TcpStream::connect(addr).expect("connect");
    let hello: Message<Filter, Event> = Message::Hello { kind: 1 };
    pool.encode(&hello).write_to(&mut s).expect("hello");
    let sub: Message<Filter, Event> = Message::Subscribe(Filter::for_topic(topic));
    pool.encode(&sub).write_to(&mut s).expect("subscribe");
    s
}

fn event(n: i64, seq: u8) -> Event {
    Event::builder("t").attr("n", n).payload(vec![seq]).build()
}

#[test]
fn three_workers_route_in_order_and_evict_on_every_shard() {
    let cfg = TcpConfig {
        worker_threads: 3,
        heartbeat_interval: Duration::from_millis(100),
        // Generous, so a live client on a loaded host is never evicted.
        heartbeat_miss_limit: 5,
        ..TcpConfig::default()
    };
    let broker = spawn_broker_with::<Filter>("127.0.0.1:0", None, cfg).expect("spawn");
    assert_eq!(broker.thread_count(), 3, "exactly the worker pool");
    let reactor: ClientReactor<Filter> = ClientReactor::with_config(cfg);

    // Ids 1..=6: subscribers on shards 1, 2, 0, 1, 2, 0. Subscriber k
    // wants `n ≥ 10k`, so each sees a different suffix of the stream.
    let subs: Vec<_> = (0..6i64)
        .map(|k| {
            let c = reactor.connect(broker.addr()).expect("connect");
            let f = Filter::for_topic("t").with(Constraint::new("n", Op::Ge(10 * k)));
            c.subscribe_acked(f, ACK_WAIT).expect("acked");
            c
        })
        .collect();
    // Id 7 (shard 1) publishes; ids 8 and 9 (shards 2 and 0) go silent.
    let publisher = reactor.connect(broker.addr()).expect("connect");
    let silent = [
        silent_peer(broker.addr(), "t"),
        silent_peer(broker.addr(), "t"),
    ];

    let deadline = Instant::now() + Duration::from_secs(10);
    while broker.stats().evicted_peers < 2 {
        assert!(Instant::now() < deadline, "{:?}", broker.stats());
        std::thread::sleep(Duration::from_millis(20));
    }
    // Both evictions are hard closes: each silent socket sees EOF or a
    // reset, whichever shard held it.
    for mut s in silent {
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut buf = [0u8; 4096];
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {} // the SubAck and heartbeats sent before eviction
                Err(e) => {
                    assert_ne!(e.kind(), ErrorKind::WouldBlock, "still open");
                    break;
                }
            }
        }
    }

    // 120 events, n cycling 0..60, each subscriber gets exactly its
    // matches in publish order.
    let events: Vec<Event> = (0..120u8).map(|i| event(i64::from(i % 60), i)).collect();
    for e in &events {
        publisher.publish(e.clone()).expect("publish");
    }
    for (k, sub) in subs.iter().enumerate() {
        let want: Vec<&Event> = events
            .iter()
            .filter(|e| e.attr("n").and_then(|v| v.as_int()) >= Some(10 * k as i64))
            .collect();
        for (i, e) in want.iter().enumerate() {
            let got = sub.recv_timeout(Duration::from_secs(10));
            assert_eq!(got.as_ref(), Some(*e), "subscriber {k}, delivery {i}");
        }
        assert!(sub.recv_timeout(Duration::from_millis(50)).is_none());
    }

    // Live clients heartbeat, so the two silent peers stay the only
    // evictions, two miss deadlines later.
    std::thread::sleep(Duration::from_millis(1200));
    assert_eq!(broker.stats().evicted_peers, 2, "{:?}", broker.stats());
    drop(subs);
    drop(publisher);
    drop(reactor);
    broker.shutdown();
}

#[test]
fn one_worker_round_trips_without_timers() {
    // Heartbeats off: worker 0 has no timer, so it waits with no
    // deadline. A worker that slept on the marks it left on its own
    // queues would never write the delivery.
    let cfg = TcpConfig {
        worker_threads: 1,
        heartbeat_interval: Duration::ZERO,
        ..TcpConfig::default()
    };
    let broker = spawn_broker_with::<Filter>("127.0.0.1:0", None, cfg).expect("spawn");
    assert_eq!(broker.thread_count(), 1);
    let reactor: ClientReactor<Filter> = ClientReactor::with_config(cfg);
    let sub = reactor.connect(broker.addr()).expect("connect");
    sub.subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");
    let publisher = reactor.connect(broker.addr()).expect("connect");
    for i in 0..200u8 {
        let e = event(i64::from(i), i);
        publisher.publish(e.clone()).expect("publish");
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(1)),
            Some(e),
            "round trip {i}"
        );
    }
    drop(sub);
    drop(publisher);
    drop(reactor);
    broker.shutdown();
}

#[test]
fn idle_shutdown_is_prompt_and_closes_the_listener() {
    let cfg = TcpConfig {
        worker_threads: 2,
        ..TcpConfig::default()
    };
    let broker = spawn_broker_with::<Filter>("127.0.0.1:0", None, cfg).expect("spawn");
    let addr = broker.addr();
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    broker.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
    let refused = TcpStream::connect(addr).map_err(|e| e.kind());
    assert_eq!(refused.err(), Some(ErrorKind::ConnectionRefused));
}
