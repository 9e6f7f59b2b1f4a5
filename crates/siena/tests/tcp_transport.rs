//! TCP transport integration tests, synchronized by the subscribe-ack
//! readiness handshake (no sleep-based races): basic routing, the
//! ack chain across broker levels, client reconnection with subscription
//! replay, heartbeat-based eviction, and bounded-queue backpressure.

use std::time::Duration;

use psguard_model::{Constraint, Event, Filter, Op};
use psguard_siena::{
    spawn_broker, spawn_broker_durable, spawn_broker_with, LogConfig, OverflowPolicy, TcpBroker,
    TcpClient, TcpConfig, TcpError,
};

const ACK_WAIT: Duration = Duration::from_secs(5);

#[test]
fn single_broker_pubsub_roundtrip() {
    let broker = spawn_broker::<Filter>("127.0.0.1:0", None).expect("spawn");
    let sub: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    let publisher: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");

    sub.subscribe_acked(
        Filter::for_topic("t").with(Constraint::new("x", Op::Ge(10))),
        ACK_WAIT,
    )
    .expect("acked");

    let hit = Event::builder("t")
        .attr("x", 42i64)
        .payload(vec![1])
        .build();
    let miss = Event::builder("t").attr("x", 1i64).build();
    publisher.publish(miss.clone()).expect("publish");
    publisher.publish(hit.clone()).expect("publish");

    let got = sub.recv_timeout(Duration::from_secs(5)).expect("delivery");
    assert_eq!(got, hit);
    // The non-matching event must not arrive.
    assert!(sub.recv_timeout(Duration::from_millis(200)).is_none());
    broker.shutdown();
}

#[test]
fn two_level_tree_routes_through_root() {
    let root = spawn_broker::<Filter>("127.0.0.1:0", None).expect("root");
    let left = spawn_broker::<Filter>("127.0.0.1:0", Some(root.addr())).expect("left");
    let right = spawn_broker::<Filter>("127.0.0.1:0", Some(root.addr())).expect("right");

    let sub: TcpClient<Filter> = TcpClient::connect(left.addr()).expect("connect");
    let publisher: TcpClient<Filter> = TcpClient::connect(right.addr()).expect("connect");

    // The ack arrives only after left has forwarded to the root and the
    // root confirmed — so the publish below cannot outrun the
    // subscription.
    sub.subscribe_acked(Filter::for_topic("news"), ACK_WAIT)
        .expect("acked across two levels");

    let e = Event::builder("news").payload(b"flash".to_vec()).build();
    publisher.publish(e.clone()).expect("publish");
    let got = sub.recv_timeout(Duration::from_secs(5)).expect("delivery");
    assert_eq!(got, e);

    drop(sub);
    drop(publisher);
    left.shutdown();
    right.shutdown();
    root.shutdown();
}

#[test]
fn unsubscribe_stops_replay_and_delivery() {
    let broker = spawn_broker::<Filter>("127.0.0.1:0", None).expect("spawn");
    let sub: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    let publisher: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");

    let f = Filter::for_topic("t");
    sub.subscribe_acked(f.clone(), ACK_WAIT).expect("acked");
    publisher
        .publish(Event::builder("t").payload(vec![1]).build())
        .expect("publish");
    assert!(sub.recv_timeout(Duration::from_secs(5)).is_some());

    sub.unsubscribe(&f).expect("unsubscribe");
    // Re-subscribing on a second topic and waiting for its ack gives the
    // unsubscribe time to take effect (frames are ordered per connection).
    sub.subscribe_acked(Filter::for_topic("other"), ACK_WAIT)
        .expect("acked");
    publisher
        .publish(Event::builder("t").payload(vec![2]).build())
        .expect("publish");
    assert!(
        sub.recv_timeout(Duration::from_millis(300)).is_none(),
        "unsubscribed topic must stop arriving"
    );
    broker.shutdown();
}

#[test]
fn client_reconnects_and_replays_subscriptions() {
    let cfg = TcpConfig {
        heartbeat_interval: Duration::from_millis(50),
        reconnect_initial: Duration::from_millis(25),
        reconnect_max: Duration::from_millis(100),
        max_reconnect_attempts: 200,
        ..TcpConfig::default()
    };
    let broker = spawn_broker_with::<Filter>("127.0.0.1:0", None, cfg).expect("spawn");
    let addr = broker.addr();

    let sub: TcpClient<Filter> = TcpClient::connect_with(addr, cfg).expect("connect");
    sub.subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");

    // Kill the broker, then bring a new one up on the same port.
    broker.shutdown();
    let broker2 =
        spawn_broker_with::<Filter>(&addr.to_string(), None, cfg).expect("respawn on same port");

    // The client must reconnect and replay its subscription; poll with a
    // fresh subscribe_acked as the readiness barrier for the new epoch.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match sub.subscribe_acked(Filter::for_topic("t2"), Duration::from_millis(500)) {
            Ok(()) => break,
            Err(_) if std::time::Instant::now() < deadline => continue,
            Err(e) => panic!("client never reconnected: {e}"),
        }
    }
    assert!(sub.stats().reconnects >= 1, "{:?}", sub.stats());

    let publisher: TcpClient<Filter> = TcpClient::connect_with(addr, cfg).expect("connect");
    let e = Event::builder("t").payload(vec![7]).build();
    publisher.publish(e.clone()).expect("publish");
    assert_eq!(
        sub.recv_timeout(Duration::from_secs(5)),
        Some(e),
        "replayed subscription must deliver on the new broker"
    );
    broker2.shutdown();
}

#[test]
fn silent_peer_is_evicted_after_missed_heartbeats() {
    let cfg = TcpConfig {
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_miss_limit: 3,
        ..TcpConfig::default()
    };
    let broker = spawn_broker_with::<Filter>("127.0.0.1:0", None, cfg).expect("spawn");

    // A raw socket that subscribes, then never speaks again (no
    // heartbeats): the broker must evict it and drop its subscription.
    use psguard_siena::wire::Message;
    let pool = psguard_siena::FramePool::new();
    let mut silent = std::net::TcpStream::connect(broker.addr()).expect("connect");
    let hello: Message<Filter, Event> = Message::Hello { kind: 1 };
    pool.encode(&hello).write_to(&mut silent).expect("hello");
    let sub_msg: Message<Filter, Event> = Message::Subscribe(Filter::for_topic("t"));
    pool.encode(&sub_msg)
        .write_to(&mut silent)
        .expect("subscribe");

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while broker.stats().evicted_peers == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no eviction after 10 s: {:?}",
            broker.stats()
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // A live client still works (its own heartbeats keep it admitted).
    let sub: TcpClient<Filter> = TcpClient::connect_with(broker.addr(), cfg).expect("connect");
    let publisher: TcpClient<Filter> =
        TcpClient::connect_with(broker.addr(), cfg).expect("connect");
    sub.subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");
    std::thread::sleep(Duration::from_millis(300)); // > miss deadline
    let e = Event::builder("t").build();
    publisher.publish(e.clone()).expect("publish");
    assert_eq!(sub.recv_timeout(Duration::from_secs(5)), Some(e));
    broker.shutdown();
}

#[test]
fn evicted_stalled_peer_is_hard_closed() {
    // Eviction must actually release the socket even when the peer has
    // stopped reading: a flush-then-close can never finish against a
    // full kernel buffer, so the broker hard-closes instead. Observable
    // from outside as EOF (or a reset, if data was still unread) on the
    // evicted peer's socket within the eviction window.
    use std::io::Read;
    let cfg = TcpConfig {
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_miss_limit: 3,
        queue_capacity: 8,
        ..TcpConfig::default()
    };
    let broker = spawn_broker_with::<Filter>("127.0.0.1:0", None, cfg).expect("spawn");

    // The stalled peer: subscribes via raw socket, then neither reads
    // nor writes again.
    use psguard_siena::wire::Message;
    let pool = psguard_siena::FramePool::new();
    let mut stalled = std::net::TcpStream::connect(broker.addr()).expect("connect");
    let hello: Message<Filter, Event> = Message::Hello { kind: 1 };
    pool.encode(&hello).write_to(&mut stalled).expect("hello");
    let sub_msg: Message<Filter, Event> = Message::Subscribe(Filter::for_topic("t"));
    pool.encode(&sub_msg)
        .write_to(&mut stalled)
        .expect("subscribe");

    // Publish large events while waiting for the eviction so the
    // peer's kernel buffer fills and its queue is non-empty at
    // eviction time — the case a flush-then-close would hang on.
    let publisher: TcpClient<Filter> =
        TcpClient::connect_with(broker.addr(), cfg).expect("connect");
    let e = Event::builder("t").payload(vec![0u8; 64 * 1024]).build();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while broker.stats().evicted_peers == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no eviction after 10 s: {:?}",
            broker.stats()
        );
        publisher.publish(e.clone()).expect("publish");
        std::thread::sleep(Duration::from_millis(1));
    }

    // The broker must drop the connection promptly; a socket still open
    // past the deadline means the old flush-then-close leak is back.
    stalled
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("set timeout");
    let close_deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut buf = [0u8; 4096];
    let closed = loop {
        match stalled.read(&mut buf) {
            Ok(0) => break true, // EOF: orderly close
            Ok(_) => {}          // draining frames queued before the close
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if std::time::Instant::now() >= close_deadline {
                    break false;
                }
            }
            Err(_) => break true, // reset: hard close with unread data
        }
    };
    assert!(
        closed,
        "evicted peer's socket must be hard-closed, not left to a flush that cannot finish"
    );
    drop(publisher);
    broker.shutdown();
}

#[test]
fn drop_newest_backpressure_is_reported() {
    let cfg = TcpConfig {
        queue_capacity: 2,
        overflow: OverflowPolicy::DropNewest,
        heartbeat_interval: Duration::ZERO,
        ..TcpConfig::default()
    };
    // A bare listener whose accepted socket is never read: client frames
    // fill the kernel buffer, the reactor's writes stop making
    // progress, and the tiny outbound queue overflows.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let _keep = std::thread::spawn(move || {
        // Accept and hold the socket open without reading.
        let conn = listener.accept();
        std::thread::sleep(Duration::from_secs(10));
        drop(conn);
    });

    let client: TcpClient<Filter> = TcpClient::connect_with(addr, cfg).expect("connect");
    // A large payload saturates the kernel buffer quickly.
    let big = Event::builder("t").payload(vec![0u8; 512 * 1024]).build();
    let mut saw_backpressure = false;
    for _ in 0..64 {
        match client.publish(big.clone()) {
            Ok(()) => continue,
            Err(TcpError::Backpressure) => {
                saw_backpressure = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(saw_backpressure, "full bounded queue must report drops");
    assert!(client.stats().dropped_frames >= 1);
}

/// Publishes one event through `publisher` and asserts that every
/// client in `subs` receives it exactly once while `broker` — the
/// broker the publisher is attached to — encodes exactly `flavours`
/// frames for it: one per frame flavour, never one per recipient.
fn assert_encoded_once_per_flavour(
    broker: &TcpBroker,
    publisher: &TcpClient<Filter>,
    subs: &[TcpClient<Filter>],
    flavours: u64,
) {
    // An acked subscribe fences the publisher's connection startup
    // (hello + pre-encoded heartbeat) so the snapshots below only see
    // the publish itself.
    publisher
        .subscribe_acked(Filter::for_topic("sync-only"), ACK_WAIT)
        .expect("acked");

    // All subscription/ack traffic is settled; snapshot the encode counts.
    let broker_before = broker.pool_stats().frames_encoded;
    let pub_before = publisher.pool_stats().frames_encoded;

    let e = Event::builder("fan").payload(vec![42; 64]).build();
    publisher.publish(e.clone()).expect("publish");
    for s in subs {
        let got = s.recv_timeout(Duration::from_secs(5)).expect("delivery");
        assert_eq!(got, e);
    }
    for s in subs {
        assert!(
            s.recv_timeout(Duration::from_millis(100)).is_none(),
            "each recipient gets the event exactly once"
        );
    }

    assert_eq!(
        broker.pool_stats().frames_encoded - broker_before,
        flavours,
        "a publish fanned out to {} peers must encode once per frame flavour",
        subs.len()
    );
    // The publisher client also encoded its Publish exactly once.
    assert_eq!(publisher.pool_stats().frames_encoded - pub_before, 1);
}

#[test]
fn fanout_serializes_event_exactly_once() {
    // Heartbeats off so the broker pool's encode counter moves only for
    // the traffic this test generates.
    let cfg = TcpConfig {
        heartbeat_interval: Duration::ZERO,
        ..TcpConfig::default()
    };
    let connect = |b: &TcpBroker| -> TcpClient<Filter> {
        TcpClient::connect_with(b.addr(), cfg).expect("connect")
    };
    let subscribed = |b: &TcpBroker| {
        let s = connect(b);
        s.subscribe_acked(Filter::for_topic("fan"), ACK_WAIT)
            .expect("acked");
        s
    };

    // A plain root: three recipients share one plain `Publish` frame.
    let broker = spawn_broker_with::<Filter>("127.0.0.1:0", None, cfg).expect("spawn");
    let subs: Vec<TcpClient<Filter>> = (0..3).map(|_| subscribed(&broker)).collect();
    let publisher = connect(&broker);
    assert_encoded_once_per_flavour(&broker, &publisher, &subs, 1);
    drop(publisher);
    drop(subs);
    broker.shutdown();

    // A durable child under a plain root: the same publish needs both
    // flavours — a cursor-stamped frame for the child's subscriber and
    // a plain `Publish` up the parent link, observed by a subscriber on
    // the root.
    let dir = std::env::temp_dir().join(format!(
        "psguard-fanout-flavours-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos()
    ));
    let root = spawn_broker_with::<Filter>("127.0.0.1:0", None, cfg).expect("root");
    let (child, _) =
        spawn_broker_durable::<Filter>("127.0.0.1:0", Some(root.addr()), cfg, LogConfig::new(&dir))
            .expect("durable child");
    let subs = vec![subscribed(&child), subscribed(&root)];
    let publisher = connect(&child);
    assert_encoded_once_per_flavour(&child, &publisher, &subs, 2);
    // Each side got its own flavour: only the stamped frame moves a
    // client's cursor, and the root relays the parent link's plain one.
    assert!(subs[0].cursor().is_some(), "child subscriber: stamped");
    assert_eq!(subs[1].cursor(), None, "root subscriber: plain");
    drop(publisher);
    drop(subs);
    child.shutdown();
    root.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
