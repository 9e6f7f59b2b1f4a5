//! `Dispatch` driven directly with synthetic time: every method takes
//! `now`, so eviction and the ghost guard run without sockets or sleeps.

use super::*;
use psguard_model::{Event, Filter};

const INTERVAL: Duration = Duration::from_millis(100);

/// A one-shard dispatcher (no other workers) with heartbeats every
/// [`INTERVAL`] and eviction after two silent intervals.
fn dispatch(poller: &Poller, now: Instant) -> Dispatch<Filter> {
    let cfg = TcpConfig {
        heartbeat_interval: INTERVAL,
        heartbeat_miss_limit: 2,
        ..TcpConfig::default()
    };
    Dispatch {
        broker: Broker::new(true),
        out: Outbox {
            writers: HashMap::new(),
            dirty: 0,
            shards: 1,
            stats: Arc::new(StatsInner::default()),
            pool: FramePool::new(),
        },
        last_heard: HashMap::new(),
        pending_acks: HashMap::new(),
        durable: None,
        wakers: vec![poller.waker()],
        workers: Vec::new(),
        next_peer: PARENT_ID + 1,
        next_tick: now + INTERVAL,
        next_pump: now,
        cfg,
    }
}

/// An accepted loopback socket (its peer end is returned to keep it
/// open).
fn accepted() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let client = TcpStream::connect(listener.local_addr()?)?;
    Ok((listener.accept()?.0, client))
}

fn from(id: u32, msg: Message<Filter, Event>) -> Input<Filter> {
    Input::FromPeer(id, msg)
}

#[test]
fn in_flight_frames_of_an_evicted_peer_leave_no_ghost() {
    let poller = Poller::new().expect("poller");
    let t0 = Instant::now();
    let mut d = dispatch(&poller, t0);
    assert_eq!(d.next_due(), Some(t0 + INTERVAL), "the heartbeat is due");

    let (stream, _client) = accepted().expect("loopback");
    let (id, _, _) = d.admit(stream, t0).expect("shard 0 stays with the caller");
    d.handle(from(id, Message::Subscribe(Filter::for_topic("t"))), t0);
    assert!(d.wake_dirty(), "the SubAck went to a shard-0 queue");
    assert!(!d.wake_dirty(), "the dirty mask is cleared");

    // Silent for three intervals: the tick at `t0 + 300ms` evicts it and
    // hands the shard-0 connection back for a hard close.
    let t1 = t0 + 3 * INTERVAL;
    assert_eq!(d.tick(t1), vec![id]);
    assert_eq!(d.out.stats.evicted_peers.load(Ordering::Relaxed), 1);
    assert_eq!(d.next_due(), Some(t1 + INTERVAL));

    // Frames its worker decoded before the close arrive afterwards.
    d.handle(from(id, Message::Subscribe(Filter::for_topic("ghost"))), t1);
    d.handle(from(id, Message::Heartbeat), t1);
    assert!(!d.last_heard.contains_key(&id), "no resurrected liveness");
    for topic in ["t", "ghost"] {
        let routed = d
            .broker
            .route(Peer::Child(99), &Event::builder(topic).build());
        assert!(routed.is_empty(), "ghost subscription on {topic}");
    }
    // A ghost would be evicted (and counted) again.
    assert!(d.tick(t1 + 10 * INTERVAL).is_empty());
    assert_eq!(d.out.stats.evicted_peers.load(Ordering::Relaxed), 1);
}

#[test]
fn an_idle_dispatcher_without_heartbeats_has_no_timer() {
    let poller = Poller::new().expect("poller");
    let t0 = Instant::now();
    let mut d = dispatch(&poller, t0);
    d.cfg.heartbeat_interval = Duration::ZERO;
    assert_eq!(d.next_due(), None);
    assert!(d.tick(t0 + 1000 * INTERVAL).is_empty());
    assert!(!d.wake_dirty());
}
