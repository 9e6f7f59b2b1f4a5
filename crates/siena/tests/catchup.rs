//! End-to-end cursor-based catch-up over the TCP transport: a durable
//! broker stamps every delivery with its log cursor, an offline
//! subscriber replays the gap on reconnect, and the combination of
//! replay plus the client-side dedup window is exactly-once — across
//! subscriber downtime, broker crash-and-restart, and live publishes
//! racing an in-flight replay.

use std::path::PathBuf;
use std::time::Duration;

use psguard_model::{Event, Filter};
use psguard_siena::{
    spawn_broker, spawn_broker_durable, Cursor, LogConfig, ResumeOutcome, TcpClient, TcpConfig,
};

const ACK_WAIT: Duration = Duration::from_secs(5);
const RECV_WAIT: Duration = Duration::from_secs(5);
const QUIET: Duration = Duration::from_millis(300);

fn tmp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "psguard-catchup-{tag}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn cleanup(dir: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
}

/// An event whose payload carries its publish index.
fn numbered(i: u64) -> Event {
    numbered_on("t", i)
}

/// [`numbered`] on another topic.
fn numbered_on(topic: &str, i: u64) -> Event {
    Event::builder(topic)
        .payload(i.to_le_bytes().to_vec())
        .build()
}

fn index_of(e: &Event) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(e.payload());
    u64::from_le_bytes(b)
}

/// Receives until `QUIET` passes with nothing arriving, returning the
/// payload indices in arrival order.
fn drain_indices(sub: &TcpClient<Filter>) -> Vec<u64> {
    let mut got = Vec::new();
    while let Some(e) = sub.recv_timeout(QUIET) {
        got.push(index_of(&e));
    }
    got
}

#[test]
fn durable_broker_stamps_deliveries_and_client_tracks_cursor() {
    let dir = tmp_dir("stamps");
    let (broker, report) = spawn_broker_durable::<Filter>(
        "127.0.0.1:0",
        None,
        TcpConfig::default(),
        LogConfig::new(&dir),
    )
    .expect("spawn durable");
    assert_eq!(report.records, 0, "fresh log dir starts empty");

    let sub: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    let publisher: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    sub.subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");
    assert_eq!(sub.cursor(), None, "no cursor before the first delivery");

    for i in 1..=3u64 {
        publisher.publish(numbered(i)).expect("publish");
    }
    for i in 1..=3u64 {
        let e = sub.recv_timeout(RECV_WAIT).expect("delivery");
        assert_eq!(index_of(&e), i);
    }
    // The broker stamped each delivery; the cursor followed contiguously.
    assert_eq!(sub.cursor(), Some(Cursor { epoch: 1, seq: 3 }));

    broker.shutdown();
    cleanup(&dir);
}

#[test]
fn offline_subscriber_catches_up_exactly_once() {
    let dir = tmp_dir("offline");
    let (broker, _) = spawn_broker_durable::<Filter>(
        "127.0.0.1:0",
        None,
        TcpConfig::default(),
        LogConfig::new(&dir),
    )
    .expect("spawn durable");
    let publisher: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");

    // Session one: receive three events, remember where we got to.
    let sub: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    sub.subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");
    for i in 1..=3u64 {
        publisher.publish(numbered(i)).expect("publish");
    }
    for _ in 0..3 {
        sub.recv_timeout(RECV_WAIT).expect("delivery");
    }
    let cursor = sub.cursor().expect("cursor after deliveries");
    assert_eq!(cursor.seq, 3);
    drop(sub);

    // Four more events while the subscriber is offline.
    for i in 4..=7u64 {
        publisher.publish(numbered(i)).expect("publish");
    }

    // Session two resumes at the saved cursor. Subscriptions go first —
    // the broker's replay filters against them — then the catch-up.
    let sub2: TcpClient<Filter> =
        TcpClient::connect_resuming(broker.addr(), TcpConfig::default(), Some(cursor))
            .expect("reconnect");
    sub2.subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");
    sub2.catch_up().expect("catch up");
    assert_eq!(
        sub2.recv_resume(RECV_WAIT),
        Some(ResumeOutcome::ContinuedAtCursor),
        "the whole gap is retained"
    );
    let got = drain_indices(&sub2);
    assert_eq!(got, vec![4, 5, 6, 7], "exactly the gap, in order, once");

    // Live delivery continues after the replay and the cursor tracks it.
    publisher.publish(numbered(8)).expect("publish");
    let e = sub2.recv_timeout(RECV_WAIT).expect("live after replay");
    assert_eq!(index_of(&e), 8);
    assert_eq!(sub2.cursor(), Some(Cursor { epoch: 1, seq: 8 }));
    assert!(
        broker.stats().replayed_frames >= 4,
        "broker must count the replayed deliveries"
    );

    broker.shutdown();
    cleanup(&dir);
}

#[test]
fn replay_selects_only_the_resuming_subscribers_own_topics() {
    let dir = tmp_dir("per-peer");
    let (broker, _) = spawn_broker_durable::<Filter>(
        "127.0.0.1:0",
        None,
        TcpConfig::default(),
        LogConfig::new(&dir),
    )
    .expect("spawn durable");
    let publisher: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    // A second subscriber holds `b` the whole time: a replay that asked
    // "does anyone want this record" would send it `b` events too.
    let other: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    other
        .subscribe_acked(Filter::for_topic("b"), ACK_WAIT)
        .expect("acked");

    // Session one holds only `a`. Its events are contiguous in the log,
    // so its cursor ends on the last of them.
    let sub: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    sub.subscribe_acked(Filter::for_topic("a"), ACK_WAIT)
        .expect("acked");
    for i in 1..=2u64 {
        publisher.publish(numbered_on("a", i)).expect("publish");
    }
    assert_eq!(drain_indices(&sub), vec![1, 2]);
    let cursor = sub.cursor().expect("cursor after deliveries");
    assert_eq!(cursor.seq, 2);
    drop(sub);

    // The gap: both topics, interleaved; odd indices go to `a`.
    for i in 3..=10u64 {
        let topic = if i % 2 == 1 { "a" } else { "b" };
        publisher.publish(numbered_on(topic, i)).expect("publish");
    }
    assert_eq!(drain_indices(&other), vec![4, 6, 8, 10]);

    let sub2: TcpClient<Filter> =
        TcpClient::connect_resuming(broker.addr(), TcpConfig::default(), Some(cursor))
            .expect("reconnect");
    sub2.subscribe_acked(Filter::for_topic("a"), ACK_WAIT)
        .expect("acked");
    sub2.catch_up().expect("catch up");
    assert_eq!(
        sub2.recv_resume(RECV_WAIT),
        Some(ResumeOutcome::ContinuedAtCursor)
    );
    assert_eq!(
        drain_indices(&sub2),
        vec![3, 5, 7, 9],
        "exactly the gap's `a` events, once each, in order"
    );
    assert!(other.recv_timeout(QUIET).is_none(), "replay is not fan-out");

    broker.shutdown();
    cleanup(&dir);
}

#[test]
fn catch_up_without_history_reports_fresh_start() {
    let dir = tmp_dir("fresh");
    let (broker, _) = spawn_broker_durable::<Filter>(
        "127.0.0.1:0",
        None,
        TcpConfig::default(),
        LogConfig::new(&dir),
    )
    .expect("spawn durable");
    let publisher: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");

    // History exists before this subscriber's first appearance…
    for i in 1..=2u64 {
        publisher.publish(numbered(i)).expect("publish");
    }
    std::thread::sleep(Duration::from_millis(100));

    // …but a cursor-less subscriber starts fresh: no replay of events
    // from before its time.
    let sub: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    sub.subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");
    sub.catch_up().expect("catch up");
    assert_eq!(sub.recv_resume(RECV_WAIT), Some(ResumeOutcome::FreshStart));
    assert!(
        sub.recv_timeout(QUIET).is_none(),
        "fresh start must not replay pre-subscription history"
    );

    publisher.publish(numbered(3)).expect("publish");
    let e = sub.recv_timeout(RECV_WAIT).expect("live delivery");
    assert_eq!(index_of(&e), 3);

    // A non-durable broker answers any catch-up with FreshStart too.
    let plain = spawn_broker::<Filter>("127.0.0.1:0", None).expect("spawn plain");
    let sub2: TcpClient<Filter> = TcpClient::connect(plain.addr()).expect("connect");
    sub2.subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");
    sub2.catch_up().expect("catch up");
    assert_eq!(sub2.recv_resume(RECV_WAIT), Some(ResumeOutcome::FreshStart));
    plain.shutdown();

    broker.shutdown();
    cleanup(&dir);
}

#[test]
fn cursor_behind_retention_floor_reports_gap_and_replays_the_rest() {
    let dir = tmp_dir("retention");
    let log_cfg = LogConfig {
        segment_max_bytes: 256,
        max_segments: 2,
        ..LogConfig::new(&dir)
    };
    let (broker, _) =
        spawn_broker_durable::<Filter>("127.0.0.1:0", None, TcpConfig::default(), log_cfg)
            .expect("spawn durable");
    let publisher: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");

    // Enough history to evict the oldest segments.
    const TOTAL: u64 = 80;
    for i in 1..=TOTAL {
        publisher.publish(numbered(i)).expect("publish");
    }
    std::thread::sleep(Duration::from_millis(200));

    // A subscriber resuming from seq 1 is behind the retention floor.
    let sub: TcpClient<Filter> = TcpClient::connect_resuming(
        broker.addr(),
        TcpConfig::default(),
        Some(Cursor { epoch: 1, seq: 1 }),
    )
    .expect("reconnect");
    sub.subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");
    sub.catch_up().expect("catch up");
    assert_eq!(
        sub.recv_resume(RECV_WAIT),
        Some(ResumeOutcome::GapTruncatedByRetention),
        "part of the gap is gone; the subscriber must learn that"
    );

    let got = drain_indices(&sub);
    assert!(!got.is_empty(), "the retained suffix replays");
    assert!(
        got.len() < TOTAL as usize,
        "the evicted prefix must not reappear"
    );
    assert_eq!(got.last().copied(), Some(TOTAL));
    assert!(
        got.windows(2).all(|w| w[1] == w[0] + 1),
        "retained suffix is contiguous and in order"
    );

    broker.shutdown();
    cleanup(&dir);
}

#[test]
fn broker_restart_recovers_log_and_resumes_catch_up() {
    let dir = tmp_dir("restart");
    let (broker, report) = spawn_broker_durable::<Filter>(
        "127.0.0.1:0",
        None,
        TcpConfig::default(),
        LogConfig::new(&dir),
    )
    .expect("spawn durable");
    assert_eq!(report.records, 0);

    let publisher: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    let sub: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    sub.subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");
    for i in 1..=3u64 {
        publisher.publish(numbered(i)).expect("publish");
    }
    for _ in 0..3 {
        sub.recv_timeout(RECV_WAIT).expect("delivery");
    }
    let cursor = sub.cursor().expect("cursor");
    assert_eq!(cursor.seq, 3);

    // Crash: drop clients, kill the broker, restart on a fresh port with
    // the SAME log directory.
    drop(sub);
    drop(publisher);
    broker.shutdown();
    let (broker2, report2) = spawn_broker_durable::<Filter>(
        "127.0.0.1:0",
        None,
        TcpConfig::default(),
        LogConfig::new(&dir),
    )
    .expect("respawn durable");
    assert_eq!(report2.records, 3, "the log survived the restart");
    assert_eq!(report2.high_water, Cursor { epoch: 1, seq: 3 });

    // A subscriber resuming mid-history replays the tail exactly once
    // and then rides live deliveries — stamps continue at seq 4.
    let sub2: TcpClient<Filter> = TcpClient::connect_resuming(
        broker2.addr(),
        TcpConfig::default(),
        Some(Cursor { epoch: 1, seq: 1 }),
    )
    .expect("reconnect");
    sub2.subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");
    sub2.catch_up().expect("catch up");
    assert_eq!(
        sub2.recv_resume(RECV_WAIT),
        Some(ResumeOutcome::ContinuedAtCursor)
    );
    let got = drain_indices(&sub2);
    assert_eq!(got, vec![2, 3], "replayed tail, exactly once");

    let publisher2: TcpClient<Filter> = TcpClient::connect(broker2.addr()).expect("connect");
    publisher2.publish(numbered(4)).expect("publish");
    let e = sub2.recv_timeout(RECV_WAIT).expect("live after restart");
    assert_eq!(index_of(&e), 4);
    assert_eq!(
        sub2.cursor(),
        Some(Cursor { epoch: 1, seq: 4 }),
        "stamps continue from the recovered high-water mark"
    );

    broker2.shutdown();
    cleanup(&dir);
}

#[test]
fn live_publishes_during_replay_stay_ordered_and_exactly_once() {
    let dir = tmp_dir("race");
    // A small replay budget stretches the replay over many dispatcher
    // ticks so the live publishes below genuinely race it.
    let log_cfg = LogConfig {
        replay_budget: 16,
        ..LogConfig::new(&dir)
    };
    let (broker, _) =
        spawn_broker_durable::<Filter>("127.0.0.1:0", None, TcpConfig::default(), log_cfg)
            .expect("spawn durable");
    let publisher: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");

    const BACKLOG: u64 = 600;
    for i in 1..=BACKLOG {
        publisher.publish(numbered(i)).expect("publish");
    }
    std::thread::sleep(Duration::from_millis(200));

    // Start a replay over the whole backlog, then publish live while it
    // is in flight. A second, caught-up subscriber must keep receiving
    // promptly — replay never stalls live fan-out.
    let live_sub: TcpClient<Filter> = TcpClient::connect(broker.addr()).expect("connect");
    live_sub
        .subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");

    let replayer: TcpClient<Filter> = TcpClient::connect_resuming(
        broker.addr(),
        TcpConfig::default(),
        Some(Cursor { epoch: 1, seq: 0 }),
    )
    .expect("reconnect");
    replayer
        .subscribe_acked(Filter::for_topic("t"), ACK_WAIT)
        .expect("acked");
    replayer.catch_up().expect("catch up");
    // CatchUp has no ack and the publisher rides another connection, so
    // wait for the first replayed event — proof the broker's replay is
    // active — before racing live publishes against it.
    let first = replayer.recv_timeout(RECV_WAIT).expect("replay starts");
    assert_eq!(index_of(&first), 1);

    const LIVE: u64 = 20;
    for i in BACKLOG + 1..=BACKLOG + LIVE {
        publisher.publish(numbered(i)).expect("publish");
        let e = live_sub.recv_timeout(RECV_WAIT).expect("live fan-out");
        assert_eq!(index_of(&e), i, "live subscriber rides ahead of replay");
    }

    assert_eq!(
        replayer.recv_resume(RECV_WAIT),
        Some(ResumeOutcome::ContinuedAtCursor)
    );
    let mut got = vec![index_of(&first)];
    got.extend(drain_indices(&replayer));
    let want: Vec<u64> = (1..=BACKLOG + LIVE).collect();
    assert_eq!(
        got, want,
        "backlog then racing live events: in order, no gaps, no duplicates"
    );
    assert!(broker.stats().replayed_frames >= BACKLOG);
    assert_eq!(
        broker.stats().dropped_frames,
        0,
        "replay backpressure retries; it never drops frames"
    );

    broker.shutdown();
    cleanup(&dir);
}
