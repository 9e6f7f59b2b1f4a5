//! Replay and recovery throughput for the durable event log.
//!
//! Four measurements, written to `BENCH_replay.json`:
//!
//! 1. **Recovery**: time to reopen (CRC-scan and repair) a seeded log
//!    directory, normalised to seconds per GB — the broker's
//!    crash-restart cost.
//! 2. **Replay**: events per second a reconnecting subscriber drains
//!    through the TCP transport when its cursor is a full backlog
//!    behind the high-water mark.
//! 3. **Live degradation**: fan-out throughput to a caught-up
//!    subscriber while that replay is in flight, against the same
//!    broker's replay-free baseline. The dispatcher's per-pass replay
//!    budget is supposed to bound this tax at ≤ 20%.
//! 4. **Replay against a full table**: the replay of point 2 again,
//!    after a second connection has registered 100k background
//!    subscriptions on other topics (20k in `--smoke`). The replay pump
//!    selects each record through the broker's match index, so the
//!    table must cost it at most half its empty-table rate.
//!
//! Each point is best-of-3. Pass `--smoke` for the seconds-long CI
//! variant, which still asserts exactly-once replay, the degradation
//! ceiling and the full-table floor at reduced scale.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use psguard_model::{Constraint, Event, Filter, Op};
use psguard_siena::wire::Wire;
use psguard_siena::{
    spawn_broker_durable, Cursor, EventLog, LogConfig, ResumeOutcome, TcpClient, TcpConfig,
};

/// Payload bytes per seeded backlog event.
const PAYLOAD: usize = 64;
/// Measurement repeats per point (best-of).
const ROUNDS: usize = 3;
/// The acceptance ceiling on live fan-out degradation during replay.
const MAX_DEGRADATION: f64 = 0.20;
/// The floor on replay throughput with the background table, as a
/// fraction of the empty-table rate measured in the same process.
const MIN_TABLE_REPLAY_RATIO: f64 = 0.5;
/// Background subscriptions are sent in batches of this many, each
/// closed by an acked one, so the broker's acks never overflow the
/// connection's queue.
const BACKGROUND_BATCH: usize = 1_024;

fn tmp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "psguard-replay-bench-{tag}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn broker_log_config(dir: &PathBuf) -> LogConfig {
    LogConfig {
        segment_max_bytes: 8 << 20,
        // Retention must hold the whole backlog: an evicted prefix
        // would turn the measured replay into a shorter one.
        max_segments: 256,
        ..LogConfig::new(dir)
    }
}

/// An event on `topic` whose payload starts with its index.
fn numbered(topic: &str, i: u64) -> Event {
    let mut payload = vec![0u8; PAYLOAD];
    payload[..8].copy_from_slice(&i.to_le_bytes());
    Event::builder(topic).payload(payload).build()
}

fn index_of(e: &Event) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&e.payload()[..8]);
    u64::from_le_bytes(b)
}

/// Seeds `n` wire-encoded `backlog` events into a fresh log at `dir`,
/// returning the on-disk byte count.
fn seed_backlog(dir: &PathBuf, n: u64) -> u64 {
    let (mut log, _) = EventLog::open(broker_log_config(dir)).expect("open log for seeding");
    let mut buf = Vec::new();
    for i in 1..=n {
        buf.clear();
        numbered("backlog", i).encode(&mut buf);
        log.append(&buf).expect("seed append");
    }
    log.sync().expect("sync");
    log.stats().bytes_appended
}

/// Publishes `n` live events and waits for a caught-up subscriber to
/// drain them all, returning events per second. The drain runs in a
/// scoped thread (the subscriber moves in and back out — `TcpClient`
/// is `Send` but not `Sync`): the client event channel is shallower
/// than a full burst.
fn live_round(
    publisher: &TcpClient<Filter>,
    sub: TcpClient<Filter>,
    n: u64,
) -> (TcpClient<Filter>, f64) {
    let start = Instant::now();
    let (sub, end) = std::thread::scope(|s| {
        let drainer = s.spawn(move || {
            for _ in 0..n {
                sub.recv_timeout(Duration::from_secs(60))
                    .expect("live delivery");
            }
            (sub, Instant::now())
        });
        for i in 0..n {
            publisher.publish(numbered("live", i)).expect("publish");
        }
        drainer.join().expect("live drainer")
    });
    (sub, n as f64 / (end - start).as_secs_f64())
}

/// Registers `n` distinct subscriptions on topics no event is published
/// on, over a connection of its own, which the caller keeps open.
fn register_background(addr: SocketAddr, cfg: TcpConfig, n: usize) -> TcpClient<Filter> {
    let bg: TcpClient<Filter> = TcpClient::connect_with(addr, cfg).expect("background connect");
    for i in 0..n {
        let filter = Filter::for_topic(format!("bg{}", i % 256))
            .with(Constraint::new("x", Op::Ge(i as i64)));
        if (i + 1) % BACKGROUND_BATCH == 0 || i + 1 == n {
            bg.subscribe_acked(filter, Duration::from_secs(30))
                .expect("background batch acked");
        } else {
            bg.subscribe(filter).expect("background subscribe");
        }
    }
    bg
}

struct ReplayRound {
    live_eps: f64,
    replay_eps: f64,
    /// Whether the replay was still in flight when the live measurement
    /// finished — the regime the degradation number is about.
    overlapped: bool,
}

/// One catch-up replay of `backlog` events racing `live_n` live
/// publishes, verifying the replay is ordered and exactly-once.
fn replay_round(
    addr: SocketAddr,
    cfg: TcpConfig,
    publisher: &TcpClient<Filter>,
    live_sub: TcpClient<Filter>,
    backlog: u64,
    live_n: u64,
) -> (TcpClient<Filter>, ReplayRound) {
    let replayer: TcpClient<Filter> =
        TcpClient::connect_resuming(addr, cfg, Some(Cursor { epoch: 1, seq: 0 }))
            .expect("replayer connect");
    replayer
        .subscribe_acked(Filter::for_topic("backlog"), Duration::from_secs(10))
        .expect("replayer sub");
    let replay_start = Instant::now();
    replayer.catch_up().expect("catch up");

    let live_start = Instant::now();
    let ((replayer, replay_end), (live_sub, live_end)) = std::thread::scope(|s| {
        let replay_drain = s.spawn(move || {
            for want in 1..=backlog {
                let e = replayer
                    .recv_timeout(Duration::from_secs(120))
                    .expect("replayed event");
                assert_eq!(index_of(&e), want, "replay must be ordered, exactly-once");
            }
            (replayer, Instant::now())
        });
        let live_drain = s.spawn(move || {
            for _ in 0..live_n {
                live_sub
                    .recv_timeout(Duration::from_secs(60))
                    .expect("live delivery during replay");
            }
            (live_sub, Instant::now())
        });
        for i in 0..live_n {
            publisher.publish(numbered("live", i)).expect("publish");
        }
        (
            replay_drain.join().expect("replay drainer"),
            live_drain.join().expect("live drainer"),
        )
    });
    assert_eq!(
        replayer.recv_resume(Duration::from_secs(30)),
        Some(ResumeOutcome::ContinuedAtCursor),
        "the backlog must resolve as a fully retained gap"
    );
    assert!(
        replayer.recv_timeout(Duration::from_millis(200)).is_none(),
        "nothing may arrive after the replayed backlog"
    );

    let round = ReplayRound {
        live_eps: live_n as f64 / (live_end - live_start).as_secs_f64(),
        replay_eps: backlog as f64 / (replay_end - replay_start).as_secs_f64(),
        overlapped: replay_end >= live_end,
    };
    (live_sub, round)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (backlog, live_n, recovery_n, background): (u64, u64, u64, usize) = if smoke {
        (12_000, 3_000, 12_000, 20_000)
    } else {
        (120_000, 15_000, 120_000, 100_000)
    };

    // ---------------------------------------------------- 1. recovery
    let rec_dir = tmp_dir("recovery");
    let rec_bytes = seed_backlog(&rec_dir, recovery_n);
    let mut open_secs = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let (_, report) = EventLog::open(broker_log_config(&rec_dir)).expect("recovery open");
        let t = start.elapsed().as_secs_f64();
        assert_eq!(
            report.records, recovery_n,
            "recovery must find every record"
        );
        assert_eq!(report.truncated_bytes, 0, "clean log: nothing to repair");
        open_secs = open_secs.min(t);
    }
    let recovery_sec_per_gb = open_secs / (rec_bytes as f64 / 1e9);
    println!(
        "recovery: {recovery_n} records / {rec_bytes} bytes scanned in {:.1} ms ({recovery_sec_per_gb:.2} s/GB)",
        open_secs * 1e3
    );
    let _ = std::fs::remove_dir_all(&rec_dir);

    let cfg = TcpConfig {
        // Liveness is not under test; eviction timing would add noise.
        heartbeat_interval: Duration::ZERO,
        // Deep enough that a full live burst queues broker-side while
        // the drainer catches up (entries are Arc clones, depth is cheap).
        queue_capacity: live_n as usize + 64,
        ..TcpConfig::default()
    };

    // ---------------------------------------------- 2. live baseline
    let base_dir = tmp_dir("baseline");
    let (broker, report) =
        spawn_broker_durable::<Filter>("127.0.0.1:0", None, cfg, broker_log_config(&base_dir))
            .expect("baseline broker");
    assert_eq!(report.records, 0);
    let publisher: TcpClient<Filter> = TcpClient::connect_with(broker.addr(), cfg).expect("pub");
    let mut live_sub: TcpClient<Filter> = TcpClient::connect_with(broker.addr(), cfg).expect("sub");
    live_sub
        .subscribe_acked(Filter::for_topic("live"), Duration::from_secs(10))
        .expect("sub ack");
    let mut baseline_eps = 0f64;
    for _ in 0..ROUNDS {
        let (sub, eps) = live_round(&publisher, live_sub, live_n);
        live_sub = sub;
        baseline_eps = baseline_eps.max(eps);
    }
    println!("live baseline: {baseline_eps:.0} events/s (no replay in flight)");
    drop(publisher);
    drop(live_sub);
    broker.shutdown();
    let _ = std::fs::remove_dir_all(&base_dir);

    // ------------------------------------- 3. replay + live-during
    let replay_dir = tmp_dir("replay");
    seed_backlog(&replay_dir, backlog);
    let (broker, report) =
        spawn_broker_durable::<Filter>("127.0.0.1:0", None, cfg, broker_log_config(&replay_dir))
            .expect("replay broker");
    assert_eq!(report.records, backlog, "broker must recover the backlog");
    let publisher: TcpClient<Filter> = TcpClient::connect_with(broker.addr(), cfg).expect("pub");
    let mut live_sub: TcpClient<Filter> = TcpClient::connect_with(broker.addr(), cfg).expect("sub");
    live_sub
        .subscribe_acked(Filter::for_topic("live"), Duration::from_secs(10))
        .expect("sub ack");

    let mut during_eps = 0f64;
    let mut replay_eps = 0f64;
    let mut overlapped = false;
    for _ in 0..ROUNDS {
        let (sub, r) = replay_round(broker.addr(), cfg, &publisher, live_sub, backlog, live_n);
        live_sub = sub;
        during_eps = during_eps.max(r.live_eps);
        replay_eps = replay_eps.max(r.replay_eps);
        overlapped |= r.overlapped;
    }

    // ------------------------------- 4. replay against a full table
    let bg = register_background(broker.addr(), cfg, background);
    let mut table_replay_eps = 0f64;
    for _ in 0..ROUNDS {
        let (sub, r) = replay_round(broker.addr(), cfg, &publisher, live_sub, backlog, live_n);
        live_sub = sub;
        table_replay_eps = table_replay_eps.max(r.replay_eps);
    }
    let replayed_frames = broker.stats().replayed_frames;
    drop(bg);
    drop(publisher);
    drop(live_sub);
    broker.shutdown();
    let _ = std::fs::remove_dir_all(&replay_dir);

    let degradation = (1.0 - during_eps / baseline_eps).max(0.0);
    let table_ratio = table_replay_eps / replay_eps;
    println!("replay: {replay_eps:.0} events/s through catch-up ({replayed_frames} frames total)");
    println!(
        "replay with {background} background subscriptions: {table_replay_eps:.0} events/s ({table_ratio:.2}x the empty table)"
    );
    println!(
        "live during replay: {during_eps:.0} events/s — degradation {:.1}% (overlapped: {overlapped})",
        degradation * 100.0
    );

    let mut json = String::from("{\n  \"bench\": \"replay_throughput\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"backlog\": {backlog}, \"live_events\": {live_n}, \"recovery_records\": {recovery_n}, \"payload_bytes\": {PAYLOAD}, \"rounds\": {ROUNDS}, \"smoke\": {smoke}}},"
    );
    let _ = writeln!(
        json,
        "  \"recovery\": {{\"bytes\": {rec_bytes}, \"open_sec\": {open_secs:.6}, \"sec_per_gb\": {recovery_sec_per_gb:.4}}},"
    );
    let _ = writeln!(
        json,
        "  \"replay\": {{\"events_per_sec\": {replay_eps:.1}, \"replayed_frames\": {replayed_frames}, \"overlapped_live\": {overlapped}, \"background_subscriptions\": {background}, \"events_per_sec_with_table\": {table_replay_eps:.1}, \"table_ratio\": {table_ratio:.3}}},"
    );
    let _ = writeln!(
        json,
        "  \"live\": {{\"baseline_eps\": {baseline_eps:.1}, \"during_replay_eps\": {during_eps:.1}, \"degradation\": {degradation:.4}}}"
    );
    json.push_str("}\n");
    std::fs::write("BENCH_replay.json", &json).expect("write BENCH_replay.json");
    println!("wrote BENCH_replay.json");

    // Floors: replay must move real volume, recovery must scan at disk
    // speed (not per-record syscall speed), live fan-out keeps at least
    // 80% of its replay-free throughput, and a full table keeps replay
    // at least at half its empty-table rate.
    assert!(
        replay_eps > 2_000.0,
        "replay throughput collapsed: {replay_eps:.0} events/s"
    );
    assert!(
        recovery_sec_per_gb < 60.0,
        "recovery scan too slow: {recovery_sec_per_gb:.1} s/GB"
    );
    assert!(
        degradation <= MAX_DEGRADATION,
        "live fan-out degraded {:.1}% during replay (ceiling {:.0}%)",
        degradation * 100.0,
        MAX_DEGRADATION * 100.0
    );
    assert!(
        table_ratio >= MIN_TABLE_REPLAY_RATIO,
        "replay with {background} background subscriptions ran at {table_ratio:.2}x the empty-table rate (floor {MIN_TABLE_REPLAY_RATIO:.1}x)"
    );
    println!("all floors hold");
}
