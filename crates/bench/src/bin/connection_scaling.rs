//! Connection scaling: the C10K case for the readiness-driven reactor.
//!
//! Holds {64, 1k, 10k} concurrent subscriber connections against one
//! reactor broker and measures what the reactor is supposed to make
//! flat: broker-side thread count and per-connection resident memory,
//! plus fan-out throughput (every publish delivered to every
//! subscriber) at each scale.
//!
//! Subscribers are hosted in child processes (`--herd` mode, spawned
//! from this same binary): with a 20k fd ceiling, 10k sockets cannot
//! have both ends in one process. The broker side — the side being
//! measured — stays in the parent. Protocol: child prints `READY` once
//! every subscription is acked, holds its connections until the parent
//! sends `GO` on stdin, then drains its share of the fan-out and prints
//! `GOT <total>`.
//!
//! Writes machine-readable results to `BENCH_connections.json` in the
//! current directory. Pass `--smoke` for a seconds-long CI variant that
//! still asserts the flat-thread and flat-memory invariants at reduced
//! scale.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use psguard_model::{Event, Filter};
use psguard_siena::{spawn_broker_with, ClientReactor, TcpConfig};

/// Subscriber connections per herd child (5k sockets + slack per child).
const CONNS_PER_CHILD: usize = 5_000;
/// Client reactors hosting the connections inside each child.
const REACTORS_PER_CHILD: usize = 4;
/// Payload bytes per fanned-out event.
const PAYLOAD: usize = 256;
/// Broker worker threads: fixed, and the point of the measurement.
const WORKERS: usize = 2;

fn base_config(events: usize) -> TcpConfig {
    TcpConfig {
        // Liveness is not under test, and heartbeat timing on a loaded
        // single-core box would add eviction noise to the measurement.
        heartbeat_interval: Duration::ZERO,
        // Deep enough that a full fan-out burst queues without drops:
        // entries are Arc clones of one shared frame, so depth is cheap.
        queue_capacity: events + 16,
        worker_threads: WORKERS,
        ..TcpConfig::default()
    }
}

/// "VmRSS" / "Threads" of the current process from /proc/self/status.
fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn rss_bytes() -> u64 {
    proc_status("VmRSS:").unwrap_or(0) * 1024
}

fn process_threads() -> u64 {
    proc_status("Threads:").unwrap_or(0)
}

// ---------------------------------------------------------------- herd

/// Child mode: host `conns` subscriber connections, print `READY` once
/// every subscription is acked, hold until `GO` arrives on stdin, then
/// drain `events` deliveries per connection and print `GOT <total>`.
fn run_herd(addr: SocketAddr, conns: usize, events: usize) {
    let cfg = base_config(events);
    let reactors: Vec<ClientReactor<Filter>> = (0..REACTORS_PER_CHILD)
        .map(|_| ClientReactor::with_config(cfg))
        .collect();

    let mut subs = Vec::with_capacity(conns);
    for i in 0..conns {
        let r = &reactors[i % reactors.len()];
        // A connect can transiently fail while the accept backlog churns
        // under thousands of concurrent SYNs; retry briefly.
        let mut attempt = 0usize;
        let c = loop {
            match r.connect(addr) {
                Ok(c) => break c,
                Err(e) if attempt < 50 => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(20));
                    let _ = e;
                }
                Err(e) => panic!("herd connect {i}/{conns}: {e}"),
            }
        };
        c.subscribe(Filter::for_topic("load")).expect("subscribe");
        subs.push(c);
    }
    // Per-connection ack fence: frames are ordered per connection, so
    // the fence acking implies the load subscription is installed.
    for c in &subs {
        c.subscribe_acked(Filter::for_topic("fence"), Duration::from_secs(120))
            .expect("fence ack");
    }
    println!("READY");

    let mut go = String::new();
    std::io::stdin().lock().read_line(&mut go).expect("read GO");
    assert_eq!(go.trim(), "GO", "unexpected parent line: {go:?}");

    let deadline = Instant::now() + Duration::from_secs(180);
    let mut total = 0u64;
    for c in &subs {
        let mut got = 0usize;
        while got < events && Instant::now() < deadline {
            let left = deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1));
            if c.recv_timeout(left).is_some() {
                got += 1;
            } else {
                break;
            }
        }
        total += got as u64;
    }
    println!("GOT {total}");
}

struct HerdChild {
    proc: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

struct Herd {
    children: Vec<HerdChild>,
}

impl Herd {
    /// Spawns enough children of this same binary to host `conns`
    /// connections, and blocks until every child prints `READY`.
    fn spawn(addr: SocketAddr, conns: usize, events: usize) -> Herd {
        let exe = std::env::current_exe().expect("current_exe");
        let n_children = conns.div_ceil(CONNS_PER_CHILD);
        let mut children = Vec::new();
        let mut left = conns;
        for _ in 0..n_children {
            let share = left.min(CONNS_PER_CHILD);
            left -= share;
            let mut proc = Command::new(&exe)
                .arg("--herd")
                .arg(addr.to_string())
                .arg(share.to_string())
                .arg(events.to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn herd child");
            let stdin = proc.stdin.take().expect("child stdin");
            let stdout = BufReader::new(proc.stdout.take().expect("child stdout"));
            children.push(HerdChild {
                proc,
                stdin,
                stdout,
            });
        }
        let mut herd = Herd { children };
        herd.expect_line("READY");
        herd
    }

    /// Reads one line from every child and asserts its first word.
    /// Returns the second word of each line, parsed (0 when absent).
    fn expect_line(&mut self, word: &str) -> Vec<u64> {
        let mut vals = Vec::new();
        for child in &mut self.children {
            let mut line = String::new();
            child.stdout.read_line(&mut line).expect("child line");
            let mut parts = line.split_whitespace();
            assert_eq!(parts.next(), Some(word), "unexpected child line: {line:?}");
            vals.push(parts.next().and_then(|v| v.parse().ok()).unwrap_or(0));
        }
        vals
    }

    /// Releases every child into its drain loop.
    fn go(&mut self) {
        for child in &mut self.children {
            writeln!(child.stdin, "GO").expect("send GO");
            child.stdin.flush().expect("flush GO");
        }
    }

    fn join(mut self) {
        for child in &mut self.children {
            let status = child.proc.wait().expect("child wait");
            assert!(status.success(), "herd child failed: {status}");
        }
    }
}

// ------------------------------------------------------------- parent

struct Point {
    conns: usize,
    events: usize,
    deliveries: u64,
    elapsed: f64,
    fanout_eps: f64,
    threads_delta_held: u64,
    per_conn_rss: f64,
    broker_threads: usize,
    dropped_frames: u64,
}

/// One measured cell: RSS and thread deltas while `conns` subscriber
/// connections are held, then the wall time for `events` publishes to
/// reach every subscriber.
fn measure_point(conns: usize, events: usize) -> Point {
    let cfg = base_config(events);
    let broker = spawn_broker_with::<Filter>("127.0.0.1:0", None, cfg).expect("spawn broker");
    let broker_threads = broker.thread_count();
    let addr = broker.addr();

    let threads0 = process_threads();
    let rss0 = rss_bytes();

    let mut herd = Herd::spawn(addr, conns, events);
    let threads_delta_held = process_threads().saturating_sub(threads0);
    let per_conn_rss = rss_bytes().saturating_sub(rss0) as f64 / conns as f64;

    // Publisher comes up only after the held measurement so its own
    // reactor thread does not pollute the broker-side delta.
    let reactor: ClientReactor<Filter> = ClientReactor::with_config(cfg);
    let publisher = reactor.connect(addr).expect("publisher connect");
    let e = Event::builder("load").payload(vec![0xCD; PAYLOAD]).build();
    herd.go();
    let t0 = Instant::now();
    for _ in 0..events {
        publisher.publish(e.clone()).expect("publish");
    }
    let got = herd.expect_line("GOT");
    let elapsed = t0.elapsed().as_secs_f64();
    herd.join();
    let deliveries: u64 = got.iter().sum();

    assert_eq!(
        broker.thread_count(),
        broker_threads,
        "broker thread count moved under {conns} connections"
    );
    let dropped_frames = broker.stats().dropped_frames;
    broker.shutdown();

    Point {
        conns,
        events,
        deliveries,
        elapsed,
        fanout_eps: deliveries as f64 / elapsed,
        threads_delta_held,
        per_conn_rss,
        broker_threads,
        dropped_frames,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--herd") {
        let addr: SocketAddr = args
            .get(2)
            .and_then(|v| v.parse().ok())
            .expect("--herd addr");
        let conns: usize = args.get(3).and_then(|v| v.parse().ok()).expect("conns");
        let events: usize = args.get(4).and_then(|v| v.parse().ok()).expect("events");
        run_herd(addr, conns, events);
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");

    // Deliveries per point stay ~constant (conns × events ≈ 128k full,
    // 25k smoke) so every point does comparable total work.
    let reactor_points: &[(usize, usize)] = if smoke {
        &[(64, 400), (256, 100)]
    } else {
        &[(64, 2_000), (1_000, 128), (10_000, 16)]
    };

    let mut points = Vec::new();
    for &(conns, events) in reactor_points {
        let p = measure_point(conns, events);
        println!(
            "reactor   conns={:>6}  fanout {:>10.0} ev/s  threads+{}  {:>7.0} B/conn  drops={}",
            p.conns, p.fanout_eps, p.threads_delta_held, p.per_conn_rss, p.dropped_frames
        );
        points.push(p);
    }
    let mut json = String::from(
        "{\n  \"bench\": \"connection_scaling\",\n  \"unit\": \"deliveries_per_second\",\n",
    );
    let _ = writeln!(
        json,
        "  \"payload_bytes\": {PAYLOAD}, \"worker_threads\": {WORKERS}, \"smoke\": {smoke},"
    );
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"transport\": \"reactor\", \"conns\": {}, \"events\": {}, \"deliveries\": {}, \
             \"elapsed_s\": {:.3}, \"fanout_eps\": {:.1}, \"broker_threads\": {}, \
             \"threads_delta_held\": {}, \"per_conn_rss_bytes\": {:.1}, \"dropped_frames\": {}}}{}",
            p.conns,
            p.events,
            p.deliveries,
            p.elapsed,
            p.fanout_eps,
            p.broker_threads,
            p.threads_delta_held,
            p.per_conn_rss,
            p.dropped_frames,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_connections.json", &json).expect("write BENCH_connections.json");
    println!("wrote BENCH_connections.json");

    // The reactor's contract, asserted at every scale (including smoke):
    // broker-side threads never scale with connections...
    for p in &points {
        assert!(
            p.threads_delta_held <= 4,
            "broker-side threads grew by {} while holding {} connections — \
             not a fixed pool",
            p.threads_delta_held,
            p.conns
        );
    }
    // ...per-connection resident memory stays bounded and flat...
    let largest = points.last().expect("points");
    assert!(
        largest.per_conn_rss <= 64.0 * 1024.0,
        "per-connection RSS at {} conns is {:.0} B — not flat",
        largest.conns,
        largest.per_conn_rss
    );
    // ...and nothing is lost on the way.
    for p in &points {
        assert_eq!(
            p.deliveries,
            (p.conns * p.events) as u64,
            "lost deliveries at {} conns ({} broker drops)",
            p.conns,
            p.dropped_frames
        );
    }
}
