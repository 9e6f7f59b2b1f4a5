//! The live path: KDC grants → `Publisher::publish_batch` →
//! `TcpClient::publish` → reactor broker on loopback → `ClientReactor`
//! connections → `Subscriber::decrypt`, driven by two generator threads
//! and checked delivery by delivery against the oracle.
//!
//! One process, loopback sockets, not a real link. The publisher thread
//! builds, encrypts and sends; the consumer thread drains every
//! subscriber connection, decrypts, verifies and stamps. Every
//! subscriber connection shares the library's single `ClientReactor`
//! I/O thread, so connection count is a workload input, not generator
//! parallelism.

use std::collections::{BTreeSet, VecDeque};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::Thread;
use std::time::{Duration, Instant};

use psguard::{PsGuard, PsGuardConfig, Publisher, Subscriber};
use psguard_groupkey::RekeyStrategy;
use psguard_keys::{EpochSchedule, GroupRekeyCoordinator, OpCounter, RekeyWindow, Schema};
use psguard_model::{AttrValue, Constraint, Event, IntRange, Op};
use psguard_routing::{SecureEvent, SecureFilter};
use psguard_siena::{
    spawn_broker_durable, spawn_broker_with, ClientReactor, Cursor, LogConfig, ReactorClient,
    ResumeOutcome, TcpBroker, TcpClient, TcpConfig, TcpStats,
};

use crate::oracle::{ChurnOracle, Coverage, InOrder, Verdict};
use crate::procfs;
use crate::workload::{Churn, Generator, SubDesc, ATTR, VALUE_RANGE};

/// Events per `publish_batch` call in the closed loop.
pub const BATCH: u64 = 32;
/// Closed-loop cap on events in flight (published, not yet decrypted by
/// the probe).
pub const WINDOW: u64 = 256;
/// Every n-th background or replayed delivery is decrypted as well.
const DECRYPT_EVERY: u64 = 64;
/// A paced event decrypted later than this after it was due has failed.
const LATE: Duration = Duration::from_secs(1);
/// How long the consumer waits for stragglers once publishing stopped.
const DRAIN_GRACE: Duration = Duration::from_secs(3);
/// Timeout of every `subscribe_acked` barrier.
const ACK_TIMEOUT: Duration = Duration::from_secs(20);
/// Subscriptions sent between two barriers during set-up: a quarter of
/// the connection's queue capacity.
const SUBSCRIBE_BURST: i64 = 2048;
/// Slots of the send-time ring; more than [`WINDOW`] so a slot is never
/// reused while its event is in flight.
const RING: usize = 1024;
/// Width of one throughput slice of the closed loop's measured window.
pub const SLICE: Duration = Duration::from_millis(500);

/// The schema every workload shares: one numeric attribute.
pub fn schema() -> Schema {
    let range = IntRange::new(0, VALUE_RANGE - 1).expect("0 < VALUE_RANGE");
    Schema::builder()
        .numeric(ATTR, range, 1)
        .expect("a unit least count divides the range")
        .build()
}

/// The deployment facade. Its master seed is fixed: the workload seed
/// reaches only the generator.
pub fn deployment() -> PsGuard {
    PsGuard::new(b"pathbench-master", schema(), PsGuardConfig::default())
}

/// The transport tuning of the issue's load shape.
pub fn tcp_config() -> TcpConfig {
    TcpConfig {
        worker_threads: 1,
        heartbeat_interval: Duration::ZERO,
        queue_capacity: 8192,
        ..TcpConfig::default()
    }
}

/// A key holder for the whole value range of `topic`.
pub fn full_range_holder(ps: &PsGuard, gen: &Generator, topic: u32, epoch: u64) -> Subscriber {
    let mut holder = ps.subscriber("holder");
    ps.authorize_subscriber(&mut holder, &gen.full_range_filter(topic), epoch)
        .expect("a full-range filter is grantable");
    holder
}

/// Asks the KDC to authorise `sub` and returns the key holder with the
/// secure filter it registers at its broker.
pub fn authorize(
    ps: &PsGuard,
    gen: &Generator,
    sub: &SubDesc,
    epoch: u64,
    ops: &mut OpCounter,
) -> (Subscriber, SecureFilter) {
    let mut holder = ps.subscriber("sub");
    let cost = ps
        .authorize_subscriber(&mut holder, &gen.filter(sub), epoch)
        .expect("generated filters are grantable");
    ops.merge(&cost);
    let filter = holder
        .secure_filters()
        .pop()
        .expect("one grant, one secure filter");
    (holder, filter)
}

/// Counts of checks made and checks failed; `failed / attempted` is the
/// run's `failed_share`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Deliveries and decrypt checks the oracle expected or judged.
    pub attempted: u64,
    /// Delivery-order violations, summed.
    pub delivery: Verdict,
    /// Decrypts that failed or returned the wrong plaintext.
    pub bad_decrypt: u64,
    /// Revoked key holders that decrypted a post-epoch event.
    pub revoked_decrypted: u64,
    /// Paced events decrypted more than a second after they were due.
    pub late: u64,
    /// Replays that did not resolve as `ContinuedAtCursor`.
    pub bad_resume: u64,
    /// Frames, deliveries or log appends the transport counted as lost.
    pub transport_drops: u64,
}

impl Tally {
    /// Every violation.
    pub fn failed(&self) -> u64 {
        self.delivery.failed()
            + self.bad_decrypt
            + self.revoked_decrypted
            + self.late
            + self.bad_resume
            + self.transport_drops
    }

    fn judge(&mut self, v: Verdict) {
        self.attempted += v.verified + v.failed();
        self.delivery.add(v);
    }
}

/// The publisher thread's half of a deployment.
pub struct PubSide {
    ps: PsGuard,
    publisher: Publisher,
    feed: TcpClient<SecureFilter>,
    next_id: u64,
    epoch: u64,
    batch: Vec<Event>,
}

/// A churned subscription as the consumer holds it.
struct LiveChurn {
    filter: SecureFilter,
    /// Kept until the leave: the key holder the KDC issued the grant to.
    _holder: Subscriber,
}

struct ChurnSide {
    shape: Churn,
    conn: ReactorClient<SecureFilter>,
    oracle: ChurnOracle,
    live: VecDeque<LiveChurn>,
    next_join: u64,
    barriers: i64,
    coordinator: GroupRekeyCoordinator,
    next_member: u64,
    /// Group-member id of each `[topic][slot]` key holder.
    members: Vec<Vec<u64>>,
    /// Per topic, the holder revoked at the last rollover.
    revoked: Vec<Option<Subscriber>>,
    grant_ops: OpCounter,
    rollovers: u64,
    rollover_ns: u64,
    rekey_leaves: u64,
    rekey_messages: u64,
}

struct Lagger {
    gap: u64,
    filters: Vec<SecureFilter>,
    log_epoch: u32,
    /// The next id a replay must yield: everything below is verified.
    next_id: u64,
    active: Option<ReactorClient<SecureFilter>>,
    /// Ids above `next_id` already delivered in the current cycle.
    ahead: BTreeSet<u64>,
    seen: u64,
    cycles: u64,
    /// Frames and deliveries the finished cycles' connections lost.
    drops: u64,
}

/// The consumer thread's half of a deployment.
pub struct ConSide {
    ps: PsGuard,
    addr: SocketAddr,
    probe: ReactorClient<SecureFilter>,
    /// Background connections, then wide ones; oracle index is `1 + i`.
    others: Vec<ReactorClient<SecureFilter>>,
    probe_check: InOrder,
    other_checks: Vec<InOrder>,
    other_seen: Vec<u64>,
    /// `[topic][slot]` key holders, each with one full-range grant.
    holders: Vec<Vec<Subscriber>>,
    epoch: u64,
    churn: Option<ChurnSide>,
    lagger: Option<Lagger>,
    tally: Tally,
    deliveries: u64,
    expected: Vec<u8>,
    // Declared last: the connections above close before the reactor
    // thread that serves them is joined.
    reactor: ClientReactor<SecureFilter>,
}

/// What one timed set-up measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupStats {
    /// Wall time from the start of set-up to the last subscription ack.
    pub seconds: f64,
    /// KDC grants issued.
    pub grants: u64,
    /// Hash and keyed-hash operations those grants cost.
    pub grant_ops: OpCounter,
    /// Wall time spent in `authorize_*`.
    pub grant_seconds: f64,
    /// Resident bytes added per wide connection, when there are any.
    pub rss_bytes_per_conn: Option<f64>,
}

/// One running system under test with its clients.
pub struct Deployment {
    /// The publisher thread's half.
    pub pub_side: PubSide,
    /// The consumer thread's half.
    pub con_side: ConSide,
    broker: TcpBroker,
    log_dir: Option<PathBuf>,
    /// What set-up measured.
    pub setup: SetupStats,
}

fn barrier_filter(ps: &PsGuard, gen: &Generator, nonce: i64) -> SecureFilter {
    // An existing topic's token (no new bucket to probe) plus a
    // constraint on an attribute no event carries: it matches nothing,
    // and a fresh nonce makes its ack unmistakable.
    SecureFilter {
        token: ps.routing_token(&gen.topic_names()[0]),
        constraints: vec![Constraint::new("barrier", Op::Eq(AttrValue::from(nonce)))],
    }
}

/// Subscribes `filters` on `conn` in bursts with a barrier after each.
/// The broker acks every subscription into the connection's bounded
/// queue; an unpaced flood of 50k subscriptions overflows it and the
/// broker counts the lost acks as dropped frames.
fn subscribe_paced(
    conn: &ReactorClient<SecureFilter>,
    filters: impl IntoIterator<Item = SecureFilter>,
    ps: &PsGuard,
    gen: &Generator,
) {
    let mut sent = 0i64;
    for f in filters {
        conn.subscribe(f).expect("subscribe");
        sent += 1;
        if sent % SUBSCRIBE_BURST == 0 {
            barrier(conn, ps, gen, -sent);
        }
    }
}

/// Waits until the broker has processed everything `conn` sent so far.
fn barrier(conn: &ReactorClient<SecureFilter>, ps: &PsGuard, gen: &Generator, nonce: i64) {
    let filter = barrier_filter(ps, gen, nonce);
    conn.subscribe_acked(filter.clone(), ACK_TIMEOUT)
        .expect("barrier ack");
    conn.unsubscribe(&filter).expect("barrier unsubscribe");
}

impl Deployment {
    /// Phase 1: KDC grants → broker spawn → every subscription acked.
    /// `scratch` is where a durable broker's log directory goes.
    pub fn setup(gen: &Generator, scratch: &Path) -> Deployment {
        let start = Instant::now();
        let spec = gen.spec();
        let ps = deployment();
        let cfg = tcp_config();
        let mut grant_ops = OpCounter::new();
        let mut grants = 0u64;

        // Publisher credential and key holders.
        let grant_start = Instant::now();
        let mut publisher = ps.publisher("feed");
        for topic in gen.topic_names() {
            ps.authorize_publisher(&mut publisher, topic, 0);
        }
        let slots = spec.churn.map_or(1, |c| c.holders_per_topic);
        let holders: Vec<Vec<Subscriber>> = (0..spec.topics as u32)
            .map(|t| {
                (0..slots)
                    .map(|_| full_range_holder(&ps, gen, t, 0))
                    .collect()
            })
            .collect();
        grants += (spec.topics * (slots + 1)) as u64;

        // One grant per background subscription: the KDC's cost does not
        // depend on how many connections carry them.
        let mut bg_filters: Vec<Vec<SecureFilter>> = vec![Vec::new(); spec.bg_conns];
        for k in 0..spec.bg_subs {
            let sub = gen.bg_sub(k);
            let (_, filter) = authorize(&ps, gen, &sub, 0, &mut grant_ops);
            bg_filters[sub.conn].push(filter);
        }
        grants += spec.bg_subs as u64;
        let mut grant_seconds = grant_start.elapsed().as_secs_f64();

        // Broker.
        let log_cfg = spec.durable.map(|_| {
            static DIRS: AtomicU64 = AtomicU64::new(0);
            let n = DIRS.fetch_add(1, Ordering::Relaxed);
            let dir = scratch.join(format!("log-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            LogConfig::new(dir)
        });
        let broker = match &log_cfg {
            Some(log_cfg) => {
                let (broker, report) =
                    spawn_broker_durable::<SecureFilter>("127.0.0.1:0", None, cfg, log_cfg.clone())
                        .expect("spawn durable broker");
                assert_eq!(report.records, 0, "a fresh log directory");
                broker
            }
            None => {
                spawn_broker_with::<SecureFilter>("127.0.0.1:0", None, cfg).expect("spawn broker")
            }
        };
        let addr = broker.addr();

        // Clients: feed, probe, background, wide.
        let feed = TcpClient::connect_with(addr, cfg).expect("connect feed");
        let reactor = ClientReactor::<SecureFilter>::with_config(cfg);
        let probe = reactor.connect(addr).expect("connect probe");
        let full_range: Vec<SecureFilter> = holders
            .iter()
            .flat_map(|slots| slots[0].secure_filters())
            .collect();
        for f in &full_range {
            probe.subscribe(f.clone()).expect("probe subscribe");
        }
        let mut others = Vec::new();
        for filters in bg_filters {
            let conn = reactor.connect(addr).expect("connect background");
            subscribe_paced(&conn, filters, &ps, gen);
            others.push(conn);
        }
        let rss_before = procfs::rss_kb();
        for _ in 0..spec.wide_conns {
            let conn = reactor.connect(addr).expect("connect wide");
            for f in &full_range {
                conn.subscribe(f.clone()).expect("wide subscribe");
            }
            others.push(conn);
        }

        // Churned connection: its first window of subscriptions.
        let mut churn = spec.churn.map(|shape| {
            let conn = reactor.connect(addr).expect("connect churn");
            let mut oracle = ChurnOracle::default();
            let mut live = VecDeque::new();
            let grant_start = Instant::now();
            let mut ops = OpCounter::new();
            for j in 0..shape.window as u64 {
                let desc = gen.churn_sub(j);
                let (holder, filter) = authorize(&ps, gen, &desc, 0, &mut ops);
                conn.subscribe(filter.clone()).expect("churn subscribe");
                oracle.join(desc, None);
                live.push_back(LiveChurn {
                    filter,
                    _holder: holder,
                });
            }
            grant_seconds += grant_start.elapsed().as_secs_f64();
            grant_ops.merge(&ops);
            grants += shape.window as u64;

            // The subscriber-group baseline the rollover re-keys: every
            // key holder is a member over the whole range.
            let range = IntRange::new(0, VALUE_RANGE - 1).expect("0 < VALUE_RANGE");
            let window = RekeyWindow::new(
                EpochSchedule::new(shape.epoch_every),
                "holders",
                0,
                usize::MAX,
            );
            let mut coordinator =
                GroupRekeyCoordinator::new(range, RekeyStrategy::Lkh, ps.kdc(), window, &mut ops);
            let mut next_member = 0u64;
            let members: Vec<Vec<u64>> = (0..spec.topics)
                .map(|_| {
                    (0..shape.holders_per_topic)
                        .map(|_| {
                            coordinator.queue_join(next_member, range);
                            next_member += 1;
                            next_member - 1
                        })
                        .collect()
                })
                .collect();
            coordinator.flush_now(ps.kdc(), 0, &mut ops);
            ChurnSide {
                shape,
                conn,
                oracle,
                live,
                next_join: shape.window as u64,
                barriers: 0,
                coordinator,
                next_member,
                members,
                revoked: (0..spec.topics).map(|_| None).collect(),
                grant_ops: OpCounter::new(),
                rollovers: 0,
                rollover_ns: 0,
                rekey_leaves: 0,
                rekey_messages: 0,
            }
        });

        // Per-connection barriers: every subscription above is installed.
        barrier(&probe, &ps, gen, 0);
        for conn in &others {
            barrier(conn, &ps, gen, 0);
        }
        let rss_bytes_per_conn = (spec.wide_conns > 0).then(|| {
            procfs::rss_kb().saturating_sub(rss_before) as f64 * 1024.0 / spec.wide_conns as f64
        });
        if let Some(ch) = churn.as_mut() {
            barrier(&ch.conn, &ps, gen, 0);
            ch.oracle.barrier(0);
        }
        let seconds = start.elapsed().as_secs_f64();

        let lagger = spec
            .durable
            .zip(log_cfg.as_ref())
            .map(|(gap, log_cfg)| Lagger {
                gap,
                filters: full_range.clone(),
                log_epoch: log_cfg.epoch,
                next_id: 0,
                active: None,
                ahead: BTreeSet::new(),
                seen: 0,
                cycles: 0,
                drops: 0,
            });
        let n_others = others.len();
        Deployment {
            pub_side: PubSide {
                ps: ps.clone(),
                publisher,
                feed,
                next_id: 0,
                epoch: 0,
                batch: Vec::new(),
            },
            con_side: ConSide {
                ps,
                addr,
                probe,
                others,
                probe_check: InOrder::default(),
                other_checks: vec![InOrder::default(); n_others],
                other_seen: vec![0; n_others],
                holders,
                epoch: 0,
                churn,
                lagger,
                tally: Tally::default(),
                deliveries: 0,
                expected: Vec::new(),
                reactor,
            },
            broker,
            log_dir: log_cfg.map(|c| c.dir),
            setup: SetupStats {
                seconds,
                grants,
                grant_ops,
                grant_seconds,
                rss_bytes_per_conn,
            },
        }
    }

    /// Broker-side transport counters.
    pub fn broker_stats(&self) -> TcpStats {
        self.broker.stats()
    }

    /// OS threads the broker owns.
    pub fn broker_threads(&self) -> usize {
        self.broker.thread_count()
    }

    /// Events published so far.
    pub fn published(&self) -> u64 {
        self.pub_side.next_id
    }

    /// Folds the transport's own loss counters into the tally and
    /// returns it. Call once, after the last phase.
    pub fn final_tally(&mut self) -> Tally {
        let b = self.broker.stats();
        let mut drops = b.dropped_frames + b.log_append_failures;
        let con = &self.con_side;
        let clients = std::iter::once(&con.probe)
            .chain(&con.others)
            .chain(con.churn.as_ref().map(|c| &c.conn));
        for c in clients {
            let s = c.stats();
            drops += s.dropped_frames + s.dropped_deliveries;
        }
        drops += self.pub_side.feed.stats().dropped_frames;
        drops += con.lagger.as_ref().map_or(0, |lag| lag.drops);
        self.con_side.tally.transport_drops = drops;
        self.con_side.tally
    }

    /// Stops clients, then the broker, and removes the log directory.
    pub fn shutdown(self) {
        let Deployment {
            pub_side,
            con_side,
            broker,
            log_dir,
            ..
        } = self;
        drop(pub_side);
        drop(con_side);
        broker.shutdown();
        if let Some(dir) = log_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// How the publisher thread offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Closed loop: publish `batch` events only while `in flight + batch
    /// <= window`. Measured for `measure` after `warm`.
    Closed {
        /// Events per `publish_batch` call.
        batch: u64,
        /// Cap on events in flight.
        window: u64,
        /// Unmeasured lead-in.
        warm: Duration,
        /// Measured window.
        measure: Duration,
    },
    /// Open loop at a fixed rate, one event per `publish_batch` call,
    /// each timed from the instant it was due.
    Paced {
        /// Events per second.
        rate: u64,
        /// Length of the phase.
        duration: Duration,
    },
}

struct Shared {
    t0: Instant,
    /// Ids below this may already have been handed to the feed.
    claimed: AtomicU64,
    /// Ids below this were decrypted and verified by the probe.
    acked: AtomicU64,
    /// Final number of events published, valid once `done` is set.
    published: AtomicU64,
    done: AtomicBool,
    /// Send time of id `i` at slot `i % RING`, in ns since `t0`.
    sent_ns: Vec<AtomicU64>,
}

/// What a phase measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseOut {
    /// Events fully verified inside the measured window.
    pub events: u64,
    /// Deliveries verified inside the measured window.
    pub deliveries: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Verified events per second, one value per [`SLICE`].
    pub slices: Vec<f64>,
    /// Process user+sys CPU inside the measured window, µs.
    pub cpu_us: f64,
    /// CPU of the publisher and consumer threads in that window, µs.
    pub generator_cpu_us: f64,
    /// Publish (closed loop) or due time (paced) → correct plaintext, µs.
    pub latency_us: Vec<f64>,
    /// How late the paced generator started each event, µs.
    pub lag_us: Vec<f64>,
    /// CPU of each thread inside the measured window, µs, in thread
    /// creation order: main, broker worker, acceptor, dispatcher, feed
    /// reactor, subscriber reactor, publisher, consumer.
    pub thread_cpu_us: Vec<f64>,
}

impl PubSide {
    fn publish(&mut self, gen: &Generator, ids: std::ops::Range<u64>, shared: &Shared) {
        let epoch = gen.spec().epoch_of(ids.start);
        if epoch != self.epoch {
            for topic in gen.topic_names() {
                self.ps
                    .authorize_publisher(&mut self.publisher, topic, epoch);
            }
            self.epoch = epoch;
        }
        shared.claimed.store(ids.end, Ordering::SeqCst);
        let now_ns = shared.t0.elapsed().as_nanos() as u64;
        self.batch.clear();
        for id in ids.clone() {
            shared.sent_ns[id as usize % RING].store(now_ns, Ordering::Relaxed);
            self.batch.push(gen.event(id));
        }
        let sealed = self
            .publisher
            .publish_batch(&self.batch, epoch, 1)
            .expect("generated events fit the schema");
        for s in sealed {
            self.feed.publish(s).expect("feed publish");
        }
        self.next_id = ids.end;
    }

    /// The publisher thread: returns its own CPU time inside the
    /// measured window and, when paced, each event's start lag.
    fn run(&mut self, gen: &Generator, load: Load, shared: &Shared) -> (f64, Vec<f64>) {
        let mut lag_us = Vec::new();
        let cpu_us;
        match load {
            Load::Closed {
                batch,
                window,
                warm,
                measure,
            } => {
                let measure_from = shared.t0 + warm;
                let end = measure_from + measure;
                let mut cpu_start = None;
                loop {
                    let now = Instant::now();
                    if now >= end {
                        break;
                    }
                    if cpu_start.is_none() && now >= measure_from {
                        cpu_start = Some(procfs::thread_cpu_us());
                    }
                    let in_flight = self.next_id - shared.acked.load(Ordering::SeqCst);
                    if in_flight + batch > window {
                        // The consumer unparks this thread as acks land.
                        std::thread::park_timeout(Duration::from_micros(200));
                        continue;
                    }
                    let mut stop = self.next_id + batch;
                    if let Some(c) = gen.spec().churn {
                        // A batch is sealed under one epoch.
                        stop = stop.min((self.next_id / c.epoch_every + 1) * c.epoch_every);
                    }
                    self.publish(gen, self.next_id..stop, shared);
                }
                cpu_us = procfs::thread_cpu_us() - cpu_start.unwrap_or_else(procfs::thread_cpu_us);
            }
            Load::Paced { rate, duration } => {
                let cpu_start = procfs::thread_cpu_us();
                let period_ns = 1_000_000_000 / rate.max(1);
                let total = duration.as_nanos() as u64 / period_ns;
                for k in 0..total {
                    let due = shared.t0 + Duration::from_nanos(k * period_ns);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    lag_us.push(due.elapsed().as_secs_f64() * 1e6);
                    self.publish(gen, self.next_id..self.next_id + 1, shared);
                }
                cpu_us = procfs::thread_cpu_us() - cpu_start;
            }
        }
        shared.published.store(self.next_id, Ordering::SeqCst);
        shared.done.store(true, Ordering::SeqCst);
        (cpu_us, lag_us)
    }
}

/// Decrypts `sealed` with `holder` and compares the plaintext with the
/// generated payload of event `id`.
fn decrypts_to_generated(
    holder: &mut Subscriber,
    sealed: &SecureEvent,
    id: u64,
    gen: &Generator,
    expected: &mut Vec<u8>,
) -> bool {
    gen.payload_into(id, expected);
    holder
        .decrypt(sealed)
        .is_ok_and(|plain| plain.payload() == expected.as_slice())
}

impl ChurnSide {
    /// One join and one leave, sent right after probe event `seen`.
    fn step(&mut self, ps: &PsGuard, gen: &Generator, epoch: u64, seen: u64) {
        let desc = gen.churn_sub(self.next_join);
        self.next_join += 1;
        let (holder, filter) = authorize(ps, gen, &desc, epoch, &mut self.grant_ops);
        self.conn
            .subscribe(filter.clone())
            .expect("churn subscribe");
        self.oracle.join(desc, Some(seen));
        self.live.push_back(LiveChurn {
            filter,
            _holder: holder,
        });
        if let Some(old) = self.live.pop_front() {
            self.conn
                .unsubscribe(&old.filter)
                .expect("churn unsubscribe");
            self.oracle.leave_oldest(seen);
        }
    }

    fn barrier(&mut self, ps: &PsGuard, gen: &Generator, shared: &Shared) {
        self.barriers += 1;
        barrier(&self.conn, ps, gen, self.barriers);
        // Read after the ack: ids from here on were published later.
        self.oracle.barrier(shared.claimed.load(Ordering::SeqCst));
    }
}

impl ConSide {
    /// Epoch rollover on the subscriber side: one holder per topic is
    /// revoked and replaced, the rest are re-granted, and the group
    /// baseline settles the leaves and joins as one batched flush.
    fn rollover(&mut self, gen: &Generator, epoch: u64) {
        let Some(ch) = self.churn.as_mut() else {
            return;
        };
        let start = Instant::now();
        let slots = ch.shape.holders_per_topic;
        let range = IntRange::new(0, VALUE_RANGE - 1).expect("0 < VALUE_RANGE");
        for (t, holders) in self.holders.iter_mut().enumerate() {
            let out = epoch as usize % slots;
            for (slot, holder) in holders.iter_mut().enumerate() {
                let fresh = full_range_holder(&self.ps, gen, t as u32, epoch);
                let old = std::mem::replace(holder, fresh);
                if slot == out {
                    ch.revoked[t] = Some(old);
                    ch.coordinator.queue_leave(ch.members[t][slot]);
                    ch.coordinator.queue_join(ch.next_member, range);
                    ch.members[t][slot] = ch.next_member;
                    ch.next_member += 1;
                    ch.rekey_leaves += 1;
                }
            }
        }
        let mut ops = OpCounter::new();
        let (_, report) =
            ch.coordinator
                .flush_now(self.ps.kdc(), epoch * ch.shape.epoch_every, &mut ops);
        ch.rekey_messages += report.total_messages();
        ch.rollovers += 1;
        ch.rollover_ns += start.elapsed().as_nanos() as u64;
        self.epoch = epoch;
    }

    fn on_probe(
        &mut self,
        sealed: &SecureEvent,
        gen: &Generator,
        cov: &Coverage,
        shared: &Shared,
        due: Option<&dyn Fn(u64) -> Instant>,
        latency_us: &mut Vec<f64>,
    ) {
        let id = sealed.event.id().0;
        let verdict = self.probe_check.deliver(0, id, gen, cov);
        self.tally.judge(verdict);
        if verdict.verified == 0 {
            return;
        }
        if sealed.epoch > self.epoch {
            self.rollover(gen, sealed.epoch);
        }
        let (topic, _) = gen.event_attrs(id);
        let slots = &mut self.holders[topic as usize];
        let slot = id as usize % slots.len();
        let ok = decrypts_to_generated(&mut slots[slot], sealed, id, gen, &mut self.expected);
        let done = Instant::now();
        self.tally.attempted += 1;
        self.tally.bad_decrypt += u64::from(!ok);
        self.deliveries += 1;

        let since = match due {
            Some(due) => done.saturating_duration_since(due(id)),
            None => {
                let sent = shared.sent_ns[id as usize % RING].load(Ordering::Relaxed);
                done.saturating_duration_since(shared.t0 + Duration::from_nanos(sent))
            }
        };
        if due.is_some() && since > LATE {
            self.tally.late += 1;
        }
        latency_us.push(since.as_secs_f64() * 1e6);
        shared.acked.store(id + 1, Ordering::SeqCst);

        if let Some(ch) = self.churn.as_mut() {
            if let Some(revoked) = ch.revoked[topic as usize].as_mut() {
                self.tally.attempted += 1;
                self.tally.revoked_decrypted += u64::from(revoked.decrypt(sealed).is_ok());
            }
            if id.is_multiple_of(ch.shape.op_every) {
                ch.step(&self.ps, gen, self.epoch, id);
            }
            if id % ch.shape.barrier_every == ch.shape.barrier_every - 1 {
                ch.barrier(&self.ps, gen, shared);
            }
        }
        if let Some(lag) = self.lagger.as_mut() {
            if id % lag.gap == lag.gap - 1 && lag.active.is_none() {
                lag.start(&self.reactor, self.addr);
            }
        }
    }

    fn on_other(&mut self, i: usize, sealed: &SecureEvent, gen: &Generator, cov: &Coverage) {
        let id = sealed.event.id().0;
        let verdict = self.other_checks[i].deliver(1 + i, id, gen, cov);
        self.tally.judge(verdict);
        self.deliveries += verdict.verified;
        self.other_seen[i] += 1;
        if self.other_seen[i].is_multiple_of(DECRYPT_EVERY) && sealed.epoch == self.epoch {
            let (topic, _) = gen.event_attrs(id);
            let holder = &mut self.holders[topic as usize][0];
            let ok = decrypts_to_generated(holder, sealed, id, gen, &mut self.expected);
            self.tally.attempted += 1;
            self.tally.bad_decrypt += u64::from(!ok);
        }
    }

    /// Drains whatever the subscriber connections hold; returns whether
    /// anything arrived.
    fn drain(
        &mut self,
        gen: &Generator,
        cov: &Coverage,
        shared: &Shared,
        due: Option<&dyn Fn(u64) -> Instant>,
        latency_us: &mut Vec<f64>,
    ) -> bool {
        // The one blocking wait of the loop; everything else polls.
        let mut next = self.probe.recv_timeout(Duration::from_millis(1));
        let mut progressed = next.is_some();
        let mut burst = 0;
        while let Some(sealed) = next {
            self.on_probe(&sealed, gen, cov, shared, due, latency_us);
            burst += 1;
            next = (burst < BATCH)
                .then(|| self.probe.recv_timeout(Duration::ZERO))
                .flatten();
        }
        for i in 0..self.others.len() {
            while let Some(sealed) = self.others[i].recv_timeout(Duration::ZERO) {
                self.on_other(i, &sealed, gen, cov);
                progressed = true;
            }
        }
        if let Some(ch) = self.churn.as_mut() {
            while let Some(sealed) = ch.conn.recv_timeout(Duration::ZERO) {
                let verdict = ch.oracle.deliver(sealed.event.id().0, gen);
                self.tally.judge(verdict);
                self.deliveries += verdict.verified;
                progressed = true;
            }
        }
        if let Some(lag) = self.lagger.as_mut() {
            let holders = &mut self.holders;
            progressed |= lag.poll(&self.ps, gen, holders, &mut self.tally, &mut self.expected);
        }
        progressed
    }

    /// Events every always-on connection has resolved.
    fn completed(&self) -> u64 {
        self.other_checks
            .iter()
            .map(InOrder::resolved)
            .fold(self.probe_check.resolved(), u64::min)
    }

    /// Whether a delivery the oracle requires is still outstanding.
    fn outstanding(&mut self, published: u64, gen: &Generator, cov: &Coverage) -> bool {
        if self.probe_check.resolved() < published {
            return true;
        }
        if (0..self.others.len()).any(|i| self.other_checks[i].pending(1 + i, published, gen, cov))
        {
            return true;
        }
        if self
            .churn
            .as_ref()
            .is_some_and(|ch| ch.oracle.pending(published, gen))
        {
            return true;
        }
        if let Some(lag) = self.lagger.as_mut() {
            if lag.next_id < published || lag.active.is_some() {
                if lag.active.is_none() {
                    lag.start(&self.reactor, self.addr);
                }
                return true;
            }
        }
        false
    }

    /// Closes every stream at `published`: what is still unresolved is
    /// missing.
    fn finish(&mut self, published: u64, gen: &Generator, cov: &Coverage) {
        let v = self.probe_check.finish(0, published, gen, cov);
        self.tally.judge(v);
        for i in 0..self.others.len() {
            let v = self.other_checks[i].finish(1 + i, published, gen, cov);
            self.tally.judge(v);
        }
        if let Some(ch) = self.churn.as_mut() {
            let v = ch.oracle.finish(published, gen);
            self.tally.judge(v);
        }
        if let Some(lag) = self.lagger.as_mut() {
            let missing = published.saturating_sub(lag.next_id + lag.ahead.len() as u64);
            if missing > 0 {
                eprintln!(
                    "lagger at finish: published {published} next {} ahead {:?} active {}",
                    lag.next_id,
                    lag.ahead,
                    lag.active.is_some()
                );
            }
            self.tally.judge(Verdict {
                missing,
                ..Verdict::default()
            });
            lag.next_id = lag.next_id.max(published);
            lag.ahead.clear();
            lag.active = None;
        }
    }

    /// The consumer thread.
    fn run(
        &mut self,
        gen: &Generator,
        cov: &Coverage,
        load: Load,
        shared: &Shared,
        publisher: &Thread,
    ) -> PhaseOut {
        let first_id = self.probe_check.resolved();
        let (measure_from, measure_for, paced) = match load {
            Load::Closed { warm, measure, .. } => (shared.t0 + warm, measure, None),
            Load::Paced { rate, duration } => (shared.t0, duration, Some(rate)),
        };
        let period_ns = paced.map(|rate| 1_000_000_000 / rate.max(1));
        let t0 = shared.t0;
        let due_of = period_ns
            .map(|p| move |id: u64| t0 + Duration::from_nanos(id.saturating_sub(first_id) * p));
        let due: Option<&dyn Fn(u64) -> Instant> =
            due_of.as_ref().map(|f| f as &dyn Fn(u64) -> Instant);

        // The measured window is cut into whole slices; mark k is taken
        // at the first loop pass at or after `measure_from + k * width`.
        let width = SLICE.min(measure_for).max(Duration::from_millis(1));
        let n_slices = (measure_for.as_nanos() / width.as_nanos()).max(1) as usize;
        let mut out = PhaseOut::default();
        let mut marks: Vec<(u64, u64, Instant)> = Vec::with_capacity(n_slices + 1);
        let mut cpu = (0.0, 0.0, 0.0, 0.0);
        let mut tasks = Vec::new();
        let mut drain_deadline = None;
        loop {
            if self.drain(gen, cov, shared, due, &mut out.latency_us) {
                publisher.unpark();
            }
            let now = Instant::now();
            let finished = shared.done.load(Ordering::SeqCst) && {
                let published = shared.published.load(Ordering::SeqCst);
                let deadline = *drain_deadline.get_or_insert(now + DRAIN_GRACE);
                !self.outstanding(published, gen, cov) || now >= deadline
            };
            // A publisher that stops exactly on the last boundary can be
            // seen as done before the clock read above passes it.
            while marks.len() <= n_slices
                && (finished || now >= measure_from + width * marks.len() as u32)
            {
                if marks.is_empty() {
                    tasks = procfs::task_cpu_us();
                    cpu.0 = procfs::process_cpu_us();
                    cpu.2 = procfs::thread_cpu_us();
                    if paced.is_none() {
                        // Latencies before the measured window are warm-up.
                        out.latency_us.clear();
                    }
                }
                marks.push((self.completed(), self.deliveries, now));
                if marks.len() == n_slices + 1 {
                    cpu.1 = procfs::process_cpu_us();
                    cpu.3 = procfs::thread_cpu_us();
                    out.thread_cpu_us = procfs::task_cpu_us()
                        .iter()
                        .map(|(tid, us)| {
                            let before = tasks.iter().find(|t| t.0 == *tid).map_or(0.0, |t| t.1);
                            us - before
                        })
                        .collect();
                }
            }
            if finished {
                self.finish(shared.published.load(Ordering::SeqCst), gen, cov);
                break;
            }
        }
        // Rates over the time that really passed between two marks: a
        // mark is taken up to one loop pass after its boundary.
        let (first, last) = (marks[0], marks[n_slices]);
        out.events = last.0 - first.0;
        out.deliveries = last.1 - first.1;
        out.seconds = (last.2 - first.2).as_secs_f64().max(1e-9);
        out.slices = marks
            .windows(2)
            .map(|w| (w[1].0 - w[0].0) as f64 / (w[1].2 - w[0].2).as_secs_f64().max(1e-9))
            .collect();
        out.cpu_us = cpu.1 - cpu.0;
        out.generator_cpu_us = cpu.3 - cpu.2;
        out
    }
}

impl Lagger {
    /// Reconnects with the cursor of the last verified replay and asks
    /// the broker for the gap.
    fn start(&mut self, reactor: &ClientReactor<SecureFilter>, addr: SocketAddr) {
        // The log stamps the feed's events 1, 2, 3, ... in publish
        // order, so the last verified id + 1 is the cursor to resume at.
        let cursor = Cursor {
            epoch: self.log_epoch,
            seq: self.next_id,
        };
        let conn = reactor
            .connect_resuming(addr, Some(cursor))
            .expect("connect lagger");
        let (last, rest) = self.filters.split_last().expect("at least one topic");
        for f in rest {
            conn.subscribe(f.clone()).expect("lagger subscribe");
        }
        conn.subscribe_acked(last.clone(), ACK_TIMEOUT)
            .expect("lagger subscribe ack");
        conn.catch_up().expect("lagger catch-up");
        self.active = Some(conn);
        self.cycles += 1;
    }

    /// Exactly-once check of one delivery. Live events published between
    /// the subscribe and the catch-up request arrive ahead of the
    /// replayed gap, so ids above `next_id` are parked in `ahead`.
    fn check(&mut self, id: u64) -> Verdict {
        let mut v = Verdict::default();
        if id < self.next_id || !self.ahead.insert(id) {
            v.duplicate = 1;
            return v;
        }
        v.verified = 1;
        while self.ahead.remove(&self.next_id) {
            self.next_id += 1;
        }
        v
    }

    fn drain(
        &mut self,
        conn: &ReactorClient<SecureFilter>,
        gen: &Generator,
        holders: &mut [Vec<Subscriber>],
        tally: &mut Tally,
        expected: &mut Vec<u8>,
    ) -> bool {
        let mut progressed = false;
        while let Some(sealed) = conn.recv_timeout(Duration::ZERO) {
            progressed = true;
            let id = sealed.event.id().0;
            let verdict = self.check(id);
            tally.judge(verdict);
            self.seen += 1;
            if self.seen.is_multiple_of(DECRYPT_EVERY) {
                let (topic, _) = gen.event_attrs(id);
                let holder = &mut holders[topic as usize][0];
                let ok = decrypts_to_generated(holder, &sealed, id, gen, expected);
                tally.attempted += 1;
                tally.bad_decrypt += u64::from(!ok);
            }
        }
        progressed
    }

    /// Checks whatever the replaying connection delivered; ends the
    /// cycle once the broker reports the replay complete.
    fn poll(
        &mut self,
        ps: &PsGuard,
        gen: &Generator,
        holders: &mut [Vec<Subscriber>],
        tally: &mut Tally,
        expected: &mut Vec<u8>,
    ) -> bool {
        let Some(conn) = self.active.take() else {
            return false;
        };
        // The outcome is queued behind the last replayed event: when it
        // is already here, the drain below empties the replay.
        let outcome = conn.recv_resume(Duration::ZERO);
        let progressed = self.drain(&conn, gen, holders, tally, expected);
        let Some(outcome) = outcome else {
            self.active = Some(conn);
            return progressed;
        };
        tally.attempted += 1;
        tally.bad_resume += u64::from(outcome != ResumeOutcome::ContinuedAtCursor);
        // The replay closed the gap up to the live stream, so nothing may
        // be left parked.
        if let Some(&highest) = self.ahead.last() {
            eprintln!(
                "lagger cycle {}: the replay left a gap: next {} parked {:?}",
                self.cycles, self.next_id, self.ahead
            );
            tally.judge(Verdict {
                missing: highest + 1 - self.next_id - self.ahead.len() as u64,
                ..Verdict::default()
            });
            self.next_id = highest + 1;
            self.ahead.clear();
        }
        // Leave cleanly: unsubscribe and wait until the broker has queued
        // its last frame for this connection. A frame still in flight to
        // a closed socket would count as dropped. What arrives while the
        // filters go one by one is partial and is not judged; the next
        // cycle replays it.
        for f in &self.filters {
            conn.unsubscribe(f).expect("lagger unsubscribe");
        }
        barrier(&conn, ps, gen, self.cycles as i64);
        let stats = conn.stats();
        self.drops += stats.dropped_frames + stats.dropped_deliveries;
        true
    }
}

/// Runs one phase on `dep` and returns what it measured. The event id
/// stream continues where the previous phase stopped.
pub fn run_phase(dep: &mut Deployment, gen: &Generator, cov: &Coverage, load: Load) -> PhaseOut {
    let first = dep.pub_side.next_id;
    let shared = Shared {
        t0: Instant::now(),
        claimed: AtomicU64::new(first),
        acked: AtomicU64::new(first),
        published: AtomicU64::new(first),
        done: AtomicBool::new(false),
        sent_ns: (0..RING).map(|_| AtomicU64::new(0)).collect(),
    };
    let Deployment {
        pub_side, con_side, ..
    } = dep;
    let (mut out, (pub_cpu_us, lag_us)) = std::thread::scope(|s| {
        let shared = &shared;
        let publisher = s.spawn(move || pub_side.run(gen, load, shared));
        let handle = publisher.thread().clone();
        let consumer = s.spawn(move || con_side.run(gen, cov, load, shared, &handle));
        let out = consumer.join().expect("consumer thread");
        (out, publisher.join().expect("publisher thread"))
    });
    out.generator_cpu_us += pub_cpu_us;
    out.lag_us = lag_us;
    out
}

/// Layer counters a deployment accumulated, for the per-layer report.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveCounters {
    /// Grants issued to churned subscriptions while events flowed.
    pub churn_grant_ops: OpCounter,
    /// Epoch rollovers the consumer performed.
    pub rollovers: u64,
    /// Wall time of those rollovers, ns.
    pub rollover_ns: u64,
    /// Holders revoked (group leaves flushed).
    pub rekey_leaves: u64,
    /// Group rekey messages those flushes cost.
    pub rekey_messages: u64,
    /// Replay cycles of the lagging subscriber.
    pub replay_cycles: u64,
    /// Deliveries the client-side dedup window suppressed.
    pub duplicates_suppressed: u64,
}

impl Deployment {
    /// Snapshot of the layer counters.
    pub fn counters(&self) -> LiveCounters {
        let mut c = LiveCounters::default();
        if let Some(ch) = &self.con_side.churn {
            c.churn_grant_ops = ch.grant_ops;
            c.rollovers = ch.rollovers;
            c.rollover_ns = ch.rollover_ns;
            c.rekey_leaves = ch.rekey_leaves;
            c.rekey_messages = ch.rekey_messages;
        }
        if let Some(lag) = &self.con_side.lagger {
            c.replay_cycles = lag.cycles;
        }
        c.duplicates_suppressed = self.con_side.probe.stats().duplicates_suppressed;
        c
    }
}
