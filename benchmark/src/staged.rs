//! The traced run: a workload's own generated events replayed
//! single-threaded through the layers' public functions, in path order,
//! with one in-memory span per call.
//!
//! Spans inside the crates are a later issue; here every span is
//! recorded from this file, around the call into the layer. The spans
//! sit on a *staged clock* that advances only while a layer call runs,
//! so harness work between calls (building the plaintext event, the
//! mirror-index query described below) never shows up as path time.
//!
//! `Broker::publish` runs the index match inside itself, where no
//! outside span can reach. The replay therefore keeps a mirror
//! `MatchIndex` holding the same registrations, times the same query on
//! it, and records that as the `siena.index.match` child of
//! `siena.broker.publish`; the broker's self time is the remainder.

use std::io::{IoSlice, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use psguard::{Publisher, Subscriber};
use psguard_keys::OpCounter;
use psguard_model::Event;
use psguard_routing::{SecureEvent, SecureFilter};
use psguard_siena::wire::{read_frame_into, Wire};
use psguard_siena::{
    write_frames, Action, Broker, EntryId, EventLog, FramePool, LogConfig, MatchIndex, MatchStats,
    Message, Peer,
};

use crate::alloc::{thread_allocs, thread_net_bytes};
use crate::live::{authorize, deployment, full_range_holder};
use crate::workload::Generator;

type Msg = Message<SecureFilter, SecureEvent>;

/// Events one traced replay covers.
pub const EVENTS: u64 = 4_096;

/// Span names, in path order.
pub const LAYERS: [&str; 9] = [
    "psguard.publish",
    "siena.frame.encode",
    "siena.frame.write",
    "siena.frame.read",
    "siena.wire.decode",
    "siena.log.append",
    "siena.broker.publish",
    "siena.index.match",
    "psguard.decrypt",
];

const ROOT: &str = "event";
const NO_PARENT: u32 = u32::MAX;

/// One call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer (or `event` for the root).
    pub name: &'static str,
    /// Start on the staged clock, ns.
    pub start_ns: u64,
    /// End on the staged clock, ns.
    pub end_ns: u64,
    /// Index of the span that caused this one; `u32::MAX` for roots.
    pub parent: u32,
    /// Id of the event the call served: the identifier every span of
    /// one request shares.
    pub event: u64,
    /// Heap allocations the call made.
    pub allocs: u32,
}

/// The record of a traced replay: spans on the staged clock, boundary
/// counts, and the wall time of the replay loop.
pub struct Trace {
    on: bool,
    spans: Vec<Span>,
    clock_ns: u64,
    root: u32,
    event: u64,
    counts: StagedCounts,
    wall_s: f64,
}

impl Trace {
    /// An empty record; `spans` off runs the same calls untraced.
    pub fn new(spans: bool) -> Trace {
        Trace {
            on: spans,
            spans: Vec::new(),
            clock_ns: 0,
            root: NO_PARENT,
            event: 0,
            counts: StagedCounts::default(),
            wall_s: 0.0,
        }
    }

    /// Wall time of the replay loops, the spans, the counts.
    pub fn finish(mut self) -> (f64, Vec<Span>, StagedCounts) {
        self.counts.layers = layer_costs(&self.spans);
        (self.wall_s, self.spans, self.counts)
    }

    fn begin_event(&mut self, event: u64) {
        self.event = event;
        if self.on {
            self.root = self.spans.len() as u32;
            self.spans.push(Span {
                name: ROOT,
                start_ns: self.clock_ns,
                end_ns: self.clock_ns,
                parent: NO_PARENT,
                event,
                allocs: 0,
            });
        }
    }

    fn end_event(&mut self) {
        if self.on {
            self.spans[self.root as usize].end_ns = self.clock_ns;
        }
    }

    /// Runs one layer call under a span named `name`.
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let allocs = thread_allocs();
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: self.clock_ns,
            end_ns: self.clock_ns + ns,
            parent: self.root,
            event: self.event,
            allocs: (thread_allocs() - allocs) as u32,
        });
        self.clock_ns += ns;
        out
    }

    /// Records `child_ns` of the span just closed as a child span: the
    /// same work, timed on the mirror.
    fn child_of_last(&mut self, name: &'static str, child_ns: u64, allocs: u32) {
        if !self.on {
            return;
        }
        let parent = self.spans.len() as u32 - 1;
        let p = self.spans[parent as usize];
        self.spans.push(Span {
            name,
            start_ns: p.start_ns,
            end_ns: p.start_ns + child_ns.min(p.end_ns - p.start_ns),
            parent,
            event: self.event,
            allocs,
        });
    }
}

/// A `Write` that counts calls and bytes on their way to the socket.
struct CountingWriter {
    inner: TcpStream,
    writes: u64,
    bytes: u64,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.writes += 1;
        self.bytes += n as u64;
        Ok(n)
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        let n = self.inner.write_vectored(bufs)?;
        self.writes += 1;
        self.bytes += n as u64;
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A connected loopback socket pair: what is written to `.0` is read
/// from `.1`.
pub fn loopback_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let tx = TcpStream::connect(addr).expect("connect loopback");
    let (rx, _) = listener.accept().expect("accept loopback");
    tx.set_nodelay(true).ok();
    rx.set_nodelay(true).ok();
    (tx, rx)
}

/// Self time, calls and counts of one layer over a traced replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCost {
    /// Spans recorded.
    pub calls: u64,
    /// Span time minus the part child spans cover, ns.
    pub self_ns: u64,
    /// Heap allocations inside the spans.
    pub allocs: u64,
}

/// What a traced replay counted, at the span boundaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StagedCounts {
    /// Events replayed.
    pub events: u64,
    /// Frames that crossed the loopback socket: one feed hop per event
    /// plus one hop per recipient.
    pub frames: u64,
    /// Recipients across all events.
    pub deliveries: u64,
    /// `write`/`write_vectored` calls those frames took.
    pub writes: u64,
    /// Bytes written to the socket.
    pub socket_bytes: u64,
    /// Wire bytes of the frames the broker encoded (one per event).
    pub delivered_frame_bytes: u64,
    /// Broker-side match counters, summed.
    pub match_stats: MatchStats,
    /// Entries the mirror index matched, summed.
    pub matched_entries: u64,
    /// Key-derivation operations of the publisher.
    pub publish_ops: OpCounter,
    /// Key-derivation operations of the key holders.
    pub decrypt_ops: OpCounter,
    /// Bytes the log wrote for the appended events.
    pub log_bytes: u64,
    /// Self time and counts per layer name (see [`LAYERS`]).
    pub layers: Vec<(&'static str, LayerCost)>,
}

impl StagedCounts {
    /// The cost of layer `name` (zero when it never ran).
    pub fn layer(&self, name: &str) -> LayerCost {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(LayerCost::default, |(_, c)| *c)
    }

    /// Σ self time of every staged layer, ns.
    pub fn total_self_ns(&self) -> u64 {
        self.layers.iter().map(|(_, c)| c.self_ns).sum()
    }
}

/// A staged replica of one workload's broker-side state and clients.
pub struct Stage<'g> {
    gen: &'g Generator,
    publisher: Publisher,
    holders: Vec<Subscriber>,
    broker: Broker<SecureFilter>,
    mirror: MatchIndex<SecureFilter>,
    /// The newest registrations, for the insert/remove measurements.
    recent: Vec<(EntryId, Peer, SecureFilter)>,
    feed_pool: FramePool,
    broker_pool: FramePool,
    tx: CountingWriter,
    rx: TcpStream,
    log: Option<EventLog>,
    log_dir: Option<PathBuf>,
    /// Live bytes the mirror index took per registration.
    pub index_bytes_per_subscription: f64,
    /// Registrations the broker holds (identical ones collapse).
    pub entries: usize,
}

const FEED: Peer = Peer::Child(u32::MAX);
const PROBE: Peer = Peer::Child(1);
const RECENT: usize = 1_024;

impl<'g> Stage<'g> {
    /// Builds the replica: grants, registrations (in the live path's
    /// order: probe, background, wide, churned), socket pair, log.
    pub fn new(gen: &'g Generator, scratch: &Path) -> Stage<'g> {
        let spec = gen.spec();
        let ps = deployment();
        let mut publisher = ps.publisher("feed");
        for topic in gen.topic_names() {
            ps.authorize_publisher(&mut publisher, topic, 0);
        }
        let holders: Vec<Subscriber> = (0..spec.topics as u32)
            .map(|t| full_range_holder(&ps, gen, t, 0))
            .collect();
        let full_range: Vec<SecureFilter> = holders
            .iter()
            .flat_map(Subscriber::secure_filters)
            .collect();

        let mut regs: Vec<(Peer, SecureFilter)> = Vec::new();
        regs.extend(full_range.iter().map(|f| (PROBE, f.clone())));
        let mut ops = OpCounter::new();
        for k in 0..spec.bg_subs {
            let sub = gen.bg_sub(k);
            let (_, filter) = authorize(&ps, gen, &sub, 0, &mut ops);
            regs.push((Peer::Child(2 + sub.conn as u32), filter));
        }
        let first_wide = 2 + spec.bg_conns as u32;
        for c in 0..spec.wide_conns as u32 {
            regs.extend(
                full_range
                    .iter()
                    .map(|f| (Peer::Child(first_wide + c), f.clone())),
            );
        }
        if let Some(churn) = spec.churn {
            let peer = Peer::Child(first_wide + spec.wide_conns as u32);
            for j in 0..churn.window as u64 {
                let (_, filter) = authorize(&ps, gen, &gen.churn_sub(j), 0, &mut ops);
                regs.push((peer, filter));
            }
        }

        let mut broker: Broker<SecureFilter> = Broker::new(true);
        let mut kept = Vec::with_capacity(regs.len());
        for (peer, filter) in regs {
            let before = broker.table().len();
            broker.subscribe(peer, filter.clone());
            // Identical (peer, filter) pairs are one registration.
            if broker.table().len() > before {
                kept.push((peer, filter));
            }
        }
        let entries = kept.len();
        let bytes_before = thread_net_bytes();
        let mut mirror: MatchIndex<SecureFilter> = MatchIndex::new();
        let mut recent = Vec::new();
        for (i, (peer, filter)) in kept.into_iter().enumerate() {
            let id = mirror.insert(peer, filter.clone());
            if i + RECENT >= entries {
                recent.push((id, peer, filter));
            }
        }
        let index_bytes = (thread_net_bytes() - bytes_before).max(0) as f64;

        let (tx, rx) = loopback_pair();
        let log_dir = spec.durable.map(|_| {
            static DIRS: AtomicU64 = AtomicU64::new(0);
            let n = DIRS.fetch_add(1, Ordering::Relaxed);
            scratch.join(format!("staged-log-{}-{n}", std::process::id()))
        });
        let log = log_dir.as_ref().map(|dir| {
            let _ = std::fs::remove_dir_all(dir);
            EventLog::open(LogConfig::new(dir))
                .expect("open staged log")
                .0
        });
        Stage {
            gen,
            publisher,
            holders,
            broker,
            mirror,
            recent,
            feed_pool: FramePool::new(),
            broker_pool: FramePool::new(),
            tx: CountingWriter {
                inner: tx,
                writes: 0,
                bytes: 0,
            },
            rx,
            log,
            log_dir,
            index_bytes_per_subscription: index_bytes / entries.max(1) as f64,
            entries,
        }
    }

    /// Sends one frame over the loopback pair and decodes it on the
    /// other side: one socket hop.
    fn hop(
        t: &mut Trace,
        tx: &mut CountingWriter,
        rx: &mut TcpStream,
        buf: &mut Vec<u8>,
        frame: &psguard_siena::SharedFrame,
    ) -> Msg {
        t.call("siena.frame.write", || {
            write_frames(tx, std::slice::from_ref(frame)).expect("loopback write")
        });
        t.call("siena.frame.read", || {
            read_frame_into(rx, buf).expect("loopback read")
        });
        t.call("siena.wire.decode", || {
            Msg::from_bytes(buf).expect("decode own frame")
        })
    }

    /// Replays events `ids` through the path, adding to `t`.
    pub fn replay(&mut self, ids: std::ops::Range<u64>, t: &mut Trace) {
        let mut c = std::mem::take(&mut t.counts);
        c.events += ids.end - ids.start;
        let Stage {
            gen,
            publisher,
            holders,
            broker,
            mirror,
            feed_pool,
            broker_pool,
            tx,
            rx,
            log,
            ..
        } = self;
        let (writes0, bytes0) = (tx.writes, tx.bytes);
        let log_bytes0 = log.as_ref().map_or(0, |l| l.stats().bytes_appended);
        let publish_ops0 = publisher.ops();
        let decrypt_ops0 = holders
            .iter()
            .fold(OpCounter::new(), |acc, h| acc + h.ops());
        let mut buf = Vec::new();
        let mut log_buf = Vec::new();
        let mut matched = Vec::new();
        let mut batch: Vec<Event> = Vec::with_capacity(1);

        let wall = Instant::now();
        for id in ids {
            batch.clear();
            batch.push(gen.event(id));
            let (topic, _) = gen.event_attrs(id);
            t.begin_event(id);

            // Publisher and feed connection.
            let sealed = t
                .call("psguard.publish", || publisher.publish_batch(&batch, 0, 1))
                .expect("generated events fit the schema")
                .pop()
                .expect("one event in, one out");
            let frame = t.call("siena.frame.encode", || {
                feed_pool.encode(&Msg::Publish(sealed))
            });
            let Msg::Publish(event) = Self::hop(t, tx, rx, &mut buf, &frame) else {
                unreachable!("a Publish frame decodes as Publish");
            };
            c.frames += 1;

            // Broker: log, match, fan out.
            let cursor = log.as_mut().map(|log| {
                t.call("siena.log.append", || {
                    log_buf.clear();
                    event.encode(&mut log_buf);
                    log.append(&log_buf).expect("staged append")
                })
            });
            let (mirror_ns, mirror_allocs) = {
                let allocs = thread_allocs();
                let start = Instant::now();
                mirror.query_matches_into(&event, &mut matched);
                (
                    start.elapsed().as_nanos() as u64,
                    (thread_allocs() - allocs) as u32,
                )
            };
            c.matched_entries += matched.len() as u64;
            let actions = t.call("siena.broker.publish", || broker.publish(FEED, event));
            t.child_of_last("siena.index.match", mirror_ns, mirror_allocs);
            c.match_stats.accumulate(broker.table().last_match_stats());

            let mut out_frame = None;
            for action in actions {
                let Action::Deliver(peer, event) = action else {
                    continue;
                };
                let frame = out_frame.get_or_insert_with(|| {
                    // Encode once; every recipient shares the frame.
                    let msg = match cursor {
                        Some(cursor) => Msg::Stamped { cursor, event },
                        None => Msg::Publish(event),
                    };
                    let frame = t.call("siena.frame.encode", || broker_pool.encode(&msg));
                    c.delivered_frame_bytes += frame.wire_bytes().len() as u64;
                    frame
                });
                let received = Self::hop(t, tx, rx, &mut buf, frame);
                c.frames += 1;
                c.deliveries += 1;
                if peer == PROBE {
                    let (Msg::Publish(sealed) | Msg::Stamped { event: sealed, .. }) = received
                    else {
                        unreachable!("a delivery decodes as Publish or Stamped");
                    };
                    let plain = t
                        .call("psguard.decrypt", || {
                            holders[topic as usize].decrypt(&sealed)
                        })
                        .expect("the probe holder decrypts every event");
                    assert_eq!(plain.payload(), batch[0].payload(), "event {id}");
                }
            }
            t.end_event();
        }
        t.wall_s += wall.elapsed().as_secs_f64();

        c.writes += tx.writes - writes0;
        c.socket_bytes += tx.bytes - bytes0;
        c.log_bytes += log.as_ref().map_or(0, |l| l.stats().bytes_appended) - log_bytes0;
        let publish_ops = publisher.ops();
        c.publish_ops.hash_ops += publish_ops.hash_ops - publish_ops0.hash_ops;
        c.publish_ops.kh_ops += publish_ops.kh_ops - publish_ops0.kh_ops;
        let decrypt_ops = holders
            .iter()
            .fold(OpCounter::new(), |acc, h| acc + h.ops());
        c.decrypt_ops.hash_ops += decrypt_ops.hash_ops - decrypt_ops0.hash_ops;
        c.decrypt_ops.kh_ops += decrypt_ops.kh_ops - decrypt_ops0.kh_ops;
        t.counts = c;
    }

    /// Key-cache statistics of the publisher and the key holders: hits
    /// (exact or from a cached ancestor) per lookup.
    pub fn cache_hit_ratio(&self) -> f64 {
        let mut hits = 0u64;
        let mut lookups = 0u64;
        let stats = std::iter::once(self.publisher.cache_stats())
            .chain(self.holders.iter().map(Subscriber::cache_stats));
        for s in stats {
            hits += s.hits + s.partial_hits;
            lookups += s.hits + s.partial_hits + s.misses;
        }
        hits as f64 / lookups.max(1) as f64
    }

    /// Pool reuse on the broker's encode path: checkouts served from
    /// the free list per checkout.
    pub fn pool_reuse_ratio(&self) -> f64 {
        let s = self.broker_pool.stats();
        s.reused_buffers as f64 / (s.reused_buffers + s.fresh_buffers).max(1) as f64
    }

    /// Removes and re-inserts the newest registrations: `MatchIndex`
    /// alone on the mirror, then `Broker::unsubscribe` / `subscribe`
    /// (table bookkeeping and covering scan included). Returns ns per
    /// op as `(index insert, index remove, subscribe, unsubscribe)`.
    pub fn churn_costs(&mut self) -> (f64, f64, f64, f64) {
        let n = self.recent.len().max(1) as f64;
        let start = Instant::now();
        for (id, _, _) in self.recent.iter().rev() {
            self.mirror.remove(*id);
        }
        let remove_ns = start.elapsed().as_nanos() as f64 / n;
        let start = Instant::now();
        for (id, peer, filter) in &mut self.recent {
            *id = self.mirror.insert(*peer, filter.clone());
        }
        let insert_ns = start.elapsed().as_nanos() as f64 / n;

        let start = Instant::now();
        for (_, peer, filter) in self.recent.iter().rev() {
            self.broker.unsubscribe(*peer, filter);
        }
        let unsubscribe_ns = start.elapsed().as_nanos() as f64 / n;
        let start = Instant::now();
        for (_, peer, filter) in &self.recent {
            self.broker.subscribe(*peer, filter.clone());
        }
        let subscribe_ns = start.elapsed().as_nanos() as f64 / n;
        (insert_ns, remove_ns, subscribe_ns, unsubscribe_ns)
    }

    /// Closes the staged log and removes its directory.
    pub fn cleanup(self) {
        drop(self.log);
        if let Some(dir) = self.log_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Self time per layer: each span's duration minus what its child spans
/// cover.
pub fn layer_costs(spans: &[Span]) -> Vec<(&'static str, LayerCost)> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            covered[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: Vec<(&'static str, LayerCost)> = LAYERS
        .iter()
        .map(|&name| (name, LayerCost::default()))
        .collect();
    for (i, s) in spans.iter().enumerate() {
        let Some((_, cost)) = out.iter_mut().find(|(name, _)| *name == s.name) else {
            continue; // the root: its time is its children's
        };
        cost.calls += 1;
        cost.self_ns += (s.end_ns - s.start_ns).saturating_sub(covered[i]);
        cost.allocs += u64::from(s.allocs);
    }
    out
}

/// Writes spans as JSON lines: `{name, start, end, parent, event}`.
///
/// # Errors
///
/// Propagates I/O errors of the output file.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_owned()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"event\":{},\"allocs\":{}}}",
            s.name, s.start_ns, s.end_ns, s.event, s.allocs
        )?;
    }
    w.flush()
}
