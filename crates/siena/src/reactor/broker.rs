//! The reactor-backed broker: a fixed worker pool plus one dispatcher.
//!
//! Thread budget is decided at spawn time and never grows with the
//! connection count: one accept thread, one dispatcher thread, and
//! `worker_threads` reactor workers (defaulting to the CPU core count,
//! capped at [`MAX_WORKERS`]). Accepted connections are sharded across
//! workers by token (`id % workers`); each worker drives its shard's
//! nonblocking read/decode and coalesced-write state machines off an
//! edge-triggered [`Poller`].
//!
//! The pure [`Broker`] matching engine lives in exactly one thread —
//! the dispatcher — which also owns heartbeat ticks, eviction, and the
//! parent-chained `SubAck` bookkeeping. Ticks are synthesized from the
//! dispatcher's `recv_timeout`, so there is no ticker thread. A frame
//! offered to an empty queue marks its connection on the owning worker's
//! ready list; after every input batch the dispatcher wakes only the
//! workers whose shards received frames (a 64-bit dirty mask), so an
//! idle broker sleeps everywhere.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};

use super::config::{StatsInner, TcpConfig, TcpStats};
use super::conn::OutQueue;
use super::poller::Poller;
use super::worker::{run_broker_worker, WorkerHandle, WorkerMsg};
use crate::broker::{Action, Broker, Peer};
use crate::error::TcpError;
use crate::frame::{FramePool, FramePoolStats, SharedFrame};
use crate::index::IndexableFilter;
use crate::log::{
    Cursor, EventLog, LogConfig, LogError, RecoveryReport, ReplayCursor, ResumeOutcome,
};
use crate::semantics::FilterSemantics;
use crate::wire::{filter_crc, Message, Wire};

/// Hard cap on the reactor worker pool (also the width of the
/// dispatcher's dirty-worker wake mask).
pub const MAX_WORKERS: usize = 64;

/// Peer id reserved for the upward (parent) connection.
const PARENT_ID: u32 = 0;

/// Inputs to the dispatcher thread. There is no `Tick` variant: ticks
/// are synthesized from `recv_timeout`.
pub(crate) enum Input<F: FilterSemantics> {
    /// A decoded message from connection `id` (0 = parent).
    FromPeer(u32, Message<F, F::Event>),
    /// Connection `id` finished or died.
    PeerGone(u32),
    /// The acceptor registered connection `id` with this outbound queue.
    NewPeer(u32, Arc<OutQueue>),
    /// Stop dispatching and shut the workers down.
    Shutdown,
}

fn resolve_workers(cfg: &TcpConfig) -> usize {
    let n = if cfg.worker_threads > 0 {
        cfg.worker_threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    n.clamp(1, MAX_WORKERS)
}

/// Handle to a running reactor broker. Dropping the handle shuts it
/// down.
pub struct TcpBroker {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<StatsInner>,
    pool: FramePool,
    workers: usize,
    shutdown_fn: Box<dyn Fn() + Send + Sync>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for TcpBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpBroker")
            .field("addr", &self.addr)
            .field("workers", &self.workers)
            .finish()
    }
}

impl TcpBroker {
    /// The address the broker listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Transport counters (evictions, drops, heartbeats).
    pub fn stats(&self) -> TcpStats {
        self.stats.snapshot()
    }

    /// Frame-pool counters for the broker's outbound encode path. A
    /// publish fanned out to N peers bumps `frames_encoded` by one per
    /// frame flavour it needs (plain and/or stamped), never per peer —
    /// the instrumentation the encode-once tests assert on.
    // DEAD-PUB-OK: observer of encode-once fan-out (tcp_transport.rs)
    pub fn pool_stats(&self) -> FramePoolStats {
        self.pool.stats()
    }

    /// Size of the reactor worker pool (fixed for the broker's life).
    pub fn worker_threads(&self) -> usize {
        self.workers
    }

    /// Total OS threads this broker owns: workers + acceptor +
    /// dispatcher. Independent of how many connections it serves.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Requests shutdown and joins all broker threads.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        (self.shutdown_fn)();
        // Poke the blocking accept loop.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for TcpBroker {
    fn drop(&mut self) {
        self.begin_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Spawns a reactor broker with the default [`TcpConfig`].
///
/// # Errors
///
/// Propagates socket errors (bind/connect failures).
pub fn spawn_broker<F>(listen: &str, parent: Option<SocketAddr>) -> std::io::Result<TcpBroker>
where
    F: IndexableFilter + Wire + Send + 'static,
    F::Event: Wire + Send + Eq,
{
    spawn_broker_with::<F>(listen, parent, TcpConfig::default()).map_err(|e| match e {
        TcpError::Io(io) => io,
        other => std::io::Error::other(other.to_string()),
    })
}

/// Spawns a reactor broker listening on `listen` (use port 0 for an
/// ephemeral port), optionally connected upward to `parent`, with
/// explicit transport tuning.
///
/// # Errors
///
/// Returns [`TcpError::Io`] on bind/connect failures.
pub fn spawn_broker_with<F>(
    listen: &str,
    parent: Option<SocketAddr>,
    cfg: TcpConfig,
) -> Result<TcpBroker, TcpError>
where
    F: IndexableFilter + Wire + Send + 'static,
    F::Event: Wire + Send + Eq,
{
    spawn_inner::<F>(listen, parent, cfg, None)
}

/// Spawns a reactor broker backed by a durable [`EventLog`]: every
/// publish is appended (ciphertext-only — the log stores the encoded
/// event bytes verbatim) before fan-out, subscriber deliveries carry a
/// `(epoch, seq)` cursor stamp, and a reconnecting subscriber that
/// presents its cursor via `CatchUp` has the gap replayed from the log
/// without stalling live traffic.
///
/// Also returns the [`RecoveryReport`] from opening the log, so callers
/// can observe crash repair (torn tails truncated, records recovered).
///
/// # Errors
///
/// Returns [`TcpError::Io`] on bind/connect failures or when the log
/// directory cannot be opened or repaired.
pub fn spawn_broker_durable<F>(
    listen: &str,
    parent: Option<SocketAddr>,
    cfg: TcpConfig,
    log_cfg: LogConfig,
) -> Result<(TcpBroker, RecoveryReport), TcpError>
where
    F: IndexableFilter + Wire + Send + 'static,
    F::Event: Wire + Send + Eq,
{
    let (log, report) =
        EventLog::open(log_cfg).map_err(|e| TcpError::Io(std::io::Error::other(e)))?;
    let broker = spawn_inner::<F>(listen, parent, cfg, Some(log))?;
    Ok((broker, report))
}

fn spawn_inner<F>(
    listen: &str,
    parent: Option<SocketAddr>,
    cfg: TcpConfig,
    dlog: Option<EventLog>,
) -> Result<TcpBroker, TcpError>
where
    F: IndexableFilter + Wire + Send + 'static,
    F::Event: Wire + Send + Eq,
{
    let listener = TcpListener::bind(listen).map_err(TcpError::Io)?;
    let addr = listener.local_addr().map_err(TcpError::Io)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(StatsInner::default());
    let pool = FramePool::new();
    let nworkers = resolve_workers(&cfg);
    let (tx, rx) = unbounded::<Input<F>>();
    let mut threads = Vec::new();

    // The fixed worker pool.
    let mut handles: Vec<WorkerHandle> = Vec::with_capacity(nworkers);
    for _ in 0..nworkers {
        let poller = Poller::new().map_err(TcpError::Io)?;
        let waker = poller.waker();
        let (wtx, wrx) = unbounded::<WorkerMsg>();
        let dispatch_tx = tx.clone();
        let wstats = stats.clone();
        // SPAWN-OK: fixed reactor worker pool — N = worker_threads, decided
        // once at spawn time, never per-connection.
        threads.push(std::thread::spawn(move || {
            run_broker_worker::<F>(poller, wrx, dispatch_tx, wstats);
        }));
        handles.push(WorkerHandle { tx: wtx, waker });
    }

    // Parent link (peer id 0 is reserved for the parent); it rides on
    // worker 0 like any other connection.
    let mut parent_out: Option<Arc<OutQueue>> = None;
    if let Some(paddr) = parent {
        let stream =
            TcpStream::connect_timeout(&paddr, cfg.connect_timeout).map_err(TcpError::Io)?;
        if let Some(h) = handles.first() {
            let out = OutQueue::new(cfg.queue_capacity, PARENT_ID, h.waker.clone());
            let hello: Message<F, F::Event> = Message::Hello { kind: 0 };
            out.offer(pool.encode(&hello));
            h.add(PARENT_ID, stream, out.clone());
            parent_out = Some(out);
        }
    }

    // Accept loop: shards connections across the pool by token.
    {
        let tx = tx.clone();
        let shutdown = shutdown.clone();
        let handles = handles.clone();
        let queue_capacity = cfg.queue_capacity;
        // SPAWN-OK: single blocking accept thread (fixed count: one).
        threads.push(std::thread::spawn(move || {
            let mut next_peer = 1u32;
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let peer_id = next_peer;
                next_peer += 1;
                let Some(h) = handles.get(peer_id as usize % handles.len()) else {
                    break;
                };
                let out = OutQueue::new(queue_capacity, peer_id, h.waker.clone());
                // NewPeer must reach the dispatcher before any FromPeer
                // for this id; both ride the same FIFO channel and the
                // worker only produces FromPeer after `add`, so sending
                // NewPeer first guarantees the ordering.
                if tx.send(Input::NewPeer(peer_id, out.clone())).is_err() {
                    break;
                }
                h.add(peer_id, stream, out);
            }
        }));
    }

    // Dispatcher: owns the pure broker, the peer registry, heartbeat
    // ticks (synthesized — no ticker thread), eviction, and ack chains.
    {
        let is_root = parent.is_none();
        let stats = stats.clone();
        let pool = pool.clone();
        let handles = handles.clone();
        // SPAWN-OK: single dispatcher thread (fixed count: one).
        threads.push(std::thread::spawn(move || {
            run_dispatcher::<F>(rx, parent_out, handles, cfg, is_root, stats, pool, dlog);
        }));
    }

    let tx_for_shutdown = tx;
    Ok(TcpBroker {
        addr,
        shutdown,
        stats,
        pool,
        workers: nworkers,
        shutdown_fn: Box::new(move || {
            let _ = tx_for_shutdown.send(Input::Shutdown);
        }),
        threads,
    })
}

/// Offers a frame to a peer's queue, recording the drop on overflow and
/// marking the peer's worker dirty on success. Returns whether the frame
/// was actually queued.
fn offer_to(
    writers: &HashMap<u32, Arc<OutQueue>>,
    peer: u32,
    frame: SharedFrame,
    stats: &StatsInner,
    dirty: &mut u64,
    nworkers: usize,
) -> bool {
    if let Some(q) = writers.get(&peer) {
        if q.offer(frame) {
            *dirty |= 1u64 << (peer as usize % nworkers);
            return true;
        }
        stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
    }
    false
}

/// Inputs drained per dispatcher pass before waking dirty workers —
/// batches the wakeups under load without starving the tick clock.
const DISPATCH_BATCH: usize = 128;

/// Dispatcher poll granularity while any replay has work left: short
/// enough that a replay progresses briskly on an otherwise idle broker
/// (each pass reads at most one `replay_budget` batch per replay), long
/// enough that a fully backpressured replay doesn't spin.
const REPLAY_STEP: Duration = Duration::from_millis(1);

/// One in-flight catch-up replay toward a reconnected subscriber.
struct Replay {
    /// Peer id the replay streams to.
    peer: u32,
    /// Byte-level position in the log.
    rcur: ReplayCursor,
    /// Classification decided when the `CatchUp` arrived; upgraded to
    /// `GapTruncatedByRetention` if compaction overtakes the replay.
    outcome: ResumeOutcome,
    /// Encoded `Stamped` frames awaiting queue space. Backpressure
    /// keeps frames here — they are never dropped, unlike live fan-out.
    pending: VecDeque<SharedFrame>,
    /// The log reader has caught up to the high-water mark and the
    /// closing `ReplayDone` sits at the back of `pending`.
    done_reading: bool,
}

/// Dispatcher-side durable state: the open log, a reusable append
/// buffer, which peers identified as clients (they get `Stamped`
/// deliveries; broker peers keep plain `Publish`), and active replays.
struct Durable {
    log: EventLog,
    buf: Vec<u8>,
    client_peers: HashSet<u32>,
    replays: Vec<Replay>,
    scratch: Vec<(Cursor, Vec<u8>)>,
}

impl Durable {
    fn new(log: EventLog) -> Self {
        Durable {
            log,
            buf: Vec::new(),
            client_peers: HashSet::new(),
            replays: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Whether any replay still has reading or draining left to do.
    fn has_replay_work(&self) -> bool {
        !self.replays.is_empty()
    }
}

/// Moves queued replay frames into the peer's bounded queue until it
/// fills. A refused frame stays at the front of `pending` — replay
/// backpressure retries, it never drops.
fn drain_pending(
    r: &mut Replay,
    q: &Arc<OutQueue>,
    stats: &StatsInner,
    dirty: &mut u64,
    nworkers: usize,
) {
    while let Some(f) = r.pending.front() {
        if !q.offer(f.clone()) {
            break;
        }
        r.pending.pop_front();
        *dirty |= 1u64 << (r.peer as usize % nworkers);
        stats.replayed_frames.fetch_add(1, Ordering::Relaxed);
    }
}

/// Advances every in-flight replay by at most one budgeted log read:
/// drain what's queued, read the next batch, filter it against the
/// peer's live subscriptions (one pass of the broker's match index per
/// record), queue the matches as `Stamped` frames, and close out with
/// `ReplayDone` once the reader reaches the high-water mark. Bounded
/// work per call — live fan-out never waits behind a long replay.
fn pump_replays<F>(
    d: &mut Durable,
    broker: &mut Broker<F>,
    writers: &HashMap<u32, Arc<OutQueue>>,
    stats: &StatsInner,
    pool: &FramePool,
    dirty: &mut u64,
    nworkers: usize,
) where
    F: IndexableFilter + Wire + Send + 'static,
    F::Event: Wire + Send + Eq,
{
    let budget = d.log.replay_budget();
    let Durable {
        log,
        replays,
        scratch,
        ..
    } = d;
    replays.retain_mut(|r| {
        let Some(q) = writers.get(&r.peer) else {
            return false; // peer evicted or disconnected: abandon
        };
        drain_pending(r, q, stats, dirty, nworkers);
        if r.pending.is_empty() && !r.done_reading {
            scratch.clear();
            match log.replay_next(&mut r.rcur, budget, scratch) {
                Ok(more) => {
                    for (cursor, payload) in scratch.drain(..) {
                        let Ok(event) = F::Event::from_bytes(&payload) else {
                            continue; // undecodable record: skip it
                        };
                        if broker.peer_wants(Peer::Child(r.peer), &event) {
                            let m: Message<F, F::Event> = Message::Stamped { cursor, event };
                            r.pending.push_back(pool.encode(&m));
                        }
                    }
                    if !more {
                        let outcome = if r.rcur.truncated() {
                            ResumeOutcome::GapTruncatedByRetention
                        } else {
                            r.outcome
                        };
                        let done: Message<F, F::Event> = Message::ReplayDone {
                            outcome: outcome.code(),
                            cursor: log.high_water(),
                        };
                        r.pending.push_back(pool.encode(&done));
                        r.done_reading = true;
                    }
                }
                // Transient read fault: cursor unchanged, retry next pump.
                Err(LogError::ShortRead) => {}
                Err(_) => {
                    // Hard log failure mid-replay: the rest of the gap is
                    // unrecoverable, which to the subscriber is exactly a
                    // truncated gap — report it as one so the application
                    // knows continuity was lost.
                    let done: Message<F, F::Event> = Message::ReplayDone {
                        outcome: ResumeOutcome::GapTruncatedByRetention.code(),
                        cursor: log.high_water(),
                    };
                    r.pending.push_back(pool.encode(&done));
                    r.done_reading = true;
                }
            }
            drain_pending(r, q, stats, dirty, nworkers);
        }
        // Complete once the closing ReplayDone has left the queue.
        !(r.done_reading && r.pending.is_empty())
    });
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn run_dispatcher<F>(
    rx: Receiver<Input<F>>,
    parent_out: Option<Arc<OutQueue>>,
    handles: Vec<WorkerHandle>,
    cfg: TcpConfig,
    is_root: bool,
    stats: Arc<StatsInner>,
    pool: FramePool,
    dlog: Option<EventLog>,
) where
    F: IndexableFilter + Wire + Send + 'static,
    F::Event: Wire + Send + Eq,
{
    let nworkers = handles.len().max(1);
    let mut durable = dlog.map(Durable::new);
    let mut broker: Broker<F> = Broker::new(is_root);
    let mut writers: HashMap<u32, Arc<OutQueue>> = HashMap::new();
    let mut last_heard: HashMap<u32, Instant> = HashMap::new();
    // Subscribe acks we owe peers once the parent confirms the forwarded
    // filter (keyed by the filter's crc).
    let mut pending_acks: HashMap<u32, Vec<u32>> = HashMap::new();
    let has_parent = parent_out.is_some();
    if let Some(out) = parent_out {
        writers.insert(PARENT_ID, out);
        last_heard.insert(PARENT_ID, Instant::now());
    }
    if has_parent {
        // The hello queued at spawn needs worker 0 awake to leave.
        if let Some(h) = handles.first() {
            h.waker.wake();
        }
    }

    // Tick clock: recv_timeout granularity bounded so shutdown and late
    // ticks are noticed promptly even with long heartbeat intervals.
    let hb_on = !cfg.heartbeat_interval.is_zero();
    let step = if hb_on {
        cfg.heartbeat_interval.min(Duration::from_millis(50))
    } else {
        Duration::from_millis(200)
    };
    let mut last_tick = Instant::now();
    let mut last_pump = Instant::now() - REPLAY_STEP;
    let mut dirty: u64 = 0;

    'run: loop {
        let mut budget = DISPATCH_BATCH;
        // While a replay is in flight, poll fast so the replay advances
        // even with no live traffic; otherwise use the tick clock step.
        let step_now = match &durable {
            Some(d) if d.has_replay_work() => REPLAY_STEP.min(step),
            _ => step,
        };
        match rx.recv_timeout(step_now) {
            Ok(first) => {
                let mut next = Some(first);
                while let Some(input) = next.take() {
                    if !handle_input(
                        input,
                        &mut broker,
                        &mut writers,
                        &mut last_heard,
                        &mut pending_acks,
                        &mut durable,
                        &stats,
                        &pool,
                        &mut dirty,
                        nworkers,
                    ) {
                        break 'run;
                    }
                    budget -= 1;
                    if budget == 0 {
                        break;
                    }
                    next = rx.try_recv().ok();
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }

        // Replay progress rides the same loop as live dispatch, one
        // bounded batch per REPLAY_STEP, so catch-up never stalls the
        // fan-out: under live load the input batches come much faster
        // than the step, and pumping on every one of them would tax the
        // live path with a full replay budget per batch.
        if let Some(d) = durable.as_mut() {
            if d.has_replay_work() && last_pump.elapsed() >= REPLAY_STEP {
                pump_replays(
                    d,
                    &mut broker,
                    &writers,
                    &stats,
                    &pool,
                    &mut dirty,
                    nworkers,
                );
                last_pump = Instant::now();
            }
        }

        if hb_on && last_tick.elapsed() >= cfg.heartbeat_interval {
            last_tick = Instant::now();
            tick(
                &mut broker,
                &mut writers,
                &mut last_heard,
                &handles,
                &cfg,
                &stats,
                &pool,
                &mut dirty,
                nworkers,
            );
        }

        // Wake exactly the workers whose shards got frames this pass.
        while dirty != 0 {
            let w = dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            if let Some(h) = handles.get(w) {
                h.waker.wake();
            }
        }
    }

    // Shut the pool down: close every queue (workers flush then finish)
    // and tell each worker to exit.
    for q in writers.values() {
        q.close();
    }
    for h in &handles {
        h.shutdown();
    }
}

/// Per-tick work: fan a heartbeat to every peer and evict children that
/// have been silent past the miss limit.
#[allow(clippy::too_many_arguments)]
fn tick<F>(
    broker: &mut Broker<F>,
    writers: &mut HashMap<u32, Arc<OutQueue>>,
    last_heard: &mut HashMap<u32, Instant>,
    handles: &[WorkerHandle],
    cfg: &TcpConfig,
    stats: &StatsInner,
    pool: &FramePool,
    dirty: &mut u64,
    nworkers: usize,
) where
    F: IndexableFilter + Wire + Send + 'static,
    F::Event: Wire + Send + Eq,
{
    // Encoded once; each peer queue gets an Arc clone.
    let hb: Message<F, F::Event> = Message::Heartbeat;
    let frame = pool.encode(&hb);
    let ids: Vec<u32> = writers.keys().copied().collect();
    for id in ids {
        if offer_to(writers, id, frame.clone(), stats, dirty, nworkers) {
            stats.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
        }
    }
    let deadline = cfg.heartbeat_interval * cfg.heartbeat_miss_limit.max(1);
    let now = Instant::now();
    let dead: Vec<u32> = last_heard
        .iter()
        .filter(|&(&id, &seen)| id != PARENT_ID && now.duration_since(seen) > deadline)
        .map(|(&id, _)| id)
        .collect();
    for id in dead {
        broker.peer_down(Peer::Child(id));
        last_heard.remove(&id);
        if let Some(q) = writers.remove(&id) {
            q.close();
        }
        // Hard close, not flush-then-close: an evicted peer already
        // proved unresponsive, so a flush can never finish — the worker
        // drops the socket immediately and counts unsent frames. Late
        // frames the worker already decoded are ignored by the
        // `FromPeer` ghost guard in `handle_input`.
        if let Some(h) = handles.get(id as usize % nworkers) {
            h.close(id);
        }
        stats.evicted_peers.fetch_add(1, Ordering::Relaxed);
    }
}

/// Handles one dispatcher input. Returns `false` on shutdown.
#[allow(clippy::too_many_arguments)]
fn handle_input<F>(
    input: Input<F>,
    broker: &mut Broker<F>,
    writers: &mut HashMap<u32, Arc<OutQueue>>,
    last_heard: &mut HashMap<u32, Instant>,
    pending_acks: &mut HashMap<u32, Vec<u32>>,
    durable: &mut Option<Durable>,
    stats: &StatsInner,
    pool: &FramePool,
    dirty: &mut u64,
    nworkers: usize,
) -> bool
where
    F: IndexableFilter + Wire + Send + 'static,
    F::Event: Wire + Send + Eq,
{
    match input {
        Input::Shutdown => return false,
        Input::NewPeer(id, out) => {
            writers.insert(id, out);
            last_heard.insert(id, Instant::now());
        }
        Input::PeerGone(id) => {
            if id != PARENT_ID {
                broker.peer_down(Peer::Child(id));
            } else {
                // Without a parent, forwarded subscriptions can never be
                // confirmed; ack them locally so clients don't hang
                // (degraded mode).
                for (crc, peers) in pending_acks.drain() {
                    for p in peers {
                        let ack: Message<F, F::Event> = Message::SubAck { crc };
                        offer_to(writers, p, pool.encode(&ack), stats, dirty, nworkers);
                    }
                }
            }
            last_heard.remove(&id);
            if let Some(q) = writers.remove(&id) {
                q.close();
            }
            if let Some(d) = durable.as_mut() {
                d.client_peers.remove(&id);
                d.replays.retain(|r| r.peer != id);
            }
        }
        Input::FromPeer(id, msg) => {
            if !writers.contains_key(&id) {
                // The peer was evicted (or is already gone) but the
                // worker had decoded frames in flight. Processing them
                // would resurrect `last_heard` and re-create broker
                // subscription state with no writer — a ghost peer.
                return true;
            }
            last_heard.insert(id, Instant::now());
            let from = if id == PARENT_ID {
                Peer::Parent
            } else {
                Peer::Child(id)
            };
            let actions = match msg {
                Message::Hello { kind } => {
                    if kind == 1 {
                        // Subscriber connections get cursor-stamped
                        // deliveries; broker links keep plain Publish.
                        if let Some(d) = durable.as_mut() {
                            d.client_peers.insert(id);
                        }
                    }
                    Vec::new()
                }
                Message::Heartbeat => Vec::new(),
                Message::CatchUp { cursor } => {
                    match durable.as_mut() {
                        Some(d) => {
                            // Only subscribers catch up; a CatchUp also
                            // implies the peer wants stamped delivery.
                            d.client_peers.insert(id);
                            let (outcome, rcur) = d.log.catch_up_from(cursor);
                            d.replays.retain(|r| r.peer != id);
                            d.replays.push(Replay {
                                peer: id,
                                rcur,
                                outcome,
                                pending: VecDeque::new(),
                                done_reading: false,
                            });
                        }
                        None => {
                            // No log on this broker: nothing to replay,
                            // tell the subscriber it starts fresh.
                            let done: Message<F, F::Event> = Message::ReplayDone {
                                outcome: ResumeOutcome::FreshStart.code(),
                                cursor: Cursor::default(),
                            };
                            offer_to(writers, id, pool.encode(&done), stats, dirty, nworkers);
                        }
                    }
                    Vec::new()
                }
                // Brokers never consume these; tolerate stray ones.
                Message::ReplayDone { .. } | Message::Stamped { .. } => Vec::new(),
                Message::SubAck { crc } => {
                    // Parent confirmed a forwarded filter: release the
                    // acks we owe downstream.
                    if id == PARENT_ID {
                        for p in pending_acks.remove(&crc).unwrap_or_default() {
                            let ack: Message<F, F::Event> = Message::SubAck { crc };
                            offer_to(writers, p, pool.encode(&ack), stats, dirty, nworkers);
                        }
                    }
                    Vec::new()
                }
                Message::Subscribe(f) => {
                    let crc = filter_crc(&f);
                    let actions = broker.subscribe(from, f);
                    let forwards_up = actions
                        .iter()
                        .any(|a| matches!(a, Action::ForwardSubscribe(_)))
                        && writers.contains_key(&PARENT_ID);
                    if forwards_up {
                        pending_acks.entry(crc).or_default().push(id);
                    } else {
                        let ack: Message<F, F::Event> = Message::SubAck { crc };
                        offer_to(writers, id, pool.encode(&ack), stats, dirty, nworkers);
                    }
                    actions
                }
                Message::Unsubscribe(f) => broker.unsubscribe(from, &f),
                Message::Publish(e) => {
                    // Durable brokers log before fan-out: the record is
                    // the encoded event verbatim (already-sealed bytes —
                    // the log never sees plaintext). On append failure
                    // the event is still delivered live, unstamped.
                    let mut stamp = None;
                    if let Some(d) = durable.as_mut() {
                        d.buf.clear();
                        e.encode(&mut d.buf);
                        match d.log.append(&d.buf) {
                            Ok(cursor) => stamp = Some(cursor),
                            Err(_) => {
                                stats.log_append_failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    let peers = broker.route(from, &e);
                    let logged = stamp.zip(durable.as_mut());
                    fan_out::<F>(e, peers, logged, writers, stats, pool, dirty, nworkers);
                    Vec::new()
                }
            };
            for action in actions {
                let m: Message<F, F::Event> = match action {
                    Action::ForwardSubscribe(f) => Message::Subscribe(f),
                    Action::ForwardUnsubscribe(f) => Message::Unsubscribe(f),
                    // Publishes fan out through `Broker::route` above.
                    Action::Deliver(..) => continue,
                };
                offer_to(writers, PARENT_ID, pool.encode(&m), stats, dirty, nworkers);
            }
        }
    }
    true
}

/// Encode-once fan-out of one routed publish. Each frame flavour —
/// plain `Publish` for broker links, cursor-stamped for subscribers when
/// the event was `logged` — is serialized once and its recipients get Arc
/// clones of that frame; `event` is cloned only when a publish needs both
/// flavours.
#[allow(clippy::too_many_arguments)]
fn fan_out<F>(
    event: F::Event,
    peers: &[Peer],
    logged: Option<(Cursor, &mut Durable)>,
    writers: &HashMap<u32, Arc<OutQueue>>,
    stats: &StatsInner,
    pool: &FramePool,
    dirty: &mut u64,
    nworkers: usize,
) where
    F: IndexableFilter + Wire,
    F::Event: Wire,
{
    let target = |peer: Peer| match peer {
        Peer::Parent => PARENT_ID,
        Peer::Child(c) | Peer::Local(c) => c,
    };
    let encode_plain = |event| pool.encode(&Message::<F, F::Event>::Publish(event));
    let Some((cursor, d)) = logged else {
        if !peers.is_empty() {
            let frame = encode_plain(event);
            for &peer in peers {
                offer_to(writers, target(peer), frame.clone(), stats, dirty, nworkers);
            }
        }
        return;
    };
    let encode_stamped = |event| pool.encode(&Message::<F, F::Event>::Stamped { cursor, event });
    let clients = peers
        .iter()
        .filter(|&&p| d.client_peers.contains(&target(p)))
        .count();
    let (plain, stamped) = match (clients < peers.len(), clients > 0) {
        (true, true) => (
            Some(encode_plain(event.clone())),
            Some(encode_stamped(event)),
        ),
        (true, false) => (Some(encode_plain(event)), None),
        (false, true) => (None, Some(encode_stamped(event))),
        (false, false) => return,
    };
    for &peer in peers {
        let id = target(peer);
        if !d.client_peers.contains(&id) {
            if let Some(frame) = &plain {
                offer_to(writers, id, frame.clone(), stats, dirty, nworkers);
            }
            continue;
        }
        let Some(frame) = &stamped else { continue };
        // Replay interplay (single-threaded, so the boundary is
        // race-free): while the log reader is still behind, the event
        // reaches this peer in order from the log; once the reader is
        // done but frames are still queued, line the live frame up
        // behind them to keep order.
        match d.replays.iter_mut().find(|r| r.peer == id) {
            Some(r) if r.done_reading => r.pending.push_back(frame.clone()),
            Some(_) => {} // the replay will read it from the log
            None => {
                offer_to(writers, id, frame.clone(), stats, dirty, nworkers);
            }
        }
    }
}
