//! The reactor-backed broker: a fixed worker pool, the first of which
//! also dispatches.
//!
//! Thread budget is decided at spawn time and never grows with the
//! connection count: exactly `worker_threads` reactor workers
//! (defaulting to the CPU core count, capped at [`MAX_WORKERS`]).
//! Accepted connections are sharded across workers by token
//! (`id % workers`); each worker drives its shard's nonblocking
//! read/decode and coalesced-write state machines off an edge-triggered
//! [`Poller`](super::poller::Poller).
//!
//! Worker 0 owns the [`Dispatch`] state: the pure [`Broker`] matching
//! engine, every peer's outbound queue, heartbeat ticks, eviction, the
//! parent-chained `SubAck` bookkeeping and the durable log's replays.
//! Its poller carries the listener, and its ticks come from the poller's
//! timeout, so no thread exists besides the pool. A frame offered to an
//! empty queue marks its connection on the owning worker's ready list;
//! after every pass worker 0 wakes only the workers whose shards
//! received frames (a 64-bit dirty mask), so an idle broker sleeps
//! everywhere. [`Dispatch`] methods take the time as a parameter and
//! never read the clock.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::config::{StatsInner, TcpConfig, TcpStats};
use super::conn::{Conn, OutQueue};
use super::poller::{PollWaker, Poller};
use super::worker::{run_broker_worker, Role, WorkerMsg, LISTENER};
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
pub(crate) const PARENT_ID: u32 = 0;

/// Inbox inputs worker 0 handles per pass, so a flood from the other
/// workers cannot starve its own sockets.
pub(crate) const DISPATCH_BATCH: usize = 128;

/// Replay pump period while any replay has work left: short enough that
/// a replay progresses briskly on an otherwise idle broker (each pump
/// reads at most one `replay_budget` batch per replay), long enough that
/// a fully backpressured replay doesn't spin.
const REPLAY_STEP: Duration = Duration::from_millis(1);

/// What [`Dispatch::handle`] consumes.
pub(crate) enum Input<F: FilterSemantics> {
    /// A decoded message from connection `id` (0 = parent).
    FromPeer(u32, Message<F, F::Event>),
    /// Connection `id` finished or died.
    PeerGone(u32),
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
#[derive(Debug)]
pub struct TcpBroker {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Worker 0's waker: ends its wait so it sees `shutdown`.
    dispatcher: PollWaker,
    stats: Arc<StatsInner>,
    pool: FramePool,
    threads: Vec<JoinHandle<()>>,
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
        self.threads.len()
    }

    /// Total OS threads this broker owns: exactly its workers — worker 0
    /// also accepts and dispatches. Independent of how many connections
    /// it serves.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Requests shutdown and joins all broker threads.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for TcpBroker {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.dispatcher.wake();
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

/// Binds, connects the parent and builds every poller before the first
/// thread starts, so a failure leaves nothing running.
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
    let listener = TcpListener::bind(listen)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let pollers = (0..resolve_workers(&cfg))
        .map(|_| Poller::new())
        .collect::<std::io::Result<Vec<Poller>>>()?;
    pollers[0].register(listener.as_fd(), LISTENER)?;
    let wakers: Vec<PollWaker> = pollers.iter().map(Poller::waker).collect();
    let own = wakers[0].clone();
    let (inbox_tx, inbox) = mpsc::channel();
    let (workers, mut roles): (Vec<_>, Vec<_>) = (1..pollers.len())
        .map(|_| {
            let (tx, rx) = mpsc::channel();
            let inbox = inbox_tx.clone();
            let dispatcher = own.clone();
            let role = Role::Forward {
                rx,
                inbox,
                dispatcher,
            };
            (tx, role)
        })
        .unzip();

    let stats = Arc::new(StatsInner::default());
    let pool = FramePool::new();
    let mut writers = HashMap::new();
    let mut last_heard = HashMap::new();
    let now = Instant::now();
    // Parent link (peer id 0 is reserved for the parent); it rides on
    // worker 0 like any other connection.
    let parent_conn = match parent {
        Some(paddr) => {
            let stream = TcpStream::connect_timeout(&paddr, cfg.connect_timeout)?;
            let queue = OutQueue::new(cfg.queue_capacity, PARENT_ID, own.clone());
            queue.offer(pool.encode(&Message::<F, F::Event>::Hello { kind: 0 }));
            writers.insert(PARENT_ID, queue.clone());
            last_heard.insert(PARENT_ID, now);
            Some(Conn::new(stream, queue, &pollers[0], PARENT_ID)?)
        }
        None => None,
    };

    let shutdown = Arc::new(AtomicBool::new(false));
    let out = Outbox {
        writers,
        dirty: 0,
        shards: pollers.len(),
        stats: stats.clone(),
        pool: pool.clone(),
    };
    let dispatch = Dispatch {
        broker: Broker::new(parent.is_none()),
        out,
        last_heard,
        pending_acks: HashMap::new(),
        durable: dlog.map(Durable::new),
        wakers,
        workers,
        next_peer: PARENT_ID + 1,
        next_tick: now + cfg.heartbeat_interval,
        next_pump: now,
        cfg,
    };
    roles.insert(
        0,
        Role::Dispatch {
            dispatch: Box::new(dispatch),
            listener,
            inbox,
            parent: parent_conn,
            shutdown: shutdown.clone(),
        },
    );
    let threads = pollers
        .into_iter()
        .zip(roles)
        .map(|(poller, role)| {
            let stats = stats.clone();
            // SPAWN-OK: fixed reactor worker pool — N = worker_threads,
            // decided once at spawn time, never per-connection.
            std::thread::spawn(move || run_broker_worker::<F>(poller, role, stats))
        })
        .collect();
    Ok(TcpBroker {
        addr,
        shutdown,
        dispatcher: own,
        stats,
        pool,
        threads,
    })
}

/// The output side of dispatch: every peer's outbound queue, plus the
/// mask of shards whose queues got frames since the last wake.
struct Outbox {
    writers: HashMap<u32, Arc<OutQueue>>,
    dirty: u64,
    shards: usize,
    stats: Arc<StatsInner>,
    pool: FramePool,
}

impl Outbox {
    /// Offers a frame to a peer's queue, recording the drop on overflow
    /// and marking the peer's shard dirty on success. Returns whether the
    /// frame was actually queued.
    fn offer(&mut self, peer: u32, frame: SharedFrame) -> bool {
        if let Some(q) = self.writers.get(&peer) {
            if q.offer(frame) {
                self.dirty |= 1u64 << (peer as usize % self.shards);
                return true;
            }
            self.stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
        }
        false
    }

    /// Encodes `msg` and offers it to `peer`.
    fn send<M: Wire>(&mut self, peer: u32, msg: &M) {
        let frame = self.pool.encode(msg);
        self.offer(peer, frame);
    }

    /// Moves queued replay frames into the peer's bounded queue until it
    /// fills. A refused frame stays at the front of `pending` — replay
    /// backpressure retries, it never drops. `false`: the peer is gone.
    fn drain_replay(&mut self, r: &mut Replay) -> bool {
        let Some(q) = self.writers.get(&r.peer) else {
            return false;
        };
        while let Some(f) = r.pending.front() {
            if !q.offer(f.clone()) {
                break;
            }
            r.pending.pop_front();
            self.dirty |= 1u64 << (r.peer as usize % self.shards);
            self.stats.replayed_frames.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Encode-once fan-out of one routed publish. Each frame flavour —
    /// plain `Publish` for broker links, cursor-stamped for subscribers
    /// when the event was `logged` — is serialized once and its
    /// recipients get Arc clones of that frame; `event` is cloned only
    /// when a publish needs both flavours.
    fn fan_out<F>(
        &mut self,
        event: F::Event,
        peers: &[Peer],
        logged: Option<(Cursor, &mut Durable)>,
    ) where
        F: IndexableFilter + Wire,
        F::Event: Wire,
    {
        let target = |peer: Peer| match peer {
            Peer::Parent => PARENT_ID,
            Peer::Child(c) | Peer::Local(c) => c,
        };
        let Some((cursor, d)) = logged else {
            if !peers.is_empty() {
                let frame = self.pool.encode(&Message::<F, F::Event>::Publish(event));
                for &peer in peers {
                    self.offer(target(peer), frame.clone());
                }
            }
            return;
        };
        let clients = peers
            .iter()
            .filter(|&&p| d.client_peers.contains(&target(p)))
            .count();
        let (plain, stamped) = match (clients < peers.len(), clients > 0) {
            (true, true) => (Some(event.clone()), Some(event)),
            (true, false) => (Some(event), None),
            (false, true) => (None, Some(event)),
            (false, false) => return,
        };
        let plain = plain.map(|e| self.pool.encode(&Message::<F, F::Event>::Publish(e)));
        let stamped = stamped.map(|event| {
            self.pool
                .encode(&Message::<F, F::Event>::Stamped { cursor, event })
        });
        for &peer in peers {
            let id = target(peer);
            if !d.client_peers.contains(&id) {
                if let Some(frame) = &plain {
                    self.offer(id, frame.clone());
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
                    self.offer(id, frame.clone());
                }
            }
        }
    }
}

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

    /// Advances every in-flight replay by at most one budgeted log read:
    /// drain what's queued, read the next batch, filter it against the
    /// peer's live subscriptions (one pass of the broker's match index
    /// per record), queue the matches as `Stamped` frames, and close out
    /// with `ReplayDone` once the reader reaches the high-water mark.
    /// Bounded work per call — live fan-out never waits behind a long
    /// replay.
    fn pump<F>(&mut self, broker: &mut Broker<F>, out: &mut Outbox)
    where
        F: IndexableFilter + Wire,
        F::Event: Wire,
    {
        let budget = self.log.replay_budget();
        let Durable {
            log,
            replays,
            scratch,
            ..
        } = self;
        let pool = out.pool.clone();
        let done = |outcome: ResumeOutcome, log: &EventLog| {
            pool.encode(&Message::<F, F::Event>::ReplayDone {
                outcome: outcome.code(),
                cursor: log.high_water(),
            })
        };
        replays.retain_mut(|r| {
            if !out.drain_replay(r) {
                return false; // peer evicted or disconnected: abandon
            }
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
                            r.pending.push_back(done(outcome, log));
                            r.done_reading = true;
                        }
                    }
                    // Transient read fault: cursor unchanged, retry next pump.
                    Err(LogError::ShortRead) => {}
                    Err(_) => {
                        // Hard log failure mid-replay: the rest of the gap
                        // is unrecoverable, which to the subscriber is
                        // exactly a truncated gap — report it as one so the
                        // application knows continuity was lost.
                        r.pending
                            .push_back(done(ResumeOutcome::GapTruncatedByRetention, log));
                        r.done_reading = true;
                    }
                }
                out.drain_replay(r);
            }
            // Complete once the closing ReplayDone has left the queue.
            !(r.done_reading && r.pending.is_empty())
        });
    }
}

/// Worker 0's dispatcher state: the routing engine, the peer registry
/// and every timer. Methods take the time as a parameter; worker 0's
/// loop reads the clock once per pass, and once more after a replay
/// pump.
pub(crate) struct Dispatch<F: IndexableFilter> {
    broker: Broker<F>,
    out: Outbox,
    last_heard: HashMap<u32, Instant>,
    /// Subscribe acks owed to peers once the parent confirms the
    /// forwarded filter (keyed by the filter's crc).
    pending_acks: HashMap<u32, Vec<u32>>,
    durable: Option<Durable>,
    /// Every shard's waker, indexed by shard.
    wakers: Vec<PollWaker>,
    /// Control channels of the workers of shards 1..N.
    workers: Vec<Sender<WorkerMsg>>,
    next_peer: u32,
    next_tick: Instant,
    next_pump: Instant,
    cfg: TcpConfig,
}

impl<F> Dispatch<F>
where
    F: IndexableFilter + Wire,
    F::Event: Wire + Eq,
{
    /// Registers an accepted connection: assigns its peer id and its
    /// writer, then hands it to its owning worker. Returns it instead
    /// when it belongs to shard 0, which the caller drives.
    pub(crate) fn admit(
        &mut self,
        stream: TcpStream,
        now: Instant,
    ) -> Option<(u32, TcpStream, Arc<OutQueue>)> {
        let id = self.next_peer;
        self.next_peer += 1;
        let shard = id as usize % self.wakers.len();
        let queue = OutQueue::new(self.cfg.queue_capacity, id, self.wakers[shard].clone());
        self.out.writers.insert(id, queue.clone());
        self.last_heard.insert(id, now);
        if shard == 0 {
            return Some((id, stream, queue));
        }
        self.send(shard, WorkerMsg::Add(id, stream, queue));
        None
    }

    /// Sends a control message to the worker of `shard` (not 0) and
    /// wakes it.
    fn send(&self, shard: usize, msg: WorkerMsg) {
        if let Some(tx) = self.workers.get(shard.wrapping_sub(1)) {
            let _ = tx.send(msg);
        }
        self.wakers[shard].wake();
    }

    /// When the next timer falls due: the heartbeat tick, or while a
    /// replay has work, the next replay step. `None`: no timer.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        let tick = (!self.cfg.heartbeat_interval.is_zero()).then_some(self.next_tick);
        let pump = self.durable.as_ref().filter(|d| !d.replays.is_empty());
        match (tick, pump.map(|_| self.next_pump)) {
            (Some(t), Some(p)) => Some(t.min(p)),
            (t, p) => t.or(p),
        }
    }

    /// Advances every replay by one bounded batch if a step is due at
    /// `now`, and returns whether it did. Replay rides the same loop as
    /// live dispatch, one batch per `REPLAY_STEP`, so catch-up never
    /// stalls the fan-out: pumping on every pass would tax the live path
    /// with a full replay budget per pass.
    pub(crate) fn pump_replays(&mut self, now: Instant) -> bool {
        match self.durable.as_mut() {
            Some(d) if !d.replays.is_empty() && now >= self.next_pump => {
                d.pump(&mut self.broker, &mut self.out);
                true
            }
            _ => false,
        }
    }

    /// Schedules the next replay step a `REPLAY_STEP` after `end`, the
    /// time the last pump finished: a pump can fill much of a step, and
    /// counting from its start would leave live traffic less than the
    /// rest of it.
    pub(crate) fn replayed_until(&mut self, end: Instant) {
        self.next_pump = end + REPLAY_STEP;
    }

    /// If a heartbeat tick is due at `now`: fan a heartbeat to every peer
    /// and evict children that have been silent past the miss limit.
    /// Returns the shard-0 peers evicted, which the caller hard-closes;
    /// other shards' evictions are sent to their workers.
    pub(crate) fn tick(&mut self, now: Instant) -> Vec<u32> {
        if self.cfg.heartbeat_interval.is_zero() || now < self.next_tick {
            return Vec::new();
        }
        self.next_tick = now + self.cfg.heartbeat_interval;
        // Encoded once; each peer queue gets an Arc clone.
        let frame = self.out.pool.encode(&Message::<F, F::Event>::Heartbeat);
        let ids: Vec<u32> = self.out.writers.keys().copied().collect();
        let stats = Arc::clone(&self.out.stats);
        for id in ids {
            if self.out.offer(id, frame.clone()) {
                stats.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
            }
        }
        let deadline = self.cfg.heartbeat_interval * self.cfg.heartbeat_miss_limit.max(1);
        let dead: Vec<u32> = self
            .last_heard
            .iter()
            .filter(|&(&id, &seen)| id != PARENT_ID && now.duration_since(seen) > deadline)
            .map(|(&id, _)| id)
            .collect();
        let mut here = Vec::new();
        for id in dead {
            self.broker.peer_down(Peer::Child(id));
            self.last_heard.remove(&id);
            if let Some(q) = self.out.writers.remove(&id) {
                q.close();
            }
            // Hard close, not flush-then-close: an evicted peer already
            // proved unresponsive, so a flush can never finish — its
            // worker drops the socket immediately and counts unsent
            // frames. Frames another worker already decoded are ignored
            // by the `FromPeer` ghost guard in `handle`.
            match id as usize % self.wakers.len() {
                0 => here.push(id),
                shard => self.send(shard, WorkerMsg::Close(id)),
            }
            stats.evicted_peers.fetch_add(1, Ordering::Relaxed);
        }
        here
    }

    /// Wakes the workers whose shards got frames since the last call.
    /// Returns whether shard 0 did: worker 0 collects its own marks only
    /// on its next wait, which must then not block.
    pub(crate) fn wake_dirty(&mut self) -> bool {
        let mut dirty = std::mem::take(&mut self.out.dirty);
        let own = dirty & 1 != 0;
        dirty &= !1;
        while dirty != 0 {
            self.wakers[dirty.trailing_zeros() as usize].wake();
            dirty &= dirty - 1;
        }
        own
    }

    /// Shuts the pool down: closes every queue (workers flush, then
    /// finish) and disconnects each other worker's channel.
    pub(crate) fn close_all(&mut self) {
        for q in self.out.writers.values() {
            q.close();
        }
        self.workers.clear();
        for waker in &self.wakers[1..] {
            waker.wake();
        }
    }

    /// Handles one input from a connection.
    pub(crate) fn handle(&mut self, input: Input<F>, now: Instant) {
        let (id, msg) = match input {
            Input::PeerGone(id) => return self.peer_gone(id),
            Input::FromPeer(id, msg) => (id, msg),
        };
        if !self.out.writers.contains_key(&id) {
            // The peer was evicted (or is already gone) but its worker
            // had decoded frames in flight. Processing them would
            // resurrect `last_heard` and re-create broker subscription
            // state with no writer — a ghost peer.
            return;
        }
        self.last_heard.insert(id, now);
        let from = if id == PARENT_ID {
            Peer::Parent
        } else {
            Peer::Child(id)
        };
        let actions = match msg {
            Message::Subscribe(f) => {
                let crc = filter_crc(&f);
                let actions = self.broker.subscribe(from, f);
                let forwards_up = actions
                    .iter()
                    .any(|a| matches!(a, Action::ForwardSubscribe(_)))
                    && self.out.writers.contains_key(&PARENT_ID);
                if forwards_up {
                    self.pending_acks.entry(crc).or_default().push(id);
                } else {
                    self.out.send(id, &Message::<F, F::Event>::SubAck { crc });
                }
                actions
            }
            Message::Unsubscribe(f) => self.broker.unsubscribe(from, &f),
            Message::Publish(e) => {
                // Durable brokers log before fan-out: the record is the
                // encoded event verbatim (already-sealed bytes — the log
                // never sees plaintext). On append failure the event is
                // still delivered live, unstamped.
                let mut stamp = None;
                if let Some(d) = self.durable.as_mut() {
                    d.buf.clear();
                    e.encode(&mut d.buf);
                    match d.log.append(&d.buf) {
                        Ok(cursor) => stamp = Some(cursor),
                        Err(_) => {
                            let failures = &self.out.stats.log_append_failures;
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                let peers = self.broker.route(from, &e);
                let logged = stamp.zip(self.durable.as_mut());
                return self.out.fan_out::<F>(e, peers, logged);
            }
            Message::CatchUp { cursor } => return self.catch_up(id, cursor),
            Message::Hello { kind: 1 } => {
                // Subscriber connections get cursor-stamped deliveries;
                // broker links keep plain Publish.
                if let Some(d) = self.durable.as_mut() {
                    d.client_peers.insert(id);
                }
                return;
            }
            Message::SubAck { crc } if id == PARENT_ID => {
                // Parent confirmed a forwarded filter: release the acks
                // we owe downstream.
                for p in self.pending_acks.remove(&crc).unwrap_or_default() {
                    self.out.send(p, &Message::<F, F::Event>::SubAck { crc });
                }
                return;
            }
            // Brokers never consume the rest; tolerate stray ones.
            Message::Hello { .. }
            | Message::Heartbeat
            | Message::SubAck { .. }
            | Message::ReplayDone { .. }
            | Message::Stamped { .. } => return,
        };
        for action in actions {
            let m: Message<F, F::Event> = match action {
                Action::ForwardSubscribe(f) => Message::Subscribe(f),
                Action::ForwardUnsubscribe(f) => Message::Unsubscribe(f),
                // Publishes fan out through `Broker::route` above.
                Action::Deliver(..) => continue,
            };
            self.out.send(PARENT_ID, &m);
        }
    }

    /// Starts a replay of the log from `cursor` toward subscriber `id`.
    fn catch_up(&mut self, id: u32, cursor: Cursor) {
        let Some(d) = self.durable.as_mut() else {
            // No log on this broker: nothing to replay, tell the
            // subscriber it starts fresh.
            let done: Message<F, F::Event> = Message::ReplayDone {
                outcome: ResumeOutcome::FreshStart.code(),
                cursor: Cursor::default(),
            };
            return self.out.send(id, &done);
        };
        // Only subscribers catch up; a CatchUp also implies the peer
        // wants stamped delivery.
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

    fn peer_gone(&mut self, id: u32) {
        if id != PARENT_ID {
            self.broker.peer_down(Peer::Child(id));
        } else {
            // Without a parent, forwarded subscriptions can never be
            // confirmed; ack them locally so clients don't hang
            // (degraded mode).
            for (crc, peers) in std::mem::take(&mut self.pending_acks) {
                for p in peers {
                    self.out.send(p, &Message::<F, F::Event>::SubAck { crc });
                }
            }
        }
        self.last_heard.remove(&id);
        if let Some(q) = self.out.writers.remove(&id) {
            q.close();
        }
        if let Some(d) = self.durable.as_mut() {
            d.client_peers.remove(&id);
            d.replays.retain(|r| r.peer != id);
        }
    }
}

#[cfg(test)]
mod tests;
