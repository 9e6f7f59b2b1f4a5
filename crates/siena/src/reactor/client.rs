//! The client side: many broker connections on one thread.
//!
//! A [`ClientReactor`] owns a single I/O thread hosting any number of
//! client connections as nonblocking state machines. [`TcpClient`]
//! bundles a private reactor with one connection: one thread per
//! client. Scale tests and benches instead share one reactor across
//! hundreds of clients, which is how a single process holds thousands
//! of subscriber connections with a flat thread count.
//!
//! Resilience runs off the reactor's timer wheel, not dedicated
//! threads: heartbeats are appended to the in-flight write batch when
//! due, reconnects run capped exponential backoff with deterministic
//! jitter and replay remembered subscriptions, and a client that hears
//! *nothing* from its broker for
//! `heartbeat_interval × heartbeat_miss_limit` proactively abandons the
//! socket and reconnects, without waiting for a socket error.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsFd;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use super::config::{jitter_step, OverflowPolicy, StatsInner, TcpConfig, TcpStats};
use super::conn::{Conn, ConnStatus, OutQueue, SCRATCH_BYTES};
use super::poller::{PollWaker, Poller, Readiness};
use crate::error::TcpError;
use crate::fault::SeqDedup;
use crate::frame::{FramePool, FramePoolStats, SharedFrame};
use crate::log::{Cursor, ResumeOutcome};
use crate::semantics::FilterSemantics;
use crate::wire::{filter_crc, Message, Wire};

/// Bound on the best-effort final drain at shutdown.
const SHUTDOWN_FLUSH_ROUNDS: usize = 100;

/// Delivered-event channel capacity per connection.
const EVENT_CHANNEL_CAP: usize = 4096;

/// The reactor's end of a connection's delivered-event queue: std's list
/// channel, whose blocks are allocated as events arrive and freed as they
/// are taken, so an idle connection holds no slots. `held` bounds it at
/// [`EVENT_CHANNEL_CAP`] events. The reactor thread is its one producer
/// (this end is not `Clone`): it counts an event in before sending it,
/// and the application counts it out after receiving it, so `held` never
/// reads below the events queued.
struct DeliveryTx<E> {
    tx: mpsc::Sender<E>,
    held: Arc<AtomicUsize>,
}

/// The application's end of a delivered-event queue.
struct DeliveryRx<E> {
    rx: mpsc::Receiver<E>,
    held: Arc<AtomicUsize>,
}

fn delivery_queue<E>() -> (DeliveryTx<E>, DeliveryRx<E>) {
    let (tx, rx) = mpsc::channel();
    let held = Arc::new(AtomicUsize::new(0));
    let tx = DeliveryTx {
        tx,
        held: held.clone(),
    };
    (tx, DeliveryRx { rx, held })
}

impl<E> DeliveryRx<E> {
    fn recv_timeout(&self, timeout: Duration) -> Option<E> {
        let event = self.rx.recv_timeout(timeout).ok()?;
        // `held` publishes nothing: the channel carries the event.
        self.held.fetch_sub(1, Ordering::Relaxed);
        Some(event)
    }
}

impl<E> Drop for DeliveryRx<E> {
    fn drop(&mut self) {
        // Whatever was queued goes with the receiver. An empty count lets
        // the reactor's next delivery reach the channel and see it gone.
        self.held.store(0, Ordering::Relaxed);
    }
}

/// Sequence numbers the client-side dedup window remembers. Bounds the
/// replay/live overlap the exactly-once guarantee absorbs: a catch-up
/// that re-covers more than this many already-delivered events can leak
/// duplicates past the window.
const DEDUP_WINDOW: usize = 4096;

struct Register<F: FilterSemantics> {
    token: u32,
    stream: TcpStream,
    addr: SocketAddr,
    out: Arc<OutQueue>,
    etx: DeliveryTx<F::Event>,
    atx: Sender<u32>,
    rtx: Sender<ResumeOutcome>,
    cursor: Arc<Mutex<Option<Cursor>>>,
    subs: Arc<Mutex<Vec<F>>>,
    down: Arc<AtomicBool>,
    stats: Arc<StatsInner>,
}

/// A single-threaded reactor hosting any number of client connections.
/// Create one with [`ClientReactor::new`] /
/// [`with_config`](ClientReactor::with_config), then mint connections
/// with [`connect`](ClientReactor::connect). Dropping the reactor flushes
/// and stops every connection it hosts.
pub struct ClientReactor<F: FilterSemantics> {
    /// The running I/O thread, or why its poller could not be created
    /// (every `connect` then fails with that error).
    io: std::io::Result<ReactorIo<F>>,
    cfg: TcpConfig,
    pool: FramePool,
    /// Poller token of the next connection.
    next_token: AtomicU32,
}

/// The handles of a running client reactor thread.
struct ReactorIo<F: FilterSemantics> {
    reg_tx: Sender<Register<F>>,
    waker: PollWaker,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl<F: FilterSemantics> std::fmt::Debug for ClientReactor<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ClientReactor { .. }")
    }
}

impl<F> Default for ClientReactor<F>
where
    F: FilterSemantics + Wire + Send + 'static,
    F::Event: Wire + Send + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<F> ClientReactor<F>
where
    F: FilterSemantics + Wire + Send + 'static,
    F::Event: Wire + Send + 'static,
{
    /// A reactor with the default [`TcpConfig`].
    pub fn new() -> Self {
        Self::with_config(TcpConfig::default())
    }

    /// A reactor with explicit transport tuning (shared by every
    /// connection it hosts). If its poller cannot be created, no thread
    /// starts and [`connect`](Self::connect) reports the error.
    pub fn with_config(cfg: TcpConfig) -> Self {
        let pool = FramePool::new();
        let io = Poller::new().map(|poller| {
            let (reg_tx, reg_rx) = unbounded::<Register<F>>();
            let waker = poller.waker();
            let shutdown = Arc::new(AtomicBool::new(false));
            let thread = {
                let shutdown = shutdown.clone();
                let pool = pool.clone();
                // SPAWN-OK: the client reactor's single I/O thread — fixed
                // count one, regardless of how many connections it hosts.
                std::thread::spawn(move || {
                    run_client_reactor::<F>(cfg, poller, reg_rx, shutdown, pool);
                })
            };
            ReactorIo {
                reg_tx,
                waker,
                shutdown,
                thread: Some(thread),
            }
        });
        ClientReactor {
            io,
            cfg,
            pool,
            next_token: AtomicU32::new(0),
        }
    }

    /// Opens a connection to `broker` and hands it to the reactor
    /// thread. The TCP connect and hello handshake happen synchronously
    /// so immediate failures surface here; everything afterwards
    /// (subscription replay on reconnect, heartbeats, backoff) is driven
    /// by the reactor.
    ///
    /// # Errors
    ///
    /// Returns [`TcpError::Io`] when the initial connection fails.
    pub fn connect(&self, broker: SocketAddr) -> Result<ReactorClient<F>, TcpError> {
        self.connect_resuming(broker, None)
    }

    /// Like [`connect`](Self::connect), but seeds the connection with a
    /// delivery cursor from a previous session. Against a durable broker
    /// the client then resumes exactly-once delivery: subscribe, call
    /// [`ReactorClient::catch_up`], and the broker replays the gap since
    /// `resume_from` before live traffic continues. Reconnections after
    /// connection loss present the current cursor automatically.
    ///
    /// # Errors
    ///
    /// Returns [`TcpError::Io`] when the initial connection fails or the
    /// reactor's poller could not be created.
    pub fn connect_resuming(
        &self,
        broker: SocketAddr,
        resume_from: Option<Cursor>,
    ) -> Result<ReactorClient<F>, TcpError> {
        let io = self
            .io
            .as_ref()
            .map_err(|e| TcpError::Io(std::io::Error::new(e.kind(), e.to_string())))?;
        let stream =
            TcpStream::connect_timeout(&broker, self.cfg.connect_timeout).map_err(TcpError::Io)?;
        stream.set_nodelay(true).ok();
        let mut hs = stream.try_clone().map_err(TcpError::Io)?;
        let hello: Message<F, F::Event> = Message::Hello { kind: 1 };
        self.pool
            .encode(&hello)
            .write_to(&mut hs)
            .map_err(TcpError::Io)?;

        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let out = OutQueue::new(self.cfg.queue_capacity, token, io.waker.clone());
        let (etx, erx) = delivery_queue::<F::Event>();
        let (atx, arx) = unbounded::<u32>();
        let (rtx, rrx) = unbounded::<ResumeOutcome>();
        let cursor: Arc<Mutex<Option<Cursor>>> = Arc::new(Mutex::new(resume_from));
        let subs: Arc<Mutex<Vec<F>>> = Arc::new(Mutex::new(Vec::new()));
        let down = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsInner::default());
        let reg = Register {
            token,
            stream,
            addr: broker,
            out: out.clone(),
            etx,
            atx,
            rtx,
            cursor: cursor.clone(),
            subs: subs.clone(),
            down: down.clone(),
            stats: stats.clone(),
        };
        io.reg_tx.send(reg).map_err(|_| TcpError::Disconnected)?;
        io.waker.wake();
        Ok(ReactorClient {
            out,
            events: erx,
            acks: arx,
            resume: rrx,
            cursor,
            subs,
            down,
            stats,
            pool: self.pool.clone(),
            overflow: self.cfg.overflow,
            waker: io.waker.clone(),
        })
    }
}

impl<F: FilterSemantics> Drop for ClientReactor<F> {
    fn drop(&mut self) {
        if let Ok(io) = &mut self.io {
            io.shutdown.store(true, Ordering::SeqCst);
            io.waker.wake();
            if let Some(t) = io.thread.take() {
                let _ = t.join();
            }
        }
    }
}

/// One client connection hosted by a [`ClientReactor`]: subscribe and
/// publish over TCP, receive matching events. Reconnects automatically
/// (replaying its subscriptions) when the broker connection is lost.
/// Dropping the handle flushes queued frames and closes the connection.
pub struct ReactorClient<F: FilterSemantics> {
    out: Arc<OutQueue>,
    events: DeliveryRx<F::Event>,
    acks: Receiver<u32>,
    resume: Receiver<ResumeOutcome>,
    cursor: Arc<Mutex<Option<Cursor>>>,
    subs: Arc<Mutex<Vec<F>>>,
    down: Arc<AtomicBool>,
    stats: Arc<StatsInner>,
    pool: FramePool,
    overflow: OverflowPolicy,
    waker: PollWaker,
}

impl<F: FilterSemantics> std::fmt::Debug for ReactorClient<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReactorClient { .. }")
    }
}

impl<F> ReactorClient<F>
where
    F: FilterSemantics + Wire + Send + 'static,
    F::Event: Wire + Send + 'static,
{
    fn enqueue(&self, frame: SharedFrame) -> Result<(), TcpError> {
        if self.down.load(Ordering::SeqCst) {
            return Err(TcpError::Disconnected);
        }
        match self.overflow {
            OverflowPolicy::Block => {
                self.out.push_blocking(frame, &self.down)?;
                self.waker.wake();
                Ok(())
            }
            OverflowPolicy::DropNewest => {
                if self.out.offer(frame) {
                    self.waker.wake();
                    Ok(())
                } else if self.out.is_closed() {
                    Err(TcpError::Disconnected)
                } else {
                    self.stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
                    Err(TcpError::Backpressure)
                }
            }
        }
    }

    /// Registers a subscription. The filter is also remembered for
    /// replay after a reconnection.
    ///
    /// # Errors
    ///
    /// [`TcpError::Disconnected`] when the transport has given up;
    /// [`TcpError::Backpressure`] under [`OverflowPolicy::DropNewest`]
    /// with a full queue.
    pub fn subscribe(&self, filter: F) -> Result<(), TcpError> {
        let msg: Message<F, F::Event> = Message::Subscribe(filter.clone());
        self.subs.lock().push(filter);
        self.enqueue(self.pool.encode(&msg))
    }

    /// Registers a subscription and waits (up to `timeout`) for the
    /// broker chain to acknowledge that it is installed — the readiness
    /// handshake used by tests instead of sleeping.
    ///
    /// # Errors
    ///
    /// [`TcpError::Timeout`] when no ack arrives in time; otherwise as
    /// [`subscribe`](Self::subscribe).
    pub fn subscribe_acked(&self, filter: F, timeout: Duration) -> Result<(), TcpError> {
        let crc = filter_crc(&filter);
        self.subscribe(filter)?;
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(TcpError::Timeout(timeout));
            }
            match self.acks.recv_timeout(left) {
                Ok(c) if c == crc => return Ok(()),
                Ok(_) => continue, // ack for an earlier subscription
                Err(RecvTimeoutError::Timeout) => return Err(TcpError::Timeout(timeout)),
                Err(RecvTimeoutError::Disconnected) => return Err(TcpError::Disconnected),
            }
        }
    }

    /// Removes a subscription (and stops replaying it on reconnect).
    ///
    /// # Errors
    ///
    /// As [`subscribe`](Self::subscribe).
    pub fn unsubscribe(&self, filter: &F) -> Result<(), TcpError> {
        self.subs.lock().retain(|f| f != filter);
        let msg: Message<F, F::Event> = Message::Unsubscribe(filter.clone());
        self.enqueue(self.pool.encode(&msg))
    }

    /// Publishes an event. Delivery is at-most-once across connection
    /// loss: frames queued while disconnected are sent after reconnect,
    /// but a frame lost inside a dying socket is not replayed.
    ///
    /// # Errors
    ///
    /// As [`subscribe`](Self::subscribe).
    pub fn publish(&self, event: F::Event) -> Result<(), TcpError> {
        let msg: Message<F, F::Event> = Message::Publish(event);
        self.enqueue(self.pool.encode(&msg))
    }

    /// Waits up to `timeout` for the next delivered event.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<F::Event> {
        self.events.recv_timeout(timeout)
    }

    /// Asks a durable broker to replay the gap since this client's
    /// current cursor (everything, classified `FreshStart`, when there
    /// is none yet). Call after registering subscriptions — replay is
    /// filtered against them. The classification arrives via
    /// [`recv_resume`](Self::recv_resume) once the replay completes;
    /// reconnections after connection loss repeat this automatically.
    ///
    /// # Errors
    ///
    /// As [`subscribe`](Self::subscribe).
    pub fn catch_up(&self) -> Result<(), TcpError> {
        let cursor = (*self.cursor.lock()).unwrap_or_default();
        let msg: Message<F, F::Event> = Message::CatchUp { cursor };
        self.enqueue(self.pool.encode(&msg))
    }

    /// The last contiguously delivered `(epoch, seq)` cursor — persist
    /// it and pass to [`ClientReactor::connect_resuming`] to survive a
    /// process restart. `None` until the first stamped delivery.
    pub fn cursor(&self) -> Option<Cursor> {
        *self.cursor.lock()
    }

    /// Waits up to `timeout` for the next resume classification: how the
    /// broker resolved this client's cursor after a catch-up request or
    /// reconnection ([`ResumeOutcome::ContinuedAtCursor`], gap truncated
    /// by retention, or fresh start).
    pub fn recv_resume(&self, timeout: Duration) -> Option<ResumeOutcome> {
        self.resume.recv_timeout(timeout).ok()
    }

    /// Transport counters (reconnects, drops, heartbeats).
    pub fn stats(&self) -> TcpStats {
        self.stats.snapshot()
    }

    /// Frame-pool counters for the reactor's outbound encode path.
    // DEAD-PUB-OK: observer of encode-once fan-out (tcp_transport.rs)
    pub fn pool_stats(&self) -> FramePoolStats {
        self.pool.stats()
    }
}

impl<F: FilterSemantics> Drop for ReactorClient<F> {
    fn drop(&mut self) {
        // Flush-then-close: the reactor drains what is queued, then
        // finishes the connection.
        self.out.close();
        self.waker.wake();
    }
}

/// The TCP client: a [`ReactorClient`] (to which it dereferences)
/// bundled with a private single-connection [`ClientReactor`] — one OS
/// thread per client.
pub struct TcpClient<F: FilterSemantics> {
    // Declaration order matters: the connection handle must drop (and
    // close its queue) before the reactor joins its thread.
    client: ReactorClient<F>,
    _reactor: ClientReactor<F>,
}

impl<F: FilterSemantics> std::fmt::Debug for TcpClient<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TcpClient { .. }")
    }
}

impl<F: FilterSemantics> std::ops::Deref for TcpClient<F> {
    type Target = ReactorClient<F>;

    fn deref(&self) -> &ReactorClient<F> {
        &self.client
    }
}

impl<F> TcpClient<F>
where
    F: FilterSemantics + Wire + Send + 'static,
    F::Event: Wire + Send + 'static,
{
    /// Connects with the default [`TcpConfig`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the initial connection.
    pub fn connect(broker: SocketAddr) -> std::io::Result<Self> {
        Self::connect_with(broker, TcpConfig::default()).map_err(|e| match e {
            TcpError::Io(io) => io,
            other => std::io::Error::other(other.to_string()),
        })
    }

    /// Connects with explicit transport tuning. The initial connection
    /// is established synchronously (so immediate failures surface
    /// here); later losses are handled by background reconnection.
    ///
    /// # Errors
    ///
    /// Returns [`TcpError::Io`] when the initial connection fails.
    pub fn connect_with(broker: SocketAddr, cfg: TcpConfig) -> Result<Self, TcpError> {
        Self::connect_resuming(broker, cfg, None)
    }

    /// Connects with a delivery cursor carried over from a previous
    /// session — see [`ClientReactor::connect_resuming`].
    ///
    /// # Errors
    ///
    /// Returns [`TcpError::Io`] when the initial connection fails.
    pub fn connect_resuming(
        broker: SocketAddr,
        cfg: TcpConfig,
        resume_from: Option<Cursor>,
    ) -> Result<Self, TcpError> {
        let reactor = ClientReactor::<F>::with_config(cfg);
        let client = reactor.connect_resuming(broker, resume_from)?;
        Ok(TcpClient {
            client,
            _reactor: reactor,
        })
    }
}

enum CState {
    Connected(Conn),
    Backoff { until: Instant, attempt: u32 },
    Gone,
}

struct Slot<F: FilterSemantics> {
    /// Poller token; a reconnected socket is registered under it again.
    token: u32,
    addr: SocketAddr,
    out: Arc<OutQueue>,
    etx: DeliveryTx<F::Event>,
    atx: Sender<u32>,
    rtx: Sender<ResumeOutcome>,
    cursor: Arc<Mutex<Option<Cursor>>>,
    dedup: SeqDedup,
    dedup_epoch: u32,
    subs: Arc<Mutex<Vec<F>>>,
    down: Arc<AtomicBool>,
    stats: Arc<StatsInner>,
    state: CState,
    hb_due: Instant,
    last_heard: Instant,
    jitter: u64,
}

fn backoff_delay(cfg: &TcpConfig, jitter: &mut u64, attempt: u32) -> Duration {
    let base = cfg
        .reconnect_initial
        .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
        .min(cfg.reconnect_max);
    base + jitter_step(jitter, base)
}

/// Silence from the broker past which a connected client reconnects.
fn miss_window(cfg: &TcpConfig) -> Duration {
    cfg.heartbeat_interval * cfg.heartbeat_miss_limit.max(1)
}

/// The slot's next timer: heartbeat due or heartbeat-miss deadline while
/// connected (heartbeats on), reconnect attempt while backing off.
fn slot_deadline<F: FilterSemantics>(slot: &Slot<F>, cfg: &TcpConfig) -> Option<Instant> {
    match slot.state {
        CState::Connected(_) if !cfg.heartbeat_interval.is_zero() => {
            Some(slot.hb_due.min(slot.last_heard + miss_window(cfg)))
        }
        CState::Backoff { until, .. } => Some(until),
        _ => None,
    }
}

fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

fn run_client_reactor<F>(
    cfg: TcpConfig,
    mut poller: Poller,
    reg_rx: Receiver<Register<F>>,
    shutdown: Arc<AtomicBool>,
    pool: FramePool,
) where
    F: FilterSemantics + Wire + Send + 'static,
    F::Event: Wire + Send + 'static,
{
    let hb_frame = pool.encode(&Message::<F, F::Event>::Heartbeat);
    let mut slots: HashMap<u32, Slot<F>> = HashMap::new();
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    let mut ready: Vec<Readiness> = Vec::new();
    // Tokens to step this pass; connections with work left carry over.
    let mut active: Vec<u32> = Vec::new();
    let mut carry: Vec<u32> = Vec::new();
    // Never later than the nearest `slot_deadline`: every slot that is
    // stepped folds its new deadline in, and reaching it rescans them all.
    let mut next_due: Option<Instant> = None;

    loop {
        ready.clear();
        let timeout = if active.is_empty() {
            next_due.map(|due| due.saturating_duration_since(Instant::now()))
        } else {
            Some(Duration::ZERO)
        };
        if poller.wait(&mut ready, timeout).is_err() || shutdown.load(Ordering::SeqCst) {
            final_flush(&mut slots);
            return;
        }
        while let Ok(reg) = reg_rx.try_recv() {
            let token = reg.token;
            slots.insert(token, new_slot(reg, &cfg, &poller));
            active.push(token);
        }
        for r in &ready {
            if let Some(slot) = slots.get_mut(&r.token) {
                if let CState::Connected(conn) = &mut slot.state {
                    conn.note(*r);
                }
                active.push(r.token);
            }
        }
        let now = Instant::now();
        if next_due.is_some_and(|due| due <= now) {
            next_due = None;
            for (&token, slot) in &slots {
                match slot_deadline(slot, &cfg) {
                    Some(due) if due <= now => active.push(token),
                    due => next_due = earliest(next_due, due),
                }
            }
        }
        active.sort_unstable();
        active.dedup();

        for &token in &active {
            let Some(slot) = slots.get_mut(&token) else {
                continue;
            };
            step_slot(slot, &cfg, &hb_frame, &pool, &mut scratch, &poller);
            next_due = earliest(next_due, slot_deadline(slot, &cfg));
            match &slot.state {
                CState::Gone => {
                    slots.remove(&token);
                }
                CState::Connected(conn) if conn.has_pending_work() => carry.push(token),
                _ => {}
            }
        }
        active.clear();
        std::mem::swap(&mut active, &mut carry);
    }
}

/// A slot for a freshly registered connection: connected and
/// registered with the poller, or — if the socket is already unusable —
/// backing off toward an immediate reconnect.
fn new_slot<F: FilterSemantics>(reg: Register<F>, cfg: &TcpConfig, poller: &Poller) -> Slot<F> {
    let now = Instant::now();
    let jitter = cfg.jitter_seed ^ u64::from(reg.addr.port());
    let state = match Conn::new(reg.stream, reg.out.clone(), poller, reg.token) {
        Ok(conn) => CState::Connected(conn),
        Err(_) => CState::Backoff {
            until: now,
            attempt: 1,
        },
    };
    let dedup_epoch = reg.cursor.lock().map_or(0, |c| c.epoch);
    Slot {
        token: reg.token,
        addr: reg.addr,
        out: reg.out,
        etx: reg.etx,
        atx: reg.atx,
        rtx: reg.rtx,
        cursor: reg.cursor,
        dedup: SeqDedup::new(DEDUP_WINDOW),
        dedup_epoch,
        subs: reg.subs,
        down: reg.down,
        stats: reg.stats,
        state,
        hb_due: now + cfg.heartbeat_interval,
        last_heard: now,
        jitter,
    }
}

/// Advances one connection's state machine: a due reconnect or
/// heartbeat, the write and read pumps the connection's readiness calls
/// for, and the heartbeat-miss check.
fn step_slot<F>(
    slot: &mut Slot<F>,
    cfg: &TcpConfig,
    hb_frame: &SharedFrame,
    pool: &FramePool,
    scratch: &mut [u8],
    poller: &Poller,
) where
    F: FilterSemantics + Wire + Send + 'static,
    F::Event: Wire + Send + 'static,
{
    let hb_on = !cfg.heartbeat_interval.is_zero();
    let now = Instant::now();
    match &mut slot.state {
        CState::Gone => {}
        CState::Backoff { until, attempt: _ } => {
            if slot.out.is_closed() {
                // Handle dropped while disconnected: queued frames can
                // never be sent.
                let stranded = slot.out.len() as u64;
                if stranded > 0 {
                    slot.stats
                        .dropped_frames
                        .fetch_add(stranded, Ordering::Relaxed);
                }
                slot.state = CState::Gone;
                return;
            }
            if now < *until {
                return;
            }
            match TcpStream::connect_timeout(&slot.addr, cfg.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    match Conn::new(stream, slot.out.clone(), poller, slot.token) {
                        Ok(mut conn) => {
                            // Handshake rides the write batch: hello,
                            // then every remembered subscription, then —
                            // with a cursor to resume from — a CatchUp.
                            // Subscriptions must precede the CatchUp so
                            // the broker's replay filters against them.
                            let hello: Message<F, F::Event> = Message::Hello { kind: 1 };
                            let mut preload = vec![pool.encode(&hello)];
                            for f in slot.subs.lock().iter() {
                                let m: Message<F, F::Event> = Message::Subscribe(f.clone());
                                preload.push(pool.encode(&m));
                            }
                            match *slot.cursor.lock() {
                                Some(c) => {
                                    let m: Message<F, F::Event> = Message::CatchUp { cursor: c };
                                    preload.push(pool.encode(&m));
                                }
                                None => {
                                    // No cursor yet: nothing to replay.
                                    // Surface the reset instead of
                                    // silently starting fresh.
                                    let _ = slot.rtx.send(ResumeOutcome::FreshStart);
                                }
                            }
                            conn.preload(preload);
                            slot.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                            slot.last_heard = now;
                            slot.hb_due = now + cfg.heartbeat_interval;
                            slot.state = CState::Connected(conn);
                        }
                        Err(_) => fail_attempt(slot, cfg, now),
                    }
                }
                Err(_) => fail_attempt(slot, cfg, now),
            }
        }
        CState::Connected(conn) => {
            if hb_on && now >= slot.hb_due {
                conn.push_direct(hb_frame.clone());
                slot.stats.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
                slot.hb_due = now + cfg.heartbeat_interval;
            }
            if conn.wants_write() {
                match conn.pump_writes() {
                    ConnStatus::Dead => {
                        disconnect(slot, cfg, now, poller);
                        return;
                    }
                    ConnStatus::Finished => {
                        poller.deregister(conn.as_fd());
                        slot.state = CState::Gone;
                        return;
                    }
                    ConnStatus::Open => {}
                }
            }
            if !conn.readable() {
                miss_check(slot, cfg, now, poller);
                return;
            }
            let etx = &slot.etx;
            let atx = &slot.atx;
            let rtx = &slot.rtx;
            let stats = &slot.stats;
            let cursor = &slot.cursor;
            let dedup = &mut slot.dedup;
            let dedup_epoch = &mut slot.dedup_epoch;
            let (rp, rstatus) = conn.pump_reads::<F>(scratch, &mut |msg| match msg {
                // Never block the reactor thread on a consumer: one app
                // thread that stops draining recv must not stall I/O,
                // heartbeats, and reconnects for every other connection
                // this reactor hosts. A full channel drops the delivery
                // and counts it instead.
                Message::Publish(e) => deliver_event(etx, stats, e),
                Message::Stamped { cursor: at, event } => {
                    if at.epoch != *dedup_epoch {
                        // New broker log epoch: the old window and
                        // cursor describe a log that no longer exists.
                        dedup.clear();
                        *dedup_epoch = at.epoch;
                        let mut cur = cursor.lock();
                        if cur.is_none_or(|c| c.epoch != at.epoch) {
                            *cur = None;
                        }
                    }
                    let fresh = dedup.first_seen(at.seq);
                    {
                        // The cursor only ever advances contiguously:
                        // a gap (dropped frame) freezes it so the next
                        // catch-up replays from the last sure point,
                        // and the dedup window absorbs the overlap.
                        let mut cur = cursor.lock();
                        match &mut *cur {
                            Some(c) if c.epoch == at.epoch => {
                                if at.seq == c.seq + 1 {
                                    c.seq = at.seq;
                                }
                            }
                            _ => *cur = Some(at),
                        }
                    }
                    if fresh {
                        deliver_event(etx, stats, event)
                    } else {
                        stats.duplicates_suppressed.fetch_add(1, Ordering::Relaxed);
                        true
                    }
                }
                Message::ReplayDone {
                    outcome,
                    cursor: done,
                } => {
                    if done.epoch != *dedup_epoch {
                        dedup.clear();
                        *dedup_epoch = done.epoch;
                    }
                    {
                        let mut cur = cursor.lock();
                        match &*cur {
                            Some(c) if c.epoch == done.epoch && done.seq <= c.seq => {}
                            _ => *cur = Some(done),
                        }
                    }
                    if let Some(oc) = ResumeOutcome::from_code(outcome) {
                        let _ = rtx.send(oc);
                    }
                    true
                }
                Message::SubAck { crc } => {
                    let _ = atx.send(crc);
                    true
                }
                _ => true, // heartbeats, hellos
            });
            if rp {
                slot.last_heard = now;
            }
            if rstatus == ConnStatus::Dead {
                disconnect(slot, cfg, now, poller);
            } else {
                miss_check(slot, cfg, now, poller);
            }
        }
    }
}

/// Broker silent past the miss limit: abandon the socket and reconnect
/// rather than waiting for a TCP error.
fn miss_check<F: FilterSemantics>(
    slot: &mut Slot<F>,
    cfg: &TcpConfig,
    now: Instant,
    poller: &Poller,
) {
    if !cfg.heartbeat_interval.is_zero() && now.duration_since(slot.last_heard) > miss_window(cfg) {
        disconnect(slot, cfg, now, poller);
    }
}

/// Hands a received event to the application channel without ever
/// blocking the reactor thread: a full channel drops and counts. Returns
/// `false` once the application's end is gone.
fn deliver_event<E>(etx: &DeliveryTx<E>, stats: &StatsInner, event: E) -> bool {
    if etx.held.load(Ordering::Relaxed) >= EVENT_CHANNEL_CAP {
        stats.dropped_deliveries.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    etx.held.fetch_add(1, Ordering::Relaxed);
    etx.tx.send(event).is_ok()
}

/// Connection died: deregister its socket, count frames lost in the
/// in-flight batch, then either finish (handle gone) or enter backoff.
/// Queued frames survive for the next epoch.
fn disconnect<F: FilterSemantics>(
    slot: &mut Slot<F>,
    cfg: &TcpConfig,
    now: Instant,
    poller: &Poller,
) {
    if let CState::Connected(conn) = &slot.state {
        poller.deregister(conn.as_fd());
        let lost = conn.batched_unsent();
        if lost > 0 {
            slot.stats.dropped_frames.fetch_add(lost, Ordering::Relaxed);
        }
    }
    if slot.out.is_closed() {
        slot.state = CState::Gone;
        return;
    }
    let delay = backoff_delay(cfg, &mut slot.jitter, 1);
    slot.state = CState::Backoff {
        until: now + delay,
        attempt: 1,
    };
}

/// A reconnect attempt failed: schedule the next one or give up.
fn fail_attempt<F: FilterSemantics>(slot: &mut Slot<F>, cfg: &TcpConfig, now: Instant) {
    let CState::Backoff { attempt, .. } = slot.state else {
        return;
    };
    let next = attempt + 1;
    if next > cfg.max_reconnect_attempts {
        // Transport gives up: fail pending and future sends.
        slot.down.store(true, Ordering::SeqCst);
        slot.out.close();
        let stranded = slot.out.len() as u64;
        if stranded > 0 {
            slot.stats
                .dropped_frames
                .fetch_add(stranded, Ordering::Relaxed);
        }
        slot.state = CState::Gone;
        return;
    }
    let delay = backoff_delay(cfg, &mut slot.jitter, next);
    slot.state = CState::Backoff {
        until: now + delay,
        attempt: next,
    };
}

/// Best-effort bounded drain of every live connection at reactor
/// shutdown.
fn final_flush<F: FilterSemantics>(slots: &mut HashMap<u32, Slot<F>>) {
    for _ in 0..SHUTDOWN_FLUSH_ROUNDS {
        let mut pending = false;
        for slot in slots.values_mut() {
            if let CState::Connected(conn) = &mut slot.state {
                let status = conn.pump_writes();
                if status == ConnStatus::Open && conn.unsent() > 0 {
                    pending = true;
                }
            }
        }
        if !pending {
            return;
        }
        // BLOCKING-OK: shutdown-only bounded drain; the event loop has
        // already exited, so there is no reactor left to stall.
        std::thread::sleep(Duration::from_millis(1));
    }
}
