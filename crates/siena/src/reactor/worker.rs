//! Reactor worker: one thread driving many connections.
//!
//! Each worker owns a [`Poller`] plus a map of [`Conn`] state machines
//! and loops over *readiness*, not peers: sleep in the poller until the
//! kernel, a waker or a timer has work, then pump the write and read
//! sides of exactly the connections the poller reported — plus those
//! whose last pass stopped at a fairness cap — without ever blocking on
//! a socket. The pool size is fixed at spawn time — the broker's thread
//! count does not grow with its connection count.
//!
//! Worker 0 is also the dispatcher ([`Role::Dispatch`]): its poller
//! carries the listener, it handles its own connections' messages
//! inline, drains the inbox the other workers feed, and takes its ticks
//! from the poller's timeout. Workers 1..N ([`Role::Forward`]) send
//! decoded messages and finished connections to that inbox, and wake
//! worker 0 once per pass.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::broker::{Dispatch, Input, DISPATCH_BATCH, PARENT_ID};
use super::config::StatsInner;
use super::conn::{Conn, ConnStatus, OutQueue, SCRATCH_BYTES};
use super::poller::{PollWaker, Poller, Readiness};
use crate::index::IndexableFilter;
use crate::wire::Wire;

/// Bound on the best-effort final drain at shutdown.
const SHUTDOWN_FLUSH_ROUNDS: usize = 100;

/// The listener's token in worker 0's poller. Peer ids count up from 1
/// (0 is the parent) and the waker's eventfd has a data word outside the
/// `u32` range, so no connection takes this one.
pub(crate) const LISTENER: u32 = u32::MAX;

/// Control messages from worker 0 to the other workers. A worker whose
/// channel disconnects flushes what it can and exits.
pub(crate) enum WorkerMsg {
    /// Take ownership of an accepted connection under the given token.
    Add(u32, TcpStream, Arc<OutQueue>),
    /// Drop the connection immediately, counting unsent frames — the
    /// eviction path. Flush-then-close (closing the `OutQueue`) can
    /// never finish against a peer that stopped reading, so eviction
    /// needs this hard close or the socket and its queued frames
    /// linger forever.
    Close(u32),
}

/// What a worker does besides driving its connections.
pub(crate) enum Role<F: IndexableFilter> {
    /// Worker 0: accepts, dispatches inline, runs the timers. `parent`
    /// is the upward link, registered at spawn.
    Dispatch {
        dispatch: Box<Dispatch<F>>,
        listener: TcpListener,
        inbox: Receiver<Input<F>>,
        parent: Option<Conn>,
        shutdown: Arc<AtomicBool>,
    },
    /// Workers 1..N: take control messages, forward inputs to worker 0.
    Forward {
        rx: Receiver<WorkerMsg>,
        inbox: Sender<Input<F>>,
        dispatcher: PollWaker,
    },
}

/// Body of one broker worker thread.
pub(crate) fn run_broker_worker<F>(mut poller: Poller, mut role: Role<F>, stats: Arc<StatsInner>)
where
    F: IndexableFilter + Wire + Send + 'static,
    F::Event: Wire + Send + Eq,
{
    let mut conns: HashMap<u32, Conn> = HashMap::new();
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    let mut ready: Vec<Readiness> = Vec::new();
    // Tokens to pump this pass; those with work left carry over.
    let mut active: Vec<u32> = Vec::new();
    let mut carry: Vec<u32> = Vec::new();
    let mut gone: Vec<u32> = Vec::new();
    if let Role::Dispatch { parent, .. } = &mut role {
        conns.extend(parent.take().map(|conn| (PARENT_ID, conn)));
        active.extend(conns.keys());
    }
    let mut now = Instant::now();
    // Worker 0: work no edge or wake will announce — a full inbox batch,
    // or frames offered to its own queues this pass (`mark` does not
    // wake, and `wait` collects marks only after `epoll_wait` returns).
    let mut busy = false;

    'run: loop {
        ready.clear();
        let timeout = match &role {
            _ if busy || !active.is_empty() => Some(Duration::ZERO),
            Role::Dispatch { dispatch, .. } => dispatch
                .next_due()
                .map(|due| due.saturating_duration_since(now)),
            Role::Forward { .. } => None,
        };
        // Only a broken epoll set fails here; nothing can wake this
        // worker again, so flush what is queued and stop.
        if poller.wait(&mut ready, timeout).is_err() {
            break;
        }
        now = Instant::now();

        // Cross-thread inputs after the wait: a wake it consumed
        // announces exactly these. Forwarders count what they send, to
        // wake worker 0 once per pass.
        let mut drained = 0;
        let mut sent = 0;
        match &mut role {
            Role::Dispatch {
                dispatch: d,
                listener,
                inbox,
                shutdown,
                ..
            } => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if ready.iter().any(|r| r.token == LISTENER) {
                    while let Some(stream) = accept(listener) {
                        // Shard 0's connections come back to register here.
                        let Some((id, stream, out)) = d.admit(stream, now) else {
                            continue;
                        };
                        match Conn::new(stream, out, &poller, id) {
                            Ok(conn) => {
                                conns.insert(id, conn);
                                active.push(id);
                            }
                            Err(_) => d.handle(Input::PeerGone(id), now),
                        }
                    }
                }
                while drained < DISPATCH_BATCH {
                    let Ok(input) = inbox.try_recv() else { break };
                    d.handle(input, now);
                    drained += 1;
                }
            }
            Role::Forward { rx, inbox, .. } => loop {
                match rx.try_recv() {
                    Ok(WorkerMsg::Add(id, stream, out)) => {
                        match Conn::new(stream, out, &poller, id) {
                            Ok(conn) => {
                                conns.insert(id, conn);
                                active.push(id);
                            }
                            Err(_) => sent += usize::from(inbox.send(Input::PeerGone(id)).is_ok()),
                        }
                    }
                    Ok(WorkerMsg::Close(id)) => close(&mut conns, &poller, &stats, id),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => break 'run,
                }
            },
        }

        for r in &ready {
            if let Some(conn) = conns.get_mut(&r.token) {
                conn.note(*r);
                active.push(r.token);
            }
        }
        active.sort_unstable();
        active.dedup();
        gone.clear();

        for &id in &active {
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if conn.wants_write() && conn.pump_writes() != ConnStatus::Open {
                gone.push(id);
                continue;
            }
            if conn.readable() {
                let (_, rstatus) = conn.pump_reads::<F>(&mut scratch, &mut |msg| {
                    deliver(&mut role, Input::FromPeer(id, msg), now, &mut sent)
                });
                if rstatus == ConnStatus::Dead {
                    gone.push(id);
                    continue;
                }
            }
            if conn.has_pending_work() {
                carry.push(id);
            }
        }

        // A finished connection flushed everything, so only a dead one
        // counts dropped frames here.
        for &id in &gone {
            close(&mut conns, &poller, &stats, id);
            deliver(&mut role, Input::PeerGone(id), now, &mut sent);
        }

        active.clear();
        std::mem::swap(&mut active, &mut carry);

        match &mut role {
            Role::Dispatch { dispatch: d, .. } => {
                if d.pump_replays(now) {
                    d.replayed_until(Instant::now());
                }
                for id in d.tick(now) {
                    close(&mut conns, &poller, &stats, id);
                }
                busy = d.wake_dirty() || drained == DISPATCH_BATCH;
            }
            Role::Forward { dispatcher, .. } if sent > 0 => dispatcher.wake(),
            Role::Forward { .. } => {}
        }
    }

    if let Role::Dispatch { dispatch, .. } = &mut role {
        dispatch.close_all();
    }
    final_flush(&mut conns);
}

/// The next pending connection, or `None` once the listener's backlog is
/// drained (`WouldBlock`). Any other failure — out of descriptors — also
/// ends this edge; the next connection raises a new one. An interrupted
/// call, or a connection reset before it was accepted, is retried.
fn accept(listener: &TcpListener) -> Option<TcpStream> {
    loop {
        match listener.accept().map_err(|e| e.kind()) {
            Ok((stream, _)) => return Some(stream),
            Err(ErrorKind::Interrupted | ErrorKind::ConnectionAborted) => {}
            Err(_) => return None,
        }
    }
}

/// Hands one input to dispatch: inline on worker 0, through the inbox
/// on the others (counted in `sent`). `false`: worker 0 is gone.
fn deliver<F>(role: &mut Role<F>, input: Input<F>, now: Instant, sent: &mut usize) -> bool
where
    F: IndexableFilter + Wire,
    F::Event: Wire + Eq,
{
    match role {
        Role::Dispatch { dispatch, .. } => {
            dispatch.handle(input, now);
            true
        }
        Role::Forward { inbox, .. } => {
            let ok = inbox.send(input).is_ok();
            *sent += usize::from(ok);
            ok
        }
    }
}

/// Drops a connection now (closing its queue and its fd) and counts
/// what never made the wire.
fn close(conns: &mut HashMap<u32, Conn>, poller: &Poller, stats: &StatsInner, id: u32) {
    if let Some(conn) = conns.remove(&id) {
        poller.deregister(conn.as_fd());
        conn.out.close();
        stats
            .dropped_frames
            .fetch_add(conn.unsent(), Ordering::Relaxed);
    }
}

/// Best-effort bounded drain of every connection's remaining frames at
/// shutdown — sockets close when `conns` drops.
fn final_flush(conns: &mut HashMap<u32, Conn>) {
    for _ in 0..SHUTDOWN_FLUSH_ROUNDS {
        let mut pending = false;
        for conn in conns.values_mut() {
            let status = conn.pump_writes();
            if status == ConnStatus::Open && conn.unsent() > 0 {
                pending = true;
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
