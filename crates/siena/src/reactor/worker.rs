//! Reactor worker: one thread driving many connections.
//!
//! Each worker owns a [`Poller`] plus a map of [`Conn`] state machines
//! and loops over *readiness*, not peers: sleep in the poller until the
//! kernel or a waker has work, drain control messages (new connections,
//! shutdown), then pump the write and read sides of exactly the
//! connections the poller reported — plus those whose last pass stopped
//! at a fairness cap — without ever blocking on a socket. Decoded
//! messages flow to the dispatcher over a channel; dead or finished
//! connections are deregistered and announced as [`Input::PeerGone`].
//! The pool size is fixed at spawn time — the broker's thread count does
//! not grow with its connection count.

use std::collections::HashMap;
use std::net::TcpStream;
use std::os::fd::AsFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, Sender, TryRecvError};

use super::broker::Input;
use super::config::StatsInner;
use super::conn::{Conn, ConnStatus, OutQueue, SCRATCH_BYTES};
use super::poller::{PollWaker, Poller, Readiness};
use crate::semantics::FilterSemantics;
use crate::wire::Wire;

/// Bound on the best-effort final drain at shutdown.
const SHUTDOWN_FLUSH_ROUNDS: usize = 100;

/// Control messages from the acceptor/dispatcher to a worker.
pub(crate) enum WorkerMsg {
    /// Take ownership of an accepted connection under the given token.
    Add(u32, TcpStream, Arc<OutQueue>),
    /// Drop the connection immediately, counting unsent frames — the
    /// eviction path. Flush-then-close (closing the `OutQueue`) can
    /// never finish against a peer that stopped reading, so eviction
    /// needs this hard close or the socket and its queued frames
    /// linger forever.
    Close(u32),
    /// Flush what you can and exit.
    Shutdown,
}

/// The dispatcher's handle to one worker: a control channel plus the
/// waker that ends the worker's wait.
#[derive(Clone)]
pub(crate) struct WorkerHandle {
    pub(crate) tx: Sender<WorkerMsg>,
    pub(crate) waker: PollWaker,
}

impl WorkerHandle {
    /// Hands a connection to the worker and wakes it.
    pub(crate) fn add(&self, id: u32, stream: TcpStream, out: Arc<OutQueue>) {
        let _ = self.tx.send(WorkerMsg::Add(id, stream, out));
        self.waker.wake();
    }

    /// Asks the worker to hard-close a connection (no flush), waking it.
    pub(crate) fn close(&self, id: u32) {
        let _ = self.tx.send(WorkerMsg::Close(id));
        self.waker.wake();
    }

    /// Asks the worker to flush and exit, waking it.
    pub(crate) fn shutdown(&self) {
        let _ = self.tx.send(WorkerMsg::Shutdown);
        self.waker.wake();
    }
}

/// Body of one broker worker thread.
pub(crate) fn run_broker_worker<F>(
    mut poller: Poller,
    rx: Receiver<WorkerMsg>,
    dispatch_tx: Sender<Input<F>>,
    stats: Arc<StatsInner>,
) where
    F: FilterSemantics + Wire,
    F::Event: Wire,
{
    let mut conns: HashMap<u32, Conn> = HashMap::new();
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    let mut ready: Vec<Readiness> = Vec::new();
    // Tokens to pump this pass; those with work left carry over.
    let mut active: Vec<u32> = Vec::new();
    let mut carry: Vec<u32> = Vec::new();
    let mut gone: Vec<(u32, bool)> = Vec::new(); // (token, was_dead)

    loop {
        ready.clear();
        let timeout = if active.is_empty() {
            None
        } else {
            Some(Duration::ZERO)
        };
        if poller.wait(&mut ready, timeout).is_err() {
            // Only a broken epoll set fails here; nothing can wake this
            // worker again, so flush what is queued and stop.
            final_flush(&mut conns);
            return;
        }

        // Control messages after the wait: a wake it consumed announces
        // exactly these.
        loop {
            match rx.try_recv() {
                Ok(WorkerMsg::Add(id, stream, out)) => match Conn::new(stream, out, &poller, id) {
                    Ok(conn) => {
                        conns.insert(id, conn);
                        active.push(id);
                    }
                    Err(_) => {
                        let _ = dispatch_tx.send(Input::PeerGone(id));
                    }
                },
                Ok(WorkerMsg::Close(id)) => {
                    // Dispatcher-initiated eviction: drop the socket now
                    // (closing the fd) and count what never made the
                    // wire. No PeerGone — the dispatcher already removed
                    // its own state for this id.
                    if let Some(conn) = conns.remove(&id) {
                        poller.deregister(conn.as_fd());
                        let unsent = conn.unsent();
                        if unsent > 0 {
                            stats.dropped_frames.fetch_add(unsent, Ordering::Relaxed);
                        }
                    }
                }
                Ok(WorkerMsg::Shutdown) | Err(TryRecvError::Disconnected) => {
                    final_flush(&mut conns);
                    return;
                }
                Err(TryRecvError::Empty) => break,
            }
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
            if conn.wants_write() {
                match conn.pump_writes() {
                    ConnStatus::Dead => {
                        gone.push((id, true));
                        continue;
                    }
                    ConnStatus::Finished => {
                        gone.push((id, false));
                        continue;
                    }
                    ConnStatus::Open => {}
                }
            }
            if conn.readable() {
                let (_, rstatus) = conn.pump_reads::<F>(&mut scratch, &mut |msg| {
                    dispatch_tx.send(Input::FromPeer(id, msg)).is_ok()
                });
                if rstatus == ConnStatus::Dead {
                    gone.push((id, true));
                    continue;
                }
            }
            if conn.has_pending_work() {
                carry.push(id);
            }
        }

        for &(id, was_dead) in &gone {
            if let Some(conn) = conns.remove(&id) {
                poller.deregister(conn.as_fd());
                conn.out.close();
                if was_dead {
                    let unsent = conn.unsent();
                    if unsent > 0 {
                        stats.dropped_frames.fetch_add(unsent, Ordering::Relaxed);
                    }
                }
            }
            let _ = dispatch_tx.send(Input::PeerGone(id));
        }

        active.clear();
        std::mem::swap(&mut active, &mut carry);
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
