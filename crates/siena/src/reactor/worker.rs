//! Reactor worker: one thread driving many connections.
//!
//! Each worker owns a [`ScanPoller`] plus a map of [`Conn`] state machines
//! and loops over *readiness*, not peers: drain control messages (new
//! connections, shutdown), ask the poller which tokens may be
//! actionable, and pump each one's write then read side without ever
//! blocking on a socket. Decoded messages flow to the dispatcher over a
//! channel; dead or finished connections are deregistered and announced
//! as [`Input::PeerGone`]. The pool size is fixed at spawn time — the
//! broker's thread count does not grow with its connection count.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, Sender, TryRecvError};

use super::broker::Input;
use super::config::StatsInner;
use super::conn::{Conn, ConnStatus, OutQueue};
use super::poller::{PollWaker, ScanPoller};
use crate::semantics::FilterSemantics;
use crate::wire::Wire;

/// Shared read scratch size per worker (one buffer serves every
/// connection the worker drives — per-connection memory stays flat).
const SCRATCH_BYTES: usize = 64 * 1024;

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
/// waker that cuts the worker's idle park short.
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
    mut poller: ScanPoller,
    rx: Receiver<WorkerMsg>,
    dispatch_tx: Sender<Input<F>>,
    stats: Arc<StatsInner>,
) where
    F: FilterSemantics + Wire,
    F::Event: Wire,
{
    let mut conns: HashMap<u32, Conn> = HashMap::new();
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    let mut ready: Vec<u32> = Vec::new();
    let mut gone: Vec<(u32, bool)> = Vec::new(); // (token, was_dead)

    loop {
        loop {
            match rx.try_recv() {
                Ok(WorkerMsg::Add(id, stream, out)) => match Conn::new(stream, out) {
                    Ok(conn) => {
                        conns.insert(id, conn);
                        poller.register(id);
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
                    poller.deregister(id);
                    if let Some(conn) = conns.remove(&id) {
                        let unsent = conn.unsent();
                        if unsent > 0 {
                            stats
                                .dropped_frames
                                .fetch_add(unsent, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
                Ok(WorkerMsg::Shutdown) => {
                    final_flush(&mut conns);
                    return;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    final_flush(&mut conns);
                    return;
                }
            }
        }

        ready.clear();
        poller.wait(&mut ready);
        let mut any_progress = false;
        gone.clear();

        for &id in &ready {
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            let (wp, wstatus) = conn.pump_writes();
            any_progress |= wp;
            match wstatus {
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
            let (rp, rstatus) = conn.pump_reads::<F>(&mut scratch, &mut |msg| {
                dispatch_tx.send(Input::FromPeer(id, msg)).is_ok()
            });
            any_progress |= rp;
            if rstatus == ConnStatus::Dead {
                gone.push((id, true));
            }
        }

        for &(id, was_dead) in &gone {
            poller.deregister(id);
            if let Some(conn) = conns.remove(&id) {
                conn.out.close();
                if was_dead {
                    let unsent = conn.unsent();
                    if unsent > 0 {
                        stats
                            .dropped_frames
                            .fetch_add(unsent, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            }
            let _ = dispatch_tx.send(Input::PeerGone(id));
        }

        poller.note_progress(any_progress || !gone.is_empty());
    }
}

/// Best-effort bounded drain of every connection's remaining frames at
/// shutdown — sockets close when `conns` drops.
fn final_flush(conns: &mut HashMap<u32, Conn>) {
    for _ in 0..SHUTDOWN_FLUSH_ROUNDS {
        let mut pending = false;
        for conn in conns.values_mut() {
            let (_, status) = conn.pump_writes();
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
