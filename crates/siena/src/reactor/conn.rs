//! Per-connection state machines: a bounded lock-guarded outbound queue
//! and a nonblocking read/decode + write-resume driver.
//!
//! A [`Conn`] owns exactly one nonblocking socket plus the state a
//! readiness-driven worker needs to resume it mid-operation:
//!
//! * outbound: an [`OutQueue`] of [`SharedFrame`]s feeding a write batch
//!   drained through [`FrameWriteCursor`] — coalesced vectored writes,
//!   resumable across readiness events so no thread blocks on a socket;
//! * inbound: a reusable accumulation buffer parsed incrementally —
//!   length prefix, [`MAX_FRAME`] bound, then message decode — so a
//!   frame split across arbitrarily many TCP segments costs no extra
//!   allocation and never blocks a thread;
//! * readiness: the edge-triggered poller reports each edge once, so a
//!   `Conn` remembers what is left to do — a sticky `readable` bit, a
//!   pending write pump, and whether its last write met `WouldBlock` —
//!   and [`Conn::has_pending_work`] tells the loop to come back without
//!   waiting for a new edge.

use std::collections::VecDeque;
use std::io::Read;
use std::net::TcpStream;
use std::os::fd::{AsFd, BorrowedFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use super::poller::{PollWaker, Poller, Readiness};
use crate::error::TcpError;
use crate::frame::{FrameWriteCursor, SharedFrame};
use crate::semantics::FilterSemantics;
use crate::wire::{Message, Wire, MAX_FRAME};

/// Frames moved from an [`OutQueue`] into the write batch per refill —
/// the coalescing window for one vectored write burst.
pub(crate) const MAX_COALESCE: usize = 32;

/// Queue refills one `pump_writes` call may perform before yielding, so
/// one firehose connection cannot starve its worker's other sockets.
pub(crate) const REFILL_BUDGET: usize = 8;

/// Size of the read scratch buffer a reactor thread shares among all
/// its connections (per-connection memory stays flat).
pub(crate) const SCRATCH_BYTES: usize = 64 * 1024;

/// `read` calls one `pump_reads` pass may issue per connection, for the
/// same fairness reason.
pub(crate) const MAX_READS_PER_PASS: usize = 4;

/// Once this many parsed-and-consumed bytes accumulate at the front of
/// the read buffer, compact it (amortized O(1) per byte).
const COMPACT_THRESHOLD: usize = 4096;

/// How long a blocking producer dozes between capacity probes of a full
/// queue (the queue drains at wire speed, so this bounds added latency,
/// not throughput).
const PUSH_RETRY_NAP: Duration = Duration::from_micros(100);

#[derive(Debug, Default)]
struct OutInner {
    q: VecDeque<SharedFrame>,
    closed: bool,
}

/// A bounded multi-producer outbound frame queue drained by exactly one
/// reactor worker. Frames are `Arc` clones — enqueueing never copies
/// bytes. Closing the queue is the reactor's flush-then-close signal:
/// already-queued frames still drain, after which the worker finishes
/// the connection.
///
/// The queue knows its connection's token and its reactor's
/// [`PollWaker`]: a frame that lands in an empty queue, and closing the
/// queue, mark the token so the reactor pumps writes for exactly the
/// connections that have something to send. Marking does not wake the
/// reactor; producers wake it once per batch.
#[derive(Debug)]
pub(crate) struct OutQueue {
    inner: Mutex<OutInner>,
    cap: usize,
    token: u32,
    waker: PollWaker,
}

impl OutQueue {
    pub(crate) fn new(cap: usize, token: u32, waker: PollWaker) -> Arc<Self> {
        Arc::new(OutQueue {
            inner: Mutex::new(OutInner::default()),
            cap: cap.max(1),
            token,
            waker,
        })
    }

    /// Enqueues without blocking. Returns `false` (frame dropped) when
    /// the queue is full or closed — callers count the drop.
    pub(crate) fn offer(&self, frame: SharedFrame) -> bool {
        let was_empty = {
            let mut inner = self.inner.lock();
            if inner.closed || inner.q.len() >= self.cap {
                return false;
            }
            inner.q.push_back(frame);
            inner.q.len() == 1
        };
        if was_empty {
            self.waker.mark(self.token);
        }
        true
    }

    /// Blocking enqueue for [`OverflowPolicy::Block`]
    /// (crate::OverflowPolicy::Block) producers: naps briefly while the
    /// queue is full, gives up when it closes or `abort` is set.
    ///
    /// # Errors
    ///
    /// [`TcpError::Disconnected`] when the queue closed or `abort` was
    /// set before space appeared.
    pub(crate) fn push_blocking(
        &self,
        frame: SharedFrame,
        abort: &AtomicBool,
    ) -> Result<(), TcpError> {
        let was_empty = loop {
            if abort.load(Ordering::SeqCst) {
                return Err(TcpError::Disconnected);
            }
            {
                let mut inner = self.inner.lock();
                if inner.closed {
                    return Err(TcpError::Disconnected);
                }
                if inner.q.len() < self.cap {
                    inner.q.push_back(frame);
                    break inner.q.len() == 1;
                }
            }
            std::thread::sleep(PUSH_RETRY_NAP);
        };
        if was_empty {
            self.waker.mark(self.token);
        }
        Ok(())
    }

    /// Marks the queue closed: no new frames are accepted, queued frames
    /// still drain, and once empty the draining worker treats the
    /// connection as finished.
    pub(crate) fn close(&self) {
        self.inner.lock().closed = true;
        self.waker.mark(self.token);
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }

    /// Frames currently queued (for drop accounting on a dead socket).
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().q.len()
    }

    /// Moves up to `max` frames into `batch`. Returns `(moved,
    /// finished)` where `finished` means the queue is closed *and* now
    /// empty — the flush-then-close point.
    pub(crate) fn drain_into(&self, batch: &mut Vec<SharedFrame>, max: usize) -> (usize, bool) {
        let mut inner = self.inner.lock();
        let take = inner.q.len().min(max);
        for _ in 0..take {
            if let Some(f) = inner.q.pop_front() {
                batch.push(f);
            }
        }
        (take, inner.closed && inner.q.is_empty())
    }
}

/// Outcome of one pump pass over a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnStatus {
    /// Still serviceable; pump again on the next readiness event.
    Open,
    /// Graceful end: queue closed and fully flushed. Close the socket.
    Finished,
    /// Socket error, EOF, or protocol violation. Drop the peer.
    Dead,
}

/// One reactor-managed connection: nonblocking socket + resumable read
/// and write state.
#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
    pub(crate) out: Arc<OutQueue>,
    wbatch: Vec<SharedFrame>,
    wcur: FrameWriteCursor,
    rbuf: Vec<u8>,
    rstart: usize,
    /// Sticky: set by a readable edge, cleared only when a read meets
    /// `WouldBlock` or comes up short.
    readable: bool,
    /// A write pump is due: the queue was marked, the socket regained
    /// space, or the last pump stopped at its refill budget.
    want_write: bool,
    /// The last write met `WouldBlock`; only an `EPOLLOUT` edge resumes
    /// the write side.
    write_blocked: bool,
}

impl AsFd for Conn {
    fn as_fd(&self) -> BorrowedFd<'_> {
        self.stream.as_fd()
    }
}

impl Conn {
    /// Wraps an accepted/connected stream, switching it to nonblocking
    /// mode and registering it with `poller` under `token`.
    ///
    /// # Errors
    ///
    /// Propagates the `set_nonblocking` or registration failure (the
    /// socket is unusable for the reactor without either).
    pub(crate) fn new(
        stream: TcpStream,
        out: Arc<OutQueue>,
        poller: &Poller,
        token: u32,
    ) -> std::io::Result<Self> {
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        poller.register(stream.as_fd(), token)?;
        Ok(Conn {
            stream,
            out,
            wbatch: Vec::with_capacity(MAX_COALESCE),
            wcur: FrameWriteCursor::new(),
            rbuf: Vec::new(),
            rstart: 0,
            // A fresh socket may already hold input, and its handshake
            // may already be queued: the first pass pumps both sides.
            readable: true,
            want_write: true,
            write_blocked: false,
        })
    }

    /// Folds one readiness report into the connection's pending work.
    /// An `EPOLLOUT` edge matters only to a write side that met
    /// `WouldBlock`; a queue mark only to one that did not.
    pub(crate) fn note(&mut self, r: Readiness) {
        self.readable |= r.readable;
        if self.write_blocked {
            self.want_write |= r.writable;
        } else {
            self.want_write |= r.queued;
        }
    }

    /// Whether a read pass is due (see [`note`](Self::note)).
    pub(crate) fn readable(&self) -> bool {
        self.readable
    }

    /// Whether a write pump is due (see [`note`](Self::note)).
    pub(crate) fn wants_write(&self) -> bool {
        self.want_write
    }

    /// Work that no future edge or mark will announce: unread input past
    /// a read cap, or queued frames past a refill budget. The loop must
    /// come back to this connection without blocking.
    pub(crate) fn has_pending_work(&self) -> bool {
        self.readable || self.want_write
    }

    /// Queues frames for the handshake (hello / subscription replay)
    /// ahead of anything already in the outbound queue.
    pub(crate) fn preload(&mut self, frames: impl IntoIterator<Item = SharedFrame>) {
        self.wbatch.extend(frames);
    }

    /// Appends a frame directly to the in-flight write batch, bypassing
    /// the bounded queue — used for timer-generated traffic (heartbeats)
    /// that must not compete with callers for queue capacity.
    pub(crate) fn push_direct(&mut self, frame: SharedFrame) {
        self.wbatch.push(frame);
        self.want_write |= !self.write_blocked;
    }

    /// Frames queued or batched but not yet on the wire — the drop count
    /// when the socket dies.
    pub(crate) fn unsent(&self) -> u64 {
        self.batched_unsent() + self.out.len() as u64
    }

    /// Frames in the in-flight write batch not yet fully written. These
    /// are lost when the socket dies; frames still in the queue survive
    /// (a reconnecting client reuses the queue for its next epoch).
    pub(crate) fn batched_unsent(&self) -> u64 {
        self.wbatch.len().saturating_sub(self.wcur.frames_done()) as u64
    }

    /// Drives the write side: resumes any partial batch, then refills
    /// from the queue (up to `REFILL_BUDGET` refills) until the socket
    /// pushes back or the queue runs dry. Stopping at the budget leaves
    /// the pump due for the next pass; stopping at `WouldBlock` leaves it
    /// to the next `EPOLLOUT` edge.
    pub(crate) fn pump_writes(&mut self) -> ConnStatus {
        self.want_write = false;
        self.write_blocked = false;
        let mut refills = REFILL_BUDGET;
        loop {
            if self.wcur.done(&self.wbatch) {
                self.wbatch.clear(); // release Arcs → buffers return to pool
                self.wcur = FrameWriteCursor::new();
                if refills == 0 {
                    self.want_write = true;
                    return ConnStatus::Open;
                }
                refills -= 1;
                let (moved, finished) = self.out.drain_into(&mut self.wbatch, MAX_COALESCE);
                if moved == 0 {
                    return if finished {
                        ConnStatus::Finished
                    } else {
                        ConnStatus::Open
                    };
                }
            }
            match self.wcur.write_step(&mut self.stream, &self.wbatch) {
                // A written batch (`Ok(0)`) is refilled at the loop head.
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.write_blocked = true;
                    return ConnStatus::Open;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return ConnStatus::Dead,
            }
        }
    }

    /// Drives the read side: up to [`MAX_READS_PER_PASS`] nonblocking
    /// reads into `scratch`, incrementally parsing complete frames and
    /// handing decoded messages to `on_msg` (which returns `false` to
    /// abort the connection). Returns `(progress, status)`. Only
    /// `WouldBlock` or a short read clear the sticky `readable` bit: a
    /// pass that stops at the read cap leaves it set, since no new edge
    /// will announce the bytes still buffered.
    pub(crate) fn pump_reads<F>(
        &mut self,
        scratch: &mut [u8],
        on_msg: &mut dyn FnMut(Message<F, F::Event>) -> bool,
    ) -> (bool, ConnStatus)
    where
        F: FilterSemantics + Wire,
        F::Event: Wire,
    {
        let mut progress = false;
        let mut reads = 0;
        while reads < MAX_READS_PER_PASS {
            reads += 1;
            match self.stream.read(scratch) {
                Ok(0) => return (progress, ConnStatus::Dead), // EOF
                Ok(n) => {
                    progress = true;
                    self.rbuf.extend_from_slice(scratch.get(..n).unwrap_or(&[]));
                    if self.parse_frames::<F>(on_msg).is_err() {
                        return (progress, ConnStatus::Dead);
                    }
                    if n < scratch.len() {
                        // Drained: bytes arriving after this read raise
                        // a new edge.
                        self.readable = false;
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.readable = false;
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return (progress, ConnStatus::Dead),
            }
        }
        (progress, ConnStatus::Open)
    }

    /// Consumes every complete `[len ‖ payload]` frame currently
    /// buffered. `Err(())` means protocol violation (oversized frame,
    /// undecodable message, or `on_msg` aborting).
    fn parse_frames<F>(
        &mut self,
        on_msg: &mut dyn FnMut(Message<F, F::Event>) -> bool,
    ) -> Result<(), ()>
    where
        F: FilterSemantics + Wire,
        F::Event: Wire,
    {
        while let Some(prefix) = self.rbuf.get(self.rstart..self.rstart + 4) {
            let len = u32::from_be_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize;
            if len > MAX_FRAME {
                return Err(()); // hostile/corrupt prefix: drop the peer
            }
            let body_start = self.rstart + 4;
            let Some(payload) = self.rbuf.get(body_start..body_start + len) else {
                break; // frame still arriving
            };
            match Message::<F, F::Event>::from_bytes(payload) {
                Ok(msg) => {
                    if !on_msg(msg) {
                        return Err(());
                    }
                }
                Err(_) => return Err(()),
            }
            self.rstart = body_start + len;
        }
        // Compact consumed bytes so the buffer tracks the *unparsed*
        // tail, not total traffic.
        if self.rstart == self.rbuf.len() {
            self.rbuf.clear();
            self.rstart = 0;
        } else if self.rstart >= COMPACT_THRESHOLD {
            self.rbuf.drain(..self.rstart);
            self.rstart = 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FramePool;
    use psguard_model::{Event, Filter};
    use std::io::Write;
    use std::net::TcpListener;

    type Msg = Message<Filter, Event>;

    fn queue(cap: usize) -> Arc<OutQueue> {
        OutQueue::new(cap, 7, Poller::new().unwrap().waker())
    }

    /// A connection over `stream` with its own poller and queue.
    fn open(stream: TcpStream, cap: usize) -> (Conn, Arc<OutQueue>) {
        let poller = Poller::new().unwrap();
        let q = OutQueue::new(cap, 7, poller.waker());
        (Conn::new(stream, q.clone(), &poller, 7).unwrap(), q)
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn out_queue_bounds_closes_and_drains() {
        let q = queue(2);
        let pool = FramePool::new();
        let f = pool.encode(&Msg::Heartbeat);
        assert!(q.offer(f.clone()));
        assert!(q.offer(f.clone()));
        assert!(!q.offer(f.clone()), "third frame must overflow");
        assert_eq!(q.len(), 2);
        let mut batch = Vec::new();
        let (moved, finished) = q.drain_into(&mut batch, 8);
        assert_eq!(moved, 2);
        assert!(!finished, "not closed yet");
        q.close();
        assert!(q.is_closed());
        assert!(!q.offer(f), "closed queue rejects frames");
        let (moved, finished) = q.drain_into(&mut batch, 8);
        assert_eq!(moved, 0);
        assert!(finished, "closed+empty = flush-then-close point");
    }

    #[test]
    fn offers_to_an_empty_queue_and_close_mark_the_token() {
        let mut poller = Poller::new().unwrap();
        let q = OutQueue::new(4, 7, poller.waker());
        let pool = FramePool::new();
        let f = pool.encode(&Msg::Heartbeat);
        let marked = |poller: &mut Poller| {
            let mut ready = Vec::new();
            poller.wait(&mut ready, Some(Duration::ZERO)).unwrap();
            ready.iter().filter(|r| r.queued && r.token == 7).count()
        };
        assert!(q.offer(f.clone()) && q.offer(f.clone()));
        assert_eq!(
            marked(&mut poller),
            1,
            "only the empty → non-empty offer marks"
        );
        q.drain_into(&mut Vec::new(), 8);
        assert!(q.offer(f));
        assert_eq!(marked(&mut poller), 1, "a drained queue marks again");
        q.close();
        assert_eq!(marked(&mut poller), 1, "closing marks");
        assert_eq!(marked(&mut poller), 0);
    }

    #[test]
    fn push_blocking_waits_for_room_and_aborts() {
        let q = queue(1);
        let pool = FramePool::new();
        q.offer(pool.encode(&Msg::Heartbeat));
        let abort = AtomicBool::new(true);
        assert!(matches!(
            q.push_blocking(pool.encode(&Msg::Heartbeat), &abort),
            Err(TcpError::Disconnected)
        ));
        // With a consumer, the blocked push completes.
        let q2 = queue(1);
        q2.offer(pool.encode(&Msg::Heartbeat));
        let q2c = q2.clone();
        let drainer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let mut b = Vec::new();
            q2c.drain_into(&mut b, 8);
        });
        let abort = AtomicBool::new(false);
        q2.push_blocking(pool.encode(&Msg::Heartbeat), &abort)
            .unwrap();
        drainer.join().unwrap();
    }

    #[test]
    fn conn_writes_queued_frames_and_reads_split_frames() {
        let (client, server) = pair();
        let (mut conn, q) = open(server, 64);

        // Write side: queue two frames, pump, read them off the peer.
        let pool = FramePool::new();
        let m1 = Msg::Subscribe(Filter::for_topic("a"));
        let m2 = Msg::Publish(Event::builder("a").payload(vec![9u8; 100]).build());
        q.offer(pool.encode(&m1));
        q.offer(pool.encode(&m2));
        assert_eq!(conn.pump_writes(), ConnStatus::Open);
        let mut rclient = client.try_clone().unwrap();
        let mut got = Vec::new();
        crate::wire::read_frame_into(&mut rclient, &mut got).unwrap();
        assert_eq!(Msg::from_bytes(&got).unwrap(), m1);
        crate::wire::read_frame_into(&mut rclient, &mut got).unwrap();
        assert_eq!(Msg::from_bytes(&got).unwrap(), m2);

        // Read side: send a frame in two halves; the first pump parses
        // nothing, the second completes it.
        let frame = pool.encode(&m2);
        let wire = frame.wire_bytes();
        let split = wire.len() / 2;
        let mut wclient = client.try_clone().unwrap();
        wclient.write_all(&wire[..split]).unwrap();
        wclient.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let mut scratch = vec![0u8; 4096];
        let mut got: Vec<Msg> = Vec::new();
        let (_, status) = conn.pump_reads::<Filter>(&mut scratch, &mut |m| {
            got.push(m);
            true
        });
        assert_eq!(status, ConnStatus::Open);
        assert!(got.is_empty(), "half a frame must not decode");
        wclient.write_all(&wire[split..]).unwrap();
        wclient.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let (progress, status) = conn.pump_reads::<Filter>(&mut scratch, &mut |m| {
            got.push(m);
            true
        });
        assert!(progress);
        assert_eq!(status, ConnStatus::Open);
        assert_eq!(got, vec![m2]);
    }

    #[test]
    fn oversized_prefix_and_garbage_kill_the_conn() {
        let (client, server) = pair();
        let (mut conn, _) = open(server, 4);
        let mut wclient = client.try_clone().unwrap();
        wclient
            .write_all(&(MAX_FRAME as u32 + 1).to_be_bytes())
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let mut scratch = vec![0u8; 1024];
        let (_, status) = conn.pump_reads::<Filter>(&mut scratch, &mut |_| true);
        assert_eq!(status, ConnStatus::Dead);

        let (client2, server2) = pair();
        let (mut conn2, _) = open(server2, 4);
        let mut w2 = client2.try_clone().unwrap();
        let garbage = [0xde, 0xad, 0xbe, 0xef];
        w2.write_all(&(garbage.len() as u32).to_be_bytes()).unwrap();
        w2.write_all(&garbage).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let (_, status) = conn2.pump_reads::<Filter>(&mut scratch, &mut |_| true);
        assert_eq!(status, ConnStatus::Dead, "garbage payload must kill");
    }

    #[test]
    fn eof_reports_dead_and_close_reports_finished() {
        let (client, server) = pair();
        let (mut conn, q) = open(server, 4);
        q.close();
        assert_eq!(conn.pump_writes(), ConnStatus::Finished);
        drop(client);
        std::thread::sleep(Duration::from_millis(30));
        let mut scratch = vec![0u8; 256];
        let (_, status) = conn.pump_reads::<Filter>(&mut scratch, &mut |_| true);
        assert_eq!(status, ConnStatus::Dead);
    }
}
