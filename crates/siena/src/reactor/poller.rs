//! Readiness polling: the reactor's OS-facing loop.
//!
//! [`Poller`] is an edge-triggered `epoll` instance (FFI confined to
//! [`sys`](super::sys)). Each connection's socket is registered under its
//! token for `EPOLLIN | EPOLLOUT | EPOLLRDHUP`; `wait` sleeps until the
//! kernel reports an edge, a [`PollWaker`] fires, or the caller's
//! deadline passes, and then reports only the tokens that have work.
//!
//! Two kinds of readiness come out of one `wait`:
//!
//! * **kernel edges** — a socket became readable (or hung up, or failed)
//!   or regained write space. Edges are not repeated: the connection
//!   keeps a sticky `readable` bit until a read meets `WouldBlock` or
//!   comes up short, so a burst cut off by the per-pass read cap resumes
//!   on the next pass without waiting for new bytes;
//! * **queue marks** — an `OutQueue` offer that found its queue empty
//!   (or a queue closing) pushes the connection's token onto the waker's
//!   ready list. Writes are pumped only for marked tokens and for
//!   `EPOLLOUT` edges on sockets that last met `WouldBlock`.
//!
//! A pass therefore costs O(ready) connections, not O(registered).

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsFd, BorrowedFd, OwnedFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use super::sys::{self, EpollEvent};

/// Kernel events harvested per `epoll_wait`; more stay queued for the
/// next call.
const MAX_EVENTS: usize = 256;

/// The `epoll` data word of the waker's eventfd: connection tokens are
/// `u32`, so it never collides with one.
const WAKE_DATA: u64 = u64::MAX;

#[derive(Debug)]
struct WakeInner {
    /// Set by `wake`; the eventfd is written only when this goes from
    /// false to true, and the poller clears it after draining the
    /// eventfd.
    pending: AtomicBool,
    /// Registered in the poller's epoll set under [`WAKE_DATA`].
    efd: File,
    /// Tokens whose outbound queue went from empty to non-empty (or
    /// closed) since the poller last looked.
    marked: Mutex<Vec<u32>>,
}

/// A cross-thread handle to one [`Poller`]: `wake` cuts its `wait`
/// short, `mark` queues a token for a write pump.
///
/// Wake-before-wait is not lost: the eventfd stays readable until the
/// poller drains it, so a `wait` that starts after a `wake` returns at
/// once.
#[derive(Debug, Clone)]
pub(crate) struct PollWaker {
    inner: Arc<WakeInner>,
}

impl PollWaker {
    /// Requests a wakeup: the next (or current) `wait` returns promptly.
    pub(crate) fn wake(&self) {
        if !self.inner.pending.swap(true, Ordering::SeqCst) {
            // A full counter (never reached: the poller drains it on
            // every wake) would fail with WouldBlock and still be
            // readable, so the error carries nothing to act on.
            let _ = (&self.inner.efd).write(&1u64.to_ne_bytes());
        }
    }

    /// Queues `token` for a write pump on the poller's next `wait`. Does
    /// not wake: callers wake once per batch of marks.
    pub(crate) fn mark(&self, token: u32) {
        self.inner.marked.lock().push(token);
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Readiness {
    pub(crate) token: u32,
    /// Input, EOF or an error is waiting: pump reads.
    pub(crate) readable: bool,
    /// The socket regained write space (or failed).
    pub(crate) writable: bool,
    /// The outbound queue was marked (see [`PollWaker::mark`]).
    pub(crate) queued: bool,
}

/// The reactor's readiness source: one edge-triggered epoll instance
/// plus its [`PollWaker`] (see the module docs).
///
/// One poller belongs to one reactor thread; `register`/`deregister`/
/// `wait` are called only from that thread, while the [`PollWaker`]
/// returned by `waker` may be used from anywhere.
#[derive(Debug)]
pub(crate) struct Poller {
    epoll: OwnedFd,
    waker: PollWaker,
    events: Vec<EpollEvent>,
    marked: Vec<u32>,
}

impl Poller {
    /// A new epoll instance with its waker's eventfd registered.
    ///
    /// # Errors
    ///
    /// The `epoll_create1`, `eventfd` or `epoll_ctl` failure (e.g. out of
    /// descriptors).
    pub(crate) fn new() -> io::Result<Self> {
        let epoll = sys::epoll_new()?;
        let efd = sys::eventfd_new()?;
        sys::epoll_add(&epoll, efd.as_fd(), sys::EPOLLIN | sys::EPOLLET, WAKE_DATA)?;
        Ok(Poller {
            epoll,
            waker: PollWaker {
                inner: Arc::new(WakeInner {
                    pending: AtomicBool::new(false),
                    efd,
                    marked: Mutex::new(Vec::new()),
                }),
            },
            events: vec![EpollEvent::default(); MAX_EVENTS],
            marked: Vec::new(),
        })
    }

    /// Starts reporting `fd`'s edges under `token`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` failure.
    pub(crate) fn register(&self, fd: BorrowedFd<'_>, token: u32) -> io::Result<()> {
        let interest = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
        sys::epoll_add(&self.epoll, fd, interest, u64::from(token))
    }

    /// Stops reporting `fd`. Call before the descriptor closes, so a new
    /// socket that reuses its number never inherits the old token.
    pub(crate) fn deregister(&self, fd: BorrowedFd<'_>) {
        // Failure means `fd` was never registered: nothing to undo.
        let _ = sys::epoll_del(&self.epoll, fd);
    }

    /// Blocks until a kernel edge, a wake or `timeout` (`None`: no
    /// deadline), then appends every ready token to `ready`: kernel
    /// edges first, then marked queues. Pass `Some(Duration::ZERO)` while
    /// any connection still has unread input or an unfinished pump; a
    /// timeout is rounded up to whole milliseconds. Read cross-thread inputs (control channels,
    /// shutdown flags) after this returns, never before: a wake consumed
    /// here announces exactly those.
    ///
    /// # Errors
    ///
    /// An `epoll_wait` failure other than an interrupt (which reports
    /// nothing and returns `Ok`).
    pub(crate) fn wait(
        &mut self,
        ready: &mut Vec<Readiness>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        let n = sys::epoll_wait_into(&self.epoll, &mut self.events, timeout_ms(timeout))?;
        for ev in self.events.iter().take(n) {
            let (bits, data) = (ev.events, ev.data);
            if data == WAKE_DATA {
                // Drain first, then clear: a wake that lands between the
                // two finds `pending` set and skips its write, but its
                // work is visible to the caller, which reads its control
                // channels only after `wait` returns.
                let mut buf = [0u8; 8];
                let _ = (&self.waker.inner.efd).read(&mut buf);
                self.waker.inner.pending.store(false, Ordering::SeqCst);
                continue;
            }
            let Ok(token) = u32::try_from(data) else {
                continue;
            };
            let failed = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
            ready.push(Readiness {
                token,
                readable: failed || bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: failed || bits & sys::EPOLLOUT != 0,
                queued: false,
            });
        }
        std::mem::swap(&mut self.marked, &mut self.waker.inner.marked.lock());
        ready.extend(self.marked.drain(..).map(|token| Readiness {
            token,
            readable: false,
            writable: false,
            queued: true,
        }));
        Ok(())
    }

    /// A handle other threads use to wake this poller and mark queues.
    pub(crate) fn waker(&self) -> PollWaker {
        self.waker.clone()
    }
}

/// `epoll_wait`'s timeout argument: `-1` for none, else whole
/// milliseconds rounded up (so a 300 µs timer never busy-polls at 0).
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    timeout.map_or(-1, |t| {
        let ms = t.as_nanos().div_ceil(1_000_000);
        i32::try_from(ms).unwrap_or(i32::MAX)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FramePool;
    use crate::reactor::conn::{Conn, ConnStatus, OutQueue, MAX_READS_PER_PASS, SCRATCH_BYTES};
    use crate::wire::Message;
    use psguard_model::{Event, Filter};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::{AsFd, AsRawFd};
    use std::time::Instant;

    type Msg = Message<Filter, Event>;

    const CAP: Duration = Duration::from_secs(10);

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    /// A connection on `b`, registered under `token`, with the edges and
    /// marks of its registration consumed and its first pass done.
    fn registered(poller: &mut Poller, b: TcpStream, token: u32) -> Conn {
        let out = OutQueue::new(1 << 16, token, poller.waker());
        let mut conn = Conn::new(b, out, poller, token).unwrap();
        let mut ready = Vec::new();
        poller.wait(&mut ready, Some(Duration::ZERO)).unwrap();
        assert_eq!(conn.pump_writes(), ConnStatus::Open);
        let (_, status) = conn.pump_reads::<Filter>(&mut [0u8; 64], &mut |_| true);
        assert_eq!(status, ConnStatus::Open);
        assert!(!conn.has_pending_work());
        conn
    }

    #[test]
    fn bytes_from_another_thread_wake_a_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        let (mut a, b) = pair();
        let _conn = registered(&mut poller, b, 3);
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            a.write_all(b"x").unwrap();
            (Instant::now(), a)
        });
        let mut ready = Vec::new();
        poller.wait(&mut ready, Some(CAP)).unwrap();
        let woke = Instant::now();
        let (wrote, _a) = writer.join().unwrap();
        assert!(
            woke.saturating_duration_since(wrote) < Duration::from_millis(100),
            "woke {:?} after the write",
            woke.saturating_duration_since(wrote)
        );
        assert!(
            ready.iter().any(|r| r.token == 3 && r.readable),
            "{ready:?}"
        );
    }

    /// A wake sent before the wait cuts the wait short, is consumed by
    /// it, and the next wake still gets through.
    #[test]
    fn wake_cuts_park_short_even_before_parking() {
        let mut poller = Poller::new().unwrap();
        let mut ready = Vec::new();
        poller.waker().wake();
        let t0 = Instant::now();
        poller.wait(&mut ready, Some(CAP)).unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "wake before wait lost"
        );
        // The wake was consumed: an unwoken wait runs to its timeout.
        let t0 = Instant::now();
        poller
            .wait(&mut ready, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert!(ready.is_empty(), "wakes report no tokens: {ready:?}");
        // And the next wake still gets through.
        poller.waker().wake();
        let t0 = Instant::now();
        poller.wait(&mut ready, Some(CAP)).unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "second wake lost"
        );
    }

    /// A wake from another thread cuts a blocked wait short, and is
    /// consumed by it.
    #[test]
    fn wake_from_another_thread_unparks() {
        let mut poller = Poller::new().unwrap();
        let mut ready = Vec::new();
        let waker = poller.waker();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let t0 = Instant::now();
        poller.wait(&mut ready, Some(CAP)).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "cross-thread wake lost: {:?}",
            t0.elapsed()
        );
        h.join().unwrap();
        let t0 = Instant::now();
        poller
            .wait(&mut ready, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert!(ready.is_empty(), "wakes report no tokens: {ready:?}");
    }

    #[test]
    fn a_deregistered_token_is_never_reported_even_after_fd_reuse() {
        let mut poller = Poller::new().unwrap();
        let mut ready = Vec::new();
        // Other tests open sockets concurrently and may take the freed
        // number first; retry until a new socket does reuse it.
        for attempt in 0..50 {
            let (mut a1, b1) = pair();
            let old = registered(&mut poller, b1, 1);
            let fd = old.as_fd().as_raw_fd();
            // Leave an unharvested edge queued for token 1.
            a1.write_all(b"stale").unwrap();
            std::thread::sleep(Duration::from_millis(5));
            poller.deregister(old.as_fd());
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut a2 = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            drop(old);
            let (b2, _) = listener.accept().unwrap();
            let reused = b2.as_raw_fd() == fd;
            let _new = registered(&mut poller, b2, 2);
            a2.write_all(b"fresh").unwrap();
            ready.clear();
            poller.wait(&mut ready, Some(CAP)).unwrap();
            assert!(ready.iter().all(|r| r.token != 1), "stale token: {ready:?}");
            assert!(
                ready.iter().any(|r| r.token == 2 && r.readable),
                "{ready:?}"
            );
            if reused {
                return;
            }
            assert!(attempt < 49, "no socket ever reused the freed fd number");
        }
    }

    #[test]
    fn a_peer_close_surfaces_as_eof_and_the_conn_dies() {
        let mut poller = Poller::new().unwrap();
        let (a, b) = pair();
        let mut conn = registered(&mut poller, b, 4);
        drop(a);
        let mut ready = Vec::new();
        poller.wait(&mut ready, Some(CAP)).unwrap();
        for r in &ready {
            assert_eq!(r.token, 4);
            conn.note(*r);
        }
        assert!(conn.readable(), "close raised no readable edge: {ready:?}");
        let (_, status) = conn.pump_reads::<Filter>(&mut [0u8; 64], &mut |_| true);
        assert_eq!(status, ConnStatus::Dead);
    }

    /// Edge regression: with edge-triggered readiness, a burst the read
    /// cap cuts off raises no second edge, so the sticky `readable` bit
    /// must carry the rest over to the next pass. The reactor's
    /// `SCRATCH_BYTES` put the cap at 256 KiB, more than a fresh loopback
    /// socket's receive buffer holds; reading through a sixteenth of it
    /// puts the cap at 16 KiB, so the whole burst sits in the receive
    /// queue with nothing left to arrive.
    #[test]
    fn a_burst_past_the_read_cap_is_fully_delivered() {
        let mut poller = Poller::new().unwrap();
        let (mut a, b) = pair();
        let peeker = b.try_clone().unwrap();
        let mut conn = registered(&mut poller, b, 5);
        let mut scratch = vec![0u8; SCRATCH_BYTES / 16];
        let pool = FramePool::new();
        let frame = pool.encode(&Msg::Publish(
            Event::builder("t").payload(vec![7u8; 1000]).build(),
        ));
        let n = MAX_READS_PER_PASS * scratch.len() / frame.wire_bytes().len() * 3 / 2;
        let burst: Vec<u8> = (0..n)
            .flat_map(|_| frame.wire_bytes().iter().copied())
            .collect();
        assert!(burst.len() > MAX_READS_PER_PASS * scratch.len());
        a.write_all(&burst).unwrap();
        let mut peek = vec![0u8; burst.len()];
        let t0 = Instant::now();
        while peeker.peek(&mut peek).unwrap_or(0) < burst.len() {
            assert!(
                t0.elapsed() < CAP,
                "the burst never reached the receive queue"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        let mut ready = Vec::new();
        let mut got = 0usize;
        let deadline = Instant::now() + Duration::from_secs(2);
        while got < n && Instant::now() < deadline {
            ready.clear();
            let timeout = if conn.has_pending_work() {
                Duration::ZERO
            } else {
                Duration::from_millis(200)
            };
            poller.wait(&mut ready, Some(timeout)).unwrap();
            for r in &ready {
                conn.note(*r);
            }
            if conn.readable() {
                let (_, status) = conn.pump_reads::<Filter>(&mut scratch, &mut |_| {
                    got += 1;
                    true
                });
                assert_eq!(status, ConnStatus::Open);
            }
        }
        assert_eq!(got, n, "the burst stalled after the read cap");
    }

    #[test]
    fn a_blocked_writer_resumes_on_epollout_alone() {
        let mut poller = Poller::new().unwrap();
        let (mut a, b) = pair();
        let mut conn = registered(&mut poller, b, 6);
        let pool = FramePool::new();
        let frame = pool.encode(&Msg::Publish(
            Event::builder("t").payload(vec![9u8; 4000]).build(),
        ));
        let frames = 4096;
        let total = frames * frame.wire_bytes().len();
        for _ in 0..frames {
            assert!(conn.out.offer(frame.clone()));
        }
        // Take the mark, then write until the socket pushes back.
        let mut ready = Vec::new();
        poller.wait(&mut ready, Some(Duration::ZERO)).unwrap();
        for r in &ready {
            conn.note(*r);
        }
        assert!(conn.wants_write(), "the first offer marked nothing");
        while conn.wants_write() {
            assert_eq!(conn.pump_writes(), ConnStatus::Open);
        }
        assert!(conn.unsent() > 0, "the socket never filled");
        let reader = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let mut buf = vec![0u8; 1 << 16];
            let mut read = 0;
            while read < total {
                read += a.read(&mut buf).unwrap();
            }
            read
        });
        let deadline = Instant::now() + CAP;
        while conn.unsent() > 0 && Instant::now() < deadline {
            ready.clear();
            poller.wait(&mut ready, Some(CAP)).unwrap();
            for r in &ready {
                assert!(!r.queued, "nothing was offered after the pump blocked");
                conn.note(*r);
            }
            while conn.wants_write() {
                assert_eq!(conn.pump_writes(), ConnStatus::Open);
            }
        }
        assert_eq!(conn.unsent(), 0, "the writer never resumed");
        assert_eq!(reader.join().unwrap(), total);
    }

    #[test]
    fn timeouts_round_up_to_whole_milliseconds() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(300))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(7))), 7);
        assert_eq!(timeout_ms(Some(Duration::from_secs(u64::MAX))), i32::MAX);
    }
}
