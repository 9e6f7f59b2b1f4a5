//! Readiness polling: the reactor's OS-facing loop.
//!
//! The workspace forbids `unsafe` and vendors no FFI bindings, so there
//! is no `epoll`/`kqueue` backend here. Instead [`ScanPoller`]
//! approximates readiness: it reports *every* registered connection as
//! potentially ready and relies on nonblocking sockets to make a no-op
//! scan cheap (a `read`/`write` that would block returns `WouldBlock`
//! immediately). To keep an idle broker off the CPU, the scan parks
//! adaptively — consecutive no-progress scans grow the park interval by
//! 5/4 each up to a cap (`park_interval`), and any cross-thread event
//! (frames queued, a new connection, shutdown) cuts the park short
//! through a [`PollWaker`].
//!
//! The contract is deliberately level-triggered and conservative: `wait`
//! may over-report (tokens that turn out not to be ready cost one
//! `WouldBlock` each) but must never under-report — every token whose
//! socket or outbound queue may have become actionable since the last
//! call must appear in `ready`. An `epoll`-style backend would sharpen
//! the same contract (kernel-filtered ready sets + an eventfd-style
//! waker) by replacing `ScanPoller`'s body; see DESIGN.md §14.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::Duration;

use parking_lot::Mutex;

/// Park interval after the first no-progress scan; grows by 5/4 per
/// additional idle scan.
pub(crate) const PARK_BASE: Duration = Duration::from_micros(50);

/// Default cap on the adaptive park interval: bounds worst-case added
/// latency for readiness the waker cannot announce (bytes arriving from
/// the kernel while parked).
pub(crate) const DEFAULT_MAX_PARK: Duration = Duration::from_millis(5);

/// Idle scans past which the park stops growing: 50 µs × (5/4)^63 is
/// about a minute, past any cap a reactor uses.
const IDLE_STREAK_CAP: u32 = 64;

/// The park after the `idle_streak`-th consecutive no-progress scan
/// (`idle_streak >= 1`): [`PARK_BASE`] × (5/4)^(idle_streak − 1), capped
/// at `max_park`. The one schedule of every reactor loop that parks.
///
/// Growth by 5/4 makes each park exactly a quarter of the parks before it
/// plus [`PARK_BASE`], so a park never adds more than a quarter of the
/// time already spent idle (plus 50 µs) to the latency of readiness no
/// waker announces — bytes arriving from the kernel. The 5 ms default
/// cap is reached after about 20 ms of idleness.
pub(crate) fn park_interval(idle_streak: u32, max_park: Duration) -> Duration {
    let mut park = PARK_BASE;
    for _ in 1..idle_streak.min(IDLE_STREAK_CAP) {
        if park >= max_park {
            break;
        }
        park = park.saturating_mul(5) / 4;
    }
    park.min(max_park)
}

#[derive(Debug, Default)]
struct WakeInner {
    /// Set by `wake`, consumed by the poller before parking.
    pending: AtomicBool,
    /// The poller's thread, once it first waits; `wake` unparks it.
    thread: Mutex<Option<Thread>>,
}

/// A cross-thread wakeup handle for a parked poller (or any reactor
/// loop built on `std::thread::park_timeout`).
///
/// Wake-before-park is not lost: `wake` sets a pending flag *and*
/// unparks, and `std::thread`'s unpark permit covers the window between
/// the poller's flag check and its park.
#[derive(Debug, Clone, Default)]
pub(crate) struct PollWaker {
    inner: Arc<WakeInner>,
}

impl PollWaker {
    /// A waker not yet attached to any thread (attaching happens on the
    /// poller's first wait).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Requests a wakeup: the next (or current) park returns promptly.
    pub(crate) fn wake(&self) {
        self.inner.pending.store(true, Ordering::SeqCst);
        if let Some(t) = self.inner.thread.lock().as_ref() {
            t.unpark();
        }
    }

    /// Records the calling thread as the one `wake` should unpark.
    pub(crate) fn attach_current_thread(&self) {
        *self.inner.thread.lock() = Some(std::thread::current());
    }

    /// Consumes a pending wakeup, returning whether one was set.
    pub(crate) fn take_pending(&self) -> bool {
        self.inner.pending.swap(false, Ordering::SeqCst)
    }
}

/// The reactor's readiness source: a sharded nonblocking scan with
/// adaptive parking (see the module docs for the design rationale).
///
/// One poller belongs to one worker thread; `register`/`deregister`/
/// `wait` are called only from that thread, while the [`PollWaker`]
/// returned by `waker` may be invoked from anywhere. `wait` fills
/// `ready` with every token that may be actionable (socket
/// readable/writable, outbound queue non-empty or newly closed) —
/// over-reporting is allowed, under-reporting is not — and blocks at
/// most `max_park` when nothing has happened. `note_progress(false)`
/// tells the poller the last batch produced no work, letting it back off.
#[derive(Debug)]
pub(crate) struct ScanPoller {
    tokens: Vec<u32>,
    waker: PollWaker,
    /// Consecutive no-progress scans (saturating); drives the park
    /// backoff.
    idle_streak: u32,
    max_park: Duration,
    attached: bool,
}

impl ScanPoller {
    /// A scan poller whose adaptive park grows up to `max_park`.
    pub(crate) fn new(max_park: Duration) -> Self {
        ScanPoller {
            tokens: Vec::new(),
            waker: PollWaker::new(),
            idle_streak: 0,
            max_park: max_park.max(PARK_BASE),
            attached: false,
        }
    }

    /// Starts tracking a connection token.
    pub(crate) fn register(&mut self, token: u32) {
        self.tokens.push(token);
        // A fresh connection is actionable immediately.
        self.idle_streak = 0;
    }

    /// Stops tracking a connection token.
    pub(crate) fn deregister(&mut self, token: u32) {
        if let Some(pos) = self.tokens.iter().position(|&t| t == token) {
            self.tokens.swap_remove(pos);
        }
    }

    /// Fills `ready` with possibly-actionable tokens, parking briefly
    /// first when the recent past was idle and no wakeup is pending.
    pub(crate) fn wait(&mut self, ready: &mut Vec<u32>) {
        if !self.attached {
            self.waker.attach_current_thread();
            self.attached = true;
        }
        // Park only when the recent past was idle AND nobody woke us.
        if !self.waker.take_pending() && self.idle_streak > 0 {
            std::thread::park_timeout(park_interval(self.idle_streak, self.max_park));
            self.waker.take_pending();
        }
        ready.extend_from_slice(&self.tokens);
    }

    /// Feedback from the worker: did the last ready batch yield any
    /// actual I/O progress?
    pub(crate) fn note_progress(&mut self, progress: bool) {
        if progress {
            self.idle_streak = 0;
        } else {
            self.idle_streak = self.idle_streak.saturating_add(1);
        }
    }

    /// A handle other threads use to cut the next park short.
    pub(crate) fn waker(&self) -> PollWaker {
        self.waker.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn scan_poller_reports_all_registered_tokens() {
        let mut p = ScanPoller::new(DEFAULT_MAX_PARK);
        p.register(1);
        p.register(2);
        p.register(7);
        let mut ready = Vec::new();
        p.wait(&mut ready);
        ready.sort_unstable();
        assert_eq!(ready, vec![1, 2, 7]);
        p.deregister(2);
        let mut ready = Vec::new();
        p.wait(&mut ready);
        ready.sort_unstable();
        assert_eq!(ready, vec![1, 7]);
    }

    #[test]
    fn idle_scans_park_and_progress_resets_backoff() {
        let mut p = ScanPoller::new(DEFAULT_MAX_PARK);
        p.register(1);
        // Busy poller never parks.
        p.note_progress(true);
        let t0 = Instant::now();
        let mut ready = Vec::new();
        p.wait(&mut ready);
        assert!(t0.elapsed() < Duration::from_millis(50));
        // Each park is at most a quarter of the idle time before it plus
        // the base, grows until the cap, and then stays there.
        let mut idle = Duration::ZERO;
        let mut prev = Duration::ZERO;
        for streak in 1..=IDLE_STREAK_CAP + 4 {
            p.note_progress(false);
            let park = park_interval(p.idle_streak, p.max_park);
            assert!(
                park <= idle / 4 + PARK_BASE,
                "streak {streak}: {park:?} after {idle:?}"
            );
            assert!(park >= prev && park <= DEFAULT_MAX_PARK, "streak {streak}");
            if streak >= 22 {
                assert_eq!(park, DEFAULT_MAX_PARK, "streak {streak}: cap not reached");
            } else {
                assert!(
                    park < DEFAULT_MAX_PARK,
                    "streak {streak}: cap reached early"
                );
            }
            idle += park;
            prev = park;
        }
        // The cap arrives after roughly 20 ms of idleness, not 6 ms.
        let to_cap: Duration = (1..22).map(|n| park_interval(n, DEFAULT_MAX_PARK)).sum();
        assert!(to_cap > Duration::from_millis(15) && to_cap < Duration::from_millis(25));
        // A cap above a minute stops where the streak stops counting.
        assert!(park_interval(u32::MAX, Duration::MAX) < Duration::from_secs(120));
        p.note_progress(true);
        assert_eq!(p.idle_streak, 0);
    }

    #[test]
    fn wake_cuts_park_short_even_before_parking() {
        let mut p = ScanPoller::new(Duration::from_secs(1));
        p.register(1);
        for _ in 0..IDLE_STREAK_CAP {
            p.note_progress(false); // would park ~1s
        }
        p.waker().wake();
        let t0 = Instant::now();
        let mut ready = Vec::new();
        p.wait(&mut ready); // pending wake: no park at all
        assert!(t0.elapsed() < Duration::from_millis(200), "missed wakeup");
        assert_eq!(ready, vec![1]);
    }

    #[test]
    fn wake_from_another_thread_unparks() {
        let mut p = ScanPoller::new(Duration::from_secs(2));
        p.register(9);
        for _ in 0..IDLE_STREAK_CAP {
            p.note_progress(false); // would park 2s
        }
        // Attach by waiting once (pending from registration reset: force a
        // first wait to bind the thread handle).
        let mut ready = Vec::new();
        p.waker().wake();
        p.wait(&mut ready);
        let waker = p.waker();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let t0 = Instant::now();
        ready.clear();
        p.wait(&mut ready);
        assert!(
            t0.elapsed() < Duration::from_millis(1500),
            "park was not cut short: {:?}",
            t0.elapsed()
        );
        h.join().unwrap();
    }
}
