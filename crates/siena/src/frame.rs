//! Pooled, reference-counted wire frames: the zero-copy dissemination
//! fast path.
//!
//! The classic per-recipient send path serializes an event once *per
//! connection* (`msg.to_bytes()` in a fan-out loop) and writes each frame
//! with two syscalls (length prefix, then payload). At broker fan-out
//! degree N that is N serializations, N heap allocations, and 2N
//! syscalls per published event. This module removes all three costs:
//!
//! * **Encode-once fan-out** — [`FramePool::encode`] serializes a message
//!   exactly once into a [`SharedFrame`] (`Arc<Frame>`); every
//!   per-connection writer queue holds a clone of the `Arc`, not a copy
//!   of the bytes.
//! * **Pooled buffers** — the backing `Vec<u8>` is checked out of a
//!   [`FramePool`] free list and returned when the last `Arc` drops, so
//!   steady-state dissemination performs no buffer allocation (the one
//!   remaining allocation is the `Arc` control block itself).
//! * **Coalesced I/O** — the 4-byte length prefix is written into the
//!   same buffer as the payload, so a frame goes out in one write; and
//!   [`write_frames`] drains a whole batch of frames through
//!   `write_vectored`, amortizing one syscall over every frame queued
//!   since the writer last woke up.
//!
//! The bytes on the socket are the classic `[u32 BE length ‖ payload]`
//! frame that [`read_frame_into`](crate::wire::read_frame_into) parses —
//! only the copy count changes. Ownership rule: a buffer belongs to exactly one of (a) the
//! pool's free list, (b) a live [`Frame`]; `Frame::drop` moves it from
//! (b) back to (a) unless the buffer outgrew the retention cap, in which
//! case it is simply freed.

use std::io::{IoSlice, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::wire::Wire;

/// How many buffers a pool retains on its free list before extra
/// returned buffers are dropped (bounds idle memory).
const DEFAULT_MAX_POOLED: usize = 128;

/// Buffers whose capacity grew beyond this are not retained: one
/// pathological jumbo frame must not pin megabytes on the free list.
const DEFAULT_MAX_RETAINED_CAPACITY: usize = 64 << 10;

/// Counters describing a pool's behaviour; see [`FramePool::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FramePoolStats {
    /// Frames encoded through the pool (one per [`FramePool::encode`]).
    pub frames_encoded: u64,
    /// Checkouts that had to allocate a fresh buffer (pool miss).
    pub fresh_buffers: u64,
    /// Checkouts served from the free list (steady-state hits).
    pub reused_buffers: u64,
}

#[derive(Debug)]
struct PoolInner {
    free: Mutex<Vec<Vec<u8>>>,
    max_pooled: usize,
    max_retained_capacity: usize,
    frames_encoded: AtomicU64,
    fresh_buffers: AtomicU64,
    reused_buffers: AtomicU64,
}

impl PoolInner {
    fn give_back(&self, mut buf: Vec<u8>) {
        if buf.capacity() > self.max_retained_capacity {
            return;
        }
        buf.clear();
        let mut free = self.free.lock();
        if free.len() < self.max_pooled {
            free.push(buf);
        }
    }
}

/// A shared pool of reusable frame buffers. Cloning is cheap (`Arc`);
/// clones check buffers in and out of the same free list, so encoders on
/// different threads (dispatcher, client API callers) share one pool per
/// transport endpoint.
#[derive(Debug, Clone)]
pub struct FramePool {
    inner: Arc<PoolInner>,
}

impl Default for FramePool {
    fn default() -> Self {
        Self::new()
    }
}

impl FramePool {
    /// A pool with the default retention limits (128 buffers, 64 KiB
    /// retained capacity each).
    pub fn new() -> Self {
        Self::with_limits(DEFAULT_MAX_POOLED, DEFAULT_MAX_RETAINED_CAPACITY)
    }

    /// A pool retaining at most `max_pooled` free buffers, dropping any
    /// returned buffer whose capacity exceeds `max_retained_capacity`.
    pub fn with_limits(max_pooled: usize, max_retained_capacity: usize) -> Self {
        FramePool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(Vec::new()),
                max_pooled,
                max_retained_capacity,
                frames_encoded: AtomicU64::new(0),
                fresh_buffers: AtomicU64::new(0),
                reused_buffers: AtomicU64::new(0),
            }),
        }
    }

    fn checkout(&self) -> Vec<u8> {
        let hit = self.inner.free.lock().pop();
        match hit {
            Some(buf) => {
                self.inner.reused_buffers.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.inner.fresh_buffers.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Serializes `msg` exactly once into a pooled, shareable frame whose
    /// buffer holds `[u32 BE length ‖ payload]` — ready for a single
    /// write, shareable across any number of writer queues by cloning the
    /// returned `Arc`.
    pub fn encode<T: Wire>(&self, msg: &T) -> SharedFrame {
        let mut buf = self.checkout();
        buf.extend_from_slice(&[0u8; 4]);
        msg.encode(&mut buf);
        let len = (buf.len() - 4) as u32;
        buf[..4].copy_from_slice(&len.to_be_bytes());
        self.inner.frames_encoded.fetch_add(1, Ordering::Relaxed);
        Arc::new(Frame {
            buf,
            pool: self.inner.clone(),
        })
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> FramePoolStats {
        FramePoolStats {
            frames_encoded: self.inner.frames_encoded.load(Ordering::Relaxed),
            fresh_buffers: self.inner.fresh_buffers.load(Ordering::Relaxed),
            reused_buffers: self.inner.reused_buffers.load(Ordering::Relaxed),
        }
    }
}

/// One encoded wire frame: `[u32 BE length ‖ payload]` in a single
/// buffer. Created by [`FramePool::encode`]; the buffer returns to its
/// pool when the frame drops.
#[derive(Debug)]
pub struct Frame {
    buf: Vec<u8>,
    pool: Arc<PoolInner>,
}

/// A reference-counted frame shared across per-connection writer queues:
/// the unit of encode-once fan-out.
pub type SharedFrame = Arc<Frame>;

impl Frame {
    /// The full on-socket bytes: length prefix followed by payload.
    pub fn wire_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The frame payload (without the length prefix).
    pub fn payload(&self) -> &[u8] {
        self.buf.get(4..).unwrap_or(&[])
    }

    /// Writes the frame with a single `write_all` (prefix and payload
    /// live in the same buffer) and flushes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(&self.buf)?;
        w.flush()
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        self.pool.give_back(std::mem::take(&mut self.buf));
    }
}

/// Upper bound on `IoSlice`s handed to one `write_vectored` call (stack
/// array in [`FrameWriteCursor::write_step`]; also conveniently at or
/// above common OS `IOV_MAX`-friendly batch sizes for this workload).
const MAX_BATCH_SLICES: usize = 64;

/// Resumable progress through a batch of frames being written as
/// coalesced vectored I/O.
///
/// The cursor records which frame is next (`idx`) and how many of its
/// bytes already went out (`off`), so a partial write — including a
/// nonblocking socket returning `WouldBlock` mid-batch — can be resumed
/// on the *next* readiness event without re-sending anything. This is
/// what lets the reactor drive coalesced writes without parking a
/// thread per connection: blocking writers loop
/// [`write_step`](Self::write_step) to completion ([`write_frames`]),
/// nonblocking writers call it once per readiness event and keep the
/// cursor in their per-connection state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FrameWriteCursor {
    /// First frame not yet fully written.
    idx: usize,
    /// Bytes of `frames[idx]` already written.
    off: usize,
}

impl FrameWriteCursor {
    /// A cursor at the start of a batch.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// True once every byte of `frames` has been written through this
    /// cursor.
    pub(crate) fn done(&self, frames: &[SharedFrame]) -> bool {
        self.idx >= frames.len()
    }

    /// Number of frames fully written so far.
    pub(crate) fn frames_done(&self) -> usize {
        self.idx
    }

    /// Performs *one* `write_vectored` attempt over the unwritten suffix
    /// of `frames` (up to `MAX_BATCH_SLICES` slices) and advances the
    /// cursor by however many bytes the writer accepted. Returns the
    /// byte count of that single attempt; callers decide whether to loop
    /// (blocking writers) or yield until the next readiness event
    /// (`WouldBlock` from a nonblocking socket propagates unchanged).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; returns `WriteZero` if the writer accepts
    /// zero bytes for a non-empty frame.
    pub(crate) fn write_step<W: Write>(
        &mut self,
        w: &mut W,
        frames: &[SharedFrame],
    ) -> std::io::Result<usize> {
        // Skip already-consumed frames so the slice window below always
        // starts at real bytes.
        while frames
            .get(self.idx)
            .is_some_and(|f| f.wire_bytes().len() <= self.off)
        {
            self.idx += 1;
            self.off = 0;
        }
        if self.idx >= frames.len() {
            return Ok(0);
        }
        let mut bufs = [IoSlice::new(&[]); MAX_BATCH_SLICES];
        let window = (frames.len() - self.idx).min(MAX_BATCH_SLICES);
        for (slot, frame) in bufs.iter_mut().zip(&frames[self.idx..self.idx + window]) {
            *slot = IoSlice::new(frame.wire_bytes());
        }
        if let Some(first) = frames.get(self.idx) {
            bufs[0] = IoSlice::new(first.wire_bytes().get(self.off..).unwrap_or(&[]));
        }
        let mut n = w.write_vectored(&bufs[..window])?;
        if n == 0 {
            return Err(std::io::ErrorKind::WriteZero.into());
        }
        let written = n;
        while n > 0 {
            let Some(frame) = frames.get(self.idx) else {
                break;
            };
            let remaining = frame.wire_bytes().len().saturating_sub(self.off);
            if n >= remaining {
                n -= remaining;
                self.idx += 1;
                self.off = 0;
            } else {
                self.off += n;
                n = 0;
            }
        }
        Ok(written)
    }
}

/// Writes a batch of frames as coalesced vectored I/O: one
/// `write_vectored` call per up-to-`MAX_BATCH_SLICES` frames (one
/// syscall on sockets), with partial writes resumed mid-frame. A single
/// flush follows the whole batch — this is how heartbeats and acks
/// piggyback on pending event flushes instead of paying their own
/// syscall.
///
/// This is the blocking-writer convenience over the reactor's resumable
/// write cursor: it loops one vectored write step until the batch is out.
///
/// # Errors
///
/// Propagates I/O errors; returns `WriteZero` if the writer stops
/// accepting bytes.
pub fn write_frames<W: Write>(w: &mut W, frames: &[SharedFrame]) -> std::io::Result<()> {
    let mut cursor = FrameWriteCursor::new();
    while !cursor.done(frames) {
        if cursor.write_step(w, frames)? == 0 {
            break; // nothing left to write
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame_into, Message, Wire};
    use psguard_model::{Event, Filter};

    type Msg = Message<Filter, Event>;

    /// The next frame's payload from `r`.
    fn next_payload(r: &mut impl std::io::Read) -> Vec<u8> {
        let mut payload = Vec::new();
        read_frame_into(r, &mut payload).unwrap();
        payload
    }

    /// Buffers idle on the pool's free list.
    fn idle_buffers(pool: &FramePool) -> usize {
        pool.inner.free.lock().len()
    }

    fn publish(payload: Vec<u8>) -> Msg {
        Message::Publish(Event::builder("t").payload(payload).build())
    }

    /// A writer that counts invocations and implements `write_vectored`
    /// natively (consuming every slice), like a socket does.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
        vectored_writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.vectored_writes += 1;
            let mut n = 0;
            for b in bufs {
                self.bytes.extend_from_slice(b);
                n += b.len();
            }
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn pooled_frame_matches_classic_encoding() {
        let pool = FramePool::new();
        let msg = publish(vec![7u8; 33]);
        let frame = pool.encode(&msg);

        let payload = msg.to_bytes();
        let mut classic = (payload.len() as u32).to_be_bytes().to_vec();
        classic.extend_from_slice(&payload);
        assert_eq!(frame.wire_bytes(), &classic[..], "on-socket bytes differ");
        assert_eq!(frame.payload(), &payload[..]);

        let mut cursor = std::io::Cursor::new(frame.wire_bytes().to_vec());
        let decoded = Msg::from_bytes(&next_payload(&mut cursor)).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn buffers_are_reused_after_drop() {
        let pool = FramePool::new();
        for _ in 0..10 {
            let f = pool.encode(&publish(vec![1u8; 100]));
            drop(f);
        }
        let stats = pool.stats();
        assert_eq!(stats.frames_encoded, 10);
        assert_eq!(stats.fresh_buffers, 1, "{stats:?}");
        assert_eq!(stats.reused_buffers, 9, "{stats:?}");
        assert_eq!(idle_buffers(&pool), 1);
    }

    #[test]
    fn shared_fanout_returns_buffer_after_last_clone() {
        let pool = FramePool::new();
        let frame = pool.encode(&publish(vec![2u8; 50]));
        let clones: Vec<SharedFrame> = (0..64).map(|_| frame.clone()).collect();
        drop(frame);
        assert_eq!(idle_buffers(&pool), 0, "clones still hold the buffer");
        drop(clones);
        assert_eq!(idle_buffers(&pool), 1, "last drop returns the buffer");
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let pool = FramePool::with_limits(8, 128);
        drop(pool.encode(&publish(vec![0u8; 4096])));
        assert_eq!(idle_buffers(&pool), 0);
        drop(pool.encode(&publish(vec![0u8; 16])));
        assert_eq!(idle_buffers(&pool), 1);
    }

    #[test]
    fn frame_write_is_one_write_call() {
        let pool = FramePool::new();
        let frame = pool.encode(&publish(vec![3u8; 10]));
        let mut w = CountingWriter::default();
        frame.write_to(&mut w).unwrap();
        assert_eq!(w.writes, 1, "prefix+payload must go out together");
        assert_eq!(w.bytes, frame.wire_bytes());
    }

    #[test]
    fn multi_frame_batch_coalesces_into_one_vectored_write() {
        let pool = FramePool::new();
        let frames: Vec<SharedFrame> = (0..5)
            .map(|i| pool.encode(&publish(vec![i as u8; 20])))
            .collect();
        let mut w = CountingWriter::default();
        write_frames(&mut w, &frames).unwrap();
        assert_eq!(w.vectored_writes, 1, "5 frames, one coalesced write");
        let mut cursor = std::io::Cursor::new(w.bytes);
        for f in &frames {
            assert_eq!(next_payload(&mut cursor), f.payload());
        }
    }

    /// A writer that accepts at most `cap` bytes per call, forcing
    /// partial-write resumption both mid-prefix and mid-payload.
    struct Trickle {
        bytes: Vec<u8>,
        cap: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let mut left = self.cap;
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(left);
                self.bytes.extend_from_slice(&b[..take]);
                n += take;
                left -= take;
                if left == 0 {
                    break;
                }
            }
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_resume_correctly() {
        for cap in [1usize, 2, 3, 7] {
            let pool = FramePool::new();
            let frames: Vec<SharedFrame> = (0..4)
                .map(|i| pool.encode(&publish(vec![i as u8; 11])))
                .collect();
            let mut w = Trickle {
                bytes: Vec::new(),
                cap,
            };
            write_frames(&mut w, &frames).unwrap();
            let mut cursor = std::io::Cursor::new(w.bytes);
            for f in &frames {
                assert_eq!(next_payload(&mut cursor), f.payload(), "cap={cap}");
            }
        }
    }

    #[test]
    fn batches_larger_than_slice_window_still_roundtrip() {
        let pool = FramePool::new();
        let frames: Vec<SharedFrame> = (0..(MAX_BATCH_SLICES + 9))
            .map(|i| pool.encode(&publish(vec![(i % 251) as u8; 5])))
            .collect();
        let mut w = CountingWriter::default();
        write_frames(&mut w, &frames).unwrap();
        assert_eq!(w.vectored_writes, 2, "64-slice window → two writes");
        let mut cursor = std::io::Cursor::new(w.bytes);
        for f in &frames {
            assert_eq!(next_payload(&mut cursor), f.payload());
        }
    }

    /// A writer that alternates between accepting a few bytes and
    /// returning `WouldBlock`, like a nonblocking socket under pressure.
    struct Choppy {
        bytes: Vec<u8>,
        cap: usize,
        blocked: bool,
    }

    impl Write for Choppy {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.blocked = !self.blocked;
            if self.blocked {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.cap);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.blocked = !self.blocked;
            if self.blocked {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let mut left = self.cap;
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(left);
                self.bytes.extend_from_slice(&b[..take]);
                n += take;
                left -= take;
                if left == 0 {
                    break;
                }
            }
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn cursor_resumes_across_would_block() {
        for cap in [1usize, 3, 9, 1024] {
            let pool = FramePool::new();
            let frames: Vec<SharedFrame> =
                (0..70) // spans two slice windows
                    .map(|i| pool.encode(&publish(vec![(i % 251) as u8; 13])))
                    .collect();
            let mut w = Choppy {
                bytes: Vec::new(),
                cap,
                blocked: false,
            };
            let mut cursor = FrameWriteCursor::new();
            let mut yields = 0usize;
            while !cursor.done(&frames) {
                match cursor.write_step(&mut w, &frames) {
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        // Simulates waiting for the next readiness event.
                        yields += 1;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            assert!(yields > 0, "cap={cap}: writer never pushed back");
            assert_eq!(cursor.frames_done(), frames.len());
            let mut cursor_bytes = std::io::Cursor::new(w.bytes);
            for f in &frames {
                assert_eq!(next_payload(&mut cursor_bytes), f.payload());
            }
        }
    }
}
