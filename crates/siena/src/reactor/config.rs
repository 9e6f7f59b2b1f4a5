//! Transport tuning knobs ([`TcpConfig`], [`OverflowPolicy`]), the
//! counters brokers and clients expose ([`TcpStats`]), and the
//! deterministic reconnect jitter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What to do when a bounded outbound queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Wait for space (applies backpressure to the caller).
    Block,
    /// Drop the new frame, count it, and report
    /// [`TcpError::Backpressure`](crate::TcpError::Backpressure).
    DropNewest,
}

/// Transport tuning knobs, shared by brokers and clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpConfig {
    /// Deadline for establishing a TCP connection.
    pub connect_timeout: Duration,
    /// Capacity of each bounded outbound frame queue.
    pub queue_capacity: usize,
    /// Client-side policy when the outbound queue is full (the broker
    /// always drops — it must never block its dispatcher).
    pub overflow: OverflowPolicy,
    /// Heartbeat period; `Duration::ZERO` disables heartbeats and
    /// eviction.
    pub heartbeat_interval: Duration,
    /// Consecutive silent heartbeat intervals before a broker evicts a
    /// child peer and drops its subscriptions.
    pub heartbeat_miss_limit: u32,
    /// First reconnect delay (doubles per consecutive failure).
    pub reconnect_initial: Duration,
    /// Cap on the reconnect delay.
    pub reconnect_max: Duration,
    /// Consecutive failed reconnects before the client gives up
    /// ([`TcpError::Disconnected`](crate::TcpError::Disconnected) from
    /// then on).
    pub max_reconnect_attempts: u32,
    /// Seed for the deterministic reconnect jitter.
    pub jitter_seed: u64,
    /// Broker worker-pool size. `0` (the default) resolves to the
    /// number of available CPU cores, clamped to
    /// [`MAX_WORKERS`](super::MAX_WORKERS). Clients ignore it.
    pub worker_threads: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_secs(3),
            queue_capacity: 1024,
            overflow: OverflowPolicy::Block,
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_miss_limit: 4,
            reconnect_initial: Duration::from_millis(50),
            reconnect_max: Duration::from_secs(2),
            max_reconnect_attempts: 10,
            jitter_seed: 0x7c93,
            worker_threads: 0,
        }
    }
}

/// Counters exposed by [`TcpBroker::stats`](super::TcpBroker::stats) /
/// [`ReactorClient::stats`](super::ReactorClient::stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpStats {
    /// Child peers evicted after missed heartbeats (broker only).
    pub evicted_peers: u64,
    /// Frames dropped by full bounded queues or failed writes.
    pub dropped_frames: u64,
    /// Received events discarded because the application stopped
    /// draining its delivery channel (client only).
    pub dropped_deliveries: u64,
    /// Successful reconnections (client only).
    pub reconnects: u64,
    /// Heartbeat frames sent.
    pub heartbeats_sent: u64,
    /// Replayed (`Stamped`) frames a durable broker queued toward
    /// catching-up subscribers (broker only).
    pub replayed_frames: u64,
    /// Publishes a durable broker could not append to its event log
    /// (delivered live, unstamped, instead) (broker only).
    pub log_append_failures: u64,
    /// Stamped events suppressed by the client's replay/live dedup
    /// window — the double-delivery the catch-up protocol absorbs
    /// (client only).
    pub duplicates_suppressed: u64,
}

#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub(crate) evicted_peers: AtomicU64,
    pub(crate) dropped_frames: AtomicU64,
    pub(crate) dropped_deliveries: AtomicU64,
    pub(crate) reconnects: AtomicU64,
    pub(crate) heartbeats_sent: AtomicU64,
    pub(crate) replayed_frames: AtomicU64,
    pub(crate) log_append_failures: AtomicU64,
    pub(crate) duplicates_suppressed: AtomicU64,
}

impl StatsInner {
    pub(crate) fn snapshot(&self) -> TcpStats {
        TcpStats {
            evicted_peers: self.evicted_peers.load(Ordering::Relaxed),
            dropped_frames: self.dropped_frames.load(Ordering::Relaxed),
            dropped_deliveries: self.dropped_deliveries.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            heartbeats_sent: self.heartbeats_sent.load(Ordering::Relaxed),
            replayed_frames: self.replayed_frames.load(Ordering::Relaxed),
            log_append_failures: self.log_append_failures.load(Ordering::Relaxed),
            duplicates_suppressed: self.duplicates_suppressed.load(Ordering::Relaxed),
        }
    }
}

/// Deterministic jitter: a 64-bit LCG stepped once per reconnect wait.
pub(crate) fn jitter_step(state: &mut u64, base: Duration) -> Duration {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let half = (base.as_micros() as u64 / 2).max(1);
    Duration::from_micros((*state >> 33) % half)
}
