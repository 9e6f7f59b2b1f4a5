//! The TCP transport: a readiness-driven reactor speaking the framed
//! [`wire`](crate::wire) protocol.
//!
//! Sockets are nonblocking, readiness comes from edge-triggered `epoll`
//! (Linux only), and a *fixed* worker pool drives every connection's
//! read/decode/match/write state machine. The broker's thread count and
//! per-connection memory are decided at spawn time and stay flat as
//! connections grow from tens to tens of thousands; the client side
//! packs any number of connections onto a single reactor thread.
//!
//! Protocol behaviour, hardened for failure:
//!
//! * **Bounded outbound queues** — every per-connection queue holds at
//!   most [`TcpConfig::queue_capacity`] frames. The broker never blocks
//!   its dispatcher on a slow consumer: overflowing frames are dropped
//!   and counted ([`TcpStats::dropped_frames`]). Clients choose an
//!   [`OverflowPolicy`].
//! * **Heartbeats and eviction** — peers exchange heartbeats every
//!   [`TcpConfig::heartbeat_interval`]; a broker evicts a child peer
//!   (dropping its subscriptions, exactly as if it had disconnected)
//!   after [`TcpConfig::heartbeat_miss_limit`] silent intervals.
//! * **Client reconnection** — a client that loses its broker reconnects
//!   with capped exponential backoff plus deterministic jitter, replaying
//!   its subscriptions on every new connection, until
//!   [`TcpConfig::max_reconnect_attempts`] consecutive failures.
//! * **Readiness handshake** — `Subscribe` is acknowledged with `SubAck`
//!   once the filter is installed *and*, when the broker had to forward
//!   it upward, once the parent has acknowledged in turn.
//! * **Zero-copy fan-out** — every outbound message is serialized once
//!   into a pooled, reference-counted `SharedFrame`; a publish matched by
//!   N subscriber connections enqueues N `Arc` clones of the same buffer,
//!   never N copies of the bytes, drained through coalesced vectored
//!   writes.
//!
//! Layout:
//!
//! * `config` — [`TcpConfig`], [`OverflowPolicy`], [`TcpStats`].
//! * `sys` — the crate's one `unsafe` island: `epoll` and `eventfd`
//!   declared against the libc `std` links, wrapped into `io::Result`.
//! * `poller` — the edge-triggered `Poller` (cost O(ready) per pass)
//!   and the `PollWaker` that wakes it through an eventfd and carries
//!   its ready list of connections with frames to send.
//! * `conn` — per-connection state: bounded outbound queue that marks
//!   its token when it stops being empty, resumable coalesced-write
//!   cursor, incremental frame parser, and the sticky readiness bits an
//!   edge-triggered poller needs.
//! * `worker` — the broker worker loop (one thread, many connections);
//!   worker 0 also accepts and dispatches.
//! * `broker` — the dispatcher state worker 0 runs, and pool assembly;
//!   public [`TcpBroker`] handle.
//! * `client` — [`ClientReactor`] (one thread, many client
//!   connections) and the one-connection [`TcpClient`].
//!
//! The paper linked its 63-node overlay with "open TCP connections"
//! (§5.2); this module is the equivalent transport, used by the
//! `broker_network` example and the integration tests. DESIGN.md
//! "Transport" walks through the architecture; the `connection_scaling`
//! bench measures the flat-thread/flat-memory behaviour.

mod broker;
mod client;
mod config;
mod conn;
mod poller;
mod sys;
mod worker;

pub use broker::{spawn_broker, spawn_broker_durable, spawn_broker_with, TcpBroker, MAX_WORKERS};
pub use client::{ClientReactor, ReactorClient, TcpClient};
pub use config::{OverflowPolicy, TcpConfig, TcpStats};
