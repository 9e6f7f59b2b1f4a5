//! A Siena-like content-based publish-subscribe substrate, built from
//! scratch for the PSGuard reproduction.
//!
//! The paper (§2.1, §5.1) layers PSGuard on an unmodified Siena core: a
//! hierarchical broker overlay with in-network matching and the *covering*
//! optimization on subscription forwarding. This crate provides that core:
//!
//! * [`Broker`] — the pure routing state machine (subscribe / publish →
//!   actions), generic over [`FilterSemantics`] so the same code routes
//!   plaintext filters and PSGuard's tokenized envelopes; its
//!   [`Broker::route`] is the one match driver and the one definition of
//!   delivery order, returning each event's recipients without copying
//!   the event. It owns the covering and forwarding policy;
//! * [`MatchIndex`] — the broker's one subscription store: counting-based
//!   matching, plus per-filter and per-peer lookups so subscribe,
//!   unsubscribe, peer departure and replay never scan the table;
//! * [`Engine`] — a deterministic discrete-event overlay (full binary
//!   broker trees, GT-ITM latencies, per-node queueing) used to reproduce
//!   the throughput/latency figures;
//! * [`spawn_broker`] / [`TcpClient`] — the TCP transport: a
//!   readiness-driven [`reactor`] over a framed binary [`wire`] format.
//!
//! # Example
//!
//! ```
//! use psguard_model::{Constraint, Event, Filter, Op};
//! use psguard_siena::{Action, Broker, Peer};
//!
//! let mut broker: Broker<Filter> = Broker::new(true);
//! broker.subscribe(Peer::Local(1), Filter::for_topic("news"));
//! let e = Event::builder("news").build();
//! let out = broker.publish(Peer::Local(2), e.clone());
//! assert_eq!(out, vec![Action::Deliver(Peer::Local(1), e)]);
//! ```

// `deny`, not `forbid`: `reactor/sys.rs` holds the epoll and eventfd FFI
// and scopes its own `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod broker;
mod engine;
mod error;
mod fault;
mod frame;
mod index;
pub mod log;
pub mod reactor;
mod semantics;
pub mod wire;

pub use broker::{Action, Broker, BrokerStats, Peer};
pub use engine::{CostModel, Engine, EngineConfig, RunReport};
pub use error::TcpError;
pub use fault::{
    DeliveryRecord, FaultConfig, FaultRunReport, RecoveryConfig, Revocation, SeqDedup,
};
pub use frame::{write_frames, Frame, FramePool, FramePoolStats, SharedFrame};
pub use index::{EntryId, IndexableFilter, KeyQuery, MatchIndex, MatchStats};
pub use log::{
    Cursor, EventLog, LogConfig, LogError, LogStats, RecoveryReport, ReplayCursor, ResumeOutcome,
};
pub use reactor::{
    spawn_broker, spawn_broker_durable, spawn_broker_with, ClientReactor, OverflowPolicy,
    ReactorClient, TcpBroker, TcpClient, TcpConfig, TcpStats,
};
pub use semantics::FilterSemantics;
pub use wire::{Message, Wire, WireError};
