//! Failure recovery for the overlay engine: the [`Engine`] run under a
//! seeded [`FaultPlan`], with per-hop ack/retransmit, sequence-number
//! dedup, heartbeat-based failure detection, and subscription-state
//! re-propagation when a crashed broker restarts.
//!
//! The paper's resilience argument (§4.2) is made for the abstract
//! multi-path tree; this module gives the *overlay engine* the same
//! machinery so delivery under faults can be measured on the simulated
//! broker tree (and compared against the analytic curves — see
//! `psguard_routing::overlay`). Design notes in DESIGN.md §11.
//!
//! Recovery semantics, layer by layer:
//!
//! * **Link loss / duplication / jitter** — every inter-node send goes
//!   through [`Simulator::send_faulty`]; with [`RecoveryConfig`] enabled,
//!   each data hop is acked by the receiver and retransmitted by the
//!   sender with exponential backoff until acked or abandoned.
//! * **Duplicates** (link-level or retransmit-induced) — every node keeps
//!   a bounded [`SeqDedup`] window over event sequence numbers; duplicate
//!   copies are re-acked but not re-forwarded or re-delivered.
//! * **Crashes** — a node inside a crash window silently discards
//!   arrivals (no acks, so senders keep retrying). At the restart instant
//!   the broker's subscription table is rebuilt from the engine's
//!   registration ground truth (modeling the children's re-announcement,
//!   collapsed to an atomic replay).
//! * **Heartbeats** — brokers exchange heartbeats with their tree
//!   neighbors; a parent that misses `heartbeat_miss_limit` intervals
//!   from a child evicts the child's subscriptions (graceful
//!   degradation), and reinstalls them when the child is heard again.

use std::collections::{HashMap, HashSet, VecDeque};

use psguard_net::{FaultPlan, FaultStats, NodeId, SimTime, Simulator};

use crate::broker::{Action, Broker, Peer};
use crate::engine::{CostModel, Engine};
use crate::index::IndexableFilter;

/// Ack/retransmit, dedup, and heartbeat parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Extra wait beyond the round-trip before the first retransmission.
    pub ack_timeout_us: u64,
    /// Retransmissions attempted before a hop is abandoned.
    pub max_retries: u32,
    /// Cap on the exponentially backed-off retransmit interval.
    pub backoff_cap_us: u64,
    /// Sequence-number window remembered per node for duplicate
    /// suppression (0 disables dedup).
    pub dedup_window: usize,
    /// Interval between broker heartbeats (0 disables heartbeats and
    /// eviction).
    pub heartbeat_interval_us: u64,
    /// Missed intervals before a silent child broker is evicted.
    pub heartbeat_miss_limit: u32,
    /// Model brokers as keeping a durable event log (the TCP transport's
    /// `EventLog`): a crash no longer wipes the node's dedup window (at
    /// restart it is re-seeded from the recovered log's high-water mark,
    /// so post-restart duplicates are *counted*, not re-delivered), the
    /// node's unacked outbound hops survive the window (replayed from
    /// the log), and retries at a crashed sender wait out the outage
    /// instead of burning their budget.
    pub durable_log: bool,
}

impl RecoveryConfig {
    /// Defaults sized for the paper's wide-area latency regime (one-way
    /// 12–92 ms): first retransmit ≈ RTT + 400 ms, doubling to a 6.4 s
    /// cap, 12 retries, 1 s heartbeats with eviction after 3 misses.
    pub fn overlay_default() -> Self {
        RecoveryConfig {
            ack_timeout_us: 400_000,
            max_retries: 12,
            backoff_cap_us: 6_400_000,
            dedup_window: 4096,
            heartbeat_interval_us: 1_000_000,
            heartbeat_miss_limit: 3,
            durable_log: false,
        }
    }

    /// The overlay defaults with heartbeats (and eviction) disabled —
    /// retransmission and dedup only.
    pub fn no_heartbeats() -> Self {
        RecoveryConfig {
            heartbeat_interval_us: 0,
            ..Self::overlay_default()
        }
    }

    /// The overlay defaults with durable broker logs — crash windows
    /// preserve dedup state and unacked outbound hops.
    pub fn durable() -> Self {
        RecoveryConfig {
            durable_log: true,
            ..Self::overlay_default()
        }
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self::overlay_default()
    }
}

/// A scheduled mid-run unsubscription of every filter a client holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Revocation {
    /// The subscriber client to revoke.
    pub client: u32,
    /// When the revocation takes effect at the client's attach broker.
    pub at_us: SimTime,
}

/// Everything a faulty run needs besides the workload.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// The seeded fault model.
    pub plan: FaultPlan,
    /// Recovery machinery; `None` observes raw loss (no acks, no dedup).
    pub recovery: Option<RecoveryConfig>,
    /// Mid-run revocations.
    pub revocations: Vec<Revocation>,
    /// Whether to keep a per-delivery record (used by the chaos suite's
    /// invariant checks; off by default to keep the zero-fault path lean).
    pub record_deliveries: bool,
}

impl FaultConfig {
    /// A fault-free plan with recovery disabled: the pay-for-what-you-use
    /// baseline, behaviorally identical to [`Engine::run`].
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            plan: FaultPlan::none(seed),
            recovery: None,
            revocations: Vec::new(),
            record_deliveries: false,
        }
    }

    /// A plan with default recovery enabled.
    pub fn with_recovery(plan: FaultPlan) -> Self {
        FaultConfig {
            plan,
            recovery: Some(RecoveryConfig::default()),
            revocations: Vec::new(),
            record_deliveries: false,
        }
    }
}

/// One event copy delivered to a subscriber (after dedup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// The receiving client.
    pub client: u32,
    /// The event's publication sequence number.
    pub event_seq: u64,
    /// Publication time (µs).
    pub sent_at: SimTime,
    /// Delivery (post-processing) time (µs).
    pub delivered_at: SimTime,
}

/// Result of one faulty run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRunReport {
    /// Events published.
    pub published: u64,
    /// Event copies delivered to subscribers (after dedup).
    pub delivered: u64,
    /// Duplicate copies suppressed by receiver dedup windows.
    pub duplicates_suppressed: u64,
    /// Hop retransmissions performed.
    pub retransmissions: u64,
    /// Hops abandoned after exhausting retries.
    pub abandoned: u64,
    /// Messages discarded because the receiving node was crashed.
    pub lost_to_dead_node: u64,
    /// Child-broker evictions after missed heartbeats.
    pub evictions: u64,
    /// Subscription reinstalls (broker restarts + evicted peers heard
    /// again).
    pub reinstalls: u64,
    /// Mean publish→deliver latency (ms) over delivered copies.
    pub mean_latency_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_latency_ms: f64,
    /// Maximum node utilization.
    pub max_utilization: f64,
    /// Whether some node saturated.
    pub saturated: bool,
    /// What the fault plan did to the traffic.
    pub fault_stats: FaultStats,
    /// Revocations applied, with their effective times.
    pub revoked: Vec<(u32, SimTime)>,
    /// Per-delivery records (only when `record_deliveries` was set).
    pub deliveries: Vec<DeliveryRecord>,
}

impl FaultRunReport {
    /// Fraction of published events delivered, normalized by the expected
    /// copy count (`published × subscribers` for all-matching workloads).
    pub fn delivery_fraction(&self, expected_copies: u64) -> f64 {
        if expected_copies == 0 {
            return 1.0;
        }
        self.delivered as f64 / expected_copies as f64
    }
}

/// A bounded first-seen window over event sequence numbers: a node's
/// duplicate suppression in the faulty overlay run, and the subscriber's
/// in `psguard_routing::MultipathOverlay`.
#[derive(Debug, Clone, Default)]
pub struct SeqDedup {
    capacity: usize,
    seen: HashSet<u64>,
    order: VecDeque<u64>,
}

impl SeqDedup {
    /// A window remembering up to `capacity` sequence numbers
    /// (`capacity == 0` disables suppression).
    pub fn new(capacity: usize) -> Self {
        SeqDedup {
            capacity,
            seen: HashSet::new(),
            order: VecDeque::new(),
        }
    }

    /// Whether `seq` is new; records it if so.
    pub fn first_seen(&mut self, seq: u64) -> bool {
        if self.capacity == 0 {
            return true;
        }
        if self.seen.contains(&seq) {
            return false;
        }
        if self.order.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        self.seen.insert(seq);
        self.order.push_back(seq);
        true
    }

    /// Forgets everything (a crashed node loses its window).
    pub fn clear(&mut self) {
        self.seen.clear();
        self.order.clear();
    }

    /// Sequence numbers currently remembered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum FMsg<E> {
    /// An event copy arriving at a broker node.
    Data {
        seq: u64,
        sent_at: SimTime,
        event: E,
        from: Peer,
        hop: u64,
    },
    /// Final delivery to a subscriber node.
    Local {
        seq: u64,
        sent_at: SimTime,
        event: E,
        from_node: u32,
        hop: u64,
    },
    /// Hop acknowledgement, addressed to the sending node.
    Ack { hop: u64 },
    /// Retransmit timer at the sending node.
    Retry { hop: u64 },
    /// Periodic heartbeat timer at a broker node.
    HbTick,
    /// A heartbeat received from a neighbor broker.
    Heartbeat { from_node: u32 },
    /// Node enters its crash window (state is lost).
    Crash,
    /// Node restarts (subscription state is rebuilt).
    Restart,
    /// Revocation control event at the client's attach broker.
    Revoke { client: u32 },
}

struct PendingHop<E> {
    src: usize,
    dst: usize,
    latency: u64,
    attempts: u32,
    msg: FMsg<E>,
}

/// Sentinel hop id meaning "not acked" (publisher-local arrivals).
const NO_HOP: u64 = 0;

impl<F: IndexableFilter> Engine<F>
where
    F::Event: Eq,
{
    /// One-way latency (µs) of the overlay link between adjacent engine
    /// nodes `a` and `b` (parent/child brokers, or broker/subscriber).
    fn hop_latency(&self, a: usize, b: usize) -> u64 {
        let brokers = self.subscriber_base;
        if a >= brokers {
            return self.access_latency[a - brokers];
        }
        if b >= brokers {
            return self.access_latency[b - brokers];
        }
        if self.parent_of[a] == Some(b) {
            self.link_up[a]
        } else {
            debug_assert_eq!(self.parent_of[b], Some(a), "not an overlay edge");
            self.link_up[b]
        }
    }

    /// The peer through which `client`'s subscription reaches broker `b`,
    /// or `None` when `b` is not on the path from the client's attach
    /// broker to the root.
    fn peer_into(&self, b: usize, client: u32) -> Option<Peer> {
        let mut node = self.attach[client as usize];
        if node == b {
            return Some(Peer::Local(client));
        }
        while let Some(parent) = self.parent_of[node] {
            if parent == b {
                return Some(Peer::Child(node as u32));
            }
            node = parent;
        }
        None
    }

    /// Rebuilds broker `b`'s subscription table from the registration
    /// ground truth (restart recovery).
    fn rebuild_broker(&mut self, b: usize) {
        self.brokers[b] = Broker::new(b == 0);
        let regs: Vec<(u32, F)> = self.registered.clone();
        for (client, filter) in regs {
            if let Some(from) = self.peer_into(b, client) {
                self.brokers[b].subscribe(from, filter);
            }
        }
    }

    /// Reinstalls at broker `n` the subscriptions arriving through child
    /// broker `c` (post-eviction recovery).
    fn reinstall_child(&mut self, n: usize, c: u32) {
        let regs: Vec<(u32, F)> = self.registered.clone();
        for (client, filter) in regs {
            if self.peer_into(n, client) == Some(Peer::Child(c)) {
                self.brokers[n].subscribe(Peer::Child(c), filter);
            }
        }
    }

    /// Runs a fixed-rate workload under a [`FaultPlan`] with the given
    /// recovery semantics. With [`FaultConfig::none`] this is behaviorally
    /// identical to [`Engine::run`] — the fault layer is pay-for-what-you-
    /// use. Control traffic (acks, heartbeats, timers) is not charged
    /// node service time; the queueing model prices data copies exactly
    /// as [`Engine::run`] does.
    ///
    /// # Panics
    ///
    /// Panics when `events` is empty or `rate_eps` is not positive
    /// (matching [`Engine::run`]).
    pub fn run_faulty(
        &mut self,
        events: &[F::Event],
        rate_eps: f64,
        duration_s: f64,
        cost: &CostModel,
        fault: &mut FaultConfig,
    ) -> FaultRunReport {
        assert!(!events.is_empty(), "workload must contain events");
        assert!(rate_eps > 0.0, "rate must be positive");
        let duration_us = (duration_s * 1e6) as u64;
        let interarrival = (1e6 / rate_eps).max(1.0);
        let recovery = fault.recovery;
        let plan = &mut fault.plan;

        let total_brokers = self.subscriber_base;
        let n_nodes = total_brokers + self.config.subscribers as usize;
        let mut busy_until = vec![0u64; n_nodes];
        let mut busy_acc = vec![0u64; n_nodes];
        let mut latencies: Vec<u64> = Vec::new();
        let mut deliveries: Vec<DeliveryRecord> = Vec::new();
        let mut delivered = 0u64;
        let mut duplicates_suppressed = 0u64;
        let mut retransmissions = 0u64;
        let mut abandoned = 0u64;
        let mut lost_to_dead_node = 0u64;
        let mut evictions = 0u64;
        let mut reinstalls = 0u64;
        let mut revoked: Vec<(u32, SimTime)> = Vec::new();

        let dedup_cap = recovery.map(|r| r.dedup_window).unwrap_or(0);
        let mut dedup: Vec<SeqDedup> = (0..n_nodes).map(|_| SeqDedup::new(dedup_cap)).collect();
        let mut pending: HashMap<u64, PendingHop<F::Event>> = HashMap::new();
        let mut hop_counter: u64 = NO_HOP;
        // Liveness bookkeeping for heartbeats: (listener, speaker) → last
        // heard time. Time 0 counts as "just heard" (startup grace).
        let mut last_heard: HashMap<(usize, usize), SimTime> = HashMap::new();
        let mut evicted: HashSet<(usize, usize)> = HashSet::new();

        let mut sim: Simulator<FMsg<F::Event>> = Simulator::new();

        // Retry budget bounds how long after the last publication the
        // overlay can still be working; heartbeats stop past this horizon
        // so the simulation drains.
        let retry_budget = recovery
            .map(|r| r.max_retries as u64 * r.backoff_cap_us + 8 * r.ack_timeout_us)
            .unwrap_or(0);
        let hb_horizon = duration_us + retry_budget + 2_000_000;

        // Pre-scheduled control events get the smallest sequence numbers,
        // so at equal timestamps Crash/Restart/Revoke are processed before
        // any data arriving at the same instant.
        for &(node, window) in plan.crash_windows() {
            let n = node.0 as usize;
            if n < n_nodes {
                sim.schedule_at(window.from, node, FMsg::Crash);
                sim.schedule_at(window.until, node, FMsg::Restart);
            }
        }
        for r in &fault.revocations {
            let broker = self.attach[r.client as usize];
            sim.schedule_at(
                r.at_us,
                NodeId(broker as u32),
                FMsg::Revoke { client: r.client },
            );
        }
        if let Some(rec) = recovery {
            if rec.heartbeat_interval_us > 0 {
                for b in 0..total_brokers {
                    sim.schedule_at(rec.heartbeat_interval_us, NodeId(b as u32), FMsg::HbTick);
                }
            }
        }

        // Publication arrivals at the publisher (node 0), fixed-interval.
        let mut t = 0.0f64;
        let mut seq = 0u64;
        while (t as u64) < duration_us {
            sim.schedule_at(
                t as u64,
                NodeId(0),
                FMsg::Data {
                    seq,
                    sent_at: t as u64,
                    event: events[(seq as usize) % events.len()].clone(),
                    from: Peer::Local(u32::MAX),
                    hop: NO_HOP,
                },
            );
            seq += 1;
            t += interarrival;
        }
        let published = seq;

        let hb_budget = recovery
            .filter(|r| r.heartbeat_interval_us > 0)
            .map(|r| (hb_horizon / r.heartbeat_interval_us + 2) * total_brokers as u64 * 5)
            .unwrap_or(0);
        let retries = recovery.map(|r| r.max_retries as u64).unwrap_or(0);
        let max_events = published * (n_nodes as u64 + 4) * (4 + retries) + hb_budget + 100_000;

        let mut processed = 0u64;
        while let Some(d) = sim.next() {
            processed += 1;
            if processed > max_events {
                break;
            }
            let node = d.dst.0 as usize;
            let at = d.at;
            match d.msg {
                FMsg::Data {
                    seq,
                    sent_at,
                    event,
                    from,
                    hop,
                } => {
                    if !plan.is_up(d.dst, at) {
                        lost_to_dead_node += 1;
                        continue;
                    }
                    let sender = match from {
                        Peer::Child(c) => Some(c as usize),
                        Peer::Parent => self.parent_of[node],
                        Peer::Local(_) => None,
                    };
                    if let (Some(rec), Some(src)) = (recovery, sender) {
                        if hop != NO_HOP {
                            let lat = self.hop_latency(node, src);
                            sim.send_faulty(
                                plan,
                                d.dst,
                                NodeId(src as u32),
                                lat,
                                FMsg::Ack { hop },
                            );
                        }
                        if rec.heartbeat_interval_us > 0 && src < total_brokers {
                            last_heard.insert((node, src), at);
                        }
                    }
                    if dedup_cap > 0 && !dedup[node].first_seen(seq) {
                        duplicates_suppressed += 1;
                        continue;
                    }

                    let start = at.max(busy_until[node]);
                    let actions = self.brokers[node].publish(from, event);
                    let match_cost = cost.broker_match_us * self.brokers[node].last_match_work();
                    let fixed = if node == 0 {
                        cost.publisher_us + match_cost
                    } else {
                        match_cost
                    };
                    let mut finish = start + fixed.max(1);
                    let mut departures = Vec::with_capacity(actions.len());
                    for _ in 0..actions.len() {
                        finish += cost.broker_forward_us;
                        departures.push(finish);
                    }
                    busy_until[node] = finish;
                    busy_acc[node] += finish - start;
                    for (action, depart) in actions.into_iter().zip(departures) {
                        let (dst, latency, msg) = match action {
                            Action::Deliver(Peer::Child(c), e) => {
                                let child = c as usize;
                                hop_counter += 1;
                                (
                                    child,
                                    self.link_up[child],
                                    FMsg::Data {
                                        seq,
                                        sent_at,
                                        event: e,
                                        from: Peer::Parent,
                                        hop: hop_counter,
                                    },
                                )
                            }
                            Action::Deliver(Peer::Parent, e) => {
                                let Some(parent) = self.parent_of[node] else {
                                    continue;
                                };
                                hop_counter += 1;
                                (
                                    parent,
                                    self.link_up[node],
                                    FMsg::Data {
                                        seq,
                                        sent_at,
                                        event: e,
                                        from: Peer::Child(node as u32),
                                        hop: hop_counter,
                                    },
                                )
                            }
                            Action::Deliver(Peer::Local(client), e) => {
                                hop_counter += 1;
                                (
                                    self.subscriber_base + client as usize,
                                    self.access_latency[client as usize],
                                    FMsg::Local {
                                        seq,
                                        sent_at,
                                        event: e,
                                        from_node: node as u32,
                                        hop: hop_counter,
                                    },
                                )
                            }
                            Action::ForwardSubscribe(_) | Action::ForwardUnsubscribe(_) => {
                                continue;
                            }
                        };
                        let base = (depart - at) + latency;
                        if let Some(rec) = recovery {
                            sim.send_faulty(plan, d.dst, NodeId(dst as u32), base, msg.clone());
                            pending.insert(
                                hop_counter,
                                PendingHop {
                                    src: node,
                                    dst,
                                    latency,
                                    attempts: 0,
                                    msg,
                                },
                            );
                            let timeout = base + latency + rec.ack_timeout_us;
                            sim.schedule_in(timeout, d.dst, FMsg::Retry { hop: hop_counter });
                        } else {
                            sim.send_faulty(plan, d.dst, NodeId(dst as u32), base, msg);
                        }
                    }
                }
                FMsg::Local {
                    seq,
                    sent_at,
                    event: _,
                    from_node,
                    hop,
                } => {
                    if !plan.is_up(d.dst, at) {
                        lost_to_dead_node += 1;
                        continue;
                    }
                    if recovery.is_some() && hop != NO_HOP {
                        let lat = self.hop_latency(node, from_node as usize);
                        sim.send_faulty(plan, d.dst, NodeId(from_node), lat, FMsg::Ack { hop });
                    }
                    if dedup_cap > 0 && !dedup[node].first_seen(seq) {
                        duplicates_suppressed += 1;
                        continue;
                    }
                    let start = at.max(busy_until[node]);
                    let finish = start + cost.subscriber_us.max(1);
                    busy_until[node] = finish;
                    busy_acc[node] += cost.subscriber_us.max(1);
                    latencies.push(finish - sent_at);
                    delivered += 1;
                    if fault.record_deliveries {
                        deliveries.push(DeliveryRecord {
                            client: (node - self.subscriber_base) as u32,
                            event_seq: seq,
                            sent_at,
                            delivered_at: finish,
                        });
                    }
                }
                FMsg::Ack { hop } => {
                    if plan.is_up(d.dst, at) {
                        pending.remove(&hop);
                    }
                }
                FMsg::Retry { hop } => {
                    let Some(rec) = recovery else { continue };
                    let Some(p) = pending.get_mut(&hop) else {
                        continue;
                    };
                    if rec.durable_log && !plan.is_up(NodeId(p.src as u32), at) {
                        // The sender is inside a crash window but its log
                        // is durable: the hop resumes from the log after
                        // restart instead of burning its retry budget
                        // while the node is down.
                        if at + rec.ack_timeout_us <= hb_horizon {
                            sim.schedule_in(
                                rec.ack_timeout_us,
                                NodeId(p.src as u32),
                                FMsg::Retry { hop },
                            );
                        } else {
                            pending.remove(&hop);
                            abandoned += 1;
                        }
                        continue;
                    }
                    p.attempts += 1;
                    if p.attempts > rec.max_retries {
                        pending.remove(&hop);
                        abandoned += 1;
                        continue;
                    }
                    retransmissions += 1;
                    let (src, dst, latency) = (p.src, p.dst, p.latency);
                    let msg = p.msg.clone();
                    let backoff =
                        (rec.ack_timeout_us << p.attempts.min(24)).min(rec.backoff_cap_us);
                    sim.send_faulty(plan, NodeId(src as u32), NodeId(dst as u32), latency, msg);
                    sim.schedule_in(
                        2 * latency + backoff,
                        NodeId(src as u32),
                        FMsg::Retry { hop },
                    );
                }
                FMsg::HbTick => {
                    let Some(rec) = recovery else { continue };
                    let interval = rec.heartbeat_interval_us;
                    if plan.is_up(d.dst, at) {
                        let parent = self.parent_of[node];
                        let children: Vec<usize> = [2 * node + 1, 2 * node + 2]
                            .into_iter()
                            .filter(|&c| c < total_brokers)
                            .collect();
                        for nb in parent.into_iter().chain(children.iter().copied()) {
                            let lat = self.hop_latency(node, nb);
                            sim.send_faulty(
                                plan,
                                d.dst,
                                NodeId(nb as u32),
                                lat,
                                FMsg::Heartbeat {
                                    from_node: node as u32,
                                },
                            );
                        }
                        let deadline = interval * rec.heartbeat_miss_limit as u64;
                        for c in children {
                            let last = last_heard.get(&(node, c)).copied().unwrap_or(0);
                            if at > deadline && at - last > deadline && evicted.insert((node, c)) {
                                self.brokers[node].peer_down(Peer::Child(c as u32));
                                evictions += 1;
                            }
                        }
                    }
                    if at + interval <= hb_horizon {
                        sim.schedule_in(interval, d.dst, FMsg::HbTick);
                    }
                }
                FMsg::Heartbeat { from_node } => {
                    if !plan.is_up(d.dst, at) {
                        continue;
                    }
                    let speaker = from_node as usize;
                    last_heard.insert((node, speaker), at);
                    if evicted.remove(&(node, speaker)) {
                        self.reinstall_child(node, from_node);
                        reinstalls += 1;
                    }
                }
                FMsg::Crash => {
                    if recovery.is_some_and(|r| r.durable_log) {
                        // Durable log: the restart re-seeds the dedup
                        // window from the recovered high-water mark and
                        // replays unacked hops, so both survive the
                        // window — post-restart duplicates get counted
                        // (suppressed), never re-delivered.
                    } else {
                        // Sender-side reliability state at the crashed
                        // node is gone; in-flight copies stay on the
                        // wire.
                        pending.retain(|_, p| p.src != node);
                        dedup[node].clear();
                    }
                    if node < total_brokers {
                        self.brokers[node] = Broker::new(node == 0);
                    }
                }
                FMsg::Restart => {
                    if node < total_brokers {
                        self.rebuild_broker(node);
                        reinstalls += 1;
                    }
                }
                FMsg::Revoke { client } => {
                    let filters: Vec<F> = self
                        .registered
                        .iter()
                        .filter(|(c, _)| *c == client)
                        .map(|(_, f)| f.clone())
                        .collect();
                    self.registered.retain(|(c, _)| *c != client);
                    if plan.is_up(d.dst, at) {
                        for f in filters {
                            let mut n = node;
                            let mut actions = self.brokers[n].unsubscribe(Peer::Local(client), &f);
                            while let Some(Action::ForwardUnsubscribe(uf)) = actions.pop() {
                                let Some(parent) = self.parent_of[n] else {
                                    break;
                                };
                                let from = Peer::Child(n as u32);
                                n = parent;
                                actions = self.brokers[n].unsubscribe(from, &uf);
                            }
                        }
                    }
                    revoked.push((client, at));
                }
            }
        }

        let denom = duration_us.max(1) as f64;
        let max_utilization = busy_acc
            .iter()
            .map(|&b| b as f64 / denom)
            .fold(0.0, f64::max);
        latencies.sort_unstable();
        let mean_latency_ms = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<u64>() as f64 / latencies.len() as f64 / 1000.0
        };
        let p99_latency_ms = latencies
            .get((latencies.len().saturating_sub(1)) * 99 / 100)
            .map(|&v| v as f64 / 1000.0)
            .unwrap_or(0.0);

        FaultRunReport {
            published,
            delivered,
            duplicates_suppressed,
            retransmissions,
            abandoned,
            lost_to_dead_node,
            evictions,
            reinstalls,
            mean_latency_ms,
            p99_latency_ms,
            max_utilization,
            saturated: max_utilization >= 0.98,
            fault_stats: plan.stats(),
            revoked,
            deliveries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use psguard_model::{Event, Filter};
    use psguard_net::{LinkFaults, Window};

    fn mk_engine(brokers: u32, subs: u32) -> Engine<Filter> {
        Engine::new(EngineConfig {
            broker_nodes: brokers,
            subscribers: subs,
            seed: 42,
        })
    }

    fn workload() -> Vec<Event> {
        (0..16)
            .map(|i| Event::builder("t").attr("x", i as i64 * 10).build())
            .collect()
    }

    #[test]
    fn seq_dedup_window_expires_oldest_and_zero_capacity_disables() {
        let mut w = SeqDedup::new(2);
        assert!(w.first_seen(1));
        assert!(!w.first_seen(1));
        assert!(w.first_seen(2));
        assert!(w.first_seen(3)); // evicts 1
        assert!(w.first_seen(1));
        assert_eq!(w.len(), 2);
        w.clear();
        assert!(w.is_empty());
        let mut off = SeqDedup::new(0);
        assert!(off.first_seen(7));
        assert!(off.first_seen(7));
    }

    #[test]
    fn zero_fault_plan_matches_plain_run() {
        let events = workload();
        let mut a = mk_engine(6, 8);
        let mut b = mk_engine(6, 8);
        for c in 0..8 {
            a.subscribe(c, Filter::for_topic("t"));
            b.subscribe(c, Filter::for_topic("t"));
        }
        let plain = a.run(&events, 50.0, 1.0, &CostModel::plain());
        let mut cfg = FaultConfig::none(1);
        let faulty = b.run_faulty(&events, 50.0, 1.0, &CostModel::plain(), &mut cfg);
        assert_eq!(faulty.published, plain.published);
        assert_eq!(faulty.delivered, plain.delivered);
        assert!((faulty.mean_latency_ms - plain.mean_latency_ms).abs() < 1e-9);
        assert_eq!(faulty.retransmissions, 0);
        assert_eq!(faulty.fault_stats.dropped, 0);
    }

    #[test]
    fn drops_without_recovery_lose_events() {
        let events = workload();
        let mut eng = mk_engine(6, 8);
        for c in 0..8 {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        let plan = FaultPlan::new(3).with_default_link_faults(LinkFaults::drops(0.3));
        let mut cfg = FaultConfig {
            plan,
            recovery: None,
            revocations: Vec::new(),
            record_deliveries: false,
        };
        let r = eng.run_faulty(&events, 50.0, 1.0, &CostModel::plain(), &mut cfg);
        assert!(r.delivered < r.published * 8, "drops must lose copies");
        assert!(r.fault_stats.dropped > 0);
    }

    #[test]
    fn retransmit_recovers_exactly_once_under_drops() {
        let events = workload();
        let mut eng = mk_engine(6, 8);
        for c in 0..8 {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        let plan = FaultPlan::new(5).with_default_link_faults(LinkFaults {
            drop_p: 0.25,
            dup_p: 0.1,
            jitter_us: 10_000,
        });
        let mut cfg = FaultConfig::with_recovery(plan);
        cfg.recovery = Some(RecoveryConfig::no_heartbeats());
        cfg.record_deliveries = true;
        let r = eng.run_faulty(&events, 40.0, 1.0, &CostModel::plain(), &mut cfg);
        assert_eq!(r.delivered, r.published * 8, "exactly-once: {r:?}");
        assert!(r.retransmissions > 0);
        // Every (client, seq) pair appears exactly once.
        let mut seen = HashSet::new();
        for d in &r.deliveries {
            assert!(seen.insert((d.client, d.event_seq)), "duplicate {d:?}");
        }
    }

    #[test]
    fn crashed_broker_recovers_after_restart() {
        let events = workload();
        let mut eng = mk_engine(2, 4);
        for c in 0..4 {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        // Broker 1 is down for the middle of the run; retransmission must
        // carry every event over the outage.
        let mut plan = FaultPlan::new(9);
        plan.add_crash(NodeId(1), Window::new(300_000, 1_200_000));
        let mut cfg = FaultConfig::with_recovery(plan);
        cfg.recovery = Some(RecoveryConfig::no_heartbeats());
        let r = eng.run_faulty(&events, 30.0, 1.0, &CostModel::plain(), &mut cfg);
        assert!(r.lost_to_dead_node > 0, "crash window must bite: {r:?}");
        assert_eq!(
            r.delivered,
            r.published * 4,
            "retransmit over outage: {r:?}"
        );
    }

    #[test]
    fn durable_log_crash_counts_duplicates_instead_of_redelivering() {
        let events = workload();
        let mut eng = mk_engine(2, 4);
        for c in 0..4 {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        // Duplicating links plus a mid-run crash: without the durable
        // log the restarted broker forgets its dedup window and would
        // re-forward late copies; with it, they are suppressed.
        let mut plan = FaultPlan::new(17).with_default_link_faults(LinkFaults {
            drop_p: 0.1,
            dup_p: 0.25,
            jitter_us: 10_000,
        });
        plan.add_crash(NodeId(1), Window::new(300_000, 900_000));
        let mut cfg = FaultConfig::with_recovery(plan);
        cfg.recovery = Some(RecoveryConfig {
            heartbeat_interval_us: 0,
            durable_log: true,
            ..RecoveryConfig::overlay_default()
        });
        cfg.record_deliveries = true;
        let r = eng.run_faulty(&events, 40.0, 1.0, &CostModel::plain(), &mut cfg);
        assert_eq!(r.delivered, r.published * 4, "exactly-once: {r:?}");
        assert!(r.duplicates_suppressed > 0, "dups must be counted: {r:?}");
        let mut seen = HashSet::new();
        for d in &r.deliveries {
            assert!(seen.insert((d.client, d.event_seq)), "duplicate {d:?}");
        }
    }

    #[test]
    fn durable_log_survives_outage_longer_than_retry_budget() {
        let events = workload();
        // A retry budget far shorter than the outage: only the durable
        // log's wait-out-the-window behaviour can carry the crashed
        // sender's unacked hops across it.
        let short_budget = RecoveryConfig {
            max_retries: 2,
            ack_timeout_us: 50_000,
            backoff_cap_us: 100_000,
            heartbeat_interval_us: 0,
            ..RecoveryConfig::overlay_default()
        };
        let run = |durable: bool| {
            let mut eng = mk_engine(2, 4);
            for c in 0..4 {
                eng.subscribe(c, Filter::for_topic("t"));
            }
            let mut plan = FaultPlan::new(23).with_default_link_faults(LinkFaults {
                drop_p: 0.4,
                dup_p: 0.0,
                jitter_us: 5_000,
            });
            plan.add_crash(NodeId(1), Window::new(200_000, 1_500_000));
            let mut cfg = FaultConfig::with_recovery(plan);
            cfg.recovery = Some(RecoveryConfig {
                durable_log: durable,
                ..short_budget
            });
            eng.run_faulty(&events, 30.0, 1.0, &CostModel::plain(), &mut cfg)
        };
        let flaky = run(false);
        let durable = run(true);
        // The non-durable crash silently discards the dead sender's
        // unacked hops; the durable log carries them over the window, so
        // for this seed it strictly recovers copies the baseline loses.
        assert!(
            durable.delivered > flaky.delivered,
            "durable log must recover copies: {durable:?} vs {flaky:?}"
        );
    }

    #[test]
    fn revocation_stops_future_deliveries() {
        let events = workload();
        let mut eng = mk_engine(6, 8);
        for c in 0..8 {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        let revoke_at = 500_000;
        let mut cfg = FaultConfig::none(2);
        cfg.revocations = vec![Revocation {
            client: 3,
            at_us: revoke_at,
        }];
        cfg.record_deliveries = true;
        let r = eng.run_faulty(&events, 50.0, 1.0, &CostModel::plain(), &mut cfg);
        assert_eq!(r.revoked, vec![(3, revoke_at)]);
        for d in r.deliveries.iter().filter(|d| d.client == 3) {
            assert!(
                d.sent_at < revoke_at,
                "event published at {} delivered to revoked client",
                d.sent_at
            );
        }
        // The other clients still get everything.
        let others = r.deliveries.iter().filter(|d| d.client != 3).count() as u64;
        assert_eq!(others, r.published * 7);
    }

    #[test]
    fn heartbeat_eviction_and_reinstall() {
        let events = workload();
        let mut eng = mk_engine(2, 4);
        for c in 0..4 {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        // Partition broker 1 from the root long enough to miss heartbeats,
        // then heal; eviction must fire and delivery must resume.
        let mut plan = FaultPlan::new(11);
        plan.add_partition(NodeId(0), NodeId(1), Window::new(100_000, 1_600_000));
        let mut cfg = FaultConfig::with_recovery(plan);
        cfg.recovery = Some(RecoveryConfig {
            ack_timeout_us: 100_000,
            max_retries: 2,
            backoff_cap_us: 200_000,
            heartbeat_interval_us: 200_000,
            ..RecoveryConfig::overlay_default()
        });
        cfg.record_deliveries = true;
        let r = eng.run_faulty(&events, 20.0, 3.0, &CostModel::plain(), &mut cfg);
        assert!(r.evictions >= 1, "partition must trigger eviction: {r:?}");
        assert!(r.reinstalls >= 1, "heal must reinstall: {r:?}");
        // Clients under broker 1 receive events published well after heal.
        let healed_clients: Vec<u32> = (0..4u32)
            .filter(|&c| {
                let mut n = eng.attach[c as usize];
                loop {
                    if n == 1 {
                        return true;
                    }
                    match if n > 0 { Some((n - 1) / 2) } else { None } {
                        Some(p) => n = p,
                        None => return false,
                    }
                }
            })
            .collect();
        assert!(!healed_clients.is_empty());
        for &c in &healed_clients {
            let late = r
                .deliveries
                .iter()
                .any(|d| d.client == c && d.sent_at > 2_200_000);
            assert!(late, "client {c} must receive post-heal events: {r:?}");
        }
    }
}
