//! The in-process overlay engine: runs a complete-binary-tree broker
//! overlay on the discrete-event simulator, with a queueing model per
//! node, to measure throughput and latency (Figures 9–11 of the paper).
//!
//! The experimental shape follows §5.2: one publisher at the root, broker
//! trees of {0, 2, 6, 14, 30} nodes, 32 subscribers uniformly attached to
//! the leaf brokers, and wide-area link latencies drawn from a GT-ITM
//! transit-stub topology. Per-message service times come from a
//! [`CostModel`], so the same engine measures baseline Siena (zero crypto
//! cost) and PSGuard (measured crypto costs) under identical conditions.

use psguard_net::{NodeId, SimTime, Simulator, Topology, TransitStubConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::broker::{Action, Broker, Peer};
use crate::index::IndexableFilter;

/// Per-message-type service times in microseconds.
///
/// Baseline Siena sets the crypto fields to zero; PSGuard variants fill
/// them with measured key-derivation/encryption costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Publisher-side work per event before it leaves (serialization +,
    /// for PSGuard, key derivation and payload encryption).
    pub publisher_us: u64,
    /// Broker work per filter evaluation while matching.
    pub broker_match_us: u64,
    /// Broker work per forwarded event copy.
    pub broker_forward_us: u64,
    /// Subscriber-side work per delivered event (deserialization +, for
    /// PSGuard, key derivation and payload decryption).
    pub subscriber_us: u64,
}

impl CostModel {
    /// A cost model with zero crypto overhead: plain Siena.
    ///
    /// The baseline magnitudes are calibrated to the paper's testbed
    /// (Java Siena over kernel TCP on 550 MHz Xeons, saturating at a few
    /// hundred events/s): per-copy I/O around a millisecond dominates,
    /// matching costs a few microseconds per filter. Crypto overheads are
    /// *added* to these, so PSGuard's relative overhead comes out at the
    /// paper's scale.
    pub fn plain() -> Self {
        CostModel {
            publisher_us: 300,
            broker_match_us: 8,
            broker_forward_us: 800,
            subscriber_us: 1000,
        }
    }
}

/// Configuration of one overlay run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of broker nodes: must be `2^(d+1) − 2` for some depth
    /// `d ≥ 0` (0, 2, 6, 14, 30, …), matching the paper's full binary
    /// trees.
    pub broker_nodes: u32,
    /// Number of subscriber clients.
    pub subscribers: u32,
    /// RNG seed (topology mapping and subscriber placement).
    pub seed: u64,
}

/// Result of one run at a fixed publication rate.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Events published.
    pub published: u64,
    /// Event copies delivered to subscribers.
    pub delivered: u64,
    /// Mean publish→decrypt latency in milliseconds.
    pub mean_latency_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Maximum node utilization (busy time / run duration).
    pub max_utilization: f64,
    /// Whether some node was saturated (utilization ≥ 0.98).
    pub saturated: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Envelope<E> {
    seq: u64,
    sent_at: SimTime,
    event: E,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Msg<E> {
    /// An event arriving at an overlay node.
    Publish { env: Envelope<E>, from: Peer },
    /// Final delivery to a subscriber client node.
    Local { env: Envelope<E> },
}

/// The overlay engine. Build once (subscriptions included), then run one
/// or more workloads.
pub struct Engine<F: IndexableFilter> {
    pub(crate) config: EngineConfig,
    pub(crate) brokers: Vec<Broker<F>>,
    /// Engine-node index of each broker's parent (brokers[0] = publisher).
    pub(crate) parent_of: Vec<Option<usize>>,
    /// Engine-node for `Peer::Child(i)` / `Peer::Local(c)` resolution.
    pub(crate) subscriber_base: usize,
    /// One-way latency (µs) between adjacent overlay nodes.
    pub(crate) link_up: Vec<u64>,
    /// Which broker each subscriber attaches to.
    pub(crate) attach: Vec<usize>,
    /// Latency (µs) of each subscriber's access link.
    pub(crate) access_latency: Vec<u64>,
    /// Every `(client, filter)` registration, in subscription order — the
    /// ground truth replayed when a crashed broker restarts or an evicted
    /// peer re-announces itself (see [`crate::fault`]).
    pub(crate) registered: Vec<(u32, F)>,
}

impl<F: IndexableFilter> Engine<F>
where
    F::Event: Eq,
{
    /// Builds the overlay: a full binary broker tree under the publisher,
    /// subscribers attached round-robin to the leaves, link latencies
    /// drawn from a GT-ITM transit-stub topology.
    ///
    /// # Panics
    ///
    /// Panics when `broker_nodes` is not `2^(d+1) − 2`.
    pub fn new(config: EngineConfig) -> Self {
        let b = config.broker_nodes;
        assert!(
            (b + 2).is_power_of_two(),
            "broker_nodes must be 2^(d+1)-2 (0, 2, 6, 14, 30, …), got {b}"
        );
        let total_brokers = b as usize + 1; // + publisher (root, index 0)

        // Map overlay nodes onto a transit-stub topology for latencies.
        let needed = total_brokers as u32 + config.subscribers;
        let ts = if needed <= 63 {
            TransitStubConfig::default()
        } else {
            TransitStubConfig {
                stubs_per_transit: (needed / 15 + 1).max(4),
                ..Default::default()
            }
        };
        let topo: Topology = ts.generate(config.seed);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed);

        // Overlay neighbors are placed adjacent in the underlay: each
        // overlay edge takes the one-way latency of a (randomly drawn)
        // underlay link, reproducing the paper's link-latency regime
        // (one-way 12–92 ms, mean ≈ 37 ms) per overlay hop.
        let links = topo.links().to_vec();
        let mut link_rng = StdRng::seed_from_u64(config.seed ^ 0x11ac);
        let mut latency_between = move |_a: usize, _b: usize| -> u64 {
            let link = &links[link_rng.gen_range(0..links.len())];
            (link.latency_ms as u64).max(1) * 1000
        };

        // Broker tree: overlay node 0 is the publisher/root; broker i has
        // children 2i+1, 2i+2 while within range.
        let mut brokers = Vec::with_capacity(total_brokers);
        let parent_of: Vec<Option<usize>> = (0..total_brokers)
            .map(|i| {
                brokers.push(Broker::new(i == 0));
                (i > 0).then(|| (i - 1) / 2)
            })
            .collect();
        let link_up: Vec<u64> = (0..total_brokers)
            .map(|i| match parent_of[i] {
                Some(p) => latency_between(i, p),
                None => 0,
            })
            .collect();

        // Leaf brokers: no children inside the broker array.
        let leaves: Vec<usize> = (0..total_brokers)
            .filter(|&i| 2 * i + 1 >= total_brokers)
            .collect();
        let subscriber_base = total_brokers;
        // Uniform random placement over the leaves, balanced by drawing
        // from shuffled copies of the leaf list. (Deterministic modular
        // assignment would align topics with subtrees and distort the
        // covering tables.)
        let mut attach = Vec::with_capacity(config.subscribers as usize);
        let mut pool: Vec<usize> = Vec::new();
        for _ in 0..config.subscribers {
            if pool.is_empty() {
                pool = leaves.clone();
                pool.shuffle(&mut rng);
            }
            if let Some(leaf) = pool.pop() {
                attach.push(leaf);
            }
        }
        let access_latency: Vec<u64> = (0..config.subscribers as usize)
            .map(|c| latency_between(subscriber_base + c, attach[c]))
            .collect();

        Engine {
            config,
            brokers,
            parent_of,
            subscriber_base,
            link_up,
            attach,
            access_latency,
            registered: Vec::new(),
        }
    }

    /// Registers a subscriber's filter, propagating it up the tree with
    /// the covering optimization (exactly Siena's subscribe path).
    pub fn subscribe(&mut self, client: u32, filter: F) {
        self.registered.push((client, filter.clone()));
        self.propagate_subscribe(client, filter);
    }

    /// The subscribe path without recording: used both by [`subscribe`]
    /// (Self::subscribe) and by the fault layer when replaying state into
    /// a restarted broker (insertion is covering-aware and idempotent).
    pub(crate) fn propagate_subscribe(&mut self, client: u32, filter: F) {
        let mut node = self.attach[client as usize];
        let mut actions = self.brokers[node].subscribe(Peer::Local(client), filter);
        while let Some(Action::ForwardSubscribe(f)) = actions.pop() {
            let Some(parent) = self.parent_of[node] else {
                break;
            };
            let from = Peer::Child(node as u32);
            node = parent;
            actions = self.brokers[node].subscribe(from, f);
        }
    }

    /// Runs a workload with deterministic (fixed-interval) arrivals:
    /// `events` are published round-robin at `rate_eps` events/second for
    /// `duration_s` simulated seconds, then the overlay drains. Use this
    /// for capacity (saturation) measurements.
    pub fn run(
        &mut self,
        events: &[F::Event],
        rate_eps: f64,
        duration_s: f64,
        cost: &CostModel,
    ) -> RunReport {
        self.run_impl(events, rate_eps, duration_s, cost, false)
    }

    /// Runs a workload with Poisson arrivals (the paper's open-loop
    /// publication load): queueing delays at near-saturated nodes become
    /// visible, so use this for latency measurements.
    pub fn run_poisson(
        &mut self,
        events: &[F::Event],
        rate_eps: f64,
        duration_s: f64,
        cost: &CostModel,
    ) -> RunReport {
        self.run_impl(events, rate_eps, duration_s, cost, true)
    }

    fn run_impl(
        &mut self,
        events: &[F::Event],
        rate_eps: f64,
        duration_s: f64,
        cost: &CostModel,
        poisson: bool,
    ) -> RunReport {
        assert!(!events.is_empty(), "workload must contain events");
        assert!(rate_eps > 0.0, "rate must be positive");
        let duration_us = (duration_s * 1e6) as u64;
        let interarrival = (1e6 / rate_eps).max(1.0);

        let n_nodes = self.subscriber_base + self.config.subscribers as usize;
        let mut busy_until = vec![0u64; n_nodes];
        let mut busy_acc = vec![0u64; n_nodes];
        let mut latencies: Vec<u64> = Vec::new();
        let mut delivered = 0u64;

        // Pre-size the queue for the whole publication schedule (plus
        // slack for in-flight forwards) so pushes never regrow the heap.
        let expected = (duration_us as f64 / interarrival).ceil() as usize + 64;
        let mut sim: Simulator<Msg<F::Event>> = Simulator::with_capacity(expected);
        // Pre-schedule the publication arrivals at the publisher (node 0).
        let mut arr_rng = StdRng::seed_from_u64(self.config.seed ^ rate_eps.to_bits());
        let mut t = 0.0f64;
        let mut seq = 0u64;
        while (t as u64) < duration_us {
            let env = Envelope {
                seq,
                sent_at: t as u64,
                event: events[(seq as usize) % events.len()].clone(),
            };
            sim.schedule_at(
                t as u64,
                NodeId(0),
                Msg::Publish {
                    env,
                    from: Peer::Local(u32::MAX),
                },
            );
            seq += 1;
            if poisson {
                let u: f64 = arr_rng.gen_range(f64::EPSILON..1.0);
                t += -u.ln() * interarrival;
            } else {
                t += interarrival;
            }
        }
        let published = seq;

        // Hard cap so a pathological configuration cannot spin forever.
        let max_events = published * (n_nodes as u64 + 4) * 4 + 1000;
        let mut processed = 0u64;
        while let Some(d) = sim.next() {
            processed += 1;
            if processed > max_events {
                break;
            }
            let node = d.dst.0 as usize;
            match d.msg {
                Msg::Publish { env, from } => {
                    let start = d.at.max(busy_until[node]);
                    // The envelope is consumed here: move the event into
                    // the broker instead of cloning it (the broker clones
                    // per-recipient itself; this saves one clone per hop).
                    let Envelope {
                        seq: env_seq,
                        sent_at: env_sent_at,
                        event,
                    } = env;
                    let actions = self.brokers[node].publish(from, event);
                    // Fixed per-event work (encryption at the publisher,
                    // matching everywhere), then store-and-forward
                    // serialization: each outgoing copy departs
                    // `broker_forward_us` after the previous one. The
                    // matching term prices the work the index actually
                    // performed — key probes plus distinct-predicate
                    // evaluations — not the table size.
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
                    for (action, finish) in actions.into_iter().zip(departures) {
                        match action {
                            Action::Deliver(Peer::Child(c), event) => {
                                let child = c as usize;
                                let lat = self.link_up[child];
                                sim.schedule_at(
                                    finish + lat,
                                    NodeId(child as u32),
                                    Msg::Publish {
                                        env: Envelope {
                                            seq: env_seq,
                                            sent_at: env_sent_at,
                                            event,
                                        },
                                        from: Peer::Parent,
                                    },
                                );
                            }
                            Action::Deliver(Peer::Local(client), event) => {
                                let lat = self.access_latency[client as usize];
                                let dst = self.subscriber_base + client as usize;
                                sim.schedule_at(
                                    finish + lat,
                                    NodeId(dst as u32),
                                    Msg::Local {
                                        env: Envelope {
                                            seq: env_seq,
                                            sent_at: env_sent_at,
                                            event,
                                        },
                                    },
                                );
                            }
                            Action::Deliver(Peer::Parent, event) => {
                                if let Some(p) = self.parent_of[node] {
                                    let lat = self.link_up[node];
                                    sim.schedule_at(
                                        finish + lat,
                                        NodeId(p as u32),
                                        Msg::Publish {
                                            env: Envelope {
                                                seq: env_seq,
                                                sent_at: env_sent_at,
                                                event,
                                            },
                                            from: Peer::Child(node as u32),
                                        },
                                    );
                                }
                            }
                            Action::ForwardSubscribe(_) | Action::ForwardUnsubscribe(_) => {
                                // Subscriptions are installed before runs.
                            }
                        }
                    }
                }
                Msg::Local { env } => {
                    let start = d.at.max(busy_until[node]);
                    let finish = start + cost.subscriber_us.max(1);
                    busy_until[node] = finish;
                    busy_acc[node] += cost.subscriber_us.max(1);
                    latencies.push(finish - env.sent_at);
                    delivered += 1;
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

        RunReport {
            published,
            delivered,
            mean_latency_ms,
            p99_latency_ms,
            max_utilization,
            saturated: max_utilization >= 0.98,
        }
    }

    /// Binary-searches the saturation throughput `q_min` (events/second):
    /// the highest rate at which no node saturates — the paper's
    /// methodology for Figure 9.
    pub fn find_max_throughput(
        &mut self,
        events: &[F::Event],
        duration_s: f64,
        cost: &CostModel,
    ) -> f64 {
        let (mut lo, mut hi) = (1.0f64, 8.0f64);
        // Grow until saturated.
        while !self.run(events, hi, duration_s, cost).saturated && hi < 4_000_000.0 {
            lo = hi;
            hi *= 2.0;
        }
        for _ in 0..12 {
            let mid = (lo + hi) / 2.0;
            if self.run(events, mid, duration_s, cost).saturated {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        lo
    }

    /// Per-broker routing statistics collected so far.
    pub fn broker_stats(&self) -> Vec<crate::broker::BrokerStats> {
        self.brokers.iter().map(|b| b.stats()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psguard_model::{Constraint, Event, Filter, Op};

    fn mk_engine(brokers: u32) -> Engine<Filter> {
        Engine::new(EngineConfig {
            broker_nodes: brokers,
            subscribers: 8,
            seed: 42,
        })
    }

    fn workload() -> Vec<Event> {
        (0..16)
            .map(|i| Event::builder("t").attr("x", i as i64 * 10).build())
            .collect()
    }

    #[test]
    fn all_subscribers_receive_matching_events() {
        for brokers in [0u32, 2, 6, 14] {
            let mut eng = mk_engine(brokers);
            for c in 0..8 {
                eng.subscribe(c, Filter::for_topic("t"));
            }
            let events = workload();
            let report = eng.run(&events, 50.0, 1.0, &CostModel::plain());
            assert!(report.published > 10, "poisson draw too small");
            assert_eq!(
                report.delivered,
                report.published * 8,
                "brokers={brokers}: every subscriber gets every event"
            );
            assert!(!report.saturated);
            assert!(report.mean_latency_ms > 0.0);
        }
    }

    #[test]
    fn selective_filters_limit_delivery() {
        let mut eng = mk_engine(6);
        // Half the subscribers want x >= 80 (2 of 16 workload events).
        for c in 0..4 {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        for c in 4..8 {
            eng.subscribe(
                c,
                Filter::for_topic("t").with(Constraint::new("x", Op::Ge(140))),
            );
        }
        let events = workload();
        let report = eng.run(&events, 16.0, 1.0, &CostModel::plain());
        // 4 subscribers get every event; 4 get only the two events with
        // x >= 140 per 16-event cycle.
        let n = report.published;
        let selective = (n / 16) * 2 + ((n % 16).saturating_sub(14).min(2));
        assert_eq!(report.delivered, n * 4 + selective * 4);
    }

    #[test]
    fn covering_keeps_upstream_tables_small() {
        let mut eng = mk_engine(6);
        for c in 0..8 {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        let sizes: Vec<usize> = eng.brokers.iter().map(|b| b.table().len()).collect();
        // The root sees at most one forwarded filter per child, not one
        // per subscriber.
        assert!(sizes[0] <= 2, "root table: {sizes:?}");
    }

    #[test]
    fn saturation_detected_at_absurd_rates() {
        let mut eng = mk_engine(2);
        for c in 0..8 {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        let events = workload();
        let report = eng.run(&events, 1_000_000.0, 0.05, &CostModel::plain());
        assert!(report.saturated);
    }

    #[test]
    fn max_throughput_is_positive_and_finite() {
        let mut eng = mk_engine(2);
        for c in 0..8 {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        let events = workload();
        let q = eng.find_max_throughput(&events, 0.3, &CostModel::plain());
        assert!(q > 10.0, "q={q}");
        assert!(q < 4_000_000.0);
    }

    #[test]
    fn higher_costs_lower_throughput() {
        let events = workload();
        let mut eng1 = mk_engine(2);
        let mut eng2 = mk_engine(2);
        for c in 0..8 {
            eng1.subscribe(c, Filter::for_topic("t"));
            eng2.subscribe(c, Filter::for_topic("t"));
        }
        let cheap = eng1.find_max_throughput(&events, 0.3, &CostModel::plain());
        let expensive_model = CostModel {
            publisher_us: CostModel::plain().publisher_us * 4,
            subscriber_us: CostModel::plain().subscriber_us * 4,
            ..CostModel::plain()
        };
        let expensive = eng2.find_max_throughput(&events, 0.3, &expensive_model);
        assert!(
            expensive < cheap,
            "expensive ({expensive}) should be below cheap ({cheap})"
        );
    }

    #[test]
    #[should_panic(expected = "broker_nodes")]
    fn invalid_tree_size_rejected() {
        mk_engine(5);
    }

    #[test]
    fn subscribers_spread_over_leaves() {
        let eng = mk_engine(6);
        let mut hist = std::collections::HashMap::new();
        for &a in &eng.attach {
            *hist.entry(a).or_insert(0) += 1;
        }
        // 6 brokers → leaves are nodes 3..=6 (4 leaves), 8 subscribers → 2 each.
        assert_eq!(hist.len(), 4);
        assert!(hist.values().all(|&c| c == 2), "{hist:?}");
    }

    #[test]
    fn poisson_arrivals_still_deliver_everything() {
        let mut eng = mk_engine(6);
        for c in 0..8 {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        let events = workload();
        let report = eng.run_poisson(&events, 40.0, 1.0, &CostModel::plain());
        assert!(report.published > 10);
        assert_eq!(report.delivered, report.published * 8);
        // Same seed, same rate → identical Poisson draw.
        let mut eng2 = mk_engine(6);
        for c in 0..8 {
            eng2.subscribe(c, Filter::for_topic("t"));
        }
        let again = eng2.run_poisson(&events, 40.0, 1.0, &CostModel::plain());
        assert_eq!(report.published, again.published);
    }

    #[test]
    fn poisson_queueing_raises_latency_near_saturation() {
        let events = workload();
        let model = CostModel::plain();
        let mut probe = mk_engine(2);
        for c in 0..8 {
            probe.subscribe(c, Filter::for_topic("t"));
        }
        let q = probe.find_max_throughput(&events, 0.3, &model);

        let mut light_eng = mk_engine(2);
        let mut heavy_eng = mk_engine(2);
        for c in 0..8 {
            light_eng.subscribe(c, Filter::for_topic("t"));
            heavy_eng.subscribe(c, Filter::for_topic("t"));
        }
        let light = light_eng.run_poisson(&events, q * 0.2, 2.0, &model);
        let heavy = heavy_eng.run_poisson(&events, q * 0.97, 2.0, &model);
        assert!(
            heavy.mean_latency_ms > light.mean_latency_ms,
            "queueing must show near saturation: light={} heavy={}",
            light.mean_latency_ms,
            heavy.mean_latency_ms
        );
    }

    #[test]
    fn p99_at_least_mean() {
        let mut eng = mk_engine(2);
        for c in 0..8 {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        let events = workload();
        let report = eng.run_poisson(&events, 100.0, 1.0, &CostModel::plain());
        assert!(report.p99_latency_ms >= report.mean_latency_ms * 0.99);
        assert!(report.max_utilization > 0.0);
    }
}
