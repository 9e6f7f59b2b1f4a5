//! Event-level multipath dissemination on the discrete-event simulator.
//!
//! [`RedundantRouter::simulate_drops`] computes delivery analytically: it
//! marks dropping routers, checks which path variants survive, and counts.
//! [`MultipathOverlay`] answers the same question *operationally*: every
//! routing node of the [`MultipathTree`] becomes a simulator node, each
//! event is forwarded hop by hop along its chosen variant paths through
//! [`Simulator::send_faulty`], crashed routers swallow arrivals, and the
//! subscriber suppresses redundant copies with a [`SeqDedup`] keyed by
//! event id. Both draw the dropping set and the per-event path choices
//! from the same seeded RNG stream, so for equal `(leaf, drop_fraction,
//! events, seed)` the two agree event for event — the cross-check that
//! validates the fault-injection layer against the analytic model.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use psguard_net::{FaultPlan, FaultStats, NodeId, SimTime, Simulator, Window};
use psguard_siena::SeqDedup;

use crate::multipath::MultipathError;
use crate::redundant::RedundantRouter;

/// One in-flight copy of an event: which event, which path variant, and
/// how far along that path it has travelled (`pos` indexes the variant
/// path's node list; `depth + 1` means "at the subscriber").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hop {
    event: u64,
    path: u8,
    pos: usize,
}

/// Outcome of an overlay dissemination run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlayReport {
    /// Events published.
    pub sent: u64,
    /// Events for which at least one copy reached the subscriber.
    pub delivered: u64,
    /// Redundant copies suppressed by the subscriber's dedup window.
    pub duplicates_suppressed: u64,
    /// Copies swallowed because they arrived at a crashed router.
    pub blocked_at_crashed: u64,
    /// Path-level transmissions (`events × replicas`), the bandwidth
    /// metric of [`crate::DeliveryReport`].
    pub path_transmissions: u64,
    /// Simulated time at which the last copy was resolved (µs).
    pub completed_at_us: SimTime,
    /// What the fault plan did to the hop-level traffic.
    pub fault_stats: FaultStats,
}

impl OverlayReport {
    /// Fraction of events delivered (1.0 when nothing was sent).
    pub fn delivery_rate(&self) -> f64 {
        if self.sent == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.sent as f64
    }
}

/// The multipath network `G_ind` run as a live overlay on the simulator.
///
/// # Example
///
/// ```
/// use psguard_routing::{MultipathOverlay, MultipathTree, RedundantRouter};
///
/// let tree = MultipathTree::new(3, 2).unwrap();
/// let leaf = tree.leaf_digits(4);
/// let router = RedundantRouter::new(tree, 3, 3).unwrap();
/// // Same seed ⇒ the operational run reproduces the analytic one.
/// let analytic = router.simulate_drops(&leaf, 0.2, 200, 9).unwrap();
/// let overlay = MultipathOverlay::new(router);
/// let run = overlay.run_drops(&leaf, 0.2, 200, 9).unwrap();
/// assert_eq!(run.delivered, analytic.delivered);
/// ```
#[derive(Debug, Clone)]
pub struct MultipathOverlay {
    router: RedundantRouter,
}

/// Latency of one overlay hop (µs).
const HOP_LATENCY_US: SimTime = 2_000;

/// Interval between two published events (µs).
const EVENT_SPACING_US: SimTime = 1_000;

impl MultipathOverlay {
    /// Wraps a [`RedundantRouter`]: 2 ms per hop, one event published
    /// every 1 ms.
    pub fn new(router: RedundantRouter) -> Self {
        MultipathOverlay { router }
    }

    /// The router whose paths this overlay forwards on.
    pub fn router(&self) -> &RedundantRouter {
        &self.router
    }

    /// Disseminates `events` to the subscriber at `leaf` while a random
    /// fraction `drop_fraction` of routing nodes is crashed for the whole
    /// run — the persistent-adversary model of
    /// [`RedundantRouter::simulate_drops`], realised as crash windows in a
    /// [`FaultPlan`]. The dropping set and the per-event path choices are
    /// drawn exactly as in `simulate_drops`, so equal arguments yield
    /// equal per-event outcomes.
    ///
    /// # Errors
    ///
    /// Propagates path-construction errors for malformed leaves.
    pub fn run_drops(
        &self,
        leaf: &[u8],
        drop_fraction: f64,
        events: u64,
        seed: u64,
    ) -> Result<OverlayReport, MultipathError> {
        let mut rng = StdRng::seed_from_u64(seed);
        // Identical draw to simulate_drops: one Bernoulli per node index in
        // 0..routing_node_count. (Index 0 is the publisher root, which no
        // copy ever transits back through, and the highest routing index
        // equals routing_node_count and is never drawn — both quirks are
        // shared with the analytic model by construction.)
        let node_count = self.router.tree().routing_node_count();
        let dropping: HashSet<u64> = (0..node_count)
            .filter(|_| rng.gen_bool(drop_fraction.clamp(0.0, 1.0)))
            .collect();
        let mut crashed: Vec<u64> = dropping.into_iter().collect();
        crashed.sort_unstable();

        let mut plan = FaultPlan::new(seed);
        for idx in crashed {
            plan.add_crash(NodeId(idx as u32), Window::new(0, SimTime::MAX));
        }
        self.run_with_plan(&mut plan, leaf, events, &mut rng)
    }

    /// Disseminates `events` under `plan` (crash windows, link drops…),
    /// drawing path choices from `rng`.
    fn run_with_plan(
        &self,
        plan: &mut FaultPlan,
        leaf: &[u8],
        events: u64,
        rng: &mut StdRng,
    ) -> Result<OverlayReport, MultipathError> {
        let tree = self.router.tree();
        let arity = tree.arity();
        let depth = tree.depth();
        let ind = self.router.ind();

        // Node indices per variant path; entry 0 is the root (index 0).
        let mut paths: Vec<Vec<u64>> = Vec::with_capacity(ind as usize);
        for k in 0..ind {
            paths.push(
                tree.variant_path(leaf, k)?
                    .into_iter()
                    .map(|n| n.index(arity))
                    .collect(),
            );
        }
        let node_count = tree.routing_node_count();
        assert!(
            node_count < u32::MAX as u64,
            "tree too large for simulator node ids"
        );
        let root = NodeId(0);
        let subscriber = NodeId((node_count + 1) as u32);

        // Publish phase: each event departs the root on its chosen
        // variants. choose_paths is called once per event in publish
        // order, consuming the RNG stream exactly as simulate_drops does.
        let mut sim: Simulator<Hop> = Simulator::new();
        let mut path_transmissions = 0u64;
        for event in 0..events {
            let depart = event * EVENT_SPACING_US;
            for k in self.router.choose_paths(rng) {
                path_transmissions += 1;
                let dst = NodeId(paths[k as usize][1] as u32);
                for jitter in plan.transmit(root, dst, depart).iter() {
                    sim.schedule_at(
                        depart + HOP_LATENCY_US + jitter,
                        dst,
                        Hop {
                            event,
                            path: k,
                            pos: 1,
                        },
                    );
                }
            }
        }

        // Forwarding phase: routers relay copies hop by hop; crashed
        // routers swallow arrivals; the subscriber deduplicates.
        let mut dedup = SeqDedup::new(4 * ind as usize * (depth + 2));
        let mut delivered = 0u64;
        let mut duplicates = 0u64;
        let mut blocked = 0u64;
        let max_events = events
            .saturating_mul(ind as u64)
            .saturating_mul(2 * (depth as u64 + 2))
            + 64;
        sim.run(max_events, |sim, d| {
            let Hop { event, path, pos } = d.msg;
            if d.dst == subscriber {
                if dedup.first_seen(event) {
                    delivered += 1;
                } else {
                    duplicates += 1;
                }
                return;
            }
            if !plan.is_up(d.dst, d.at) {
                blocked += 1;
                return;
            }
            let next = pos + 1;
            let dst = if pos == depth {
                subscriber
            } else {
                NodeId(paths[path as usize][next] as u32)
            };
            sim.send_faulty(
                plan,
                d.dst,
                dst,
                HOP_LATENCY_US,
                Hop {
                    event,
                    path,
                    pos: next,
                },
            );
        });

        Ok(OverlayReport {
            sent: events,
            delivered,
            duplicates_suppressed: duplicates,
            blocked_at_crashed: blocked,
            path_transmissions,
            completed_at_us: sim.now(),
            fault_stats: plan.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multipath::MultipathTree;
    use psguard_net::LinkFaults;

    fn overlay(arity: u8, depth: usize, ind: u8, replicas: u8) -> MultipathOverlay {
        let tree = MultipathTree::new(arity, depth).unwrap();
        MultipathOverlay::new(RedundantRouter::new(tree, ind, replicas).unwrap())
    }

    #[test]
    fn zero_drops_deliver_every_event_exactly_once() {
        let ov = overlay(3, 2, 3, 3);
        let tree = MultipathTree::new(3, 2).unwrap();
        let leaf = tree.leaf_digits(5);
        let r = ov.run_drops(&leaf, 0.0, 100, 42).unwrap();
        assert_eq!(r.delivered, 100);
        assert_eq!(r.duplicates_suppressed, 200, "two redundant copies each");
        assert_eq!(r.blocked_at_crashed, 0);
        assert_eq!(r.path_transmissions, 300);
        assert!((r.delivery_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn full_drops_deliver_nothing() {
        let ov = overlay(2, 3, 2, 2);
        let tree = MultipathTree::new(2, 3).unwrap();
        let leaf = tree.leaf_digits(0);
        let r = ov.run_drops(&leaf, 1.0, 50, 7).unwrap();
        assert_eq!(r.delivered, 0);
        assert!(
            r.blocked_at_crashed > 0,
            "copies must die at crashed routers"
        );
    }

    #[test]
    fn matches_analytic_model_per_seed() {
        let tree = MultipathTree::new(3, 3).unwrap();
        let leaf = tree.leaf_digits(13);
        for seed in [1u64, 2, 3] {
            let router = RedundantRouter::new(tree.clone(), 3, 2).unwrap();
            let analytic = router.simulate_drops(&leaf, 0.2, 150, seed).unwrap();
            let run = MultipathOverlay::new(router)
                .run_drops(&leaf, 0.2, 150, seed)
                .unwrap();
            assert_eq!(run.delivered, analytic.delivered, "seed {seed}");
            assert_eq!(run.path_transmissions, analytic.transmissions);
        }
    }

    #[test]
    fn timed_crash_window_recovers() {
        // Crash every level-1 router for the first half of the run: early
        // events are lost on all variants, later ones get through.
        let ov = overlay(3, 2, 3, 3);
        let tree = MultipathTree::new(3, 2).unwrap();
        let leaf = tree.leaf_digits(2);
        let mut plan = FaultPlan::new(11);
        for idx in 1..=3u32 {
            plan.add_crash(NodeId(idx), Window::new(0, 52_000));
        }
        let mut rng = StdRng::seed_from_u64(11);
        let r = ov.run_with_plan(&mut plan, &leaf, 100, &mut rng).unwrap();
        assert!(r.delivered > 0, "post-restart events must arrive");
        assert!(r.delivered < 100, "pre-restart events must be lost");
        assert!(r.blocked_at_crashed > 0);
    }

    #[test]
    fn link_drops_degrade_but_deliver() {
        let ov = overlay(3, 2, 3, 3);
        let tree = MultipathTree::new(3, 2).unwrap();
        let leaf = tree.leaf_digits(7);
        let mut plan = FaultPlan::new(5).with_default_link_faults(LinkFaults::drops(0.3));
        let mut rng = StdRng::seed_from_u64(5);
        let r = ov.run_with_plan(&mut plan, &leaf, 200, &mut rng).unwrap();
        assert!(r.fault_stats.dropped > 0);
        assert!(r.delivered > 0, "three disjoint paths should beat 30% loss");
        assert!(r.delivered < 200, "lossy links must cost something");
    }

    #[test]
    fn malformed_leaf_rejected() {
        let ov = overlay(2, 2, 2, 2);
        assert!(ov.run_drops(&[0, 5], 0.1, 10, 1).is_err());
        assert!(ov.run_drops(&[0], 0.1, 10, 1).is_err());
    }
}
