//! The content-based broker: pure routing logic, transport-agnostic.
//!
//! A broker reacts to inputs (subscribe / unsubscribe / publish) by
//! emitting a list of [`Action`]s — messages to forward to peers or
//! deliveries to local clients. An event's recipients come from
//! [`Broker::route`], which returns them without copying the event;
//! [`Broker::publish`] wraps that into one `Deliver` action per
//! recipient. Keeping the logic pure lets the same
//! broker run on the discrete-event engine (for the paper's figures), over
//! TCP, or in unit tests.
//!
//! The broker's one subscription store is a [`MatchIndex`]; the §2.1
//! subscription policy (idempotent duplicates, covering, forwarding an
//! unsubscribe only when the last registration of a filter goes) lives
//! here, on top of the index's per-filter and per-peer lookups.

use crate::index::{IndexableFilter, MatchIndex};
use crate::semantics::FilterSemantics;

/// A neighbor of a broker: its parent, a child broker, or a locally
/// attached client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Peer {
    /// The broker's parent in the dissemination hierarchy.
    Parent,
    /// A child broker, by overlay node id.
    Child(u32),
    /// A locally attached client (publisher or subscriber).
    Local(u32),
}

/// An output of the broker state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<F: FilterSemantics> {
    /// Forward a subscription to the parent.
    ForwardSubscribe(F),
    /// Forward an unsubscription to the parent.
    ForwardUnsubscribe(F),
    /// Send the event to a peer (child broker or local client).
    Deliver(Peer, F::Event),
}

/// Routing statistics for one broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BrokerStats {
    /// Subscriptions received.
    pub subscribes: u64,
    /// Subscriptions forwarded upstream (not covered).
    pub forwarded_subscribes: u64,
    /// Events received.
    pub events_in: u64,
    /// Event copies sent to peers.
    pub events_out: u64,
    /// Matching work performed: bucket-key probes (topic lookups / PRF
    /// token tests) plus distinct-predicate evaluations, as counted by
    /// the [`MatchIndex`](crate::MatchIndex) fast path. The old linear
    /// scan's equivalent was `table.len()` per event.
    pub match_evaluations: u64,
}

/// A content-based broker node.
///
/// # Example
///
/// ```
/// use psguard_model::{Constraint, Event, Filter, Op};
/// use psguard_siena::{Action, Broker, Peer};
///
/// let mut b: Broker<Filter> = Broker::new(true); // root broker
/// let f = Filter::for_topic("t").with(Constraint::new("x", Op::Ge(10)));
/// let actions = b.subscribe(Peer::Local(1), f);
/// assert!(actions.is_empty()); // root has no parent to forward to
///
/// let e = Event::builder("t").attr("x", 42i64).build();
/// let actions = b.publish(Peer::Local(9), e.clone());
/// assert_eq!(actions, vec![Action::Deliver(Peer::Local(1), e)]);
/// ```
#[derive(Debug, Clone)]
pub struct Broker<F: IndexableFilter> {
    is_root: bool,
    table: MatchIndex<F>,
    stats: BrokerStats,
    last_match_work: u64,
    /// Recipient buffer reused across publishes; [`route`](Self::route)
    /// returns a view of it.
    peer_scratch: Vec<Peer>,
}

impl<F: IndexableFilter> Broker<F> {
    /// Creates a broker; `is_root` brokers never forward upstream.
    pub fn new(is_root: bool) -> Self {
        Broker {
            is_root,
            table: MatchIndex::new(),
            stats: BrokerStats::default(),
            last_match_work: 0,
            peer_scratch: Vec::new(),
        }
    }

    /// The subscription table (for inspection): every live `(peer,
    /// filter)` registration, in the index that routes them.
    pub fn table(&self) -> &MatchIndex<F> {
        &self.table
    }

    /// Routing statistics.
    pub fn stats(&self) -> BrokerStats {
        self.stats
    }

    /// Matching work performed by the most recent [`route`](Self::route)
    /// (or [`publish`](Self::publish)) call — the per-event cost input for
    /// the performance model.
    pub fn last_match_work(&self) -> u64 {
        self.last_match_work
    }

    /// Handles a subscription from `from`. May emit
    /// [`Action::ForwardSubscribe`] when the filter is not covered by any
    /// filter already registered (Siena's covering optimization, §2.1).
    ///
    /// A duplicate `(peer, filter)` registration is idempotent and never
    /// forwarded. The duplicate test walks one predicate list of the
    /// filter's bucket, and the covering test scans only the buckets that
    /// could hold a covering filter; a root broker skips it.
    pub fn subscribe(&mut self, from: Peer, filter: F) -> Vec<Action<F>> {
        self.stats.subscribes += 1;
        if self.table.find(from, &filter).is_some() {
            return Vec::new();
        }
        let forward = !self.is_root && !self.table.covered_by_any(&filter);
        let action = forward.then(|| Action::ForwardSubscribe(filter.clone()));
        self.table.insert(from, filter);
        if forward {
            self.stats.forwarded_subscribes += 1;
        }
        action.into_iter().collect()
    }

    /// Handles an unsubscription from `from`. Forwards upstream when no
    /// other registration still needs the filter. (A conservative policy:
    /// forwards only when the exact filter disappears entirely.)
    pub fn unsubscribe(&mut self, from: Peer, filter: &F) -> Vec<Action<F>> {
        let Some(id) = self.table.find(from, filter) else {
            return Vec::new();
        };
        self.table.remove(id);
        if self.is_root || self.table.holds(filter) {
            Vec::new()
        } else {
            vec![Action::ForwardUnsubscribe(filter.clone())]
        }
    }

    /// Routes an event arriving from `from` and returns its recipients in
    /// delivery order. Implements the paper's §2.1 rule: non-root brokers
    /// that received the event from below first push it to the parent so
    /// it reaches the rest of the tree, then every peer with a matching
    /// subscription gets it in first-seen registration order, except the
    /// sender (and the parent, already covered by the first rule). This
    /// is the one definition of delivery order.
    ///
    /// The slice lives in a buffer reused across calls, so routing
    /// allocates nothing per event or per recipient.
    pub fn route(&mut self, from: Peer, event: &F::Event) -> &[Peer] {
        self.stats.events_in += 1;
        let peers = &mut self.peer_scratch;
        self.table.query_into(event, peers);
        self.last_match_work = self.table.last_match_stats().work();
        self.stats.match_evaluations += self.last_match_work;
        peers.retain(|&peer| peer != from && peer != Peer::Parent);
        if from != Peer::Parent && !self.is_root {
            peers.insert(0, Peer::Parent);
        }
        self.stats.events_out += peers.len() as u64;
        peers
    }

    /// [`route`](Self::route), with one [`Action::Deliver`] per recipient,
    /// each carrying its own copy of `event`.
    pub fn publish(&mut self, from: Peer, event: F::Event) -> Vec<Action<F>> {
        self.route(from, &event)
            .iter()
            .map(|&peer| Action::Deliver(peer, event.clone()))
            .collect()
    }

    /// Drops all state for a departed peer and returns how many
    /// registrations it held. Touches only that peer's registrations.
    pub fn peer_down(&mut self, peer: Peer) -> usize {
        self.table.remove_peer(peer)
    }

    /// Whether `peer` holds a live registration matching `event` — the
    /// replay pump's per-record test. It runs the index's matching pass
    /// but counts in neither [`stats`](Self::stats) nor
    /// [`last_match_work`](Self::last_match_work): a replay is not a
    /// routed event.
    pub(crate) fn peer_wants(&mut self, peer: Peer, event: &F::Event) -> bool {
        self.table.peer_matches(peer, event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psguard_model::{Constraint, Event, Filter, Op};

    fn f(min: i64) -> Filter {
        Filter::for_topic("t").with(Constraint::new("x", Op::Ge(min)))
    }

    fn e(x: i64) -> Event {
        Event::builder("t").attr("x", x).build()
    }

    #[test]
    fn non_root_forwards_uncovered_subscription() {
        let mut b: Broker<Filter> = Broker::new(false);
        assert_eq!(
            b.subscribe(Peer::Local(1), f(10)),
            vec![Action::ForwardSubscribe(f(10))]
        );
        // Narrower filter from another peer: covered, silent.
        assert!(b.subscribe(Peer::Local(2), f(20)).is_empty());
        assert_eq!(b.stats().forwarded_subscribes, 1);
        // Broader filter: not covered, forwarded.
        assert_eq!(
            b.subscribe(Peer::Local(3), f(0)),
            vec![Action::ForwardSubscribe(f(0))]
        );
        assert_eq!(b.stats().forwarded_subscribes, 2);
    }

    #[test]
    fn duplicate_registration_idempotent() {
        let mut b: Broker<Filter> = Broker::new(false);
        assert_eq!(b.subscribe(Peer::Child(1), f(10)).len(), 1);
        assert!(b.subscribe(Peer::Child(1), f(10)).is_empty());
        assert_eq!(b.table().len(), 1);
        assert_eq!(b.stats().subscribes, 2);
    }

    #[test]
    fn duplicate_subscribes_keep_len_across_churn() {
        // The duplicate test must agree with exact comparison: after a mix
        // of duplicate and distinct subscribes plus unsubscribes, the
        // table holds exactly the distinct live registrations.
        let mut b: Broker<Filter> = Broker::new(true);
        let mut distinct = std::collections::HashSet::new();
        for round in 0..3 {
            // i and i+16 produce the same (peer, filter) pair, and every
            // round repeats all of them.
            for i in 0..32i64 {
                b.subscribe(Peer::Child((i % 8) as u32), f(i % 16));
                distinct.insert(((i % 8) as u32, i % 16));
            }
            assert_eq!(b.table().len(), distinct.len(), "round {round}");
        }
        for i in 0..32i64 {
            b.unsubscribe(Peer::Child((i % 8) as u32), &f(i % 16));
        }
        assert!(b.table().is_empty());
        // And the table is fully reusable after draining.
        b.subscribe(Peer::Child(1), f(10));
        b.subscribe(Peer::Child(1), f(10));
        assert_eq!(b.table().len(), 1);
    }

    #[test]
    fn unsubscribe_and_peer_down_remove_only_their_own() {
        let mut b: Broker<Filter> = Broker::new(true);
        b.subscribe(Peer::Child(1), f(10));
        b.subscribe(Peer::Child(1), f(20));
        b.subscribe(Peer::Local(7), f(10));
        b.unsubscribe(Peer::Child(1), &f(10));
        assert_eq!(b.table().len(), 2);
        // A second unsubscribe of the same pair is a no-op.
        b.unsubscribe(Peer::Child(1), &f(10));
        assert_eq!(b.table().len(), 2);
        assert_eq!(b.peer_down(Peer::Child(1)), 1);
        assert_eq!(b.peer_down(Peer::Child(1)), 0);
        assert_eq!(b.table().len(), 1);
        assert_eq!(b.route(Peer::Parent, &e(15)), &[Peer::Local(7)]);
    }

    #[test]
    fn peer_wants_is_per_peer_and_uncounted() {
        let mut b: Broker<Filter> = Broker::new(true);
        b.subscribe(Peer::Child(1), f(10));
        b.subscribe(Peer::Child(2), f(50));
        b.route(Peer::Parent, &e(15));
        let (stats, work) = (b.stats(), b.last_match_work());
        let index_stats = b.table().last_match_stats();
        assert!(b.peer_wants(Peer::Child(1), &e(15)));
        assert!(!b.peer_wants(Peer::Child(2), &e(15)));
        assert!(b.peer_wants(Peer::Child(2), &e(60)));
        assert!(!b.peer_wants(Peer::Child(3), &e(60)));
        assert_eq!(b.stats(), stats);
        assert_eq!(b.last_match_work(), work);
        assert_eq!(b.table().last_match_stats(), index_stats);
    }

    #[test]
    fn event_from_parent_goes_only_down() {
        let mut b: Broker<Filter> = Broker::new(false);
        b.subscribe(Peer::Child(1), f(10));
        b.subscribe(Peer::Child(2), f(100));
        let actions = b.publish(Peer::Parent, e(50));
        assert_eq!(actions, vec![Action::Deliver(Peer::Child(1), e(50))]);
    }

    #[test]
    fn event_from_below_also_goes_up() {
        let mut b: Broker<Filter> = Broker::new(false);
        b.subscribe(Peer::Child(1), f(10));
        let actions = b.publish(Peer::Child(9), e(50));
        assert_eq!(
            actions,
            vec![
                Action::Deliver(Peer::Parent, e(50)),
                Action::Deliver(Peer::Child(1), e(50)),
            ]
        );
    }

    #[test]
    fn route_sends_up_once_and_reuses_its_buffer() {
        let mut b: Broker<Filter> = Broker::new(false);
        // Empty table: an event from below still goes up, one from the
        // parent goes nowhere.
        assert_eq!(b.route(Peer::Child(9), &e(50)), &[Peer::Parent]);
        assert!(b.route(Peer::Parent, &e(50)).is_empty());
        // The parent's own registration never adds a second copy.
        b.subscribe(Peer::Parent, Filter::any());
        b.subscribe(Peer::Child(1), f(10));
        let first = b.route(Peer::Child(9), &e(50));
        assert_eq!(first, &[Peer::Parent, Peer::Child(1)]);
        let buffer = first.as_ptr();
        assert_eq!(b.route(Peer::Child(9), &e(60)).as_ptr(), buffer);
        assert_eq!(b.stats().events_in, 4);
        assert_eq!(b.stats().events_out, 5);
    }

    #[test]
    fn sender_never_gets_its_own_event() {
        let mut b: Broker<Filter> = Broker::new(true);
        b.subscribe(Peer::Child(1), f(10));
        let actions = b.publish(Peer::Child(1), e(50));
        assert!(actions.is_empty());
    }

    #[test]
    fn unsubscribe_forwards_only_when_last() {
        let mut b: Broker<Filter> = Broker::new(false);
        b.subscribe(Peer::Child(1), f(10));
        b.subscribe(Peer::Child(2), f(10));
        assert!(b.unsubscribe(Peer::Child(1), &f(10)).is_empty());
        assert_eq!(
            b.unsubscribe(Peer::Child(2), &f(10)),
            vec![Action::ForwardUnsubscribe(f(10))]
        );
        // Unknown unsubscription: no-op.
        assert!(b.unsubscribe(Peer::Child(3), &f(10)).is_empty());
    }

    #[test]
    fn peer_down_clears_registrations() {
        let mut b: Broker<Filter> = Broker::new(true);
        b.subscribe(Peer::Child(1), f(10));
        b.subscribe(Peer::Child(1), f(20));
        assert_eq!(b.peer_down(Peer::Child(1)), 2);
        assert!(b.publish(Peer::Parent, e(50)).is_empty());
    }

    #[test]
    fn stats_track_matching_work() {
        let mut b: Broker<Filter> = Broker::new(true);
        b.subscribe(Peer::Child(1), f(10));
        b.subscribe(Peer::Child(2), f(20));
        b.publish(Peer::Parent, e(15));
        assert_eq!(b.stats().events_in, 1);
        // One topic-bucket probe + one predicate inspected: the sorted
        // boundary list never looks at Ge(20) for x = 15.
        assert_eq!(b.stats().match_evaluations, 2);
        assert_eq!(b.last_match_work(), 2);
        assert_eq!(b.stats().events_out, 1);
    }

    #[test]
    fn match_work_ignores_foreign_topics() {
        let mut b: Broker<Filter> = Broker::new(true);
        for i in 0..50u32 {
            b.subscribe(Peer::Child(i), Filter::for_topic(format!("other{i}")));
        }
        b.subscribe(Peer::Child(99), f(10));
        b.publish(Peer::Parent, e(15));
        // Only the "t" bucket is touched; 50 foreign topics cost nothing.
        assert_eq!(b.last_match_work(), 2);
    }
}
