//! Per-broker subscription tables with Siena's covering optimization.
//!
//! Storage is two-layered: a flat `(peer, filter)` list preserving
//! registration order (the reference the property tests check against),
//! and a [`MatchIndex`] that answers event matching and covering scans
//! sublinearly. Every mutation keeps the two coherent.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::index::{EntryId, IndexableFilter, MatchIndex, MatchStats};

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

fn entry_hash<F: Hash>(peer: Peer, filter: &F) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    peer.hash(&mut h);
    filter.hash(&mut h);
    h.finish()
}

/// The subscription table of one broker.
///
/// Stores `(peer, filter)` registrations and answers the two questions the
/// routing algorithm asks:
///
/// * which peers should receive an event ([`SubscriptionTable::matching_peers`]);
/// * must a new subscription be forwarded to the parent, or is it covered
///   by something already forwarded ([`SubscriptionTable::insert`])?
#[derive(Debug, Clone)]
pub struct SubscriptionTable<F: IndexableFilter> {
    entries: Vec<(Peer, F)>,
    /// `entries[i]`'s id inside the index (parallel vector).
    ids: Vec<EntryId>,
    index: MatchIndex<F>,
    /// Hashes of live `(peer, filter)` registrations, with multiplicity.
    /// An absent hash lets [`insert`](Self::insert) skip the exact
    /// duplicate scan entirely — the common case.
    seen: HashMap<u64, u32>,
}

impl<F: IndexableFilter> Default for SubscriptionTable<F> {
    fn default() -> Self {
        SubscriptionTable {
            entries: Vec::new(),
            ids: Vec::new(),
            index: MatchIndex::new(),
            seen: HashMap::new(),
        }
    }
}

impl<F: IndexableFilter> SubscriptionTable<F> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[(Peer, F)] {
        &self.entries
    }

    /// The underlying match index (diagnostics: distinct keys, last
    /// query's work).
    pub fn index(&self) -> &MatchIndex<F> {
        &self.index
    }

    /// Registers `filter` for `peer`. Returns `true` when the subscription
    /// must be forwarded to the parent — i.e. it is **not** covered by any
    /// previously registered filter (Siena's covering optimization, §2.1).
    ///
    /// Duplicate `(peer, filter)` registrations are idempotent and never
    /// forwarded. The duplicate test is a hash-presence check (exact
    /// confirmation only on hash hit), and the covering test scans only
    /// the buckets that could hold a covering filter.
    pub fn insert(&mut self, peer: Peer, filter: F) -> bool {
        let h = entry_hash(peer, &filter);
        if self.seen.get(&h).copied().unwrap_or(0) > 0 && self.index.contains(peer, &filter) {
            return false;
        }
        let covered = self.index.covered_by_any(&filter);
        let id = self.index.insert(peer, filter.clone());
        self.entries.push((peer, filter));
        self.ids.push(id);
        *self.seen.entry(h).or_insert(0) += 1;
        !covered
    }

    /// Removes a specific `(peer, filter)` registration. Returns `true`
    /// when something was removed.
    pub fn remove(&mut self, peer: Peer, filter: &F) -> bool {
        let h = entry_hash(peer, filter);
        if self.seen.get(&h).copied().unwrap_or(0) == 0 {
            return false;
        }
        // Insert's idempotence guarantees at most one exact occurrence:
        // find it through the filter's own bucket, then its row by id.
        let Some(pos) = self
            .index
            .find(peer, filter)
            .and_then(|id| self.ids.iter().position(|&i| i == id))
        else {
            return false;
        };
        self.remove_at(pos, h);
        true
    }

    /// Removes every registration of `peer` (e.g. on disconnect).
    pub fn remove_peer(&mut self, peer: Peer) -> usize {
        let mut removed = 0;
        while let Some(pos) = self.entries.iter().position(|(p, _)| *p == peer) {
            let h = entry_hash(peer, &self.entries[pos].1);
            self.remove_at(pos, h);
            removed += 1;
        }
        removed
    }

    fn remove_at(&mut self, pos: usize, hash: u64) {
        self.index.remove(self.ids[pos]);
        // O(n) shift keeps registration order, so the index's first-seen
        // ordering and the linear reference stay aligned.
        self.entries.remove(pos);
        self.ids.remove(pos);
        if let Some(c) = self.seen.get_mut(&hash) {
            *c -= 1;
            if *c == 0 {
                self.seen.remove(&hash);
            }
        }
    }

    /// The distinct peers whose filters match `event`, in first-seen
    /// order. Served by the [`MatchIndex`] fast path; work performed is
    /// reported by [`last_match_work`](Self::last_match_work).
    pub fn matching_peers(&mut self, event: &F::Event) -> Vec<Peer> {
        self.index.query(event)
    }

    /// [`matching_peers`](Self::matching_peers) into a caller-provided
    /// buffer: `out` is cleared and refilled, so a publish loop reuses
    /// one allocation across events instead of building a fresh `Vec`
    /// per event.
    pub fn matching_peers_into(&mut self, event: &F::Event, out: &mut Vec<Peer>) {
        self.index.query_into(event, out);
    }

    /// Reference implementation of [`matching_peers`](Self::matching_peers):
    /// the original linear scan over every registration. Kept as the
    /// oracle for property tests and as the baseline for benchmarks.
    pub fn matching_peers_linear(&self, event: &F::Event) -> Vec<Peer> {
        let mut out: Vec<Peer> = Vec::new();
        for (peer, filter) in &self.entries {
            if filter.matches(event) && !out.contains(peer) {
                out.push(*peer);
            }
        }
        out
    }

    /// Work performed by the most recent [`matching_peers`](Self::matching_peers)
    /// call (key probes + distinct-predicate evaluations) — the
    /// per-event matching cost used by the performance model. The linear
    /// scan's equivalent was `len()`.
    pub fn last_match_work(&self) -> u64 {
        self.index.last_stats().work()
    }

    /// Detailed statistics of the most recent match.
    pub fn last_match_stats(&self) -> MatchStats {
        self.index.last_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psguard_model::{Constraint, Event, Filter, Op};

    fn age_filter(min: i64) -> Filter {
        Filter::for_topic("t").with(Constraint::new("age", Op::Ge(min)))
    }

    fn event(age: i64) -> Event {
        Event::builder("t").attr("age", age).build()
    }

    #[test]
    fn first_subscription_forwards() {
        let mut t = SubscriptionTable::new();
        assert!(t.insert(Peer::Child(1), age_filter(10)));
    }

    #[test]
    fn covered_subscription_not_forwarded() {
        let mut t = SubscriptionTable::new();
        assert!(t.insert(Peer::Child(1), age_filter(10)));
        // Narrower filter from another peer: covered, no forward.
        assert!(!t.insert(Peer::Child(2), age_filter(20)));
        // Broader filter: not covered, forward.
        assert!(t.insert(Peer::Child(3), age_filter(0)));
    }

    #[test]
    fn duplicate_registration_idempotent() {
        let mut t = SubscriptionTable::new();
        assert!(t.insert(Peer::Child(1), age_filter(10)));
        assert!(!t.insert(Peer::Child(1), age_filter(10)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_short_circuit_preserves_len_across_churn() {
        // The hash short-circuit must agree with exact comparison: after
        // a mix of duplicate and distinct inserts plus removals, len()
        // matches the count of distinct live registrations.
        let mut t = SubscriptionTable::new();
        let mut distinct = std::collections::HashSet::new();
        for round in 0..3 {
            // i and i+16 produce the same (peer, filter) pair, and every
            // round repeats all of them: only the brute-force-distinct
            // pairs may survive the short-circuit.
            for i in 0..32i64 {
                t.insert(Peer::Child((i % 8) as u32), age_filter(i % 16));
                distinct.insert(((i % 8) as u32, i % 16));
            }
            assert_eq!(t.len(), distinct.len(), "round {round}");
        }
        for i in 0..32i64 {
            t.remove(Peer::Child((i % 8) as u32), &age_filter(i % 16));
        }
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        // And the table is fully reusable after draining.
        assert!(t.insert(Peer::Child(1), age_filter(10)));
        assert!(!t.insert(Peer::Child(1), age_filter(10)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn matching_peers_dedup_and_filter() {
        let mut t = SubscriptionTable::new();
        t.insert(Peer::Child(1), age_filter(10));
        t.insert(Peer::Child(1), age_filter(30));
        t.insert(Peer::Child(2), age_filter(50));
        assert_eq!(t.matching_peers(&event(40)), vec![Peer::Child(1)]);
        assert_eq!(
            t.matching_peers(&event(60)),
            vec![Peer::Child(1), Peer::Child(2)]
        );
        assert!(t.matching_peers(&event(5)).is_empty());
    }

    #[test]
    fn fast_path_agrees_with_linear_reference() {
        let mut t = SubscriptionTable::new();
        t.insert(Peer::Child(1), age_filter(10));
        t.insert(Peer::Child(1), age_filter(30));
        t.insert(Peer::Child(2), age_filter(50));
        t.insert(Peer::Parent, Filter::any());
        for age in [5i64, 10, 29, 30, 50, 99] {
            let e = event(age);
            assert_eq!(
                t.matching_peers(&e),
                t.matching_peers_linear(&e),
                "age={age}"
            );
        }
    }

    #[test]
    fn match_work_is_sublinear_across_topics() {
        let mut t = SubscriptionTable::new();
        for i in 0..100u32 {
            t.insert(Peer::Child(i), Filter::for_topic(format!("topic{i}")));
        }
        let e = Event::builder("topic7").build();
        assert_eq!(t.matching_peers(&e), vec![Peer::Child(7)]);
        // One bucket probe; the other 99 topics cost nothing. The linear
        // scan's equivalent would have been 100.
        assert_eq!(t.last_match_work(), 1);
    }

    #[test]
    fn remove_specific_and_peer() {
        let mut t = SubscriptionTable::new();
        t.insert(Peer::Child(1), age_filter(10));
        t.insert(Peer::Child(1), age_filter(20));
        t.insert(Peer::Local(7), age_filter(10));
        assert!(t.remove(Peer::Child(1), &age_filter(10)));
        assert!(!t.remove(Peer::Child(1), &age_filter(10)));
        assert_eq!(t.remove_peer(Peer::Child(1)), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.matching_peers(&event(15)), vec![Peer::Local(7)]);
    }
}
