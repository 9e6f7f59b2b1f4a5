//! The subscriber-group key-management baseline (§3.2 of the paper,
//! following Opyrchal–Prakash).
//!
//! Group keys are bound to *sets of subscribers*. For range subscriptions
//! on a numeric attribute, the active subscriptions partition the value
//! space into elementary segments, each with its own group (the example in
//! §3.2.1: S1 on (20,30) and S2 on (25,40) yield G1 = {S1}, G2 = {S1,S2},
//! G3 = {S2}). Every join splits segments and forces key updates to every
//! member of every affected group — the cost PSGuard eliminates.
//!
//! Joins can be applied eagerly ([`SubscriberGroupManager::join`]) or
//! queued in the per-epoch [`RekeyBatch`]
//! ([`SubscriberGroupManager::queue_join`]); leaves are lazy
//! ([`SubscriberGroupManager::leave_lazy`]). Queued changes settle at the
//! epoch flush.
//! [`SubscriberGroupManager::epoch_rekey`] settles the whole batch with one
//! dirty-path-union LKH update per touched segment;
//! [`SubscriberGroupManager::epoch_rekey_naive`] replays the identical
//! structural changes but rekeys after every single change — the retained
//! baseline the `rekey_storm` bench and the batched-equivalence proptest
//! measure against.

use std::collections::{BTreeMap, BTreeSet};

use psguard_crypto::DeriveKey;
use psguard_model::IntRange;

use crate::batch::{QueuedOp, RekeyBatch};
use crate::lkh::LkhTree;
use crate::report::RekeyReport;

/// How rekey messages are delivered within one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RekeyStrategy {
    /// Unicast the new group key to each member (`O(n)` messages).
    Direct,
    /// LKH broadcast (`O(log n)` messages) — the classic optimization.
    Lkh,
}

/// A subscriber identifier.
pub type SubscriberId = u64;

/// When a membership change's rekey cost is settled: after every
/// operation (the naive baseline) or once per batch flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushMode {
    PerOp,
    Batched,
}

#[derive(Clone)]
struct Segment {
    range: IntRange,
    members: BTreeSet<SubscriberId>,
    tree: LkhTree,
}

// Redacting Debug: the LKH tree holds live group keys; print topology only.
impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("range", &self.range)
            .field("members", &self.members.len())
            .field("tree", &self.tree)
            .finish()
    }
}

impl Segment {
    fn new(seed: &DeriveKey, counter: u64, range: IntRange) -> Self {
        Segment {
            range,
            members: BTreeSet::new(),
            tree: LkhTree::new(&[seed.as_bytes().as_slice(), &counter.to_be_bytes()].concat()),
        }
    }
}

/// The baseline group-key manager for one numeric attribute.
///
/// # Example
///
/// ```
/// use psguard_groupkey::{RekeyStrategy, SubscriberGroupManager};
/// use psguard_model::IntRange;
///
/// let mut mgr = SubscriberGroupManager::new(
///     IntRange::new(0, 99).unwrap(),
///     RekeyStrategy::Direct,
///     b"seed",
/// );
/// mgr.join(1, IntRange::new(20, 30).unwrap());
/// let report = mgr.join(2, IntRange::new(25, 40).unwrap());
/// assert!(report.total_messages() > 0); // overlapping join forces rekeys
/// assert_eq!(mgr.segment_count(), 3);   // G1, G2, G3 from the paper
/// ```
#[derive(Clone)]
pub struct SubscriberGroupManager {
    range: IntRange,
    strategy: RekeyStrategy,
    master: DeriveKey,
    counter: u64,
    subs: BTreeMap<SubscriberId, IntRange>,
    pending: RekeyBatch,
    segments: Vec<Segment>,
}

// Redacting Debug: the master seed generates every segment key; only shape
// and membership counts are printed.
impl std::fmt::Debug for SubscriberGroupManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubscriberGroupManager")
            .field("range", &self.range)
            .field("strategy", &self.strategy)
            .field("master", &self.master)
            .field("subscribers", &self.subs.len())
            .field("pending", &self.pending)
            .field("segments", &self.segments)
            .finish()
    }
}

impl SubscriberGroupManager {
    /// Creates a manager over the attribute range.
    pub fn new(range: IntRange, strategy: RekeyStrategy, seed: &[u8]) -> Self {
        SubscriberGroupManager {
            range,
            strategy,
            master: DeriveKey::from_bytes(seed),
            counter: 0,
            subs: BTreeMap::new(),
            pending: RekeyBatch::default(),
            segments: Vec::new(),
        }
    }

    /// Number of active subscribers.
    // DEAD-PUB-OK: observer of batched-vs-naive membership parity (batch_props.rs)
    pub fn subscriber_count(&self) -> usize {
        self.subs.len()
    }

    /// Number of elementary segments (groups).
    // DEAD-PUB-OK: observer of segment pruning on revocation
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of membership changes queued for the next epoch flush.
    // DEAD-PUB-OK: observer of the queued batch (batch_props.rs)
    pub fn pending_changes(&self) -> usize {
        self.pending.len()
    }

    /// Keys the server must store (all group keys; LKH trees count their
    /// internal nodes too).
    pub fn server_key_count(&self) -> u64 {
        match self.strategy {
            RekeyStrategy::Direct => self.segments.len() as u64,
            RekeyStrategy::Lkh => self
                .segments
                .iter()
                .map(|s| s.tree.server_key_count())
                .sum(),
        }
    }

    /// Keys one subscriber holds: one (or a path, under LKH) per segment
    /// overlapping its range. This is the quantity in Figure 3.
    pub fn keys_per_subscriber(&self, s: SubscriberId) -> u64 {
        self.segments
            .iter()
            .filter(|seg| seg.members.contains(&s))
            .map(|seg| match self.strategy {
                RekeyStrategy::Direct => 1,
                RekeyStrategy::Lkh => seg.tree.member_key_count(),
            })
            .sum()
    }

    /// Keys a publisher must hold to encrypt for any event value: one per
    /// group (Figure 4).
    pub fn publisher_key_count(&self) -> u64 {
        self.segments.len() as u64
    }

    /// The group key used to encrypt an event carrying value `v`, or
    /// `None` when no subscriber covers `v` (nothing to deliver).
    // DEAD-PUB-OK: observer of revocation (batch_props.rs, chaos.rs)
    pub fn group_key_for_value(&self, v: i64) -> Option<&DeriveKey> {
        self.segments
            .iter()
            .find(|seg| seg.range.contains(v))
            .map(|seg| seg.tree.group_key())
    }

    /// The root-path keys subscriber `s` holds across all its segments
    /// (leaf-first per segment, segments in range order) — the full key
    /// state the equivalence proptests compare between the batched and
    /// naive rekey paths.
    // DEAD-PUB-OK: observer of revocation (batch_props.rs, chaos.rs)
    pub fn subscriber_keys(&self, s: SubscriberId) -> Vec<DeriveKey> {
        let mut keys = Vec::new();
        for seg in &self.segments {
            if seg.members.contains(&s) {
                if let Some(path) = seg.tree.member_keys(s) {
                    keys.extend(path);
                }
            }
        }
        keys
    }

    /// Whether subscriber `s` can decrypt an event carrying value `v`.
    // DEAD-PUB-OK: observer of revocation (lkh_props.rs, batch_props.rs)
    pub fn can_decrypt(&self, s: SubscriberId, v: i64) -> bool {
        self.segments
            .iter()
            .any(|seg| seg.range.contains(v) && seg.members.contains(&s))
    }

    fn fresh_segment(&mut self, range: IntRange) -> Segment {
        self.counter += 1;
        Segment::new(&self.master, self.counter, range)
    }

    /// Settles a segment's staged tree changes, costing per strategy.
    /// `newcomers` is the count of genuinely new subscribers among the
    /// staged joins (segment splits re-stage existing members, which are
    /// not newcomers under Direct accounting).
    fn settle(strategy: RekeyStrategy, seg: &mut Segment, newcomers: u64) -> RekeyReport {
        if !seg.tree.has_pending() {
            return RekeyReport::default();
        }
        match strategy {
            RekeyStrategy::Lkh => seg.tree.flush(),
            RekeyStrategy::Direct => {
                // The tree still settles (keys must stay consistent for
                // decryption probes); the *charged* cost is the direct
                // model: one fresh group key, unicast to every member.
                let _ = seg.tree.flush();
                let n = seg.members.len() as u64;
                RekeyReport {
                    messages_to_members: n.saturating_sub(newcomers),
                    keys_to_newcomer: newcomers,
                    keys_generated: 1,
                    encryptions: n,
                }
            }
        }
    }

    /// Splits any segment straddling `boundary` (values < boundary vs ≥).
    /// Both halves keep the member set; both must be rekeyed (members can
    /// otherwise decrypt across the split), which the returned report
    /// charges.
    fn split_at(&mut self, boundary: i64, mode: FlushMode) -> RekeyReport {
        let mut report = RekeyReport::default();
        let mut i = 0;
        while i < self.segments.len() {
            let seg_range = self.segments[i].range;
            if seg_range.lo() < boundary && boundary <= seg_range.hi() {
                // lo < boundary ≤ hi, so both halves are non-empty; if the
                // constructor disagrees, leave the segment unsplit.
                let (Some(left_r), Some(right_r)) = (
                    IntRange::new(seg_range.lo(), boundary - 1),
                    IntRange::new(boundary, seg_range.hi()),
                ) else {
                    i += 1;
                    continue;
                };
                let members = self.segments[i].members.clone();
                let mut left = self.fresh_segment(left_r);
                let mut right = self.fresh_segment(right_r);
                for &m in &members {
                    left.tree.stage_join(m);
                    right.tree.stage_join(m);
                }
                left.members = members.clone();
                right.members = members;
                if mode == FlushMode::PerOp {
                    report.merge(&Self::settle(self.strategy, &mut left, 0));
                    report.merge(&Self::settle(self.strategy, &mut right, 0));
                }
                report.keys_generated += 2;
                self.segments.splice(i..=i, [left, right]);
                i += 2;
            } else {
                i += 1;
            }
        }
        report
    }

    /// The join body shared by the eager path and the batch replay.
    fn apply_join(&mut self, s: SubscriberId, range: IntRange, mode: FlushMode) -> RekeyReport {
        let mut report = RekeyReport::default();
        if self.subs.contains_key(&s) || self.pending.is_departed(s) {
            // Re-subscription (possibly after a lazy leave): evict the old
            // range first so membership reflects exactly the latest
            // subscription.
            report.merge(&self.apply_leave(s, mode));
        }
        let Some(range) = range.clamp_to(&self.range) else {
            return report;
        };
        self.subs.insert(s, range);
        self.pending.cancel_leave(s);

        report.merge(&self.split_at(range.lo(), mode));
        report.merge(&self.split_at(range.hi() + 1, mode));

        // Walk segments inside the range, adding the newcomer; collect gaps.
        let mut covered: Vec<IntRange> = Vec::new();
        for i in 0..self.segments.len() {
            let seg_range = self.segments[i].range;
            if range.covers(&seg_range) {
                self.segments[i].members.insert(s);
                self.segments[i].tree.stage_join(s);
                if mode == FlushMode::PerOp {
                    report.merge(&Self::settle(self.strategy, &mut self.segments[i], 1));
                }
                covered.push(seg_range);
            }
        }

        // Create singleton segments for the uncovered gaps.
        covered.sort_by_key(|r| r.lo());
        let mut cursor = range.lo();
        let mut gaps = Vec::new();
        for c in &covered {
            if c.lo() > cursor {
                // cursor ≤ c.lo() - 1 here, so the gap range is valid.
                gaps.extend(IntRange::new(cursor, c.lo() - 1));
            }
            cursor = c.hi() + 1;
        }
        if cursor <= range.hi() {
            gaps.extend(IntRange::new(cursor, range.hi()));
        }
        for gap in gaps {
            let mut seg = self.fresh_segment(gap);
            seg.members.insert(s);
            seg.tree.stage_join(s);
            report.keys_generated += 1;
            if mode == FlushMode::PerOp {
                report.merge(&Self::settle(self.strategy, &mut seg, 1));
            }
            self.segments.push(seg);
        }
        self.segments.sort_by_key(|seg| seg.range.lo());
        report
    }

    /// The eviction body shared by the eager path and the batch replay.
    fn apply_leave(&mut self, s: SubscriberId, mode: FlushMode) -> RekeyReport {
        self.subs.remove(&s);
        self.pending.cancel(s);
        let mut report = RekeyReport::default();
        for i in 0..self.segments.len() {
            if self.segments[i].members.remove(&s) {
                self.segments[i].tree.stage_leave(s);
                if mode == FlushMode::PerOp {
                    report.merge(&Self::settle(self.strategy, &mut self.segments[i], 0));
                }
            }
        }
        self.segments.retain(|seg| !seg.members.is_empty());
        report
    }

    /// A subscriber joins with a range (replacing any previous
    /// subscription it held). Returns the full rekey cost: the paper's
    /// `3·NS_overlap`-message phenomenon emerges from segment splitting
    /// plus per-segment rekeys plus key delivery to the newcomer.
    pub fn join(&mut self, s: SubscriberId, range: IntRange) -> RekeyReport {
        self.apply_join(s, range, FlushMode::PerOp)
    }

    /// Queues a join for the next epoch flush instead of applying it
    /// eagerly: the subscriber gains no decryption ability until the
    /// epoch boundary settles the batch (backward secrecy holds over the
    /// whole window). Queued ops replay in arrival order at the flush.
    pub fn queue_join(&mut self, s: SubscriberId, range: IntRange) {
        self.pending.push_join(s, range);
    }

    /// Marks a subscriber as departed (lazy revocation: the subscriber
    /// keeps decrypting until [`SubscriberGroupManager::epoch_rekey`]
    /// settles the pending batch).
    pub fn leave_lazy(&mut self, s: SubscriberId) {
        if self.subs.remove(&s).is_some() {
            self.pending.push_leave(s);
        }
    }

    /// Replays the pending batch, settling rekey costs per `mode`.
    fn flush_pending(&mut self, mode: FlushMode) -> RekeyReport {
        let ops = self.pending.take_ops();
        let mut report = RekeyReport::default();
        for op in ops {
            match op {
                QueuedOp::Join { subscriber, range } => {
                    report.merge(&self.apply_join(subscriber, range, mode));
                }
                QueuedOp::Leave { subscriber } => {
                    report.merge(&self.apply_leave(subscriber, mode));
                }
            }
        }
        if mode == FlushMode::Batched {
            for i in 0..self.segments.len() {
                if self.segments[i].tree.has_pending() {
                    // Direct accounting still needs the newcomer count;
                    // under Lkh the tree's own flush report carries it.
                    let newcomers = self.segments[i].tree.staged_joins();
                    report.merge(&Self::settle(
                        self.strategy,
                        &mut self.segments[i],
                        newcomers,
                    ));
                }
            }
        }
        report
    }

    /// Epoch-boundary rekey: the pending batch (lazy leaves and queued
    /// joins) is replayed structurally, then every touched segment
    /// settles with **one** dirty-path-union LKH update — a revocation
    /// storm costs the union of the affected root paths instead of a
    /// full rekey per departure.
    pub fn epoch_rekey(&mut self) -> RekeyReport {
        self.flush_pending(FlushMode::Batched)
    }

    /// The retained naive baseline: replays the identical pending batch
    /// but rekeys after every single membership change, like the
    /// pre-batching epoch flush did. Structurally it lands on the exact
    /// same trees as [`SubscriberGroupManager::epoch_rekey`] (every key
    /// is a pure function of the leaf layout), which the equivalence
    /// proptest checks; only the cost differs.
    // DEAD-PUB-OK: the per-op reference for batch_props.rs and chaos.rs
    pub fn epoch_rekey_naive(&mut self) -> RekeyReport {
        self.flush_pending(FlushMode::PerOp)
    }

    /// Epoch-boundary rekey fused with key-space rotation: the manager's
    /// master seed advances to `new_seed` (so segments created from now
    /// on derive from the new epoch's key space) and the pending batch
    /// settles in the same call — membership flush and rotation are
    /// atomic with respect to every key handed out afterwards.
    pub fn epoch_rekey_rotating(&mut self, new_seed: &[u8]) -> RekeyReport {
        self.master = DeriveKey::from_bytes(new_seed);
        self.flush_pending(FlushMode::Batched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> SubscriberGroupManager {
        SubscriberGroupManager::new(
            IntRange::new(0, 99).unwrap(),
            RekeyStrategy::Direct,
            b"seed",
        )
    }

    #[test]
    fn paper_section_321_example() {
        // S1 on (20, 30); then S2 on (25, 40) → G1 (20,24)={S1},
        // G2 (25,30)={S1,S2}, G3 (31,40)={S2}.
        let mut m = mgr();
        m.join(1, IntRange::new(20, 30).unwrap());
        assert_eq!(m.segment_count(), 1);
        let r = m.join(2, IntRange::new(25, 40).unwrap());
        assert_eq!(m.segment_count(), 3);
        // S1 now holds keys for two groups, S2 for two.
        assert_eq!(m.keys_per_subscriber(1), 2);
        assert_eq!(m.keys_per_subscriber(2), 2);
        // S1 had to be updated (split rekeys) → messages to members > 0.
        assert!(r.messages_to_members > 0);
        assert!(r.keys_to_newcomer > 0);
    }

    #[test]
    fn decryption_respects_groups() {
        let mut m = mgr();
        m.join(1, IntRange::new(20, 30).unwrap());
        m.join(2, IntRange::new(25, 40).unwrap());
        assert!(m.can_decrypt(1, 22));
        assert!(!m.can_decrypt(2, 22));
        assert!(m.can_decrypt(1, 27) && m.can_decrypt(2, 27));
        assert!(!m.can_decrypt(1, 35) && m.can_decrypt(2, 35));
        assert!(m.group_key_for_value(50).is_none());
    }

    #[test]
    fn disjoint_joins_are_cheap() {
        let mut m = mgr();
        m.join(1, IntRange::new(0, 9).unwrap());
        let r = m.join(2, IntRange::new(50, 59).unwrap());
        // No overlap: no messages to existing members.
        assert_eq!(r.messages_to_members, 0);
        assert_eq!(r.keys_to_newcomer, 1);
        assert_eq!(m.segment_count(), 2);
    }

    #[test]
    fn identical_ranges_share_one_group() {
        let mut m = mgr();
        m.join(1, IntRange::new(10, 19).unwrap());
        m.join(2, IntRange::new(10, 19).unwrap());
        assert_eq!(m.segment_count(), 1);
        assert_eq!(m.keys_per_subscriber(1), 1);
        assert!(m.can_decrypt(1, 15) && m.can_decrypt(2, 15));
    }

    #[test]
    fn messaging_cost_grows_with_overlapping_subscribers() {
        let mut m = mgr();
        let mut last = 0;
        for s in 0..20 {
            let r = m.join(s, IntRange::new(40, 60).unwrap());
            last = r.total_messages();
        }
        // With 19 existing members in the overlapping group, the 20th join
        // must message many of them.
        assert!(last >= 19, "messages={last}");
    }

    #[test]
    fn epoch_rekey_after_leave_prunes_segments() {
        let mut m = mgr();
        m.join(1, IntRange::new(0, 9).unwrap());
        m.join(2, IntRange::new(5, 14).unwrap());
        m.leave_lazy(2);
        let r = m.epoch_rekey();
        assert!(r.keys_generated > 0);
        assert!(!m.can_decrypt(2, 7));
        assert!(m.can_decrypt(1, 7));
        // Segment (10, 14) had only S2 → pruned.
        assert_eq!(m.segment_count(), 2);
    }

    #[test]
    fn lazy_leave_defers_until_epoch() {
        let mut m = mgr();
        m.join(1, IntRange::new(0, 9).unwrap());
        m.join(2, IntRange::new(0, 9).unwrap());
        m.leave_lazy(2);
        // Still able to decrypt until the epoch boundary (lazy revocation).
        assert!(m.can_decrypt(2, 5));
        let r = m.epoch_rekey();
        assert!(r.keys_generated > 0);
        assert!(!m.can_decrypt(2, 5));
        assert!(m.can_decrypt(1, 5));
        // Second epoch rekey is a no-op.
        assert_eq!(m.epoch_rekey().total_messages(), 0);
    }

    #[test]
    fn queued_join_defers_access_until_epoch() {
        let mut m = mgr();
        m.queue_join(3, IntRange::new(10, 19).unwrap());
        assert_eq!(m.pending_changes(), 1);
        // Backward secrecy over the window: no access before the flush.
        assert!(!m.can_decrypt(3, 15));
        assert_eq!(m.subscriber_count(), 0);
        let r = m.epoch_rekey();
        assert!(r.keys_to_newcomer > 0);
        assert_eq!(m.pending_changes(), 0);
        assert!(m.can_decrypt(3, 15));
        assert_eq!(m.subscriber_count(), 1);
    }

    #[test]
    fn eager_rejoin_cancels_queued_leave() {
        let mut m = mgr();
        m.join(1, IntRange::new(0, 9).unwrap());
        m.leave_lazy(1);
        assert_eq!(m.pending_changes(), 1);
        m.join(1, IntRange::new(20, 29).unwrap());
        // The queued leave is gone: the epoch flush must not revoke the
        // fresh subscription.
        assert_eq!(m.pending_changes(), 0);
        m.epoch_rekey();
        assert!(m.can_decrypt(1, 25));
        assert!(!m.can_decrypt(1, 5), "old range was evicted");
    }

    #[test]
    fn batched_epoch_flush_settles_each_segment_once() {
        let range = IntRange::new(0, 99).unwrap();
        let mut naive = SubscriberGroupManager::new(range, RekeyStrategy::Lkh, b"x");
        let mut batched = SubscriberGroupManager::new(range, RekeyStrategy::Lkh, b"x");
        for s in 0..64 {
            naive.join(s, IntRange::new(10, 90).unwrap());
            batched.join(s, IntRange::new(10, 90).unwrap());
        }
        for s in 20..40 {
            naive.leave_lazy(s);
            batched.leave_lazy(s);
        }
        let rn = naive.epoch_rekey_naive();
        let rb = batched.epoch_rekey();
        // Identical resulting key state, strictly fewer messages batched.
        for s in 0..64u64 {
            assert_eq!(
                naive.subscriber_keys(s),
                batched.subscriber_keys(s),
                "s={s}"
            );
        }
        for v in [10, 42, 90] {
            assert_eq!(naive.group_key_for_value(v), batched.group_key_for_value(v));
        }
        assert!(
            rb.total_messages() < rn.total_messages(),
            "batched={} naive={}",
            rb.total_messages(),
            rn.total_messages()
        );
    }

    #[test]
    fn lkh_strategy_reduces_messages_for_large_groups() {
        let range = IntRange::new(0, 99).unwrap();
        let mut direct = SubscriberGroupManager::new(range, RekeyStrategy::Direct, b"a");
        let mut lkh = SubscriberGroupManager::new(range, RekeyStrategy::Lkh, b"b");
        let mut d_total = 0;
        let mut l_total = 0;
        for s in 0..256 {
            d_total += direct
                .join(s, IntRange::new(10, 90).unwrap())
                .total_messages();
            l_total += lkh.join(s, IntRange::new(10, 90).unwrap()).total_messages();
        }
        assert!(
            l_total < d_total,
            "LKH ({l_total}) should beat direct ({d_total})"
        );
    }

    #[test]
    fn out_of_range_subscription_ignored() {
        let mut m = mgr();
        let r = m.join(1, IntRange::new(500, 600).unwrap());
        assert_eq!(r.total_messages(), 0);
        assert_eq!(m.segment_count(), 0);
    }

    #[test]
    fn segments_partition_subscribed_space() {
        let mut m = mgr();
        let ranges = [(0, 30), (10, 50), (20, 80), (60, 99), (5, 95)];
        for (i, (lo, hi)) in ranges.iter().enumerate() {
            m.join(i as u64, IntRange::new(*lo, *hi).unwrap());
        }
        // Segments must be sorted, disjoint and non-empty.
        let mut prev_hi = i64::MIN;
        for seg in &m.segments {
            assert!(seg.range.lo() > prev_hi);
            assert!(!seg.members.is_empty());
            prev_hi = seg.range.hi();
        }
        // Every subscriber can decrypt exactly its own range.
        for (i, (lo, hi)) in ranges.iter().enumerate() {
            for v in 0..100i64 {
                assert_eq!(
                    m.can_decrypt(i as u64, v),
                    v >= *lo && v <= *hi,
                    "s={i} v={v}"
                );
            }
        }
    }
}
