//! Epoch-batched group rekeying: the glue between the KDC's epoch
//! ratchet and the subscriber-group baseline's batched LKH flush
//! (ROADMAP item 3).
//!
//! The baseline crate ([`psguard_groupkey`]) can stage membership
//! changes and settle them as one dirty-path-union update per segment.
//! This module decides *when* that flush happens — at the topic's epoch
//! boundary, or early when a pending-change high-water mark is reached
//! — and fuses it with the key-space rotation: the flush derives the
//! next epoch's group seed from the stateless KDC and rotates the
//! manager's master in the same call, so every key handed out after the
//! flush already belongs to the new epoch.

use psguard_groupkey::{RekeyReport, RekeyStrategy, SubscriberGroupManager, SubscriberId};
use psguard_model::IntRange;

use crate::cost::OpCounter;
use crate::epoch::{EpochId, RekeyWindow};
use crate::kdc::Kdc;

/// Drives one topic's subscriber-group manager through epoch-batched
/// rekey cycles.
///
/// # Example
///
/// ```
/// use psguard_groupkey::RekeyStrategy;
/// use psguard_keys::{EpochSchedule, GroupRekeyCoordinator, Kdc, OpCounter, RekeyWindow};
/// use psguard_model::IntRange;
///
/// let kdc = Kdc::from_seed(b"master");
/// let mut ops = OpCounter::new();
/// let window = RekeyWindow::new(EpochSchedule::new(1000), "trades", 0, 64);
/// let mut coord = GroupRekeyCoordinator::new(
///     IntRange::new(0, 255).unwrap(),
///     RekeyStrategy::Lkh,
///     &kdc,
///     window,
///     &mut ops,
/// );
/// coord.queue_join(7, IntRange::new(0, 127).unwrap());
/// // Not due yet: the join stays queued, no rekey traffic.
/// assert!(!coord.window().due(1));
/// // Past the boundary the batch settles in one update.
/// assert!(coord.window().due(5000));
/// let (epoch, report) = coord.flush_now(&kdc, 5000, &mut ops);
/// assert!(report.keys_to_newcomer > 0);
/// assert!(coord.manager().can_decrypt(7, 64));
/// # let _ = epoch;
/// ```
pub struct GroupRekeyCoordinator {
    manager: SubscriberGroupManager,
    window: RekeyWindow,
}

impl std::fmt::Debug for GroupRekeyCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The manager holds live group keys; print only the window.
        f.debug_struct("GroupRekeyCoordinator")
            .field("window", &self.window)
            .finish_non_exhaustive()
    }
}

impl GroupRekeyCoordinator {
    /// Creates a coordinator whose manager is seeded from the window's
    /// starting epoch via [`Kdc::group_seed`].
    pub fn new(
        range: IntRange,
        strategy: RekeyStrategy,
        kdc: &Kdc,
        window: RekeyWindow,
        ops: &mut OpCounter,
    ) -> Self {
        let seed = kdc.group_seed(window.topic(), window.epoch(), ops);
        GroupRekeyCoordinator {
            manager: SubscriberGroupManager::new(range, strategy, seed.as_bytes()),
            window,
        }
    }

    /// The underlying group manager (read-only; mutate via the queue
    /// and flush methods so the window's accounting stays truthful).
    pub fn manager(&self) -> &SubscriberGroupManager {
        &self.manager
    }

    /// The batching window.
    pub fn window(&self) -> &RekeyWindow {
        &self.window
    }

    /// Queues a join for the next flush. The subscriber gains access
    /// only once the batch settles (epoch semantics: authorizations
    /// activate at the boundary they were priced for).
    pub fn queue_join(&mut self, s: SubscriberId, range: IntRange) {
        self.manager.queue_join(s, range);
        self.window.note(1);
    }

    /// Queues a leave (lazy revocation): the subscriber is dropped from
    /// the authorization set immediately but the key trees rotate at
    /// the next flush.
    pub fn queue_leave(&mut self, s: SubscriberId) {
        self.manager.leave_lazy(s);
        self.window.note(1);
    }

    /// Unconditional flush: advances the window, derives the new
    /// epoch's group seed, rotates the manager's master and settles the
    /// pending batch — one atomic step.
    pub fn flush_now(
        &mut self,
        kdc: &Kdc,
        now_ms: u64,
        ops: &mut OpCounter,
    ) -> (EpochId, RekeyReport) {
        let epoch = self.window.advance(now_ms);
        let seed = kdc.group_seed(self.window.topic(), epoch, ops);
        let report = self.manager.epoch_rekey_rotating(seed.as_bytes());
        (epoch, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochSchedule;

    fn coord(max_pending: usize) -> (Kdc, GroupRekeyCoordinator) {
        let kdc = Kdc::from_seed(b"master");
        let mut ops = OpCounter::new();
        let window = RekeyWindow::new(EpochSchedule::new(1000), "t", 0, max_pending);
        let c = GroupRekeyCoordinator::new(
            IntRange::new(0, 63).unwrap(),
            RekeyStrategy::Lkh,
            &kdc,
            window,
            &mut ops,
        );
        (kdc, c)
    }

    #[test]
    fn queued_join_activates_at_boundary_flush() {
        let (kdc, mut c) = coord(1000);
        let mut ops = OpCounter::new();
        c.queue_join(1, IntRange::new(0, 31).unwrap());
        assert!(!c.window().due(10));
        assert!(!c.manager().can_decrypt(1, 10));
        assert!(c.window().due(5000));
        let (_, report) = c.flush_now(&kdc, 5000, &mut ops);
        assert!(report.keys_to_newcomer > 0);
        assert!(c.manager().can_decrypt(1, 10));
        assert!(!c.manager().can_decrypt(1, 40));
    }

    #[test]
    fn high_water_mark_forces_early_flush() {
        let (kdc, mut c) = coord(3);
        let mut ops = OpCounter::new();
        for s in 0..3 {
            c.queue_join(s, IntRange::new(0, 63).unwrap());
        }
        let e0 = c.window().epoch();
        // Clock has not moved, yet the batch is over the mark.
        assert!(c.window().due(0), "high water");
        let (e1, _) = c.flush_now(&kdc, 0, &mut ops);
        assert_eq!(e1, e0.next());
        assert_eq!(c.window().pending(), 0);
        assert_eq!(c.manager().subscriber_count(), 3);
    }

    #[test]
    fn storm_settles_as_one_batch() {
        let (kdc, mut c) = coord(10_000);
        let mut ops = OpCounter::new();
        for s in 0..64 {
            c.queue_join(s, IntRange::new(0, 63).unwrap());
        }
        c.flush_now(&kdc, 0, &mut ops);
        // Revocation storm: half the members leave inside one window.
        for s in 0..32 {
            c.queue_leave(s);
        }
        assert_eq!(c.window().pending(), 32);
        let (_, batched) = c.flush_now(&kdc, 10_000, &mut ops);
        for s in 0..32u64 {
            assert!(!c.manager().can_decrypt(s, 1));
        }
        for s in 32..64u64 {
            assert!(c.manager().can_decrypt(s, 1));
        }
        // The union of 32 root paths in a 64-leaf tree is far below the
        // naive 32 separate O(log n) rekeys.
        assert!(batched.messages_to_members > 0);
        assert!(batched.messages_to_members < 32 * 12);
    }

    #[test]
    fn debug_redacts_manager_state() {
        let (_, c) = coord(4);
        let dbg = format!("{c:?}");
        assert!(dbg.contains("window"));
        assert!(!dbg.contains("segments"));
    }
}
