//! Property tests for the baseline's LKH trees and interval-group
//! manager under arbitrary join/leave interleavings.

use proptest::prelude::*;
use psguard_groupkey::{LkhTree, RekeyStrategy, SubscriberGroupManager};
use psguard_model::IntRange;

proptest! {
    /// LKH invariants hold under any operation sequence: membership is
    /// exact, the group key ratchets on every effective change, and the
    /// stored-key accounting matches 2n−1.
    #[test]
    fn lkh_invariants_under_interleavings(
        ops in prop::collection::vec((any::<bool>(), 0u64..16), 1..60),
    ) {
        let mut tree = LkhTree::new(b"prop");
        let mut members = std::collections::HashSet::new();
        let mut last_key = tree.group_key().clone();
        for (join, id) in ops {
            if join {
                let r = tree.join(id);
                if members.insert(id) {
                    prop_assert!(r.keys_generated > 0);
                    prop_assert_ne!(tree.group_key(), &last_key);
                } else {
                    prop_assert_eq!(r.total_messages(), 0);
                    prop_assert_eq!(tree.group_key(), &last_key);
                }
            } else {
                let r = tree.leave(id);
                if members.remove(&id) {
                    prop_assert!(r.is_some());
                    prop_assert_ne!(tree.group_key(), &last_key);
                } else {
                    prop_assert!(r.is_none());
                    prop_assert_eq!(tree.group_key(), &last_key);
                }
            }
            last_key = tree.group_key().clone();
            prop_assert_eq!(tree.len(), members.len());
            for &m in &members {
                prop_assert!(tree.contains(m));
            }
            let expect_keys = if members.is_empty() { 0 } else { 2 * members.len() as u64 - 1 };
            prop_assert_eq!(tree.server_key_count(), expect_keys);
        }
    }

    /// The interval-group manager's decryption predicate tracks the
    /// latest subscription exactly, under joins, re-subscriptions, and
    /// lazy leaves + epoch rekeys.
    #[test]
    fn group_manager_tracks_membership_exactly(
        ops in prop::collection::vec((0u8..4, 0u64..6, 0i64..60, 1i64..30), 1..40),
        probes in prop::collection::vec(0i64..64, 8),
    ) {
        let mut mgr = SubscriberGroupManager::new(
            IntRange::new(0, 63).expect("valid"),
            RekeyStrategy::Lkh,
            b"prop",
        );
        // Our model of who should currently decrypt what. Lazily departed
        // members keep access until the epoch rekey (lazy revocation).
        let mut active: std::collections::HashMap<u64, IntRange> = Default::default();
        let mut lingering: std::collections::HashMap<u64, IntRange> = Default::default();
        for (op, id, lo, w) in ops {
            match op {
                0 | 3 => {
                    let r = IntRange::new(lo, (lo + w).min(63)).expect("valid");
                    mgr.join(id, r);
                    active.insert(id, r);
                    lingering.remove(&id);
                }
                _ => {
                    if let Some(r) = active.remove(&id) {
                        mgr.leave_lazy(id);
                        lingering.insert(id, r);
                    }
                }
            }
        }
        // Before the epoch boundary, lazy leavers can still decrypt.
        for v in &probes {
            for (id, r) in active.iter().chain(lingering.iter()) {
                prop_assert_eq!(mgr.can_decrypt(*id, *v), r.contains(*v), "pre-rekey s={} v={}", id, v);
            }
        }
        mgr.epoch_rekey();
        for v in &probes {
            for (id, r) in &active {
                prop_assert_eq!(mgr.can_decrypt(*id, *v), r.contains(*v), "post-rekey s={} v={}", id, v);
            }
            for id in lingering.keys() {
                prop_assert!(!mgr.can_decrypt(*id, *v), "revoked s={} v={}", id, v);
            }
        }
    }
}
