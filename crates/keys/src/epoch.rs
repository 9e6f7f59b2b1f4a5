//! Epoch-based subscription lifetimes and lazy revocation (§2.1, §3.1).
//!
//! Every authorization is valid for exactly one epoch. At an epoch
//! boundary the KDC's topic key ratchets (the epoch number is mixed into
//! `K(w)`), so stale grants can no longer derive fresh event keys — the
//! "lazy revocation" of group-key systems, without any rekey messages.
//!
//! To avoid flash crowds at epoch boundaries, boundaries are spread
//! per topic ([`EpochSchedule::offset_for`]).

/// An epoch number for some topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EpochId(pub u64);

impl EpochId {
    /// The following epoch.
    pub fn next(self) -> EpochId {
        EpochId(self.0 + 1)
    }
}

impl std::fmt::Display for EpochId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "epoch{}", self.0)
    }
}

/// Per-topic epoch scheduling.
///
/// # Example
///
/// ```
/// use psguard_keys::{EpochId, EpochSchedule};
///
/// let sched = EpochSchedule::new(3_600_000); // one hour
/// let e = sched.epoch_at("cancerTrail", 7_200_000);
/// assert!(e >= EpochId(1));
/// // Different topics roll over at different instants.
/// let off_a = sched.offset_for("topicA");
/// let off_b = sched.offset_for("topicB");
/// assert!(off_a < 3_600_000 && off_b < 3_600_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSchedule {
    len_ms: u64,
}

impl EpochSchedule {
    /// Creates a schedule with the given base epoch length in
    /// milliseconds.
    ///
    /// # Panics
    ///
    /// Panics when `len_ms == 0`.
    pub fn new(len_ms: u64) -> Self {
        assert!(len_ms > 0, "epoch length must be positive");
        EpochSchedule { len_ms }
    }

    /// The base epoch length.
    pub fn len_ms(&self) -> u64 {
        self.len_ms
    }

    /// A deterministic per-topic phase offset in `[0, len_ms)`, spreading
    /// epoch boundaries across topics (an FNV-1a hash of the topic name).
    pub fn offset_for(&self, topic: &str) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in topic.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h % self.len_ms
    }

    /// The epoch holding instant `now_ms` for `topic`.
    pub fn epoch_at(&self, topic: &str, now_ms: u64) -> EpochId {
        EpochId((now_ms + self.offset_for(topic)) / self.len_ms)
    }
}

/// A per-topic batching window for group-key membership changes.
///
/// The subscriber-group baseline used to rekey on every membership
/// change. With batching (ROADMAP item 3) changes queue until the
/// topic's next epoch boundary — or until a pending-change high-water
/// mark forces an early flush — and then settle as **one**
/// dirty-path-union LKH update, atomic with the epoch's key-space
/// rotation (see [`crate::GroupRekeyCoordinator`]).
///
/// # Example
///
/// ```
/// use psguard_keys::{EpochSchedule, RekeyWindow};
///
/// let mut w = RekeyWindow::new(EpochSchedule::new(1000), "trades", 0, 64);
/// w.note(3);
/// assert_eq!(w.pending(), 3);
/// assert!(!w.due(1)); // neither boundary nor high-water mark reached
/// assert!(w.due(5000)); // epoch boundary passed
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RekeyWindow {
    schedule: EpochSchedule,
    topic: String,
    epoch: EpochId,
    max_pending: usize,
    pending: usize,
}

impl RekeyWindow {
    /// Opens a window for `topic` at instant `now_ms`. `max_pending` is
    /// the high-water mark that forces a flush before the boundary
    /// (clamped to at least 1).
    pub fn new(schedule: EpochSchedule, topic: &str, now_ms: u64, max_pending: usize) -> Self {
        let epoch = schedule.epoch_at(topic, now_ms);
        RekeyWindow {
            schedule,
            topic: topic.to_owned(),
            epoch,
            max_pending: max_pending.max(1),
            pending: 0,
        }
    }

    /// The topic this window batches changes for.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// The epoch the current batch will settle into.
    pub fn epoch(&self) -> EpochId {
        self.epoch
    }

    /// Membership changes queued since the last flush.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Records `changes` queued membership operations.
    pub fn note(&mut self, changes: usize) {
        self.pending = self.pending.saturating_add(changes);
    }

    /// Whether the batch must flush now: the topic's epoch boundary has
    /// passed, or the pending count reached the high-water mark.
    pub fn due(&self, now_ms: u64) -> bool {
        self.pending >= self.max_pending || self.schedule.epoch_at(&self.topic, now_ms) > self.epoch
    }

    /// Advances to the epoch the flushed batch settles into and clears
    /// the pending counter. An early (high-water) flush still ratchets
    /// forward so the rotated key space is fresh.
    pub fn advance(&mut self, now_ms: u64) -> EpochId {
        let clock = self.schedule.epoch_at(&self.topic, now_ms);
        self.epoch = if clock > self.epoch {
            clock
        } else {
            self.epoch.next()
        };
        self.pending = 0;
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_advance_with_time() {
        let s = EpochSchedule::new(1000);
        let e0 = s.epoch_at("t", 0);
        let e1 = s.epoch_at("t", 5000);
        assert!(e1 > e0);
        assert_eq!(e0.next().0, e0.0 + 1);
    }

    #[test]
    fn offsets_are_stable_and_spread() {
        let s = EpochSchedule::new(3_600_000);
        assert_eq!(s.offset_for("a"), s.offset_for("a"));
        // Among many topics at least two distinct offsets exist.
        let offsets: std::collections::HashSet<u64> = (0..50)
            .map(|i| s.offset_for(&format!("topic{i}")))
            .collect();
        assert!(
            offsets.len() > 10,
            "offsets too clustered: {}",
            offsets.len()
        );
    }

    #[test]
    fn boundary_countdown_consistent() {
        let s = EpochSchedule::new(1000);
        let now = 12_345;
        let dt = 1000 - (now + s.offset_for("t")) % 1000;
        assert!((1..=1000).contains(&dt));
        let before = s.epoch_at("t", now + dt - 1);
        let after = s.epoch_at("t", now + dt);
        assert_eq!(after.0, before.0 + 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_rejected() {
        EpochSchedule::new(0);
    }

    #[test]
    fn window_due_on_boundary_or_high_water() {
        let sched = EpochSchedule::new(1000);
        let off = sched.offset_for("t");
        let start = 1000 - off; // exactly a boundary for "t"
        let mut w = RekeyWindow::new(sched, "t", start, 4);
        assert_eq!(w.pending(), 0);
        assert!(!w.due(start));
        assert!(!w.due(start + 999));
        // Boundary passed → due regardless of the pending count.
        assert!(w.due(start + 1000));
        // High-water mark → due before the boundary.
        w.note(4);
        assert!(w.due(start));
    }

    #[test]
    fn window_advance_always_ratchets() {
        let sched = EpochSchedule::new(1000);
        let mut w = RekeyWindow::new(sched, "t", 0, 2);
        let e0 = w.epoch();
        w.note(2);
        // Early flush (clock still inside the epoch): still moves ahead.
        let e1 = w.advance(0);
        assert_eq!(e1, e0.next());
        assert_eq!(w.pending(), 0);
        // Boundary flush jumps to the wall-clock epoch.
        let e2 = w.advance(10_000);
        assert!(e2 > e1);
    }
}
