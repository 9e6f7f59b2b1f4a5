//! Inclusive integer ranges used by numeric attribute constraints and the
//! NAKT canonical decomposition.

/// An inclusive integer range `[lo, hi]` (the paper writes `(l, u)` with
/// "both end points inclusive").
///
/// # Example
///
/// ```
/// use psguard_model::IntRange;
///
/// let r = IntRange::new(8, 19).unwrap();
/// assert!(r.contains(8) && r.contains(19) && !r.contains(20));
/// assert_eq!(r.len(), 12);
/// assert!(r.intersect(&IntRange::new(19, 30).unwrap()).is_some());
/// assert!(IntRange::new(0, 100).unwrap().covers(&r));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntRange {
    lo: i64,
    hi: i64,
}

impl IntRange {
    /// Creates `[lo, hi]`. Returns `None` when `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> Option<Self> {
        (lo <= hi).then_some(IntRange { lo, hi })
    }

    /// The single-point range `[v, v]` — how an event value enters the key
    /// space (`K(e) = K^num_{(v,v)}`).
    pub fn point(v: i64) -> Self {
        IntRange { lo: v, hi: v }
    }

    /// Lower (inclusive) bound.
    pub fn lo(&self) -> i64 {
        self.lo
    }

    /// Upper (inclusive) bound.
    pub fn hi(&self) -> i64 {
        self.hi
    }

    /// Number of integers in the range.
    pub fn len(&self) -> u64 {
        (self.hi - self.lo) as u64 + 1
    }

    /// Always `false` — ranges are non-empty by construction. Provided for
    /// API symmetry with `len`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `v` lies in the range.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether `self` fully contains `other` — exactly the paper's
    /// derivability condition `l ≤ l' ≤ u' ≤ u`.
    pub fn covers(&self, other: &IntRange) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// The intersection, or `None` when disjoint.
    pub fn intersect(&self, other: &IntRange) -> Option<IntRange> {
        IntRange::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Clamps this range into `bounds`, or `None` when disjoint from it.
    pub fn clamp_to(&self, bounds: &IntRange) -> Option<IntRange> {
        self.intersect(bounds)
    }
}

impl std::fmt::Display for IntRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_order() {
        assert!(IntRange::new(3, 3).is_some());
        assert!(IntRange::new(3, 2).is_none());
    }

    #[test]
    fn point_has_len_one() {
        let p = IntRange::point(7);
        assert_eq!(p.len(), 1);
        assert!(p.contains(7));
        assert!(!p.contains(8));
    }

    #[test]
    fn covers_is_reflexive_and_antisymmetric_on_distinct() {
        let a = IntRange::new(0, 10).unwrap();
        let b = IntRange::new(2, 8).unwrap();
        assert!(a.covers(&a));
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
    }

    #[test]
    fn overlap_edge_cases() {
        let a = IntRange::new(0, 5).unwrap();
        assert!(a.intersect(&IntRange::new(5, 9).unwrap()).is_some());
        assert!(a.intersect(&IntRange::new(6, 9).unwrap()).is_none());
        assert!(a.intersect(&IntRange::new(-3, 0).unwrap()).is_some());
    }

    #[test]
    fn intersect_matches_overlap() {
        let a = IntRange::new(0, 5).unwrap();
        let b = IntRange::new(3, 9).unwrap();
        assert_eq!(a.intersect(&b), IntRange::new(3, 5));
        assert_eq!(a.intersect(&IntRange::new(7, 9).unwrap()), None);
    }

    #[test]
    fn display() {
        assert_eq!(IntRange::new(8, 19).unwrap().to_string(), "[8, 19]");
    }
}
