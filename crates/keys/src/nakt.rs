//! The Numeric Attribute Key Tree (NAKT) — §3.1 of the paper.
//!
//! A NAKT arranges the cells of a numeric attribute's range in an a-ary
//! tree (binary by default — the paper proves a = 2 minimizes the number of
//! authorization keys). The tree has two faces:
//!
//! * **geometry** ([`Nakt`]): mapping values to leaf identifiers, subtree
//!   spans, and the canonical decomposition of an arbitrary subscription
//!   range into the minimal set of aligned subtrees;
//! * **keys** ([`NaktKeySpace`]): one [`DeriveKey`] per tree element, with
//!   children derivable from parents (`K_{ktid‖b} = H(K_ktid ‖ b)`) but not
//!   conversely.

use psguard_crypto::DeriveKey;
use psguard_model::IntRange;

use crate::cost::OpCounter;
use crate::ktid::Ktid;

/// Errors raised by NAKT construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NaktError {
    /// `lc` must be ≥ 1.
    ZeroLeastCount,
    /// Arity must be ≥ 2.
    BadArity {
        /// The offending arity.
        arity: u8,
    },
    /// The queried value lies outside the attribute range.
    ValueOutOfRange {
        /// The offending value.
        value: i64,
        /// The attribute range.
        range: IntRange,
    },
    /// The queried range does not intersect the attribute range.
    RangeOutOfRange {
        /// The offending range.
        query: IntRange,
        /// The attribute range.
        range: IntRange,
    },
}

impl std::fmt::Display for NaktError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NaktError::ZeroLeastCount => write!(f, "least count must be at least 1"),
            NaktError::BadArity { arity } => write!(f, "arity must be at least 2, got {arity}"),
            NaktError::ValueOutOfRange { value, range } => {
                write!(f, "value {value} outside attribute range {range}")
            }
            NaktError::RangeOutOfRange { query, range } => {
                write!(
                    f,
                    "range {query} does not intersect attribute range {range}"
                )
            }
        }
    }
}

impl std::error::Error for NaktError {}

/// NAKT geometry: the shape of the tree, independent of any key material.
///
/// # Example
///
/// ```
/// use psguard_keys::{Ktid, Nakt};
/// use psguard_model::IntRange;
///
/// // Figure 1 of the paper: R = (0, 31), lc = 4 → depth 3 binary tree.
/// let nakt = Nakt::binary(IntRange::new(0, 31).unwrap(), 4).unwrap();
/// assert_eq!(nakt.depth(), 3);
/// assert_eq!(nakt.ktid_of_value(22).unwrap(), Ktid::from_digits([1, 0, 1]));
///
/// // The subscription (16, 31) is exactly the subtree "1".
/// let cover = nakt.canonical_cover(&IntRange::new(16, 31).unwrap()).unwrap();
/// assert_eq!(cover, vec![Ktid::from_digits([1])]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nakt {
    range: IntRange,
    lc: u64,
    arity: u8,
    depth: usize,
    cells: u64,
}

impl Nakt {
    /// Builds a binary NAKT over `range` with least count `lc`.
    ///
    /// # Errors
    ///
    /// Returns [`NaktError::ZeroLeastCount`] when `lc == 0`.
    pub fn binary(range: IntRange, lc: u64) -> Result<Self, NaktError> {
        Self::with_arity(range, lc, 2)
    }

    /// Builds an a-ary NAKT (used by the arity ablation; the paper proves
    /// binary optimal).
    ///
    /// # Errors
    ///
    /// Returns [`NaktError::ZeroLeastCount`] or [`NaktError::BadArity`].
    pub fn with_arity(range: IntRange, lc: u64, arity: u8) -> Result<Self, NaktError> {
        if lc == 0 {
            return Err(NaktError::ZeroLeastCount);
        }
        if arity < 2 {
            return Err(NaktError::BadArity { arity });
        }
        let raw_cells = range.len().div_ceil(lc);
        // Pad to the next power of the arity so the tree is complete.
        let mut depth = 0usize;
        let mut cells = 1u64;
        while cells < raw_cells {
            cells *= arity as u64;
            depth += 1;
        }
        Ok(Nakt {
            range,
            lc,
            arity,
            depth,
            cells,
        })
    }

    /// The attribute's value range `R(num)`.
    pub fn range(&self) -> IntRange {
        self.range
    }

    /// The least count `lc(num)` — the smallest subscribable granule.
    pub fn lc(&self) -> u64 {
        self.lc
    }

    /// Tree arity `a`.
    pub fn arity(&self) -> u8 {
        self.arity
    }

    /// Tree depth `m = log_a(|R|/lc)` (after padding to a complete tree).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The cell index holding value `v`: `⌊(v − lo)/lc⌋`.
    ///
    /// # Errors
    ///
    /// Returns [`NaktError::ValueOutOfRange`] when `v` is outside the range.
    pub fn cell_of(&self, v: i64) -> Result<u64, NaktError> {
        if !self.range.contains(v) {
            return Err(NaktError::ValueOutOfRange {
                value: v,
                range: self.range,
            });
        }
        Ok(((v - self.range.lo()) as u64) / self.lc)
    }

    /// The leaf identifier `ktid(v)` for an event value.
    ///
    /// # Errors
    ///
    /// Returns [`NaktError::ValueOutOfRange`] when `v` is outside the range.
    pub fn ktid_of_value(&self, v: i64) -> Result<Ktid, NaktError> {
        Ok(Ktid::from_leaf_index(
            self.cell_of(v)?,
            self.depth,
            self.arity,
        ))
    }

    /// The value-space span of a subtree, clamped to the attribute range.
    pub fn value_span(&self, ktid: &Ktid) -> IntRange {
        let (lo_cell, hi_cell) = ktid.leaf_span(self.depth, self.arity);
        let lo = self.range.lo() + (lo_cell * self.lc) as i64;
        let hi = self.range.lo() + ((hi_cell + 1) * self.lc) as i64 - 1;
        // A subtree always spans at least one cell, so lo ≤ hi holds and the
        // clamp to the attribute range keeps it that way; fall back to the
        // full range rather than panicking if that invariant ever breaks.
        IntRange::new(lo, hi.min(self.range.hi())).unwrap_or(self.range)
    }

    /// The canonical decomposition: the minimal set of aligned subtrees
    /// whose leaf cells exactly cover the subscription range (the paper's
    /// set `SS`, e.g. `(8, 19) → {(8, 15), (16, 19)}` for lc = 1).
    ///
    /// The query is first clamped to the attribute range and snapped
    /// outward to cell boundaries (a subscription cannot be finer than the
    /// least count).
    ///
    /// # Errors
    ///
    /// Returns [`NaktError::RangeOutOfRange`] when the query is disjoint
    /// from the attribute range.
    pub fn canonical_cover(&self, query: &IntRange) -> Result<Vec<Ktid>, NaktError> {
        let mut out = Vec::new();
        self.cover_walk(query, (), &mut |_, _| (), &mut |ktid, ()| out.push(ktid))?;
        Ok(out)
    }

    /// The one descent behind [`Nakt::canonical_cover`] and KDC grants: it
    /// carries `root`'s value down, runs `child` only for a child meeting
    /// the query, and `emit`s each cover element, left to right.
    pub(crate) fn cover_walk<T>(
        &self,
        query: &IntRange,
        root: T,
        child: &mut dyn FnMut(&T, u8) -> T,
        emit: &mut dyn FnMut(Ktid, T),
    ) -> Result<(), NaktError> {
        let clamped = query
            .clamp_to(&self.range)
            .ok_or(NaktError::RangeOutOfRange {
                query: *query,
                range: self.range,
            })?;
        let mut walk = CoverWalk {
            lo: ((clamped.lo() - self.range.lo()) as u64) / self.lc,
            hi: ((clamped.hi() - self.range.lo()) as u64) / self.lc,
            arity: self.arity,
            digits: Vec::with_capacity(self.depth),
            child,
            emit,
        };
        walk.descend(0, self.cells, root);
        Ok(())
    }

    /// Paper bound: any subscription range needs at most
    /// `2(a−1)·log_a(|R|/lc) − 2` authorization keys (= `2·log2 − 2` for the
    /// optimal binary tree). Trees of depth ≤ 1 degenerate to one key.
    pub fn max_auth_keys(&self) -> u64 {
        let m = self.depth as u64;
        if m <= 1 {
            return 1;
        }
        2 * (self.arity as u64 - 1) * m - 2
    }
}

/// One [`Nakt::cover_walk`]: the query's cells and the node's digit path.
struct CoverWalk<'a, T> {
    lo: u64,
    hi: u64,
    arity: u8,
    digits: Vec<u8>,
    child: &'a mut dyn FnMut(&T, u8) -> T,
    emit: &'a mut dyn FnMut(Ktid, T),
}

impl<T> CoverWalk<'_, T> {
    /// Visits cells `[node_lo, node_lo + width)`, which meet the query;
    /// emits them whole if the query covers them.
    fn descend(&mut self, node_lo: u64, width: u64, value: T) {
        if self.lo <= node_lo && node_lo + width - 1 <= self.hi {
            (self.emit)(Ktid::from_digits(self.digits.iter().copied()), value);
            return;
        }
        let width = width / self.arity as u64;
        for d in 0..self.arity {
            let child_lo = node_lo + d as u64 * width;
            if child_lo + width - 1 < self.lo || child_lo > self.hi {
                continue; // disjoint
            }
            let child_value = (self.child)(&value, d);
            self.digits.push(d);
            self.descend(child_lo, width, child_value);
            self.digits.pop();
        }
    }
}

/// Key material over a NAKT: the root key plus on-demand derivation.
///
/// The root is `K_Ø^num = KH_{K(w)}(num)` where `K(w)` is the topic key.
///
/// # Example
///
/// ```
/// use psguard_crypto::DeriveKey;
/// use psguard_keys::{Ktid, Nakt, NaktKeySpace, OpCounter};
/// use psguard_model::IntRange;
///
/// let nakt = Nakt::binary(IntRange::new(0, 31).unwrap(), 4).unwrap();
/// let topic_key = DeriveKey::from_bytes(b"K(cancerTrail)");
/// let space = NaktKeySpace::new(nakt, &topic_key, b"age");
///
/// let mut ops = OpCounter::new();
/// let auth = space.key_for(&Ktid::from_digits([1]), &mut ops);
/// let event = space.key_for(&Ktid::from_digits([1, 0, 1]), &mut ops);
/// // A subscriber holding `auth` derives `event` by hashing down "01".
/// let derived = NaktKeySpace::derive_descendant(
///     &auth,
///     &Ktid::from_digits([1]),
///     &Ktid::from_digits([1, 0, 1]),
///     &mut ops,
/// )
/// .unwrap();
/// assert_eq!(derived, event);
/// ```
#[derive(Clone)]
pub struct NaktKeySpace {
    nakt: Nakt,
    root: DeriveKey,
}

// Redacting Debug: the root key derives the whole subtree of element keys;
// print the tree geometry and the root's fingerprint only.
impl std::fmt::Debug for NaktKeySpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NaktKeySpace")
            .field("nakt", &self.nakt)
            .field("root", &self.root)
            .finish()
    }
}

impl NaktKeySpace {
    /// Creates the key space for attribute `attr_name`, rooted at
    /// `KH_{topic_key}(attr_name)`.
    pub fn new(nakt: Nakt, topic_key: &DeriveKey, attr_name: &[u8]) -> Self {
        NaktKeySpace {
            nakt,
            root: topic_key.kh(attr_name),
        }
    }

    /// The tree geometry.
    pub fn nakt(&self) -> &Nakt {
        &self.nakt
    }

    /// The root key `K_Ø^num`. Held only by the KDC.
    pub fn root_key(&self) -> &DeriveKey {
        &self.root
    }

    /// Derives the key for any tree element by hashing down from the root.
    /// Costs `ktid.depth()` hash operations.
    pub fn key_for(&self, ktid: &Ktid, ops: &mut OpCounter) -> DeriveKey {
        Self::walk(&self.root, ktid.digits(), ops)
    }

    /// Hashes `key` down a digit path: one `H` per digit.
    pub fn walk(key: &DeriveKey, digits: &[u8], ops: &mut OpCounter) -> DeriveKey {
        ops.add_hash(digits.len() as u64);
        digits.iter().fold(key.clone(), |k, &d| k.child_n(d as u32))
    }

    /// Subscriber-side derivation: computes the key for `target` from the
    /// key for `holder` when `holder` is a prefix of `target`; returns
    /// `None` otherwise (the subscriber is not authorized).
    pub fn derive_descendant(
        holder_key: &DeriveKey,
        holder: &Ktid,
        target: &Ktid,
        ops: &mut OpCounter,
    ) -> Option<DeriveKey> {
        let suffix = holder.suffix_of(target)?;
        Some(Self::walk(holder_key, suffix, ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1() -> Nakt {
        Nakt::binary(IntRange::new(0, 31).unwrap(), 4).unwrap()
    }

    #[test]
    fn figure1_geometry() {
        let n = figure1();
        assert_eq!(n.depth(), 3);
        assert_eq!(n.cells, 8);
        assert_eq!(n.value_span(&Ktid::root()), IntRange::new(0, 31).unwrap());
        assert_eq!(
            n.value_span(&Ktid::from_digits([1])),
            IntRange::new(16, 31).unwrap()
        );
        assert_eq!(
            n.value_span(&Ktid::from_digits([1, 0, 1])),
            IntRange::new(20, 23).unwrap()
        );
    }

    #[test]
    fn paper_cover_example_8_19() {
        // lc = 1 over (0, 31): SS(8, 19) = {(8, 15), (16, 19)}.
        let n = Nakt::binary(IntRange::new(0, 31).unwrap(), 1).unwrap();
        let cover = n.canonical_cover(&IntRange::new(8, 19).unwrap()).unwrap();
        let spans: Vec<IntRange> = cover.iter().map(|k| n.value_span(k)).collect();
        assert_eq!(
            spans,
            vec![
                IntRange::new(8, 15).unwrap(),
                IntRange::new(16, 19).unwrap()
            ]
        );
    }

    #[test]
    fn cover_is_disjoint_exact_and_within_bound() {
        let n = Nakt::binary(IntRange::new(0, 255).unwrap(), 1).unwrap();
        for (lo, hi) in [(0, 255), (1, 254), (7, 9), (100, 100), (0, 127), (128, 130)] {
            let q = IntRange::new(lo, hi).unwrap();
            let cover = n.canonical_cover(&q).unwrap();
            assert!(cover.len() as u64 <= n.max_auth_keys().max(1), "{q}");
            // Exactly the queried cells, each exactly once.
            let mut cells = vec![false; 256];
            for k in &cover {
                let (a, b) = k.leaf_span(n.depth(), 2);
                for c in a..=b {
                    assert!(!cells[c as usize], "overlap at {c} for {q}");
                    cells[c as usize] = true;
                }
            }
            for v in 0..256i64 {
                assert_eq!(cells[v as usize], q.contains(v), "v={v} q={q}");
            }
        }
    }

    #[test]
    fn cover_clamps_to_range() {
        let n = Nakt::binary(IntRange::new(0, 31).unwrap(), 1).unwrap();
        let cover = n
            .canonical_cover(&IntRange::new(-10, 100).unwrap())
            .unwrap();
        assert_eq!(cover, vec![Ktid::root()]);
        assert!(matches!(
            n.canonical_cover(&IntRange::new(40, 50).unwrap()),
            Err(NaktError::RangeOutOfRange { .. })
        ));
    }

    #[test]
    fn least_count_snaps_outward() {
        // lc = 4: subscribing to (17, 18) grants the whole cell (16, 19).
        let n = figure1();
        let cover = n.canonical_cover(&IntRange::new(17, 18).unwrap()).unwrap();
        assert_eq!(cover.len(), 1);
        assert_eq!(n.value_span(&cover[0]), IntRange::new(16, 19).unwrap());
    }

    #[test]
    fn non_power_of_two_range_pads() {
        let n = Nakt::binary(IntRange::new(0, 99).unwrap(), 1).unwrap();
        assert_eq!(n.cells, 128);
        assert_eq!(n.depth(), 7);
        // Values beyond 99 are unreachable: ktid_of_value rejects them.
        assert!(n.ktid_of_value(99).is_ok());
        assert!(n.ktid_of_value(100).is_err());
    }

    #[test]
    fn construction_errors() {
        let r = IntRange::new(0, 10).unwrap();
        assert_eq!(Nakt::binary(r, 0), Err(NaktError::ZeroLeastCount));
        assert_eq!(
            Nakt::with_arity(r, 1, 1),
            Err(NaktError::BadArity { arity: 1 })
        );
    }

    #[test]
    fn key_derivation_matches_kdc_walk() {
        let n = figure1();
        let topic = DeriveKey::from_bytes(b"K(w)");
        let space = NaktKeySpace::new(n, &topic, b"age");
        let mut ops = OpCounter::new();
        let auth = space.key_for(&Ktid::from_digits([1]), &mut ops);
        assert_eq!(ops.hash_ops, 1);
        let event = space.key_for(&Ktid::from_digits([1, 0, 1]), &mut ops);
        let derived = NaktKeySpace::derive_descendant(
            &auth,
            &Ktid::from_digits([1]),
            &Ktid::from_digits([1, 0, 1]),
            &mut ops,
        )
        .unwrap();
        assert_eq!(derived, event);
    }

    #[test]
    fn derivation_refused_for_non_prefix() {
        let topic = DeriveKey::from_bytes(b"K(w)");
        let space = NaktKeySpace::new(figure1(), &topic, b"age");
        let mut ops = OpCounter::new();
        let auth = space.key_for(&Ktid::from_digits([0]), &mut ops);
        // Sibling subtree: not derivable.
        assert!(NaktKeySpace::derive_descendant(
            &auth,
            &Ktid::from_digits([0]),
            &Ktid::from_digits([1, 0, 1]),
            &mut ops,
        )
        .is_none());
        // Ancestor: not derivable either.
        assert!(NaktKeySpace::derive_descendant(
            &auth,
            &Ktid::from_digits([0]),
            &Ktid::root(),
            &mut ops,
        )
        .is_none());
    }

    #[test]
    fn sibling_keys_differ() {
        let topic = DeriveKey::from_bytes(b"K(w)");
        let space = NaktKeySpace::new(figure1(), &topic, b"age");
        let mut ops = OpCounter::new();
        let a = space.key_for(&Ktid::from_digits([0]), &mut ops);
        let b = space.key_for(&Ktid::from_digits([1]), &mut ops);
        assert_ne!(a, b);
    }

    #[test]
    fn distinct_attributes_distinct_roots() {
        let topic = DeriveKey::from_bytes(b"K(w)");
        let a = NaktKeySpace::new(figure1(), &topic, b"age");
        let b = NaktKeySpace::new(figure1(), &topic, b"price");
        assert_ne!(a.root_key(), b.root_key());
    }

    #[test]
    fn max_keys_bound_formula() {
        let n = Nakt::binary(IntRange::new(0, 1023).unwrap(), 1).unwrap();
        assert_eq!(n.max_auth_keys(), 2 * 10 - 2);
        let n4 = Nakt::with_arity(IntRange::new(0, 1023).unwrap(), 1, 4).unwrap();
        assert_eq!(n4.max_auth_keys(), 2 * 3 * 5 - 2);
    }
}
