//! The multi-path event-dissemination network `G_ind` (§4.2.1).
//!
//! Starting from an a-ary dissemination tree (publisher at the root,
//! subscribers at the leaves), every node `n` gains edges to `ind − 1`
//! distinct siblings of `parent(n)`. Theorem 4.2 then gives `ind ≤ a`
//! vertex-disjoint publisher→subscriber paths: variant `k` of the path
//! through `(c₁, …, c_d)` replaces each level-`i` node with its sibling
//! `(c₁, …, c_{i−1}, (c_i + k) mod a)`.

/// A node in the dissemination tree, identified by its level and its digit
/// path from the root. The root (publisher) is `(0, [])`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TreeNode {
    digits: Vec<u8>,
}

impl TreeNode {
    /// The root (publisher).
    pub fn root() -> Self {
        TreeNode { digits: Vec::new() }
    }

    /// Builds a node from its digit path.
    pub fn from_digits(digits: impl IntoIterator<Item = u8>) -> Self {
        TreeNode {
            digits: digits.into_iter().collect(),
        }
    }

    /// Level below the root.
    pub fn level(&self) -> usize {
        self.digits.len()
    }

    /// Digit path.
    pub fn digits(&self) -> &[u8] {
        &self.digits
    }

    /// A compact index unique within a tree of the given arity: level-order
    /// position.
    pub fn index(&self, arity: u8) -> u64 {
        // Offset of this level plus position within the level.
        let a = arity as u64;
        let level_offset: u64 = (0..self.level() as u32).map(|l| a.pow(l)).sum();
        let within = self.digits.iter().fold(0u64, |acc, &d| acc * a + d as u64);
        level_offset + within
    }
}

/// The multi-path dissemination network over a complete a-ary tree of the
/// given routing depth.
///
/// # Example
///
/// ```
/// use psguard_routing::MultipathTree;
///
/// // Figure 2: a binary tree with ind = 2.
/// let tree = MultipathTree::new(2, 3).unwrap();
/// let leaf = [1u8, 0, 1];
/// let q1 = tree.variant_path(&leaf, 0).unwrap();
/// let q2 = tree.variant_path(&leaf, 1).unwrap();
/// // Theorem 4.2: the interior nodes are disjoint.
/// assert!(q1.iter().skip(1).all(|n| !q2.contains(n)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultipathTree {
    arity: u8,
    depth: usize,
}

/// Errors from multipath construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultipathError {
    /// Arity must be ≥ 2.
    BadArity(u8),
    /// Depth must be ≥ 1.
    BadDepth(usize),
    /// Requested more independent paths than the arity supports
    /// (Claim 4.3 requires `ind ≤ a`).
    TooManyPaths {
        /// Requested path count.
        requested: u8,
        /// Tree arity.
        arity: u8,
    },
    /// A leaf digit exceeded the arity or had the wrong length.
    BadLeaf,
}

impl std::fmt::Display for MultipathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultipathError::BadArity(a) => write!(f, "arity must be ≥ 2, got {a}"),
            MultipathError::BadDepth(d) => write!(f, "depth must be ≥ 1, got {d}"),
            MultipathError::TooManyPaths { requested, arity } => write!(
                f,
                "{requested} independent paths requested but arity {arity} supports at most {arity}"
            ),
            MultipathError::BadLeaf => write!(f, "invalid leaf digit path"),
        }
    }
}

impl std::error::Error for MultipathError {}

impl MultipathTree {
    /// Creates a tree with `arity ≥ 2` and routing `depth ≥ 1` (levels of
    /// routing nodes between publisher and subscribers).
    ///
    /// # Errors
    ///
    /// Returns [`MultipathError::BadArity`] / [`MultipathError::BadDepth`].
    pub fn new(arity: u8, depth: usize) -> Result<Self, MultipathError> {
        if arity < 2 {
            return Err(MultipathError::BadArity(arity));
        }
        if depth == 0 {
            return Err(MultipathError::BadDepth(depth));
        }
        Ok(MultipathTree { arity, depth })
    }

    /// Tree arity `a` (also the maximum supported `ind`).
    pub fn arity(&self) -> u8 {
        self.arity
    }

    /// Routing depth `d`.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of routing nodes (levels 1..=d).
    pub fn routing_node_count(&self) -> u64 {
        let a = self.arity as u64;
        (1..=self.depth as u32).map(|l| a.pow(l)).sum()
    }

    /// Number of leaf positions (subscriber slots) = `a^d`.
    pub fn leaf_count(&self) -> u64 {
        (self.arity as u64).pow(self.depth as u32)
    }

    /// The digit path of leaf number `i` (0-based, left to right).
    ///
    /// # Panics
    ///
    /// Panics when `i ≥ leaf_count()`.
    pub fn leaf_digits(&self, i: u64) -> Vec<u8> {
        assert!(i < self.leaf_count(), "leaf {i} out of range");
        let a = self.arity as u64;
        let mut digits = vec![0u8; self.depth];
        let mut rem = i;
        for d in digits.iter_mut().rev() {
            *d = (rem % a) as u8;
            rem /= a;
        }
        digits
    }

    /// Variant `k` of the path to the subscriber at `leaf` (Theorem 4.2):
    /// `⟨P, σ_k(n₁), …, σ_k(n_d)⟩` where `σ_k` replaces the node's last
    /// digit `c` with `(c + k) mod a`. Returns the node list including the
    /// root; the subscriber hangs off the final node.
    ///
    /// # Errors
    ///
    /// Returns [`MultipathError::TooManyPaths`] when `k ≥ arity` and
    /// [`MultipathError::BadLeaf`] for malformed digit paths.
    pub fn variant_path(&self, leaf: &[u8], k: u8) -> Result<Vec<TreeNode>, MultipathError> {
        if k >= self.arity {
            return Err(MultipathError::TooManyPaths {
                requested: k + 1,
                arity: self.arity,
            });
        }
        if leaf.len() != self.depth || leaf.iter().any(|&d| d >= self.arity) {
            return Err(MultipathError::BadLeaf);
        }
        let mut path = Vec::with_capacity(self.depth + 1);
        path.push(TreeNode::root());
        for i in 0..self.depth {
            let mut digits = leaf[..=i].to_vec();
            let c = digits[i];
            digits[i] = (c + k) % self.arity;
            path.push(TreeNode::from_digits(digits));
        }
        Ok(path)
    }

    /// Verifies that variants `0..ind` of the path to `leaf` are pairwise
    /// vertex-disjoint apart from the shared root — the property proved in
    /// Theorem 4.2.
    ///
    /// # Errors
    ///
    /// Propagates path-construction errors.
    pub fn verify_disjoint(&self, leaf: &[u8], ind: u8) -> Result<bool, MultipathError> {
        let mut seen = std::collections::HashSet::new();
        for k in 0..ind {
            for node in self.variant_path(leaf, k)?.into_iter().skip(1) {
                if !seen.insert(node) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// The per-token number of independent paths: `ind_t = τ·λ_t`, capped
    /// at `ind_max` and floored at 1, with `τ = 1/λ_min` so that the most
    /// constrained token still gets one path and apparent frequencies
    /// approach `λ_min` (§4.2).
    pub fn paths_per_token(frequencies: &[f64], ind_max: u8) -> Vec<u8> {
        let min = frequencies
            .iter()
            .copied()
            .filter(|&f| f > 0.0)
            .fold(f64::INFINITY, f64::min);
        frequencies
            .iter()
            .map(|&f| {
                if f <= 0.0 {
                    1
                } else {
                    ((f / min).round() as u64).clamp(1, ind_max as u64) as u8
                }
            })
            .collect()
    }

    /// Total path-provisioning cost for a token population: each token `t`
    /// needs `ind_t` path systems wired through the overlay; the cost of a
    /// token is the number of edges its paths use. Figure 8 plots this
    /// normalized to `ind_max = 1`.
    pub fn construction_cost(&self, frequencies: &[f64], ind_max: u8) -> f64 {
        let ind = Self::paths_per_token(frequencies, ind_max.min(self.arity));
        ind.iter()
            .map(|&i| (self.depth as f64 + 1.0) * i as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_binary_two_paths() {
        let tree = MultipathTree::new(2, 3).unwrap();
        for leaf_idx in 0..tree.leaf_count() {
            let leaf = tree.leaf_digits(leaf_idx);
            assert!(tree.verify_disjoint(&leaf, 2).unwrap(), "leaf {leaf:?}");
        }
    }

    #[test]
    fn theorem_holds_up_to_arity() {
        for arity in [2u8, 3, 5, 10] {
            let tree = MultipathTree::new(arity, 3).unwrap();
            let leaf = tree.leaf_digits(tree.leaf_count() - 1);
            assert!(tree.verify_disjoint(&leaf, arity).unwrap(), "arity {arity}");
        }
    }

    #[test]
    fn too_many_paths_rejected() {
        let tree = MultipathTree::new(2, 2).unwrap();
        assert!(matches!(
            tree.variant_path(&[0, 0], 2),
            Err(MultipathError::TooManyPaths { .. })
        ));
    }

    #[test]
    fn variant_path_structure() {
        let tree = MultipathTree::new(2, 3).unwrap();
        let q1 = tree.variant_path(&[1, 0, 1], 0).unwrap();
        assert_eq!(q1.len(), 4);
        assert_eq!(q1[0], TreeNode::root());
        assert_eq!(q1[3], TreeNode::from_digits([1, 0, 1]));
        let q2 = tree.variant_path(&[1, 0, 1], 1).unwrap();
        // σ₁ flips the last digit at each level, keeping the original prefix.
        assert_eq!(q2[1], TreeNode::from_digits([0]));
        assert_eq!(q2[2], TreeNode::from_digits([1, 1]));
        assert_eq!(q2[3], TreeNode::from_digits([1, 0, 0]));
    }

    #[test]
    fn counts() {
        let tree = MultipathTree::new(2, 3).unwrap();
        assert_eq!(tree.routing_node_count(), 2 + 4 + 8);
        assert_eq!(tree.leaf_count(), 8);
        let t10 = MultipathTree::new(10, 2).unwrap();
        assert_eq!(t10.routing_node_count(), 110);
    }

    #[test]
    fn leaf_digits_roundtrip() {
        let tree = MultipathTree::new(3, 4).unwrap();
        for i in 0..tree.leaf_count() {
            let d = tree.leaf_digits(i);
            let back = d.iter().fold(0u64, |acc, &x| acc * 3 + x as u64);
            assert_eq!(back, i);
        }
    }

    #[test]
    fn paths_per_token_proportional_and_capped() {
        let freqs = [8.0, 4.0, 2.0, 1.0];
        assert_eq!(MultipathTree::paths_per_token(&freqs, 10), vec![8, 4, 2, 1]);
        assert_eq!(MultipathTree::paths_per_token(&freqs, 3), vec![3, 3, 2, 1]);
        // Zero frequencies degrade to one path.
        assert_eq!(MultipathTree::paths_per_token(&[0.0, 1.0], 5), vec![1, 1]);
    }

    #[test]
    fn construction_cost_saturates_for_skewed_tokens() {
        let tree = MultipathTree::new(10, 3).unwrap();
        // Zipf-like frequencies over 128 tokens.
        let freqs: Vec<f64> = (1..=128).map(|r| 1.0 / r as f64).collect();
        let c: Vec<f64> = (1..=10)
            .map(|ind| tree.construction_cost(&freqs, ind as u8))
            .collect();
        // Monotone nondecreasing…
        for w in c.windows(2) {
            assert!(w[1] >= w[0]);
        }
        // …and saturating: the late increments are smaller than early ones.
        let early = c[1] - c[0];
        let late = c[9] - c[8];
        assert!(late < early, "early={early} late={late}");
    }

    #[test]
    fn node_index_is_unique() {
        let tree = MultipathTree::new(3, 3).unwrap();
        let mut seen = std::collections::HashSet::new();
        for l1 in 0..3u8 {
            assert!(seen.insert(TreeNode::from_digits([l1]).index(3)));
            for l2 in 0..3u8 {
                assert!(seen.insert(TreeNode::from_digits([l1, l2]).index(3)));
                for l3 in 0..3u8 {
                    assert!(seen.insert(TreeNode::from_digits([l1, l2, l3]).index(3)));
                }
            }
        }
        assert_eq!(seen.len() as u64, tree.routing_node_count());
    }
}
