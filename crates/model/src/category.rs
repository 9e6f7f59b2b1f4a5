//! Category (ontology) paths: positions in a rooted tree of categories.
//!
//! The paper's §5.2 evaluates "category attributes": trees of height 4 with
//! fan-out 2–4 per internal node. A subscription names a subtree (any node);
//! an event names a leaf (or deeper node); the subscription matches exactly
//! when its node is an ancestor-or-self of the event's node. The key
//! hierarchy in `psguard-keys` mirrors this structure, so a path here doubles
//! as a key-tree identifier.

/// A path from the root of a category tree, as child indices.
///
/// The empty path is the root (the whole ontology).
///
/// # Example
///
/// ```
/// use psguard_model::CategoryPath;
///
/// let oncology = CategoryPath::from_indices([0]);
/// let lung = oncology.child(2);
/// assert!(oncology.is_ancestor_or_self_of(&lung));
/// assert!(!lung.is_ancestor_or_self_of(&oncology));
/// assert_eq!(lung.depth(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CategoryPath(Vec<u32>);

impl CategoryPath {
    /// The root of the ontology (matches every event of the attribute).
    pub fn root() -> Self {
        CategoryPath(Vec::new())
    }

    /// Builds a path from child indices, root-first.
    pub fn from_indices(indices: impl IntoIterator<Item = u32>) -> Self {
        CategoryPath(indices.into_iter().collect())
    }

    /// Returns the path extended by one child step.
    pub fn child(&self, index: u32) -> Self {
        let mut v = self.0.clone();
        v.push(index);
        CategoryPath(v)
    }

    /// The parent path, or `None` at the root.
    pub fn parent(&self) -> Option<Self> {
        if self.0.is_empty() {
            None
        } else {
            Some(CategoryPath(self.0[..self.0.len() - 1].to_vec()))
        }
    }

    /// Number of edges from the root.
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// Child indices, root-first.
    pub fn indices(&self) -> &[u32] {
        &self.0
    }

    /// Whether `self` is an ancestor of `other` or equal to it — i.e.
    /// whether a subscription at `self` matches an event at `other`.
    pub fn is_ancestor_or_self_of(&self, other: &CategoryPath) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// The suffix of `descendant` below `self`, or `None` when `descendant`
    /// is not in this subtree. Used by key derivation to walk from an
    /// authorization key down to an event key.
    pub fn suffix_of<'a>(&self, descendant: &'a CategoryPath) -> Option<&'a [u32]> {
        if self.is_ancestor_or_self_of(descendant) {
            Some(&descendant.0[self.0.len()..])
        } else {
            None
        }
    }
}

impl std::fmt::Display for CategoryPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_empty() {
            return f.write_str("/");
        }
        for idx in &self.0 {
            write!(f, "/{idx}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_ancestor_of_everything() {
        let root = CategoryPath::root();
        let deep = CategoryPath::from_indices([3, 1, 4, 1]);
        assert!(root.is_ancestor_or_self_of(&deep));
        assert!(root.is_ancestor_or_self_of(&root));
        assert!(!deep.is_ancestor_or_self_of(&root));
    }

    #[test]
    fn siblings_are_not_ancestors() {
        let a = CategoryPath::from_indices([0, 1]);
        let b = CategoryPath::from_indices([0, 2]);
        assert!(!a.is_ancestor_or_self_of(&b));
        assert!(!b.is_ancestor_or_self_of(&a));
    }

    #[test]
    fn self_is_ancestor_or_self() {
        let a = CategoryPath::from_indices([2, 2]);
        assert!(a.is_ancestor_or_self_of(&a));
        assert_eq!(a.suffix_of(&a), Some(&[][..]));
    }

    #[test]
    fn suffix_walks_down() {
        let onc = CategoryPath::from_indices([0]);
        let lung2 = CategoryPath::from_indices([0, 2, 1]);
        assert_eq!(onc.suffix_of(&lung2), Some(&[2u32, 1][..]));
        assert_eq!(lung2.suffix_of(&onc), None);
    }

    #[test]
    fn parent_and_child_invert() {
        let p = CategoryPath::from_indices([1, 2, 3]);
        assert_eq!(p.parent().unwrap().child(3), p);
        assert_eq!(CategoryPath::root().parent(), None);
    }

    #[test]
    fn display_format() {
        assert_eq!(CategoryPath::root().to_string(), "/");
        assert_eq!(CategoryPath::from_indices([1, 0, 2]).to_string(), "/1/0/2");
    }

    #[test]
    fn depth_counts_edges() {
        assert_eq!(CategoryPath::root().depth(), 0);
        assert_eq!(CategoryPath::from_indices([9]).depth(), 1);
    }
}
