//! Key spaces for the non-numeric matching families described in the
//! paper's companion technical report: category (ontology) trees and
//! string prefix/suffix chains.
//!
//! All three share the NAKT's derivation discipline: the key of a node is
//! `H(parent ‖ step)`, so descendants are easy to derive and everything
//! else is one-way-hard.

use psguard_crypto::DeriveKey;
use psguard_model::CategoryPath;

use crate::cost::OpCounter;

/// Key space mirroring a category/ontology tree.
///
/// The key for path `p ‖ i` is `H(K_p ‖ i)`; a subscriber authorized for a
/// subtree holds the subtree root's key and can derive the key of any
/// descendant category, hence decrypt any event published at or below its
/// node.
///
/// # Example
///
/// ```
/// use psguard_crypto::DeriveKey;
/// use psguard_keys::{CategoryKeySpace, OpCounter};
/// use psguard_model::CategoryPath;
///
/// let topic_key = DeriveKey::from_bytes(b"K(w)");
/// let space = CategoryKeySpace::new(&topic_key, b"diagnosis");
/// let mut ops = OpCounter::new();
/// let oncology = CategoryPath::from_indices([0]);
/// let lung = CategoryPath::from_indices([0, 2]);
/// let auth = space.key_for(&oncology, &mut ops);
/// let event = space.key_for(&lung, &mut ops);
/// assert_eq!(
///     CategoryKeySpace::derive_descendant(&auth, &oncology, &lung, &mut ops),
///     Some(event)
/// );
/// ```
#[derive(Clone)]
pub struct CategoryKeySpace {
    root: DeriveKey,
}

// Redacting Debug: the root key derives every category key in the space.
// `DeriveKey`'s own Debug already prints only a fingerprint; delegate to it.
impl std::fmt::Debug for CategoryKeySpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CategoryKeySpace")
            .field("root", &self.root)
            .finish()
    }
}

impl CategoryKeySpace {
    /// Roots the space at `KH_{topic_key}(attr_name)`.
    pub fn new(topic_key: &DeriveKey, attr_name: &[u8]) -> Self {
        CategoryKeySpace {
            root: topic_key.kh(attr_name),
        }
    }

    /// The root key (KDC only).
    pub fn root_key(&self) -> &DeriveKey {
        &self.root
    }

    /// KDC-side: derive the key for any category node.
    pub fn key_for(&self, path: &CategoryPath, ops: &mut OpCounter) -> DeriveKey {
        ops.add_hash(path.depth() as u64);
        path.indices()
            .iter()
            .fold(self.root.clone(), |k, &i| k.child_n(i))
    }

    /// Subscriber-side: derive a descendant's key, or `None` when `holder`
    /// is not an ancestor-or-self of `target`.
    pub fn derive_descendant(
        holder_key: &DeriveKey,
        holder: &CategoryPath,
        target: &CategoryPath,
        ops: &mut OpCounter,
    ) -> Option<DeriveKey> {
        let suffix = holder.suffix_of(target)?;
        ops.add_hash(suffix.len() as u64);
        Some(suffix.iter().fold(holder_key.clone(), |k, &i| k.child_n(i)))
    }
}

/// Direction of a string key chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainDirection {
    /// Chain over the string's bytes front-to-back (prefix matching).
    Prefix,
    /// Chain over the string's bytes back-to-front (suffix matching).
    Suffix,
}

/// Key space for string prefix/suffix matching.
///
/// The key for string `s ‖ c` is `H(K_s ‖ c)` (bytes reversed for suffix
/// chains). A subscriber authorized for prefix `p` derives the key of any
/// string extending `p`.
///
/// # Example
///
/// ```
/// use psguard_crypto::DeriveKey;
/// use psguard_keys::{ChainDirection, OpCounter, StringKeySpace};
///
/// let topic_key = DeriveKey::from_bytes(b"K(w)");
/// let space = StringKeySpace::new(&topic_key, b"symbol", ChainDirection::Prefix);
/// let mut ops = OpCounter::new();
/// let auth = space.key_for("GOO", &mut ops);
/// let event = space.key_for("GOOG", &mut ops);
/// let prefix = ChainDirection::Prefix;
/// let mut derive = |target| StringKeySpace::derive_extension(prefix, &auth, "GOO", target, &mut ops);
/// assert_eq!(derive("GOOG"), Some(event));
/// assert_eq!(derive("MSFT"), None);
/// ```
#[derive(Clone)]
pub struct StringKeySpace {
    root: DeriveKey,
    direction: ChainDirection,
}

// Redacting Debug: chain keys for every authorized string extend from the
// root; only the fingerprint and direction are printed.
impl std::fmt::Debug for StringKeySpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StringKeySpace")
            .field("root", &self.root)
            .field("direction", &self.direction)
            .finish()
    }
}

impl StringKeySpace {
    /// Roots the space at `KH_{topic_key}(attr_name ‖ direction)`.
    pub fn new(topic_key: &DeriveKey, attr_name: &[u8], direction: ChainDirection) -> Self {
        let mut label = attr_name.to_vec();
        label.push(match direction {
            ChainDirection::Prefix => b'>',
            ChainDirection::Suffix => b'<',
        });
        StringKeySpace {
            root: topic_key.kh(&label),
            direction,
        }
    }

    /// Chain direction.
    pub fn direction(&self) -> ChainDirection {
        self.direction
    }

    /// The root key (KDC only).
    pub fn root_key(&self) -> &DeriveKey {
        &self.root
    }

    fn oriented(&self, s: &str) -> Vec<u8> {
        match self.direction {
            ChainDirection::Prefix => s.bytes().collect(),
            ChainDirection::Suffix => s.bytes().rev().collect(),
        }
    }

    /// KDC-side: derive the key for a whole string (event side) or a
    /// prefix/suffix (authorization side).
    pub fn key_for(&self, s: &str, ops: &mut OpCounter) -> DeriveKey {
        let bytes = self.oriented(s);
        ops.add_hash(bytes.len() as u64);
        bytes
            .iter()
            .fold(self.root.clone(), |k, &b| k.child_n(b as u32))
    }

    /// Subscriber-side: derive the key of `target` from the key of
    /// `holder`, where `holder` must be a prefix (or suffix, per the chain
    /// `direction`) of `target`.
    pub fn derive_extension(
        direction: ChainDirection,
        holder_key: &DeriveKey,
        holder: &str,
        target: &str,
        ops: &mut OpCounter,
    ) -> Option<DeriveKey> {
        let matches = match direction {
            ChainDirection::Prefix => target.starts_with(holder),
            ChainDirection::Suffix => target.ends_with(holder),
        };
        if !matches {
            return None;
        }
        let suffix: Vec<u8> = match direction {
            ChainDirection::Prefix => target.bytes().skip(holder.len()).collect(),
            ChainDirection::Suffix => target.bytes().rev().skip(holder.len()).collect(),
        };
        ops.add_hash(suffix.len() as u64);
        Some(
            suffix
                .iter()
                .fold(holder_key.clone(), |k, &b| k.child_n(b as u32)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic() -> DeriveKey {
        DeriveKey::from_bytes(b"K(w)")
    }

    #[test]
    fn category_root_grants_everything() {
        let space = CategoryKeySpace::new(&topic(), b"diag");
        let mut ops = OpCounter::new();
        let root_auth = space.key_for(&CategoryPath::root(), &mut ops);
        assert_eq!(&root_auth, space.root_key());
        let deep = CategoryPath::from_indices([1, 3, 0]);
        let event = space.key_for(&deep, &mut ops);
        assert_eq!(
            CategoryKeySpace::derive_descendant(&root_auth, &CategoryPath::root(), &deep, &mut ops),
            Some(event)
        );
    }

    #[test]
    fn category_sibling_refused() {
        let space = CategoryKeySpace::new(&topic(), b"diag");
        let mut ops = OpCounter::new();
        let a = CategoryPath::from_indices([0]);
        let b = CategoryPath::from_indices([1, 2]);
        let auth = space.key_for(&a, &mut ops);
        assert_eq!(
            CategoryKeySpace::derive_descendant(&auth, &a, &b, &mut ops),
            None
        );
    }

    #[test]
    fn category_ops_counted() {
        let space = CategoryKeySpace::new(&topic(), b"diag");
        let mut ops = OpCounter::new();
        space.key_for(&CategoryPath::from_indices([1, 2, 3]), &mut ops);
        assert_eq!(ops.hash_ops, 3);
    }

    #[test]
    fn prefix_chain_derives_extension_only() {
        let space = StringKeySpace::new(&topic(), b"sym", ChainDirection::Prefix);
        let mut ops = OpCounter::new();
        let auth = space.key_for("GO", &mut ops);
        let goog = space.key_for("GOOG", &mut ops);
        assert_eq!(
            StringKeySpace::derive_extension(space.direction(), &auth, "GO", "GOOG", &mut ops),
            Some(goog)
        );
        assert_eq!(
            StringKeySpace::derive_extension(space.direction(), &auth, "GO", "AAPL", &mut ops),
            None
        );
        // Shorter than the held prefix: refused.
        assert_eq!(
            StringKeySpace::derive_extension(space.direction(), &auth, "GO", "G", &mut ops),
            None
        );
    }

    #[test]
    fn suffix_chain_matches_reversed() {
        let space = StringKeySpace::new(&topic(), b"file", ChainDirection::Suffix);
        let mut ops = OpCounter::new();
        let auth = space.key_for(".log", &mut ops);
        let event = space.key_for("system.log", &mut ops);
        assert_eq!(
            StringKeySpace::derive_extension(
                space.direction(),
                &auth,
                ".log",
                "system.log",
                &mut ops
            ),
            Some(event)
        );
        assert_eq!(
            StringKeySpace::derive_extension(
                space.direction(),
                &auth,
                ".log",
                "system.txt",
                &mut ops
            ),
            None
        );
    }

    #[test]
    fn prefix_and_suffix_spaces_are_independent() {
        let p = StringKeySpace::new(&topic(), b"s", ChainDirection::Prefix);
        let s = StringKeySpace::new(&topic(), b"s", ChainDirection::Suffix);
        let mut ops = OpCounter::new();
        // "aba" is a palindrome, but the two spaces still give distinct keys.
        assert_ne!(p.key_for("aba", &mut ops), s.key_for("aba", &mut ops));
    }

    #[test]
    fn empty_string_key_is_root() {
        let p = StringKeySpace::new(&topic(), b"s", ChainDirection::Prefix);
        let mut ops = OpCounter::new();
        assert_eq!(&p.key_for("", &mut ops), p.root_key());
        assert_eq!(ops.hash_ops, 0);
    }
}
