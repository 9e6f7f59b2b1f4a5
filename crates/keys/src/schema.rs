//! Attribute schemas: what the KDC must know about each routable attribute
//! in order to build key hierarchies for it.

use std::collections::BTreeMap;

use psguard_model::IntRange;

use crate::nakt::{Nakt, NaktError};

/// The key-hierarchy family of one attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrSpec {
    /// Numeric attribute backed by a NAKT.
    Numeric {
        /// The tree geometry (range, least count, arity).
        nakt: Nakt,
    },
    /// Category/ontology attribute; keys mirror the category tree.
    Category {
        /// Maximum tree depth accepted in subscriptions/events.
        max_depth: usize,
    },
    /// String attribute matched by prefix; keys form per-byte chains.
    StrPrefix {
        /// Maximum string length accepted.
        max_len: usize,
    },
    /// String attribute matched by suffix (chains over reversed bytes).
    StrSuffix {
        /// Maximum string length accepted.
        max_len: usize,
    },
}

/// Schema for one topic: which routable attributes exist and how each is
/// keyed. Attributes not in the schema are routable but not usable for
/// confidentiality (no key hierarchy).
///
/// # Example
///
/// ```
/// use psguard_keys::{Schema, AttrSpec};
/// use psguard_model::IntRange;
///
/// let schema = Schema::builder()
///     .numeric("age", IntRange::new(0, 255).unwrap(), 4)
///     .unwrap()
///     .category("diagnosis", 4)
///     .str_prefix("symbol", 8)
///     .build();
/// assert!(schema.get("age").is_some());
/// assert!(schema.get("weight").is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    attrs: BTreeMap<String, AttrSpec>,
}

impl Schema {
    /// An empty schema (plain-topic publications only).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder {
            attrs: BTreeMap::new(),
        }
    }

    /// Looks up the spec of an attribute.
    pub fn get(&self, name: &str) -> Option<&AttrSpec> {
        self.attrs.get(name)
    }

    /// Iterates over all (name, spec) pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &AttrSpec)> {
        self.attrs.iter()
    }

    /// Number of keyed attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the schema has no keyed attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }
}

/// Builder for [`Schema`].
#[derive(Debug, Clone)]
pub struct SchemaBuilder {
    attrs: BTreeMap<String, AttrSpec>,
}

impl SchemaBuilder {
    /// Adds a numeric attribute with a binary NAKT.
    ///
    /// # Errors
    ///
    /// Propagates [`NaktError`] for invalid geometry.
    pub fn numeric(
        self,
        name: impl Into<String>,
        range: IntRange,
        lc: u64,
    ) -> Result<Self, NaktError> {
        Ok(self.numeric_tree(name, Nakt::binary(range, lc)?))
    }

    /// Adds a numeric attribute keyed by a NAKT of any arity.
    pub fn numeric_tree(mut self, name: impl Into<String>, nakt: Nakt) -> Self {
        self.attrs.insert(name.into(), AttrSpec::Numeric { nakt });
        self
    }

    /// Adds a category attribute.
    pub fn category(mut self, name: impl Into<String>, max_depth: usize) -> Self {
        self.attrs
            .insert(name.into(), AttrSpec::Category { max_depth });
        self
    }

    /// Adds a prefix-matched string attribute.
    pub fn str_prefix(mut self, name: impl Into<String>, max_len: usize) -> Self {
        self.attrs
            .insert(name.into(), AttrSpec::StrPrefix { max_len });
        self
    }

    /// Adds a suffix-matched string attribute.
    // DEAD-PUB-OK: the one way to declare §4's suffix-matched strings
    pub fn str_suffix(mut self, name: impl Into<String>, max_len: usize) -> Self {
        self.attrs
            .insert(name.into(), AttrSpec::StrSuffix { max_len });
        self
    }

    /// Finalizes the schema.
    pub fn build(self) -> Schema {
        Schema { attrs: self.attrs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_all_families() {
        let s = Schema::builder()
            .numeric("age", IntRange::new(0, 255).unwrap(), 4)
            .unwrap()
            .category("diag", 4)
            .str_prefix("sym", 8)
            .str_suffix("file", 16)
            .build();
        assert_eq!(s.len(), 4);
        assert!(matches!(s.get("age"), Some(AttrSpec::Numeric { .. })));
        assert!(matches!(
            s.get("diag"),
            Some(AttrSpec::Category { max_depth: 4 })
        ));
        assert!(matches!(
            s.get("sym"),
            Some(AttrSpec::StrPrefix { max_len: 8 })
        ));
        assert!(matches!(s.get("file"), Some(AttrSpec::StrSuffix { .. })));
    }

    #[test]
    fn empty_schema() {
        let s = Schema::new();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn numeric_propagates_geometry_errors() {
        assert!(Schema::builder()
            .numeric("x", IntRange::new(0, 10).unwrap(), 0)
            .is_err());
    }

    #[test]
    fn redefining_attribute_overwrites() {
        let s = Schema::builder().category("a", 2).category("a", 5).build();
        assert!(matches!(
            s.get("a"),
            Some(AttrSpec::Category { max_depth: 5 })
        ));
        assert_eq!(s.len(), 1);
    }
}
