//! Attribute names and values.

use crate::category::CategoryPath;

/// An interned-ish attribute name (a thin wrapper over `String` so the type
/// system distinguishes names from string *values*).
///
/// # Example
///
/// ```
/// use psguard_model::AttrName;
/// let n: AttrName = "age".into();
/// assert_eq!(n.as_str(), "age");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrName(String);

impl AttrName {
    /// Creates a name from anything string-like.
    pub fn new(name: impl Into<String>) -> Self {
        AttrName(name.into())
    }

    /// The name as a `&str`.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for AttrName {
    fn from(s: &str) -> Self {
        AttrName(s.to_owned())
    }
}

impl From<String> for AttrName {
    fn from(s: String) -> Self {
        AttrName(s)
    }
}

impl AsRef<str> for AttrName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Lets maps keyed by [`AttrName`] be probed with a plain `&str` (no
/// allocation per lookup); sound because the derived `Eq`/`Ord`/`Hash`
/// are those of the one `String` field.
impl std::borrow::Borrow<str> for AttrName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for AttrName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A routable attribute value carried by an event.
///
/// The paper's evaluation (§5.2) exercises four families: plain topics,
/// numeric attributes, category (ontology) attributes and string attributes.
/// Topics are modeled at the [`crate::Event`] level; the other three are
/// value variants here.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttrValue {
    /// A numeric value, e.g. `⟨age, 25⟩`.
    Int(i64),
    /// A string value, e.g. `⟨symbol, "GOOG"⟩`.
    Str(String),
    /// A position in a category/ontology tree, e.g.
    /// `⟨diagnosis, oncology/lung/stage2⟩`.
    Category(CategoryPath),
}

impl AttrValue {
    /// Returns the numeric value if this is an [`AttrValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the string value if this is an [`AttrValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the category path if this is an [`AttrValue::Category`].
    pub fn as_category(&self) -> Option<&CategoryPath> {
        match self {
            AttrValue::Category(c) => Some(c),
            _ => None,
        }
    }

    /// A short name for the value family, used in diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            AttrValue::Int(_) => "int",
            AttrValue::Str(_) => "str",
            AttrValue::Category(_) => "category",
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl From<CategoryPath> for AttrValue {
    fn from(v: CategoryPath) -> Self {
        AttrValue::Category(v)
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "{s:?}"),
            AttrValue::Category(c) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(AttrValue::Int(5).as_int(), Some(5));
        assert_eq!(AttrValue::Int(5).as_str(), None);
        assert_eq!(AttrValue::from("x").as_str(), Some("x"));
        let c = CategoryPath::from_indices([1, 2]);
        assert_eq!(AttrValue::from(c.clone()).as_category(), Some(&c));
    }

    #[test]
    fn kinds() {
        assert_eq!(AttrValue::Int(0).kind(), "int");
        assert_eq!(AttrValue::from("a").kind(), "str");
        assert_eq!(AttrValue::from(CategoryPath::root()).kind(), "category");
    }

    #[test]
    fn display_formats() {
        assert_eq!(AttrValue::Int(42).to_string(), "42");
        assert_eq!(AttrValue::from("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn name_conversions() {
        let a: AttrName = "age".into();
        let b = AttrName::new(String::from("age"));
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "age");
    }
}
