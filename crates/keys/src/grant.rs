//! Authorization grants and event-key agreement.
//!
//! The KDC turns a subscription filter into a [`Grant`]: a small set of
//! [`AuthKey`]s (hierarchy-node keys). A publisher derives the event
//! encryption key `K(e)` from the topic key; an authorized subscriber
//! derives the *same* key from its grant — without the KDC knowing the
//! event, and without the publisher knowing the subscribers. Both sides
//! meet at [`combine_master`].

use psguard_crypto::{AesKey, DeriveKey};
use psguard_model::{CategoryPath, Event};

use crate::cost::OpCounter;
use crate::epoch::EpochId;
use crate::ktid::Ktid;
use crate::nakt::NaktKeySpace;
use crate::schema::{AttrSpec, Schema};
use crate::spaces::{CategoryKeySpace, ChainDirection, StringKeySpace};

/// Identifies the key-tree element an [`AuthKey`] grants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyScope {
    /// The whole topic: the grant key is `K(w)` itself, from which every
    /// per-attribute hierarchy under the topic can be derived.
    Topic,
    /// A NAKT subtree of a numeric attribute.
    Numeric {
        /// Attribute name.
        attr: String,
        /// Subtree identifier.
        ktid: Ktid,
    },
    /// A category subtree.
    Category {
        /// Attribute name.
        attr: String,
        /// Subtree root path.
        path: CategoryPath,
    },
    /// A string-prefix chain node.
    StrPrefix {
        /// Attribute name.
        attr: String,
        /// Granted prefix.
        prefix: String,
    },
    /// A string-suffix chain node.
    StrSuffix {
        /// Attribute name.
        attr: String,
        /// Granted suffix.
        suffix: String,
    },
}

impl KeyScope {
    /// The attribute this scope concerns, or `None` for topic scope.
    pub fn attr(&self) -> Option<&str> {
        match self {
            KeyScope::Topic => None,
            KeyScope::Numeric { attr, .. }
            | KeyScope::Category { attr, .. }
            | KeyScope::StrPrefix { attr, .. }
            | KeyScope::StrSuffix { attr, .. } => Some(attr),
        }
    }
}

/// One authorization key: a hierarchy-node key plus its scope and epoch.
#[derive(Clone, PartialEq, Eq)]
pub struct AuthKey {
    /// What the key unlocks.
    pub scope: KeyScope,
    /// The node key itself.
    pub key: DeriveKey,
    /// The epoch the key is valid in.
    pub epoch: EpochId,
}

// Redacting Debug: an authorization key unlocks a whole hierarchy subtree;
// `DeriveKey`'s fingerprint-only Debug keeps the bytes out of logs.
impl std::fmt::Debug for AuthKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuthKey")
            .field("scope", &self.scope)
            .field("key", &self.key)
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// Where an event's per-attribute key part lives in the key space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EventKeyAddress {
    /// No keyed attributes: the plain per-topic event key.
    Plain,
    /// A NAKT leaf.
    Numeric {
        /// Attribute name.
        attr: String,
        /// Leaf identifier of the event's value.
        ktid: Ktid,
    },
    /// A category node.
    Category {
        /// Attribute name.
        attr: String,
        /// The event's category path.
        path: CategoryPath,
    },
    /// A string-chain node (direction comes from the schema).
    Str {
        /// Attribute name.
        attr: String,
        /// The event's string value.
        value: String,
    },
}

impl EventKeyAddress {
    /// The attribute name, or `None` for [`EventKeyAddress::Plain`].
    pub fn attr(&self) -> Option<&str> {
        match self {
            EventKeyAddress::Plain => None,
            EventKeyAddress::Numeric { attr, .. }
            | EventKeyAddress::Category { attr, .. }
            | EventKeyAddress::Str { attr, .. } => Some(attr),
        }
    }
}

/// Errors in event-key computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKeyError {
    /// An event attribute's value family does not match its schema spec.
    FamilyMismatch {
        /// Attribute name.
        attr: String,
    },
    /// A numeric value fell outside the attribute's NAKT range.
    OutOfRange {
        /// Attribute name.
        attr: String,
    },
    /// A string/category value exceeded the schema's declared bound.
    TooLong {
        /// Attribute name.
        attr: String,
    },
}

impl std::fmt::Display for EventKeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventKeyError::FamilyMismatch { attr } => {
                write!(f, "attribute {attr}: value family does not match schema")
            }
            EventKeyError::OutOfRange { attr } => {
                write!(f, "attribute {attr}: numeric value outside NAKT range")
            }
            EventKeyError::TooLong { attr } => {
                write!(f, "attribute {attr}: value exceeds schema bound")
            }
        }
    }
}

impl std::error::Error for EventKeyError {}

/// Computes the key addresses of an event: one per keyed (schema-listed)
/// attribute present on the event, or [`EventKeyAddress::Plain`] when none
/// apply. Addresses come out sorted by attribute name (the combination
/// order).
///
/// # Errors
///
/// Returns [`EventKeyError`] when an event value violates its schema spec.
pub fn event_key_addresses(
    schema: &Schema,
    event: &Event,
) -> Result<Vec<EventKeyAddress>, EventKeyError> {
    let mut out = Vec::new();
    for (name, spec) in schema.iter() {
        let Some(value) = event.attr(name) else {
            continue;
        };
        let addr = match spec {
            AttrSpec::Numeric { nakt } => {
                let v = value
                    .as_int()
                    .ok_or_else(|| EventKeyError::FamilyMismatch { attr: name.clone() })?;
                let ktid = nakt
                    .ktid_of_value(v)
                    .map_err(|_| EventKeyError::OutOfRange { attr: name.clone() })?;
                EventKeyAddress::Numeric {
                    attr: name.clone(),
                    ktid,
                }
            }
            AttrSpec::Category { max_depth } => {
                let path = value
                    .as_category()
                    .ok_or_else(|| EventKeyError::FamilyMismatch { attr: name.clone() })?;
                if path.depth() > *max_depth {
                    return Err(EventKeyError::TooLong { attr: name.clone() });
                }
                EventKeyAddress::Category {
                    attr: name.clone(),
                    path: path.clone(),
                }
            }
            AttrSpec::StrPrefix { max_len } | AttrSpec::StrSuffix { max_len } => {
                let s = value
                    .as_str()
                    .ok_or_else(|| EventKeyError::FamilyMismatch { attr: name.clone() })?;
                if s.len() > *max_len {
                    return Err(EventKeyError::TooLong { attr: name.clone() });
                }
                EventKeyAddress::Str {
                    attr: name.clone(),
                    value: s.to_owned(),
                }
            }
        };
        out.push(addr);
    }
    if out.is_empty() {
        out.push(EventKeyAddress::Plain);
    }
    Ok(out)
}

/// Publisher-side: derives the per-address key part from the topic key
/// `K(w)` (publishers hold the hierarchy root for their topic).
pub fn part_from_topic_key(
    topic_key: &DeriveKey,
    schema: &Schema,
    addr: &EventKeyAddress,
    ops: &mut OpCounter,
) -> DeriveKey {
    match addr {
        EventKeyAddress::Plain => {
            ops.add_kh(1);
            topic_key.kh(b"__plain_event")
        }
        EventKeyAddress::Numeric { attr, ktid } => {
            ops.add_kh(1);
            let root = topic_key.kh(attr.as_bytes());
            NaktKeySpace::walk(&root, ktid.digits(), ops)
        }
        EventKeyAddress::Category { attr, path } => {
            ops.add_kh(1);
            let space = CategoryKeySpace::new(topic_key, attr.as_bytes());
            space.key_for(path, ops)
        }
        EventKeyAddress::Str { attr, value } => {
            ops.add_kh(1);
            let direction = match schema.get(attr) {
                Some(AttrSpec::StrSuffix { .. }) => ChainDirection::Suffix,
                _ => ChainDirection::Prefix,
            };
            let space = StringKeySpace::new(topic_key, attr.as_bytes(), direction);
            space.key_for(value, ops)
        }
    }
}

impl AuthKey {
    /// Subscriber-side: tries to derive an event's key part from this
    /// authorization key. Returns `None` when the event part is not in this
    /// key's scope — by the one-wayness of `H`, that derivation is
    /// computationally infeasible, which this API models as a refusal.
    pub fn derive_part(
        &self,
        schema: &Schema,
        addr: &EventKeyAddress,
        ops: &mut OpCounter,
    ) -> Option<DeriveKey> {
        match (&self.scope, addr) {
            // The topic key is the hierarchy root: everything derives.
            (KeyScope::Topic, _) => Some(part_from_topic_key(&self.key, schema, addr, ops)),
            (
                KeyScope::Numeric {
                    attr: a,
                    ktid: held,
                },
                EventKeyAddress::Numeric { attr: b, ktid },
            ) if a == b => NaktKeySpace::derive_descendant(&self.key, held, ktid, ops),
            (
                KeyScope::Category {
                    attr: a,
                    path: held,
                },
                EventKeyAddress::Category { attr: b, path },
            ) if a == b => CategoryKeySpace::derive_descendant(&self.key, held, path, ops),
            (KeyScope::StrPrefix { attr: a, prefix }, EventKeyAddress::Str { attr: b, value })
                if a == b =>
            {
                StringKeySpace::derive_extension(
                    ChainDirection::Prefix,
                    &self.key,
                    prefix,
                    value,
                    ops,
                )
            }
            (KeyScope::StrSuffix { attr: a, suffix }, EventKeyAddress::Str { attr: b, value })
                if a == b =>
            {
                StringKeySpace::derive_extension(
                    ChainDirection::Suffix,
                    &self.key,
                    suffix,
                    value,
                    ops,
                )
            }
            _ => None,
        }
    }
}

/// Folds per-attribute key parts (already sorted by attribute name) into
/// the combined event master key, from which the AES content key and the
/// integrity (MAC) key are derived.
///
/// # Panics
///
/// Panics on an empty part list — an event always has at least one part.
pub fn combine_master(parts: &[DeriveKey], ops: &mut OpCounter) -> DeriveKey {
    assert!(
        !parts.is_empty(),
        "an event always has at least one key part"
    );
    let mut acc = parts[0].clone();
    for p in &parts[1..] {
        ops.add_kh(1);
        acc = acc.kh(p.as_bytes());
    }
    acc
}

/// The integrity key paired with `K(e)`: used to MAC the ciphertext
/// (encrypt-then-MAC) so a subscriber holding the wrong hierarchy keys
/// rejects deterministically instead of risking a padding false-positive.
/// (The paper's construction has no explicit integrity tag; this is a
/// reproduction-level hardening that does not alter any routing or
/// key-derivation semantics.)
pub fn mac_key(master: &DeriveKey, ops: &mut OpCounter) -> DeriveKey {
    ops.add_kh(1);
    master.kh(b"psguard-mac-key")
}

/// A subscriber's authorization for one conjunctive filter: per constrained
/// attribute, the alternative keys whose subtrees cover the constraint.
#[derive(Clone, PartialEq, Eq)]
pub struct ConstraintGrant {
    /// The constrained attribute.
    pub attr: String,
    /// Keys covering the constraint (e.g. one per canonical sub-range).
    pub alternatives: Vec<AuthKey>,
}

// Redacting Debug via AuthKey's fingerprint-only impl.
impl std::fmt::Debug for ConstraintGrant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConstraintGrant")
            .field("attr", &self.attr)
            .field("alternatives", &self.alternatives)
            .finish()
    }
}

/// A full grant for one conjunctive filter.
///
/// Obtained from [`crate::Kdc::grant`]; consumed by
/// [`Grant::event_key`] to recover `K(e)` for matching events.
#[derive(Clone, PartialEq, Eq)]
pub struct Grant {
    /// The granted topic `w`.
    pub topic: String,
    /// Epoch of validity.
    pub epoch: EpochId,
    /// Whole-topic authorization (present iff the filter had no
    /// constraints).
    pub topic_auth: Option<AuthKey>,
    /// Per-constraint authorizations.
    pub constraints: Vec<ConstraintGrant>,
}

// Redacting Debug via AuthKey's fingerprint-only impl.
impl std::fmt::Debug for Grant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Grant")
            .field("topic", &self.topic)
            .field("epoch", &self.epoch)
            .field("topic_auth", &self.topic_auth)
            .field("constraints", &self.constraints)
            .finish()
    }
}

impl Grant {
    /// Total number of authorization keys in the grant — the paper's
    /// per-subscription key count (Tables 1–2, Figure 3).
    pub fn key_count(&self) -> usize {
        self.topic_auth.iter().len()
            + self
                .constraints
                .iter()
                .map(|c| c.alternatives.len())
                .sum::<usize>()
    }

    /// Attempts to reconstruct the event key `K(e)` for an event with the
    /// given key addresses. Succeeds iff every address is derivable from
    /// this grant — i.e. the event matches the granted filter (up to
    /// least-count granularity).
    pub fn event_key(
        &self,
        schema: &Schema,
        addrs: &[EventKeyAddress],
        ops: &mut OpCounter,
    ) -> Option<AesKey> {
        self.event_master(schema, addrs, ops)
            .map(|m| m.content_key())
    }

    /// Like [`Grant::event_key`], but returns the combined event master
    /// key, from which both the content key and the MAC key derive.
    pub fn event_master(
        &self,
        schema: &Schema,
        addrs: &[EventKeyAddress],
        ops: &mut OpCounter,
    ) -> Option<DeriveKey> {
        let mut parts = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let part = self.event_key_part(schema, addr, ops)?;
            parts.push(part);
        }
        Some(combine_master(&parts, ops))
    }

    /// Derives one address' key part, trying the topic key first and then
    /// the per-constraint alternatives. Returns `None` when the grant does
    /// not cover the address (derivation is computationally infeasible).
    pub fn event_key_part(
        &self,
        schema: &Schema,
        addr: &EventKeyAddress,
        ops: &mut OpCounter,
    ) -> Option<DeriveKey> {
        if let Some(tk) = &self.topic_auth {
            if let Some(part) = tk.derive_part(schema, addr, ops) {
                return Some(part);
            }
        }
        let attr = addr.attr()?;
        let cg = self.constraints.iter().find(|c| c.attr == attr)?;
        cg.alternatives
            .iter()
            .find_map(|ak| ak.derive_part(schema, addr, ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psguard_model::IntRange;

    fn schema() -> Schema {
        Schema::builder()
            .numeric("age", IntRange::new(0, 255).unwrap(), 1)
            .unwrap()
            .category("diag", 6)
            .str_prefix("sym", 8)
            .build()
    }

    fn topic_key() -> DeriveKey {
        DeriveKey::from_bytes(b"K(cancerTrail)")
    }

    #[test]
    fn addresses_sorted_by_attr_and_plain_fallback() {
        let s = schema();
        let e = Event::builder("t")
            .attr("sym", "GOOG")
            .attr("age", 22i64)
            .build();
        let addrs = event_key_addresses(&s, &e).unwrap();
        assert_eq!(addrs.len(), 2);
        assert_eq!(addrs[0].attr(), Some("age"));
        assert_eq!(addrs[1].attr(), Some("sym"));

        let plain = Event::builder("t").attr("unkeyed", 5i64).build();
        assert_eq!(
            event_key_addresses(&s, &plain).unwrap(),
            vec![EventKeyAddress::Plain]
        );
    }

    #[test]
    fn address_errors() {
        let s = schema();
        let bad_family = Event::builder("t").attr("age", "not a number").build();
        assert!(matches!(
            event_key_addresses(&s, &bad_family),
            Err(EventKeyError::FamilyMismatch { .. })
        ));
        let oob = Event::builder("t").attr("age", 500i64).build();
        assert!(matches!(
            event_key_addresses(&s, &oob),
            Err(EventKeyError::OutOfRange { .. })
        ));
        let long = Event::builder("t").attr("sym", "WAYTOOLONGSYM").build();
        assert!(matches!(
            event_key_addresses(&s, &long),
            Err(EventKeyError::TooLong { .. })
        ));
    }

    #[test]
    fn publisher_and_subscriber_agree_numeric() {
        let s = schema();
        let tk = topic_key();
        let e = Event::builder("t").attr("age", 22i64).build();
        let addrs = event_key_addresses(&s, &e).unwrap();
        let mut ops = OpCounter::new();
        let pub_part = part_from_topic_key(&tk, &s, &addrs[0], &mut ops);

        // Authorization for ages 16..=31 (ktid = prefix of the event leaf).
        let nakt = match s.get("age").unwrap() {
            AttrSpec::Numeric { nakt } => nakt.clone(),
            _ => unreachable!(),
        };
        let cover = nakt
            .canonical_cover(&IntRange::new(16, 31).unwrap())
            .unwrap();
        assert_eq!(cover.len(), 1);
        let space = NaktKeySpace::new(nakt, &tk, b"age");
        let auth = AuthKey {
            scope: KeyScope::Numeric {
                attr: "age".into(),
                ktid: cover[0].clone(),
            },
            key: space.key_for(&cover[0], &mut ops),
            epoch: EpochId(0),
        };
        let sub_part = auth.derive_part(&s, &addrs[0], &mut ops).unwrap();
        assert_eq!(pub_part, sub_part);
    }

    #[test]
    fn unauthorized_numeric_part_refused() {
        let s = schema();
        let tk = topic_key();
        let mut ops = OpCounter::new();
        let nakt = match s.get("age").unwrap() {
            AttrSpec::Numeric { nakt } => nakt.clone(),
            _ => unreachable!(),
        };
        // Authorized for 0..=127; event at 200.
        let cover = nakt
            .canonical_cover(&IntRange::new(0, 127).unwrap())
            .unwrap();
        let space = NaktKeySpace::new(nakt.clone(), &tk, b"age");
        let auth = AuthKey {
            scope: KeyScope::Numeric {
                attr: "age".into(),
                ktid: cover[0].clone(),
            },
            key: space.key_for(&cover[0], &mut ops),
            epoch: EpochId(0),
        };
        let addr = EventKeyAddress::Numeric {
            attr: "age".into(),
            ktid: nakt.ktid_of_value(200).unwrap(),
        };
        assert!(auth.derive_part(&s, &addr, &mut ops).is_none());
    }

    #[test]
    fn topic_scope_derives_any_part() {
        let s = schema();
        let tk = topic_key();
        let auth = AuthKey {
            scope: KeyScope::Topic,
            key: tk.clone(),
            epoch: EpochId(0),
        };
        let mut ops = OpCounter::new();
        for addr in [
            EventKeyAddress::Plain,
            EventKeyAddress::Str {
                attr: "sym".into(),
                value: "GOOG".into(),
            },
            EventKeyAddress::Category {
                attr: "diag".into(),
                path: CategoryPath::from_indices([1, 2]),
            },
        ] {
            let from_auth = auth.derive_part(&s, &addr, &mut ops).unwrap();
            let from_pub = part_from_topic_key(&tk, &s, &addr, &mut ops);
            assert_eq!(from_auth, from_pub);
        }
    }

    #[test]
    fn string_prefix_grant_semantics() {
        let s = schema();
        let tk = topic_key();
        let mut ops = OpCounter::new();
        let space = StringKeySpace::new(&tk, b"sym", ChainDirection::Prefix);
        let auth = AuthKey {
            scope: KeyScope::StrPrefix {
                attr: "sym".into(),
                prefix: "GO".into(),
            },
            key: space.key_for("GO", &mut ops),
            epoch: EpochId(0),
        };
        let goog = EventKeyAddress::Str {
            attr: "sym".into(),
            value: "GOOG".into(),
        };
        let msft = EventKeyAddress::Str {
            attr: "sym".into(),
            value: "MSFT".into(),
        };
        assert!(auth.derive_part(&s, &goog, &mut ops).is_some());
        assert!(auth.derive_part(&s, &msft, &mut ops).is_none());
    }

    #[test]
    fn attr_mismatch_refused() {
        let s = schema();
        let tk = topic_key();
        let mut ops = OpCounter::new();
        let auth = AuthKey {
            scope: KeyScope::StrPrefix {
                attr: "sym".into(),
                prefix: "".into(),
            },
            key: StringKeySpace::new(&tk, b"sym", ChainDirection::Prefix).key_for("", &mut ops),
            epoch: EpochId(0),
        };
        let other_attr = EventKeyAddress::Str {
            attr: "other".into(),
            value: "GOOG".into(),
        };
        assert!(auth.derive_part(&s, &other_attr, &mut ops).is_none());
    }

    #[test]
    fn combine_master_is_order_sensitive_and_deterministic() {
        let mut ops = OpCounter::new();
        let a = DeriveKey::from_bytes(b"a");
        let b = DeriveKey::from_bytes(b"b");
        let ab = combine_master(&[a.clone(), b.clone()], &mut ops);
        let ba = combine_master(&[b.clone(), a.clone()], &mut ops);
        assert_ne!(ab, ba);
        assert_eq!(combine_master(&[a.clone(), b.clone()], &mut ops), ab);
        assert_eq!(combine_master(std::slice::from_ref(&a), &mut ops), a);
    }
}
