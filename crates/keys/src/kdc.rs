//! The stateless Key Distribution Center (KDC).
//!
//! Every key in PSGuard derives from the KDC's master key `rk(KDC)`:
//!
//! * topic keys `K(w) = KH_{rk}(w ‖ epoch)` (epoch ratcheting gives lazy
//!   revocation for free);
//! * per-publisher topic keys `K_P(w) = KH_{rk}(P ‖ w ‖ epoch)` isolating
//!   publishers on a shared topic (§3.1 "Multiple Publishers");
//! * routing tokens `T(w) = F_{rk}(w)` for secure content-based routing;
//! * authorization keys: hierarchy-node keys covering a subscription
//!   filter.
//!
//! Because every answer is a pure function of `(master, request)`, the KDC
//! keeps **no state** about subscribers or subscriptions — a clone is a
//! replica, with no consistency protocol.

use psguard_crypto::{prf, DeriveKey, Token};
use psguard_model::{Filter, IntRange, Op};

use crate::cost::OpCounter;
use crate::epoch::EpochId;
use crate::grant::{AuthKey, ConstraintGrant, Grant, KeyScope};
use crate::nakt::NaktKeySpace;
use crate::schema::{AttrSpec, Schema};
use crate::spaces::{CategoryKeySpace, ChainDirection, StringKeySpace};

/// Identifies which topic-key lineage a grant or publication uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopicScope {
    /// One key shared by all publishers of the topic.
    Shared,
    /// A per-publisher key `K_P(w)`: subscribers authorized against
    /// publisher `P` cannot read other publishers' events (and vice versa).
    Publisher(String),
}

/// Errors raised when the KDC processes a grant request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KdcError {
    /// Grants require a concrete topic (wildcard filters have no key root).
    MissingTopic,
    /// A constraint's operator family cannot be keyed under the attribute's
    /// schema spec.
    UnsupportedConstraint {
        /// The attribute name.
        attr: String,
        /// Human-readable reason.
        reason: String,
    },
    /// The constraints on an attribute are mutually unsatisfiable (empty
    /// range).
    Unsatisfiable {
        /// The attribute name.
        attr: String,
    },
}

impl std::fmt::Display for KdcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KdcError::MissingTopic => write!(f, "grant requests require a concrete topic"),
            KdcError::UnsupportedConstraint { attr, reason } => {
                write!(f, "constraint on {attr} cannot be keyed: {reason}")
            }
            KdcError::Unsatisfiable { attr } => {
                write!(f, "constraints on {attr} are unsatisfiable")
            }
        }
    }
}

impl std::error::Error for KdcError {}

/// The stateless KDC.
///
/// # Example
///
/// ```
/// use psguard_keys::{EpochId, Kdc, OpCounter, Schema, TopicScope};
/// use psguard_model::{Constraint, Filter, IntRange, Op};
///
/// let kdc = Kdc::from_seed(b"deployment master secret");
/// let schema = Schema::builder()
///     .numeric("age", IntRange::new(0, 255).unwrap(), 1)
///     .unwrap()
///     .build();
/// let filter = Filter::for_topic("cancerTrail")
///     .with(Constraint::new("age", Op::Ge(16)))
///     .with(Constraint::new("age", Op::Le(31)));
/// let mut ops = OpCounter::new();
/// let grant = kdc
///     .grant(&schema, &filter, EpochId(0), &TopicScope::Shared, &mut ops)
///     .unwrap();
/// assert_eq!(grant.key_count(), 1); // (16,31) is one aligned subtree
/// ```
#[derive(Clone)]
pub struct Kdc {
    master: DeriveKey,
}

impl std::fmt::Debug for Kdc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Kdc { master: <redacted> }")
    }
}

impl Kdc {
    /// Creates a KDC whose master key is derived from a seed.
    pub fn from_seed(seed: &[u8]) -> Self {
        Kdc {
            master: DeriveKey::from_bytes(seed),
        }
    }

    /// The epoch-ratcheted topic key for the given lineage. Handed to
    /// publishers (their write credential) and embedded in grants.
    pub fn topic_key(
        &self,
        topic: &str,
        epoch: EpochId,
        scope: &TopicScope,
        ops: &mut OpCounter,
    ) -> DeriveKey {
        ops.add_kh(1);
        let label = match scope {
            TopicScope::Shared => format!("topic:{topic}:{}", epoch.0),
            TopicScope::Publisher(p) => format!("pubtopic:{p}:{topic}:{}", epoch.0),
        };
        self.master.kh(label.as_bytes())
    }

    /// The routing token `T(w) = F_{rk}(w)` for tokenized content-based
    /// routing. Tokens identify topics pseudonymously to brokers and do not
    /// ratchet with epochs (brokers hold long-lived routing state).
    pub fn routing_token(&self, topic: &str) -> Token {
        prf(self.master.as_bytes(), format!("token:{topic}").as_bytes())
    }

    /// The per-epoch seed for a topic's subscriber-**group** key tree —
    /// the master the LKH baseline's
    /// [`psguard_groupkey::SubscriberGroupManager`] derives from.
    ///
    /// Rotating this seed at the epoch flush (see
    /// [`crate::GroupRekeyCoordinator`]) makes the batched membership
    /// settle atomic with the key-space ratchet, and keeps the KDC
    /// stateless: the seed is a pure function of `(master, topic,
    /// epoch)`, so replicas agree without coordination.
    pub fn group_seed(&self, topic: &str, epoch: EpochId, ops: &mut OpCounter) -> DeriveKey {
        ops.add_kh(1);
        self.master
            .kh(format!("groupseed:{topic}:{}", epoch.0).as_bytes())
    }

    /// Issues a grant for one conjunctive filter, valid for `epoch`.
    ///
    /// Constraints on attributes absent from the schema are routable-only:
    /// they are matched by brokers but play no role in confidentiality, so
    /// the grant skips them.
    ///
    /// # Errors
    ///
    /// * [`KdcError::MissingTopic`] for wildcard filters;
    /// * [`KdcError::UnsupportedConstraint`] when an operator cannot be
    ///   keyed under the attribute's family;
    /// * [`KdcError::Unsatisfiable`] when an attribute's constraints have
    ///   an empty intersection.
    pub fn grant(
        &self,
        schema: &Schema,
        filter: &Filter,
        epoch: EpochId,
        scope: &TopicScope,
        ops: &mut OpCounter,
    ) -> Result<Grant, KdcError> {
        let topic = filter.topic().ok_or(KdcError::MissingTopic)?;
        let topic_key = self.topic_key(topic, epoch, scope, ops);

        // Group keyed constraints by attribute, carrying the schema spec so
        // the dispatch below never has to re-look it up.
        let mut by_attr: std::collections::BTreeMap<&str, (&AttrSpec, Vec<&Op>)> =
            Default::default();
        for c in filter.constraints() {
            if let Some(spec) = schema.get(c.name().as_str()) {
                by_attr
                    .entry(c.name().as_str())
                    .or_insert_with(|| (spec, Vec::new()))
                    .1
                    .push(c.op());
            }
        }

        if by_attr.is_empty() {
            // Whole-topic authorization: the topic key itself.
            return Ok(Grant {
                topic: topic.to_owned(),
                epoch,
                topic_auth: Some(AuthKey {
                    scope: KeyScope::Topic,
                    key: topic_key,
                    epoch,
                }),
                constraints: Vec::new(),
            });
        }

        let mut constraints = Vec::new();
        for (attr, (spec, cs)) in by_attr {
            let cg = match spec {
                AttrSpec::Numeric { nakt } => {
                    self.numeric_grant(attr, &cs, nakt, &topic_key, epoch, ops)?
                }
                AttrSpec::Category { .. } => {
                    self.category_grant(attr, &cs, &topic_key, epoch, ops)?
                }
                AttrSpec::StrPrefix { .. } => {
                    self.string_grant(attr, &cs, &topic_key, epoch, ChainDirection::Prefix, ops)?
                }
                AttrSpec::StrSuffix { .. } => {
                    self.string_grant(attr, &cs, &topic_key, epoch, ChainDirection::Suffix, ops)?
                }
            };
            constraints.push(cg);
        }

        Ok(Grant {
            topic: topic.to_owned(),
            epoch,
            topic_auth: None,
            constraints,
        })
    }

    fn numeric_grant(
        &self,
        attr: &str,
        ops_on_attr: &[&Op],
        nakt: &crate::nakt::Nakt,
        topic_key: &DeriveKey,
        epoch: EpochId,
        ops: &mut OpCounter,
    ) -> Result<ConstraintGrant, KdcError> {
        // Intersect all numeric constraints into one interval.
        let mut lo = nakt.range().lo();
        let mut hi = nakt.range().hi();
        for op in ops_on_attr {
            let iv = op
                .interval()
                .ok_or_else(|| KdcError::UnsupportedConstraint {
                    attr: attr.to_owned(),
                    reason: format!("operator {op} is not numeric"),
                })?;
            lo = lo.max(iv.lo());
            hi = hi.min(iv.hi());
        }
        let unsatisfiable = || KdcError::Unsatisfiable {
            attr: attr.to_owned(),
        };
        let range = IntRange::new(lo, hi).ok_or_else(unsatisfiable)?;
        let space = NaktKeySpace::new(nakt.clone(), topic_key, attr.as_bytes());
        ops.add_kh(1); // space root derivation
        let mut alternatives = Vec::new();
        nakt.cover_walk(
            &range,
            space.root_key().clone(),
            &mut |key, d| {
                ops.add_hash(1);
                key.child_n(d as u32)
            },
            &mut |ktid, key| {
                alternatives.push(AuthKey {
                    key,
                    scope: KeyScope::Numeric {
                        attr: attr.to_owned(),
                        ktid,
                    },
                    epoch,
                })
            },
        )
        .map_err(|_| unsatisfiable())?;
        Ok(ConstraintGrant {
            attr: attr.to_owned(),
            alternatives,
        })
    }

    fn category_grant(
        &self,
        attr: &str,
        ops_on_attr: &[&Op],
        topic_key: &DeriveKey,
        epoch: EpochId,
        ops: &mut OpCounter,
    ) -> Result<ConstraintGrant, KdcError> {
        // The most specific (deepest) path must be a descendant of all
        // others; otherwise the conjunction is unsatisfiable.
        let mut paths = Vec::new();
        for op in ops_on_attr {
            match op {
                Op::CategoryIn(p) => paths.push(p.clone()),
                Op::Eq(psguard_model::AttrValue::Category(p)) => paths.push(p.clone()),
                other => {
                    return Err(KdcError::UnsupportedConstraint {
                        attr: attr.to_owned(),
                        reason: format!("operator {other} is not a category constraint"),
                    })
                }
            }
        }
        let deepest = paths
            .iter()
            .max_by_key(|p| p.depth())
            .ok_or_else(|| KdcError::Unsatisfiable {
                attr: attr.to_owned(),
            })?
            .clone();
        if !paths.iter().all(|p| p.is_ancestor_or_self_of(&deepest)) {
            return Err(KdcError::Unsatisfiable {
                attr: attr.to_owned(),
            });
        }
        let space = CategoryKeySpace::new(topic_key, attr.as_bytes());
        ops.add_kh(1);
        let key = space.key_for(&deepest, ops);
        Ok(ConstraintGrant {
            attr: attr.to_owned(),
            alternatives: vec![AuthKey {
                scope: KeyScope::Category {
                    attr: attr.to_owned(),
                    path: deepest,
                },
                key,
                epoch,
            }],
        })
    }

    fn string_grant(
        &self,
        attr: &str,
        ops_on_attr: &[&Op],
        topic_key: &DeriveKey,
        epoch: EpochId,
        direction: ChainDirection,
        ops: &mut OpCounter,
    ) -> Result<ConstraintGrant, KdcError> {
        let mut anchors: Vec<String> = Vec::new();
        for op in ops_on_attr {
            match (op, direction) {
                (Op::StrPrefix(p), ChainDirection::Prefix) => anchors.push(p.clone()),
                (Op::StrSuffix(s), ChainDirection::Suffix) => anchors.push(s.clone()),
                (Op::Eq(psguard_model::AttrValue::Str(s)), _) => anchors.push(s.clone()),
                (other, _) => {
                    return Err(KdcError::UnsupportedConstraint {
                        attr: attr.to_owned(),
                        reason: format!(
                            "operator {other} does not fit the attribute's chain direction"
                        ),
                    })
                }
            }
        }
        // Longest anchor must extend all others.
        let longest = anchors
            .iter()
            .max_by_key(|s| s.len())
            .ok_or_else(|| KdcError::Unsatisfiable {
                attr: attr.to_owned(),
            })?
            .clone();
        let consistent = anchors.iter().all(|a| match direction {
            ChainDirection::Prefix => longest.starts_with(a.as_str()),
            ChainDirection::Suffix => longest.ends_with(a.as_str()),
        });
        if !consistent {
            return Err(KdcError::Unsatisfiable {
                attr: attr.to_owned(),
            });
        }
        let space = StringKeySpace::new(topic_key, attr.as_bytes(), direction);
        ops.add_kh(1);
        let key = space.key_for(&longest, ops);
        let scope = match direction {
            ChainDirection::Prefix => KeyScope::StrPrefix {
                attr: attr.to_owned(),
                prefix: longest,
            },
            ChainDirection::Suffix => KeyScope::StrSuffix {
                attr: attr.to_owned(),
                suffix: longest,
            },
        };
        Ok(ConstraintGrant {
            attr: attr.to_owned(),
            alternatives: vec![AuthKey { scope, key, epoch }],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psguard_model::Constraint;

    fn schema() -> Schema {
        Schema::builder()
            .numeric("age", IntRange::new(0, 255).unwrap(), 1)
            .unwrap()
            .category("diag", 6)
            .str_prefix("sym", 8)
            .str_suffix("file", 16)
            .build()
    }

    fn kdc() -> Kdc {
        Kdc::from_seed(b"master")
    }

    #[test]
    fn whole_topic_grant() {
        let mut ops = OpCounter::new();
        let g = kdc()
            .grant(
                &schema(),
                &Filter::for_topic("w"),
                EpochId(0),
                &TopicScope::Shared,
                &mut ops,
            )
            .unwrap();
        assert!(g.topic_auth.is_some());
        assert_eq!(g.key_count(), 1);
    }

    #[test]
    fn numeric_range_split_into_cover() {
        // (8, 19) over (0, 255): {8-15, 16-19} → 2 keys... in a 256-leaf
        // tree the canonical cover of [8,19] is {8..15, 16..19(=16..19 as
        // two nodes 16-17? no: 16..19 is aligned (16, width 4)}. Expect 2.
        let mut ops = OpCounter::new();
        let f = Filter::for_topic("w").with(Constraint::new(
            "age",
            Op::InRange(IntRange::new(8, 19).unwrap()),
        ));
        let g = kdc()
            .grant(&schema(), &f, EpochId(0), &TopicScope::Shared, &mut ops)
            .unwrap();
        assert_eq!(g.key_count(), 2);
        assert!(g.topic_auth.is_none());
    }

    #[test]
    fn ge_le_pair_intersects() {
        let mut ops = OpCounter::new();
        let f = Filter::for_topic("w")
            .with(Constraint::new("age", Op::Ge(16)))
            .with(Constraint::new("age", Op::Le(31)));
        let g = kdc()
            .grant(&schema(), &f, EpochId(0), &TopicScope::Shared, &mut ops)
            .unwrap();
        // (16, 31) is one aligned subtree in a 256-leaf binary tree.
        assert_eq!(g.key_count(), 1);
    }

    #[test]
    fn unsatisfiable_numeric() {
        let mut ops = OpCounter::new();
        let f = Filter::for_topic("w")
            .with(Constraint::new("age", Op::Ge(100)))
            .with(Constraint::new("age", Op::Le(50)));
        assert!(matches!(
            kdc().grant(&schema(), &f, EpochId(0), &TopicScope::Shared, &mut ops),
            Err(KdcError::Unsatisfiable { .. })
        ));
    }

    #[test]
    fn boundary_operators_grant_nothing() {
        // `Lt(i64::MIN)` and `Gt(i64::MAX)` match no value: the grant must
        // refuse them, not wrap around to the whole attribute range.
        for op in [Op::Lt(i64::MIN), Op::Gt(i64::MAX)] {
            let mut ops = OpCounter::new();
            let f = Filter::for_topic("w").with(Constraint::new("age", op.clone()));
            assert_eq!(
                kdc().grant(&schema(), &f, EpochId(0), &TopicScope::Shared, &mut ops),
                Err(KdcError::Unsatisfiable { attr: "age".into() }),
                "{op}"
            );
        }
    }

    #[test]
    fn unsupported_operator_family() {
        let mut ops = OpCounter::new();
        let f = Filter::for_topic("w").with(Constraint::new("age", Op::StrPrefix("x".into())));
        assert!(matches!(
            kdc().grant(&schema(), &f, EpochId(0), &TopicScope::Shared, &mut ops),
            Err(KdcError::UnsupportedConstraint { .. })
        ));
    }

    #[test]
    fn wildcard_filter_rejected() {
        let mut ops = OpCounter::new();
        assert_eq!(
            kdc()
                .grant(
                    &schema(),
                    &Filter::any(),
                    EpochId(0),
                    &TopicScope::Shared,
                    &mut ops
                )
                .unwrap_err(),
            KdcError::MissingTopic
        );
    }

    #[test]
    fn epochs_ratchet_topic_keys() {
        let mut ops = OpCounter::new();
        let k = kdc();
        let k0 = k.topic_key("w", EpochId(0), &TopicScope::Shared, &mut ops);
        let k1 = k.topic_key("w", EpochId(1), &TopicScope::Shared, &mut ops);
        assert_ne!(k0, k1);
    }

    #[test]
    fn per_publisher_keys_are_isolated() {
        let mut ops = OpCounter::new();
        let k = kdc();
        let shared = k.topic_key("w", EpochId(0), &TopicScope::Shared, &mut ops);
        let pa = k.topic_key(
            "w",
            EpochId(0),
            &TopicScope::Publisher("A".into()),
            &mut ops,
        );
        let pb = k.topic_key(
            "w",
            EpochId(0),
            &TopicScope::Publisher("B".into()),
            &mut ops,
        );
        assert_ne!(pa, pb);
        assert_ne!(pa, shared);
    }

    #[test]
    fn replicas_agree_without_shared_state() {
        let mut ops = OpCounter::new();
        let a = kdc();
        let b = a.clone();
        let f = Filter::for_topic("w").with(Constraint::new("age", Op::Ge(10)));
        let ga = a
            .grant(&schema(), &f, EpochId(3), &TopicScope::Shared, &mut ops)
            .unwrap();
        let gb = b
            .grant(&schema(), &f, EpochId(3), &TopicScope::Shared, &mut ops)
            .unwrap();
        assert_eq!(ga, gb);
        assert_eq!(a.routing_token("w"), b.routing_token("w"));
    }

    #[test]
    fn routing_tokens_distinct_per_topic() {
        let k = kdc();
        assert_ne!(k.routing_token("a"), k.routing_token("b"));
    }

    #[test]
    fn group_seeds_ratchet_and_replicate() {
        let mut ops = OpCounter::new();
        let k = kdc();
        let s0 = k.group_seed("w", EpochId(0), &mut ops);
        let s1 = k.group_seed("w", EpochId(1), &mut ops);
        assert_ne!(s0, s1);
        assert_ne!(s0, k.group_seed("v", EpochId(0), &mut ops));
        // Stateless: a replica derives the identical seed.
        assert_eq!(s0, k.clone().group_seed("w", EpochId(0), &mut ops));
    }

    #[test]
    fn non_schema_constraints_ignored_for_keys() {
        let mut ops = OpCounter::new();
        let f = Filter::for_topic("w")
            .with(Constraint::new("unkeyed", Op::Gt(0)))
            .with(Constraint::new("age", Op::Ge(0)));
        let g = kdc()
            .grant(&schema(), &f, EpochId(0), &TopicScope::Shared, &mut ops)
            .unwrap();
        assert_eq!(g.constraints.len(), 1);
        assert_eq!(g.constraints[0].attr, "age");
    }

    #[test]
    fn string_grants() {
        let mut ops = OpCounter::new();
        let f = Filter::for_topic("w").with(Constraint::new("sym", Op::StrPrefix("GO".into())));
        let g = kdc()
            .grant(&schema(), &f, EpochId(0), &TopicScope::Shared, &mut ops)
            .unwrap();
        assert_eq!(g.key_count(), 1);
        let f = Filter::for_topic("w").with(Constraint::new("file", Op::StrSuffix(".log".into())));
        let g = kdc()
            .grant(&schema(), &f, EpochId(0), &TopicScope::Shared, &mut ops)
            .unwrap();
        assert!(matches!(
            g.constraints[0].alternatives[0].scope,
            KeyScope::StrSuffix { .. }
        ));
    }

    #[test]
    fn conflicting_prefixes_unsatisfiable() {
        let mut ops = OpCounter::new();
        let f = Filter::for_topic("w")
            .with(Constraint::new("sym", Op::StrPrefix("GO".into())))
            .with(Constraint::new("sym", Op::StrPrefix("MS".into())));
        assert!(matches!(
            kdc().grant(&schema(), &f, EpochId(0), &TopicScope::Shared, &mut ops),
            Err(KdcError::Unsatisfiable { .. })
        ));
    }
}
