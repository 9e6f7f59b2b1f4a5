//! Property tests for the key hierarchies: the derive-iff-authorized
//! theorem for every matching family, grant costs, and cache coherence.

use proptest::prelude::*;
use psguard_crypto::DeriveKey;
use psguard_keys::{
    event_key_addresses, AuthKey, CategoryKeySpace, ChainDirection, EpochId, Kdc, KeyCache,
    KeyScope, Ktid, Nakt, NaktKeySpace, OpCounter, Schema, StringKeySpace, TopicScope,
};
use psguard_model::{CategoryPath, Constraint, Event, Filter, IntRange, Op};

proptest! {
    /// Category: derivable iff the authorized node is an ancestor-or-self
    /// of the event node.
    #[test]
    fn category_derive_iff_ancestor(
        auth in prop::collection::vec(0u32..4, 0..4),
        event in prop::collection::vec(0u32..4, 0..5),
    ) {
        let topic = DeriveKey::from_bytes(b"K(w)");
        let space = CategoryKeySpace::new(&topic, b"diag");
        let auth_path = CategoryPath::from_indices(auth);
        let event_path = CategoryPath::from_indices(event);
        let mut ops = OpCounter::new();
        let auth_key = space.key_for(&auth_path, &mut ops);
        let derived =
            CategoryKeySpace::derive_descendant(&auth_key, &auth_path, &event_path, &mut ops);
        prop_assert_eq!(derived.is_some(), auth_path.is_ancestor_or_self_of(&event_path));
        if let Some(k) = derived {
            prop_assert_eq!(k, space.key_for(&event_path, &mut ops));
        }
    }

    /// String prefix: derivable iff the event string extends the prefix.
    #[test]
    fn prefix_derive_iff_extension(auth in "[a-c]{0,5}", event in "[a-c]{0,6}") {
        let topic = DeriveKey::from_bytes(b"K(w)");
        let space = StringKeySpace::new(&topic, b"sym", ChainDirection::Prefix);
        let mut ops = OpCounter::new();
        let auth_key = space.key_for(&auth, &mut ops);
        let derived = StringKeySpace::derive_extension(space.direction(), &auth_key, &auth, &event, &mut ops);
        prop_assert_eq!(derived.is_some(), event.starts_with(&auth));
        if let Some(k) = derived {
            prop_assert_eq!(k, space.key_for(&event, &mut ops));
        }
    }

    /// String suffix: symmetric over reversed strings.
    #[test]
    fn suffix_derive_iff_extension(auth in "[a-c]{0,5}", event in "[a-c]{0,6}") {
        let topic = DeriveKey::from_bytes(b"K(w)");
        let space = StringKeySpace::new(&topic, b"file", ChainDirection::Suffix);
        let mut ops = OpCounter::new();
        let auth_key = space.key_for(&auth, &mut ops);
        let derived = StringKeySpace::derive_extension(space.direction(), &auth_key, &auth, &event, &mut ops);
        prop_assert_eq!(derived.is_some(), event.ends_with(&auth));
    }

    /// Grant sizes respect the paper's bound and generation walks stay
    /// within ~4·log2(R/lc) hashes (memoized tree walk).
    #[test]
    fn grant_costs_within_bounds(lo in 0i64..1000, width in 1i64..1000) {
        let r = 1024i64;
        let lo = lo.min(r - 1);
        let hi = (lo + width - 1).min(r - 1);
        let schema = Schema::builder()
            .numeric("n", IntRange::new(0, r - 1).expect("valid"), 1)
            .expect("valid nakt")
            .build();
        let kdc = Kdc::from_seed(b"prop");
        let f = Filter::for_topic("w").with(Constraint::new(
            "n",
            Op::InRange(IntRange::new(lo, hi).expect("valid")),
        ));
        let mut ops = OpCounter::new();
        let grant = kdc
            .grant(&schema, &f, EpochId(0), &TopicScope::Shared, &mut ops)
            .expect("grantable");
        let m = 10.0f64; // log2(1024)
        prop_assert!(grant.key_count() as f64 <= 2.0 * m - 2.0 + 1.0);
        prop_assert!(
            (ops.hash_ops as f64) <= 4.0 * m,
            "generation took {} hashes",
            ops.hash_ops
        );
    }

    /// The key cache never changes derived values, only their cost.
    #[test]
    fn cache_is_transparent(
        values in prop::collection::vec(0i64..256, 1..24),
        capacity in 0usize..4096,
    ) {
        let nakt = Nakt::binary(IntRange::new(0, 255).expect("valid"), 1).expect("valid");
        let topic = DeriveKey::from_bytes(b"K(w)");
        let space = NaktKeySpace::new(nakt.clone(), &topic, b"n");
        let mut ops = OpCounter::new();
        let auth = AuthKey {
            scope: KeyScope::Numeric {
                attr: "n".into(),
                ktid: Ktid::root(),
            },
            key: space.root_key().clone(),
            epoch: EpochId(0),
        };
        let mut cache = KeyCache::new(capacity);
        for v in values {
            let target = nakt.ktid_of_value(v).expect("in range");
            let via_cache = cache
                .derive_numeric_cached(&auth, &target, &mut ops)
                .expect("derivable");
            let direct = space.key_for(&target, &mut ops);
            prop_assert_eq!(via_cache, direct, "v={}", v);
        }
    }

    /// Epoch and publisher-lineage separation: grants from different
    /// (epoch, scope) pairs never share key material for the same filter.
    #[test]
    fn lineages_are_disjoint(epoch_a in 0u64..8, epoch_b in 0u64..8) {
        let schema = Schema::builder()
            .numeric("n", IntRange::new(0, 255).expect("valid"), 1)
            .expect("valid nakt")
            .build();
        let kdc = Kdc::from_seed(b"prop");
        let f = Filter::for_topic("w").with(Constraint::new("n", Op::Ge(0)));
        let mut ops = OpCounter::new();
        let a = kdc
            .grant(&schema, &f, EpochId(epoch_a), &TopicScope::Shared, &mut ops)
            .expect("grantable");
        let b = kdc
            .grant(&schema, &f, EpochId(epoch_b), &TopicScope::Shared, &mut ops)
            .expect("grantable");
        prop_assert_eq!(a == b, epoch_a == epoch_b);

        let pa = kdc
            .grant(
                &schema,
                &f,
                EpochId(epoch_a),
                &TopicScope::Publisher("A".into()),
                &mut ops,
            )
            .expect("grantable");
        prop_assert_ne!(a, pa);
    }

    /// Event-key addresses are stable and sorted.
    #[test]
    fn addresses_sorted_and_deterministic(v in 0i64..256, s in "[a-c]{1,6}") {
        let schema = Schema::builder()
            .numeric("n", IntRange::new(0, 255).expect("valid"), 1)
            .expect("valid nakt")
            .str_prefix("s", 8)
            .build();
        let e = Event::builder("w").attr("s", s).attr("n", v).build();
        let a1 = event_key_addresses(&schema, &e).expect("valid");
        let a2 = event_key_addresses(&schema, &e).expect("valid");
        prop_assert_eq!(&a1, &a2);
        prop_assert_eq!(a1.len(), 2);
        prop_assert_eq!(a1[0].attr(), Some("n"));
        prop_assert_eq!(a1[1].attr(), Some("s"));
    }
}
