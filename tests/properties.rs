//! Property-based tests on the core invariants, spanning crates.

use proptest::prelude::*;

use psguard::{PsGuard, PsGuardConfig};
use psguard_crypto::{cbc_decrypt, cbc_encrypt, ctr_apply, Aes128};
use psguard_groupkey::{RekeyStrategy, SubscriberGroupManager};
use psguard_keys::{EpochId, Kdc, Ktid, Nakt, OpCounter, Schema, TopicScope};
use psguard_model::{AttrValue, CategoryPath, Constraint, Event, Filter, IntRange, Op};
use psguard_routing::{entropy_bits, max_entropy_bits, MultipathTree};
use psguard_siena::Wire;

fn schema_256() -> Schema {
    Schema::builder()
        .numeric("age", IntRange::new(0, 255).expect("valid"), 1)
        .expect("valid nakt")
        .build()
}

/// A value or operator bound: either end of `i64`, or a small number.
fn bound() -> impl Strategy<Value = i64> {
    prop_oneof![Just(i64::MIN), Just(i64::MAX), -1i64..101]
}

/// Every numeric operator, with bounds that include the ends of `i64`,
/// so the empty `Lt(i64::MIN)` and `Gt(i64::MAX)` are drawn too.
fn numeric_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..100, 0i64..100)
            .prop_map(|(a, b)| Op::InRange(IntRange::new(a.min(b), a.max(b)).expect("ordered"))),
        bound().prop_map(Op::Lt),
        bound().prop_map(Op::Le),
        bound().prop_map(Op::Gt),
        bound().prop_map(Op::Ge),
    ]
}

proptest! {
    // ------------------------------------------------------------------
    // NAKT: the canonical cover is exact, disjoint and within the bound.
    // ------------------------------------------------------------------
    #[test]
    fn nakt_cover_exact_disjoint_bounded(
        size in 2u32..=1024,
        lo in 0i64..1024,
        width in 1i64..1024,
    ) {
        let range = IntRange::new(0, size as i64 - 1).expect("valid");
        let nakt = Nakt::binary(range, 1).expect("valid");
        let lo = lo % size as i64;
        let hi = (lo + width - 1).min(size as i64 - 1);
        let q = IntRange::new(lo, hi).expect("valid");
        let cover = nakt.canonical_cover(&q).expect("in range");

        prop_assert!(cover.len() as u64 <= nakt.max_auth_keys().max(1));
        let mut covered = vec![false; size as usize];
        for k in &cover {
            let (a, b) = k.leaf_span(nakt.depth(), 2);
            for c in a..=b {
                prop_assert!(!covered[c as usize], "overlapping cover at {c}");
                covered[c as usize] = true;
            }
        }
        for v in 0..size as i64 {
            prop_assert_eq!(covered[v as usize], q.contains(v), "v={}", v);
        }
    }

    // ------------------------------------------------------------------
    // The central theorem: K(e) derivable from K(f) iff e matches f.
    // ------------------------------------------------------------------
    #[test]
    fn event_key_derivable_iff_in_range(
        lo in 0i64..256,
        width in 1i64..256,
        value in 0i64..256,
    ) {
        let lo = lo.min(255);
        let hi = (lo + width - 1).min(255);
        let kdc = Kdc::from_seed(b"prop");
        let schema = schema_256();
        let filter = Filter::for_topic("w").with(Constraint::new(
            "age",
            Op::InRange(IntRange::new(lo, hi).expect("valid")),
        ));
        let mut ops = OpCounter::new();
        let grant = kdc
            .grant(&schema, &filter, EpochId(0), &TopicScope::Shared, &mut ops)
            .expect("grantable");
        let event = Event::builder("w").attr("age", value).build();
        let addrs = psguard_keys::event_key_addresses(&schema, &event).expect("valid");
        let derived = grant.event_key(&schema, &addrs, &mut ops);
        prop_assert_eq!(derived.is_some(), (lo..=hi).contains(&value));
    }

    // ------------------------------------------------------------------
    // Covering is sound w.r.t. matching for numeric filters.
    // ------------------------------------------------------------------
    #[test]
    fn covering_implies_match_subset(
        f_op in numeric_op(),
        g_op in numeric_op(),
        samples in prop::collection::vec(bound(), 20),
    ) {
        let f = Filter::for_topic("t").with(Constraint::new("x", f_op));
        let g = Filter::for_topic("t").with(Constraint::new("x", g_op));
        if f.covers(&g) {
            for v in samples {
                let e = Event::builder("t").attr("x", v).build();
                if g.matches(&e) {
                    prop_assert!(f.matches(&e), "{} covers {} but not at {}", f, g, v);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Ktid index mapping is a bijection.
    // ------------------------------------------------------------------
    #[test]
    fn ktid_leaf_index_roundtrip(m in 1usize..10, arity in 2u8..8, idx in 0u64..10_000) {
        let capacity = (arity as u64).pow(m as u32);
        let idx = idx % capacity;
        let k = Ktid::from_leaf_index(idx, m, arity);
        prop_assert_eq!(k.to_index(arity), idx);
        prop_assert_eq!(k.depth(), m);
    }

    // ------------------------------------------------------------------
    // AES modes roundtrip for arbitrary keys/payloads.
    // ------------------------------------------------------------------
    #[test]
    fn cbc_roundtrip(key: [u8; 16], iv: [u8; 16], data in prop::collection::vec(any::<u8>(), 0..512)) {
        let cipher = Aes128::new(&key);
        let ct = cbc_encrypt(&cipher, &iv, &data);
        prop_assert_eq!(cbc_decrypt(&cipher, &iv, &ct).expect("roundtrip"), data);
    }

    #[test]
    fn ctr_involution(key: [u8; 16], nonce: [u8; 16], data in prop::collection::vec(any::<u8>(), 0..512)) {
        let cipher = Aes128::new(&key);
        let once = ctr_apply(&cipher, &nonce, &data);
        prop_assert_eq!(ctr_apply(&cipher, &nonce, &once), data);
    }

    // ------------------------------------------------------------------
    // Theorem 4.2 for arbitrary tree shapes and leaves.
    // ------------------------------------------------------------------
    #[test]
    fn multipath_variants_are_vertex_disjoint(
        arity in 2u8..10,
        depth in 1usize..5,
        leaf_seed in any::<u64>(),
    ) {
        let tree = MultipathTree::new(arity, depth).expect("valid");
        let leaf = tree.leaf_digits(leaf_seed % tree.leaf_count());
        prop_assert!(tree.verify_disjoint(&leaf, arity).expect("valid"));
    }

    // ------------------------------------------------------------------
    // Entropy bounds.
    // ------------------------------------------------------------------
    #[test]
    fn entropy_within_bounds(weights in prop::collection::vec(0.0f64..100.0, 1..64)) {
        let h = entropy_bits(&weights);
        let n = weights.iter().filter(|&&w| w > 0.0).count();
        prop_assert!(h >= -1e-9);
        prop_assert!(h <= max_entropy_bits(n.max(1)) + 1e-9, "h={} n={}", h, n);
    }

    // ------------------------------------------------------------------
    // Baseline group manager: decryption tracks membership exactly.
    // ------------------------------------------------------------------
    #[test]
    fn group_manager_decrypts_exactly_own_range(
        joins in prop::collection::vec((0u64..8, 0i64..64, 1i64..32), 1..12),
        probes in prop::collection::vec(0i64..64, 16),
    ) {
        let mut mgr = SubscriberGroupManager::new(
            IntRange::new(0, 63).expect("valid"),
            RekeyStrategy::Direct,
            b"prop",
        );
        let mut latest: std::collections::HashMap<u64, IntRange> = Default::default();
        for (s, lo, width) in joins {
            let hi = (lo + width - 1).min(63);
            let r = IntRange::new(lo, hi).expect("valid");
            mgr.join(s, r);
            latest.insert(s, r);
        }
        for v in probes {
            for (&s, r) in &latest {
                prop_assert_eq!(mgr.can_decrypt(s, v), r.contains(v), "s={} v={}", s, v);
            }
        }
    }

    // ------------------------------------------------------------------
    // Wire codec: Filter and Event roundtrip for generated values.
    // ------------------------------------------------------------------
    #[test]
    fn wire_roundtrip_filter_event(
        topic in "[a-z]{1,8}",
        lo in -100i64..100,
        width in 1i64..100,
        sval in "[a-d]{0,8}",
        cat in prop::collection::vec(0u32..4, 0..4),
        payload in prop::collection::vec(any::<u8>(), 0..64),
        age in -1000i64..1000,
    ) {
        let filter = Filter::for_topic(topic.clone())
            .with(Constraint::new("n", Op::InRange(IntRange::new(lo, lo + width).expect("valid"))))
            .with(Constraint::new("s", Op::StrPrefix(sval.clone())))
            .with(Constraint::new("c", Op::CategoryIn(CategoryPath::from_indices(cat.clone()))));
        prop_assert_eq!(Filter::from_bytes(&filter.to_bytes()).expect("decode"), filter);

        let event = Event::builder(topic)
            .attr("n", age)
            .attr("s", AttrValue::Str(sval))
            .attr("c", AttrValue::Category(CategoryPath::from_indices(cat)))
            .payload(payload)
            .build();
        prop_assert_eq!(Event::from_bytes(&event.to_bytes()).expect("decode"), event);
    }

    // ------------------------------------------------------------------
    // Full pipeline: decrypt succeeds iff the plaintext filter matches.
    // ------------------------------------------------------------------
    #[test]
    fn pipeline_decrypt_iff_match(
        lo in 0i64..256, width in 1i64..256, value in 0i64..256,
    ) {
        let lo = lo.min(255);
        let hi = (lo + width - 1).min(255);
        let ps = PsGuard::new(b"prop-master", schema_256(), PsGuardConfig::default());
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "w", 0);
        let filter = Filter::for_topic("w").with(Constraint::new(
            "age",
            Op::InRange(IntRange::new(lo, hi).expect("valid")),
        ));
        let mut sub = ps.subscriber("S");
        ps.authorize_subscriber(&mut sub, &filter, 0).expect("grantable");

        let event = Event::builder("w")
            .attr("age", value)
            .payload(b"payload".to_vec())
            .build();
        let secure = publisher.publish(&event, 0).expect("publishable");
        let outcome = sub.decrypt(&secure);
        prop_assert_eq!(outcome.is_ok(), filter.matches(&event));
        if let Ok(plain) = outcome {
            prop_assert_eq!(plain.payload(), b"payload");
        }
    }
}
