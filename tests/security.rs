//! Security-property integration tests: the confidentiality guarantees
//! the paper claims, exercised end-to-end with failure injection.

use psguard::{DecryptError, PsGuard, PsGuardConfig, Subscriber};
use psguard_keys::{ConstraintGrant, EpochId, Grant, OpCounter, Schema, TopicScope};
use psguard_model::{Constraint, Event, Filter, IntRange, Op};
use psguard_routing::SecureEvent;

fn deployment() -> PsGuard {
    let schema = Schema::builder()
        .numeric("age", IntRange::new(0, 255).expect("valid"), 1)
        .expect("valid nakt")
        .build();
    PsGuard::new(b"security-master", schema, PsGuardConfig::default())
}

fn published(ps: &PsGuard, age: i64, epoch: u64) -> SecureEvent {
    let mut publisher = ps.publisher("P");
    ps.authorize_publisher(&mut publisher, "w", epoch);
    publisher
        .publish(
            &Event::builder("w")
                .attr("age", age)
                .payload(b"classified".to_vec())
                .build(),
            epoch,
        )
        .expect("publishable")
}

#[test]
fn unauthorized_subscriber_cannot_decrypt_nonmatching_event() {
    let ps = deployment();
    // Paper example: f' = age > 30 must NOT read an age-25 event.
    let mut sub = ps.subscriber("S'");
    ps.authorize_subscriber(
        &mut sub,
        &Filter::for_topic("w").with(Constraint::new("age", Op::Gt(30))),
        0,
    )
    .expect("grantable");
    let secure = published(&ps, 25, 0);
    assert_eq!(
        sub.decrypt(&secure).unwrap_err(),
        DecryptError::NotAuthorized
    );

    // While f = age > 20 must read it.
    let mut ok = ps.subscriber("S");
    ps.authorize_subscriber(
        &mut ok,
        &Filter::for_topic("w").with(Constraint::new("age", Op::Gt(20))),
        0,
    )
    .expect("grantable");
    assert!(ok.decrypt(&secure).is_ok());
}

#[test]
fn boundary_values_of_the_granted_range() {
    let ps = deployment();
    let mut sub = ps.subscriber("S");
    ps.authorize_subscriber(
        &mut sub,
        &Filter::for_topic("w").with(Constraint::new(
            "age",
            Op::InRange(IntRange::new(16, 31).expect("valid")),
        )),
        0,
    )
    .expect("grantable");
    assert!(
        sub.decrypt(&published(&ps, 16, 0)).is_ok(),
        "lower bound inclusive"
    );
    assert!(
        sub.decrypt(&published(&ps, 31, 0)).is_ok(),
        "upper bound inclusive"
    );
    assert!(sub.decrypt(&published(&ps, 15, 0)).is_err(), "below range");
    assert!(sub.decrypt(&published(&ps, 32, 0)).is_err(), "above range");
}

#[test]
fn epoch_rekeying_revokes_lazily() {
    let ps = deployment();
    let mut sub = ps.subscriber("S");
    ps.authorize_subscriber(&mut sub, &Filter::for_topic("w"), 0)
        .expect("grantable");
    // Events of the subscribed epoch decrypt…
    assert!(sub.decrypt(&published(&ps, 1, 0)).is_ok());
    // …events after the boundary don't, until the grant is renewed.
    let next = published(&ps, 1, 1);
    assert!(matches!(
        sub.decrypt(&next).unwrap_err(),
        DecryptError::EpochMismatch {
            event_epoch: 1,
            grant_epoch: 0
        }
    ));
    ps.authorize_subscriber(&mut sub, &Filter::for_topic("w"), 1)
        .expect("grantable");
    assert!(sub.decrypt(&next).is_ok());
}

#[test]
fn tampered_ciphertext_detected() {
    let ps = deployment();
    let mut sub = ps.subscriber("S");
    ps.authorize_subscriber(&mut sub, &Filter::for_topic("w"), 0)
        .expect("grantable");

    // Truncated ciphertext: the encrypt-then-MAC tag no longer verifies.
    let mut secure = published(&ps, 10, 0);
    let mut cut = secure.event.payload().to_vec();
    cut.pop();
    secure.event.replace_payload(cut);
    assert_eq!(sub.decrypt(&secure).unwrap_err(), DecryptError::BadMac);

    // A single flipped ciphertext bit is also caught.
    let mut secure = published(&ps, 10, 0);
    let mut flipped = secure.event.payload().to_vec();
    flipped[0] ^= 0x01;
    secure.event.replace_payload(flipped);
    assert_eq!(sub.decrypt(&secure).unwrap_err(), DecryptError::BadMac);

    // A tampered MAC itself is caught too.
    let mut secure = published(&ps, 10, 0);
    secure.mac[0] ^= 0xff;
    assert_eq!(sub.decrypt(&secure).unwrap_err(), DecryptError::BadMac);
}

#[test]
fn wrong_epoch_key_does_not_decrypt_even_with_matching_token() {
    // A subscriber holding ONLY a stale grant sees an epoch error, not
    // plaintext — the topic key ratchet makes old keys useless.
    let ps = deployment();
    let mut sub = ps.subscriber("S");
    ps.authorize_subscriber(&mut sub, &Filter::for_topic("w"), 3)
        .expect("grantable");
    let secure = published(&ps, 10, 4);
    assert!(matches!(
        sub.decrypt(&secure).unwrap_err(),
        DecryptError::EpochMismatch { .. }
    ));
}

#[test]
fn tokens_are_unlinkable_across_events() {
    // Two events on the same topic carry different (nonce, tag) pairs; an
    // observer cannot link them by equality (only a token holder can).
    let ps = deployment();
    let mut publisher = ps.publisher("P");
    ps.authorize_publisher(&mut publisher, "w", 0);
    let e = Event::builder("w")
        .attr("age", 1i64)
        .payload(vec![0])
        .build();
    let a = publisher.publish(&e, 0).expect("publishable");
    let b = publisher.publish(&e, 0).expect("publishable");
    assert_ne!(a.tag.nonce, b.tag.nonce);
    assert_ne!(a.tag.tag, b.tag.tag);
    let token = ps.routing_token("w");
    assert!(a.tag.matches(&token) && b.tag.matches(&token));
}

#[test]
fn grant_for_subrange_cannot_escalate() {
    // Holding keys for (0, 127) gives nothing about (128, 255) even
    // though both hang off the same NAKT root.
    let ps = deployment();
    let mut sub = ps.subscriber("S");
    ps.authorize_subscriber(
        &mut sub,
        &Filter::for_topic("w").with(Constraint::new("age", Op::Le(127))),
        0,
    )
    .expect("grantable");
    for age in [128i64, 200, 255] {
        assert_eq!(
            sub.decrypt(&published(&ps, age, 0)).unwrap_err(),
            DecryptError::NotAuthorized,
            "age={age}"
        );
    }
}

#[test]
fn distinct_master_seeds_are_cryptographically_disjoint() {
    let ps1 = deployment();
    let ps2 = PsGuard::new(
        b"a completely different master",
        Schema::builder()
            .numeric("age", IntRange::new(0, 255).expect("valid"), 1)
            .expect("valid nakt")
            .build(),
        PsGuardConfig::default(),
    );
    // Same filter, different deployments: the grant from one cannot
    // decrypt (or even match) traffic of the other.
    let mut sub = ps2.subscriber("S");
    ps2.authorize_subscriber(&mut sub, &Filter::for_topic("w"), 0)
        .expect("grantable");
    let secure = published(&ps1, 10, 0);
    assert_eq!(
        sub.decrypt(&secure).unwrap_err(),
        DecryptError::NoMatchingSubscription
    );
    assert_ne!(ps1.routing_token("w"), ps2.routing_token("w"));
}

// Grant closure: the bound a *set* of grants obeys. `K(e)` is the
// `KH`-fold of per-attribute parts (DESIGN.md §7), and the part for one
// attribute value is the same whichever grant derives it, so parts from
// different grants combine. A set of grants therefore decrypts an event
// whenever, for each keyed attribute, some grant covers its value: a
// product across attributes of per-attribute unions, not the union of
// the filters. These tests pin both sides of that bound as shipped.

fn two_attr_deployment() -> PsGuard {
    let range = IntRange::new(0, 255).expect("valid");
    let schema = Schema::builder()
        .numeric("age", range, 1)
        .expect("valid nakt")
        .numeric("salary", range, 1)
        .expect("valid nakt")
        .build();
    PsGuard::new(b"closure-master", schema, PsGuardConfig::default())
}

/// A: `age ≤ 10 ∧ salary ≤ 10`.
fn low_filter() -> Filter {
    Filter::for_topic("w")
        .with(Constraint::new("age", Op::Le(10)))
        .with(Constraint::new("salary", Op::Le(10)))
}

/// B: `age ≥ 200 ∧ salary ≥ 200`.
fn high_filter() -> Filter {
    Filter::for_topic("w")
        .with(Constraint::new("age", Op::Ge(200)))
        .with(Constraint::new("salary", Op::Ge(200)))
}

fn grant_for(ps: &PsGuard, filter: &Filter) -> Grant {
    ps.kdc()
        .grant(
            ps.schema(),
            filter,
            EpochId(0),
            &TopicScope::Shared,
            &mut OpCounter::new(),
        )
        .expect("grantable")
}

fn constraint(grant: &Grant, attr: &str) -> ConstraintGrant {
    grant
        .constraints
        .iter()
        .find(|c| c.attr == attr)
        .expect("constrained attribute")
        .clone()
}

/// A grant assembled from `parts`, installed on a fresh subscriber.
fn pooled(ps: &PsGuard, parts: Vec<ConstraintGrant>) -> Subscriber {
    let grant = Grant {
        topic: "w".into(),
        epoch: EpochId(0),
        topic_auth: None,
        constraints: parts,
    };
    let mut sub = ps.subscriber("pool");
    sub.install_grant(ps.routing_token("w"), Filter::for_topic("w"), grant);
    sub
}

fn published_at(ps: &PsGuard, attrs: &[(&str, i64)]) -> SecureEvent {
    let mut publisher = ps.publisher("P");
    ps.authorize_publisher(&mut publisher, "w", 0);
    let mut event = Event::builder("w").payload(b"classified".to_vec());
    for &(name, value) in attrs {
        event = event.attr(name, value);
    }
    publisher.publish(&event.build(), 0).expect("publishable")
}

#[test]
fn pooled_grants_decrypt_the_per_attribute_product() {
    let ps = two_attr_deployment();
    let inside = published_at(&ps, &[("age", 5), ("salary", 250)]);
    for filter in [low_filter(), high_filter()] {
        let mut alone = ps.subscriber("alone");
        ps.authorize_subscriber(&mut alone, &filter, 0)
            .expect("grantable");
        assert_eq!(
            alone.decrypt(&inside).unwrap_err(),
            DecryptError::NotAuthorized,
            "{filter} alone"
        );
    }

    // A's `age` part and B's `salary` part make a grant neither holds.
    let (a, b) = (
        grant_for(&ps, &low_filter()),
        grant_for(&ps, &high_filter()),
    );
    let mut pool = pooled(&ps, vec![constraint(&a, "age"), constraint(&b, "salary")]);
    let got = pool.decrypt(&inside).expect("inside the product");
    assert_eq!(got.payload(), b"classified");

    // No grant covers age 100: outside the product, nothing decrypts.
    let outside = published_at(&ps, &[("age", 100), ("salary", 250)]);
    assert_eq!(
        pool.decrypt(&outside).unwrap_err(),
        DecryptError::NotAuthorized
    );
}

#[test]
fn single_attribute_grants_pool_to_exactly_the_union() {
    let ps = two_attr_deployment();
    let low = Filter::for_topic("w").with(Constraint::new("age", Op::Le(10)));
    let high = Filter::for_topic("w").with(Constraint::new("age", Op::Ge(200)));
    let mut age = constraint(&grant_for(&ps, &low), "age");
    age.alternatives
        .extend(constraint(&grant_for(&ps, &high), "age").alternatives);
    let mut pool = pooled(&ps, vec![age]);
    for value in 0..=255i64 {
        let event = published_at(&ps, &[("age", value)]);
        let in_union = value <= 10 || value >= 200;
        assert_eq!(
            pool.decrypt(&event).is_ok(),
            in_union,
            "age={value}: pooling one keyed attribute must give the union"
        );
    }
}

#[test]
fn one_holder_of_both_grants_is_bounded_by_keys_not_by_decrypt() {
    let ps = two_attr_deployment();
    let inside = published_at(&ps, &[("age", 5), ("salary", 250)]);
    let mut holder = ps.subscriber("both");
    ps.authorize_subscriber(&mut holder, &low_filter(), 0)
        .expect("grantable");
    ps.authorize_subscriber(&mut holder, &high_filter(), 0)
        .expect("grantable");
    // `decrypt` derives per grant, so the shipped API refuses...
    assert_eq!(
        holder.decrypt(&inside).unwrap_err(),
        DecryptError::NotAuthorized
    );
    // ...but the KDC is deterministic: the holder's two grants are these
    // keys, and they assemble the pooled grant that decrypts.
    let (a, b) = (
        grant_for(&ps, &low_filter()),
        grant_for(&ps, &high_filter()),
    );
    assert_eq!(holder.key_count(), a.key_count() + b.key_count());
    let mut pool = pooled(&ps, vec![constraint(&a, "age"), constraint(&b, "salary")]);
    assert!(pool.decrypt(&inside).is_ok());
}
