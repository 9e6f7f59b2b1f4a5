//! End-to-end integration: KDC → publisher → broker overlay →
//! subscriber, across crate boundaries, for all four attribute families.

use psguard::{PsGuard, PsGuardConfig};
use psguard_keys::Schema;
use psguard_model::{AttrValue, CategoryPath, Constraint, Event, Filter, IntRange, Op};
use psguard_routing::SecureFilter;
use psguard_siena::{Action, Broker, Peer};

fn deployment() -> PsGuard {
    let schema = Schema::builder()
        .numeric("age", IntRange::new(0, 255).expect("valid"), 1)
        .expect("valid nakt")
        .category("diag", 4)
        .str_prefix("sym", 8)
        .str_suffix("file", 16)
        .build();
    PsGuard::new(b"e2e-master", schema, PsGuardConfig::default())
}

#[test]
fn all_four_families_roundtrip() {
    let ps = deployment();
    let mut publisher = ps.publisher("P");
    ps.authorize_publisher(&mut publisher, "w", 0);

    let cases: Vec<(Filter, Event)> = vec![
        (
            Filter::for_topic("w"),
            Event::builder("w").payload(b"plain".to_vec()).build(),
        ),
        (
            Filter::for_topic("w").with(Constraint::new("age", Op::Ge(10))),
            Event::builder("w")
                .attr("age", 40i64)
                .payload(b"numeric".to_vec())
                .build(),
        ),
        (
            Filter::for_topic("w").with(Constraint::new(
                "diag",
                Op::CategoryIn(CategoryPath::from_indices([1])),
            )),
            Event::builder("w")
                .attr(
                    "diag",
                    AttrValue::Category(CategoryPath::from_indices([1, 2, 0])),
                )
                .payload(b"category".to_vec())
                .build(),
        ),
        (
            Filter::for_topic("w").with(Constraint::new("sym", Op::StrPrefix("GO".into()))),
            Event::builder("w")
                .attr("sym", "GOOG")
                .payload(b"string-prefix".to_vec())
                .build(),
        ),
        (
            Filter::for_topic("w").with(Constraint::new("file", Op::StrSuffix(".log".into()))),
            Event::builder("w")
                .attr("file", "system.log")
                .payload(b"string-suffix".to_vec())
                .build(),
        ),
    ];

    for (filter, event) in cases {
        let mut sub = ps.subscriber("S");
        ps.authorize_subscriber(&mut sub, &filter, 0)
            .expect("grantable");
        let secure = publisher.publish(&event, 0).expect("publishable");
        let plain = sub
            .decrypt(&secure)
            .unwrap_or_else(|e| panic!("decrypt failed for {filter}: {e}"));
        assert_eq!(plain.payload(), event.payload());
    }
}

#[test]
fn secure_events_route_through_brokers_by_token_and_constraints() {
    let ps = deployment();
    let mut publisher = ps.publisher("P");
    ps.authorize_publisher(&mut publisher, "alerts", 0);
    ps.authorize_publisher(&mut publisher, "noise", 0);

    // One broker, two subscribers with different filters.
    let mut broker: Broker<SecureFilter> = Broker::new(true);
    let mut high = ps.subscriber("high");
    ps.authorize_subscriber(
        &mut high,
        &Filter::for_topic("alerts").with(Constraint::new("age", Op::Ge(100))),
        0,
    )
    .expect("grantable");
    broker.subscribe(Peer::Local(1), high.secure_filters().remove(0));

    let mut any = ps.subscriber("any");
    ps.authorize_subscriber(&mut any, &Filter::for_topic("alerts"), 0)
        .expect("grantable");
    broker.subscribe(Peer::Local(2), any.secure_filters().remove(0));

    // A low-severity alert reaches only the unconstrained subscriber.
    let low = publisher
        .publish(
            &Event::builder("alerts")
                .attr("age", 5i64)
                .payload(vec![1])
                .build(),
            0,
        )
        .expect("publishable");
    let out = broker.publish(Peer::Local(9), low);
    assert_eq!(out.len(), 1);
    assert!(matches!(out[0], Action::Deliver(Peer::Local(2), _)));

    // A high-severity alert reaches both.
    let high_ev = publisher
        .publish(
            &Event::builder("alerts")
                .attr("age", 200i64)
                .payload(vec![2])
                .build(),
            0,
        )
        .expect("publishable");
    let out = broker.publish(Peer::Local(9), high_ev);
    assert_eq!(out.len(), 2);

    // An event of a different topic matches neither (token mismatch),
    // even with identical attributes.
    let other = publisher
        .publish(
            &Event::builder("noise")
                .attr("age", 200i64)
                .payload(vec![3])
                .build(),
            0,
        )
        .expect("publishable");
    assert!(broker.publish(Peer::Local(9), other).is_empty());
}

#[test]
fn broker_visible_surface_leaks_no_plaintext() {
    let ps = deployment();
    let mut publisher = ps.publisher("P");
    ps.authorize_publisher(&mut publisher, "secret-topic", 0);

    let payload = b"extremely confidential payload".to_vec();
    let event = Event::builder("secret-topic")
        .attr("age", 33i64)
        .payload(payload.clone())
        .build();
    let secure = publisher.publish(&event, 0).expect("publishable");

    // What a broker sees: no topic string, no plaintext payload bytes.
    assert_eq!(secure.event.topic(), "");
    assert_ne!(secure.event.payload(), payload.as_slice());
    let wire = {
        use psguard_siena::Wire;
        secure.to_bytes()
    };
    let needle = b"secret-topic";
    assert!(
        !wire.windows(needle.len()).any(|w| w == needle),
        "topic name must not appear on the wire"
    );
    assert!(
        !wire.windows(payload.len()).any(|w| w == payload.as_slice()),
        "payload must not appear on the wire"
    );
    // The routable attribute is visible — that is the design point.
    assert_eq!(secure.event.attr("age").and_then(|v| v.as_int()), Some(33));
}

#[test]
fn two_subscribers_same_filter_need_no_coordination() {
    // The PSGuard property: grants are independent of other subscribers;
    // two subscribers with the same filter get identical key material
    // without the KDC tracking either of them.
    let ps = deployment();
    let f = Filter::for_topic("w").with(Constraint::new("age", Op::Le(99)));
    let mut s1 = ps.subscriber("s1");
    let mut s2 = ps.subscriber("s2");
    ps.authorize_subscriber(&mut s1, &f, 0).expect("grantable");
    ps.authorize_subscriber(&mut s2, &f, 0).expect("grantable");
    assert_eq!(s1.key_count(), s2.key_count());

    let mut publisher = ps.publisher("P");
    ps.authorize_publisher(&mut publisher, "w", 0);
    let e = Event::builder("w")
        .attr("age", 12i64)
        .payload(vec![7])
        .build();
    let secure = publisher.publish(&e, 0).expect("publishable");
    assert_eq!(
        s1.decrypt(&secure).expect("s1").payload(),
        s2.decrypt(&secure).expect("s2").payload()
    );
}

#[test]
fn wire_roundtrip_through_frames() {
    use psguard_siena::wire::read_frame_into;
    use psguard_siena::{FramePool, Message, Wire};

    let ps = deployment();
    let mut publisher = ps.publisher("P");
    ps.authorize_publisher(&mut publisher, "w", 0);
    let secure = publisher
        .publish(
            &Event::builder("w")
                .attr("age", 1i64)
                .payload(vec![1, 2, 3])
                .build(),
            0,
        )
        .expect("publishable");

    let msg: Message<SecureFilter, psguard_routing::SecureEvent> = Message::Publish(secure.clone());
    let mut buf = Vec::new();
    FramePool::new()
        .encode(&msg)
        .write_to(&mut buf)
        .expect("write");
    let mut cursor = std::io::Cursor::new(buf);
    let mut frame = Vec::new();
    read_frame_into(&mut cursor, &mut frame).expect("read");
    let decoded =
        Message::<SecureFilter, psguard_routing::SecureEvent>::from_bytes(&frame).expect("decode");
    assert_eq!(decoded, Message::Publish(secure));
}
