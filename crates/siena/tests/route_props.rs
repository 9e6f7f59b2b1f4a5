//! Property tests pinning `Broker::route`, the one match driver, two
//! ways: against a linear reference built without the `MatchIndex` (a
//! first-seen scan over a test-local model of the live registrations,
//! plus the §2.1 parent/sender rule), and against the `Deliver` actions
//! of its cloning `Broker::publish` wrapper — same peers, same order,
//! each carrying the published event. Root and non-root brokers, every
//! sender kind, and a table churned by unsubscribes and `peer_down`.

use proptest::prelude::*;
use psguard_model::{AttrValue, Constraint, Event, Filter, IntRange, Op};
use psguard_siena::{Action, Broker, Peer};

fn op_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        (-20i64..60).prop_map(Op::Ge),
        (-20i64..60).prop_map(Op::Le),
        (-20i64..60).prop_map(Op::Gt),
        (-20i64..60).prop_map(Op::Lt),
        (-20i64..60).prop_map(|v| Op::Eq(AttrValue::Int(v))),
        (-20i64..40, 0i64..25)
            .prop_map(|(lo, w)| Op::InRange(IntRange::new(lo, lo + w).expect("lo <= hi"))),
        "[ab]{0,3}".prop_map(Op::StrPrefix),
        "[ab]{0,3}".prop_map(|s| Op::Eq(AttrValue::Str(s))),
    ]
    .boxed()
}

/// Topics t0..t3 plus the wildcard; few attribute names so filters and
/// events collide often.
fn filter_strategy() -> BoxedStrategy<Filter> {
    (0u8..5, prop::collection::vec(("[ab]", op_strategy()), 0..4))
        .prop_map(|(topic, constraints)| {
            let mut f = if topic < 4 {
                Filter::for_topic(format!("t{topic}"))
            } else {
                Filter::any()
            };
            for (name, op) in constraints {
                f = f.with(Constraint::new(name, op));
            }
            f
        })
        .boxed()
}

fn event_strategy() -> BoxedStrategy<Event> {
    (
        0u8..5,
        prop::collection::vec(
            (
                "[ab]",
                prop_oneof![
                    (-25i64..65).prop_map(AttrValue::Int),
                    "[ab]{0,3}".prop_map(AttrValue::Str),
                ],
            ),
            0..3,
        ),
    )
        .prop_map(|(topic, attrs)| {
            let mut b = Event::builder(format!("t{topic}"));
            for (name, value) in attrs {
                b = b.attr(name, value);
            }
            b.build()
        })
        .boxed()
}

fn sender(sel: u8) -> Peer {
    match sel % 3 {
        0 => Peer::Parent,
        1 => Peer::Child(0),
        _ => Peer::Local(7),
    }
}

/// Subscribers: children 0..5, plus the parent (selector 5), whose
/// registrations must never turn into a second parent delivery.
fn subscriber(sel: u32) -> Peer {
    if sel == 5 {
        Peer::Parent
    } else {
        Peer::Child(sel)
    }
}

/// Registers `(peer, filter)` in the broker and in the test-local model
/// of its live registrations, in registration order. The broker's table
/// is idempotent per `(peer, filter)`, so the model dedups too.
fn subscribe(broker: &mut Broker<Filter>, live: &mut Vec<(Peer, Filter)>, peer: Peer, f: &Filter) {
    broker.subscribe(peer, f.clone());
    if !live.iter().any(|(p, g)| *p == peer && g == f) {
        live.push((peer, f.clone()));
    }
}

/// The §2.1 rule over the linear scan: a non-root broker pushes an event
/// from below to its parent first, then every matching peer gets it in
/// first-seen registration order, except the sender and the parent.
fn linear_reference(live: &[(Peer, Filter)], is_root: bool, from: Peer, e: &Event) -> Vec<Peer> {
    let mut out: Vec<Peer> = (from != Peer::Parent && !is_root)
        .then_some(Peer::Parent)
        .into_iter()
        .collect();
    for (peer, filter) in live {
        if *peer != from && *peer != Peer::Parent && filter.matches(e) && !out.contains(peer) {
            out.push(*peer);
        }
    }
    out
}

/// Routes every event and checks it against both references; also
/// checks the routing counters `route` shares with `publish`.
fn check_route(
    broker: &mut Broker<Filter>,
    live: &[(Peer, Filter)],
    is_root: bool,
    from: Peer,
    events: &[Event],
) {
    for (i, e) in events.iter().enumerate() {
        let expected = linear_reference(live, is_root, from, e);
        let before = broker.stats();
        let routed = broker.route(from, e).to_vec();
        assert_eq!(&routed, &expected, "route vs linear, event {}", i);
        let after = broker.stats();
        let route_work = broker.last_match_work();
        assert_eq!(after.events_in, before.events_in + 1);
        assert_eq!(after.events_out, before.events_out + routed.len() as u64);
        assert_eq!(
            after.match_evaluations,
            before.match_evaluations + route_work
        );

        let mut delivered = Vec::new();
        for action in broker.publish(from, e.clone()) {
            let Action::Deliver(peer, event) = action else {
                panic!("publish emitted a non-delivery action {action:?}");
            };
            assert_eq!(&event, e, "publish must deliver the published event");
            delivered.push(peer);
        }
        assert_eq!(&delivered, &routed, "publish vs route, event {}", i);
        assert_eq!(broker.last_match_work(), route_work);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn route_agrees_with_linear_reference_and_publish(
        subs in prop::collection::vec((0u32..6, filter_strategy()), 0..40),
        events in prop::collection::vec(event_strategy(), 1..12),
        is_root in any::<bool>(),
        from_sel in 0u8..3,
    ) {
        let mut broker: Broker<Filter> = Broker::new(is_root);
        let mut live = Vec::new();
        for (peer, filter) in &subs {
            subscribe(&mut broker, &mut live, subscriber(*peer), filter);
        }
        prop_assert_eq!(broker.table().len(), live.len());
        check_route(&mut broker, &live, is_root, sender(from_sel), &events);
    }

    #[test]
    fn route_agrees_with_linear_reference_after_churn(
        subs in prop::collection::vec((0u32..6, filter_strategy()), 1..30),
        removal_mask in any::<u64>(),
        events in prop::collection::vec(event_strategy(), 1..8),
        is_root in any::<bool>(),
        from_sel in 0u8..3,
    ) {
        let mut broker: Broker<Filter> = Broker::new(is_root);
        let mut live = Vec::new();
        for (peer, filter) in &subs {
            subscribe(&mut broker, &mut live, subscriber(*peer), filter);
        }
        let inserted = live.clone();
        for (i, (peer, filter)) in inserted.iter().enumerate() {
            if removal_mask >> (i % 64) & 1 == 1 {
                broker.unsubscribe(*peer, filter);
                live.retain(|(p, f)| !(p == peer && f == filter));
            }
        }
        let held = live.iter().filter(|(p, _)| *p == Peer::Child(0)).count();
        prop_assert_eq!(broker.peer_down(Peer::Child(0)), held);
        live.retain(|(p, _)| *p != Peer::Child(0));
        prop_assert_eq!(broker.table().len(), live.len());

        check_route(&mut broker, &live, is_root, sender(from_sel), &events);
    }
}
