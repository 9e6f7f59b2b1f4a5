//! Property tests pinning the `MatchIndex` fast path to the linear-scan
//! reference: for any table built from random subscriptions (with churn),
//! a query must return exactly what an O(n) first-seen scan over a
//! test-local model of the live registrations returns, in the same
//! order, and `Broker::subscribe`'s covering verdict must agree with the
//! brute-force covering test.

use proptest::prelude::*;
use psguard_model::{AttrValue, Constraint, Event, Filter, IntRange, Op};
use psguard_siena::{Action, Broker, MatchIndex, Peer};

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
        "[ab]{0,3}".prop_map(Op::StrSuffix),
        "[ab]{0,3}".prop_map(|s| Op::Eq(AttrValue::Str(s))),
    ]
    .boxed()
}

/// Topics t0..t3 plus the wildcard; attributes drawn from {a, b} so
/// constraints and events collide often enough to exercise every path.
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

fn value_strategy() -> BoxedStrategy<AttrValue> {
    prop_oneof![
        (-25i64..65).prop_map(AttrValue::Int),
        "[ab]{0,3}".prop_map(AttrValue::Str),
    ]
    .boxed()
}

/// The linear reference: distinct peers of the matching registrations,
/// in first-seen registration order.
fn linear_scan(live: &[(Peer, Filter)], event: &Event) -> Vec<Peer> {
    let mut out: Vec<Peer> = Vec::new();
    for (peer, filter) in live {
        if filter.matches(event) && !out.contains(peer) {
            out.push(*peer);
        }
    }
    out
}

/// Registers `(peer, filter)` unless the model already holds it (the
/// broker's duplicate rule), in the index and in the model alike.
fn register(index: &mut MatchIndex<Filter>, live: &mut Vec<(Peer, Filter)>, peer: Peer, f: Filter) {
    if index.find(peer, &f).is_none() {
        assert!(!live.iter().any(|(p, g)| *p == peer && *g == f));
        index.insert(peer, f.clone());
        live.push((peer, f));
    }
}

fn event_strategy() -> BoxedStrategy<Event> {
    (
        0u8..5,
        prop::collection::vec(("[ab]", value_strategy()), 0..3),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn index_agrees_with_linear_scan(
        subs in prop::collection::vec((0u32..6, filter_strategy()), 0..40),
        events in prop::collection::vec(event_strategy(), 1..10),
    ) {
        let mut index: MatchIndex<Filter> = MatchIndex::new();
        let mut live = Vec::new();
        for (peer, filter) in subs {
            register(&mut index, &mut live, Peer::Child(peer), filter);
        }
        prop_assert_eq!(index.len(), live.len());
        for event in &events {
            prop_assert_eq!(index.query(event), linear_scan(&live, event));
        }
    }

    #[test]
    fn index_agrees_after_churn(
        subs in prop::collection::vec((0u32..5, filter_strategy()), 1..30),
        removal_mask in any::<u64>(),
        events in prop::collection::vec(event_strategy(), 1..8),
    ) {
        let mut index: MatchIndex<Filter> = MatchIndex::new();
        let mut live = Vec::new();
        let mut inserted: Vec<(Peer, Filter)> = Vec::new();
        for (peer, filter) in subs {
            let peer = Peer::Child(peer);
            register(&mut index, &mut live, peer, filter.clone());
            inserted.push((peer, filter));
        }
        for (i, (peer, filter)) in inserted.iter().enumerate() {
            if removal_mask >> (i % 64) & 1 == 1 {
                if let Some(id) = index.find(*peer, filter) {
                    index.remove(id);
                    live.retain(|(p, f)| !(p == peer && f == filter));
                }
            }
        }
        // A full peer disconnect on top of the selective removals.
        let held = live.iter().filter(|(p, _)| *p == Peer::Child(0)).count();
        prop_assert_eq!(index.remove_peer(Peer::Child(0)), held);
        live.retain(|(p, _)| *p != Peer::Child(0));
        prop_assert_eq!(index.len(), live.len());
        for event in &events {
            prop_assert_eq!(index.query(event), linear_scan(&live, event));
        }
        // Reinsertion after churn still agrees (slab slots are reused).
        for (peer, filter) in inserted {
            register(&mut index, &mut live, peer, filter);
        }
        for event in &events {
            prop_assert_eq!(index.query(event), linear_scan(&live, event));
        }
    }

    /// The arena layout against a brute-force linear scan over the live
    /// mirror. Churn + reinsertion exercises the entry free list, chunk
    /// recycling and boundary-range reuse; starting the generation
    /// counter near `u32::MAX` drives the stamp wraparound sweep
    /// mid-sequence.
    #[test]
    fn arena_index_agrees_with_linear_oracle(
        subs in prop::collection::vec((0u32..6, filter_strategy()), 1..40),
        removal_mask in any::<u64>(),
        near_wraparound in any::<bool>(),
        events in prop::collection::vec(event_strategy(), 1..8),
    ) {
        let mut arena: MatchIndex<Filter> = MatchIndex::new();
        if near_wraparound {
            // Few enough queries remain that the run crosses the wrap.
            arena.set_generation_for_tests(u32::MAX - 2);
        }
        // Mirror: (seq, peer, filter, live) in insertion order.
        let mut mirror: Vec<(Peer, Filter, bool)> = Vec::new();
        let mut ids = Vec::new();
        for (peer, filter) in &subs {
            let peer = Peer::Child(*peer);
            ids.push(arena.insert(peer, filter.clone()));
            mirror.push((peer, filter.clone(), true));
        }
        for (i, &id) in ids.iter().enumerate() {
            if removal_mask >> (i % 64) & 1 == 1 {
                arena.remove(id);
                mirror[i].2 = false;
            }
        }
        // Reinsert the removed half into the freed slots.
        for (peer, filter, live) in &mut mirror {
            if !*live {
                arena.insert(*peer, filter.clone());
                *live = true; // same filter is live again (new seq)
            }
        }
        for event in &events {
            let fast = arena.query(event);
            // The linear oracle loses the exact seq order for reinserted
            // entries (and `query` dedups peers), so compare as sorted
            // distinct-peer sets.
            let mut oracle: Vec<Peer> = mirror
                .iter()
                .filter(|(_, f, live)| *live && f.matches(event))
                .map(|(p, _, _)| *p)
                .collect();
            let mut fast_sorted = fast;
            fast_sorted.sort_unstable();
            oracle.sort_unstable();
            oracle.dedup();
            prop_assert_eq!(fast_sorted, oracle, "arena vs linear oracle");
        }
    }

    #[test]
    fn insert_covering_verdict_matches_brute_force(
        subs in prop::collection::vec((0u32..4, filter_strategy()), 0..25),
    ) {
        let mut broker: Broker<Filter> = Broker::new(false);
        let mut mirror: Vec<(Peer, Filter)> = Vec::new();
        for (peer, filter) in subs {
            let peer = Peer::Child(peer);
            let duplicate = mirror.iter().any(|(p, f)| *p == peer && *f == filter);
            let covered = mirror.iter().any(|(_, f)| f.covers(&filter));
            let actions = broker.subscribe(peer, filter.clone());
            let forwarded = actions == vec![Action::ForwardSubscribe(filter.clone())];
            prop_assert!(forwarded || actions.is_empty());
            if duplicate {
                prop_assert!(!forwarded, "duplicate must never forward");
            } else {
                prop_assert_eq!(forwarded, !covered);
                mirror.push((peer, filter));
            }
            prop_assert_eq!(broker.table().len(), mirror.len());
        }
    }
}
