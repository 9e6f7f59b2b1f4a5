//! Property tests for the secure-routing fast path: token-bucketed
//! matching with PRF probing and the per-nonce memo must be
//! observationally identical to a linear scan over a test-local model of
//! the live `SecureFilter` registrations, while performing one PRF
//! verification per *distinct* token (not per subscription).

use std::collections::HashSet;

use proptest::prelude::*;
use psguard_crypto::{prf, Token};
use psguard_model::{AttrValue, Constraint, Event, Op};
use psguard_routing::{RoutableTag, SecureEvent, SecureFilter};
use psguard_siena::{Broker, FilterSemantics, Peer};

fn token(topic: u8) -> Token {
    prf(b"kdc-master", &[topic])
}

fn op_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        (-10i64..40).prop_map(Op::Ge),
        (-10i64..40).prop_map(Op::Le),
        (-10i64..40).prop_map(|v| Op::Eq(AttrValue::Int(v))),
    ]
    .boxed()
}

fn filter_strategy() -> BoxedStrategy<SecureFilter> {
    (0u8..4, prop::collection::vec(("[xy]", op_strategy()), 0..3))
        .prop_map(|(topic, constraints)| SecureFilter {
            token: token(topic),
            constraints: constraints
                .into_iter()
                .map(|(name, op)| Constraint::new(name, op))
                .collect(),
        })
        .boxed()
}

fn event_strategy() -> BoxedStrategy<SecureEvent> {
    (
        0u8..5,
        any::<u128>(),
        prop::collection::vec(("[xy]", -15i64..45), 0..3),
    )
        .prop_map(|(topic, nonce, attrs)| {
            let mut b = Event::builder("");
            for (name, value) in attrs {
                b = b.attr(name, value);
            }
            SecureEvent {
                // Topic 4 is published under a token nobody subscribes to.
                tag: RoutableTag::with_nonce(&token(topic), nonce.to_le_bytes()),
                event: b.payload(vec![0u8; 8]).build(),
                iv: [0u8; 16],
                epoch: 0,
                mac: [0u8; 20],
            }
        })
        .boxed()
}

/// The broker's live registrations, in registration order: the model
/// the linear reference scans.
type Model = Vec<(Peer, SecureFilter)>;

/// Subscribes in the broker and, unless it is a duplicate, in the model.
fn subscribe(broker: &mut Broker<SecureFilter>, live: &mut Model, peer: Peer, f: SecureFilter) {
    if !live.iter().any(|(p, g)| *p == peer && *g == f) {
        live.push((peer, f.clone()));
    }
    broker.subscribe(peer, f);
}

/// Distinct peers of the matching registrations, in first-seen order.
fn linear_scan(live: &Model, event: &SecureEvent) -> Vec<Peer> {
    let mut out: Vec<Peer> = Vec::new();
    for (peer, filter) in live {
        if filter.matches(event) && !out.contains(peer) {
            out.push(*peer);
        }
    }
    out
}

/// The indexed match: a root broker routes an event from its parent to
/// every matching subscriber.
fn route(broker: &mut Broker<SecureFilter>, event: &SecureEvent) -> Vec<Peer> {
    broker.route(Peer::Parent, event).to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn secure_index_agrees_with_linear_scan(
        subs in prop::collection::vec((0u32..6, filter_strategy()), 0..24),
        events in prop::collection::vec(event_strategy(), 1..6),
    ) {
        let mut broker: Broker<SecureFilter> = Broker::new(true);
        let mut live = Model::new();
        for (peer, filter) in subs {
            subscribe(&mut broker, &mut live, Peer::Local(peer), filter);
        }
        prop_assert_eq!(broker.table().len(), live.len());
        for event in &events {
            prop_assert_eq!(route(&mut broker, event), linear_scan(&live, event));
        }
    }

    /// Subscribe / unsubscribe churn: the sweep table follows the live
    /// buckets, so an emptied bucket is skipped (and revived when its
    /// token is subscribed again) and every sweep probes exactly the
    /// distinct tokens that still have a subscription.
    #[test]
    fn churn_probes_exactly_the_live_distinct_tokens(
        ops in prop::collection::vec((any::<bool>(), 0u32..4, filter_strategy()), 1..48),
        events in prop::collection::vec(event_strategy(), 1..4),
    ) {
        let mut broker: Broker<SecureFilter> = Broker::new(true);
        let mut live = Model::new();
        for (join, peer, filter) in ops {
            let peer = Peer::Local(peer);
            if join {
                subscribe(&mut broker, &mut live, peer, filter);
            } else {
                // Half the leaves hit a live registration of this peer.
                let target = live
                    .iter()
                    .find(|(p, f)| *p == peer && f.token == filter.token)
                    .map_or(filter, |(_, f)| f.clone());
                broker.unsubscribe(peer, &target);
                live.retain(|(p, f)| !(*p == peer && *f == target));
            }
            prop_assert_eq!(broker.table().len(), live.len());
            let live_tokens: HashSet<Token> = live.iter().map(|(_, f)| f.token).collect();
            for event in &events {
                prop_assert_eq!(route(&mut broker, event), linear_scan(&live, event));
                let stats = broker.table().last_match_stats();
                // A no-op leave keeps the memo; everything else sweeps.
                if stats.memo_hits == 0 {
                    prop_assert_eq!(stats.key_probes, live_tokens.len() as u64);
                } else {
                    prop_assert_eq!(stats.key_probes, 0);
                }
            }
        }
        // Drain: every bucket empties and nothing is probed any more.
        for peer in 0..4 {
            let held = live.iter().filter(|(p, _)| *p == Peer::Local(peer)).count();
            prop_assert_eq!(broker.peer_down(Peer::Local(peer)), held);
        }
        prop_assert!(broker.table().is_empty());
        for event in &events {
            prop_assert!(route(&mut broker, event).is_empty());
            prop_assert_eq!(broker.table().last_match_stats().key_probes, 0);
        }
    }

    #[test]
    fn prf_work_is_per_distinct_token_and_memoized(
        fanout in 1u32..40,
        nonce in any::<u128>(),
    ) {
        // `fanout` subscribers all share one topic token; a second topic
        // has a single subscriber.
        let mut broker: Broker<SecureFilter> = Broker::new(true);
        for peer in 0..fanout {
            broker.subscribe(
                Peer::Local(peer),
                SecureFilter { token: token(0), constraints: vec![] },
            );
        }
        broker.subscribe(
            Peer::Local(1000),
            SecureFilter { token: token(1), constraints: vec![] },
        );

        let event = SecureEvent {
            tag: RoutableTag::with_nonce(&token(0), nonce.to_le_bytes()),
            event: Event::builder("").payload(vec![1]).build(),
            iv: [0u8; 16],
            epoch: 0,
            mac: [0u8; 20],
        };

        let first = route(&mut broker, &event);
        prop_assert_eq!(first.len() as u32, fanout);
        let stats = broker.table().last_match_stats();
        // One PRF test per distinct live token — 2 — regardless of fanout.
        prop_assert_eq!(stats.key_probes, 2);
        prop_assert_eq!(stats.memo_hits, 0);

        // Re-publishing the same envelope hits the nonce memo: no PRF.
        let second = route(&mut broker, &event);
        prop_assert_eq!(first, second);
        let stats = broker.table().last_match_stats();
        prop_assert_eq!(stats.key_probes, 0);
        prop_assert_eq!(stats.memo_hits, 1);

        // A subscription change invalidates the memo soundly.
        broker.subscribe(
            Peer::Local(2000),
            SecureFilter { token: token(0), constraints: vec![] },
        );
        let third = route(&mut broker, &event);
        prop_assert_eq!(third.len() as u32, fanout + 1);
        prop_assert_eq!(broker.table().last_match_stats().key_probes, 2);

        // Token interning: fanout+2 subscriptions, 2 distinct keys.
        prop_assert_eq!(broker.table().distinct_keys(), 2);
    }
}
