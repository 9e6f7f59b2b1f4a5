//! Property tests for the secure-routing fast path: token-bucketed
//! matching with PRF probing and the per-nonce memo must be
//! observationally identical to the linear scan over every
//! `SecureFilter`, while performing one PRF verification per *distinct*
//! token (not per subscription).

use std::collections::HashSet;

use proptest::prelude::*;
use psguard_crypto::{prf, Token};
use psguard_model::{AttrValue, Constraint, Event, Op};
use psguard_routing::{RoutableTag, SecureEvent, SecureFilter};
use psguard_siena::{Peer, SubscriptionTable};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn secure_index_agrees_with_linear_scan(
        subs in prop::collection::vec((0u32..6, filter_strategy()), 0..24),
        events in prop::collection::vec(event_strategy(), 1..6),
    ) {
        let mut table: SubscriptionTable<SecureFilter> = SubscriptionTable::new();
        for (peer, filter) in subs {
            table.insert(Peer::Local(peer), filter);
        }
        for event in &events {
            let fast = table.matching_peers(event);
            let reference = table.matching_peers_linear(event);
            prop_assert_eq!(fast, reference);
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
        let mut table: SubscriptionTable<SecureFilter> = SubscriptionTable::new();
        for (subscribe, peer, filter) in ops {
            let peer = Peer::Local(peer);
            if subscribe {
                table.insert(peer, filter);
            } else {
                // Half the leaves hit a live registration of this peer.
                let target = table
                    .entries()
                    .iter()
                    .find(|(p, f)| *p == peer && f.token == filter.token)
                    .map_or(filter, |(_, f)| f.clone());
                table.remove(peer, &target);
            }
            let live_tokens: HashSet<Token> =
                table.entries().iter().map(|(_, f)| f.token).collect();
            for event in &events {
                let fast = table.matching_peers(event);
                prop_assert_eq!(fast, table.matching_peers_linear(event));
                let stats = table.last_match_stats();
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
            table.remove_peer(Peer::Local(peer));
        }
        prop_assert!(table.is_empty());
        for event in &events {
            prop_assert!(table.matching_peers(event).is_empty());
            prop_assert_eq!(table.last_match_stats().key_probes, 0);
        }
    }

    #[test]
    fn prf_work_is_per_distinct_token_and_memoized(
        fanout in 1u32..40,
        nonce in any::<u128>(),
    ) {
        // `fanout` subscribers all share one topic token; a second topic
        // has a single subscriber.
        let mut table: SubscriptionTable<SecureFilter> = SubscriptionTable::new();
        for peer in 0..fanout {
            table.insert(
                Peer::Local(peer),
                SecureFilter { token: token(0), constraints: vec![] },
            );
        }
        table.insert(
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

        let first = table.matching_peers(&event);
        prop_assert_eq!(first.len() as u32, fanout);
        let stats = table.last_match_stats();
        // One PRF test per distinct live token — 2 — regardless of fanout.
        prop_assert_eq!(stats.key_probes, 2);
        prop_assert_eq!(stats.memo_hits, 0);

        // Re-publishing the same envelope hits the nonce memo: no PRF.
        let second = table.matching_peers(&event);
        prop_assert_eq!(first, second);
        let stats = table.last_match_stats();
        prop_assert_eq!(stats.key_probes, 0);
        prop_assert_eq!(stats.memo_hits, 1);

        // A subscription change invalidates the memo soundly.
        table.insert(
            Peer::Local(2000),
            SecureFilter { token: token(0), constraints: vec![] },
        );
        let third = table.matching_peers(&event);
        prop_assert_eq!(third.len() as u32, fanout + 1);
        prop_assert_eq!(table.last_match_stats().key_probes, 2);

        // Token interning: fanout+2 subscriptions, 2 distinct keys.
        prop_assert_eq!(table.index().distinct_keys(), 2);
    }
}
