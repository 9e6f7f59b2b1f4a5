//! Reduced-N oracle check for the `e2e_scaling` macro-bench path: every
//! scenario kind replayed event-by-event through `Broker::route` over
//! secure filters (the exact trace→broker mapping the bench uses, churn
//! and revocations included), with each event's recipients compared
//! against a brute-force scan of the live subscriptions.

use std::collections::HashSet;

use psguard_analysis::{ChurnKind, ScenarioConfig, ScenarioKind, ScenarioTrace, Subscription};
use psguard_crypto::{prf, Token};
use psguard_model::{Constraint, Event, IntRange, Op};
use psguard_routing::{RoutableTag, SecureEvent, SecureFilter};
use psguard_siena::{Broker, Peer};

fn topic_token(t: u32) -> Token {
    prf(b"e2e-smoke", format!("topic{t:03}").as_bytes())
}

fn secure_filter(s: &Subscription) -> SecureFilter {
    SecureFilter {
        token: topic_token(s.topic),
        constraints: vec![Constraint::new(
            "x",
            Op::InRange(IntRange::new(s.lo, s.hi).expect("trace ranges ordered")),
        )],
    }
}

fn secure_event(topic: u32, value: i64, seq: u64) -> SecureEvent {
    let mut nonce = [0u8; 16];
    nonce[..8].copy_from_slice(&seq.to_le_bytes());
    SecureEvent {
        tag: RoutableTag::with_nonce(&topic_token(topic), nonce),
        event: Event::builder("").attr("x", value).build(),
        iv: [0u8; 16],
        epoch: 0,
        mac: [0u8; 20],
    }
}

#[test]
fn every_scenario_matches_the_brute_force_oracle() {
    for (i, kind) in ScenarioKind::ALL.into_iter().enumerate() {
        let cfg = ScenarioConfig {
            kind,
            topics: 8,
            zipf_s: 1.1,
            subscribers: 24,
            events: 96,
            value_range: 64,
            sub_width: 32,
            seed: 0x51A + i as u64,
        };
        let trace = ScenarioTrace::generate(&cfg);
        let label = kind.name();

        let mut broker: Broker<SecureFilter> = Broker::new(true);
        // The oracle's live subscriptions, with the broker table's set
        // semantics: a `(client, filter)` pair registers at most once,
        // so a duplicate join is a no-op and one leave removes it.
        let mut live: Vec<Subscription> = Vec::new();
        let join =
            |broker: &mut Broker<SecureFilter>, live: &mut Vec<Subscription>, s: Subscription| {
                broker.subscribe(Peer::Local(s.client), secure_filter(&s));
                if !live.contains(&s) {
                    live.push(s);
                }
                assert_eq!(broker.table().len(), live.len(), "{label}: join of {s:?}");
            };
        for &s in &trace.initial {
            join(&mut broker, &mut live, s);
        }

        let mut churn = trace.churn.iter().peekable();
        let mut revs = trace.revocations.iter().peekable();
        let mut scenario_deliveries = 0usize;
        for (at, p) in trace.publishes.iter().enumerate() {
            while let Some(c) = churn.peek().filter(|c| c.at_event <= at) {
                match c.kind {
                    ChurnKind::Join => join(&mut broker, &mut live, c.sub),
                    ChurnKind::Leave => {
                        broker.unsubscribe(Peer::Local(c.sub.client), &secure_filter(&c.sub));
                        live.retain(|s| s != &c.sub);
                        assert_eq!(
                            broker.table().len(),
                            live.len(),
                            "{label}: leave of {:?}",
                            c.sub
                        );
                    }
                }
                churn.next();
            }
            while let Some(r) = revs.peek().filter(|r| r.at_event <= at) {
                let held = live.iter().filter(|s| s.client == r.client).count();
                live.retain(|s| s.client != r.client);
                assert_eq!(
                    broker.peer_down(Peer::Local(r.client)),
                    held,
                    "{label}: revocation of client {}",
                    r.client
                );
                revs.next();
            }

            let event = secure_event(p.topic, p.value, at as u64);
            let mut got: Vec<Peer> = broker.route(Peer::Parent, &event).to_vec();
            got.sort_unstable();

            let mut expected: Vec<Peer> = live
                .iter()
                .filter(|s| s.topic == p.topic && (s.lo..=s.hi).contains(&p.value))
                .map(|s| Peer::Local(s.client))
                .collect::<HashSet<_>>()
                .into_iter()
                .collect();
            expected.sort_unstable();
            assert_eq!(
                got, expected,
                "{label}: delivered set diverges from oracle at event {at} ({p:?})"
            );
            scenario_deliveries += got.len();
        }
        assert!(
            scenario_deliveries > 0,
            "{label}: degenerate scenario (no deliveries at all)"
        );
    }
}
