//! Deterministic work bounds for the broker's mutation paths: a
//! duplicate subscribe, a new subscribe and both kinds of unsubscribe
//! compare the same number of filters whether the table holds 100 or
//! 20,000 other registrations, and `peer_down` removes exactly the
//! departing peer's registrations. Work is counted in filter equality
//! tests (a wrapper filter bumps a static counter in `PartialEq::eq`),
//! not in wall-clock time, so the bound is exact and load-independent.

use std::sync::atomic::{AtomicU64, Ordering};

use psguard_model::{AttrName, AttrValue, Constraint, Event, Filter, IntRange, Op};
use psguard_siena::{Action, Broker, FilterSemantics, IndexableFilter, KeyQuery, Peer};

/// `PartialEq::eq` calls on [`Counted`] filters. Only
/// `mutations_compare_a_constant_number_of_filters` uses `Counted`, so
/// no other test in this binary moves the counter.
static EQ_CALLS: AtomicU64 = AtomicU64::new(0);

/// A plain filter whose equality tests are counted.
#[derive(Debug, Clone)]
struct Counted(Filter);

impl PartialEq for Counted {
    fn eq(&self, other: &Self) -> bool {
        EQ_CALLS.fetch_add(1, Ordering::Relaxed);
        self.0 == other.0
    }
}

impl FilterSemantics for Counted {
    type Event = Event;

    fn matches(&self, event: &Event) -> bool {
        self.0.matches(event)
    }

    fn covers(&self, other: &Self) -> bool {
        self.0.covers(&other.0)
    }
}

impl IndexableFilter for Counted {
    type Key = Option<String>;

    fn routing_key(&self) -> Option<String> {
        self.0.routing_key()
    }

    fn indexed_constraints(&self) -> &[Constraint] {
        self.0.indexed_constraints()
    }

    fn event_attr<'a>(event: &'a Event, name: &AttrName) -> Option<&'a AttrValue> {
        Filter::event_attr(event, name)
    }

    fn candidate_keys(event: &Event) -> KeyQuery<Option<String>> {
        Filter::candidate_keys(event)
    }

    fn covering_candidate_keys(&self) -> Vec<Option<String>> {
        self.0.covering_candidate_keys()
    }
}

fn ranged(topic: &str, lo: i64, hi: i64) -> Filter {
    Filter::for_topic(topic).with(Constraint::new(
        "x",
        Op::InRange(IntRange::new(lo, hi).expect("lo <= hi")),
    ))
}

const P: Peer = Peer::Local(1);
const Q: Peer = Peer::Local(2);

/// The filter under test: topic `t`, `x` in `[10, 20]`.
fn target() -> Counted {
    Counted(ranged("t", 10, 20))
}

/// A non-root broker where `Q` holds the target filter, beside `extra`
/// other registrations: the target's peers on the target's topic with
/// other ranges, other peers on the same topic, and other topics.
fn broker_with(extra: usize) -> Broker<Counted> {
    let mut b: Broker<Counted> = Broker::new(false);
    // One broad filter per topic, registered first, covers everything
    // after it, so building the table costs one covering test per
    // subscribe instead of a scan of the bucket.
    let broad: Vec<Counted> = std::iter::once("t".to_owned())
        .chain((0..13).map(|k| format!("other{k}")))
        .map(|t| Counted(ranged(&t, i64::MIN, i64::MAX)))
        .collect();
    for f in &broad {
        b.subscribe(Peer::Local(9), f.clone());
    }
    for i in 0..extra {
        let lo = 100 + i as i64;
        let (peer, topic) = match i % 4 {
            0 => (P, "t".to_owned()),
            1 => (Q, "t".to_owned()),
            2 => (Peer::Local(10 + (i % 97) as u32), "t".to_owned()),
            _ => (
                Peer::Local(10 + (i % 97) as u32),
                format!("other{}", i % 13),
            ),
        };
        b.subscribe(peer, Counted(ranged(&topic, lo, lo + 5)));
    }
    b.subscribe(Q, target());
    assert_eq!(b.table().len(), broad.len() + extra + 1);
    b
}

/// Runs `op` and returns its `eq` calls.
fn eq_calls(op: impl FnOnce()) -> u64 {
    let before = EQ_CALLS.load(Ordering::Relaxed);
    op();
    EQ_CALLS.load(Ordering::Relaxed) - before
}

/// `eq` calls of: a duplicate subscribe, a new subscribe, an
/// unsubscribe another peer's registration keeps local, and the last
/// unsubscribe, which goes upstream.
fn mutation_costs(extra: usize) -> [u64; 4] {
    let mut b = broker_with(extra);
    let len = b.table().len();
    let dup = eq_calls(|| assert!(b.subscribe(Q, target()).is_empty()));
    let new = eq_calls(|| {
        b.subscribe(P, target());
    });
    assert_eq!(b.table().len(), len + 1);
    let kept = eq_calls(|| assert!(b.unsubscribe(P, &target()).is_empty()));
    let forwarded = eq_calls(|| {
        assert_eq!(
            b.unsubscribe(Q, &target()),
            vec![Action::ForwardUnsubscribe(target())]
        );
    });
    assert_eq!(b.table().len(), len - 1);
    [dup, new, kept, forwarded]
}

#[test]
fn mutations_compare_a_constant_number_of_filters() {
    let small = mutation_costs(100);
    let large = mutation_costs(20_000);
    assert_eq!(
        small, large,
        "[duplicate subscribe, new subscribe, local unsubscribe, forwarded unsubscribe]"
    );
}

#[test]
fn peer_down_removes_exactly_the_peers_registrations() {
    let mut b: Broker<Filter> = Broker::new(true);
    let k = 300;
    for i in 0..k {
        b.subscribe(P, ranged(&format!("t{}", i % 7), i, i + 50));
    }
    for i in 0..200 {
        b.subscribe(
            Peer::Local(3 + i as u32 % 5),
            ranged(&format!("t{}", i % 7), i, i + 50),
        );
    }
    let events: Vec<Event> = (0..7)
        .flat_map(|t| [0i64, 60, 250].map(|x| Event::builder(format!("t{t}")).attr("x", x).build()))
        .collect();
    let others = |b: &mut Broker<Filter>| -> Vec<Vec<Peer>> {
        events
            .iter()
            .map(|e| {
                let peers = b.route(Peer::Parent, e);
                peers.iter().copied().filter(|&p| p != P).collect()
            })
            .collect()
    };
    let before = others(&mut b);
    assert_eq!(b.peer_down(P), k as usize);
    assert_eq!(b.table().len(), 200);
    assert_eq!(others(&mut b), before);
    for e in &events {
        assert!(!b.route(Peer::Parent, e).contains(&P));
    }
    assert_eq!(b.peer_down(P), 0);
}
