//! The secure match index allocates nothing per event once it is warm:
//! the token sweep runs on the stack and lands its hits in the index's
//! reused scratch, like the counting pass behind it.

use psguard_crypto::{prf, Token};
use psguard_model::{Constraint, Event, IntRange, Op};
use psguard_routing::{RoutableTag, SecureEvent, SecureFilter};
use psguard_siena::{MatchIndex, Peer};

#[path = "../src/alloc_counter.rs"]
mod alloc_counter;

#[global_allocator]
static GLOBAL: alloc_counter::Counting = alloc_counter::Counting;

const TOPICS: u32 = 32;

fn token(topic: u32) -> Token {
    prf(b"alloc-free", &topic.to_be_bytes())
}

fn event(seq: u32) -> SecureEvent {
    let mut nonce = [0u8; 16];
    nonce[..4].copy_from_slice(&seq.to_le_bytes());
    SecureEvent {
        tag: RoutableTag::with_nonce(&token(seq % TOPICS), nonce),
        event: Event::builder("").attr("x", i64::from(seq % 64)).build(),
        iv: [0u8; 16],
        epoch: 0,
        mac: [0u8; 20],
    }
}

// The only test in this binary: the counter is process-wide.
#[test]
fn secure_match_index_steady_state_queries_allocate_nothing() {
    let mut index: MatchIndex<SecureFilter> = MatchIndex::new();
    for i in 0..256u32 {
        let lo = i64::from(i % 48);
        let filter = SecureFilter {
            token: token(i % TOPICS),
            constraints: vec![Constraint::new(
                "x",
                Op::InRange(IntRange::new(lo, lo + 16).expect("ordered")),
            )],
        };
        index.insert(Peer::Local(i % 40), filter);
    }
    // Fresh nonces throughout, so every query sweeps. The warm-up runs
    // past the probe memo's capacity twice: its map and slab have reached
    // their final size and been recycled before counting starts.
    let events: Vec<SecureEvent> = (0..4096).map(event).collect();
    let (warm_up, measured) = events.split_at(2560);
    let mut matches = Vec::new();
    let mut peers = Vec::new();
    for e in warm_up {
        index.query_matches_into(e, &mut matches);
        index.query_into(e, &mut peers);
    }

    let before = alloc_counter::ALLOCS.load(std::sync::atomic::Ordering::Relaxed);
    let mut matched = 0;
    for e in measured {
        index.query_matches_into(e, &mut matches);
        assert_eq!(index.last_match_stats().key_probes, u64::from(TOPICS));
        index.query_into(e, &mut peers);
        assert_eq!(index.last_match_stats().memo_hits, 1);
        matched += matches.len();
    }
    let allocs = alloc_counter::ALLOCS.load(std::sync::atomic::Ordering::Relaxed) - before;
    assert!(
        matched > 0,
        "the measured events must exercise the counting pass"
    );
    assert_eq!(allocs, 0, "steady-state queries must not allocate");
}
