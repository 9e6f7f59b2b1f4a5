//! A numeric KDC grant allocates a constant plus two per key: the
//! cover descent builds each key's ktid and scope and nothing per tree
//! node it visits.

use psguard_keys::{EpochId, Kdc, OpCounter, Schema, TopicScope};
use psguard_model::{Constraint, Filter, IntRange, Op};

#[path = "../src/alloc_counter.rs"]
mod alloc_counter;

#[global_allocator]
static GLOBAL: alloc_counter::Counting = alloc_counter::Counting;

/// Allocations per grant beyond two per key: the topic-key label, the
/// per-attribute map and its operator list, the grant's topic, its
/// constraint list and attribute name, the descent's digit buffer, and
/// the key list's growth (three steps for the at most 14 keys of R = 256).
const PER_GRANT: u64 = 10;

// The only test in this binary: the counter is process-wide.
#[test]
fn numeric_grant_allocates_two_per_key_plus_a_constant() {
    let kdc = Kdc::from_seed(b"alloc-grant");
    let schema = Schema::builder()
        .numeric("x", IntRange::new(0, 255).expect("ordered"), 1)
        .expect("valid")
        .build();
    let filters: Vec<Filter> = (0..256i64)
        .step_by(7)
        .flat_map(|lo| [1, 5, 33, 96, 200].map(move |w| (lo, (lo + w).min(255))))
        .map(|(lo, hi)| {
            let range = IntRange::new(lo, hi).expect("ordered");
            Filter::for_topic("w").with(Constraint::new("x", Op::InRange(range)))
        })
        .collect();

    for filter in &filters {
        let mut ops = OpCounter::new();
        let before = alloc_counter::ALLOCS.load(std::sync::atomic::Ordering::Relaxed);
        let grant = kdc
            .grant(&schema, filter, EpochId(0), &TopicScope::Shared, &mut ops)
            .expect("grantable");
        let allocs = alloc_counter::ALLOCS.load(std::sync::atomic::Ordering::Relaxed) - before;
        let keys = grant.key_count() as u64;
        assert!(
            allocs <= 2 * keys + PER_GRANT,
            "{filter}: {allocs} allocations for {keys} keys (ceiling {})",
            2 * keys + PER_GRANT
        );
    }
}
