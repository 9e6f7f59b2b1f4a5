//! The seed reaches only the generator, and everything downstream of the
//! generator that is a count — not a time — repeats exactly.

use std::path::Path;

use psguard_pathbench::oracle::Coverage;
use psguard_pathbench::staged::{Stage, StagedCounts, Trace};
use psguard_pathbench::workload::{self, Generator, Spec};

/// Events per traced replay: enough to cross topics and cache states,
/// small enough for an unoptimised test build.
const EVENTS: u64 = 192;

/// Every workload shape, with background populations cut to test size.
fn shapes() -> Vec<Spec> {
    workload::all()
        .into_iter()
        .map(|s| {
            let n = s.bg_subs.min(600);
            s.with_bg_subs(n)
        })
        .collect()
}

struct Traced {
    hash: String,
    expected: Vec<u64>,
    counts: StagedCounts,
}

fn traced(spec: &Spec, seed: u64) -> Traced {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let gen = Generator::new(spec, seed);
    let mut stage = Stage::new(&gen, scratch);
    let mut trace = Trace::new(true);
    stage.replay(0..EVENTS, &mut trace);
    let (_, spans, counts) = trace.finish();
    stage.cleanup();
    // One root per event, every other span caused by a root or a layer.
    assert_eq!(
        spans.iter().filter(|s| s.name == "event").count() as u64,
        EVENTS
    );
    assert!(spans
        .iter()
        .all(|s| (s.name == "event") == (s.parent == u32::MAX) && s.start_ns <= s.end_ns));
    Traced {
        hash: gen.trace_hash(EVENTS),
        expected: Coverage::build(&gen).expected_counts(&gen, EVENTS),
        counts,
    }
}

#[test]
fn same_seed_repeats_every_count() {
    for spec in shapes() {
        let (a, b) = (traced(&spec, 11), traced(&spec, 11));
        let name = spec.name;
        assert_eq!(a.hash, b.hash, "{name}: trace.hash");
        assert_eq!(a.expected, b.expected, "{name}: expected deliveries");
        let (ca, cb) = (&a.counts, &b.counts);
        assert_eq!(
            ca.match_stats.key_probes, cb.match_stats.key_probes,
            "{name}: routing.probes_per_event"
        );
        assert_eq!(
            ca.match_stats.work(),
            cb.match_stats.work(),
            "{name}: siena.index.work_per_event"
        );
        assert_eq!(
            ca.matched_entries, cb.matched_entries,
            "{name}: matched entries"
        );
        assert_eq!(ca.deliveries, cb.deliveries, "{name}: deliveries");
        assert_eq!(ca.publish_ops, cb.publish_ops, "{name}: publish KH");
        assert_eq!(ca.decrypt_ops, cb.decrypt_ops, "{name}: decrypt KH");
        assert_eq!(ca.socket_bytes, cb.socket_bytes, "{name}: socket bytes");
        for layer in ["psguard.publish", "psguard.decrypt", "siena.frame.encode"] {
            assert_eq!(
                ca.layer(layer).allocs,
                cb.layer(layer).allocs,
                "{name}: {layer} allocations"
            );
            assert_eq!(
                ca.layer(layer).calls,
                cb.layer(layer).calls,
                "{name}: {layer} calls"
            );
        }
    }
}

#[test]
fn staged_deliveries_equal_the_oracle() {
    for spec in shapes() {
        let t = traced(&spec, 5);
        // The churned connection's first window is registered in the
        // staged broker but is not one of the oracle's fixed connections.
        if spec.churn.is_none() {
            assert_eq!(
                t.counts.deliveries,
                t.expected.iter().sum::<u64>(),
                "{}: the staged broker delivers what the oracle expects",
                spec.name
            );
        }
        assert_eq!(
            t.expected[0], EVENTS,
            "{}: the probe sees every event",
            spec.name
        );
        assert_eq!(
            t.counts.match_stats.key_probes,
            EVENTS * spec.topics as u64,
            "{}: one probe per live token per event",
            spec.name
        );
    }
}

#[test]
fn another_seed_changes_the_trace() {
    for spec in shapes() {
        let (a, b) = (Generator::new(&spec, 11), Generator::new(&spec, 12));
        assert_ne!(a.trace_hash(EVENTS), b.trace_hash(EVENTS), "{}", spec.name);
        let stream = |g: &Generator| (0..EVENTS).map(|id| g.event_attrs(id)).collect::<Vec<_>>();
        assert_ne!(stream(&a), stream(&b), "{}", spec.name);
    }
}

#[test]
fn the_layer_split_is_the_one_the_workloads_were_chosen_for() {
    let by_name = |name: &str| shapes().into_iter().find(|s| s.name == name).unwrap();
    let fanout = traced(&by_name("fanout_wide"), 3).counts;
    assert_eq!(
        fanout.deliveries,
        65 * EVENTS,
        "fanout_wide: 65 deliveries per event"
    );
    let heavy = traced(&by_name("match_heavy"), 3).counts;
    assert!(
        heavy.deliveries <= 3 * EVENTS,
        "match_heavy: at most 3 deliveries per event"
    );
    let durable = traced(&by_name("durable_bulk"), 3).counts;
    assert_eq!(durable.layer("siena.log.append").calls, EVENTS);
    assert!(
        durable.log_bytes > EVENTS * 4_096,
        "the log holds every sealed payload"
    );
    assert_eq!(
        fanout.layer("siena.log.append").calls,
        0,
        "only durable_bulk logs"
    );
}
