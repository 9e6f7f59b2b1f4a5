//! The chaos harness: the overlay engine run under seeded fault plans,
//! with the delivery invariants the recovery machinery must uphold.
//!
//! Invariants checked here:
//!
//! 1. **Zero-fault equivalence** — `run_faulty` with a fault-free plan is
//!    behaviorally identical to `run`, across topologies.
//! 2. **Exactly-once eventual delivery** — with retransmission and dedup
//!    enabled, lossy/duplicating/jittery links never lose or double a
//!    copy (checked over 20+ explicit seeds and property-sampled plans).
//! 3. **Crash recovery** — a broker outage mid-run delays, but does not
//!    lose or duplicate, deliveries.
//! 4. **Revocation safety** — once a client is revoked, no event
//!    published after the revocation instant reaches it, faults or not.
//! 5. **Non-matching silence** — fault machinery (retransmits, dups,
//!    restarts) never leaks an event to a client whose filter does not
//!    match it.
//! 6. **Eviction + heal** — a partitioned child broker is evicted after
//!    missed heartbeats and its subtree resumes delivery after healing.

use std::collections::HashSet;

use proptest::prelude::*;
use psguard_model::{Event, Filter};
use psguard_net::{FaultPlan, LinkFaults, NodeId, Window};
use psguard_siena::{
    CostModel, Engine, EngineConfig, FaultConfig, FaultRunReport, RecoveryConfig, Revocation,
};

fn engine(brokers: u32, subs: u32) -> Engine<Filter> {
    Engine::new(EngineConfig {
        broker_nodes: brokers,
        subscribers: subs,
        seed: 42,
    })
}

fn workload() -> Vec<Event> {
    (0..8)
        .map(|i| Event::builder("t").attr("x", i as i64).build())
        .collect()
}

/// The highest client id `trace` touches (initial or churned-in).
fn max_client(trace: &psguard_analysis::ScenarioTrace) -> Option<u32> {
    let initial = trace.initial.iter().map(|s| s.client);
    initial
        .chain(trace.churn.iter().map(|c| c.sub.client))
        .max()
}

/// Asserts the exactly-once contract: every published event reaches every
/// matching client exactly once.
fn assert_exactly_once(r: &FaultRunReport, clients: &[u32], label: &str) {
    assert_eq!(
        r.delivered,
        r.published * clients.len() as u64,
        "{label}: delivered != published × subscribers: {r:?}"
    );
    let mut seen = HashSet::new();
    for d in &r.deliveries {
        assert!(
            seen.insert((d.client, d.event_seq)),
            "{label}: duplicate delivery of seq {} to client {}",
            d.event_seq,
            d.client
        );
    }
    for &c in clients {
        for seq in 0..r.published {
            assert!(
                seen.contains(&(c, seq)),
                "{label}: client {c} missed seq {seq}"
            );
        }
    }
}

#[test]
fn zero_fault_equivalence_across_topologies() {
    let events = workload();
    for brokers in [2u32, 6, 14] {
        let subs = 6u32;
        let mut a = engine(brokers, subs);
        let mut b = engine(brokers, subs);
        for c in 0..subs {
            a.subscribe(c, Filter::for_topic("t"));
            b.subscribe(c, Filter::for_topic("t"));
        }
        let plain = a.run(&events, 40.0, 1.0, &CostModel::plain());
        let mut cfg = FaultConfig::none(7);
        let faulty = b.run_faulty(&events, 40.0, 1.0, &CostModel::plain(), &mut cfg);
        assert_eq!(faulty.published, plain.published, "brokers={brokers}");
        assert_eq!(faulty.delivered, plain.delivered, "brokers={brokers}");
        assert!(
            (faulty.mean_latency_ms - plain.mean_latency_ms).abs() < 1e-9,
            "brokers={brokers}: {} vs {}",
            faulty.mean_latency_ms,
            plain.mean_latency_ms
        );
        assert!(
            (faulty.p99_latency_ms - plain.p99_latency_ms).abs() < 1e-9,
            "brokers={brokers}"
        );
        assert_eq!(faulty.retransmissions, 0);
        assert_eq!(faulty.duplicates_suppressed, 0);
        assert_eq!(faulty.fault_stats.dropped, 0);
    }
}

#[test]
fn exactly_once_holds_for_twenty_seeds() {
    let events = workload();
    let clients: Vec<u32> = (0..6).collect();
    for seed in 0..20u64 {
        let mut eng = engine(6, 6);
        for &c in &clients {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        let plan = FaultPlan::new(seed).with_default_link_faults(LinkFaults {
            drop_p: 0.2,
            dup_p: 0.1,
            jitter_us: 10_000,
        });
        let mut cfg = FaultConfig::with_recovery(plan);
        cfg.recovery = Some(RecoveryConfig::no_heartbeats());
        cfg.record_deliveries = true;
        let r = eng.run_faulty(&events, 40.0, 1.0, &CostModel::plain(), &mut cfg);
        assert_eq!(r.abandoned, 0, "seed {seed}: no hop may be abandoned");
        assert_exactly_once(&r, &clients, &format!("seed {seed}"));
    }
}

#[test]
fn broker_outage_delays_but_never_loses() {
    let events = workload();
    let clients: Vec<u32> = (0..4).collect();
    for (from, until) in [(200_000u64, 700_000u64), (400_000, 1_500_000)] {
        let mut eng = engine(6, 4);
        for &c in &clients {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        let mut plan = FaultPlan::new(13);
        plan.add_crash(NodeId(2), Window::new(from, until));
        let mut cfg = FaultConfig::with_recovery(plan);
        cfg.recovery = Some(RecoveryConfig::no_heartbeats());
        cfg.record_deliveries = true;
        let r = eng.run_faulty(&events, 30.0, 1.0, &CostModel::plain(), &mut cfg);
        assert_exactly_once(&r, &clients, &format!("outage {from}..{until}"));
    }
}

#[test]
fn durable_crash_and_restart_is_exactly_once_for_twenty_seeds() {
    // Brokers modeled with durable event logs: a crash-and-restart keeps
    // the dedup window (re-seeded from the recovered log's high-water
    // mark) and the unacked outbound hops, so lossy links *plus* a
    // mid-run broker outage still deliver exactly once — with the
    // post-restart duplicates counted as suppressed, never re-delivered.
    let events = workload();
    let clients: Vec<u32> = (0..6).collect();
    for seed in 0..20u64 {
        let mut eng = engine(6, 6);
        for &c in &clients {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        let victim = 1 + (seed % 5) as u32;
        let from = 150_000 + 20_000 * seed;
        let mut plan = FaultPlan::new(seed).with_default_link_faults(LinkFaults {
            drop_p: 0.2,
            dup_p: 0.1,
            jitter_us: 10_000,
        });
        plan.add_crash(NodeId(victim), Window::new(from, from + 500_000));
        let mut cfg = FaultConfig::with_recovery(plan);
        cfg.recovery = Some(RecoveryConfig {
            heartbeat_interval_us: 0,
            ..RecoveryConfig::durable()
        });
        cfg.record_deliveries = true;
        let r = eng.run_faulty(&events, 40.0, 1.0, &CostModel::plain(), &mut cfg);
        assert_eq!(r.abandoned, 0, "seed {seed}: no hop may be abandoned");
        assert_exactly_once(&r, &clients, &format!("durable crash seed {seed}"));
    }
}

#[test]
fn revocation_is_safe_under_faults() {
    let events = workload();
    let revoke_at = 400_000u64;
    let mut eng = engine(6, 8);
    for c in 0..8 {
        eng.subscribe(c, Filter::for_topic("t"));
    }
    let plan = FaultPlan::new(21).with_default_link_faults(LinkFaults {
        drop_p: 0.15,
        dup_p: 0.15,
        jitter_us: 15_000,
    });
    let mut cfg = FaultConfig::with_recovery(plan);
    cfg.recovery = Some(RecoveryConfig::no_heartbeats());
    cfg.revocations = vec![Revocation {
        client: 5,
        at_us: revoke_at,
    }];
    cfg.record_deliveries = true;
    let r = eng.run_faulty(&events, 40.0, 1.0, &CostModel::plain(), &mut cfg);
    assert_eq!(r.revoked, vec![(5, revoke_at)]);
    for d in r.deliveries.iter().filter(|d| d.client == 5) {
        assert!(
            d.sent_at < revoke_at,
            "post-revocation event (sent {}) delivered to revoked client",
            d.sent_at
        );
    }
    // The surviving clients keep the exactly-once guarantee.
    let others: Vec<u32> = (0..8).filter(|&c| c != 5).collect();
    let mut seen = HashSet::new();
    for d in r.deliveries.iter().filter(|d| d.client != 5) {
        assert!(seen.insert((d.client, d.event_seq)));
    }
    assert_eq!(seen.len() as u64, r.published * others.len() as u64);
}

#[test]
fn non_matching_subscribers_stay_silent_under_faults() {
    let events = workload();
    let mut eng = engine(6, 8);
    // Even clients match the workload topic; odd clients subscribe to a
    // topic nobody publishes.
    for c in 0..8u32 {
        let topic = if c % 2 == 0 { "t" } else { "quiet" };
        eng.subscribe(c, Filter::for_topic(topic));
    }
    let plan = FaultPlan::new(31).with_default_link_faults(LinkFaults {
        drop_p: 0.2,
        dup_p: 0.25,
        jitter_us: 20_000,
    });
    let mut cfg = FaultConfig::with_recovery(plan);
    cfg.recovery = Some(RecoveryConfig::no_heartbeats());
    cfg.record_deliveries = true;
    let r = eng.run_faulty(&events, 40.0, 1.0, &CostModel::plain(), &mut cfg);
    assert!(
        r.deliveries.iter().all(|d| d.client % 2 == 0),
        "faults must never leak events to non-matching clients: {r:?}"
    );
    let matching: Vec<u32> = (0..8).filter(|c| c % 2 == 0).collect();
    assert_exactly_once(&r, &matching, "matching half");
}

#[test]
fn partitioned_child_is_evicted_and_heals() {
    let events = workload();
    let mut eng = engine(2, 4);
    for c in 0..4 {
        eng.subscribe(c, Filter::for_topic("t"));
    }
    let mut plan = FaultPlan::new(17);
    plan.add_partition(NodeId(0), NodeId(1), Window::new(100_000, 1_600_000));
    let mut cfg = FaultConfig::with_recovery(plan);
    cfg.recovery = Some(RecoveryConfig {
        ack_timeout_us: 100_000,
        max_retries: 2,
        backoff_cap_us: 200_000,
        heartbeat_interval_us: 200_000,
        ..RecoveryConfig::overlay_default()
    });
    cfg.record_deliveries = true;
    let r = eng.run_faulty(&events, 20.0, 3.0, &CostModel::plain(), &mut cfg);
    assert!(r.evictions >= 1, "partition must trigger eviction: {r:?}");
    assert!(r.reinstalls >= 1, "heal must reinstall: {r:?}");
    // Every client still receives events published after the heal.
    for c in 0..4u32 {
        assert!(
            r.deliveries
                .iter()
                .any(|d| d.client == c && d.sent_at > 2_200_000),
            "client {c} must resume post-heal: {r:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exactly-once eventual delivery under arbitrary seeded lossy plans:
    /// any combination of drop/dup/jitter, topology, and rate — as long
    /// as retransmission and dedup are on — delivers every event to every
    /// subscriber exactly once.
    #[test]
    fn exactly_once_under_any_lossy_plan(
        seed in 0u64..1_000_000,
        drop_p in 0.0f64..0.3,
        dup_p in 0.0f64..0.3,
        jitter_ms in 0u64..20,
        brokers in prop_oneof![Just(2u32), Just(6u32)],
        subs in 2u32..6,
        rate in 20.0f64..50.0,
    ) {
        let events = workload();
        let clients: Vec<u32> = (0..subs).collect();
        let mut eng = engine(brokers, subs);
        for &c in &clients {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        let plan = FaultPlan::new(seed).with_default_link_faults(LinkFaults {
            drop_p,
            dup_p,
            jitter_us: jitter_ms * 1000,
        });
        let mut cfg = FaultConfig::with_recovery(plan);
        cfg.recovery = Some(RecoveryConfig::no_heartbeats());
        cfg.record_deliveries = true;
        let r = eng.run_faulty(&events, rate, 0.5, &CostModel::plain(), &mut cfg);
        prop_assert_eq!(r.abandoned, 0, "no hop may exhaust retries: {:?}", r);
        prop_assert_eq!(
            r.delivered,
            r.published * clients.len() as u64,
            "delivery fraction {} under {:?}",
            r.delivery_fraction(r.published * clients.len() as u64),
            r.fault_stats
        );
        let mut seen = HashSet::new();
        for d in &r.deliveries {
            prop_assert!(seen.insert((d.client, d.event_seq)), "duplicate {:?}", d);
        }
    }

    /// Exactly-once across a broker crash window on clean links: the
    /// outage may delay deliveries arbitrarily but never lose or double.
    #[test]
    fn exactly_once_across_any_broker_crash(
        seed in 0u64..1_000_000,
        victim in 1u32..6,
        from_ms in 50u64..400,
        len_ms in 50u64..600,
        subs in 2u32..6,
    ) {
        let events = workload();
        let clients: Vec<u32> = (0..subs).collect();
        let mut eng = engine(6, subs);
        for &c in &clients {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        let mut plan = FaultPlan::new(seed);
        plan.add_crash(
            NodeId(victim),
            Window::new(from_ms * 1000, (from_ms + len_ms) * 1000),
        );
        let mut cfg = FaultConfig::with_recovery(plan);
        cfg.recovery = Some(RecoveryConfig::no_heartbeats());
        cfg.record_deliveries = true;
        let r = eng.run_faulty(&events, 30.0, 1.0, &CostModel::plain(), &mut cfg);
        prop_assert_eq!(
            r.delivered,
            r.published * clients.len() as u64,
            "crash {}..{} of broker {}: {:?}",
            from_ms,
            from_ms + len_ms,
            victim,
            r
        );
        let mut seen = HashSet::new();
        for d in &r.deliveries {
            prop_assert!(seen.insert((d.client, d.event_seq)), "duplicate {:?}", d);
        }
    }

    /// Exactly-once under lossy links *and* a broker crash, with durable
    /// logs: the combination the plain recovery machinery cannot promise
    /// (a crash wipes the dead sender's retransmit state, so a copy that
    /// was also dropped on the wire is gone). The durable log keeps the
    /// hop and waits the outage out.
    #[test]
    fn exactly_once_under_lossy_crash_with_durable_log(
        seed in 0u64..1_000_000,
        drop_p in 0.0f64..0.25,
        dup_p in 0.0f64..0.25,
        victim in 1u32..6,
        from_ms in 50u64..400,
        len_ms in 50u64..600,
        subs in 2u32..6,
    ) {
        let events = workload();
        let clients: Vec<u32> = (0..subs).collect();
        let mut eng = engine(6, subs);
        for &c in &clients {
            eng.subscribe(c, Filter::for_topic("t"));
        }
        let mut plan = FaultPlan::new(seed).with_default_link_faults(LinkFaults {
            drop_p,
            dup_p,
            jitter_us: 10_000,
        });
        plan.add_crash(
            NodeId(victim),
            Window::new(from_ms * 1000, (from_ms + len_ms) * 1000),
        );
        let mut cfg = FaultConfig::with_recovery(plan);
        cfg.recovery = Some(RecoveryConfig {
            heartbeat_interval_us: 0,
            ..RecoveryConfig::durable()
        });
        cfg.record_deliveries = true;
        let r = eng.run_faulty(&events, 30.0, 1.0, &CostModel::plain(), &mut cfg);
        prop_assert_eq!(r.abandoned, 0, "no hop may exhaust retries: {:?}", r);
        prop_assert_eq!(
            r.delivered,
            r.published * clients.len() as u64,
            "crash {}..{} of broker {} under {:?}",
            from_ms,
            from_ms + len_ms,
            victim,
            r.fault_stats
        );
        let mut seen = HashSet::new();
        for d in &r.deliveries {
            prop_assert!(seen.insert((d.client, d.event_seq)), "duplicate {:?}", d);
        }
    }
}

/// 8. **Batched rekeying under faults** — the revocation-storm scenario
///    replayed through the overlay under a lossy/duplicating fault plan,
///    while the same revocations drive twin subscriber-group managers:
///    one rekeying per change (naive), one settling the storm as a
///    single batched epoch flush (ROADMAP item 3). Invariants:
///
/// * the overlay's revocation safety holds unchanged — no event sent at
///   or after a client's revocation instant reaches it, and surviving
///   clients keep exactly-once delivery;
/// * after the batched flush, every group key a revoked client's range
///   touched has rotated (forward secrecy survives batching);
/// * the batched and naive twins land on bit-identical key state, and
///   the batch never costs more rekey messages than the per-change sum.
#[test]
fn batched_revocation_storm_holds_invariants_under_faults() {
    use psguard_analysis::{ScenarioConfig, ScenarioKind, ScenarioTrace};
    use psguard_groupkey::{RekeyStrategy, SubscriberGroupManager};
    use psguard_model::IntRange;

    const RATE: f64 = 40.0;
    const INTERARRIVAL_US: u64 = 25_000;

    let cfg = ScenarioConfig {
        kind: ScenarioKind::RevocationStorm,
        topics: 4,
        zipf_s: 1.1,
        subscribers: 16,
        events: 24,
        value_range: 64,
        sub_width: 48,
        seed: 0xBA7C,
    };
    let trace = ScenarioTrace::generate(&cfg);
    assert!(!trace.revocations.is_empty(), "storm must revoke someone");
    let mut revoked_at: Vec<(u32, u64)> = trace
        .revocations
        .iter()
        .map(|r| (r.client, r.at_event as u64 * INTERARRIVAL_US))
        .collect();
    revoked_at.sort_by_key(|&(c, t)| (c, t));
    revoked_at.dedup_by_key(|&mut (c, _)| c);

    // Overlay half: the trace replayed under faults with the storm's
    // revocations — the engine-level invariant from PR2's suite.
    let events: Vec<Event> = trace
        .publishes
        .iter()
        .map(|p| {
            Event::builder(format!("s{}", p.topic))
                .attr("x", p.value)
                .build()
        })
        .collect();
    let mut eng = engine(6, cfg.subscribers);
    for s in &trace.initial {
        eng.subscribe(
            s.client,
            Filter::for_topic(format!("s{}", s.topic)).with(psguard_model::Constraint::new(
                "x",
                psguard_model::Op::InRange(
                    psguard_model::IntRange::new(s.lo, s.hi).expect("trace ranges ordered"),
                ),
            )),
        );
    }
    let plan = FaultPlan::new(0xBA7C).with_default_link_faults(LinkFaults {
        drop_p: 0.15,
        dup_p: 0.1,
        jitter_us: 10_000,
    });
    let mut fc = FaultConfig::with_recovery(plan);
    fc.recovery = Some(RecoveryConfig::no_heartbeats());
    fc.revocations = revoked_at
        .iter()
        .map(|&(client, at_us)| Revocation { client, at_us })
        .collect();
    fc.record_deliveries = true;
    let r = eng.run_faulty(
        &events,
        RATE,
        events.len() as f64 / RATE,
        &CostModel::plain(),
        &mut fc,
    );
    let revoke_of = |client: u32| -> Option<u64> {
        revoked_at
            .iter()
            .find(|&&(c, _)| c == client)
            .map(|&(_, t)| t)
    };
    let mut seen = HashSet::new();
    for d in &r.deliveries {
        assert!(
            seen.insert((d.client, d.event_seq)),
            "duplicate delivery of seq {} to client {}",
            d.event_seq,
            d.client
        );
        if let Some(t) = revoke_of(d.client) {
            assert!(
                d.sent_at < t,
                "revoked client {} got seq {} sent at {} >= {t}",
                d.client,
                d.event_seq,
                d.sent_at
            );
        }
    }

    // Key half: the same membership and storm through twin group
    // managers — per-change rekeying vs one batched epoch flush.
    let group_range = IntRange::new(0, cfg.value_range - 1).expect("valid");
    let mut naive = SubscriberGroupManager::new(group_range, RekeyStrategy::Lkh, b"chaos-twin");
    let mut batched = SubscriberGroupManager::new(group_range, RekeyStrategy::Lkh, b"chaos-twin");
    for s in &trace.initial {
        let sub_range = IntRange::new(s.lo, s.hi).expect("trace ranges ordered");
        naive.join(s.client as u64, sub_range);
        batched.join(s.client as u64, sub_range);
    }
    for &(client, _) in &revoked_at {
        naive.leave_lazy(client as u64);
        batched.leave_lazy(client as u64);
    }
    // Forward secrecy oracle: every key a revoked range touches must
    // change at the flush.
    let touched: Vec<i64> = (group_range.lo()..=group_range.hi())
        .filter(|v| {
            trace
                .initial
                .iter()
                .any(|s| revoke_of(s.client).is_some() && (s.lo..=s.hi).contains(v))
        })
        .collect();
    assert!(!touched.is_empty(), "degenerate storm: no covered values");
    let pre: Vec<_> = touched
        .iter()
        .map(|&v| batched.group_key_for_value(v).cloned())
        .collect();

    let rn = naive.epoch_rekey_naive();
    let rb = batched.epoch_rekey();

    for (i, &v) in touched.iter().enumerate() {
        let post = batched.group_key_for_value(v);
        assert!(
            post != pre[i].as_ref(),
            "group key for value {v} did not rotate at the batched flush"
        );
    }
    for &(client, _) in &revoked_at {
        assert!(
            !batched.can_decrypt(client as u64, touched[0]),
            "revoked client {client} still decrypts"
        );
        assert!(batched.subscriber_keys(client as u64).is_empty());
    }
    for s in &trace.initial {
        if revoke_of(s.client).is_none() {
            assert!(
                batched.can_decrypt(s.client as u64, (s.lo + s.hi) / 2),
                "survivor {} lost access after the batched flush",
                s.client
            );
        }
    }
    // Twins agree bit-for-bit; the batch is never costlier.
    for v in group_range.lo()..=group_range.hi() {
        assert_eq!(naive.group_key_for_value(v), batched.group_key_for_value(v));
    }
    for c in 0..cfg.subscribers {
        assert_eq!(
            naive.subscriber_keys(c as u64),
            batched.subscriber_keys(c as u64)
        );
    }
    assert!(
        rb.messages_to_members <= rn.messages_to_members,
        "batched flush ({}) costlier than naive ({})",
        rb.messages_to_members,
        rn.messages_to_members
    );
}

/// 7. **Scenario matrix** — every adversarial workload shape from the
///    macro-bench generator ([`ScenarioTrace`]) replayed through the
///    overlay under a seeded lossy/duplicating fault plan, with a
///    per-client oracle derived from the trace itself:
///
/// * a client never revoked must receive exactly the matching events,
///   each exactly once;
/// * a revoked client (churn leaves map to revocations — the engine has
///   no mid-run unsubscribe — and joins are installed up front) must
///   see no event sent at or after its revocation instant, no
///   duplicates, and only events its filter matches.
#[test]
fn scenario_matrix_exactly_once_under_faults() {
    use psguard_analysis::{ChurnKind, ScenarioConfig, ScenarioKind, ScenarioTrace};

    const RATE: f64 = 40.0;
    const INTERARRIVAL_US: u64 = 25_000; // 1e6 / RATE

    for (i, kind) in ScenarioKind::ALL.into_iter().enumerate() {
        let cfg = ScenarioConfig {
            kind,
            topics: 4,
            zipf_s: 1.1,
            subscribers: 8,
            events: 24,
            value_range: 64,
            sub_width: 48,
            seed: 0xC0DE + i as u64,
        };
        let trace = ScenarioTrace::generate(&cfg);
        let label = kind.name();

        // One engine event per publish op; duration sized so the fixed-
        // interval publisher emits the stream exactly once (seq == index).
        let events: Vec<Event> = trace
            .publishes
            .iter()
            .map(|p| {
                Event::builder(format!("s{}", p.topic))
                    .attr("x", p.value)
                    .build()
            })
            .collect();
        let duration_s = events.len() as f64 / RATE;

        // Subscriptions: initial plus every Join (installed up front —
        // the engine has no mid-run subscribe, so a joiner is simply
        // subscribed for the whole run and the oracle expects every
        // matching event for it). A Leave maps to a revocation only if
        // the subscription never rejoins afterward (a leave/rejoin pair
        // collapses to "subscribed throughout"); trace revocations map
        // directly.
        let mut subs: Vec<(u32, u32, i64, i64)> = trace
            .initial
            .iter()
            .map(|s| (s.client, s.topic, s.lo, s.hi))
            .collect();
        let mut revoked_at: Vec<(u32, u64)> = Vec::new();
        for c in &trace.churn {
            match c.kind {
                ChurnKind::Join => subs.push((c.sub.client, c.sub.topic, c.sub.lo, c.sub.hi)),
                ChurnKind::Leave => {
                    let rejoins = trace.churn.iter().any(|j| {
                        j.kind == ChurnKind::Join && j.sub == c.sub && j.at_event >= c.at_event
                    });
                    if !rejoins {
                        revoked_at.push((c.sub.client, c.at_event as u64 * INTERARRIVAL_US));
                    }
                }
            }
        }
        for r in &trace.revocations {
            revoked_at.push((r.client, r.at_event as u64 * INTERARRIVAL_US));
        }
        // Keep only each client's earliest revocation.
        revoked_at.sort_by_key(|&(c, t)| (c, t));
        revoked_at.dedup_by_key(|&mut (c, _)| c);
        let revoke_of = |client: u32| -> Option<u64> {
            revoked_at
                .iter()
                .find(|&&(c, _)| c == client)
                .map(|&(_, t)| t)
        };

        let n_clients = max_client(&trace).map(|c| c + 1).unwrap_or(0);
        let mut eng = engine(6, n_clients);
        let mut installed: HashSet<(u32, u32, i64, i64)> = HashSet::new();
        for &(client, topic, lo, hi) in &subs {
            if installed.insert((client, topic, lo, hi)) {
                eng.subscribe(
                    client,
                    Filter::for_topic(format!("s{topic}")).with(psguard_model::Constraint::new(
                        "x",
                        psguard_model::Op::InRange(
                            psguard_model::IntRange::new(lo, hi).expect("trace ranges ordered"),
                        ),
                    )),
                );
            }
        }

        let plan = FaultPlan::new(0xFA + i as u64).with_default_link_faults(LinkFaults {
            drop_p: 0.15,
            dup_p: 0.1,
            jitter_us: 10_000,
        });
        let mut fc = FaultConfig::with_recovery(plan);
        fc.recovery = Some(RecoveryConfig::no_heartbeats());
        fc.revocations = revoked_at
            .iter()
            .map(|&(client, at_us)| Revocation { client, at_us })
            .collect();
        fc.record_deliveries = true;
        let r = eng.run_faulty(&events, RATE, duration_s, &CostModel::plain(), &mut fc);
        assert_eq!(
            r.published,
            trace.publishes.len() as u64,
            "{label}: one engine publication per trace op"
        );

        // Oracle: which (client, seq) pairs must arrive, straight from
        // the trace.
        let matches = |client: u32, seq: usize| -> bool {
            let p = &trace.publishes[seq];
            installed
                .iter()
                .any(|&(c, t, lo, hi)| c == client && t == p.topic && (lo..=hi).contains(&p.value))
        };
        let mut seen = HashSet::new();
        for d in &r.deliveries {
            assert!(
                seen.insert((d.client, d.event_seq)),
                "{label}: duplicate delivery of seq {} to client {}",
                d.event_seq,
                d.client
            );
            assert!(
                matches(d.client, d.event_seq as usize),
                "{label}: client {} got non-matching seq {}",
                d.client,
                d.event_seq
            );
            if let Some(t) = revoke_of(d.client) {
                assert!(
                    d.sent_at < t,
                    "{label}: revoked client {} got seq {} sent at {} >= {t}",
                    d.client,
                    d.event_seq,
                    d.sent_at
                );
            }
        }
        let mut expected = 0u64;
        for client in 0..n_clients {
            if revoke_of(client).is_some() {
                continue; // checked above: no post-revocation, no dups
            }
            for seq in 0..trace.publishes.len() {
                if matches(client, seq) {
                    expected += 1;
                    assert!(
                        seen.contains(&(client, seq as u64)),
                        "{label}: client {client} missed seq {seq}"
                    );
                }
            }
        }
        assert!(
            expected > 0,
            "{label}: degenerate oracle (no expected deliveries)"
        );
    }
}
