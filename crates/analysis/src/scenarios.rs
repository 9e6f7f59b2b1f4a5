//! Adversarial workload scenarios for the end-to-end macro-bench and
//! the chaos suite.
//!
//! A [`ScenarioTrace`] is a pure-data script — initial subscriptions,
//! an ordered publish stream, churn operations and revocations pinned
//! to positions in that stream — generated deterministically from a
//! seed. The same trace drives two very different consumers:
//!
//! * the `e2e_scaling` bench replays it through `Broker::route`
//!   (publisher encrypt → match → wire fan-out) to measure throughput
//!   under adversarial shapes (the `e2e_smoke` test replays the same
//!   mapping against a brute-force oracle), and
//! * the chaos suite replays it through the overlay engine under a
//!   seeded `FaultPlan` and asserts exactly-once delivery.
//!
//! Topic popularity is Zipf-skewed ([`ZipfSampler`]) as in §5.2; each
//! [`ScenarioKind`] then distorts the steady state in one adversarial
//! direction: a flash crowd collapsing onto one hot topic, rolling
//! churn waves, a revocation storm, or same-topic publisher bursts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::samplers::ZipfSampler;

/// The adversarial shape a scenario trace exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Zipf-popular topics, uniform values, no churn — the baseline.
    Steady,
    /// Mid-trace, publishes collapse onto the hottest topic while a
    /// wave of new subscribers joins it just beforehand.
    FlashCrowd,
    /// Rolling waves of unsubscribe-then-resubscribe over the trace.
    ChurnWave,
    /// A burst of client revocations concentrated mid-trace.
    RevocationStorm,
    /// Publishers emit long same-topic runs instead of mixing topics.
    PublisherBurst,
}

impl ScenarioKind {
    /// Every scenario kind, in matrix order.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::Steady,
        ScenarioKind::FlashCrowd,
        ScenarioKind::ChurnWave,
        ScenarioKind::RevocationStorm,
        ScenarioKind::PublisherBurst,
    ];

    /// Stable lowercase name (JSON keys, test labels).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Steady => "steady",
            ScenarioKind::FlashCrowd => "flash_crowd",
            ScenarioKind::ChurnWave => "churn_wave",
            ScenarioKind::RevocationStorm => "revocation_storm",
            ScenarioKind::PublisherBurst => "publisher_burst",
        }
    }
}

/// Parameters for [`ScenarioTrace::generate`].
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Which adversarial shape to generate.
    pub kind: ScenarioKind,
    /// Distinct topics (Zipf ranks); clamped to at least 1.
    pub topics: usize,
    /// Zipf exponent for topic popularity.
    pub zipf_s: f64,
    /// Initial subscriber clients (ids `0..subscribers`).
    pub subscribers: u32,
    /// Publish operations in the trace.
    pub events: usize,
    /// Attribute values are drawn uniformly from `0..value_range`.
    pub value_range: i64,
    /// Width of each subscription's value range.
    pub sub_width: i64,
    /// RNG seed; equal seeds yield bit-identical traces.
    pub seed: u64,
}

/// One subscription: a client interested in `topic` with an inclusive
/// value range `[lo, hi]` on the numeric attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subscription {
    /// Subscriber client id.
    pub client: u32,
    /// Topic rank the subscription covers.
    pub topic: u32,
    /// Inclusive lower bound on the attribute.
    pub lo: i64,
    /// Inclusive upper bound on the attribute.
    pub hi: i64,
}

/// One publish: an event on `topic` carrying attribute value `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishOp {
    /// Topic rank published to.
    pub topic: u32,
    /// Numeric attribute value.
    pub value: i64,
    /// Burst id: consecutive publishes sharing a burst id came from one
    /// publisher burst (always 0 outside [`ScenarioKind::PublisherBurst`]).
    pub burst: u32,
}

/// Whether a churn operation adds or removes the subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// Subscribe before the pinned publish.
    Join,
    /// Unsubscribe before the pinned publish.
    Leave,
}

/// A churn operation pinned to a position in the publish stream: apply
/// it before publishing event number `at_event`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnOp {
    /// Publish index this op precedes.
    pub at_event: usize,
    /// Join or leave.
    pub kind: ChurnKind,
    /// The subscription added or removed.
    pub sub: Subscription,
}

/// A revocation pinned to a position in the publish stream: the client
/// loses every subscription before event number `at_event` is published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RevokeOp {
    /// Publish index this revocation precedes.
    pub at_event: usize,
    /// Client revoked.
    pub client: u32,
}

/// A deterministic, replayable workload script (see module docs).
#[derive(Debug, Clone)]
pub struct ScenarioTrace {
    /// The shape this trace exercises.
    pub kind: ScenarioKind,
    /// Seed it was generated from.
    pub seed: u64,
    /// Subscriptions in place before the first publish.
    pub initial: Vec<Subscription>,
    /// The ordered publish stream.
    pub publishes: Vec<PublishOp>,
    /// Churn operations, sorted by `at_event`.
    pub churn: Vec<ChurnOp>,
    /// Revocations, sorted by `at_event`.
    pub revocations: Vec<RevokeOp>,
}

/// Draws a subscription for `client`: Zipf topic, range of width
/// `sub_width` placed uniformly inside `0..value_range`.
fn draw_sub(
    client: u32,
    zipf: &ZipfSampler,
    cfg: &ScenarioConfig,
    rng: &mut StdRng,
) -> Subscription {
    let topic = zipf.sample(rng) as u32;
    let width = cfg.sub_width.clamp(1, cfg.value_range.max(1));
    let lo_max = (cfg.value_range - width).max(1);
    let lo = rng.gen_range(0..lo_max);
    Subscription {
        client,
        topic,
        lo,
        hi: lo + width - 1,
    }
}

/// Draws a steady-state publish: Zipf topic, uniform value.
fn draw_publish(zipf: &ZipfSampler, cfg: &ScenarioConfig, rng: &mut StdRng) -> PublishOp {
    PublishOp {
        topic: zipf.sample(rng) as u32,
        value: rng.gen_range(0..cfg.value_range.max(1)),
        burst: 0,
    }
}

impl ScenarioTrace {
    /// Generates the trace for `cfg`. Deterministic: equal configs
    /// (including `seed`) yield identical traces.
    pub fn generate(cfg: &ScenarioConfig) -> ScenarioTrace {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let zipf = ZipfSampler::new(cfg.topics.max(1), cfg.zipf_s);

        let initial: Vec<Subscription> = (0..cfg.subscribers)
            .map(|c| draw_sub(c, &zipf, cfg, &mut rng))
            .collect();

        let mut publishes: Vec<PublishOp> = (0..cfg.events)
            .map(|_| draw_publish(&zipf, cfg, &mut rng))
            .collect();
        let mut churn = Vec::new();
        let mut revocations = Vec::new();

        let n = cfg.events;
        match cfg.kind {
            ScenarioKind::Steady => {}
            ScenarioKind::FlashCrowd => {
                // The middle third of the stream collapses onto the
                // hottest topic (rank 0); a join wave of fresh clients
                // subscribes to it right before the crowd arrives.
                let (start, end) = (n / 3, (2 * n) / 3);
                for p in &mut publishes[start..end] {
                    p.topic = 0;
                }
                let wave = (cfg.subscribers / 4).max(1);
                for w in 0..wave {
                    let client = cfg.subscribers + w;
                    let mut sub = draw_sub(client, &zipf, cfg, &mut rng);
                    sub.topic = 0;
                    churn.push(ChurnOp {
                        at_event: start,
                        kind: ChurnKind::Join,
                        sub,
                    });
                }
            }
            ScenarioKind::ChurnWave => {
                // Rolling waves: at each wave front a slice of the
                // initial population leaves, then rejoins (same
                // subscription) at the next front.
                let waves = 8usize.min(n.max(1));
                let slice = (initial.len() / waves.max(1)).max(1);
                for w in 0..waves {
                    let at = w * n / waves;
                    let rejoin_at = ((w + 1) * n / waves).min(n);
                    for s in initial.iter().skip(w * slice).take(slice) {
                        churn.push(ChurnOp {
                            at_event: at,
                            kind: ChurnKind::Leave,
                            sub: *s,
                        });
                        churn.push(ChurnOp {
                            at_event: rejoin_at,
                            kind: ChurnKind::Join,
                            sub: *s,
                        });
                    }
                }
            }
            ScenarioKind::RevocationStorm => {
                // A quarter of the clients revoked in a burst around the
                // middle of the stream.
                let storm = (cfg.subscribers / 4).max(1);
                let at = n / 2;
                for k in 0..storm {
                    // Spread over a short window so revocations interleave
                    // with publishes instead of landing as one batch.
                    let jitter = rng.gen_range(0..(n / 8).max(1));
                    // Widen before multiplying: k * subscribers overflows
                    // u32 once subscribers·(subscribers/4) exceeds 2^32
                    // (~131k subscribers), which used to wrap most revoked
                    // ids into a tiny duplicated range at the 1M scale.
                    let client =
                        u64::from(k) * u64::from(cfg.subscribers.max(1)) / u64::from(storm);
                    revocations.push(RevokeOp {
                        at_event: (at + jitter).min(n),
                        client: client as u32,
                    });
                }
                revocations.sort_by_key(|r| (r.at_event, r.client));
                revocations.dedup_by_key(|r| r.client);
            }
            ScenarioKind::PublisherBurst => {
                // Rewrite the stream as back-to-back same-topic runs of
                // 8–32 events, each tagged with its burst id.
                let mut i = 0usize;
                let mut burst = 0u32;
                while i < n {
                    let run = rng.gen_range(8usize..=32).min(n - i);
                    let topic = zipf.sample(&mut rng) as u32;
                    for p in &mut publishes[i..i + run] {
                        p.topic = topic;
                        p.burst = burst;
                    }
                    burst += 1;
                    i += run;
                }
            }
        }

        churn.sort_by_key(|c| c.at_event);
        ScenarioTrace {
            kind: cfg.kind,
            seed: cfg.seed,
            initial,
            publishes,
            churn,
            revocations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small config: 16 topics, 32 subscribers, 200 events.
    fn small(kind: ScenarioKind, seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            kind,
            topics: 16,
            zipf_s: 1.1,
            subscribers: 32,
            events: 200,
            value_range: 256,
            sub_width: 96,
            seed,
        }
    }

    fn counts_by_topic(trace: &ScenarioTrace, topics: usize) -> Vec<usize> {
        let mut counts = vec![0usize; topics];
        for p in &trace.publishes {
            counts[p.topic as usize] += 1;
        }
        counts
    }

    #[test]
    fn same_seed_is_bit_identical_and_seeds_differ() {
        for kind in ScenarioKind::ALL {
            let a = ScenarioTrace::generate(&small(kind, 7));
            let b = ScenarioTrace::generate(&small(kind, 7));
            assert_eq!(a.initial, b.initial, "{}", kind.name());
            assert_eq!(a.publishes, b.publishes, "{}", kind.name());
            assert_eq!(a.churn, b.churn, "{}", kind.name());
            assert_eq!(a.revocations, b.revocations, "{}", kind.name());

            let c = ScenarioTrace::generate(&small(kind, 8));
            assert!(
                a.initial != c.initial || a.publishes != c.publishes,
                "{}: different seeds should differ",
                kind.name()
            );
        }
    }

    #[test]
    fn steady_is_zipf_skewed_with_no_churn() {
        let cfg = small(ScenarioKind::Steady, 3);
        let trace = ScenarioTrace::generate(&cfg);
        assert!(trace.churn.is_empty());
        assert!(trace.revocations.is_empty());
        assert_eq!(trace.publishes.len(), cfg.events);
        let counts = counts_by_topic(&trace, cfg.topics);
        assert!(
            counts[0] > counts[cfg.topics - 1],
            "rank 0 should outdraw the coldest rank: {counts:?}"
        );
    }

    #[test]
    fn flash_crowd_concentrates_middle_third_on_topic_zero() {
        let cfg = small(ScenarioKind::FlashCrowd, 11);
        let trace = ScenarioTrace::generate(&cfg);
        let (start, end) = (cfg.events / 3, 2 * cfg.events / 3);
        assert!(trace.publishes[start..end].iter().all(|p| p.topic == 0));
        let joins: Vec<_> = trace
            .churn
            .iter()
            .filter(|c| c.kind == ChurnKind::Join)
            .collect();
        assert!(!joins.is_empty());
        assert!(joins
            .iter()
            .all(|c| c.sub.topic == 0 && c.at_event == start));
        assert!(
            joins.iter().all(|c| c.sub.client >= cfg.subscribers),
            "flash-crowd joiners are fresh clients"
        );
    }

    #[test]
    fn churn_wave_pairs_every_leave_with_a_rejoin() {
        let cfg = small(ScenarioKind::ChurnWave, 5);
        let trace = ScenarioTrace::generate(&cfg);
        let leaves: Vec<_> = trace
            .churn
            .iter()
            .filter(|c| c.kind == ChurnKind::Leave)
            .collect();
        assert!(!leaves.is_empty());
        for l in &leaves {
            assert!(
                trace.churn.iter().any(|c| c.kind == ChurnKind::Join
                    && c.sub == l.sub
                    && c.at_event >= l.at_event),
                "leave of {:?} has no later rejoin",
                l.sub
            );
        }
        assert!(trace
            .churn
            .windows(2)
            .all(|w| w[0].at_event <= w[1].at_event));
    }

    #[test]
    fn revocation_storm_revokes_distinct_clients_mid_trace() {
        let cfg = small(ScenarioKind::RevocationStorm, 9);
        let trace = ScenarioTrace::generate(&cfg);
        assert!(!trace.revocations.is_empty());
        let mut clients: Vec<u32> = trace.revocations.iter().map(|r| r.client).collect();
        clients.sort_unstable();
        clients.dedup();
        assert_eq!(clients.len(), trace.revocations.len(), "distinct clients");
        assert!(trace
            .revocations
            .iter()
            .all(|r| r.at_event >= cfg.events / 2 && r.at_event <= cfg.events));
    }

    #[test]
    fn publisher_burst_runs_share_topic_and_id() {
        let cfg = small(ScenarioKind::PublisherBurst, 13);
        let trace = ScenarioTrace::generate(&cfg);
        let mut bursts = 0u32;
        for pair in trace.publishes.windows(2) {
            if pair[0].burst == pair[1].burst {
                assert_eq!(pair[0].topic, pair[1].topic, "burst mixes topics");
            } else {
                assert_eq!(pair[1].burst, pair[0].burst + 1, "burst ids are dense");
                bursts += 1;
            }
        }
        assert!(bursts >= 2, "200 events at <=32/run must span >=3 bursts");
    }

    #[test]
    fn revocation_storm_survives_large_populations() {
        // Regression: `k * subscribers` overflowed u32 above ~131k
        // subscribers (debug panic, silent wrap in release), collapsing
        // most revoked ids into a small duplicated range.
        let cfg = ScenarioConfig {
            kind: ScenarioKind::RevocationStorm,
            topics: 4,
            zipf_s: 1.1,
            subscribers: 200_000,
            events: 16,
            value_range: 64,
            sub_width: 16,
            seed: 1,
        };
        let trace = ScenarioTrace::generate(&cfg);
        let n = trace.revocations.len();
        assert_eq!(n, 50_000);
        let mut clients: Vec<u32> = trace.revocations.iter().map(|r| r.client).collect();
        clients.sort_unstable();
        clients.dedup();
        assert_eq!(clients.len(), n, "revoked clients must be distinct");
        assert!(clients.iter().all(|&c| c < cfg.subscribers));
        // The storm spans the whole id space, not a wrapped prefix.
        assert!(*clients.last().unwrap() > cfg.subscribers / 2);
    }

    #[test]
    fn churned_in_clients_extend_the_client_space() {
        let cfg = small(ScenarioKind::FlashCrowd, 2);
        let trace = ScenarioTrace::generate(&cfg);
        let max = trace
            .churn
            .iter()
            .map(|c| c.sub.client)
            .max()
            .expect("joiners");
        assert!(max >= cfg.subscribers, "joiners extend the client space");
    }
}
