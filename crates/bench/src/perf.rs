//! The throughput/latency experiment behind Figures 9–11.
//!
//! One publisher at the root, 32 subscribers at the leaves, broker trees
//! of {0, 2, 6, 14, 30} nodes (§5.2). The baseline ("siena") routes
//! plaintext filters with zero crypto cost; the four PSGuard variants
//! route tokenized envelopes with *measured* key-derivation, encryption
//! and token-matching costs folded into the per-node service times.

use psguard::{secure_cost_model, CryptoCosts};
use psguard_analysis::TopicKind;
use psguard_model::{Event, Filter};
use psguard_routing::{SecureEvent, SecureFilter};
use psguard_siena::{CostModel, Engine, EngineConfig};

use crate::PaperSetup;

/// Which curve of Figures 9–10 to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfVariant {
    /// Plain Siena (no crypto) on the mixed workload.
    Siena,
    /// PSGuard on plain-topic events.
    Topic,
    /// PSGuard on numeric-attribute events.
    Numeric,
    /// PSGuard on category-attribute events.
    Category,
    /// PSGuard on string-attribute events.
    Str,
}

impl PerfVariant {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            PerfVariant::Siena => "siena",
            PerfVariant::Topic => "topic",
            PerfVariant::Numeric => "numeric",
            PerfVariant::Category => "category",
            PerfVariant::Str => "string",
        }
    }

    /// The paper's five curves.
    pub const ALL: [PerfVariant; 5] = [
        PerfVariant::Siena,
        PerfVariant::Topic,
        PerfVariant::Numeric,
        PerfVariant::Category,
        PerfVariant::Str,
    ];

    fn kind(&self) -> TopicKind {
        match self {
            PerfVariant::Siena | PerfVariant::Topic => TopicKind::Plain,
            PerfVariant::Numeric => TopicKind::Numeric,
            PerfVariant::Category => TopicKind::Category,
            PerfVariant::Str => TopicKind::Str,
        }
    }
}

/// One measured point of Figures 9–10.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfPoint {
    /// Broker-tree size.
    pub brokers: u32,
    /// Saturation throughput in events/second.
    pub throughput_eps: f64,
    /// Mean publish→deliver latency (ms) at 90% of saturation.
    pub latency_ms: f64,
}

/// The paper's broker-count sweep.
pub const BROKER_SWEEP: [u32; 5] = [0, 2, 6, 14, 30];

const SUBSCRIBERS: u32 = 32;
/// Latency is measured near saturation (the paper keeps "the throughput of
/// the system at its maximum"); 97% keeps queues finite but dominant for
/// small overlays.
const LATENCY_LOAD: f64 = 0.97;
/// Per-hash cost on the paper's 550 MHz testbed (µs).
const PAPER_HASH_US: f64 = 1.0;
/// AES-128-CBC cost for a 256-byte payload on the paper's testbed (µs).
const PAPER_AES_US: f64 = 20.0;
const TOPICS_PER_SUB: usize = 8;
const WORKLOAD_EVENTS: usize = 64;
const SIM_SECONDS: f64 = 0.25;
/// Latency runs use a longer window so queues at near-saturated nodes
/// reach steady state.
const LAT_SIM_SECONDS: f64 = 4.0;

/// Builds (filters, events) on the topics of one family, with every
/// event guaranteed deliverable to at least one subscriber.
fn family_workload(setup: &mut PaperSetup, kind: TopicKind) -> (Vec<(u32, Filter)>, Vec<Event>) {
    let topic_idxs: Vec<usize> = setup
        .workload
        .topics()
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind == kind)
        .map(|(i, _)| i)
        .collect();

    // Subscriber interest follows the workload's Zipf popularity, so
    // popular events fan out to most subscribers — the §5.2 regime in
    // which small overlays pay heavy per-node delivery costs.
    use rand::{rngs::StdRng, SeedableRng};
    let zipf = psguard_analysis::ZipfSampler::new(topic_idxs.len(), 0.9);
    let mut rng = StdRng::seed_from_u64(0x51e);
    let mut subs = Vec::new();
    for c in 0..SUBSCRIBERS {
        for r in zipf.sample_distinct(TOPICS_PER_SUB, &mut rng) {
            let name = setup.workload.topics()[topic_idxs[r]].name.clone();
            subs.push((c, Filter::for_topic(name)));
        }
    }
    let events = (0..WORKLOAD_EVENTS)
        .map(|_| {
            let r = zipf.sample(&mut rng);
            setup.workload.event_for_topic(topic_idxs[r])
        })
        .collect();
    (subs, events)
}

/// Measures one throughput/latency point for a variant and broker count.
pub fn run_perf_point(variant: PerfVariant, brokers: u32, seed: u64) -> PerfPoint {
    let mut setup = PaperSetup::new(seed);
    let (subs, events) = family_workload(&mut setup, variant.kind());

    if variant == PerfVariant::Siena {
        let mut engine: Engine<Filter> = Engine::new(EngineConfig {
            broker_nodes: brokers,
            subscribers: SUBSCRIBERS,
            seed,
        });
        for (c, f) in &subs {
            engine.subscribe(*c, f.clone());
        }
        let cost = CostModel::plain();
        let q = engine.find_max_throughput(&events, SIM_SECONDS, &cost);
        let report = engine.run_poisson(&events, q * LATENCY_LOAD, LAT_SIM_SECONDS, &cost);
        return PerfPoint {
            brokers,
            throughput_eps: q,
            latency_ms: report.mean_latency_ms,
        };
    }

    // PSGuard variants: measure real crypto costs on this family, then
    // run the secure engine.
    let mut probe_sub = setup.ps.subscriber("probe");
    for (_, f) in subs.iter().take(TOPICS_PER_SUB) {
        setup
            .ps
            .authorize_subscriber(&mut probe_sub, f, 0)
            .expect("grantable");
    }
    let sample: Vec<Event> = events
        .iter()
        .filter(|e| e.topic() == subs[0].1.topic().expect("topic"))
        .cloned()
        .collect();
    let sample = if sample.is_empty() {
        vec![events[0].clone()]
    } else {
        sample
    };
    // Count the exact derivation work per event and convert it to the
    // paper's hardware (1 µs/hash, 20 µs AES per 256-byte payload), so
    // PSGuard's *relative* overhead lands at the paper's scale
    // deterministically.
    let pub_ops0 = setup.publisher.ops().total();
    let secures: Vec<SecureEvent> = sample
        .iter()
        .map(|e| setup.publisher.publish(e, 0).expect("publishable"))
        .collect();
    let pub_ops = (setup.publisher.ops().total() - pub_ops0) as f64 / sample.len() as f64;
    let sub_ops0 = probe_sub.ops().total();
    for se in &secures {
        probe_sub.decrypt(se).expect("decryptable");
    }
    let sub_ops = (probe_sub.ops().total() - sub_ops0) as f64 / secures.len() as f64;
    let costs = CryptoCosts {
        publish_us: (pub_ops * PAPER_HASH_US + PAPER_AES_US).round() as u64,
        decrypt_us: (sub_ops * PAPER_HASH_US + PAPER_AES_US).round() as u64,
        token_match_us: 1, // one HMAC per distinct token test
    };
    let mut cost = secure_cost_model(&costs);
    if variant == PerfVariant::Category {
        // Ontology (category-tree) matching was markedly slower in the
        // paper's Siena core than keyword or numeric matching — the source
        // of its ~11% throughput / ~6% latency penalty. The surcharge is
        // per unit of matching work; with the counting index each distinct
        // token/predicate is evaluated once per event rather than once per
        // table entry, so the emulated penalty is proportionally smaller
        // than the paper's per-filter scan (see EXPERIMENTS.md, Fig 9).
        cost.broker_match_us += 4;
    }

    let mut engine = Engine::<SecureFilter>::new(EngineConfig {
        broker_nodes: brokers,
        subscribers: SUBSCRIBERS,
        seed,
    });
    for (c, f) in &subs {
        let mut s = setup.ps.subscriber(format!("s{c}"));
        setup
            .ps
            .authorize_subscriber(&mut s, f, 0)
            .expect("grantable");
        engine.subscribe(*c, s.secure_filters().remove(0));
    }
    let secure_events: Vec<SecureEvent> = events
        .iter()
        .map(|e| setup.publisher.publish(e, 0).expect("publishable"))
        .collect();
    let q = engine.find_max_throughput(&secure_events, SIM_SECONDS, &cost);
    let report = engine.run_poisson(&secure_events, q * LATENCY_LOAD, LAT_SIM_SECONDS, &cost);
    PerfPoint {
        brokers,
        throughput_eps: q,
        latency_ms: report.mean_latency_ms,
    }
}

/// A full curve over the broker sweep, averaging each point over a few
/// seeds (near-saturation latency is noisy; the paper also averages over
/// 5 independent runs).
pub fn run_perf_series(variant: PerfVariant, seed: u64) -> Vec<PerfPoint> {
    const RUNS: u64 = 3;
    BROKER_SWEEP
        .iter()
        .map(|&b| {
            let points: Vec<PerfPoint> = (0..RUNS)
                .map(|r| run_perf_point(variant, b, seed + r * 101))
                .collect();
            PerfPoint {
                brokers: b,
                throughput_eps: points.iter().map(|p| p.throughput_eps).sum::<f64>() / RUNS as f64,
                latency_ms: points.iter().map(|p| p.latency_ms).sum::<f64>() / RUNS as f64,
            }
        })
        .collect()
}

/// One point of Figure 11: throughput and latency on the 30-broker
/// overlay vs. subscriber key-cache size, under a temporal-locality
/// (stock-quote-like) numeric stream.
#[derive(Debug, Clone, PartialEq)]
pub struct CachePoint {
    /// Key-cache capacity in KB.
    pub cache_kb: usize,
    /// Saturation throughput (events/s).
    pub throughput_eps: f64,
    /// Mean latency (ms) at 90% saturation.
    pub latency_ms: f64,
    /// Derivation + decryption cost per event, in paper-hardware µs
    /// (1 µs/hash + 20 µs AES for the 256-byte payload).
    pub decrypt_us: u64,
}

/// Runs the Figure 11 cache sweep.
pub fn run_cache_sweep(cache_kbs: &[usize], seed: u64) -> Vec<CachePoint> {
    use psguard::PsGuardConfig;
    use psguard_model::{Constraint, IntRange, Op};

    let mut out = Vec::new();
    for &kb in cache_kbs {
        // Least count 1 → a 256-leaf NAKT (511 node keys ≈ 16 KB), so the
        // cache-size sweep actually exercises capacity limits.
        let schema = psguard_keys::Schema::builder()
            .numeric("value", IntRange::new(0, 255).expect("valid"), 1)
            .expect("valid nakt")
            .build();
        let ps = psguard::PsGuard::new(
            b"fig11-master",
            schema,
            PsGuardConfig {
                key_cache_bytes: kb * 1024,
                ..Default::default()
            },
        );
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "quotes", 0);

        // Temporal-locality stream (stock quotes): mostly small moves with
        // occasional jumps, wandering over the whole range so small caches
        // thrash while large ones retain the working set.
        let mut value = 128i64;
        let events: Vec<Event> = (0..256)
            .map(|i| {
                let step = match i % 7 {
                    0 => 23,
                    1 | 2 => 1,
                    3 => -2,
                    4 => 3,
                    5 => -1,
                    _ => 2,
                };
                value = (value + step).rem_euclid(256);
                Event::builder("quotes")
                    .attr("value", value)
                    .payload(vec![0u8; 256])
                    .build()
            })
            .collect();

        let filter = Filter::for_topic("quotes").with(Constraint::new(
            "value",
            Op::InRange(IntRange::new(0, 255).expect("valid")),
        ));

        // Measure the per-event decrypt cost with this cache size.
        let mut probe = ps.subscriber("probe");
        ps.authorize_subscriber(&mut probe, &filter, 0)
            .expect("grantable");
        let secure_events: Vec<SecureEvent> = events
            .iter()
            .map(|e| publisher.publish(e, 0).expect("publishable"))
            .collect();
        // Count the exact derivation work per event with the OpCounter
        // (wall-clock timing of a few µs is too noisy), then convert to
        // the paper's hardware: ~1 µs per hash on the 550 MHz Xeons, plus
        // a fixed AES-128-CBC cost for the 256-byte payload (17 blocks).
        let reps = 20u64;
        let ops_before = probe.ops().total();
        for _ in 0..reps {
            for s in &secure_events {
                probe.decrypt(s).expect("authorized");
            }
        }
        let ops_per_event =
            (probe.ops().total() - ops_before) as f64 / (reps * secure_events.len() as u64) as f64;
        let decrypt_us = (ops_per_event * PAPER_HASH_US + PAPER_AES_US).round() as u64;

        // Slow-host emulation: the paper ran on 550 MHz P-III Xeons where
        // key derivation cost tens to hundreds of µs per event; this host
        // is ~2 orders of magnitude faster, so the measured µs are scaled
        // to make the crypto *fraction* of per-node work comparable.
        // The publisher pays the same derivation (it can cache too) plus
        // encryption; already expressed in paper-µs, so no further
        // emulation factor.
        let costs = CryptoCosts {
            publish_us: decrypt_us,
            decrypt_us,
            token_match_us: 2,
        };
        let cost = secure_cost_model(&costs);

        let mut engine = Engine::<SecureFilter>::new(EngineConfig {
            broker_nodes: 30,
            subscribers: SUBSCRIBERS,
            seed,
        });
        for c in 0..SUBSCRIBERS {
            let mut s = ps.subscriber(format!("s{c}"));
            ps.authorize_subscriber(&mut s, &filter, 0)
                .expect("grantable");
            engine.subscribe(c, s.secure_filters().remove(0));
        }
        let q = engine.find_max_throughput(&secure_events, SIM_SECONDS, &cost);
        out.push((kb, q, decrypt_us, engine, secure_events, cost));
    }

    // Latency is compared at one common offered load (95% of the slowest
    // configuration's capacity), so cache benefits show up as shorter
    // queues rather than a moved operating point.
    let rate = out
        .iter()
        .map(|(_, q, _, _, _, _)| *q)
        .fold(f64::INFINITY, f64::min)
        * LATENCY_LOAD;
    out.into_iter()
        .map(|(kb, q, decrypt_us, mut engine, secure_events, cost)| {
            let report = engine.run_poisson(&secure_events, rate, LAT_SIM_SECONDS, &cost);
            CachePoint {
                cache_kb: kb,
                throughput_eps: q,
                latency_ms: report.mean_latency_ms,
                decrypt_us,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn siena_and_secure_points_are_sane() {
        let siena = run_perf_point(PerfVariant::Siena, 6, 11);
        assert!(siena.throughput_eps > 100.0, "{siena:?}");
        assert!(siena.latency_ms > 0.0);
        let secure = run_perf_point(PerfVariant::Numeric, 6, 11);
        assert!(secure.throughput_eps > 50.0, "{secure:?}");
        // The secure variant pays a bounded overhead.
        assert!(
            secure.throughput_eps <= siena.throughput_eps * 1.1,
            "secure {} vs siena {}",
            secure.throughput_eps,
            siena.throughput_eps
        );
    }

    #[test]
    fn throughput_scales_with_brokers() {
        let small = run_perf_point(PerfVariant::Siena, 0, 12);
        let large = run_perf_point(PerfVariant::Siena, 14, 12);
        assert!(
            large.throughput_eps > small.throughput_eps,
            "overlay should scale: {small:?} vs {large:?}"
        );
    }

    #[test]
    fn cache_recovers_throughput() {
        let points = run_cache_sweep(&[0, 64], 13);
        assert_eq!(points.len(), 2);
        assert!(
            points[1].decrypt_us <= points[0].decrypt_us,
            "caching must not increase decrypt cost: {points:?}"
        );
        assert!(points[1].throughput_eps >= points[0].throughput_eps * 0.95);
    }
}
