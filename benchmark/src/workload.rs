//! The five workloads and their seeded input generator.
//!
//! The seed reaches only this module. Everything it yields — topic and
//! value of event `id`, its payload, background subscription `k`,
//! churned subscription `j` — is a pure function of `(seed, index)`, so
//! the publisher thread, the consumer thread's oracle and the staged
//! replay all recompute the same inputs without sharing a trace.

use psguard_analysis::ZipfSampler;
use psguard_model::{Constraint, Event, EventId, Filter, IntRange, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The one routable numeric attribute every event carries.
pub const ATTR: &str = "x";
/// Attribute values are drawn uniformly from `0..VALUE_RANGE`.
pub const VALUE_RANGE: i64 = 256;
/// Width of every background and churned subscription range.
pub const SUB_WIDTH: i64 = 96;
/// Zipf exponent of topic popularity (paper §5.2).
pub const ZIPF_S: f64 = 1.1;

/// Shape of the `churn_epoch` control stream, pinned to event ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Churn {
    /// One join and one leave per this many events.
    pub op_every: u64,
    /// A `subscribe_acked` barrier per this many events.
    pub barrier_every: u64,
    /// An epoch rollover per this many events.
    pub epoch_every: u64,
    /// Churned subscriptions live at any time.
    pub window: usize,
    /// Key holders per topic; one of them is revoked per rollover.
    pub holders_per_topic: usize,
}

/// One workload: the inputs the system's behaviour depends on.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Fixed name; later issues cite it.
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Distinct topics = live tokens the broker probes per event.
    pub topics: usize,
    /// Width-96 background subscriptions, spread over `bg_conns`.
    pub bg_subs: usize,
    /// Background connections holding `bg_subs`.
    pub bg_conns: usize,
    /// Connections that each hold one full-range filter per topic and so
    /// receive every event.
    pub wide_conns: usize,
    /// Plaintext payload bytes.
    pub payload: usize,
    /// Open-loop rate of the `paced` phase, events per second.
    pub paced_rate: u64,
    /// `Some(gap)`: the broker is durable and a lagging subscriber
    /// reconnects with its cursor every `gap` events.
    pub durable: Option<u64>,
    /// `Some`: joins, leaves, barriers and epoch rollovers ride the stream.
    pub churn: Option<Churn>,
}

/// The five workloads, in report order.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "live_small",
            why: "per-event fixed cost dominates (tag, NAKT derivation, key cache, frame, two socket hops, decrypt); bypasses index, fan-out, log and per-byte crypto",
            topics: 16,
            bg_subs: 1_024,
            bg_conns: 1,
            wide_conns: 0,
            payload: 64,
            paced_rate: 2_000,
            durable: None,
            churn: None,
        },
        Spec {
            name: "match_heavy",
            why: "broker-bound: 256 PRF token probes plus the counting index over 100k subscriptions per event, at most 3 deliveries",
            topics: 256,
            bg_subs: 100_000,
            bg_conns: 2,
            wide_conns: 0,
            payload: 256,
            paced_rate: 500,
            durable: None,
            churn: None,
        },
        Spec {
            name: "fanout_wide",
            why: "65 deliveries per event: encode-once, per-recipient clone, queue offers, socket writes and client reads dominate; index and crypto are small",
            topics: 4,
            bg_subs: 0,
            bg_conns: 0,
            wide_conns: 64,
            payload: 64,
            paced_rate: 1_000,
            durable: None,
            churn: None,
        },
        Spec {
            name: "durable_bulk",
            why: "per-byte work dominates: AES-CBC and HMAC-SHA1 over 4 KiB payloads, frame copies, log append and cursor replay, socket bytes",
            topics: 4,
            bg_subs: 0,
            bg_conns: 0,
            wide_conns: 0,
            payload: 4_096,
            paced_rate: 500,
            durable: Some(1_024),
            churn: None,
        },
        Spec {
            name: "churn_epoch",
            why: "index writes beside reads, KDC grant rate, epoch rollover and batched LKH flush; a faster match that slows insert, remove or grant shows here",
            topics: 64,
            bg_subs: 10_000,
            bg_conns: 1,
            wide_conns: 0,
            payload: 64,
            paced_rate: 1_000,
            durable: None,
            churn: Some(Churn {
                op_every: 8,
                barrier_every: 1_024,
                epoch_every: 8_192,
                window: 128,
                holders_per_topic: 10,
            }),
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// The same shape with fewer background subscriptions (tests).
    #[must_use]
    pub fn with_bg_subs(mut self, n: usize) -> Spec {
        self.bg_subs = n;
        self
    }

    /// Epoch of event `id` (0 unless the workload rolls epochs).
    pub fn epoch_of(&self, id: u64) -> u64 {
        self.churn.map_or(0, |c| id / c.epoch_every)
    }
}

/// One generated subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubDesc {
    /// Background connection index (`0..bg_conns`); 0 for churned ones.
    pub conn: usize,
    /// Topic rank.
    pub topic: u32,
    /// Inclusive lower bound on [`ATTR`].
    pub lo: i64,
    /// Inclusive upper bound on [`ATTR`].
    pub hi: i64,
}

const STREAM_EVENT: u64 = 0x45_56;
const STREAM_BG: u64 = 0x42_47;
const STREAM_CHURN: u64 = 0x43_48;

/// The seeded, stateless input generator of one workload.
#[derive(Debug, Clone)]
pub struct Generator {
    spec: Spec,
    seed: u64,
    zipf: ZipfSampler,
    topic_names: Vec<String>,
}

impl Generator {
    /// A generator for `spec` under `seed`.
    pub fn new(spec: &Spec, seed: u64) -> Generator {
        Generator {
            spec: spec.clone(),
            seed,
            zipf: ZipfSampler::new(spec.topics.max(1), ZIPF_S),
            topic_names: (0..spec.topics).map(|t| format!("topic{t:03}")).collect(),
        }
    }

    /// The workload this generator feeds.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The topic names, by rank.
    pub fn topic_names(&self) -> &[String] {
        &self.topic_names
    }

    fn rng(&self, stream: u64, index: u64) -> StdRng {
        // Odd multipliers keep (stream, index) pairs from colliding
        // before SplitMix64 scrambles them.
        StdRng::seed_from_u64(
            self.seed
                ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93),
        )
    }

    /// Topic rank and attribute value of event `id`.
    pub fn event_attrs(&self, id: u64) -> (u32, i64) {
        let mut rng = self.rng(STREAM_EVENT, id);
        let topic = self.zipf.sample(&mut rng) as u32;
        (topic, rng.gen_range(0..VALUE_RANGE))
    }

    /// Writes the plaintext payload of event `id` into `buf`: the id, the
    /// seed, then an id-dependent fill.
    pub fn payload_into(&self, id: u64, buf: &mut Vec<u8>) {
        buf.clear();
        buf.resize(self.spec.payload.max(16), (id.wrapping_mul(31) >> 3) as u8);
        buf[..8].copy_from_slice(&id.to_le_bytes());
        buf[8..16].copy_from_slice(&self.seed.to_le_bytes());
    }

    /// The plaintext event with id `id`, as handed to the publisher.
    pub fn event(&self, id: u64) -> Event {
        let (topic, value) = self.event_attrs(id);
        let mut payload = Vec::new();
        self.payload_into(id, &mut payload);
        Event::builder(self.topic_names[topic as usize].as_str())
            .id(EventId(id))
            .attr(ATTR, value)
            .payload(payload)
            .build()
    }

    fn draw_sub(&self, stream: u64, index: u64, conn: usize) -> SubDesc {
        let mut rng = self.rng(stream, index);
        let topic = self.zipf.sample(&mut rng) as u32;
        let lo = rng.gen_range(0..VALUE_RANGE - SUB_WIDTH);
        SubDesc {
            conn,
            topic,
            lo,
            hi: lo + SUB_WIDTH - 1,
        }
    }

    /// Background subscription `k` (`0..bg_subs`), round-robin over the
    /// background connections.
    pub fn bg_sub(&self, k: usize) -> SubDesc {
        self.draw_sub(STREAM_BG, k as u64, k % self.spec.bg_conns.max(1))
    }

    /// Churned subscription `j` (joins are numbered from 0).
    ///
    /// The broker treats an identical `(connection, filter)` pair as one
    /// registration, so two live copies would be removed by the first
    /// leave. The lower bound therefore steps through all
    /// `VALUE_RANGE - SUB_WIDTH` positions (37 is coprime to it): any
    /// run of that many consecutive joins is pairwise distinct, and the
    /// live window is shorter than that.
    pub fn churn_sub(&self, j: u64) -> SubDesc {
        let slots = (VALUE_RANGE - SUB_WIDTH) as u64;
        let lo = (j.wrapping_mul(37).wrapping_add(self.seed % slots) % slots) as i64;
        SubDesc {
            lo,
            hi: lo + SUB_WIDTH - 1,
            ..self.draw_sub(STREAM_CHURN, j, 0)
        }
    }

    /// The plaintext filter of a generated subscription — what the KDC
    /// is asked to authorise.
    pub fn filter(&self, sub: &SubDesc) -> Filter {
        self.range_filter(sub.topic, sub.lo, sub.hi)
    }

    /// The filter covering every value of `topic`.
    pub fn full_range_filter(&self, topic: u32) -> Filter {
        self.range_filter(topic, 0, VALUE_RANGE - 1)
    }

    fn range_filter(&self, topic: u32, lo: i64, hi: i64) -> Filter {
        let range = IntRange::new(lo, hi).expect("generated ranges are ordered");
        Filter::for_topic(self.topic_names[topic as usize].as_str())
            .with(Constraint::new(ATTR, Op::InRange(range)))
    }

    /// A 64-bit FNV-1a digest of the generated inputs: every background
    /// subscription, the first churned subscriptions and the first
    /// `events` events with their payloads.
    pub fn trace_hash(&self, events: u64) -> String {
        let mut h = Fnv::new();
        h.bytes(self.spec.name.as_bytes());
        let sub = |h: &mut Fnv, s: SubDesc| {
            h.word(s.conn as u64);
            h.word(u64::from(s.topic));
            h.word(s.lo as u64);
            h.word(s.hi as u64);
        };
        for k in 0..self.spec.bg_subs {
            sub(&mut h, self.bg_sub(k));
        }
        if self.spec.churn.is_some() {
            for j in 0..1_024 {
                sub(&mut h, self.churn_sub(j));
            }
        }
        let mut payload = Vec::new();
        for id in 0..events {
            let (topic, value) = self.event_attrs(id);
            h.word(u64::from(topic));
            h.word(value as u64);
            self.payload_into(id, &mut payload);
            h.bytes(&payload);
        }
        format!("{:016x}", h.0)
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_fixed_and_unique() {
        let names: Vec<_> = all().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "live_small",
                "match_heavy",
                "fanout_wide",
                "durable_bulk",
                "churn_epoch"
            ]
        );
    }

    #[test]
    fn inputs_are_pure_functions_of_seed_and_index() {
        let spec = by_name("live_small").unwrap();
        let a = Generator::new(&spec, 7);
        let b = Generator::new(&spec, 7);
        let c = Generator::new(&spec, 8);
        assert_eq!(a.event(41), b.event(41));
        assert_eq!(a.bg_sub(5), b.bg_sub(5));
        assert_eq!(a.trace_hash(256), b.trace_hash(256));
        assert_ne!(a.trace_hash(256), c.trace_hash(256));
    }

    #[test]
    fn subscriptions_stay_inside_the_value_range() {
        let spec = by_name("match_heavy").unwrap();
        let g = Generator::new(&spec, 1);
        for k in 0..2_000 {
            let s = g.bg_sub(k);
            assert!(s.lo >= 0 && s.hi < VALUE_RANGE && s.hi - s.lo + 1 == SUB_WIDTH);
            assert!((s.topic as usize) < spec.topics && s.conn < spec.bg_conns);
        }
    }
}
