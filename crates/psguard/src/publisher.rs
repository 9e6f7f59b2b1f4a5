//! The publisher: derives event keys from topic keys and encrypts
//! payloads before events enter the (untrusted) broker overlay.

use std::collections::HashMap;

use psguard_crypto::{cbc_encrypt, Aes128, DeriveKey, Hmac, PrfContext, Token};
use psguard_keys::{
    combine_master, event_key_addresses, mac_key, part_from_topic_key, AuthKey, CacheStats,
    EpochId, EventKeyAddress, KeyCache, KeyScope, Ktid, OpCounter, Schema,
};
use psguard_model::Event;
use psguard_routing::{RoutableTag, SecureEvent};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::error::PublishError;

/// Per-worker event-key cache entries kept before wholesale eviction.
const EVENT_KEY_CACHE_CAP: usize = 256;

/// KH label separating the per-topic IV-derivation key from every other
/// use of the topic key.
const IV_SEED_LABEL: &[u8] = b"psguard-iv-seed";

/// A per-(topic, epoch) publishing credential issued by the KDC: the
/// topic key `K(w)` (or `K_P(w)`) and the routing token `T(w)`.
#[derive(Debug, Clone)]
pub struct PublisherCredential {
    /// The topic `w`.
    pub topic: String,
    /// The epoch the key is valid for.
    pub epoch: u64,
    /// The topic key rooting every per-attribute hierarchy.
    pub topic_key: DeriveKey,
    /// The routing token used to tag events.
    pub token: Token,
}

/// Event-key material cached per distinct address vector: the expanded
/// AES schedule for `K(e)` and the derived MAC key. Consecutive events
/// with the same keyed attribute values share both.
///
/// The derived `Debug` goes through the fields' own redacting `Debug`
/// impls, so no key material can leak into logs.
#[derive(Debug)]
struct EventKeys {
    aes: Aes128,
    mac: DeriveKey,
}

/// Per-worker derivation state for [`Publisher::publish_batch`]: a NAKT
/// key cache, an event-key cache, and a private op counter merged into
/// the publisher's after each batch.
#[derive(Debug)]
struct BatchWorker {
    cache: KeyCache,
    ops: OpCounter,
    /// Keyed by (credential id, address vector). The id names one
    /// installed credential for the publisher's lifetime — never a
    /// per-batch index (entries outlive the batch) and never the topic
    /// name (a reinstalled `(topic, epoch)` carries a new topic key).
    keys: HashMap<(u64, Vec<EventKeyAddress>), EventKeys>,
}

impl BatchWorker {
    fn new() -> Self {
        BatchWorker {
            cache: KeyCache::new(64 * 1024),
            ops: OpCounter::new(),
            keys: HashMap::new(),
        }
    }

    /// The AES/MAC material for an event with key parts at `addrs`,
    /// derived on first sight and cached across batches.
    fn event_keys(
        &mut self,
        schema: &Schema,
        cred: &ResolvedCredential,
        epoch: u64,
        addrs: Vec<EventKeyAddress>,
    ) -> &EventKeys {
        let key = (cred.id, addrs);
        if self.keys.len() >= EVENT_KEY_CACHE_CAP && !self.keys.contains_key(&key) {
            self.keys.clear();
        }
        let BatchWorker { cache, ops, keys } = self;
        keys.entry(key).or_insert_with_key(|k| {
            let parts: Vec<DeriveKey> =
                k.1.iter()
                    .map(|a| derive_part_cached(schema, cache, ops, &cred.topic_key, epoch, a))
                    .collect();
            let master = combine_master(&parts, ops);
            EventKeys {
                aes: Aes128::new(master.content_key().as_bytes()),
                mac: mac_key(&master, ops),
            }
        })
    }
}

/// A [`PublisherCredential`] resolved once, at install: the topic key,
/// an id never reused by a later install (the event-key cache identity),
/// plus [`PrfContext`]s so tagging each event and seeding its RNG cost
/// two SHA-1 compressions each instead of re-deriving HMAC pads per
/// event.
#[derive(Debug)]
struct ResolvedCredential {
    id: u64,
    topic_key: DeriveKey,
    tag_ctx: PrfContext,
    iv_ctx: PrfContext,
}

/// The per-topic IV-derivation context: a PRF keyed under
/// `KH(K(w), "psguard-iv-seed")`. Brokers never hold `K(w)`, so the
/// iv/nonce stream this context seeds is unpredictable to them.
fn iv_context(topic_key: &DeriveKey) -> PrfContext {
    PrfContext::new(topic_key.kh(IV_SEED_LABEL).as_bytes())
}

/// One per-attribute key part, routing numeric parts through a key cache
/// (consecutive events with nearby values share long NAKT prefixes).
fn derive_part_cached(
    schema: &Schema,
    cache: &mut KeyCache,
    ops: &mut OpCounter,
    topic_key: &DeriveKey,
    epoch: u64,
    addr: &EventKeyAddress,
) -> DeriveKey {
    if let EventKeyAddress::Numeric { attr, ktid } = addr {
        ops.add_kh(1);
        let auth = AuthKey {
            scope: KeyScope::Numeric {
                attr: attr.clone(),
                ktid: Ktid::root(),
            },
            key: topic_key.kh(attr.as_bytes()),
            epoch: EpochId(epoch),
        };
        if let Some(k) = cache.derive_numeric_cached(&auth, ktid, ops) {
            return k;
        }
    }
    part_from_topic_key(topic_key, schema, addr, ops)
}

/// The encrypt-then-MAC tag `KH_mk(iv ‖ ciphertext)`, streamed over the
/// two parts instead of copying them into one buffer.
pub(crate) fn mac_iv_ciphertext(mk: &DeriveKey, iv: &[u8; 16], ciphertext: &[u8]) -> [u8; 20] {
    let mut mac = Hmac::new(mk.as_bytes());
    mac.update(iv);
    mac.update(ciphertext);
    mac.finalize()
}

/// Encrypts and tags one event inside a batch, drawing iv and nonce from
/// the event's own deterministic `rng` (seeded by batch and index, so the
/// output is independent of how events are chunked across workers).
fn encrypt_one(
    schema: &Schema,
    cred: &ResolvedCredential,
    worker: &mut BatchWorker,
    event: &Event,
    epoch: u64,
    rng: &mut StdRng,
) -> Result<SecureEvent, PublishError> {
    let addrs = event_key_addresses(schema, event)?;
    let keys = worker.event_keys(schema, cred, epoch, addrs);

    let mut iv = [0u8; 16];
    rng.fill_bytes(&mut iv);
    let ciphertext = cbc_encrypt(&keys.aes, &iv, event.payload());
    let mac = mac_iv_ciphertext(&keys.mac, &iv, &ciphertext);
    worker.ops.add_kh(1);

    let mut routed = Event::builder("")
        .id(event.id())
        .publisher(event.publisher());
    for (name, value) in event.attrs() {
        routed = routed.attr(name.clone(), value.clone());
    }
    let routed = routed.payload(ciphertext).build();

    let mut nonce = [0u8; 16];
    rng.fill_bytes(&mut nonce);
    Ok(SecureEvent {
        tag: RoutableTag {
            nonce,
            tag: cred.tag_ctx.prf(&nonce),
        },
        event: routed,
        iv,
        epoch,
        mac,
    })
}

/// One event's private iv/nonce RNG, seeded by the topic's secret IV
/// context over ⟨publisher id ‖ batch ‖ index⟩.
///
/// The PRF is keyed under `K(w)`-derived material, so brokers (who see
/// only tokens and ciphertext) cannot predict any iv or nonce. The input
/// encodes the batch and index in separate 8-byte fields — injective,
/// unlike a 64-bit fold, so no two events of one publisher can collide
/// onto the same seed — and two PRF calls stretch the output to the full
/// 32-byte `StdRng` seed.
fn event_rng(iv_ctx: &PrfContext, base: u64, batch: u64, idx: u64) -> StdRng {
    let mut input = [0u8; 25];
    input[..8].copy_from_slice(&base.to_be_bytes());
    input[8..16].copy_from_slice(&batch.to_be_bytes());
    input[16..24].copy_from_slice(&idx.to_be_bytes());
    let mut seed = [0u8; 32];
    input[24] = 0;
    seed[..20].copy_from_slice(iv_ctx.prf(&input).as_bytes());
    input[24] = 1;
    seed[20..].copy_from_slice(&iv_ctx.prf(&input).as_bytes()[..12]);
    StdRng::from_seed(seed)
}

/// A publishing principal.
///
/// Obtain via [`crate::PsGuard::publisher`] and authorize per topic with
/// [`crate::PsGuard::authorize_publisher`].
#[derive(Debug)]
pub struct Publisher {
    name: String,
    schema: Schema,
    /// Installed credentials by epoch, then topic, resolved at install.
    credentials: HashMap<u64, HashMap<String, ResolvedCredential>>,
    /// Credentials installed so far; the next install's credential id.
    installs: u64,
    seed_base: u64,
    ops: OpCounter,
    /// Per-worker derivation caches persisted across batches.
    workers: Vec<BatchWorker>,
    /// Batches published so far; the stream id of every event's RNG seed.
    batch_counter: u64,
}

impl Publisher {
    pub(crate) fn new(name: impl Into<String>, schema: Schema) -> Self {
        let name = name.into();
        // The name hash only separates publishers that share a topic
        // credential (and keeps tests reproducible). Unpredictability of
        // ivs and nonces toward brokers comes from `event_rng`, whose PRF
        // is keyed under secret topic-key material.
        let seed = psguard_crypto::h(name.as_bytes());
        let mut seed8 = [0u8; 8];
        seed8.copy_from_slice(&seed[..8]);
        let seed_base = u64::from_be_bytes(seed8);
        Publisher {
            name,
            schema,
            credentials: HashMap::new(),
            installs: 0,
            seed_base,
            ops: OpCounter::new(),
            workers: Vec::new(),
            batch_counter: 0,
        }
    }

    /// Publisher-side key-cache statistics (§3.2.3 applies to "the KDC,
    /// the publishers and the subscribers"), summed over the per-worker
    /// caches that [`publish_batch`](Self::publish_batch) derives through.
    pub fn cache_stats(&self) -> CacheStats {
        self.workers
            .iter()
            .map(|w| w.cache.stats())
            .fold(CacheStats::default(), |acc, s| CacheStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
                partial_hits: acc.partial_hits + s.partial_hits,
                hash_ops_saved: acc.hash_ops_saved + s.hash_ops_saved,
                evictions: acc.evictions + s.evictions,
            })
    }

    /// The publisher's principal name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Installs a credential (called by the service facade), replacing
    /// any earlier one for the same `(topic, epoch)`.
    pub fn install_credential(&mut self, credential: PublisherCredential) {
        let PublisherCredential {
            topic,
            epoch,
            topic_key,
            token,
        } = credential;
        let resolved = ResolvedCredential {
            id: self.installs,
            tag_ctx: PrfContext::for_token(&token),
            iv_ctx: iv_context(&topic_key),
            topic_key,
        };
        self.installs += 1;
        self.credentials
            .entry(epoch)
            .or_default()
            .insert(topic, resolved);
    }

    /// Cumulative key-derivation cost since creation.
    pub fn ops(&self) -> OpCounter {
        self.ops
    }

    /// Encrypts and tags an event for dissemination during `epoch`: a
    /// [`publish_batch`](Self::publish_batch) of one.
    ///
    /// The returned [`SecureEvent`] carries the routable attributes in the
    /// clear (brokers match on them), the topic only as a pseudonymous
    /// tag, and the payload as AES-128-CBC ciphertext under `K(e)`.
    ///
    /// # Errors
    ///
    /// * [`PublishError::UnknownTopic`] without a credential for
    ///   `(topic, epoch)`;
    /// * [`PublishError::EventKey`] when the event violates the schema.
    pub fn publish(&mut self, event: &Event, epoch: u64) -> Result<SecureEvent, PublishError> {
        // A batch of one seals exactly one event.
        self.publish_batch(std::slice::from_ref(event), epoch, 1)
            .map(|mut sealed| sealed.swap_remove(0))
    }

    /// Encrypts and tags a whole batch of events across `workers` threads,
    /// each with its own KDC derivation cache and reusable crypto contexts
    /// (per-credential [`PrfContext`], per-event-key [`Aes128`] schedule).
    ///
    /// The output is **bit-identical for any worker count**: every event's
    /// iv and nonce come from a private RNG keyed under the topic key and
    /// seeded by the publisher identity, the batch counter, and the
    /// event's index — never by how events happen to be chunked across
    /// threads.
    ///
    /// Worker caches persist across batches, so a steady stream of batches
    /// (or of single [`publish`](Self::publish) calls) amortizes NAKT
    /// chain walks and AES key schedules.
    ///
    /// # Errors
    ///
    /// As [`publish`](Self::publish); an unknown topic anywhere in the
    /// batch fails it before any event is encrypted, and otherwise the
    /// earliest failing event's error is returned, independent of worker
    /// count.
    pub fn publish_batch(
        &mut self,
        events: &[Event],
        epoch: u64,
        workers: usize,
    ) -> Result<Vec<SecureEvent>, PublishError> {
        let workers = workers.max(1);
        self.batch_counter += 1;
        let batch = self.batch_counter;
        if events.is_empty() {
            return Ok(Vec::new());
        }

        // Look up each event's credential, failing fast before any
        // thread is spawned.
        let installed = self.credentials.get(&epoch);
        let creds = events
            .iter()
            .map(|e| {
                installed
                    .and_then(|by_topic| by_topic.get(e.topic()))
                    .ok_or_else(|| PublishError::UnknownTopic {
                        topic: e.topic().to_owned(),
                    })
            })
            .collect::<Result<Vec<&ResolvedCredential>, _>>()?;

        while self.workers.len() < workers {
            self.workers.push(BatchWorker::new());
        }

        let schema = &self.schema;
        let seed_base = self.seed_base;
        let creds = &creds;
        let seal = |i: usize, e: &Event, state: &mut BatchWorker| {
            let cred = creds[i];
            let mut rng = event_rng(&cred.iv_ctx, seed_base, batch, i as u64);
            encrypt_one(schema, cred, state, e, epoch, &mut rng)
        };
        // Every event is sealed (and its ops counted) even after a
        // failure; the earliest failing event's error is the batch's.
        let mut sealed = Ok(Vec::with_capacity(events.len()));
        let mut keep = |r: Result<SecureEvent, PublishError>| {
            if let Ok(done) = &mut sealed {
                match r {
                    Ok(event) => done.push(event),
                    Err(e) => sealed = Err(e),
                }
            }
        };

        let chunk = events.len().div_ceil(workers);
        if chunk == events.len() {
            // Single worker: run inline, straight into the result.
            let state = &mut self.workers[0];
            for (i, e) in events.iter().enumerate() {
                keep(seal(i, e, state));
            }
        } else {
            let mut outs: Vec<Vec<Result<SecureEvent, PublishError>>> = Vec::new();
            outs.resize_with(events.len().div_ceil(chunk), Vec::new);
            std::thread::scope(|s| {
                for (chunk_no, ((chunk_events, out), state)) in events
                    .chunks(chunk)
                    .zip(outs.iter_mut())
                    .zip(self.workers.iter_mut())
                    .enumerate()
                {
                    s.spawn(move || {
                        for (j, e) in chunk_events.iter().enumerate() {
                            out.push(seal(chunk_no * chunk + j, e, state));
                        }
                    });
                }
            });
            outs.into_iter().flatten().for_each(&mut keep);
        }

        // Fold worker op counts into the publisher's running total.
        let mut merged = OpCounter::new();
        for state in &mut self.workers {
            merged.merge(&state.ops);
            state.ops = OpCounter::new();
        }
        self.ops.merge(&merged);
        sealed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psguard_keys::{EpochId, EventKeyError, Kdc, TopicScope};
    use psguard_model::IntRange;

    fn publisher_with_credential() -> (Publisher, Kdc) {
        let schema = Schema::builder()
            .numeric("age", IntRange::new(0, 255).unwrap(), 1)
            .unwrap()
            .build();
        let kdc = Kdc::from_seed(b"seed");
        let mut p = Publisher::new("P", schema);
        let mut ops = OpCounter::new();
        p.install_credential(PublisherCredential {
            topic: "w".into(),
            epoch: 0,
            topic_key: kdc.topic_key("w", EpochId(0), &TopicScope::Shared, &mut ops),
            token: kdc.routing_token("w"),
        });
        (p, kdc)
    }

    #[test]
    fn publish_encrypts_and_strips_topic() {
        let (mut p, kdc) = publisher_with_credential();
        let e = Event::builder("w")
            .attr("age", 30i64)
            .payload(b"top secret".to_vec())
            .build();
        let secure = p.publish(&e, 0).unwrap();
        assert_eq!(secure.event.topic(), "");
        assert_ne!(secure.event.payload(), b"top secret");
        assert!(secure.event.payload().len() >= 16);
        // Tag matches the topic token.
        assert!(secure.tag.matches(&kdc.routing_token("w")));
        // Routable attribute remains visible for in-network matching.
        assert_eq!(secure.event.attr("age").and_then(|v| v.as_int()), Some(30));
    }

    #[test]
    fn missing_credential_is_an_error() {
        let (mut p, _) = publisher_with_credential();
        let e = Event::builder("other").payload(vec![1]).build();
        assert!(matches!(
            p.publish(&e, 0),
            Err(PublishError::UnknownTopic { .. })
        ));
        // Also wrong epoch for a known topic.
        let e = Event::builder("w").payload(vec![1]).build();
        assert!(matches!(
            p.publish(&e, 7),
            Err(PublishError::UnknownTopic { .. })
        ));
    }

    #[test]
    fn schema_violation_is_an_error() {
        let (mut p, _) = publisher_with_credential();
        let e = Event::builder("w")
            .attr("age", "not numeric")
            .payload(vec![1])
            .build();
        assert!(matches!(p.publish(&e, 0), Err(PublishError::EventKey(_))));
    }

    #[test]
    fn distinct_events_get_distinct_ivs_and_nonces() {
        let (mut p, _) = publisher_with_credential();
        let e = Event::builder("w")
            .attr("age", 1i64)
            .payload(vec![7])
            .build();
        let a = p.publish(&e, 0).unwrap();
        let b = p.publish(&e, 0).unwrap();
        assert_ne!(a.iv, b.iv);
        assert_ne!(a.tag.nonce, b.tag.nonce);
        assert_ne!(a.tag.tag, b.tag.tag);
    }

    #[test]
    fn publisher_cache_kicks_in_on_locality() {
        let (mut p, _) = publisher_with_credential();
        for v in [100i64, 101, 100, 102, 101] {
            let e = Event::builder("w").attr("age", v).payload(vec![1]).build();
            p.publish(&e, 0).unwrap();
        }
        // Summed over the worker caches the publishes derived through.
        let stats = p.cache_stats();
        assert!(stats.hits + stats.partial_hits > 0, "{stats:?}");
        assert!(stats.hash_ops_saved > 0);
    }

    #[test]
    fn cached_and_uncached_publishes_agree() {
        // The same event published twice (cache cold, then warm) must
        // produce ciphertexts that decrypt under the same grant.
        use crate::{PsGuard, PsGuardConfig};
        let schema = Schema::builder()
            .numeric("age", IntRange::new(0, 255).unwrap(), 1)
            .unwrap()
            .build();
        let ps = PsGuard::new(b"seed2", schema, PsGuardConfig::default());
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "w", 0);
        let mut sub = ps.subscriber("S");
        ps.authorize_subscriber(&mut sub, &psguard_model::Filter::for_topic("w"), 0)
            .unwrap();
        let e = Event::builder("w")
            .attr("age", 77i64)
            .payload(b"x".to_vec())
            .build();
        let first = publisher.publish(&e, 0).unwrap();
        let second = publisher.publish(&e, 0).unwrap();
        assert_eq!(sub.decrypt(&first).unwrap().payload(), b"x");
        assert_eq!(sub.decrypt(&second).unwrap().payload(), b"x");
    }

    #[test]
    fn ops_accumulate() {
        let (mut p, _) = publisher_with_credential();
        let e = Event::builder("w")
            .attr("age", 1i64)
            .payload(vec![7])
            .build();
        p.publish(&e, 0).unwrap();
        assert!(p.ops().total() > 0);
    }

    fn batch_events(n: usize) -> Vec<Event> {
        (0..n)
            .map(|i| {
                Event::builder("w")
                    .attr("age", (i % 200) as i64)
                    .payload(vec![i as u8; 48])
                    .build()
            })
            .collect()
    }

    #[test]
    fn batch_output_identical_for_any_worker_count() {
        let events = batch_events(37);
        let (mut p, _) = publisher_with_credential();
        let baseline = p.publish_batch(&events, 0, 1).unwrap();
        assert_eq!(baseline.len(), events.len());
        for workers in [2usize, 4, 8] {
            let (mut q, _) = publisher_with_credential();
            let got = q.publish_batch(&events, 0, workers).unwrap();
            assert_eq!(got, baseline, "workers={workers}");
        }
    }

    #[test]
    fn batch_events_decrypt_and_route_like_serial_ones() {
        let (mut p, kdc) = publisher_with_credential();
        let events = batch_events(9);
        let batch = p.publish_batch(&events, 0, 4).unwrap();
        let token = kdc.routing_token("w");
        for (e, s) in events.iter().zip(&batch) {
            assert_eq!(s.event.topic(), "");
            assert!(s.tag.matches(&token));
            assert_eq!(
                s.event.attr("age").and_then(|v| v.as_int()),
                e.attr("age").and_then(|v| v.as_int())
            );
        }

        // Full-facade check: a subscriber authorized for the topic can
        // verify and decrypt every envelope in the batch.
        use crate::{PsGuard, PsGuardConfig};
        let schema = Schema::builder()
            .numeric("age", IntRange::new(0, 255).unwrap(), 1)
            .unwrap()
            .build();
        let ps = PsGuard::new(b"seed3", schema, PsGuardConfig::default());
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "w", 0);
        let mut sub = ps.subscriber("S");
        ps.authorize_subscriber(&mut sub, &psguard_model::Filter::for_topic("w"), 0)
            .unwrap();
        for (i, s) in publisher
            .publish_batch(&events, 0, 3)
            .unwrap()
            .iter()
            .enumerate()
        {
            assert_eq!(sub.decrypt(s).unwrap().payload(), vec![i as u8; 48]);
        }
    }

    #[test]
    fn successive_batches_draw_fresh_randomness() {
        let (mut p, _) = publisher_with_credential();
        let events = batch_events(4);
        let first = p.publish_batch(&events, 0, 2).unwrap();
        let second = p.publish_batch(&events, 0, 2).unwrap();
        for (a, b) in first.iter().zip(&second) {
            assert_ne!(a.iv, b.iv);
            assert_ne!(a.tag.nonce, b.tag.nonce);
        }
        assert!(p.ops().total() > 0);
    }

    #[test]
    fn batch_errors_do_not_depend_on_worker_count() {
        let events = vec![
            Event::builder("w")
                .attr("age", 1i64)
                .payload(vec![1])
                .build(),
            Event::builder("other").payload(vec![2]).build(),
        ];
        for workers in [1usize, 2, 8] {
            let (mut p, _) = publisher_with_credential();
            assert!(matches!(
                p.publish_batch(&events, 0, workers),
                Err(PublishError::UnknownTopic { ref topic }) if topic == "other"
            ));
        }
        // A schema violation surfaces as the earliest failing event's
        // error for every worker count.
        let bad = vec![
            Event::builder("w")
                .attr("age", 1i64)
                .payload(vec![1])
                .build(),
            Event::builder("w")
                .attr("age", "not numeric")
                .payload(vec![2])
                .build(),
            Event::builder("w")
                .attr("age", 999i64)
                .payload(vec![3])
                .build(),
        ];
        for workers in [1usize, 2, 8] {
            let (mut p, _) = publisher_with_credential();
            assert!(matches!(
                p.publish_batch(&bad, 0, workers),
                Err(PublishError::EventKey(EventKeyError::FamilyMismatch { .. }))
            ));
            // The later failure is a different error.
            assert!(matches!(
                p.publish(&bad[2], 0),
                Err(PublishError::EventKey(EventKeyError::OutOfRange { .. }))
            ));
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (mut p, _) = publisher_with_credential();
        assert_eq!(p.publish_batch(&[], 0, 4).unwrap(), Vec::new());
    }

    #[test]
    fn reordered_topics_across_batches_reuse_no_stale_keys() {
        // Regression: worker event-key caches persist across batches, so
        // a batch whose topics arrive in a different first-seen order
        // than an earlier batch must not hit another topic's cached
        // K(e). Events carry identical keyed attributes to force the
        // cache collision a per-batch index key would produce.
        use crate::{PsGuard, PsGuardConfig};
        let schema = Schema::builder()
            .numeric("age", IntRange::new(0, 255).unwrap(), 1)
            .unwrap()
            .build();
        let ps = PsGuard::new(b"seed4", schema, PsGuardConfig::default());
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "w", 0);
        ps.authorize_publisher(&mut publisher, "v", 0);
        let mut sub_w = ps.subscriber("Sw");
        ps.authorize_subscriber(&mut sub_w, &psguard_model::Filter::for_topic("w"), 0)
            .unwrap();
        let mut sub_v = ps.subscriber("Sv");
        ps.authorize_subscriber(&mut sub_v, &psguard_model::Filter::for_topic("v"), 0)
            .unwrap();
        let ev = |topic: &str, payload: &[u8]| {
            Event::builder(topic)
                .attr("age", 10i64)
                .payload(payload.to_vec())
                .build()
        };
        for workers in [1usize, 3] {
            let first = publisher
                .publish_batch(&[ev("w", b"w1"), ev("v", b"v1")], 0, workers)
                .unwrap();
            let second = publisher
                .publish_batch(&[ev("v", b"v2"), ev("w", b"w2")], 0, workers)
                .unwrap();
            assert_eq!(sub_w.decrypt(&first[0]).unwrap().payload(), b"w1");
            assert_eq!(sub_v.decrypt(&first[1]).unwrap().payload(), b"v1");
            assert_eq!(sub_v.decrypt(&second[0]).unwrap().payload(), b"v2");
            assert_eq!(sub_w.decrypt(&second[1]).unwrap().payload(), b"w2");
        }
    }

    #[test]
    fn interleaved_publishes_and_batches_never_reuse_ivs_or_nonces() {
        let (mut p, _) = publisher_with_credential();
        let events = batch_events(8);
        let mut sealed = Vec::new();
        for (i, e) in events.iter().enumerate() {
            sealed.push(p.publish(e, 0).unwrap());
            sealed.extend(p.publish_batch(&events[..i + 1], 0, 2).unwrap());
        }
        let mut ivs = std::collections::HashSet::new();
        let mut nonces = std::collections::HashSet::new();
        for s in &sealed {
            assert!(ivs.insert(s.iv), "iv reused");
            assert!(nonces.insert(s.tag.nonce), "nonce reused");
        }
    }

    #[test]
    fn publish_is_a_batch_of_one() {
        let (mut serial, _) = publisher_with_credential();
        let (mut batched, _) = publisher_with_credential();
        // Warm both through the same mixed history first.
        let warm = batch_events(5);
        serial.publish_batch(&warm, 0, 2).unwrap();
        batched.publish_batch(&warm, 0, 2).unwrap();
        for e in batch_events(6) {
            let one = batched
                .publish_batch(std::slice::from_ref(&e), 0, 1)
                .unwrap();
            assert_eq!(vec![serial.publish(&e, 0).unwrap()], one);
        }
        assert_eq!(serial.ops(), batched.ops());
    }

    #[test]
    fn reinstalled_credential_takes_effect_on_the_next_batch() {
        // Regression: worker event-key caches persist across batches, so
        // replacing the topic key of an already-published `(topic, epoch)`
        // must not keep encrypting under the old K(e) while tagging with
        // the new token.
        use crate::{PsGuard, PsGuardConfig};
        let schema = Schema::builder()
            .numeric("age", IntRange::new(0, 255).unwrap(), 1)
            .unwrap()
            .build();
        let old = PsGuard::new(b"old-master", schema.clone(), PsGuardConfig::default());
        let new = PsGuard::new(b"new-master", schema, PsGuardConfig::default());
        let mut publisher = old.publisher("P");
        old.authorize_publisher(&mut publisher, "w", 0);
        let e = Event::builder("w")
            .attr("age", 10i64)
            .payload(b"x".to_vec())
            .build();
        publisher
            .publish_batch(std::slice::from_ref(&e), 0, 1)
            .unwrap();

        new.authorize_publisher(&mut publisher, "w", 0);
        let mut sub = new.subscriber("S");
        new.authorize_subscriber(&mut sub, &psguard_model::Filter::for_topic("w"), 0)
            .unwrap();
        let sealed = publisher
            .publish_batch(std::slice::from_ref(&e), 0, 1)
            .unwrap();
        assert_eq!(sub.decrypt(&sealed[0]).unwrap().payload(), b"x");
        assert_eq!(
            sub.decrypt(&publisher.publish(&e, 0).unwrap())
                .unwrap()
                .payload(),
            b"x"
        );
    }

    #[test]
    fn publishers_with_distinct_names_draw_distinct_ivs() {
        let events = batch_events(4);
        let mut outs = Vec::new();
        for name in ["P1", "P2"] {
            let schema = Schema::builder()
                .numeric("age", IntRange::new(0, 255).unwrap(), 1)
                .unwrap()
                .build();
            let kdc = Kdc::from_seed(b"seed");
            let mut p = Publisher::new(name, schema);
            let mut ops = OpCounter::new();
            p.install_credential(PublisherCredential {
                topic: "w".into(),
                epoch: 0,
                topic_key: kdc.topic_key("w", EpochId(0), &TopicScope::Shared, &mut ops),
                token: kdc.routing_token("w"),
            });
            outs.push(p.publish_batch(&events, 0, 1).unwrap());
        }
        for (a, b) in outs[0].iter().zip(&outs[1]) {
            assert_ne!(a.iv, b.iv);
            assert_ne!(a.tag.nonce, b.tag.nonce);
        }
    }
}
