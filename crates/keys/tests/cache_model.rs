//! `KeyCache` against a reference model: the plain label-map plus
//! recency-map LRU that the slab cache replaced, kept here as the
//! specification. After every derivation the two must agree on the key,
//! the hash count, every `CacheStats` field, `len()` and `used_bytes()`,
//! so drift in labels, byte costs or eviction order shows at once.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use psguard_crypto::{DeriveKey, DERIVE_KEY_LEN};
use psguard_keys::{
    AuthKey, CacheStats, EpochId, KeyCache, KeyScope, Ktid, Nakt, NaktKeySpace, OpCounter,
};
use psguard_model::IntRange;

/// The reference LRU: labels `h(K)[..8] ‖ epoch ‖ "N:{attr}:" ‖ digits`,
/// each entry charged `label.len() + 20` bytes, least recently used
/// evicted first.
struct Model {
    capacity: usize,
    used: usize,
    map: HashMap<Vec<u8>, (DeriveKey, u64)>,
    order: BTreeMap<u64, Vec<u8>>,
    tick: u64,
    stats: CacheStats,
}

impl Model {
    fn new(capacity: usize) -> Self {
        Model {
            capacity,
            used: 0,
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn get(&mut self, label: &[u8]) -> Option<DeriveKey> {
        let (key, tick) = self.map.get_mut(label)?;
        self.order.remove(tick);
        self.tick += 1;
        *tick = self.tick;
        self.order.insert(self.tick, label.to_vec());
        Some(key.clone())
    }

    fn insert(&mut self, label: Vec<u8>, key: DeriveKey) {
        let cost = label.len() + DERIVE_KEY_LEN;
        if cost > self.capacity {
            return;
        }
        if let Some((_, tick)) = self.map.remove(&label) {
            self.order.remove(&tick);
            self.used -= cost;
        }
        while self.used + cost > self.capacity {
            let Some((_, victim)) = self.order.pop_first() else {
                break;
            };
            self.used -= victim.len() + DERIVE_KEY_LEN;
            self.map.remove(&victim);
            self.stats.evictions += 1;
        }
        self.tick += 1;
        self.order.insert(self.tick, label.clone());
        self.map.insert(label, (key, self.tick));
        self.used += cost;
    }

    fn derive(&mut self, auth: &AuthKey, target: &Ktid, ops: &mut OpCounter) -> Option<DeriveKey> {
        let KeyScope::Numeric { attr, ktid: held } = &auth.scope else {
            return None;
        };
        if !held.is_prefix_of(target) {
            return None;
        }
        let label = |depth: usize| {
            let mut l = psguard_crypto::h(auth.key.as_bytes())[..8].to_vec();
            l.extend(auth.epoch.0.to_be_bytes());
            l.extend(format!("N:{attr}:").into_bytes());
            l.extend(&target.digits()[..depth]);
            l
        };
        let found = (held.depth()..=target.depth())
            .rev()
            .find_map(|d| Some((d, self.get(&label(d))?)));
        let (mut depth, mut key) = match &found {
            Some((d, k)) if *d == target.depth() => {
                self.stats.hits += 1;
                (*d, k.clone())
            }
            Some((d, k)) => {
                self.stats.partial_hits += 1;
                (*d, k.clone())
            }
            None => {
                self.stats.misses += 1;
                (held.depth(), auth.key.clone())
            }
        };
        self.stats.hash_ops_saved += (depth - held.depth()) as u64;
        if found.is_none() && depth == target.depth() {
            self.insert(label(depth), key.clone());
        }
        while depth < target.depth() {
            ops.add_hash(1);
            key = key.child_n(u32::from(target.digits()[depth]));
            depth += 1;
            self.insert(label(depth), key.clone());
        }
        Some(key)
    }
}

/// Authorization keys covering the cases the namespace separates: two
/// topics keying the same attribute name, a second attribute, a second
/// epoch under the same key bytes, and a non-root held element.
fn auth_keys(nakt: &Nakt) -> Vec<AuthKey> {
    let t1 = DeriveKey::from_bytes(b"K(topic1)");
    let t2 = DeriveKey::from_bytes(b"K(topic2)");
    let value1 = NaktKeySpace::new(nakt.clone(), &t1, b"value");
    let value2 = NaktKeySpace::new(nakt.clone(), &t2, b"value");
    let price1 = NaktKeySpace::new(nakt.clone(), &t1, b"price");
    let auth = |attr: &str, space: &NaktKeySpace, held: Ktid, epoch: u64| {
        let mut ops = OpCounter::new();
        AuthKey {
            key: space.key_for(&held, &mut ops),
            scope: KeyScope::Numeric {
                attr: attr.into(),
                ktid: held,
            },
            epoch: EpochId(epoch),
        }
    };
    vec![
        auth("value", &value1, Ktid::root(), 0),
        auth("value", &value2, Ktid::root(), 0),
        auth("value", &value1, Ktid::root(), 1),
        auth("value", &value1, Ktid::from_digits([1, 0]), 0),
        auth("price", &price1, Ktid::root(), 0),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_matches_reference_lru(
        // Half the values in a narrow band, so exact and partial hits
        // are common; the band straddles the held element `10`.
        calls in prop::collection::vec(
            (0usize..5, prop_oneof![0i64..256, 120i64..136]),
            1..200,
        ),
        capacity in 0usize..4096,
    ) {
        let nakt = Nakt::binary(IntRange::new(0, 255).expect("valid"), 1).expect("valid");
        let auths = auth_keys(&nakt);
        let mut cache = KeyCache::new(capacity);
        let mut model = Model::new(capacity);
        for (step, (a, v)) in calls.into_iter().enumerate() {
            let target = nakt.ktid_of_value(v).expect("in range");
            let (mut ops, mut model_ops) = (OpCounter::new(), OpCounter::new());
            let got = cache.derive_numeric_cached(&auths[a], &target, &mut ops);
            let want = model.derive(&auths[a], &target, &mut model_ops);
            prop_assert_eq!(got, want, "key at step {} (auth {}, v={})", step, a, v);
            prop_assert_eq!(ops, model_ops, "hash count at step {}", step);
            prop_assert_eq!(cache.stats(), model.stats, "stats at step {}", step);
            prop_assert_eq!(cache.len(), model.map.len(), "len at step {}", step);
            prop_assert_eq!(cache.used_bytes(), model.used, "bytes at step {}", step);
        }
    }
}
