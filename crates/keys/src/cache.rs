//! The key cache (§3.2.3 and Figure 11).
//!
//! When a subscriber derives an event key `K^num_{ktid_α}` from an
//! authorization key `K^num_{ktid_φ}`, every intermediate key on the path
//! is cached. A later derivation starts from the *deepest cached prefix*
//! of its target instead of the authorization key, saving
//! `|ktid_{φ'}| − |ktid_φ|` hash operations — a large win when events
//! exhibit temporal locality (e.g. consecutive stock quotes).
//!
//! The cache must cost less than the hashes it saves, so once warm it
//! allocates nothing: entries live in a slab threaded by an intrusive
//! LRU list (an evicted slot's label buffer is reused), labels are built
//! in one reused scratch buffer and found through an open-addressed
//! table of slot numbers under a fast non-cryptographic hash, and the
//! per-authorization-key namespace is hashed once, not once per call.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use psguard_crypto::{DeriveKey, DERIVE_KEY_LEN};

use crate::cost::OpCounter;
use crate::epoch::EpochId;
use crate::grant::{AuthKey, KeyScope};
use crate::ktid::Ktid;

/// Cache hit/derivation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found the exact key.
    pub hits: u64,
    /// Lookups that found nothing (full derivation needed).
    pub misses: u64,
    /// Lookups resolved from a cached ancestor (partial derivation).
    pub partial_hits: u64,
    /// Hash operations avoided thanks to cached ancestors.
    pub hash_ops_saved: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
}

/// An empty bucket, and the end of a slot list.
const NIL: u32 = u32::MAX;

/// Label bytes reserved for a fresh slot, so that a reused slot rarely
/// has to grow its buffer for a longer label.
const LABEL_RESERVE: usize = 48;

/// Authorization keys whose namespace is remembered before the memo is
/// dropped wholesale (endpoints hold a handful per topic and epoch).
const NAMESPACE_MEMO_CAP: usize = 256;

/// FxHash-style rotate-xor-multiply over 64-bit words: several times
/// cheaper than SipHash on the short labels the cache hashes. No
/// flood resistance is needed: every label is built by the cache itself
/// from keys the endpoint holds, and lookups compare full labels.
#[derive(Default)]
struct LabelHasher(u64);

impl LabelHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for LabelHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            self.add(u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            // Zero-pad the tail and fold in its length so "ab" and
            // "ab\0" land differently.
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
            self.add(tail.len() as u64);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn label_hash(label: &[u8]) -> u64 {
    let mut h = LabelHasher::default();
    h.write(label);
    h.finish()
}

/// Bytes one entry is charged against the budget.
fn entry_cost(label: &[u8]) -> usize {
    label.len() + DERIVE_KEY_LEN
}

/// Writes the label of NAKT element `digits` under a numeric
/// authorization key `K` into `out`, replacing its contents:
/// `h(K)[..8] ‖ epoch ‖ "N:" ‖ attr ‖ ":" ‖ digits`. Returns the length
/// before the digits, so the label of the ancestor at depth `d` is
/// `out[..base + d]`.
///
/// The namespace `h(K)[..8] ‖ epoch` comes first because attribute names
/// repeat across topics (every numeric topic keys `value`): `(attr,
/// ktid)` alone would collide across hierarchies and hand back keys from
/// the wrong topic or epoch.
fn write_label(
    out: &mut Vec<u8>,
    namespace: &[u8; 8],
    epoch: EpochId,
    attr: &str,
    digits: &[u8],
) -> usize {
    out.clear();
    out.extend_from_slice(namespace);
    out.extend_from_slice(&epoch.0.to_be_bytes());
    out.extend_from_slice(b"N:");
    out.extend_from_slice(attr.as_bytes());
    out.push(b':');
    let base = out.len();
    out.extend_from_slice(digits);
    base
}

/// One slab entry: a cached key under its label, linked into the LRU
/// list (or, when free, into the free list through `older`).
///
/// No `Debug`: the key is derived material, and the label encodes a
/// hierarchy path the endpoint is authorized for.
struct CacheSlot {
    label: Vec<u8>,
    key: DeriveKey,
    hash: u64,
    /// Neighbour towards the most recently used end.
    newer: u32,
    /// Neighbour towards the least recently used end.
    older: u32,
}

/// A byte-budgeted LRU cache of derived hierarchy keys.
///
/// # Example
///
/// ```
/// use psguard_crypto::DeriveKey;
/// use psguard_keys::KeyCache;
///
/// let mut cache = KeyCache::new(1024);
/// cache.insert(b"some-label", DeriveKey::from_bytes(b"k"));
/// assert!(cache.get(b"some-label").is_some());
/// assert!(cache.get(b"other").is_none());
/// ```
pub struct KeyCache {
    capacity_bytes: usize,
    used_bytes: usize,
    len: usize,
    slots: Vec<CacheSlot>,
    /// Open addressing with linear probing: slot numbers, `NIL` when
    /// empty; a power of two long and at most half full.
    buckets: Vec<u32>,
    /// `64 − log2(buckets.len())`: a hash's top bits pick its bucket.
    shift: u32,
    newest: u32,
    oldest: u32,
    free: u32,
    /// The label of the derivation in progress.
    scratch: Vec<u8>,
    /// `h(K)[..8]` per authorization key `K`.
    namespaces: HashMap<[u8; DERIVE_KEY_LEN], [u8; 8], BuildHasherDefault<LabelHasher>>,
    stats: CacheStats,
}

// Redacting Debug: the cache holds derived key material, so only shape and
// statistics are printed — never entries or labels (labels encode the key
// hierarchy paths a subscriber is authorized for).
impl fmt::Debug for KeyCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("used_bytes", &self.used_bytes)
            .field("len", &self.len)
            .field("stats", &self.stats)
            .field("keys", &"<redacted>")
            .finish()
    }
}

impl KeyCache {
    /// Creates a cache bounded to roughly `capacity_bytes` of key + label
    /// storage. A capacity of 0 disables caching. Allocates nothing until
    /// first used.
    pub fn new(capacity_bytes: usize) -> Self {
        KeyCache {
            capacity_bytes,
            used_bytes: 0,
            len: 0,
            slots: Vec::new(),
            buckets: Vec::new(),
            shift: 64,
            newest: NIL,
            oldest: NIL,
            free: NIL,
            scratch: Vec::new(),
            namespaces: HashMap::default(),
            stats: CacheStats::default(),
        }
    }

    /// Current storage footprint in bytes.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Statistics since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn bucket(&self, hash: u64) -> usize {
        // `checked_shr` maps the empty table's shift of 64 to bucket 0.
        hash.checked_shr(self.shift).unwrap_or(0) as usize
    }

    fn find(&self, label: &[u8], hash: u64) -> Option<u32> {
        let mask = self.buckets.len().checked_sub(1)?;
        let mut i = self.bucket(hash);
        loop {
            let s = *self.buckets.get(i)?;
            let slot = self.slots.get(s as usize)?;
            if slot.hash == hash && slot.label == label {
                return Some(s);
            }
            i = (i + 1) & mask;
        }
    }

    fn unlink(&mut self, s: u32) {
        let (newer, older) = {
            let slot = &self.slots[s as usize];
            (slot.newer, slot.older)
        };
        match self.slots.get_mut(newer as usize) {
            Some(n) => n.older = older,
            None => self.newest = older,
        }
        match self.slots.get_mut(older as usize) {
            Some(o) => o.newer = newer,
            None => self.oldest = newer,
        }
    }

    fn link_newest(&mut self, s: u32) {
        let old_newest = self.newest;
        {
            let slot = &mut self.slots[s as usize];
            slot.newer = NIL;
            slot.older = old_newest;
        }
        match self.slots.get_mut(old_newest as usize) {
            Some(n) => n.newer = s,
            None => self.oldest = s,
        }
        self.newest = s;
    }

    /// Marks slot `s` most recently used.
    fn touch(&mut self, s: u32) {
        if self.newest != s {
            self.unlink(s);
            self.link_newest(s);
        }
    }

    /// Places slot `s` in the table, doubling the table first when it
    /// would become more than half full.
    fn index_insert(&mut self, s: u32) {
        if (self.len + 1) * 2 > self.buckets.len() {
            let size = (self.buckets.len() * 2).max(16);
            self.buckets.clear();
            self.buckets.resize(size, NIL);
            self.shift = 64 - size.trailing_zeros();
            let mut live = self.newest;
            while let Some(slot) = self.slots.get(live as usize) {
                let next = slot.older;
                self.place(live);
                live = next;
            }
        }
        self.place(s);
    }

    fn place(&mut self, s: u32) {
        let mask = self.buckets.len() - 1;
        let mut i = self.bucket(self.slots[s as usize].hash);
        while self.buckets[i] != NIL {
            i = (i + 1) & mask;
        }
        self.buckets[i] = s;
    }

    /// Removes slot `s` from the table by backward shifting, so probe
    /// runs stay unbroken without tombstones.
    fn index_remove(&mut self, s: u32) {
        let mask = self.buckets.len() - 1;
        let mut hole = self.bucket(self.slots[s as usize].hash);
        while self.buckets[hole] != s {
            if self.buckets[hole] == NIL {
                return;
            }
            hole = (hole + 1) & mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let t = self.buckets[j];
            if t == NIL {
                break;
            }
            // `t` may fill the hole unless its home bucket lies
            // cyclically after the hole.
            let home = self.bucket(self.slots[t as usize].hash);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.buckets[hole] = t;
                hole = j;
            }
        }
        self.buckets[hole] = NIL;
    }

    /// Drops the least recently used entry onto the free list; `false`
    /// when the cache is empty.
    fn evict_oldest(&mut self) -> bool {
        let s = self.oldest;
        if s == NIL {
            return false;
        }
        self.unlink(s);
        self.index_remove(s);
        let slot = &mut self.slots[s as usize];
        self.used_bytes -= entry_cost(&slot.label);
        slot.older = self.free;
        self.free = s;
        self.len -= 1;
        self.stats.evictions += 1;
        true
    }

    /// Looks up a key, refreshing its recency. Does **not** update hit/miss
    /// statistics (use the deriving helpers for that).
    pub fn get(&mut self, label: &[u8]) -> Option<DeriveKey> {
        let s = self.find(label, label_hash(label))?;
        self.touch(s);
        Some(self.slots[s as usize].key.clone())
    }

    /// Inserts (or refreshes) a key, evicting least-recently-used entries
    /// when over budget. No-op when the cache capacity is 0 or the entry
    /// alone exceeds the budget.
    pub fn insert(&mut self, label: &[u8], key: DeriveKey) {
        let cost = entry_cost(label);
        if cost > self.capacity_bytes {
            return;
        }
        let hash = label_hash(label);
        if let Some(s) = self.find(label, hash) {
            self.slots[s as usize].key = key;
            self.touch(s);
            return;
        }
        while self.used_bytes + cost > self.capacity_bytes && self.evict_oldest() {}
        let s = match self.slots.get_mut(self.free as usize) {
            Some(slot) => {
                let s = self.free;
                self.free = slot.older;
                slot.label.clear();
                slot.label.extend_from_slice(label);
                slot.key = key;
                slot.hash = hash;
                s
            }
            None => {
                let mut buf = Vec::with_capacity(label.len().max(LABEL_RESERVE));
                buf.extend_from_slice(label);
                self.slots.push(CacheSlot {
                    label: buf,
                    key,
                    hash,
                    newer: NIL,
                    older: NIL,
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.index_insert(s);
        self.link_newest(s);
        self.used_bytes += cost;
        self.len += 1;
    }

    /// `h(K)[..8]` for authorization key `K`, hashed once per key.
    fn namespace(&mut self, key: &DeriveKey) -> [u8; 8] {
        if let Some(ns) = self.namespaces.get(key.as_bytes()) {
            return *ns;
        }
        if self.namespaces.len() >= NAMESPACE_MEMO_CAP {
            self.namespaces.clear();
        }
        let mut ns = [0u8; 8];
        ns.copy_from_slice(&psguard_crypto::h(key.as_bytes())[..8]);
        self.namespaces.insert(*key.as_bytes(), ns);
        ns
    }

    /// Derives the key for NAKT element `target` from a numeric
    /// authorization key, using the deepest cached intermediate on the path
    /// (the paper's "optimal cached key"). Caches every intermediate key.
    ///
    /// Returns `None` when the authorization `ktid` is not a prefix of
    /// `target` (unauthorized).
    pub fn derive_numeric_cached(
        &mut self,
        auth: &AuthKey,
        target: &Ktid,
        ops: &mut OpCounter,
    ) -> Option<DeriveKey> {
        let KeyScope::Numeric { attr, ktid: held } = &auth.scope else {
            return None;
        };
        held.is_prefix_of(target).then_some(())?;
        let digits = target.digits();
        let top = held.depth();

        let mut label = std::mem::take(&mut self.scratch);
        let namespace = self.namespace(&auth.key);
        let base = write_label(&mut label, &namespace, auth.epoch, attr, digits);

        // Find the deepest cached ancestor of `target` at or below `held`.
        let cached = (top..=digits.len())
            .rev()
            .find_map(|depth| Some((depth, self.get(&label[..base + depth])?)));
        let found = cached.is_some();
        let (mut depth, mut key) = match cached {
            Some((depth, key)) => {
                if depth == digits.len() {
                    self.stats.hits += 1;
                } else {
                    self.stats.partial_hits += 1;
                }
                self.stats.hash_ops_saved += (depth - top) as u64;
                (depth, key)
            }
            None => {
                self.stats.misses += 1;
                (top, auth.key.clone())
            }
        };

        // Walk down, caching intermediates.
        if !found && depth == digits.len() {
            // Target == held: cache the auth key itself.
            self.insert(&label, key.clone());
        }
        while let Some(&d) = digits.get(depth) {
            ops.add_hash(1);
            key = key.child_n(d as u32);
            depth += 1;
            self.insert(&label[..base + depth], key.clone());
        }
        self.scratch = label;
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nakt::{Nakt, NaktKeySpace};
    use psguard_model::IntRange;

    fn auth_for(held: Ktid) -> (AuthKey, NaktKeySpace) {
        let nakt = Nakt::binary(IntRange::new(0, 255).unwrap(), 1).unwrap();
        let topic = DeriveKey::from_bytes(b"K(w)");
        let space = NaktKeySpace::new(nakt, &topic, b"age");
        let mut ops = OpCounter::new();
        let key = space.key_for(&held, &mut ops);
        (
            AuthKey {
                scope: KeyScope::Numeric {
                    attr: "age".into(),
                    ktid: held,
                },
                key,
                epoch: EpochId(0),
            },
            space,
        )
    }

    #[test]
    fn cached_derivation_matches_direct() {
        let (auth, space) = auth_for(Ktid::from_digits([1]));
        let mut cache = KeyCache::new(64 * 1024);
        let mut ops = OpCounter::new();
        let target = space.nakt().ktid_of_value(200).unwrap();
        let via_cache = cache
            .derive_numeric_cached(&auth, &target, &mut ops)
            .unwrap();
        let direct = space.key_for(&target, &mut ops);
        assert_eq!(via_cache, direct);
    }

    #[test]
    fn second_derivation_is_cheaper() {
        let (auth, space) = auth_for(Ktid::from_digits([1]));
        let mut cache = KeyCache::new(64 * 1024);
        let t1 = space.nakt().ktid_of_value(200).unwrap();
        let t2 = space.nakt().ktid_of_value(201).unwrap(); // adjacent leaf

        let mut ops1 = OpCounter::new();
        cache.derive_numeric_cached(&auth, &t1, &mut ops1).unwrap();
        let mut ops2 = OpCounter::new();
        cache.derive_numeric_cached(&auth, &t2, &mut ops2).unwrap();
        assert!(
            ops2.hash_ops < ops1.hash_ops,
            "temporal locality should reduce ops: {} vs {}",
            ops2.hash_ops,
            ops1.hash_ops
        );
        assert!(cache.stats().hash_ops_saved > 0);

        // Exact repeat: free.
        let mut ops3 = OpCounter::new();
        cache.derive_numeric_cached(&auth, &t1, &mut ops3).unwrap();
        assert_eq!(ops3.hash_ops, 0);
        assert!(cache.stats().hits >= 1);
    }

    #[test]
    fn unauthorized_target_refused() {
        let (auth, space) = auth_for(Ktid::from_digits([1]));
        let mut cache = KeyCache::new(1024);
        let mut ops = OpCounter::new();
        let outside = space.nakt().ktid_of_value(3).unwrap(); // under subtree 0
        assert!(cache
            .derive_numeric_cached(&auth, &outside, &mut ops)
            .is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let (auth, space) = auth_for(Ktid::from_digits([1]));
        let mut cache = KeyCache::new(0);
        let t = space.nakt().ktid_of_value(200).unwrap();
        let mut ops1 = OpCounter::new();
        cache.derive_numeric_cached(&auth, &t, &mut ops1).unwrap();
        let mut ops2 = OpCounter::new();
        cache.derive_numeric_cached(&auth, &t, &mut ops2).unwrap();
        assert_eq!(ops1.hash_ops, ops2.hash_ops, "nothing should be cached");
        assert!(cache.is_empty());
    }

    #[test]
    fn hierarchies_do_not_collide_in_the_cache() {
        // Regression: every numeric topic keys the same attribute name
        // ("value" in the paper workload), so cache lines must be
        // namespaced by the authorization key, not just (attr, ktid).
        let nakt = Nakt::binary(IntRange::new(0, 255).unwrap(), 1).unwrap();
        let t1 = DeriveKey::from_bytes(b"K(topic1)");
        let t2 = DeriveKey::from_bytes(b"K(topic2)");
        let s1 = NaktKeySpace::new(nakt.clone(), &t1, b"value");
        let s2 = NaktKeySpace::new(nakt.clone(), &t2, b"value");
        let held = Ktid::root();
        let auth = |space: &NaktKeySpace| AuthKey {
            scope: KeyScope::Numeric {
                attr: "value".into(),
                ktid: held.clone(),
            },
            key: space.root_key().clone(),
            epoch: EpochId(0),
        };
        let mut cache = KeyCache::new(64 * 1024);
        let mut ops = OpCounter::new();
        let target = nakt.ktid_of_value(99).unwrap();
        let k1 = cache
            .derive_numeric_cached(&auth(&s1), &target, &mut ops)
            .unwrap();
        let k2 = cache
            .derive_numeric_cached(&auth(&s2), &target, &mut ops)
            .unwrap();
        assert_ne!(k1, k2, "cache returned a key from the wrong hierarchy");
        assert_eq!(k1, s1.key_for(&target, &mut ops));
        assert_eq!(k2, s2.key_for(&target, &mut ops));
        // Same hierarchy, different epoch: also distinct namespaces.
        let mut stale = auth(&s1);
        stale.epoch = EpochId(1);
        let k1e = cache
            .derive_numeric_cached(&stale, &target, &mut ops)
            .unwrap();
        // Key bytes identical (epoch ratcheting happens in the topic key),
        // but the lookup must not have been served from epoch-0 lines:
        // the miss counter advanced.
        assert_eq!(k1e, k1);
        assert!(cache.stats().misses >= 3);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut cache = KeyCache::new(2 * (1 + DERIVE_KEY_LEN));
        cache.insert(b"a", DeriveKey::from_bytes(b"1"));
        cache.insert(b"b", DeriveKey::from_bytes(b"2"));
        // Touch "a" so "b" is the LRU victim.
        cache.get(b"a");
        cache.insert(b"c", DeriveKey::from_bytes(b"3"));
        assert!(cache.get(b"a").is_some());
        assert!(cache.get(b"b").is_none());
        assert!(cache.get(b"c").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut cache = KeyCache::new(1024);
        cache.insert(b"a", DeriveKey::from_bytes(b"1"));
        let used = cache.used_bytes();
        cache.insert(b"a", DeriveKey::from_bytes(b"2"));
        assert_eq!(cache.used_bytes(), used);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(b"a"), Some(DeriveKey::from_bytes(b"2")));
    }

    #[test]
    fn labels_are_distinct_per_element_and_namespace() {
        let label = |ns: &[u8; 8], epoch: u64, attr: &str, digits: &[u8]| {
            let mut out = Vec::new();
            let base = write_label(&mut out, ns, EpochId(epoch), attr, digits);
            assert_eq!(out.len(), base + digits.len());
            out
        };
        let labels = [
            label(&[0; 8], 0, "a", &[1]),
            label(&[0; 8], 0, "a", &[1, 0]),
            label(&[0; 8], 0, "a", &[]),
            label(&[0; 8], 0, "b", &[1]),
            label(&[0; 8], 1, "a", &[1]),
            label(&[1; 8], 0, "a", &[1]),
        ];
        let distinct: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(distinct.len(), labels.len());
        // The byte cost of an entry is its label plus the key.
        assert_eq!(labels[1].len(), 8 + 8 + "N:a:".len() + 2);
    }
}
