//! The broker's subscription store: a keyed, counting-based index.
//!
//! [`MatchIndex`] is the one place a broker keeps its `(peer, filter)`
//! registrations. It matches an event with the classic *counting
//! algorithm* (Yan & Garcia-Molina) instead of evaluating every
//! registered filter, specialized to this codebase's two filter
//! families:
//!
//! * **Keyed partitioning.** Every filter contributes a *routing key*
//!   (its topic for plain Siena filters, its Song–Wagner–Perrig
//!   subscription token for PSGuard's [`SecureFilter`]s). Filters with
//!   the same key share one bucket, so the per-event work is bounded by
//!   the buckets an event can possibly touch, not the table size. For
//!   secure filters this doubles as a **token interning table**: a
//!   thousand subscribers of one topic store a single bucket key, and the
//!   broker performs **one** PRF verification per *distinct* token per
//!   event instead of one per subscription — all of them in a single
//!   [`ProbeTable`] sweep over pad states kept parallel to the buckets.
//! * **Distinct-predicate evaluation.** Within a bucket, syntactically
//!   identical constraints are interned once. Numeric constraints are
//!   laid out per attribute in a boundary range sorted by lower bound, so
//!   a query inspects only the prefix whose lower bounds do not exceed
//!   the event's value; equality constraints on strings/categories hash
//!   directly to their predicate. Each satisfied predicate bumps a
//!   per-filter counter; a filter matches exactly when its counter
//!   reaches its constraint count. An event that lacks a constrained
//!   attribute costs nothing for that attribute.
//! * **Per-event probe memo.** Probe-keyed (secure) events carry a fresh
//!   nonce; a bounded memo keyed on that nonce caches which token
//!   buckets an event's tag matched, so re-publishing the same envelope
//!   (workload cycles, fan-in from several children) skips the PRF
//!   entirely.
//!
//! # Data layout (the 1M-entry rework, DESIGN.md §18)
//!
//! At a million registrations the counting pass is memory-bound, not
//! compute-bound, so the index is laid out for cache density rather
//! than struct-per-concept clarity:
//!
//! * **Hot/cold entry split.** The per-entry state touched on every
//!   counter bump — sequence, peer, required count, current count,
//!   generation stamp — lives in one 32-byte [`HotEntry`] record, so a
//!   bump touches exactly one cache line instead of three parallel
//!   arrays plus a filter-sized struct. The filter itself and the
//!   bookkeeping only insert/remove need ([`ColdEntry`]) live in a
//!   separate arena that queries never read.
//! * **Arena-backed predicate and entry-list storage.** Interned
//!   predicates live in one global slab addressed by `u32` pid; the
//!   entry-id lists hanging off predicates and unconstrained sets are
//!   chunked lists of 64-byte nodes ([`EntryChunk`]) in one shared
//!   [`ChunkArena`] with a free list — no per-predicate `Vec` headers,
//!   and freed storage is reused across subscription churn.
//! * **Contiguous boundary arena.** Each attribute's sorted numeric
//!   lower bounds occupy a range of one shared pair of parallel arrays
//!   ([`BoundsArena`]), allocated in power-of-two size classes with
//!   per-class free lists. The query-side prefix scan is a
//!   `partition_point` over a dense `i64` slice.
//! * **FxHash maps.** The key, memo, and predicate-interning maps use a
//!   dependency-free FxHash-style multiply-xor hasher instead of
//!   SipHash. These tables are keyed by interned tokens, topic strings,
//!   and event nonces — internal values, not attacker-chosen
//!   hash-flood vectors — so DoS-resistant hashing buys nothing here.
//! * **Scratch reused.** Counters live in the entry arena and all
//!   per-query scratch is reused, so a steady-state query allocates
//!   nothing.
//!
//! # Mutation lookups
//!
//! Subscription bookkeeping never scans the table either:
//!
//! * **By filter.** [`find`](MatchIndex::find) (the duplicate test) and
//!   [`holds`](MatchIndex::holds) (is a filter still registered by
//!   anyone, so its unsubscribe must not go upstream) walk the shortest
//!   entry list among the filter's interned predicates — for a filter
//!   with no constraints, its bucket's unconstrained list. A constraint
//!   that is not interned answers "absent" without walking anything.
//! * **By peer.** Each peer's entries form a doubly linked list threaded
//!   through [`ColdEntry`], so unlinking is O(1) and
//!   [`remove_peer`](MatchIndex::remove_peer) costs one removal per
//!   registration the peer holds.
//!
//! The index reports its actual work per query ([`MatchStats`]), which
//! the broker and the overlay engine use as the matching-cost input to
//! the performance model.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};

use psguard_crypto::{ProbeTable, Token};
use psguard_model::{AttrName, AttrValue, Constraint, Op};

use crate::broker::Peer;
use crate::semantics::FilterSemantics;

/// How the index locates candidate buckets for an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyQuery<K> {
    /// The event names its candidate keys directly (hash lookups): plain
    /// filters, where an event's topic is visible.
    Direct(Vec<K>),
    /// Candidate keys cannot be read off the event; every live bucket
    /// key is probed in one [`IndexableFilter::probe_sweep`]: secure
    /// filters, where only a PRF test links a tag to a token.
    Probe,
}

/// A filter family the [`MatchIndex`] can decompose: a routing key plus
/// a conjunction of attribute constraints.
///
/// Implementations must satisfy, for every filter `f` and event `e`:
/// `f.matches(e)` ⇔ *the event reaches `f`'s bucket* (per
/// [`candidate_keys`](Self::candidate_keys) /
/// [`probe_sweep`](Self::probe_sweep)) *and every constraint in
/// [`indexed_constraints`](Self::indexed_constraints) holds on the
/// attributes exposed by [`event_attr`](Self::event_attr)*. The
/// index-vs-linear property tests in `tests/` pin this equivalence.
pub trait IndexableFilter: FilterSemantics {
    /// The bucket key: topic for plain filters, subscription token for
    /// secure ones.
    type Key: Clone + Eq + Hash + std::fmt::Debug + Send + 'static;

    /// This filter's routing key.
    fn routing_key(&self) -> Self::Key;

    /// The attribute constraints the index evaluates (everything except
    /// what the key already encodes).
    fn indexed_constraints(&self) -> &[Constraint];

    /// Reads a routable attribute off the event.
    fn event_attr<'a>(event: &'a Self::Event, name: &AttrName) -> Option<&'a AttrValue>;

    /// The buckets this event could match.
    fn candidate_keys(event: &Self::Event) -> KeyQuery<Self::Key>;

    /// Probe-mode families: the token that stands for `key` in the
    /// index's [`ProbeTable`]. The index keys slot `b` with it while
    /// bucket `b` is live and clears the slot when the bucket empties.
    /// `None` (the default) for direct-keyed families, which never probe.
    fn probe_token(_key: &Self::Key) -> Option<&Token> {
        None
    }

    /// Probe-mode batch test, called once per event when
    /// [`candidate_keys`](Self::candidate_keys) returns
    /// [`KeyQuery::Probe`]: appends to `hits` the slot of every live
    /// token in `table` that the event's tag matches. The default (for
    /// direct-keyed filters) is never invoked.
    fn probe_sweep(_table: &ProbeTable, _event: &Self::Event, _hits: &mut Vec<u32>) {}

    /// A stable per-event identity for memoizing probe results (the
    /// nonce of a secure tag). `None` disables the memo.
    fn probe_memo_key(_event: &Self::Event) -> Option<u128> {
        None
    }

    /// Keys whose buckets could hold a filter covering `self`. Used to
    /// restrict covering scans on subscribe; must be sound (a covering
    /// filter always lives in one of these buckets).
    fn covering_candidate_keys(&self) -> Vec<Self::Key> {
        vec![self.routing_key()]
    }
}

impl IndexableFilter for psguard_model::Filter {
    type Key = Option<String>;

    fn routing_key(&self) -> Option<String> {
        self.topic().map(str::to_owned)
    }

    fn indexed_constraints(&self) -> &[Constraint] {
        self.constraints()
    }

    fn event_attr<'a>(event: &'a psguard_model::Event, name: &AttrName) -> Option<&'a AttrValue> {
        event.attr(name.as_str())
    }

    fn candidate_keys(event: &psguard_model::Event) -> KeyQuery<Option<String>> {
        // The event's own topic bucket plus the wildcard (topicless)
        // bucket.
        KeyQuery::Direct(vec![Some(event.topic().to_owned()), None])
    }

    fn covering_candidate_keys(&self) -> Vec<Option<String>> {
        match self.topic() {
            Some(t) => vec![Some(t.to_owned()), None],
            None => vec![None],
        }
    }
}

/// Identifier of one registration inside a [`MatchIndex`].
pub type EntryId = u32;

/// Work performed by the last [`MatchIndex::query`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchStats {
    /// Bucket-key tests: hash hits for direct keys, PRF verifications
    /// for probed (secure) keys.
    pub key_probes: u64,
    /// Distinct predicates actually evaluated.
    pub predicate_evals: u64,
    /// Probe queries answered from the nonce memo (no PRF work).
    pub memo_hits: u64,
}

impl MatchStats {
    /// Total filter-evaluation-equivalents, the unit the performance
    /// model prices with `broker_match_us`.
    pub fn work(&self) -> u64 {
        self.key_probes + self.predicate_evals
    }

    /// Adds another query's counters into this one (per-batch
    /// aggregation).
    pub fn accumulate(&mut self, other: MatchStats) {
        self.key_probes += other.key_probes;
        self.predicate_evals += other.predicate_evals;
        self.memo_hits += other.memo_hits;
    }
}

// ---------------------------------------------------------------------
// FxHash: a dependency-free multiply-xor hasher for the hot maps.
// ---------------------------------------------------------------------

/// The FxHash multiplier (as used by Firefox/rustc).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A dependency-free FxHash-style hasher: a rotate-xor-multiply over
/// 64-bit words, several times faster than SipHash on the short keys
/// the index hashes (interned tokens, topic strings, event nonces).
/// No hash-flood resistance — acceptable because every hashed value is
/// internal (keys are interned at subscribe time under quota, nonces
/// feed a bounded memo), never an attacker-chosen path into an
/// unbounded table.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut w = [0u8; 8];
            w.copy_from_slice(&bytes[..8]);
            self.add(u64::from_le_bytes(w));
            bytes = &bytes[8..];
        }
        if !bytes.is_empty() {
            // Zero-pad the tail and fold in its length so "ab" and
            // "ab\0" land differently.
            let mut w = [0u8; 8];
            w[..bytes.len()].copy_from_slice(bytes);
            self.add(u64::from_le_bytes(w));
            self.add(bytes.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// [`BuildHasher`] for [`FxHasher`]; usable as the `S` parameter of the
/// std hash containers.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
pub(crate) type FxHashSet<T> = HashSet<T, FxBuildHasher>;

// ---------------------------------------------------------------------
// Chunked entry-id lists in one shared arena.
// ---------------------------------------------------------------------

/// Sentinel chunk id: "no chunk".
const NIL: u32 = u32::MAX;

/// Ids per chunk: 14 × 4 B of payload + len + next = one 64-byte node.
const CHUNK_LEN: usize = 14;

/// One cache-line node of a chunked entry-id list.
#[derive(Debug, Clone)]
struct EntryChunk {
    ids: [EntryId; CHUNK_LEN],
    len: u32,
    next: u32,
}

impl EntryChunk {
    fn empty() -> Self {
        EntryChunk {
            ids: [0; CHUNK_LEN],
            len: 0,
            next: NIL,
        }
    }
}

/// Handle to one chunked list: head/tail chunk ids plus the element
/// count. `Copy`, so callers can lift it out of a containing struct,
/// mutate it against the arena, and store it back without aliasing the
/// arena borrow.
#[derive(Debug, Clone, Copy)]
struct ChunkList {
    head: u32,
    tail: u32,
    len: u32,
}

impl Default for ChunkList {
    fn default() -> Self {
        ChunkList {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

/// The shared chunk arena: the index's unconstrained sets and
/// per-predicate entry lists draw their 64-byte nodes from here, and
/// freed nodes are recycled across subscription churn via `free`.
#[derive(Debug, Clone, Default)]
struct ChunkArena {
    chunks: Vec<EntryChunk>,
    free: Vec<u32>,
}

impl ChunkArena {
    fn alloc(&mut self) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.chunks[i as usize] = EntryChunk::empty();
                i
            }
            None => {
                self.chunks.push(EntryChunk::empty());
                (self.chunks.len() - 1) as u32
            }
        }
    }

    /// Appends `id` to `list`, linking a fresh chunk when the tail is
    /// full.
    fn push(&mut self, list: &mut ChunkList, id: EntryId) {
        if list.tail != NIL {
            let t = &mut self.chunks[list.tail as usize];
            if (t.len as usize) < CHUNK_LEN {
                t.ids[t.len as usize] = id;
                t.len += 1;
                list.len += 1;
                return;
            }
        }
        let nid = self.alloc();
        {
            let ch = &mut self.chunks[nid as usize];
            ch.ids[0] = id;
            ch.len = 1;
        }
        if list.tail == NIL {
            list.head = nid;
        } else {
            self.chunks[list.tail as usize].next = nid;
        }
        list.tail = nid;
        list.len += 1;
    }

    /// Removes one occurrence of `id` (swap-remove with the list's last
    /// element; order is not preserved). Returns whether it was found.
    fn remove(&mut self, list: &mut ChunkList, id: EntryId) -> bool {
        let mut cur = list.head;
        let mut prev_of_tail = NIL;
        let mut found: Option<(u32, usize)> = None;
        while cur != NIL {
            let ch = &self.chunks[cur as usize];
            if found.is_none() {
                if let Some(slot) = ch.ids[..ch.len as usize].iter().position(|&x| x == id) {
                    found = Some((cur, slot));
                }
            }
            if ch.next == list.tail {
                prev_of_tail = cur;
            }
            cur = ch.next;
        }
        let Some((cid, slot)) = found else {
            return false;
        };
        let tail = list.tail;
        let (last, last_slot) = {
            let t = &mut self.chunks[tail as usize];
            t.len -= 1;
            (t.ids[t.len as usize], t.len as usize)
        };
        if !(cid == tail && slot == last_slot) {
            self.chunks[cid as usize].ids[slot] = last;
        }
        if self.chunks[tail as usize].len == 0 {
            self.free.push(tail);
            if tail == list.head {
                list.head = NIL;
                list.tail = NIL;
            } else {
                self.chunks[prev_of_tail as usize].next = NIL;
                list.tail = prev_of_tail;
            }
        }
        list.len -= 1;
        true
    }

    /// Calls `f` for every id in `list`.
    #[inline]
    fn for_each<G: FnMut(EntryId)>(&self, list: ChunkList, mut f: G) {
        let mut cur = list.head;
        while cur != NIL {
            let ch = &self.chunks[cur as usize];
            for &id in &ch.ids[..ch.len as usize] {
                f(id);
            }
            cur = ch.next;
        }
    }

    /// The first id in `list` for which `f` holds (early exit).
    fn find<G: FnMut(EntryId) -> bool>(&self, list: ChunkList, mut f: G) -> Option<EntryId> {
        let mut cur = list.head;
        while cur != NIL {
            let ch = &self.chunks[cur as usize];
            if let Some(&id) = ch.ids[..ch.len as usize].iter().find(|&&id| f(id)) {
                return Some(id);
            }
            cur = ch.next;
        }
        None
    }
}

// ---------------------------------------------------------------------
// Contiguous sorted-boundary arena.
// ---------------------------------------------------------------------

/// Smallest boundary-range capacity; size classes are
/// `BOUNDS_MIN_CAP << class`.
const BOUNDS_MIN_CAP: u32 = 4;

/// One attribute's slice of the boundary arena: `len` live pairs inside
/// a `cap`-sized allocation at `start`. `cap == 0` means no allocation.
#[derive(Debug, Clone, Copy, Default)]
struct BoundsRange {
    start: u32,
    len: u32,
    cap: u32,
}

/// All sorted numeric boundaries in the index, laid out as two parallel
/// arrays (`lo`, `pid`) so the query-side prefix scan is a
/// `partition_point` over a dense `i64` slice. Ranges are allocated in
/// power-of-two size classes with per-class free lists, so churn reuses
/// storage instead of fragmenting it.
#[derive(Debug, Clone, Default)]
struct BoundsArena {
    lo: Vec<i64>,
    pid: Vec<u32>,
    /// `free[class]` holds start offsets of released ranges of capacity
    /// `BOUNDS_MIN_CAP << class`.
    free: Vec<Vec<u32>>,
}

impl BoundsArena {
    fn class_of(cap: u32) -> usize {
        debug_assert!(cap.is_power_of_two() && cap >= BOUNDS_MIN_CAP);
        (cap / BOUNDS_MIN_CAP).trailing_zeros() as usize
    }

    fn alloc(&mut self, cap: u32) -> u32 {
        let class = Self::class_of(cap);
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        if let Some(start) = self.free[class].pop() {
            return start;
        }
        let start = self.lo.len() as u32;
        self.lo.resize(self.lo.len() + cap as usize, 0);
        self.pid.resize(self.pid.len() + cap as usize, 0);
        start
    }

    fn release(&mut self, r: BoundsRange) {
        if r.cap == 0 {
            return;
        }
        let class = Self::class_of(r.cap);
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        self.free[class].push(r.start);
    }

    /// Inserts `(lo, pid)` keeping the range sorted by `lo`, migrating
    /// to the next size class when full.
    fn insert_sorted(&mut self, r: &mut BoundsRange, lo: i64, pid: u32) {
        if r.len == r.cap {
            let new_cap = if r.cap == 0 {
                BOUNDS_MIN_CAP
            } else {
                r.cap * 2
            };
            let new_start = self.alloc(new_cap);
            let (os, ns) = (r.start as usize, new_start as usize);
            let n = r.len as usize;
            self.lo.copy_within(os..os + n, ns);
            self.pid.copy_within(os..os + n, ns);
            self.release(*r);
            r.start = new_start;
            r.cap = new_cap;
        }
        let s = r.start as usize;
        let n = r.len as usize;
        let at = self.lo[s..s + n].partition_point(|&l| l < lo);
        self.lo.copy_within(s + at..s + n, s + at + 1);
        self.pid.copy_within(s + at..s + n, s + at + 1);
        self.lo[s + at] = lo;
        self.pid[s + at] = pid;
        r.len += 1;
    }

    /// Removes `pid` from the range, preserving sort order; releases
    /// the allocation when the range empties.
    fn remove_pid(&mut self, r: &mut BoundsRange, pid: u32) {
        let s = r.start as usize;
        let n = r.len as usize;
        let Some(i) = self.pid[s..s + n].iter().position(|&p| p == pid) else {
            return;
        };
        self.lo.copy_within(s + i + 1..s + n, s + i);
        self.pid.copy_within(s + i + 1..s + n, s + i);
        r.len -= 1;
        if r.len == 0 {
            self.release(*r);
            *r = BoundsRange::default();
        }
    }

    /// The live `(lo, pid)` slices of a range.
    #[inline]
    fn slices(&self, r: BoundsRange) -> (&[i64], &[u32]) {
        let s = r.start as usize;
        let n = r.len as usize;
        (&self.lo[s..s + n], &self.pid[s..s + n])
    }
}

// ---------------------------------------------------------------------
// Predicate arena.
// ---------------------------------------------------------------------

/// One interned predicate: its constraint plus the chunked list of
/// entries that require it (with multiplicity — a filter repeating a
/// constraint appears repeatedly, keeping its counter target
/// consistent).
#[derive(Debug, Clone)]
struct PredSlot {
    constraint: Constraint,
    entries: ChunkList,
}

/// The index-global predicate/entry-list storage: interned predicates
/// addressed by `u32` pid across all buckets, the shared chunk arena
/// their entry lists live in, and the boundary arena. Grouped in one
/// struct so bucket mutators can borrow it alongside `&mut Bucket`
/// (disjoint-field split off [`MatchIndex`]).
#[derive(Debug, Clone, Default)]
struct PredStore {
    preds: Vec<PredSlot>,
    free_preds: Vec<u32>,
    chunks: ChunkArena,
    bounds: BoundsArena,
}

impl PredStore {
    fn alloc_pred(&mut self, c: &Constraint) -> u32 {
        let slot = PredSlot {
            constraint: c.clone(),
            entries: ChunkList::default(),
        };
        match self.free_preds.pop() {
            Some(p) => {
                self.preds[p as usize] = slot;
                p
            }
            None => {
                self.preds.push(slot);
                (self.preds.len() - 1) as u32
            }
        }
    }
}

// ---------------------------------------------------------------------
// Buckets.
// ---------------------------------------------------------------------

/// Per-attribute predicate layout inside one bucket.
#[derive(Debug, Clone, Default)]
struct AttrSlot {
    /// Numeric predicates: a sorted `(lower bound, pid)` range in the
    /// shared [`BoundsArena`] (`i64::MIN` for unbounded-below). A query
    /// for value `v` inspects only the prefix with `lo <= v`; inspected
    /// predicates are re-checked with the real operator, so the sort is
    /// purely a sound pruning structure.
    bounds: BoundsRange,
    /// Non-numeric equality predicates, hashed by expected value.
    eq: FxHashMap<AttrValue, Vec<u32>>,
    /// Everything else (prefix / suffix / category), evaluated one by
    /// one — still at most once per distinct predicate.
    other: Vec<u32>,
}

impl AttrSlot {
    fn is_empty(&self) -> bool {
        self.bounds.len == 0 && self.eq.is_empty() && self.other.is_empty()
    }
}

/// All filters sharing one routing key. Everything variable-sized hangs
/// off the shared arenas except the roster; the bucket stores list
/// handles and the interning map into the global pid space.
#[derive(Debug, Clone, Default)]
struct Bucket {
    /// All live entries, for the covering scan and the emptiness test.
    /// Each entry's position is in its [`ColdEntry::slot`], so removal
    /// is an O(1) swap-remove.
    roster: Vec<EntryId>,
    /// Live entries with zero constraints: they match any event that
    /// reaches this bucket.
    unconstrained: ChunkList,
    attrs: Vec<(AttrName, AttrSlot)>,
    /// Interned constraint → global pid in the [`PredStore`].
    pred_of: FxHashMap<Constraint, u32>,
}

impl Bucket {
    fn attr_slot_mut(&mut self, name: &AttrName) -> &mut AttrSlot {
        let pos = match self.attrs.iter().position(|(n, _)| n == name) {
            Some(pos) => pos,
            None => {
                self.attrs.push((name.clone(), AttrSlot::default()));
                self.attrs.len() - 1
            }
        };
        &mut self.attrs[pos].1
    }

    fn add_entry(&mut self, store: &mut PredStore, id: EntryId, constraints: &[Constraint]) {
        if constraints.is_empty() {
            let mut un = self.unconstrained;
            store.chunks.push(&mut un, id);
            self.unconstrained = un;
            return;
        }
        for c in constraints {
            let pid = match self.pred_of.get(c) {
                Some(&p) => p,
                None => self.intern_pred(store, c),
            };
            let mut list = store.preds[pid as usize].entries;
            store.chunks.push(&mut list, id);
            store.preds[pid as usize].entries = list;
        }
    }

    fn intern_pred(&mut self, store: &mut PredStore, c: &Constraint) -> u32 {
        let pid = store.alloc_pred(c);
        self.pred_of.insert(c.clone(), pid);
        let slot = self.attr_slot_mut(c.name());
        if let Some(iv) = c.interval() {
            store.bounds.insert_sorted(&mut slot.bounds, iv.lo(), pid);
        } else if let Op::Eq(v) = c.op() {
            slot.eq.entry(v.clone()).or_default().push(pid);
        } else {
            slot.other.push(pid);
        }
        pid
    }

    fn remove_entry(&mut self, store: &mut PredStore, id: EntryId, constraints: &[Constraint]) {
        if constraints.is_empty() {
            let mut un = self.unconstrained;
            store.chunks.remove(&mut un, id);
            self.unconstrained = un;
            return;
        }
        for c in constraints {
            let Some(&pid) = self.pred_of.get(c) else {
                continue;
            };
            let mut list = store.preds[pid as usize].entries;
            store.chunks.remove(&mut list, id);
            store.preds[pid as usize].entries = list;
            if list.len == 0 {
                self.drop_pred(store, pid, c);
            }
        }
    }

    fn drop_pred(&mut self, store: &mut PredStore, pid: u32, c: &Constraint) {
        self.pred_of.remove(c);
        store.free_preds.push(pid);
        let Some(pos) = self.attrs.iter().position(|(n, _)| n == c.name()) else {
            return;
        };
        let slot = &mut self.attrs[pos].1;
        if c.interval().is_some() {
            store.bounds.remove_pid(&mut slot.bounds, pid);
        } else if let Op::Eq(v) = c.op() {
            if let Some(pids) = slot.eq.get_mut(v) {
                pids.retain(|&p| p != pid);
                if pids.is_empty() {
                    slot.eq.remove(v);
                }
            }
        } else {
            slot.other.retain(|&p| p != pid);
        }
        if slot.is_empty() {
            self.attrs.swap_remove(pos);
        }
    }
}

// ---------------------------------------------------------------------
// Entries: hot/cold split.
// ---------------------------------------------------------------------

/// The per-entry state the counting pass touches: one 32-byte record,
/// so a counter bump costs one cache line. `count`/`stamp` are the
/// generation-stamped counter (no per-query clearing); `seq`/`peer`
/// ride along so a completed match emits its `(seq, peer)` pair without
/// a second lookup.
#[derive(Debug, Clone, Copy)]
struct HotEntry {
    seq: u64,
    peer: Peer,
    required: u32,
    count: u32,
    stamp: u32,
}

/// The per-entry state only insert/remove/covering scans need; queries
/// never read it. `prev`/`next` link the entries of one peer (newest
/// first, [`NIL`]-terminated; the head lives in `MatchIndex::peer_heads`).
#[derive(Debug, Clone)]
struct ColdEntry<F> {
    filter: F,
    bucket: u32,
    /// Position in the bucket's roster.
    slot: u32,
    live: bool,
    prev: EntryId,
    next: EntryId,
}

/// Probe-memo capacity: structural mutations clear the memo anyway, so
/// on overflow the whole memo (map + slab) is dropped at once — it is a
/// pure cache and rebuilding it costs one probe sweep per nonce.
const PROBE_MEMO_CAP: usize = 1024;

/// The counting-based subscription index. See the module docs for the
/// algorithm and data layout; a [`Broker`](crate::Broker) owns one as its
/// only subscription store.
#[derive(Debug, Clone)]
pub struct MatchIndex<F: IndexableFilter> {
    keys: FxHashMap<F::Key, u32>,
    buckets: Vec<Bucket>,
    store: PredStore,
    /// Hot per-entry records, indexed by [`EntryId`].
    hot: Vec<HotEntry>,
    /// Cold per-entry records, parallel to `hot`.
    cold: Vec<ColdEntry<F>>,
    free_entries: Vec<EntryId>,
    /// Head of each peer's entry list (threaded through `cold`); a peer
    /// with no live entry has no head.
    peer_heads: FxHashMap<Peer, EntryId>,
    live: usize,
    next_seq: u64,
    /// Query generation for the stamped counters. `u32` so the stamp
    /// fits the hot record; wraparound resets all stamps (one linear
    /// sweep every 2^32 queries).
    generation: u32,
    /// Probe memo: event nonce → `(start, len)` range of bucket ids in
    /// `memo_slab`.
    memo: FxHashMap<u128, (u32, u32)>,
    memo_slab: Vec<u32>,
    last_stats: MatchStats,
    /// Probe-mode families: slot `b` holds bucket `b`'s token pad states
    /// while the bucket is live, so one sweep probes exactly the live
    /// buckets. Stays empty for direct-keyed families.
    probes: ProbeTable,
    /// `(seq, peer)` pairs of the query in flight, reused across
    /// queries. Carrying the pair (not the entry id) means the final
    /// sort-by-seq and the dedup pass never touch the entry arrays.
    matched_scratch: Vec<(u64, Peer)>,
    /// Candidate bucket ids of the query in flight, reused across queries.
    cand_scratch: Vec<u32>,
    /// Peer-dedup set, reused across queries.
    dedup_scratch: FxHashSet<Peer>,
}

impl<F: IndexableFilter> Default for MatchIndex<F> {
    fn default() -> Self {
        MatchIndex {
            keys: FxHashMap::default(),
            buckets: Vec::new(),
            store: PredStore::default(),
            hot: Vec::new(),
            cold: Vec::new(),
            free_entries: Vec::new(),
            peer_heads: FxHashMap::default(),
            live: 0,
            next_seq: 0,
            generation: 0,
            memo: FxHashMap::default(),
            memo_slab: Vec::new(),
            last_stats: MatchStats::default(),
            probes: ProbeTable::new(),
            matched_scratch: Vec::new(),
            cand_scratch: Vec::new(),
            dedup_scratch: FxHashSet::default(),
        }
    }
}

impl<F: IndexableFilter> MatchIndex<F> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live registrations.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no registration is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Distinct routing keys ever interned (buckets are reused, never
    /// dropped, so this also bounds probe work).
    // DEAD-PUB-OK: observer of token interning (secure_index_props.rs)
    pub fn distinct_keys(&self) -> usize {
        self.keys.len()
    }

    /// Work performed by the most recent [`query`](Self::query) (or
    /// [`query_into`](Self::query_into) /
    /// [`query_matches_into`](Self::query_matches_into)).
    pub fn last_match_stats(&self) -> MatchStats {
        self.last_stats
    }

    /// Registers `filter` for `peer`; returns the entry id to pass to
    /// [`remove`](Self::remove). Each insert takes the next registration
    /// sequence number, the order queries report matches in.
    pub fn insert(&mut self, peer: Peer, filter: F) -> EntryId {
        self.invalidate_memo();
        let key = filter.routing_key();
        let bid = match self.keys.get(&key) {
            Some(&b) => b,
            None => {
                let b = self.buckets.len() as u32;
                self.buckets.push(Bucket::default());
                self.keys.insert(key.clone(), b);
                b
            }
        };
        if self.buckets[bid as usize].roster.is_empty() {
            if let Some(token) = F::probe_token(&key) {
                self.probes.set(bid, token);
            }
        }
        let required = filter.indexed_constraints().len() as u32;
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = match self.free_entries.pop() {
            Some(id) => id,
            None => self.hot.len() as EntryId,
        };
        let slot = {
            // Register constraints straight off the borrowed filter —
            // no constraint-list copy on the insert path.
            let MatchIndex { buckets, store, .. } = self;
            let bucket = &mut buckets[bid as usize];
            bucket.add_entry(store, id, filter.indexed_constraints());
            bucket.roster.push(id);
            (bucket.roster.len() - 1) as u32
        };
        let h = HotEntry {
            seq,
            peer,
            required,
            count: 0,
            stamp: 0,
        };
        // The new entry becomes the head of its peer's list.
        let next = self.peer_heads.insert(peer, id).unwrap_or(NIL);
        if next != NIL {
            self.cold[next as usize].prev = id;
        }
        let c = ColdEntry {
            filter,
            bucket: bid,
            slot,
            live: true,
            prev: NIL,
            next,
        };
        if (id as usize) == self.hot.len() {
            self.hot.push(h);
            self.cold.push(c);
        } else {
            self.hot[id as usize] = h;
            self.cold[id as usize] = c;
        }
        self.live += 1;
        id
    }

    /// Unregisters an entry previously returned by
    /// [`insert`](Self::insert).
    pub fn remove(&mut self, id: EntryId) {
        let idx = id as usize;
        assert!(self.cold[idx].live, "double remove of entry {id}");
        self.invalidate_memo();
        let (prev, next) = (self.cold[idx].prev, self.cold[idx].next);
        if prev != NIL {
            self.cold[prev as usize].next = next;
        } else if next != NIL {
            self.peer_heads.insert(self.hot[idx].peer, next);
        } else {
            self.peer_heads.remove(&self.hot[idx].peer);
        }
        if next != NIL {
            self.cold[next as usize].prev = prev;
        }
        let (bid, slot) = (self.cold[idx].bucket, self.cold[idx].slot);
        {
            let MatchIndex {
                buckets,
                store,
                cold,
                ..
            } = self;
            let bucket = &mut buckets[bid as usize];
            bucket.remove_entry(store, id, cold[idx].filter.indexed_constraints());
            bucket.roster.swap_remove(slot as usize);
            if let Some(&moved) = bucket.roster.get(slot as usize) {
                cold[moved as usize].slot = slot;
            }
        }
        if self.buckets[bid as usize].roster.is_empty() {
            self.probes.clear(bid);
        }
        self.cold[idx].live = false;
        self.free_entries.push(id);
        self.live -= 1;
    }

    /// The entry id of a live `(peer, filter)` registration, if any.
    /// Walks one predicate list of the filter's bucket (see the module
    /// docs), never the whole bucket.
    pub fn find(&self, peer: Peer, filter: &F) -> Option<EntryId> {
        self.find_equal(filter, |id| self.hot[id as usize].peer == peer)
    }

    /// Whether any peer still holds a live registration of `filter`.
    /// Same walk as [`find`](Self::find).
    pub(crate) fn holds(&self, filter: &F) -> bool {
        self.find_equal(filter, |_| true).is_some()
    }

    /// The first live entry whose filter equals `filter` and for which
    /// `pick` holds. Every such entry is on each of its constraints'
    /// entry lists (or, unconstrained, on its bucket's unconstrained
    /// list), so walking the shortest of those lists is exhaustive.
    fn find_equal(&self, filter: &F, mut pick: impl FnMut(EntryId) -> bool) -> Option<EntryId> {
        let &bid = self.keys.get(&filter.routing_key())?;
        let bucket = &self.buckets[bid as usize];
        let mut list = bucket.unconstrained;
        for (i, c) in filter.indexed_constraints().iter().enumerate() {
            let &pid = bucket.pred_of.get(c)?;
            let entries = self.store.preds[pid as usize].entries;
            if i == 0 || entries.len < list.len {
                list = entries;
            }
        }
        self.store.chunks.find(list, |id| {
            pick(id) && self.cold[id as usize].filter == *filter
        })
    }

    /// Removes every registration of `peer` (e.g. on disconnect) and
    /// returns how many there were. Walks the peer's own entry list, so
    /// the cost is one [`remove`](Self::remove) per registration.
    pub fn remove_peer(&mut self, peer: Peer) -> usize {
        let mut id = self.peer_heads.get(&peer).copied().unwrap_or(NIL);
        let mut removed = 0;
        while id != NIL {
            let next = self.cold[id as usize].next;
            self.remove(id);
            removed += 1;
            id = next;
        }
        removed
    }

    /// Whether any live filter covers `filter`. Only buckets named by
    /// [`IndexableFilter::covering_candidate_keys`] are scanned.
    pub fn covered_by_any(&self, filter: &F) -> bool {
        filter.covering_candidate_keys().iter().any(|key| {
            self.keys.get(key).is_some_and(|&bid| {
                self.buckets[bid as usize]
                    .roster
                    .iter()
                    .any(|&id| self.cold[id as usize].filter.covers(filter))
            })
        })
    }

    /// The distinct peers whose filters match `event`, in first-seen
    /// registration order — exactly what the linear scan produced.
    pub fn query(&mut self, event: &F::Event) -> Vec<Peer> {
        let mut peers = Vec::new();
        self.query_into(event, &mut peers);
        peers
    }

    /// [`query`](Self::query) into a caller-provided buffer: `peers` is
    /// cleared and filled with the distinct matching peers in first-seen
    /// registration order. All per-query scratch (candidate lists,
    /// counters, dedup set) is reused across calls, so a steady-state
    /// query allocates nothing.
    pub fn query_into(&mut self, event: &F::Event, peers: &mut Vec<Peer>) {
        peers.clear();
        self.last_stats = self.run_match(event);
        let mut emitted = std::mem::take(&mut self.dedup_scratch);
        emitted.clear();
        for &(_, peer) in &self.matched_scratch {
            if emitted.insert(peer) {
                peers.push(peer);
            }
        }
        self.dedup_scratch = emitted;
    }

    /// Raw matches for `event` as `(seq, peer)` pairs sorted by
    /// registration sequence (insertion order), **without** peer dedup:
    /// one pair per matching registration. `out` is cleared first. This
    /// is the same matching pass [`query_into`](Self::query_into) dedups,
    /// exposed for callers that count matched entries rather than peers.
    pub fn query_matches_into(&mut self, event: &F::Event, out: &mut Vec<(u64, Peer)>) {
        out.clear();
        self.last_stats = self.run_match(event);
        out.extend_from_slice(&self.matched_scratch);
    }

    /// Whether `peer` holds a live registration matching `event`: the
    /// same matching pass (probe memo, [`ProbeTable`] sweep, counting)
    /// as [`query`](Self::query), but it leaves
    /// [`last_match_stats`](Self::last_match_stats) alone.
    pub(crate) fn peer_matches(&mut self, peer: Peer, event: &F::Event) -> bool {
        self.run_match(event);
        self.matched_scratch.iter().any(|&(_, p)| p == peer)
    }

    /// Test hook: forces the query generation so the u32 stamp
    /// wraparound path is reachable without 2^32 queries.
    #[doc(hidden)]
    // DEAD-PUB-OK: test seam for the generation-stamp wraparound
    pub fn set_generation_for_tests(&mut self, generation: u32) {
        self.generation = generation;
    }

    /// The shared matching pass: fills `matched_scratch` with matched
    /// `(seq, peer)` pairs sorted by registration sequence and returns
    /// the work it did.
    fn run_match(&mut self, event: &F::Event) -> MatchStats {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wraparound: without this sweep an entry last bumped
            // 2^32 queries ago would alias the fresh generation and keep
            // its stale counter.
            for h in &mut self.hot {
                h.stamp = 0;
            }
            self.generation = 1;
        }
        let mut stats = MatchStats::default();
        let mut matched = std::mem::take(&mut self.matched_scratch);
        let mut cands = std::mem::take(&mut self.cand_scratch);
        matched.clear();
        cands.clear();

        match F::candidate_keys(event) {
            KeyQuery::Direct(keys) => {
                for k in &keys {
                    let Some(&b) = self.keys.get(k) else {
                        continue;
                    };
                    if !self.buckets[b as usize].roster.is_empty() {
                        stats.key_probes += 1;
                        cands.push(b);
                    }
                }
            }
            KeyQuery::Probe => self.probe_buckets(event, &mut stats, &mut cands),
        }

        let generation = self.generation;
        {
            let MatchIndex {
                buckets,
                store,
                hot,
                ..
            } = self;
            for &bid in &cands {
                match_bucket::<F>(
                    &buckets[bid as usize],
                    store,
                    hot,
                    generation,
                    event,
                    &mut stats,
                    &mut matched,
                );
            }
        }

        matched.sort_unstable_by_key(|&(seq, _)| seq);
        self.matched_scratch = matched;
        self.cand_scratch = cands;
        stats
    }

    /// Probe mode: one sweep over the live buckets' tokens, memoized per
    /// event nonce. Matching bucket ids are appended to `out`.
    fn probe_buckets(&mut self, event: &F::Event, stats: &mut MatchStats, out: &mut Vec<u32>) {
        let memo_key = F::probe_memo_key(event);
        if let Some(k) = memo_key {
            if let Some(&(s, n)) = self.memo.get(&k) {
                stats.memo_hits += 1;
                out.extend_from_slice(&self.memo_slab[s as usize..(s + n) as usize]);
                return;
            }
        }
        let start = out.len();
        stats.key_probes += self.probes.len() as u64;
        F::probe_sweep(&self.probes, event, out);
        if let Some(k) = memo_key {
            if self.memo.len() >= PROBE_MEMO_CAP {
                // The memo is a pure cache: dropping it wholesale costs
                // one probe sweep per re-seen nonce and keeps the slab
                // bounded without FIFO bookkeeping.
                self.memo.clear();
                self.memo_slab.clear();
            }
            let s = self.memo_slab.len() as u32;
            self.memo_slab.extend_from_slice(&out[start..]);
            self.memo.insert(k, (s, (out.len() - start) as u32));
        }
    }

    /// Structural mutations invalidate memoized probe results (a new
    /// token bucket could match an already-memoized nonce).
    fn invalidate_memo(&mut self) {
        self.memo.clear();
        self.memo_slab.clear();
    }
}

/// The counting pass over one bucket. A free function (not a method) so
/// the caller can split-borrow: `bucket`/`store` shared, `hot` counters
/// mutable.
fn match_bucket<F: IndexableFilter>(
    bucket: &Bucket,
    store: &PredStore,
    hot: &mut [HotEntry],
    generation: u32,
    event: &F::Event,
    stats: &mut MatchStats,
    matched: &mut Vec<(u64, Peer)>,
) {
    store.chunks.for_each(bucket.unconstrained, |id| {
        let h = &hot[id as usize];
        matched.push((h.seq, h.peer));
    });

    let mut bump = |id: EntryId| {
        let h = &mut hot[id as usize];
        if h.stamp != generation {
            h.stamp = generation;
            h.count = 0;
        }
        h.count += 1;
        if h.count == h.required {
            matched.push((h.seq, h.peer));
        }
    };

    for (name, slot) in &bucket.attrs {
        let Some(value) = F::event_attr(event, name) else {
            continue;
        };
        match value {
            AttrValue::Int(v) => {
                // Prefix of predicates whose lower bound admits `v`;
                // the real operator re-check keeps exotic operators
                // (and `Lt(i64::MIN)`-style empty ranges) faithful.
                let (los, pids) = store.bounds.slices(slot.bounds);
                let end = los.partition_point(|&lo| lo <= *v);
                for &pid in &pids[..end] {
                    stats.predicate_evals += 1;
                    let pred = &store.preds[pid as usize];
                    if pred.constraint.matches_value(value) {
                        store.chunks.for_each(pred.entries, &mut bump);
                    }
                }
            }
            _ => {
                if let Some(pids) = slot.eq.get(value) {
                    for &pid in pids {
                        stats.predicate_evals += 1;
                        store
                            .chunks
                            .for_each(store.preds[pid as usize].entries, &mut bump);
                    }
                }
                for &pid in &slot.other {
                    stats.predicate_evals += 1;
                    let pred = &store.preds[pid as usize];
                    if pred.constraint.matches_value(value) {
                        store.chunks.for_each(pred.entries, &mut bump);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psguard_model::{Event, Filter, IntRange};

    fn f(topic: &str, min: i64) -> Filter {
        Filter::for_topic(topic).with(Constraint::new("x", Op::Ge(min)))
    }

    fn e(topic: &str, x: i64) -> Event {
        Event::builder(topic).attr("x", x).build()
    }

    #[test]
    fn query_matches_by_topic_and_constraint() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        idx.insert(Peer::Child(1), f("a", 10));
        idx.insert(Peer::Child(2), f("a", 50));
        idx.insert(Peer::Child(3), f("b", 0));
        assert_eq!(idx.query(&e("a", 20)), vec![Peer::Child(1)]);
        assert_eq!(idx.query(&e("a", 60)), vec![Peer::Child(1), Peer::Child(2)]);
        assert_eq!(idx.query(&e("b", 99)), vec![Peer::Child(3)]);
        assert!(idx.query(&e("c", 99)).is_empty());
    }

    #[test]
    fn wildcard_bucket_reaches_every_topic() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        idx.insert(Peer::Parent, Filter::any());
        idx.insert(Peer::Child(1), f("a", 0));
        assert_eq!(idx.query(&e("zzz", 5)), vec![Peer::Parent]);
        assert_eq!(idx.query(&e("a", 5)), vec![Peer::Parent, Peer::Child(1)]);
    }

    #[test]
    fn work_counts_only_inspected_predicates() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        for (i, min) in [10i64, 20, 30, 40].into_iter().enumerate() {
            idx.insert(Peer::Child(i as u32), f("t", min));
        }
        for i in 0..64u32 {
            idx.insert(Peer::Child(100 + i), f("elsewhere", 0));
        }
        let peers = idx.query(&e("t", 25));
        assert_eq!(peers, vec![Peer::Child(0), Peer::Child(1)]);
        // One topic-bucket hit + the two predicates with lo <= 25; the
        // "elsewhere" bucket and the 30/40 bounds cost nothing.
        let stats = idx.last_match_stats();
        assert_eq!(stats.key_probes, 1);
        assert_eq!(stats.predicate_evals, 2);
    }

    #[test]
    fn match_work_is_sublinear_across_topics() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        for i in 0..100u32 {
            idx.insert(Peer::Child(i), Filter::for_topic(format!("topic{i}")));
        }
        let ev = Event::builder("topic7").build();
        assert_eq!(idx.query(&ev), vec![Peer::Child(7)]);
        // One bucket probe; the other 99 topics cost nothing. The linear
        // scan's equivalent would have been 100.
        assert_eq!(idx.last_match_stats().work(), 1);
    }

    #[test]
    fn query_dedups_peers_and_agrees_with_linear_scan() {
        let regs = [
            (Peer::Child(1), f("t", 10)),
            (Peer::Child(1), f("t", 30)),
            (Peer::Child(2), f("t", 50)),
            (Peer::Parent, Filter::any()),
        ];
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        for (peer, filter) in &regs {
            idx.insert(*peer, filter.clone());
        }
        for x in [5i64, 10, 29, 30, 50, 99] {
            let ev = e("t", x);
            let mut linear: Vec<Peer> = Vec::new();
            for (peer, filter) in &regs {
                if filter.matches(&ev) && !linear.contains(peer) {
                    linear.push(*peer);
                }
            }
            assert_eq!(idx.query(&ev), linear, "x={x}");
        }
        assert_eq!(idx.query(&e("t", 60)).len(), 3);
    }

    #[test]
    fn find_and_holds_walk_one_predicate_list() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        let two = |a: i64, b: i64| {
            Filter::for_topic("t")
                .with(Constraint::new("x", Op::Ge(a)))
                .with(Constraint::new("y", Op::Ge(b)))
        };
        let a = idx.insert(Peer::Child(1), two(1, 2));
        let b = idx.insert(Peer::Child(2), two(1, 2));
        idx.insert(Peer::Child(1), two(1, 3));
        let any = idx.insert(Peer::Child(3), Filter::for_topic("t"));
        assert_eq!(idx.find(Peer::Child(1), &two(1, 2)), Some(a));
        assert_eq!(idx.find(Peer::Child(2), &two(1, 2)), Some(b));
        assert_eq!(idx.find(Peer::Child(3), &two(1, 2)), None);
        // `y >= 4` was never interned: absent without a walk.
        assert_eq!(idx.find(Peer::Child(1), &two(1, 4)), None);
        assert!(!idx.holds(&two(1, 4)));
        // Unconstrained filters are found on the unconstrained list.
        assert_eq!(idx.find(Peer::Child(3), &Filter::for_topic("t")), Some(any));
        assert_eq!(idx.find(Peer::Child(3), &Filter::for_topic("u")), None);
        idx.remove(a);
        assert!(idx.holds(&two(1, 2)));
        idx.remove(b);
        assert!(!idx.holds(&two(1, 2)));
        assert!(idx.holds(&two(1, 3)));
    }

    #[test]
    fn remove_peer_follows_the_peer_links_through_churn() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        let mut mine = Vec::new();
        for i in 0..20i64 {
            mine.push(idx.insert(Peer::Child(1), f("t", i)));
            idx.insert(Peer::Child(2), f("t", i));
        }
        // Unlink from the head, the tail and the middle of the list.
        idx.remove(mine[19]);
        idx.remove(mine[0]);
        idx.remove(mine[7]);
        idx.insert(Peer::Child(1), f("u", 0));
        assert_eq!(idx.remove_peer(Peer::Child(1)), 18);
        assert_eq!(idx.remove_peer(Peer::Child(1)), 0);
        assert_eq!(idx.len(), 20);
        assert_eq!(idx.query(&e("t", 100)), vec![Peer::Child(2)]);
        assert!(idx.query(&e("u", 100)).is_empty());
        // Freed slots are reused and linked afresh.
        idx.insert(Peer::Child(1), f("t", 0));
        assert_eq!(idx.remove_peer(Peer::Child(2)), 20);
        assert_eq!(idx.query(&e("t", 100)), vec![Peer::Child(1)]);
    }

    #[test]
    fn duplicate_constraint_in_one_filter_still_matches() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        let dup = Filter::for_topic("t")
            .with(Constraint::new("x", Op::Ge(10)))
            .with(Constraint::new("x", Op::Ge(10)));
        idx.insert(Peer::Local(1), dup);
        assert_eq!(idx.query(&e("t", 15)), vec![Peer::Local(1)]);
        assert!(idx.query(&e("t", 5)).is_empty());
    }

    #[test]
    fn remove_keeps_index_coherent() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        let a = idx.insert(Peer::Child(1), f("t", 10));
        let _b = idx.insert(Peer::Child(2), f("t", 10));
        idx.remove(a);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.query(&e("t", 15)), vec![Peer::Child(2)]);
        assert!(idx.find(Peer::Child(2), &f("t", 10)).is_some());
        assert!(idx.find(Peer::Child(1), &f("t", 10)).is_none());
        // Re-insert reuses the freed slot and still matches.
        let c = idx.insert(Peer::Child(3), f("t", 0));
        assert_eq!(c, a, "slab slot reused");
        assert_eq!(idx.query(&e("t", 15)), vec![Peer::Child(2), Peer::Child(3)]);
    }

    #[test]
    fn covering_scan_restricted_to_candidate_buckets() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        idx.insert(Peer::Child(1), f("t", 10));
        idx.insert(Peer::Parent, Filter::any());
        assert!(idx.covered_by_any(&f("t", 20))); // same-topic bucket
        assert!(idx.covered_by_any(&f("other", 5))); // wildcard bucket
        let mut no_wild: MatchIndex<Filter> = MatchIndex::new();
        no_wild.insert(Peer::Child(1), f("t", 10));
        assert!(!no_wild.covered_by_any(&f("other", 5)));
    }

    #[test]
    fn insertion_order_controls_order_across_slot_reuse() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        let first = idx.insert(Peer::Child(1), f("t", 0));
        idx.insert(Peer::Child(2), f("t", 0));
        assert_eq!(idx.query(&e("t", 5)), vec![Peer::Child(1), Peer::Child(2)]);
        // The re-registration reuses the freed entry slot but takes a
        // fresh sequence number, so it sorts after every live entry.
        idx.remove(first);
        assert_eq!(idx.insert(Peer::Child(1), f("t", 0)), first);
        idx.insert(Peer::Child(9), f("t", 0));
        assert_eq!(
            idx.query(&e("t", 5)),
            vec![Peer::Child(2), Peer::Child(1), Peer::Child(9)]
        );
    }

    #[test]
    fn query_into_matches_query_and_reuses_buffer() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        idx.insert(Peer::Child(1), f("a", 10));
        idx.insert(Peer::Child(2), f("a", 50));
        let mut buf = vec![Peer::Parent; 8]; // stale contents must vanish
        for x in [5i64, 20, 60] {
            let ev = e("a", x);
            idx.query_into(&ev, &mut buf);
            assert_eq!(buf, idx.query(&ev), "x={x}");
        }
    }

    #[test]
    fn query_matches_into_reports_seq_pairs_in_insertion_order() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        idx.insert(Peer::Child(1), f("t", 0));
        idx.insert(Peer::Child(2), f("other", 0));
        idx.insert(Peer::Child(2), f("t", 0));
        idx.insert(Peer::Child(1), f("t", 10));
        let mut out = Vec::new();
        idx.query_matches_into(&e("t", 50), &mut out);
        // Sorted by seq, peers not deduped.
        assert_eq!(
            out,
            vec![
                (0, Peer::Child(1)),
                (2, Peer::Child(2)),
                (3, Peer::Child(1))
            ]
        );
    }

    #[test]
    fn mixed_families_and_ranges() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        let range = Filter::for_topic("t").with(Constraint::new(
            "x",
            Op::InRange(IntRange::new(10, 20).unwrap()),
        ));
        let eqs = Filter::for_topic("t").with(Constraint::new("sym", Op::Eq("GOOG".into())));
        let pre = Filter::for_topic("t").with(Constraint::new("sym", Op::StrPrefix("GO".into())));
        idx.insert(Peer::Child(1), range);
        idx.insert(Peer::Child(2), eqs);
        idx.insert(Peer::Child(3), pre);
        let ev = Event::builder("t")
            .attr("x", 15i64)
            .attr("sym", "GOOG")
            .build();
        assert_eq!(
            idx.query(&ev),
            vec![Peer::Child(1), Peer::Child(2), Peer::Child(3)]
        );
        let ev2 = Event::builder("t")
            .attr("x", 25i64)
            .attr("sym", "GOOD")
            .build();
        assert_eq!(idx.query(&ev2), vec![Peer::Child(3)]);
    }

    #[test]
    fn stamp_wraparound_resets_counters() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        // Two-constraint filter: a stale partial count (1 of 2) left
        // from before the wrap must not survive into the wrapped
        // generation and fake a match.
        let two = Filter::for_topic("t")
            .with(Constraint::new("x", Op::Ge(10)))
            .with(Constraint::new("y", Op::Ge(10)));
        idx.insert(Peer::Child(1), two);
        // Partial match: only `x` satisfied, counter parks at 1.
        let partial = Event::builder("t").attr("x", 50i64).build();
        assert!(idx.query(&partial).is_empty());
        // Jump the generation to the wrap point; the next query sweeps
        // stamps and restarts at generation 1 — which old stamps must
        // not alias.
        idx.set_generation_for_tests(u32::MAX);
        assert!(idx.query(&partial).is_empty(), "stale count must not leak");
        let full = Event::builder("t")
            .attr("x", 50i64)
            .attr("y", 50i64)
            .build();
        assert_eq!(idx.query(&full), vec![Peer::Child(1)]);
    }

    #[test]
    fn wraparound_spanning_churn_stays_correct() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        let mut ids = Vec::new();
        for i in 0..40u32 {
            ids.push(idx.insert(Peer::Child(i), f("t", (i as i64) * 10)));
        }
        idx.set_generation_for_tests(u32::MAX - 3);
        for round in 0..8i64 {
            let got = idx.query(&e("t", 195 + round - round)); // x = 195
            assert_eq!(got.len(), 20, "round {round}");
        }
        // Remove half across the wrap, re-query.
        for id in ids.drain(..20) {
            idx.remove(id);
        }
        assert_eq!(idx.query(&e("t", 195)).len(), 0);
        assert_eq!(idx.query(&e("t", 395)).len(), 20);
    }

    #[test]
    fn boundary_arena_grows_and_reuses_ranges() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        // 64 distinct bounds on one attribute force several size-class
        // migrations of the bucket's boundary range.
        let mut ids = Vec::new();
        for i in 0..64i64 {
            ids.push(idx.insert(Peer::Child(i as u32), f("t", i)));
        }
        assert_eq!(idx.query(&e("t", 31)).len(), 32);
        // Remove all; the range must release cleanly.
        for id in ids.drain(..) {
            idx.remove(id);
        }
        assert!(idx.query(&e("t", 31)).is_empty());
        // Refill: released ranges are reused, matching still exact.
        for i in 0..64i64 {
            ids.push(idx.insert(Peer::Child(i as u32), f("t", i)));
        }
        assert_eq!(idx.query(&e("t", 31)).len(), 32);
        assert_eq!(idx.query(&e("t", 0)).len(), 1);
    }

    #[test]
    fn chunked_entry_lists_survive_heavy_shared_predicate_churn() {
        let mut idx: MatchIndex<Filter> = MatchIndex::new();
        // 100 entries share one interned predicate → a 8-chunk list;
        // removal from the middle exercises swap-remove across chunks
        // and tail reclamation.
        let mut ids = Vec::new();
        for i in 0..100u32 {
            ids.push(idx.insert(Peer::Child(i), f("t", 10)));
        }
        assert_eq!(idx.query(&e("t", 15)).len(), 100);
        for id in ids.iter().skip(1).step_by(2) {
            idx.remove(*id);
        }
        assert_eq!(idx.query(&e("t", 15)).len(), 50);
        for id in ids.iter().skip(1).step_by(2) {
            idx.insert(Peer::Child(*id + 1000), f("t", 10));
        }
        assert_eq!(idx.query(&e("t", 15)).len(), 100);
    }

    #[test]
    fn fx_hasher_spreads_and_is_deterministic() {
        let h = |v: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(v);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
        let mut s1 = FxHasher::default();
        s1.write(b"topic-a");
        let mut s2 = FxHasher::default();
        s2.write(b"topic-b");
        assert_ne!(s1.finish(), s2.finish());
    }
}
