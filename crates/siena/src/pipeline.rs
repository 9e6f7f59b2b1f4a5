//! The parallel sharded dissemination pipeline.
//!
//! [`Broker::publish`](crate::Broker::publish) routes one event at a time
//! through one [`MatchIndex`]: at 100k subscriptions the per-event PRF
//! probes and delivery bookkeeping collapse throughput no matter how good
//! the index is, because everything runs on one core.
//! [`ShardedPipeline`] is the batch counterpart:
//!
//! * **Sharding.** Registrations are partitioned across `N` shards by the
//!   hash of their routing key (topic bucket / subscription token), so
//!   each shard owns a disjoint slice of the bucket space and a batch of
//!   events can be matched against all shards concurrently via
//!   [`std::thread::scope`]. `N = 1` degenerates to the serial path — no
//!   threads are spawned.
//! * **Deterministic merge.** Each registration gets a global sequence
//!   number at the pipeline level ([`MatchIndex::insert_with_seq`]);
//!   shards report matches as `(seq, peer)` pairs and the merge sorts by
//!   that unique global sequence before first-seen peer dedup. The
//!   delivered order is therefore *bit-identical for every shard count*
//!   — and identical to what a single serial [`Broker`](crate::Broker)
//!   holding the same registrations produces (pinned by the equivalence
//!   proptests in `tests/pipeline_props.rs`).
//! * **Scratch reuse.** Shards keep their per-batch match buffers and the
//!   merge keeps its sort/dedup buffers across batches; steady-state
//!   matching performs no per-event allocation, and deliveries are
//!   returned as per-event peer slices over one flat buffer instead of a
//!   cloned event per delivery.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use crate::index::{EntryId, IndexableFilter, MatchIndex, MatchStats};
use crate::table::Peer;

/// FNV-1a (64-bit, standard offset basis and prime): the bucket-to-shard
/// partition function. Std's `DefaultHasher` is explicitly not guaranteed
/// stable across Rust releases; a fixed algorithm keeps shard assignment
/// (and thus per-shard work and stats) identical on every toolchain.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Cumulative counters for one [`ShardedPipeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// Events routed through [`ShardedPipeline::publish_batch`].
    pub events: u64,
    /// Total deliveries emitted.
    pub deliveries: u64,
    /// Matching work (key probes + predicate evaluations) summed over
    /// all shards.
    pub match_work: u64,
}

/// Deliveries for one event batch: per-event peer lists over one flat
/// buffer, in the exact order [`crate::Broker::publish`] would have
/// emitted `Deliver` actions — without cloning the event per delivery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchDeliveries {
    peers: Vec<Peer>,
    /// `ends[i]` is the end offset of event `i`'s peers in `peers`.
    ends: Vec<usize>,
}

impl BatchDeliveries {
    /// An empty delivery set, reusable across batches via
    /// [`ShardedPipeline::publish_batch_into`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the batch held no events.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total deliveries across the batch.
    pub fn total(&self) -> usize {
        self.peers.len()
    }

    /// The recipients of event `i`, in delivery order.
    pub fn for_event(&self, i: usize) -> &[Peer] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.peers[start..self.ends[i]]
    }

    /// Per-event recipient slices, in batch order.
    pub fn iter(&self) -> impl Iterator<Item = &[Peer]> {
        (0..self.len()).map(|i| self.for_event(i))
    }

    fn clear(&mut self) {
        self.peers.clear();
        self.ends.clear();
    }
}

/// One worker shard: a disjoint slice of the bucket space plus its
/// per-batch scratch.
#[derive(Debug, Clone)]
struct Shard<F: IndexableFilter> {
    index: MatchIndex<F>,
    /// Live registrations with their index entry ids, for removal.
    entries: Vec<(Peer, F, EntryId)>,
    /// Flat `(seq, peer)` matches for the batch in flight.
    out: Vec<(u64, Peer)>,
    /// Per-event end offsets into `out`.
    ends: Vec<usize>,
    /// Per-event scratch reused across the batch.
    tmp: Vec<(u64, Peer)>,
    /// Matching work accumulated over the batch in flight.
    stats: MatchStats,
}

impl<F: IndexableFilter> Shard<F> {
    fn new() -> Self {
        Shard {
            index: MatchIndex::new(),
            entries: Vec::new(),
            out: Vec::new(),
            ends: Vec::new(),
            tmp: Vec::new(),
            stats: MatchStats::default(),
        }
    }

    /// Matches every event in the batch against this shard's index,
    /// recording `(seq, peer)` pairs per event. Runs on a worker thread.
    fn run_batch(&mut self, events: &[F::Event]) {
        self.out.clear();
        self.ends.clear();
        self.stats = MatchStats::default();
        for event in events {
            self.index.query_matches_into(event, &mut self.tmp);
            self.out.extend_from_slice(&self.tmp);
            self.ends.push(self.out.len());
            self.stats.accumulate(self.index.last_stats());
        }
    }

    /// Event `i`'s matches from the last [`run_batch`](Self::run_batch).
    fn event_matches(&self, i: usize) -> &[(u64, Peer)] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.out[start..self.ends[i]]
    }
}

/// A batch-publishing broker front that partitions its subscription
/// space across `N` worker shards. See the module docs for the design;
/// [`publish_batch`](Self::publish_batch) is the hot path.
///
/// # Example
///
/// ```
/// use psguard_model::{Event, Filter};
/// use psguard_siena::{Peer, ShardedPipeline};
///
/// let mut p: ShardedPipeline<Filter> = ShardedPipeline::new(true, 4);
/// p.subscribe(Peer::Local(1), Filter::for_topic("news"));
/// let batch = vec![Event::builder("news").build(), Event::builder("other").build()];
/// let out = p.publish_batch(Peer::Local(9), &batch);
/// assert_eq!(out.for_event(0), &[Peer::Local(1)]);
/// assert!(out.for_event(1).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ShardedPipeline<F: IndexableFilter> {
    is_root: bool,
    shards: Vec<Shard<F>>,
    /// Global registration counter: the total order the merge restores.
    next_seq: u64,
    live: usize,
    stats: PipelineStats,
    last_batch_work: u64,
    /// Cross-shard merge buffer, reused across events.
    merge_scratch: Vec<(u64, Peer)>,
    /// Peer-dedup set, reused across events.
    seen_scratch: HashSet<Peer>,
}

impl<F: IndexableFilter> ShardedPipeline<F> {
    /// Creates a pipeline with `shards` worker shards (at least one).
    /// `is_root` has the same meaning as for [`crate::Broker::new`]:
    /// root pipelines never emit a parent delivery.
    pub fn new(is_root: bool, shards: usize) -> Self {
        Self::with_capacity(is_root, shards, 0)
    }

    /// [`new`](Self::new), pre-sizing each shard's index arenas for an
    /// expected total of `expected_subs` registrations (split evenly
    /// across shards). A bulk subscribe into a pre-sized pipeline lays
    /// the hot counter arrays out contiguously once instead of growing
    /// them through doubling reallocations — at 1M registrations that
    /// is the difference between one arena placement and ~20 copies of
    /// the hot state per shard.
    pub fn with_capacity(is_root: bool, shards: usize, expected_subs: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = expected_subs.div_ceil(shards);
        ShardedPipeline {
            is_root,
            shards: (0..shards)
                .map(|_| {
                    let mut s = Shard::new();
                    s.index.reserve(per_shard);
                    s.entries.reserve(per_shard);
                    s
                })
                .collect(),
            next_seq: 0,
            live: 0,
            stats: PipelineStats::default(),
            last_batch_work: 0,
            merge_scratch: Vec::new(),
            seen_scratch: HashSet::new(),
        }
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Live registrations across all shards.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no registration is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Cumulative pipeline counters.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Matching work performed by the most recent batch, summed over
    /// shards — comparable to summing
    /// [`crate::Broker::last_match_work`] over the batch.
    pub fn last_batch_work(&self) -> u64 {
        self.last_batch_work
    }

    /// The shard owning `key`'s bucket: a stable hash partition (fixed
    /// [`Fnv1a`], identical on every toolchain), so a bucket's
    /// registrations always land on one shard and cross-shard dedup only
    /// has to handle *peers*, never split buckets.
    fn shard_of(&self, key: &F::Key) -> usize {
        let mut h = Fnv1a::new();
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Registers `filter` for `peer`, assigning the next global
    /// registration sequence number.
    pub fn subscribe(&mut self, peer: Peer, filter: F) {
        let shard = self.shard_of(&filter.routing_key());
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = self.shards[shard]
            .index
            .insert_with_seq(peer, filter.clone(), seq);
        self.shards[shard].entries.push((peer, filter, id));
        self.live += 1;
    }

    /// Removes one exact `(peer, filter)` registration (the earliest, if
    /// duplicated). Returns `true` when something was removed.
    pub fn unsubscribe(&mut self, peer: Peer, filter: &F) -> bool {
        let shard = self.shard_of(&filter.routing_key());
        let s = &mut self.shards[shard];
        let Some(pos) = s
            .entries
            .iter()
            .position(|(p, f, _)| *p == peer && f == filter)
        else {
            return false;
        };
        let (_, _, id) = s.entries.remove(pos);
        s.index.remove(id);
        self.live -= 1;
        true
    }

    /// Removes every registration of `peer` (e.g. on disconnect).
    pub fn peer_down(&mut self, peer: Peer) -> usize {
        let mut removed = 0;
        for s in &mut self.shards {
            let mut pos = 0;
            while pos < s.entries.len() {
                if s.entries[pos].0 == peer {
                    let (_, _, id) = s.entries.remove(pos);
                    s.index.remove(id);
                    removed += 1;
                } else {
                    pos += 1;
                }
            }
        }
        self.live -= removed;
        removed
    }

    /// Routes a batch of events from `from`, matching across all shards
    /// in parallel. Returns the per-event recipients in exactly the
    /// order [`crate::Broker::publish`] emits `Deliver` actions: the
    /// parent copy first (when `from` is not the parent and this is not
    /// the root), then matching peers in first-seen registration order,
    /// excluding the sender and the parent.
    pub fn publish_batch(&mut self, from: Peer, events: &[F::Event]) -> BatchDeliveries
    where
        F: Send,
        F::Event: Sync,
    {
        let mut out = BatchDeliveries::new();
        self.publish_batch_into(from, events, &mut out);
        out
    }

    /// [`publish_batch`](Self::publish_batch) into a caller-provided
    /// delivery buffer, reusing its allocations across batches.
    pub fn publish_batch_into(&mut self, from: Peer, events: &[F::Event], out: &mut BatchDeliveries)
    where
        F: Send,
        F::Event: Sync,
    {
        out.clear();
        if self.shards.len() == 1 {
            // Serial path: no threads for a single shard.
            self.shards[0].run_batch(events);
        } else {
            std::thread::scope(|scope| {
                for shard in self.shards.iter_mut() {
                    scope.spawn(move || shard.run_batch(events));
                }
            });
        }

        let mut batch_work = 0u64;
        for s in &self.shards {
            batch_work += s.stats.work();
        }
        self.last_batch_work = batch_work;
        self.stats.match_work += batch_work;
        self.stats.events += events.len() as u64;

        let mut merge = std::mem::take(&mut self.merge_scratch);
        let mut seen = std::mem::take(&mut self.seen_scratch);
        for i in 0..events.len() {
            merge.clear();
            for s in &self.shards {
                merge.extend_from_slice(s.event_matches(i));
            }
            // Global sequence numbers are unique, so this order is total
            // and independent of shard count or interleaving.
            merge.sort_unstable_by_key(|&(seq, _)| seq);
            if from != Peer::Parent && !self.is_root {
                out.peers.push(Peer::Parent);
            }
            seen.clear();
            for &(_, peer) in &merge {
                if seen.insert(peer) && peer != from && peer != Peer::Parent {
                    out.peers.push(peer);
                }
            }
            out.ends.push(out.peers.len());
        }
        self.merge_scratch = merge;
        self.seen_scratch = seen;
        self.stats.deliveries += out.total() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{Action, Broker};
    use psguard_model::{Constraint, Event, Filter, Op};

    fn f(topic: &str, min: i64) -> Filter {
        Filter::for_topic(topic).with(Constraint::new("x", Op::Ge(min)))
    }

    fn e(topic: &str, x: i64) -> Event {
        Event::builder(topic).attr("x", x).build()
    }

    /// Reference: the serial broker's deliveries for the same inputs.
    fn broker_deliveries(
        is_root: bool,
        subs: &[(Peer, Filter)],
        from: Peer,
        events: &[Event],
    ) -> Vec<Vec<Peer>> {
        let mut b: Broker<Filter> = Broker::new(is_root);
        for (p, f) in subs {
            b.subscribe(*p, f.clone());
        }
        events
            .iter()
            .map(|ev| {
                b.publish(from, ev.clone())
                    .into_iter()
                    .map(|a| match a {
                        Action::Deliver(p, _) => p,
                        other => panic!("unexpected action {other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    fn subs() -> Vec<(Peer, Filter)> {
        let mut subs = Vec::new();
        for i in 0..40u32 {
            let topic = format!("t{}", i % 7);
            subs.push((Peer::Child(i % 11), f(&topic, (i as i64 % 5) * 10)));
        }
        subs.push((Peer::Parent, Filter::any()));
        subs.push((Peer::Child(3), Filter::any()));
        subs
    }

    fn events() -> Vec<Event> {
        (0..25i64)
            .map(|i| e(&format!("t{}", i % 9), i * 3))
            .collect()
    }

    #[test]
    fn matches_serial_broker_for_all_shard_counts() {
        let subs = subs();
        let events = events();
        for is_root in [true, false] {
            for from in [Peer::Parent, Peer::Child(3), Peer::Local(99)] {
                let expect = broker_deliveries(is_root, &subs, from, &events);
                for shards in [1usize, 2, 4, 8] {
                    let mut p: ShardedPipeline<Filter> = ShardedPipeline::new(is_root, shards);
                    for (peer, filter) in &subs {
                        p.subscribe(*peer, filter.clone());
                    }
                    let out = p.publish_batch(from, &events);
                    assert_eq!(out.len(), events.len());
                    for (i, want) in expect.iter().enumerate() {
                        assert_eq!(
                            out.for_event(i),
                            want.as_slice(),
                            "shards={shards} root={is_root} from={from:?} event={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_across_shard_counts() {
        let subs = subs();
        let events = events();
        let reference = {
            let mut p: ShardedPipeline<Filter> = ShardedPipeline::new(false, 1);
            for (peer, filter) in &subs {
                p.subscribe(*peer, filter.clone());
            }
            p.publish_batch(Peer::Local(1), &events)
        };
        for shards in [2usize, 4, 8] {
            let mut p: ShardedPipeline<Filter> = ShardedPipeline::new(false, shards);
            for (peer, filter) in &subs {
                p.subscribe(*peer, filter.clone());
            }
            assert_eq!(
                p.publish_batch(Peer::Local(1), &events),
                reference,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn unsubscribe_and_peer_down_update_matches() {
        let mut p: ShardedPipeline<Filter> = ShardedPipeline::new(true, 4);
        p.subscribe(Peer::Child(1), f("a", 0));
        p.subscribe(Peer::Child(2), f("a", 0));
        p.subscribe(Peer::Child(2), f("b", 0));
        assert_eq!(p.len(), 3);
        assert!(p.unsubscribe(Peer::Child(1), &f("a", 0)));
        assert!(!p.unsubscribe(Peer::Child(1), &f("a", 0)));
        let out = p.publish_batch(Peer::Parent, &[e("a", 5)]);
        assert_eq!(out.for_event(0), &[Peer::Child(2)]);
        assert_eq!(p.peer_down(Peer::Child(2)), 2);
        assert!(p.is_empty());
        let out = p.publish_batch(Peer::Parent, &[e("a", 5)]);
        assert!(out.for_event(0).is_empty());
    }

    #[test]
    fn stats_accumulate_over_batches() {
        let mut p: ShardedPipeline<Filter> = ShardedPipeline::new(true, 2);
        p.subscribe(Peer::Child(1), Filter::for_topic("t"));
        let batch = vec![e("t", 1), e("t", 2), e("zzz", 3)];
        let out = p.publish_batch(Peer::Parent, &batch);
        assert_eq!(out.total(), 2);
        let stats = p.stats();
        assert_eq!(stats.events, 3);
        assert_eq!(stats.deliveries, 2);
        assert!(stats.match_work >= 2);
        assert!(p.last_batch_work() >= 2);
    }

    #[test]
    fn shard_hash_is_fnv1a_with_standard_constants() {
        // Published FNV-1a 64-bit test values: the shard partition must
        // not drift across toolchains (or refactors).
        for (input, want) in [
            (b"".as_slice(), 0xcbf2_9ce4_8422_2325u64),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"foobar", 0x8594_4171_f739_67e8),
        ] {
            let mut h = Fnv1a::new();
            h.write(input);
            assert_eq!(h.finish(), want, "input {input:?}");
        }
    }

    #[test]
    fn empty_batch_and_empty_pipeline() {
        let mut p: ShardedPipeline<Filter> = ShardedPipeline::new(true, 8);
        let out = p.publish_batch(Peer::Parent, &[]);
        assert!(out.is_empty());
        assert_eq!(out.total(), 0);
        p.subscribe(Peer::Child(1), Filter::any());
        let out = p.publish_batch(Peer::Parent, &[e("t", 1)]);
        assert_eq!(out.for_event(0), &[Peer::Child(1)]);
    }
}
