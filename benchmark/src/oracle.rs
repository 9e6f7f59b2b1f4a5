//! The delivery oracle: what each connection must receive, computed
//! from the generated inputs alone (never from the broker's index).
//!
//! * [`Coverage`] is the brute-force matcher: every background
//!   subscription marks its value range in a per-connection, per-topic
//!   bitmap, so "is event `id` expected on connection `c`" is a lookup.
//! * [`InOrder`] checks one connection's stream against it. One broker
//!   and one TCP stream per connection make every stream FIFO, so the
//!   expected multiset is an expected *sequence*: a skipped expected id
//!   is a missing delivery, an unexpected id a spurious one, a
//!   non-increasing id a duplicate.
//! * [`ChurnOracle`] is the interval oracle for subscriptions that join
//!   and leave while events flow.

use std::collections::VecDeque;

use crate::workload::{Generator, SubDesc, VALUE_RANGE};

/// One connection's expected deliveries.
#[derive(Debug, Clone)]
enum Cover {
    /// Probe and wide connections: every event.
    All,
    /// Background connections: one 256-bit value bitmap per topic.
    Map(Vec<[u64; 4]>),
}

/// Expected deliveries per connection: index 0 is the probe, then the
/// background connections, then the wide ones.
#[derive(Debug, Clone)]
pub struct Coverage {
    conns: Vec<Cover>,
}

impl Coverage {
    /// Marks every generated background subscription.
    pub fn build(gen: &Generator) -> Coverage {
        let spec = gen.spec();
        const { assert!(VALUE_RANGE <= 256, "one 256-bit bitmap per topic") };
        let mut conns = vec![Cover::All];
        let mut maps = vec![vec![[0u64; 4]; spec.topics]; spec.bg_conns];
        for k in 0..spec.bg_subs {
            let s = gen.bg_sub(k);
            let bits = &mut maps[s.conn][s.topic as usize];
            for v in s.lo..=s.hi {
                bits[(v >> 6) as usize] |= 1 << (v & 63);
            }
        }
        conns.extend(maps.into_iter().map(Cover::Map));
        conns.extend((0..spec.wide_conns).map(|_| Cover::All));
        Coverage { conns }
    }

    /// Whether connection `conn` must receive an event on `topic` with
    /// attribute `value`.
    pub fn expects(&self, conn: usize, topic: u32, value: i64) -> bool {
        match &self.conns[conn] {
            Cover::All => true,
            Cover::Map(m) => m[topic as usize][(value >> 6) as usize] >> (value & 63) & 1 == 1,
        }
    }

    fn expects_all(&self, conn: usize) -> bool {
        matches!(self.conns[conn], Cover::All)
    }

    /// Expected deliveries of events `0..events`, per connection.
    pub fn expected_counts(&self, gen: &Generator, events: u64) -> Vec<u64> {
        let mut counts = vec![0u64; self.conns.len()];
        for id in 0..events {
            let (topic, value) = gen.event_attrs(id);
            for (c, n) in counts.iter_mut().enumerate() {
                *n += u64::from(self.expects(c, topic, value));
            }
        }
        counts
    }
}

/// What one delivery (or the end of the stream) resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Verdict {
    /// Expected deliveries verified.
    pub verified: u64,
    /// Expected deliveries that never arrived.
    pub missing: u64,
    /// Deliveries the oracle did not expect.
    pub spurious: u64,
    /// Deliveries of an id at or before one already seen.
    pub duplicate: u64,
}

impl Verdict {
    /// Folds another verdict into this one.
    pub fn add(&mut self, other: Verdict) {
        self.verified += other.verified;
        self.missing += other.missing;
        self.spurious += other.spurious;
        self.duplicate += other.duplicate;
    }

    /// Violations of any kind.
    pub fn failed(&self) -> u64 {
        self.missing + self.spurious + self.duplicate
    }
}

/// The in-order checker of one connection's stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct InOrder {
    /// Every id below this is resolved (verified, or not expected).
    next: u64,
}

impl InOrder {
    /// A checker whose stream starts at event `first`.
    pub fn starting_at(first: u64) -> InOrder {
        InOrder { next: first }
    }

    /// Every id below this is resolved on this connection.
    pub fn resolved(&self) -> u64 {
        self.next
    }

    /// Expected-but-skipped ids in `self.next..upto`.
    fn skipped(&self, conn: usize, upto: u64, gen: &Generator, cov: &Coverage) -> u64 {
        if cov.expects_all(conn) {
            return upto.saturating_sub(self.next);
        }
        (self.next..upto)
            .filter(|&id| {
                let (topic, value) = gen.event_attrs(id);
                cov.expects(conn, topic, value)
            })
            .count() as u64
    }

    /// Checks the delivery of event `id` on connection `conn`.
    pub fn deliver(&mut self, conn: usize, id: u64, gen: &Generator, cov: &Coverage) -> Verdict {
        let mut v = Verdict::default();
        if id < self.next {
            v.duplicate = 1;
            return v;
        }
        v.missing = self.skipped(conn, id, gen, cov);
        let expected = cov.expects_all(conn) || {
            let (topic, value) = gen.event_attrs(id);
            cov.expects(conn, topic, value)
        };
        if expected {
            v.verified = 1;
        } else {
            v.spurious = 1;
        }
        self.next = id + 1;
        v
    }

    /// Ends the stream: every event below `published` has been sent, so
    /// expected ids still unresolved are missing.
    pub fn finish(
        &mut self,
        conn: usize,
        published: u64,
        gen: &Generator,
        cov: &Coverage,
    ) -> Verdict {
        let missing = self.skipped(conn, published, gen, cov);
        self.next = self.next.max(published);
        Verdict {
            missing,
            ..Verdict::default()
        }
    }

    /// Whether an expected delivery below `published` is still
    /// unresolved: the condition to wait on before calling
    /// [`finish`](Self::finish).
    pub fn pending(&self, conn: usize, published: u64, gen: &Generator, cov: &Coverage) -> bool {
        self.skipped(conn, published, gen, cov) > 0
    }
}

/// One churned subscription and what is known about when the broker
/// held it, in event ids.
#[derive(Debug, Clone, Copy)]
struct ChurnSub {
    desc: SubDesc,
    /// First id the broker can have matched against the subscription:
    /// the subscribe was sent after it had fanned out every id before.
    joined_after: u64,
    /// Ids from here on were published after the subscribe was acked.
    must_from: u64,
    /// The unsubscribe was sent after the broker had fanned out this id.
    left_after: u64,
    /// Ids from here on were published after the unsubscribe was known
    /// to be processed.
    gone_from: u64,
}

impl ChurnSub {
    fn matches(&self, topic: u32, value: i64) -> bool {
        self.desc.topic == topic && self.desc.lo <= value && value <= self.desc.hi
    }
}

/// The interval oracle of the churned connection.
///
/// Between a subscribe and the barrier that confirms it, and between an
/// unsubscribe and the barrier that confirms that, the broker may or may
/// not hold the subscription: deliveries there are allowed, not
/// required. Outside those windows they are required, or forbidden.
#[derive(Debug, Clone, Default)]
pub struct ChurnOracle {
    /// Joined, in join order; leaves take the oldest still-subscribed.
    subs: VecDeque<ChurnSub>,
    /// Subscriptions at the front of `subs` already asked to leave.
    leaving: usize,
    next: u64,
}

impl ChurnOracle {
    /// An oracle whose stream starts at event `first`.
    pub fn starting_at(first: u64) -> ChurnOracle {
        ChurnOracle {
            next: first,
            ..ChurnOracle::default()
        }
    }

    /// Every id below this is resolved.
    pub fn resolved(&self) -> u64 {
        self.next
    }

    /// Records a subscribe sent right after the consumer verified probe
    /// event `seen` (`None` before any event was published).
    pub fn join(&mut self, desc: SubDesc, seen: Option<u64>) {
        self.subs.push_back(ChurnSub {
            desc,
            joined_after: seen.map_or(0, |s| s + 1),
            must_from: u64::MAX,
            left_after: u64::MAX,
            gone_from: u64::MAX,
        });
    }

    /// Records an unsubscribe of the oldest subscribed entry, sent right
    /// after probe event `seen`; returns which subscription left.
    pub fn leave_oldest(&mut self, seen: u64) -> Option<SubDesc> {
        let sub = self.subs.get_mut(self.leaving)?;
        sub.left_after = seen;
        self.leaving += 1;
        Some(sub.desc)
    }

    /// A barrier ack arrived while `published` events had been sent:
    /// everything requested before the barrier is now in force for ids
    /// from `published` on.
    pub fn barrier(&mut self, published: u64) {
        for (i, s) in self.subs.iter_mut().enumerate() {
            if s.must_from == u64::MAX {
                s.must_from = published;
            }
            if i < self.leaving && s.gone_from == u64::MAX {
                s.gone_from = published;
            }
        }
        while self
            .subs
            .front()
            .is_some_and(|s| self.leaving > 0 && s.gone_from <= self.next)
        {
            self.subs.pop_front();
            self.leaving -= 1;
        }
    }

    fn classify(&self, id: u64, gen: &Generator) -> (bool, bool) {
        let (topic, value) = gen.event_attrs(id);
        let (mut must, mut may) = (false, false);
        for s in &self.subs {
            if !s.matches(topic, value) {
                continue;
            }
            may |= id >= s.joined_after && id < s.gone_from;
            must |= id >= s.must_from && id <= s.left_after;
        }
        (must, may)
    }

    fn skip_to(&mut self, upto: u64, gen: &Generator) -> u64 {
        let missing = (self.next..upto)
            .filter(|&id| self.classify(id, gen).0)
            .count() as u64;
        self.next = self.next.max(upto);
        missing
    }

    /// Checks the delivery of event `id` on the churned connection.
    pub fn deliver(&mut self, id: u64, gen: &Generator) -> Verdict {
        let mut v = Verdict::default();
        if id < self.next {
            v.duplicate = 1;
            return v;
        }
        v.missing = self.skip_to(id, gen);
        if self.classify(id, gen).1 {
            v.verified = 1;
        } else {
            v.spurious = 1;
        }
        self.next = id + 1;
        v
    }

    /// Ends the stream at `published`: required ids still unresolved are
    /// missing.
    pub fn finish(&mut self, published: u64, gen: &Generator) -> Verdict {
        Verdict {
            missing: self.skip_to(published, gen),
            ..Verdict::default()
        }
    }

    /// Whether a required delivery below `published` is still unresolved.
    pub fn pending(&self, published: u64, gen: &Generator) -> bool {
        (self.next..published).any(|id| self.classify(id, gen).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{by_name, Generator};

    fn small() -> Generator {
        Generator::new(&by_name("live_small").unwrap().with_bg_subs(8), 3)
    }

    #[test]
    fn coverage_agrees_with_a_linear_scan_of_the_subscriptions() {
        let gen = small();
        let cov = Coverage::build(&gen);
        for id in 0..2_000 {
            let (topic, value) = gen.event_attrs(id);
            let linear = (0..gen.spec().bg_subs).any(|k| {
                let s = gen.bg_sub(k);
                s.topic == topic && s.lo <= value && value <= s.hi
            });
            assert_eq!(cov.expects(1, topic, value), linear, "event {id}");
            assert!(cov.expects(0, topic, value), "the probe sees everything");
        }
    }

    #[test]
    fn in_order_flags_missing_spurious_and_duplicate() {
        let gen = small();
        let cov = Coverage::build(&gen);
        let expected: Vec<u64> = (0..4_000)
            .filter(|&id| {
                let (t, v) = gen.event_attrs(id);
                cov.expects(1, t, v)
            })
            .collect();
        assert!(expected.len() > 3, "the test needs a few expected ids");
        let unexpected = (0..4_000).find(|id| !expected.contains(id)).unwrap();

        let mut clean = InOrder::default();
        let mut total = Verdict::default();
        for &id in &expected {
            total.add(clean.deliver(1, id, &gen, &cov));
        }
        total.add(clean.finish(1, 4_000, &gen, &cov));
        assert_eq!(total.failed(), 0);
        assert_eq!(total.verified, expected.len() as u64);
        assert_eq!(
            cov.expected_counts(&gen, 4_000),
            vec![4_000, expected.len() as u64]
        );

        let mut lossy = InOrder::default();
        let v = lossy.deliver(1, expected[2], &gen, &cov);
        assert_eq!((v.missing, v.verified), (2, 1));
        assert_eq!(lossy.deliver(1, expected[2], &gen, &cov).duplicate, 1);
        let mut stray = InOrder::default();
        assert_eq!(stray.deliver(1, unexpected, &gen, &cov).spurious, 1);
    }

    #[test]
    fn churn_windows_are_may_then_must_then_may_then_never() {
        let spec = by_name("churn_epoch").unwrap().with_bg_subs(0);
        let gen = Generator::new(&spec, 9);
        let desc = gen.churn_sub(0);
        // Ids that match the subscription, one per phase of its life.
        let hits: Vec<u64> = (0..200_000)
            .filter(|&id| {
                let (t, v) = gen.event_attrs(id);
                t == desc.topic && desc.lo <= v && v <= desc.hi
            })
            .collect();
        let pick = |from: u64| *hits.iter().find(|&&id| id >= from).unwrap();
        let before = pick(0);
        let joined_after = before + 1; // subscribe sent after `before`
        let uncertain = pick(joined_after + 1);
        let must_from = uncertain + 10;
        let required = pick(must_from);
        let left_after = required + 5;
        let draining = pick(left_after + 1);
        let gone_from = draining + 10;
        let never = pick(gone_from);

        let run = |delivered: &[u64]| {
            let mut o = ChurnOracle::default();
            let mut total = Verdict::default();
            let mut steps: Vec<(u64, u8)> = vec![
                (joined_after, 0),
                (must_from, 1),
                (left_after + 1, 2),
                (gone_from, 3),
            ];
            steps.extend(delivered.iter().map(|&id| (id, 4)));
            // Control steps take effect before the delivery of the same id.
            steps.sort_unstable();
            for (at, what) in steps {
                match what {
                    0 => o.join(desc, Some(at - 1)),
                    1 | 3 => o.barrier(at),
                    2 => assert_eq!(o.leave_oldest(at - 1), Some(desc)),
                    _ => total.add(o.deliver(at, &gen)),
                }
            }
            total.add(o.finish(never + 1, &gen));
            total
        };

        assert_eq!(run(&[required]).failed(), 0, "only the required one");
        assert_eq!(run(&[uncertain, required, draining]).failed(), 0);
        assert_eq!(run(&[]).missing, 1, "the required delivery is missing");
        assert_eq!(run(&[before, required]).spurious, 1);
        assert_eq!(run(&[required, never]).spurious, 1);
        assert_eq!(run(&[required, required]).duplicate, 1);
    }
}
