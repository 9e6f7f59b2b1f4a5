//! Shared harness code for the PSGuard evaluation and benchmark binaries.
//!
//! Every table and figure of the paper is an entry of [`repro`], run by
//! the `repro` binary (`repro table1 … fig11`, or `repro all`), which
//! regenerates its rows/series and checks the paper's claims about them.
//! This library also holds what the experiments share: host-cost
//! measurement (converting hash counts to microseconds the way the paper
//! reports µs), the §5.2 deployment setup, and the interval mapping that
//! lets the subscriber-group baseline cover all four attribute families.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use psguard::{PsGuard, PsGuardConfig, Publisher, Subscriber};
use psguard_analysis::{TopicKind, Workload, WorkloadConfig};
use psguard_keys::Schema;
use psguard_model::{AttrValue, CategoryPath, Filter, IntRange, Op};

/// Measures the host's one-way-hash (SHA-1) cost in microseconds per
/// operation — the unit behind Tables 1–2 and Figure 5.
pub fn hash_cost_us() -> f64 {
    let mut data = [0u8; 24];
    // Warm up, then measure a tight loop.
    for _ in 0..1000 {
        let d = psguard_crypto::h(&data);
        data[..20].copy_from_slice(&d);
    }
    let n = 20_000u32;
    let start = Instant::now();
    for _ in 0..n {
        let d = psguard_crypto::h(&data);
        data[..20].copy_from_slice(&d);
    }
    start.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// Measures AES-128 block encryption cost in microseconds per block.
pub fn aes_block_us() -> f64 {
    let cipher = psguard_crypto::Aes128::new(&[7u8; 16]);
    let mut block = [0u8; 16];
    for _ in 0..1000 {
        cipher.encrypt_block(&mut block);
    }
    let n = 20_000u32;
    let start = Instant::now();
    for _ in 0..n {
        cipher.encrypt_block(&mut block);
    }
    start.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// Builds the global schema for the §5.2 workload: every numeric topic
/// keys attribute `value` (range 256, lc 4), category topics key
/// `category` (height 4), string topics key `str` (prefix, max len 8).
/// Hierarchies are rooted per topic, so one schema serves all topics.
pub fn paper_schema() -> Schema {
    Schema::builder()
        .numeric("value", IntRange::new(0, 255).expect("valid"), 4)
        .expect("valid nakt")
        .category("category", 4)
        .str_prefix("str", 8)
        .build()
}

/// A ready-to-measure deployment: PSGuard service, an authorized
/// publisher (all topics, epoch 0), and the workload generator.
pub struct PaperSetup {
    /// The deployment facade.
    pub ps: PsGuard,
    /// Publisher authorized for every workload topic at epoch 0.
    pub publisher: Publisher,
    /// The workload generator.
    pub workload: Workload,
}

impl PaperSetup {
    /// Builds the §5.2 setup deterministically.
    pub fn new(seed: u64) -> Self {
        let ps = PsGuard::new(
            b"psguard-eval-master",
            paper_schema(),
            PsGuardConfig::default(),
        );
        let workload = Workload::new(WorkloadConfig::default(), seed);
        let mut publisher = ps.publisher("P");
        for t in workload.topics() {
            ps.authorize_publisher(&mut publisher, &t.name, 0);
        }
        PaperSetup {
            ps,
            publisher,
            workload,
        }
    }

    /// A subscriber with `n_topics` workload subscriptions installed.
    /// Returns the subscriber and its plaintext filters.
    pub fn subscriber(&mut self, name: &str, n_topics: usize) -> (Subscriber, Vec<Filter>) {
        let mut sub = self.ps.subscriber(name);
        let filters = self.workload.subscriptions(n_topics);
        for f in &filters {
            self.ps
                .authorize_subscriber(&mut sub, f, 0)
                .expect("workload filters are grantable");
        }
        (sub, filters)
    }
}

/// Maps a workload filter onto an integer interval so the
/// subscriber-group baseline (interval groups) covers all four families:
///
/// * numeric ranges map to themselves;
/// * a category subtree is the contiguous range of its leaf indices;
/// * a string prefix is the lexicographic range of its extensions
///   (base-5 encoding of `a`–`d` plus end-marker, max length 8);
/// * a plain topic is the whole range (one group per topic).
pub fn baseline_interval(filter: &Filter, kind: TopicKind) -> IntRange {
    const STR_BASE: i64 = 5;
    const STR_LEN: u32 = 8;
    let whole = match kind {
        TopicKind::Plain => IntRange::new(0, 0).expect("valid"),
        TopicKind::Numeric => IntRange::new(0, 255).expect("valid"),
        TopicKind::Category => IntRange::new(0, 4i64.pow(4) - 1).expect("valid"),
        TopicKind::Str => IntRange::new(0, STR_BASE.pow(STR_LEN) - 1).expect("valid"),
    };
    let Some(c) = filter.constraints().first() else {
        return whole;
    };
    match c.op() {
        Op::InRange(r) => *r,
        Op::Ge(l) => IntRange::new(*l, whole.hi()).unwrap_or(whole),
        Op::Le(u) => IntRange::new(whole.lo(), *u).unwrap_or(whole),
        Op::Gt(l) => IntRange::new(l + 1, whole.hi()).unwrap_or(whole),
        Op::Lt(u) => IntRange::new(whole.lo(), u - 1).unwrap_or(whole),
        Op::Eq(AttrValue::Int(v)) => IntRange::point(*v),
        Op::CategoryIn(path) => category_leaf_range(path),
        Op::Eq(AttrValue::Category(path)) => category_leaf_range(path),
        Op::StrPrefix(p) => string_prefix_range(p, STR_BASE, STR_LEN),
        Op::Eq(AttrValue::Str(s)) => string_prefix_range(s, STR_BASE, STR_LEN),
        _ => whole,
    }
}

/// The contiguous leaf-index range under a category node, assuming the
/// maximum fan-out of 4 at height 4 (a superset of the generated trees —
/// adequate for the baseline's interval algebra).
fn category_leaf_range(path: &CategoryPath) -> IntRange {
    let height = 4u32;
    let fanout = 4i64;
    let depth = path.depth().min(height as usize) as u32;
    let width = fanout.pow(height - depth);
    let lo: i64 = path
        .indices()
        .iter()
        .take(depth as usize)
        .fold(0i64, |acc, &i| acc * fanout + (i as i64).min(fanout - 1))
        * width;
    IntRange::new(lo, lo + width - 1).expect("non-empty")
}

/// The lexicographic index range of all strings extending `prefix`
/// (alphabet `a`–`d` mapped to digits 1–4, 0 = end marker, fixed width).
fn string_prefix_range(prefix: &str, base: i64, width: u32) -> IntRange {
    let mut lo = 0i64;
    let depth = prefix.len().min(width as usize) as u32;
    for b in prefix.bytes().take(depth as usize) {
        let digit = ((b.saturating_sub(b'a')) as i64 + 1).min(base - 1);
        lo = lo * base + digit;
    }
    let span = base.pow(width - depth);
    lo *= span;
    IntRange::new(lo, lo + span - 1).expect("non-empty")
}

/// Converts hash-operation counts to microseconds with the measured
/// per-hash cost.
pub fn hashes_to_us(hashes: f64, hash_us: f64) -> f64 {
    hashes * hash_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use psguard_model::Constraint;

    #[test]
    fn host_costs_are_sane() {
        let h = hash_cost_us();
        assert!(h > 0.0 && h < 100.0, "hash cost {h} µs");
        let a = aes_block_us();
        assert!(a > 0.0 && a < 100.0, "aes cost {a} µs");
    }

    #[test]
    fn paper_setup_publishes_and_grants() {
        let mut setup = PaperSetup::new(1);
        let (mut sub, filters) = setup.subscriber("S", 8);
        assert_eq!(filters.len(), 8);
        assert!(sub.key_count() >= 8);
        // Publish an event on one of the subscribed topics and decrypt it
        // if it matches.
        let topic = filters[0].topic().unwrap().to_owned();
        let idx = setup
            .workload
            .topics()
            .iter()
            .position(|t| t.name == topic)
            .unwrap();
        for _ in 0..64 {
            let e = setup.workload.event_for_topic(idx);
            let secure = setup.publisher.publish(&e, 0).unwrap();
            if filters[0].matches(&e) {
                assert!(sub.decrypt(&secure).is_ok());
                return;
            }
        }
        // Plain topics always match; constrained ones may legitimately
        // miss 64 draws only for very narrow filters.
    }

    #[test]
    fn category_ranges_nest() {
        let parent = category_leaf_range(&CategoryPath::from_indices([1]));
        let child = category_leaf_range(&CategoryPath::from_indices([1, 2]));
        assert!(parent.covers(&child));
        let sibling = category_leaf_range(&CategoryPath::from_indices([2]));
        assert!(parent.intersect(&sibling).is_none());
    }

    #[test]
    fn string_prefix_ranges_nest() {
        let go = string_prefix_range("bc", 5, 8);
        let goo = string_prefix_range("bcd", 5, 8);
        assert!(go.covers(&goo));
        let ms = string_prefix_range("a", 5, 8);
        assert!(go.intersect(&ms).is_none());
    }

    #[test]
    fn baseline_interval_for_each_family() {
        let plain = Filter::for_topic("t");
        assert_eq!(baseline_interval(&plain, TopicKind::Plain).len(), 1);
        let numeric = Filter::for_topic("t").with(Constraint::new(
            "value",
            Op::InRange(IntRange::new(10, 20).unwrap()),
        ));
        assert_eq!(baseline_interval(&numeric, TopicKind::Numeric).len(), 11);
        let cat = Filter::for_topic("t").with(Constraint::new(
            "category",
            Op::CategoryIn(CategoryPath::from_indices([0])),
        ));
        assert_eq!(baseline_interval(&cat, TopicKind::Category).len(), 64);
        let s = Filter::for_topic("t").with(Constraint::new("str", Op::StrPrefix("a".into())));
        assert_eq!(
            baseline_interval(&s, TopicKind::Str).len() as i64,
            5i64.pow(7)
        );
    }
}

pub mod keymgmt;
pub mod perf;
pub mod repro;
pub mod support;
