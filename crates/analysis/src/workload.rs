//! The paper's synthetic workload (§5.2).
//!
//! 128 topics with Zipf-like popularity; 32 of each family: plain topics,
//! numeric attributes (range 256, least count 4), category attributes
//! (trees of height 4, fan-out 2–4, ≈82 elements), and string attributes
//! (lengths Zipf-distributed in 1–8). Each subscriber subscribes to 32
//! topics drawn by popularity; numeric subscription ranges are Gaussian
//! (mean 128, sd 32); publications carry 256-byte payloads.

use std::collections::HashMap;

use psguard_model::{AttrValue, CategoryPath, Constraint, Event, Filter, IntRange, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::samplers::{gaussian_clamped, ZipfSampler};

/// The attribute family of a topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopicKind {
    /// Keyword-only matching.
    Plain,
    /// One numeric attribute (`value`), range 0–255, least count 4.
    Numeric,
    /// One category attribute (`category`), tree height 4, fan-out 2–4.
    Category,
    /// One string attribute (`str`), prefix matching, lengths 1–8.
    Str,
}

/// A generated category tree: fan-out per internal node.
#[derive(Debug, Clone)]
pub struct CategoryTree {
    fanout: HashMap<CategoryPath, u32>,
    height: usize,
}

impl CategoryTree {
    fn generate(rng: &mut StdRng, height: usize) -> Self {
        let mut fanout = HashMap::new();
        let mut frontier = vec![CategoryPath::root()];
        for _ in 0..height {
            let mut next = Vec::new();
            for node in frontier {
                let f = rng.gen_range(2..=4u32);
                fanout.insert(node.clone(), f);
                for c in 0..f {
                    next.push(node.child(c));
                }
            }
            frontier = next;
        }
        CategoryTree { fanout, height }
    }

    /// Total number of elements (internal + leaves).
    // DEAD-PUB-OK: observer of the paper's category-tree size (avg 82 elements)
    pub fn element_count(&self) -> usize {
        // Internal nodes plus the leaves below the deepest internal level.
        let internal = self.fanout.len();
        let leaves: u32 = self
            .fanout
            .iter()
            .filter(|(p, _)| p.depth() == self.height - 1)
            .map(|(_, f)| *f)
            .sum();
        internal + leaves as usize
    }

    /// Tree height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// A uniformly random full-depth path (an event's category).
    pub fn sample_leaf(&self, rng: &mut StdRng) -> CategoryPath {
        let mut node = CategoryPath::root();
        while let Some(&f) = self.fanout.get(&node) {
            node = node.child(rng.gen_range(0..f));
        }
        node
    }

    /// A random internal node at depth ≥ 1 (a subscription subtree).
    pub fn sample_subtree(&self, rng: &mut StdRng) -> CategoryPath {
        let depth = rng.gen_range(1..=self.height.saturating_sub(1).max(1));
        let mut node = CategoryPath::root();
        for _ in 0..depth {
            match self.fanout.get(&node) {
                Some(&f) => node = node.child(rng.gen_range(0..f)),
                None => break,
            }
        }
        node
    }
}

/// One topic of the workload.
#[derive(Debug, Clone)]
pub struct TopicSpec {
    /// Topic name (`topic000` … `topic127`).
    pub name: String,
    /// Attribute family.
    pub kind: TopicKind,
    /// The category tree, for [`TopicKind::Category`] topics.
    pub category_tree: Option<CategoryTree>,
}

/// Workload parameters (defaults = the paper's §5.2 values).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of topics.
    pub topics: usize,
    /// Zipf exponent for topic popularity.
    pub zipf_s: f64,
    /// Topics per subscriber.
    pub topics_per_subscriber: usize,
    /// Numeric attribute range size.
    pub numeric_range: i64,
    /// Numeric least count.
    pub numeric_lc: u64,
    /// Mean/sd of the Gaussian subscription-range width.
    pub range_width: (f64, f64),
    /// Category tree height.
    pub category_height: usize,
    /// Max string length (lengths are Zipf in 1..=max).
    pub string_max_len: usize,
    /// Event payload size in bytes.
    pub payload_bytes: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            topics: 128,
            zipf_s: 0.9,
            topics_per_subscriber: 32,
            numeric_range: 256,
            numeric_lc: 4,
            range_width: (128.0, 32.0),
            category_height: 4,
            string_max_len: 8,
            payload_bytes: 256,
        }
    }
}

/// The workload generator.
///
/// # Example
///
/// ```
/// use psguard_analysis::{Workload, WorkloadConfig};
///
/// let mut w = Workload::new(WorkloadConfig::default(), 42);
/// let filters = w.subscriptions(16);
/// assert_eq!(filters.len(), 16);
/// let event = w.random_event();
/// assert_eq!(event.payload().len(), 256);
/// ```
#[derive(Debug)]
pub struct Workload {
    config: WorkloadConfig,
    topics: Vec<TopicSpec>,
    popularity: ZipfSampler,
    string_len: ZipfSampler,
    rng: StdRng,
}

impl Workload {
    /// Builds the workload deterministically from a seed.
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let topics = (0..config.topics)
            .map(|i| {
                let kind = match i % 4 {
                    0 => TopicKind::Plain,
                    1 => TopicKind::Numeric,
                    2 => TopicKind::Category,
                    _ => TopicKind::Str,
                };
                let category_tree = (kind == TopicKind::Category)
                    .then(|| CategoryTree::generate(&mut rng, config.category_height));
                TopicSpec {
                    name: format!("topic{i:03}"),
                    kind,
                    category_tree,
                }
            })
            .collect();
        Workload {
            popularity: ZipfSampler::new(config.topics, config.zipf_s),
            string_len: ZipfSampler::new(config.string_max_len, 1.0),
            topics,
            config,
            rng,
        }
    }

    /// The workload configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// All topic specs.
    pub fn topics(&self) -> &[TopicSpec] {
        &self.topics
    }

    fn random_string(&mut self) -> String {
        let len = self.string_len.sample(&mut self.rng) + 1;
        (0..len)
            .map(|_| (b'a' + self.rng.gen_range(0..4u8)) as char)
            .collect()
    }

    /// A subscription filter for the given topic index, per its family.
    pub fn subscription_for_topic(&mut self, topic_idx: usize) -> Filter {
        let spec = self.topics[topic_idx].clone();
        let base = Filter::for_topic(&spec.name);
        match spec.kind {
            TopicKind::Plain => base,
            TopicKind::Numeric => {
                let (mean, sd) = self.config.range_width;
                let width = gaussian_clamped(
                    &mut self.rng,
                    mean,
                    sd,
                    self.config.numeric_lc as i64,
                    self.config.numeric_range,
                );
                let lo = self
                    .rng
                    .gen_range(0..=(self.config.numeric_range - width).max(0));
                // `gaussian_clamped` bounds width to [lc, range] with lc ≥ 1,
                // so the subscription interval is never empty.
                let range = IntRange::new(lo, lo + width.max(1) - 1).unwrap_or(IntRange::point(lo));
                base.with(Constraint::new("value", Op::InRange(range)))
            }
            TopicKind::Category => {
                // Category topics are always constructed with a tree; an
                // inconsistent spec degrades to an unconstrained filter.
                match spec.category_tree.as_ref() {
                    Some(tree) => {
                        let node = tree.sample_subtree(&mut self.rng);
                        base.with(Constraint::new("category", Op::CategoryIn(node)))
                    }
                    None => base,
                }
            }
            TopicKind::Str => {
                let s = self.random_string();
                let plen = self.rng.gen_range(1..=s.len());
                base.with(Constraint::new("str", Op::StrPrefix(s[..plen].to_owned())))
            }
        }
    }

    /// One subscriber's filters: `topics_per_subscriber` distinct topics
    /// drawn by popularity, each with a family-appropriate constraint.
    pub fn subscriptions(&mut self, count: usize) -> Vec<Filter> {
        let picks = self.popularity.sample_distinct(count, &mut self.rng);
        picks
            .into_iter()
            .map(|t| self.subscription_for_topic(t))
            .collect()
    }

    /// An event for the given topic index.
    pub fn event_for_topic(&mut self, topic_idx: usize) -> Event {
        let spec = self.topics[topic_idx].clone();
        let mut builder = Event::builder(&spec.name).publisher("P");
        match spec.kind {
            TopicKind::Plain => {}
            TopicKind::Numeric => {
                let v = self.rng.gen_range(0..self.config.numeric_range);
                builder = builder.attr("value", AttrValue::Int(v));
            }
            TopicKind::Category => {
                if let Some(tree) = spec.category_tree.as_ref() {
                    let leaf = tree.sample_leaf(&mut self.rng);
                    builder = builder.attr("category", AttrValue::Category(leaf));
                }
            }
            TopicKind::Str => {
                let s = self.random_string();
                builder = builder.attr("str", AttrValue::Str(s));
            }
        }
        let payload: Vec<u8> = (0..self.config.payload_bytes)
            .map(|_| self.rng.gen())
            .collect();
        builder.payload(payload).build()
    }

    /// An event on a popularity-drawn topic.
    // DEAD-PUB-OK: the paper workload's Zipf event draw (workload_scale.rs)
    pub fn random_event(&mut self) -> Event {
        let t = self.popularity.sample(&mut self.rng);
        self.event_for_topic(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> Workload {
        Workload::new(WorkloadConfig::default(), 1)
    }

    #[test]
    fn paper_topic_mix() {
        let w = workload();
        let count = |k: TopicKind| w.topics().iter().filter(|t| t.kind == k).count();
        assert_eq!(count(TopicKind::Plain), 32);
        assert_eq!(count(TopicKind::Numeric), 32);
        assert_eq!(count(TopicKind::Category), 32);
        assert_eq!(count(TopicKind::Str), 32);
    }

    #[test]
    fn category_trees_match_paper_stats() {
        let w = workload();
        let sizes: Vec<usize> = w
            .topics()
            .iter()
            .filter_map(|t| t.category_tree.as_ref())
            .map(|tr| tr.element_count())
            .collect();
        assert_eq!(sizes.len(), 32);
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        // Paper: "the average number of elements in a category tree was 82".
        assert!(
            avg > 40.0 && avg < 140.0,
            "avg category tree size {avg} out of regime"
        );
        for t in w.topics().iter().filter_map(|t| t.category_tree.as_ref()) {
            assert_eq!(t.height(), 4);
        }
    }

    #[test]
    fn subscriptions_match_their_topics_events() {
        let mut w = workload();
        // A subscription on a numeric topic must sometimes match events of
        // that topic.
        let numeric_idx = w
            .topics()
            .iter()
            .position(|t| t.kind == TopicKind::Numeric)
            .unwrap();
        let f = w.subscription_for_topic(numeric_idx);
        let mut hits = 0;
        for _ in 0..500 {
            if f.matches(&w.event_for_topic(numeric_idx)) {
                hits += 1;
            }
        }
        assert!(hits > 0, "range subscriptions should match some events");
    }

    #[test]
    fn events_carry_paper_payload() {
        let mut w = workload();
        let e = w.random_event();
        assert_eq!(e.payload().len(), 256);
    }

    #[test]
    fn per_family_events_carry_their_attribute() {
        let mut w = workload();
        for kind in [
            TopicKind::Plain,
            TopicKind::Numeric,
            TopicKind::Category,
            TopicKind::Str,
        ] {
            let idx = w.topics().iter().position(|t| t.kind == kind).unwrap();
            let ev = w.event_for_topic(idx);
            match kind {
                TopicKind::Numeric => assert!(ev.attr("value").is_some()),
                TopicKind::Category => assert!(ev.attr("category").is_some()),
                TopicKind::Str => assert!(ev.attr("str").is_some()),
                TopicKind::Plain => assert_eq!(ev.attr_count(), 0),
            }
        }
    }

    #[test]
    fn subscriber_gets_distinct_topics() {
        let mut w = workload();
        let filters = w.subscriptions(32);
        let topics: std::collections::HashSet<_> = filters
            .iter()
            .map(|f| f.topic().unwrap().to_owned())
            .collect();
        assert_eq!(topics.len(), 32);
    }

    #[test]
    fn frequencies_align_with_topics() {
        let w = workload();
        let f: Vec<f64> = (0..w.topics.len())
            .map(|r| w.popularity.probability(r))
            .collect();
        assert_eq!(f.len(), 128);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(f[0] > f[127]);
    }

    #[test]
    fn deterministic_from_seed() {
        let mut a = Workload::new(WorkloadConfig::default(), 9);
        let mut b = Workload::new(WorkloadConfig::default(), 9);
        assert_eq!(a.random_event(), b.random_event());
        assert_eq!(a.subscriptions(4), b.subscriptions(4));
    }
}
