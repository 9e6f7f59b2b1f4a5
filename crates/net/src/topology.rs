//! Network topologies: a transit-stub (GT-ITM-style) Internet model and
//! helpers for carving pub-sub dissemination trees out of it.
//!
//! The paper generated a 63-node Internet topology with GT-ITM [26]; link
//! round-trip times ranged 24–184 ms with mean 74 ms and a standard
//! deviation of 50 ms. [`TransitStubConfig`] reproduces that model: a few
//! well-connected *transit* domains, each transit node sponsoring *stub*
//! domains, with per-tier latency ranges calibrated to the paper's
//! distribution.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A node in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An undirected link with a one-way latency in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// One-way latency in milliseconds.
    pub latency_ms: u32,
}

/// An undirected weighted graph.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    node_count: u32,
    links: Vec<Link>,
    adjacency: Vec<Vec<(NodeId, u32)>>,
}

impl Topology {
    /// Creates a topology with `node_count` isolated nodes.
    pub fn with_nodes(node_count: u32) -> Self {
        Topology {
            node_count,
            links: Vec::new(),
            adjacency: vec![Vec::new(); node_count as usize],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count).map(NodeId)
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Adds an undirected link.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, latency_ms: u32) {
        assert!(
            a.0 < self.node_count && b.0 < self.node_count,
            "endpoint out of range"
        );
        assert_ne!(a, b, "self-loops are not allowed");
        self.links.push(Link { a, b, latency_ms });
        self.adjacency[a.0 as usize].push((b, latency_ms));
        self.adjacency[b.0 as usize].push((a, latency_ms));
    }

    /// Neighbors of a node with link latencies.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, u32)] {
        &self.adjacency[n.0 as usize]
    }

    /// Single-source shortest-path latencies (Dijkstra). Unreachable nodes
    /// get `u64::MAX`.
    pub fn latencies_from(&self, src: NodeId) -> Vec<u64> {
        let n = self.node_count as usize;
        let mut dist = vec![u64::MAX; n];
        let mut heap = std::collections::BinaryHeap::new();
        dist[src.0 as usize] = 0;
        heap.push(std::cmp::Reverse((0u64, src)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u.0 as usize] {
                continue;
            }
            for &(v, w) in self.neighbors(u) {
                let nd = d + w as u64;
                if nd < dist[v.0 as usize] {
                    dist[v.0 as usize] = nd;
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        dist
    }

    /// Latency of the shortest path between two nodes, or `None` when
    /// disconnected.
    pub fn latency_between(&self, a: NodeId, b: NodeId) -> Option<u64> {
        let d = self.latencies_from(a)[b.0 as usize];
        (d != u64::MAX).then_some(d)
    }
}

/// Parameters of the transit-stub generator.
///
/// Defaults reproduce the paper's 63-node topology: 1 transit domain of 3
/// nodes, each sponsoring 4 stub domains of 5 nodes
/// (3 + 3·4·5 = 63).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitStubConfig {
    /// Number of transit domains.
    pub transit_domains: u32,
    /// Nodes per transit domain.
    pub transit_nodes: u32,
    /// Stub domains attached to each transit node.
    pub stubs_per_transit: u32,
    /// Nodes per stub domain.
    pub stub_nodes: u32,
    /// One-way latency range for transit–transit links (ms).
    pub transit_latency: (u32, u32),
    /// One-way latency range for transit–stub links (ms).
    pub stub_uplink_latency: (u32, u32),
    /// One-way latency range for intra-stub links (ms).
    pub stub_latency: (u32, u32),
}

impl Default for TransitStubConfig {
    fn default() -> Self {
        // Calibrated so link RTTs span ≈24–184 ms with mean ≈74 ms, as the
        // paper's GT-ITM run measured.
        TransitStubConfig {
            transit_domains: 1,
            transit_nodes: 3,
            stubs_per_transit: 4,
            stub_nodes: 5,
            transit_latency: (40, 92),
            stub_uplink_latency: (20, 60),
            stub_latency: (12, 35),
        }
    }
}

impl TransitStubConfig {
    /// Total node count for these parameters.
    pub fn total_nodes(&self) -> u32 {
        let transit = self.transit_domains * self.transit_nodes;
        transit + transit * self.stubs_per_transit * self.stub_nodes
    }

    /// Generates a topology deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Topology {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut topo = Topology::with_nodes(self.total_nodes());
        let sample = |rng: &mut StdRng, (lo, hi): (u32, u32)| {
            if lo >= hi {
                lo
            } else {
                rng.gen_range(lo..=hi)
            }
        };

        let transit_total = self.transit_domains * self.transit_nodes;
        // Transit backbone: ring + a chord per domain for redundancy.
        for d in 0..self.transit_domains {
            let base = d * self.transit_nodes;
            for i in 0..self.transit_nodes {
                let a = NodeId(base + i);
                let b = NodeId(base + (i + 1) % self.transit_nodes);
                if a != b
                    && !topo
                        .links
                        .iter()
                        .any(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
                {
                    let lat = sample(&mut rng, self.transit_latency);
                    topo.add_link(a, b, lat);
                }
            }
        }
        // Inter-domain transit links: chain the domains.
        for d in 1..self.transit_domains {
            let a = NodeId((d - 1) * self.transit_nodes);
            let b = NodeId(d * self.transit_nodes);
            let lat = sample(&mut rng, self.transit_latency);
            topo.add_link(a, b, lat);
        }

        // Stub domains.
        let mut next = transit_total;
        for t in 0..transit_total {
            for _ in 0..self.stubs_per_transit {
                let first = next;
                for i in 0..self.stub_nodes {
                    let node = NodeId(next);
                    next += 1;
                    if i == 0 {
                        // Stub gateway uplinks to its transit node.
                        let lat = sample(&mut rng, self.stub_uplink_latency);
                        topo.add_link(node, NodeId(t), lat);
                    } else {
                        // Intra-stub: chain to the previous stub node, plus
                        // an occasional shortcut to the gateway.
                        let lat = sample(&mut rng, self.stub_latency);
                        topo.add_link(node, NodeId(next - 2), lat);
                        if i >= 2 && rng.gen_bool(0.4) {
                            let lat = sample(&mut rng, self.stub_latency);
                            topo.add_link(node, NodeId(first), lat);
                        }
                    }
                }
            }
        }
        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether every node can reach every other (the connectivity oracle).
    fn is_connected(t: &Topology) -> bool {
        t.node_count == 0 || t.latencies_from(NodeId(0)).iter().all(|&d| d != u64::MAX)
    }

    #[test]
    fn default_config_is_63_nodes_like_the_paper() {
        let cfg = TransitStubConfig::default();
        assert_eq!(cfg.total_nodes(), 63);
        let topo = cfg.generate(42);
        assert_eq!(topo.node_count(), 63);
        assert!(is_connected(&topo));
    }

    #[test]
    fn rtt_distribution_matches_paper_shape() {
        let topo = TransitStubConfig::default().generate(7);
        let rtts: Vec<f64> = topo
            .links
            .iter()
            .map(|l| 2.0 * l.latency_ms as f64)
            .collect();
        let min = rtts.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rtts.iter().cloned().fold(0.0, f64::max);
        let mean = rtts.iter().sum::<f64>() / rtts.len() as f64;
        let var = rtts.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / rtts.len() as f64;
        let sd = var.sqrt();
        // Paper: 24–184 ms RTT, mean 74 ms, sd 50 ms. Allow generous slack:
        // we need the same regime, not the same draw.
        assert!((15.0..=60.0).contains(&min), "min={min}");
        assert!((100.0..=200.0).contains(&max), "max={max}");
        assert!((50.0..=100.0).contains(&mean), "mean={mean}");
        assert!((10.0..=70.0).contains(&sd), "sd={sd}");
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TransitStubConfig::default();
        let a = cfg.generate(1);
        let b = cfg.generate(1);
        assert_eq!(a.links(), b.links());
        let c = cfg.generate(2);
        assert_ne!(a.links(), c.links());
    }

    #[test]
    fn dijkstra_simple_line() {
        let mut t = Topology::with_nodes(3);
        t.add_link(NodeId(0), NodeId(1), 10);
        t.add_link(NodeId(1), NodeId(2), 5);
        assert_eq!(t.latency_between(NodeId(0), NodeId(2)), Some(15));
        assert_eq!(t.latency_between(NodeId(2), NodeId(0)), Some(15));
        assert_eq!(t.latency_between(NodeId(0), NodeId(0)), Some(0));
    }

    #[test]
    fn dijkstra_prefers_shortcut() {
        let mut t = Topology::with_nodes(3);
        t.add_link(NodeId(0), NodeId(1), 10);
        t.add_link(NodeId(1), NodeId(2), 10);
        t.add_link(NodeId(0), NodeId(2), 5);
        assert_eq!(t.latency_between(NodeId(0), NodeId(2)), Some(5));
    }

    #[test]
    fn disconnected_detected() {
        let mut t = Topology::with_nodes(2);
        assert!(!is_connected(&t));
        t.add_link(NodeId(0), NodeId(1), 1);
        assert!(is_connected(&t));
        assert!(is_connected(&Topology::with_nodes(0)));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut t = Topology::with_nodes(2);
        t.add_link(NodeId(0), NodeId(0), 1);
    }

    #[test]
    fn larger_configs_scale() {
        let cfg = TransitStubConfig {
            transit_domains: 2,
            transit_nodes: 4,
            stubs_per_transit: 2,
            stub_nodes: 3,
            ..Default::default()
        };
        assert_eq!(cfg.total_nodes(), 8 + 8 * 2 * 3);
        assert!(is_connected(&cfg.generate(9)));
    }
}
