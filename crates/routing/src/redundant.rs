//! Extensions of §4.2: path-assignment ablation and redundant
//! (parallel) multi-path dissemination.
//!
//! * **Assignment ablation** — the paper sets `ind_t ∝ λ_t`. The obvious
//!   alternative, giving *every* token `ind_max` paths, costs the same
//!   overlay but flattens nothing: each router then sees `λ_t/ind_max`,
//!   which is just the true distribution rescaled. [`apparent_entropy`]
//!   under each [`PathAssignment`] quantifies the difference.
//! * **Redundant routing** — the paper notes the scheme "could easily be
//!   extended to route an event on two or more independent paths (in
//!   parallel)", trading bandwidth for resilience against
//!   message-dropping routers. [`RedundantRouter`] implements that
//!   extension and computes delivery probability under adversarial
//!   dropping.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::entropy::entropy_bits;
use crate::multipath::{MultipathError, MultipathTree};

/// How per-token path counts are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathAssignment {
    /// The paper's rule: `ind_t = clamp(λ_t/λ_min, 1, ind_max)`.
    Proportional,
    /// Ablation: every token gets `ind_max` paths.
    Uniform,
}

impl PathAssignment {
    /// Paths per token under this policy.
    pub fn paths(&self, frequencies: &[f64], ind_max: u8) -> Vec<u8> {
        match self {
            PathAssignment::Proportional => MultipathTree::paths_per_token(frequencies, ind_max),
            PathAssignment::Uniform => vec![ind_max; frequencies.len()],
        }
    }
}

/// The apparent (single-router) entropy under an assignment policy:
/// `H(λ_t / ind_t)`. For [`PathAssignment::Uniform`] this equals the true
/// entropy — uniform replication hides nothing.
pub fn apparent_entropy(frequencies: &[f64], ind_max: u8, policy: PathAssignment) -> f64 {
    let ind = policy.paths(frequencies, ind_max);
    let apparent: Vec<f64> = frequencies
        .iter()
        .zip(&ind)
        .map(|(&f, &i)| f / i as f64)
        .collect();
    entropy_bits(&apparent)
}

/// Redundant dissemination: each event is sent on `replicas` of the
/// `ind` vertex-disjoint paths in parallel.
#[derive(Debug, Clone)]
pub struct RedundantRouter {
    tree: MultipathTree,
    ind: u8,
    replicas: u8,
}

/// Outcome of a redundant-delivery simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveryReport {
    /// Events sent.
    pub sent: u64,
    /// Events with at least one surviving copy.
    pub delivered: u64,
    /// Total path transmissions (bandwidth cost).
    pub transmissions: u64,
}

impl DeliveryReport {
    /// Fraction of events delivered.
    pub fn delivery_rate(&self) -> f64 {
        if self.sent == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.sent as f64
    }
}

impl RedundantRouter {
    /// Creates a router sending `replicas` parallel copies over an
    /// overlay with `ind` vertex-disjoint paths per subscriber.
    ///
    /// # Errors
    ///
    /// Returns [`MultipathError::TooManyPaths`] when
    /// `replicas > ind` or `ind` exceeds the tree arity.
    pub fn new(tree: MultipathTree, ind: u8, replicas: u8) -> Result<Self, MultipathError> {
        if ind == 0 || ind > tree.arity() || replicas == 0 || replicas > ind {
            return Err(MultipathError::TooManyPaths {
                requested: replicas.max(ind),
                arity: tree.arity(),
            });
        }
        Ok(RedundantRouter {
            tree,
            ind,
            replicas,
        })
    }

    /// Number of parallel copies per event.
    pub fn replicas(&self) -> u8 {
        self.replicas
    }

    /// Number of vertex-disjoint path systems provisioned per subscriber.
    pub fn ind(&self) -> u8 {
        self.ind
    }

    /// The underlying multipath tree.
    pub fn tree(&self) -> &MultipathTree {
        &self.tree
    }

    /// The distinct path variants chosen for one event (uniformly random
    /// without replacement among the `ind` systems).
    pub fn choose_paths(&self, rng: &mut StdRng) -> Vec<u8> {
        let mut candidates: Vec<u8> = (0..self.ind).collect();
        for i in (1..candidates.len()).rev() {
            let j = rng.gen_range(0..=i);
            candidates.swap(i, j);
        }
        candidates.truncate(self.replicas as usize);
        candidates
    }

    /// Simulates `events` deliveries to the subscriber at `leaf` while a
    /// random fraction `drop_fraction` of routing nodes silently drops
    /// everything (the malicious-router model the extension defends
    /// against). An event survives if at least one replica's path avoids
    /// all dropping nodes.
    ///
    /// # Errors
    ///
    /// Propagates path-construction errors for malformed leaves.
    pub fn simulate_drops(
        &self,
        leaf: &[u8],
        drop_fraction: f64,
        events: u64,
        seed: u64,
    ) -> Result<DeliveryReport, MultipathError> {
        let mut rng = StdRng::seed_from_u64(seed);
        // Mark dropping nodes once (persistent adversaries).
        let node_count = self.tree.routing_node_count();
        let dropping: std::collections::HashSet<u64> = (0..node_count)
            .filter(|_| rng.gen_bool(drop_fraction.clamp(0.0, 1.0)))
            .collect();

        // Precompute which variants survive.
        let arity = self.tree.arity();
        let surviving: Vec<bool> = (0..self.ind)
            .map(|k| {
                self.tree
                    .variant_path(leaf, k)
                    .map(|path| {
                        path.into_iter()
                            .skip(1)
                            .all(|n| !dropping.contains(&n.index(arity)))
                    })
                    .unwrap_or(false)
            })
            .collect::<Vec<bool>>();

        let mut delivered = 0u64;
        for _ in 0..events {
            let chosen = self.choose_paths(&mut rng);
            if chosen.iter().any(|&k| surviving[k as usize]) {
                delivered += 1;
            }
        }
        Ok(DeliveryReport {
            sent: events,
            delivered,
            transmissions: events * self.replicas as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::zipf_frequencies;

    #[test]
    fn uniform_assignment_hides_nothing() {
        let freqs = zipf_frequencies(64, 1.0);
        let uniform = apparent_entropy(&freqs, 5, PathAssignment::Uniform);
        let true_h = entropy_bits(&freqs);
        assert!((uniform - true_h).abs() < 1e-9, "uniform = rescaled truth");
    }

    /// Bits of apparent entropy proportional assignment gains over
    /// uniform assignment at equal `ind_max`.
    fn flattening_gain(frequencies: &[f64], ind_max: u8) -> f64 {
        apparent_entropy(frequencies, ind_max, PathAssignment::Proportional)
            - apparent_entropy(frequencies, ind_max, PathAssignment::Uniform)
    }

    #[test]
    fn proportional_assignment_flattens() {
        let freqs = zipf_frequencies(64, 1.0);
        let gain = flattening_gain(&freqs, 5);
        assert!(gain > 0.3, "proportional must beat uniform: gain={gain}");
        // And the gain grows with ind_max (until saturation).
        assert!(flattening_gain(&freqs, 8) >= gain);
    }

    #[test]
    fn uniform_frequencies_nothing_to_gain() {
        let freqs = vec![1.0 / 32.0; 32];
        assert!(flattening_gain(&freqs, 5).abs() < 1e-9);
    }

    #[test]
    fn replicas_improve_delivery_under_drops() {
        let tree = MultipathTree::new(5, 3).unwrap();
        let leaf = tree.leaf_digits(7);
        let one = RedundantRouter::new(tree.clone(), 5, 1).unwrap();
        let three = RedundantRouter::new(tree, 5, 3).unwrap();
        let r1 = one.simulate_drops(&leaf, 0.15, 4000, 9).unwrap();
        let r3 = three.simulate_drops(&leaf, 0.15, 4000, 9).unwrap();
        assert!(
            r3.delivery_rate() > r1.delivery_rate(),
            "3 replicas {:.3} must beat 1 replica {:.3}",
            r3.delivery_rate(),
            r1.delivery_rate()
        );
        assert_eq!(r3.transmissions, 3 * r1.transmissions);
    }

    #[test]
    fn no_drops_full_delivery() {
        let tree = MultipathTree::new(4, 2).unwrap();
        let leaf = tree.leaf_digits(3);
        let r = RedundantRouter::new(tree, 4, 2)
            .unwrap()
            .simulate_drops(&leaf, 0.0, 500, 1)
            .unwrap();
        assert_eq!(r.delivery_rate(), 1.0);
    }

    #[test]
    fn full_drops_no_delivery() {
        let tree = MultipathTree::new(4, 2).unwrap();
        let leaf = tree.leaf_digits(3);
        let r = RedundantRouter::new(tree, 4, 4)
            .unwrap()
            .simulate_drops(&leaf, 1.0, 100, 1)
            .unwrap();
        assert_eq!(r.delivered, 0);
    }

    #[test]
    fn invalid_configurations_rejected() {
        let tree = MultipathTree::new(3, 2).unwrap();
        assert!(RedundantRouter::new(tree.clone(), 4, 1).is_err()); // ind > arity
        assert!(RedundantRouter::new(tree.clone(), 3, 4).is_err()); // replicas > ind
        assert!(RedundantRouter::new(tree, 0, 0).is_err());
    }

    #[test]
    fn chosen_paths_are_distinct() {
        let tree = MultipathTree::new(8, 2).unwrap();
        let router = RedundantRouter::new(tree, 8, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let paths = router.choose_paths(&mut rng);
            let set: std::collections::HashSet<_> = paths.iter().collect();
            assert_eq!(set.len(), 4);
            assert!(paths.iter().all(|&k| k < 8));
        }
    }
}
