//! The frequency-inference attack simulator behind Figures 6 and 7.
//!
//! Curious routing nodes know the a-priori frequency distribution of
//! tokens and watch the tokens of events routed through them. Under
//! probabilistic multi-path routing, an event with token `t` takes one of
//! `ind_t ∝ λ_t` vertex-disjoint paths chosen uniformly at random, so any
//! single node — necessarily sitting on exactly one of those paths — sees
//! token `t` at the *apparent* rate `λ_t / ind_t` (§4.2).
//!
//! ## Estimators
//!
//! * **Non-collusive** ([`Observations::non_collusive_s_app`]): no node
//!   shares information. The apparent frequency of token `t` is the
//!   largest event rate for `t` observed at any single routing node —
//!   exactly the paper's `λ'_t = λ_t / ind_t`. `S_app` is the entropy of
//!   that apparent distribution.
//! * **Collusive** ([`Observations::collusive_s_app`]): a random coalition
//!   holding a fraction of the routing nodes pools its views. Because the
//!   path systems are vertex-disjoint, the coalition reconstructs
//!   `λ̂_t = λ_t · c_t / ind_t` where `c_t` is the number of `t`'s path
//!   systems on which it has at least one member. With full collusion
//!   `c_t = ind_t` and the true distribution (entropy `S_act`) reappears.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::entropy::{entropy_bits, max_entropy_bits, EntropyReport};
use crate::multipath::{MultipathError, MultipathTree, TreeNode};

/// Configuration of one attack simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSimConfig {
    /// Tree arity (must be ≥ the largest `ind` simulated).
    pub arity: u8,
    /// Routing depth.
    pub depth: usize,
    /// True token frequencies `λ_t` (need not be normalized).
    pub token_freqs: Vec<f64>,
    /// Maximum independent paths `ind_max` the overlay provides.
    pub ind_max: u8,
    /// Number of events to publish.
    pub events: u64,
    /// RNG seed (subscriber placement, token draws, path choices).
    pub seed: u64,
}

/// The observations produced by one simulation run.
#[derive(Debug, Clone)]
pub struct Observations {
    node_count: u64,
    /// `events[t][k]`: events of token `t` routed on path system `k`.
    events_per_path: Vec<Vec<u64>>,
    /// `path_nodes[t][k]`: routing-node indices of that path system.
    path_nodes: Vec<Vec<Vec<u64>>>,
    /// Entropy of the true frequencies.
    s_act: f64,
    /// `log₂ |Γ|`.
    s_max: f64,
}

impl Observations {
    /// `S_act`: entropy of the true token frequencies.
    pub fn s_act(&self) -> f64 {
        self.s_act
    }

    /// `S_max = log₂|Γ|`.
    pub fn s_max(&self) -> f64 {
        self.s_max
    }

    /// Non-collusive apparent entropy (see module docs).
    pub fn non_collusive_s_app(&self) -> f64 {
        let apparent: Vec<f64> = self
            .events_per_path
            .iter()
            .map(|per_k| per_k.iter().copied().max().unwrap_or(0) as f64)
            .collect();
        entropy_bits(&apparent)
    }

    /// Collusive apparent entropy for a coalition holding `fraction` of
    /// the routing nodes (see module docs). The coalition always contains
    /// at least one node.
    pub fn collusive_s_app(&self, fraction: f64, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nodes: Vec<u64> = (0..self.node_count).collect();
        nodes.shuffle(&mut rng);
        let k = ((fraction.clamp(0.0, 1.0) * nodes.len() as f64).round() as usize)
            .clamp(1, nodes.len());
        let coalition: std::collections::HashSet<u64> = nodes.into_iter().take(k).collect();

        let apparent: Vec<f64> = self
            .events_per_path
            .iter()
            .zip(&self.path_nodes)
            .map(|(per_k, paths)| {
                // What the coalition reconstructs by pooling the disjoint
                // path systems it covers…
                let pooled: u64 = per_k
                    .iter()
                    .zip(paths)
                    .filter(|(_, path)| path.iter().any(|n| coalition.contains(n)))
                    .map(|(count, _)| *count)
                    .sum();
                // …but never less than what any single curious node
                // already sees (λ_t / ind_t): tokens outside the
                // coalition's coverage still leak their apparent rate to
                // their on-path routers.
                let single = per_k.iter().copied().max().unwrap_or(0);
                pooled.max(single) as f64
            })
            .collect();
        entropy_bits(&apparent)
    }

    /// Full report at the given collusion fraction (0 = non-collusive).
    pub fn report(&self, collusion_fraction: f64, seed: u64) -> EntropyReport {
        let s_app = if collusion_fraction <= 0.0 {
            self.non_collusive_s_app()
        } else {
            self.collusive_s_app(collusion_fraction, seed)
        };
        EntropyReport {
            s_max: self.s_max,
            s_act: self.s_act,
            s_app,
        }
    }
}

/// Runs the simulation: each token is subscribed at one leaf; events are
/// drawn by true frequency; each event takes a uniformly chosen variant
/// path among its token's `ind_t` vertex-disjoint paths.
///
/// # Errors
///
/// Propagates [`MultipathError`] for inconsistent parameters.
pub fn simulate(config: &AttackSimConfig) -> Result<Observations, MultipathError> {
    let tree = MultipathTree::new(config.arity, config.depth)?;
    if config.ind_max == 0 || config.ind_max > config.arity {
        return Err(MultipathError::TooManyPaths {
            requested: config.ind_max,
            arity: config.arity,
        });
    }
    let n_tokens = config.token_freqs.len();
    assert!(n_tokens > 0, "need at least one token");
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Subscriber placement: one leaf per token, spread over the leaves.
    let leaf_count = tree.leaf_count();
    let mut leaf_order: Vec<u64> = (0..leaf_count).collect();
    leaf_order.shuffle(&mut rng);
    let token_leaf: Vec<Vec<u8>> = (0..n_tokens)
        .map(|t| tree.leaf_digits(leaf_order[t % leaf_count as usize]))
        .collect();

    let ind = MultipathTree::paths_per_token(&config.token_freqs, config.ind_max);

    // Precompute variant paths (routing-node indices) per token.
    let arity = config.arity;
    let path_nodes: Vec<Vec<Vec<u64>>> = (0..n_tokens)
        .map(|t| {
            // `paths_per_token` caps ind[t] at the arity, so every variant
            // index is valid; a hypothetical out-of-range k is skipped
            // rather than aborting the whole experiment.
            (0..ind[t])
                .filter_map(|k| tree.variant_path(&token_leaf[t], k).ok())
                .map(|path| {
                    path.into_iter()
                        .skip(1) // the root is the publisher, not curious
                        .map(|n: TreeNode| n.index(arity))
                        .collect()
                })
                .collect()
        })
        .collect();

    // Cumulative distribution for token draws.
    let total: f64 = config.token_freqs.iter().sum();
    let mut cdf = Vec::with_capacity(n_tokens);
    let mut acc = 0.0;
    for &f in &config.token_freqs {
        acc += f / total;
        cdf.push(acc);
    }

    let mut events_per_path: Vec<Vec<u64>> =
        (0..n_tokens).map(|t| vec![0u64; ind[t] as usize]).collect();
    for _ in 0..config.events {
        let u: f64 = rng.gen();
        let token = cdf.partition_point(|&c| c < u).min(n_tokens - 1);
        let k = rng.gen_range(0..ind[token] as usize);
        events_per_path[token][k] += 1;
    }

    Ok(Observations {
        node_count: tree.routing_node_count(),
        events_per_path,
        path_nodes,
        s_act: entropy_bits(&config.token_freqs),
        s_max: max_entropy_bits(n_tokens),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::zipf_frequencies;

    fn base_config(ind_max: u8) -> AttackSimConfig {
        AttackSimConfig {
            arity: 8,
            depth: 3,
            token_freqs: zipf_frequencies(128, 0.9),
            ind_max,
            events: 40_000,
            seed: 7,
        }
    }

    #[test]
    fn more_paths_raise_apparent_entropy() {
        let mut last = 0.0;
        for ind in [1u8, 2, 3, 5] {
            let obs = simulate(&base_config(ind)).unwrap();
            let s_app = obs.non_collusive_s_app();
            assert!(
                s_app >= last - 0.05,
                "ind={ind}: s_app={s_app} dropped below {last}"
            );
            assert!(s_app <= obs.s_max() + 1e-9);
            last = s_app;
        }
    }

    #[test]
    fn ind5_is_near_max_entropy() {
        // Paper: with ind_max = 5 the apparent entropy is within ~10% of
        // S_max.
        let obs = simulate(&base_config(5)).unwrap();
        let s_app = obs.non_collusive_s_app();
        assert!(
            s_app >= 0.85 * obs.s_max(),
            "s_app={s_app} s_max={}",
            obs.s_max()
        );
    }

    #[test]
    fn ind1_matches_actual_entropy() {
        // With a single path the apparent distribution is the true one.
        let obs = simulate(&base_config(1)).unwrap();
        let s_app = obs.non_collusive_s_app();
        assert!(
            (s_app - obs.s_act()).abs() < 0.1,
            "s_app={s_app} s_act={}",
            obs.s_act()
        );
    }

    #[test]
    fn full_collusion_recovers_actual_entropy() {
        let obs = simulate(&base_config(5)).unwrap();
        let s_full = obs.collusive_s_app(1.0, 1);
        assert!(
            (s_full - obs.s_act()).abs() < 0.1,
            "s_full={s_full} s_act={}",
            obs.s_act()
        );
    }

    #[test]
    fn collusion_monotonically_erodes_entropy() {
        let obs = simulate(&base_config(5)).unwrap();
        let fractions = [0.05, 0.2, 0.5, 1.0];
        let entropies: Vec<f64> = fractions
            .iter()
            .map(|&f| {
                // Average a few coalition draws for stability.
                (0..8).map(|s| obs.collusive_s_app(f, s)).sum::<f64>() / 8.0
            })
            .collect();
        for w in entropies.windows(2) {
            assert!(
                w[1] <= w[0] + 0.05,
                "entropy should fall with collusion: {entropies:?}"
            );
        }
        // Small coalitions stay well above S_act…
        assert!(
            entropies[0] > obs.s_act() + 0.2,
            "{entropies:?} vs s_act={}",
            obs.s_act()
        );
        // …and full collusion lands on it.
        assert!((entropies[3] - obs.s_act()).abs() < 0.1);
    }

    #[test]
    fn paths_per_token_reflect_popularity() {
        let obs = simulate(&base_config(5)).unwrap();
        assert_eq!(obs.events_per_path[0].len(), 5); // the most popular token
        assert_eq!(obs.events_per_path[127].len(), 1); // the least popular token
    }

    #[test]
    fn report_selects_estimator() {
        let obs = simulate(&base_config(3)).unwrap();
        let non = obs.report(0.0, 1);
        assert_eq!(non.s_app, obs.non_collusive_s_app());
        let coll = obs.report(0.5, 1);
        assert_eq!(coll.s_app, obs.collusive_s_app(0.5, 1));
        assert_eq!(non.s_max, obs.s_max());
    }

    #[test]
    fn invalid_ind_rejected() {
        let mut cfg = base_config(9);
        cfg.arity = 4;
        assert!(matches!(
            simulate(&cfg),
            Err(MultipathError::TooManyPaths { .. })
        ));
    }

    #[test]
    fn determinism() {
        let a = simulate(&base_config(3)).unwrap();
        let b = simulate(&base_config(3)).unwrap();
        assert_eq!(a.non_collusive_s_app(), b.non_collusive_s_app());
        assert_eq!(a.collusive_s_app(0.4, 9), b.collusive_s_app(0.4, 9));
        let routed: u64 = a.events_per_path.iter().flatten().sum();
        assert_eq!(routed, 40_000);
    }
}
