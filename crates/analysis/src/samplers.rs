//! Random samplers for the paper's synthetic workload (§5.2): Zipf-like
//! popularity, Gaussian subscription ranges, and uniform values.

use rand::Rng;

/// A Zipf(-like) sampler over ranks `0..n` with exponent `s`
/// (`P(rank r) ∝ (r+1)^−s`), as used for topic popularity \[16\].
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += (r as f64).powf(-s);
            cdf.push(acc);
        }
        // `n > 0` is asserted above, so the cdf has at least one entry.
        let total = cdf.last().copied().unwrap_or(1.0);
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The probability of rank `r`.
    // DEAD-PUB-OK: the Zipf reference the sampler and workload tests check against
    pub fn probability(&self, r: usize) -> f64 {
        let prev = if r == 0 { 0.0 } else { self.cdf[r - 1] };
        self.cdf[r] - prev
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Draws `k` distinct ranks (k ≤ n), by rejection.
    pub fn sample_distinct(&self, k: usize, rng: &mut impl Rng) -> Vec<usize> {
        assert!(
            k <= self.len(),
            "cannot draw {k} distinct of {}",
            self.len()
        );
        let mut out = Vec::with_capacity(k);
        let mut seen = vec![false; self.len()];
        while out.len() < k {
            let r = self.sample(rng);
            if !seen[r] {
                seen[r] = true;
                out.push(r);
            }
        }
        out
    }
}

/// Draws from a normal distribution via Box–Muller (no external dep).
pub fn gaussian(rng: &mut impl Rng, mean: f64, std_dev: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + std_dev * z
}

/// Draws a Gaussian value clamped into `[lo, hi]` and rounded to i64 —
/// how the workload draws subscription-range midpoints and widths.
pub fn gaussian_clamped(rng: &mut impl Rng, mean: f64, std_dev: f64, lo: i64, hi: i64) -> i64 {
    (gaussian(rng, mean, std_dev).round() as i64).clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_probabilities_sum_to_one_and_decrease() {
        let z = ZipfSampler::new(128, 0.9);
        let total: f64 = (0..128).map(|r| z.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for r in 1..128 {
            assert!(z.probability(r) <= z.probability(r - 1));
        }
    }

    #[test]
    fn zipf_empirical_matches_head() {
        let z = ZipfSampler::new(16, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 16];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        let p0 = counts[0] as f64 / n as f64;
        assert!((p0 - z.probability(0)).abs() < 0.01, "p0={p0}");
        assert!(counts[0] > counts[8]);
    }

    #[test]
    fn zipf_distinct_draws() {
        let z = ZipfSampler::new(128, 0.9);
        let mut rng = StdRng::seed_from_u64(6);
        let picks = z.sample_distinct(32, &mut rng);
        assert_eq!(picks.len(), 32);
        let set: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(set.len(), 32);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng, 128.0, 32.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 128.0).abs() < 0.5, "mean={mean}");
        assert!((var.sqrt() - 32.0).abs() < 0.5, "sd={}", var.sqrt());
    }

    #[test]
    fn gaussian_clamped_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..10_000 {
            let v = gaussian_clamped(&mut rng, 0.0, 100.0, -50, 50);
            assert!((-50..=50).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_zipf_rejected() {
        ZipfSampler::new(0, 1.0);
    }
}
