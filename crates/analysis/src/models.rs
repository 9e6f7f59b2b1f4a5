//! The closed-form cost models of §3.2.2 — the formulas behind Tables 1–6.
//!
//! All costs are in primitive operations (hash invocations, key messages);
//! the bench harness converts hashes to microseconds using the measured
//! per-hash cost on the host, mirroring how the paper reports µs on its
//! 550 MHz Xeons.

/// log₂ helper used throughout the models.
fn lg(x: f64) -> f64 {
    x.log2()
}

/// Per-subscription key counts and costs for the PSGuard key hierarchy
/// over a numeric attribute of effective range `r = |R|/lc`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NaktCosts {
    /// Number of authorization keys.
    pub keys: f64,
    /// KDC key-generation cost in hash operations.
    pub gen_hashes: f64,
    /// Subscriber key-derivation cost in hash operations.
    pub derive_hashes: f64,
}

/// Worst-case costs for any subscription over effective range `r`
/// (Table 1): `2·log₂r − 2` keys, `4·log₂r − 2` generation hashes,
/// `log₂r` derivation hashes.
pub fn nakt_max_costs(r: f64) -> NaktCosts {
    NaktCosts {
        keys: (2.0 * lg(r) - 2.0).max(1.0),
        gen_hashes: (4.0 * lg(r) - 2.0).max(1.0),
        derive_hashes: lg(r).max(1.0),
    }
}

/// Average costs for a uniformly random subscription of width `phi` over
/// effective range `r` (Table 2): `log₂φ` keys, `log₂r + log₂φ − 1`
/// generation hashes, `log₂φ` derivation hashes.
pub fn nakt_avg_costs(r: f64, phi: f64) -> NaktCosts {
    NaktCosts {
        keys: lg(phi).max(1.0),
        gen_hashes: (lg(r) + lg(phi) - 1.0).max(1.0),
        derive_hashes: lg(phi).max(1.0),
    }
}

/// One row of the KDC-cost comparison (Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct KdcCostRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// Key messages per join.
    pub join_messages: f64,
    /// Hash operations per join at the KDC.
    pub join_compute_hashes: f64,
    /// Keys stored at the KDC.
    pub storage_keys: f64,
    /// Whether the KDC is stateless.
    pub stateless: bool,
}

/// Table 3: KDC costs per join, for average subscription width `phi`,
/// range `r`, and `ns` active subscribers.
pub fn kdc_costs(ns: f64, r: f64, phi: f64) -> [KdcCostRow; 2] {
    [
        KdcCostRow {
            scheme: "PSGuard",
            join_messages: lg(phi),
            join_compute_hashes: 2.0 * lg(phi),
            storage_keys: 1.0,
            stateless: true,
        },
        KdcCostRow {
            scheme: "SubscriberGroup",
            join_messages: 6.0 * ns * phi / r,
            join_compute_hashes: 6.0 * ns * phi / r,
            storage_keys: 2.0 * ns,
            stateless: false,
        },
    ]
}

/// One row of the subscriber-cost comparison (Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriberCostRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// Keys delivered to a new subscriber at join.
    pub join_messages_new: f64,
    /// Key updates pushed to existing subscribers per join.
    pub join_messages_active: f64,
    /// Keys a subscriber stores.
    pub storage_keys: f64,
    /// Event-processing cost: decryptions.
    pub event_decrypts: f64,
    /// Event-processing cost: hash operations (key derivation).
    pub event_hashes: f64,
}

/// Table 4: per-subscriber costs.
pub fn subscriber_costs(ns: f64, r: f64, phi: f64) -> [SubscriberCostRow; 2] {
    [
        SubscriberCostRow {
            scheme: "PSGuard",
            join_messages_new: lg(phi),
            join_messages_active: 0.0,
            storage_keys: lg(phi),
            event_decrypts: 1.0,
            event_hashes: lg(phi),
        },
        SubscriberCostRow {
            scheme: "SubscriberGroup",
            join_messages_new: 2.0 * ns * phi / r,
            join_messages_active: 4.0 * ns * phi / r,
            storage_keys: 2.0 * ns * phi / r,
            event_decrypts: 1.0,
            event_hashes: 0.0,
        },
    ]
}

/// The theoretical lower bound on the messaging-cost ratio
/// `C_subscribergroup : C_psguard = 6·NS·φ / (R·log₂φ)` (Tables 5–6).
///
/// The bound assumes uniformly random subscription ranges — the *best*
/// case for the subscriber-group approach; real (heavy-tailed) interest
/// distributions only increase the ratio.
pub fn cost_ratio_lower_bound(ns: f64, r: f64, phi: f64) -> f64 {
    6.0 * ns * phi / (r * lg(phi))
}

/// Steady-state quantities of the M/M/N subscriber churn model used by
/// the quantitative analysis (arrival rate `lambda` per inactive
/// subscriber, departure rate `mu` per active subscriber, `n` total).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    /// Total subscribers (active + inactive).
    pub n: f64,
    /// Arrival rate per inactive subscriber.
    pub lambda: f64,
    /// Departure rate per active subscriber.
    pub mu: f64,
}

impl ChurnModel {
    /// Average number of active subscribers `NS = N·λ/(λ+µ)`.
    // DEAD-PUB-OK: closed-form NS the churn simulation test checks against
    pub fn active_subscribers(&self) -> f64 {
        self.n * self.lambda / (self.lambda + self.mu)
    }

    /// Steady-state join (= leave) rate `N·λµ/(λ+µ)`.
    pub fn join_rate(&self) -> f64 {
        self.n * self.lambda * self.mu / (self.lambda + self.mu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        // Paper Table 1 (lc = 1): R = 10² → 12 keys; R = 10⁴ → 26 keys.
        let c2 = nakt_max_costs(1e2);
        assert!((c2.keys - 11.29).abs() < 0.1);
        assert!((c2.gen_hashes - 24.58).abs() < 0.1);
        assert!((c2.derive_hashes - 6.64).abs() < 0.1);
        let c4 = nakt_max_costs(1e4);
        assert!((c4.keys - 24.6).abs() < 0.2);
        assert!(c4.keys.round() >= 24.0 && c4.keys.round() <= 26.0);
    }

    #[test]
    fn table2_values() {
        // R = 10³: φ = 10 → 3.32 keys and 3.32 derive hashes.
        let c = nakt_avg_costs(1e3, 10.0);
        assert!((c.keys - 3.32).abs() < 0.01);
        assert!((c.derive_hashes - 3.32).abs() < 0.01);
        assert!(c.gen_hashes > c.keys);
    }

    #[test]
    fn table5_ratio_row() {
        // NS = 10³, R = 10⁴: φ = 10 → 1.81; φ = 10³ → 60.18.
        assert!((cost_ratio_lower_bound(1e3, 1e4, 10.0) - 1.81).abs() < 0.01);
        assert!((cost_ratio_lower_bound(1e3, 1e4, 1e2) - 9.04).abs() < 0.01);
        assert!((cost_ratio_lower_bound(1e3, 1e4, 1e3) - 60.18).abs() < 0.05);
        assert!((cost_ratio_lower_bound(1e3, 1e4, 1e4) - 451.81).abs() < 0.5);
    }

    #[test]
    fn table6_ratio_column() {
        // φ = 100, R = 10⁴: NS = 10 → 0.09; NS = 10⁴ → 90.36.
        assert!((cost_ratio_lower_bound(10.0, 1e4, 100.0) - 0.09).abs() < 0.005);
        assert!((cost_ratio_lower_bound(1e2, 1e4, 100.0) - 0.90).abs() < 0.01);
        assert!((cost_ratio_lower_bound(1e3, 1e4, 100.0) - 9.04).abs() < 0.05);
        assert!((cost_ratio_lower_bound(1e4, 1e4, 100.0) - 90.36).abs() < 0.5);
    }

    #[test]
    fn kdc_costs_structure() {
        let [ps, group] = kdc_costs(1000.0, 1e4, 100.0);
        assert!(ps.stateless && !group.stateless);
        assert!(ps.storage_keys < group.storage_keys);
        assert!(ps.join_messages < group.join_messages);
    }

    #[test]
    fn subscriber_costs_structure() {
        let [ps, group] = subscriber_costs(1000.0, 1e4, 100.0);
        assert_eq!(ps.join_messages_active, 0.0);
        assert!(group.join_messages_active > 0.0);
        assert!(ps.event_hashes > 0.0);
        assert_eq!(group.event_hashes, 0.0);
    }

    #[test]
    fn churn_model_steady_state() {
        let m = ChurnModel {
            n: 1000.0,
            lambda: 1.0,
            mu: 3.0,
        };
        assert!((m.active_subscribers() - 250.0).abs() < 1e-9);
        assert!((m.join_rate() - 750.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_can_favor_groups_for_tiny_ns() {
        // Table 6's first row: NS = 10 gives ratio < 1 (groups win).
        assert!(cost_ratio_lower_bound(10.0, 1e4, 100.0) < 1.0);
        assert!(cost_ratio_lower_bound(1e4, 1e4, 100.0) > 1.0);
    }

    #[test]
    fn small_ranges_clamped() {
        let c = nakt_max_costs(2.0);
        assert!(c.keys >= 1.0 && c.gen_hashes >= 1.0 && c.derive_hashes >= 1.0);
    }
}
