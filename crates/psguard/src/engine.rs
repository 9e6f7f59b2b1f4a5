//! Crypto costs for the secure overlay engine: the Siena performance
//! engine instantiated with PSGuard's tokenized filters
//! (`psguard_siena::Engine<SecureFilter>`).
//!
//! Figures 9–11 compare baseline Siena against PSGuard under identical
//! overlay conditions; the only difference is the per-message service
//! time. The caller fills [`CryptoCosts`], and [`secure_cost_model`]
//! folds its microseconds into the engine's [`CostModel`]. No host
//! timing enters a figure: `repro` counts the key derivations a real
//! publish and decrypt perform and prices them at the paper's per-hash
//! and per-AES microseconds (`psguard-bench`'s `perf` module), so the
//! figures are deterministic on any host.

use psguard_siena::CostModel;

/// Per-message cryptographic costs in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CryptoCosts {
    /// Publisher-side: key derivation + payload encryption + tagging.
    pub publish_us: u64,
    /// Subscriber-side: key derivation + payload decryption.
    pub decrypt_us: u64,
    /// Broker-side: one PRF evaluation per token match test.
    pub token_match_us: u64,
}

/// Builds the secure cost model: the plain Siena baseline costs plus the
/// crypto overheads.
pub fn secure_cost_model(costs: &CryptoCosts) -> CostModel {
    let plain = CostModel::plain();
    CostModel {
        publisher_us: plain.publisher_us + costs.publish_us,
        broker_match_us: plain.broker_match_us + costs.token_match_us,
        broker_forward_us: plain.broker_forward_us,
        subscriber_us: plain.subscriber_us + costs.decrypt_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PsGuard, PsGuardConfig};
    use psguard_keys::Schema;
    use psguard_model::{Constraint, Event, Filter, IntRange, Op};
    use psguard_routing::{SecureEvent, SecureFilter};
    use psguard_siena::{Engine, EngineConfig};

    fn deployment() -> PsGuard {
        let schema = Schema::builder()
            .numeric("value", IntRange::new(0, 255).unwrap(), 4)
            .unwrap()
            .build();
        PsGuard::new(b"seed", schema, PsGuardConfig::default())
    }

    #[test]
    fn secure_overlay_delivers_encrypted_events() {
        let ps = deployment();
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "w", 0);

        let mut engine = Engine::<SecureFilter>::new(EngineConfig {
            broker_nodes: 6,
            subscribers: 4,
            seed: 3,
        });
        // All four subscribers want values ≥ 0 (everything).
        let mut subs = Vec::new();
        for c in 0..4u32 {
            let mut s = ps.subscriber(format!("s{c}"));
            let f = Filter::for_topic("w").with(Constraint::new("value", Op::Ge(0)));
            ps.authorize_subscriber(&mut s, &f, 0).unwrap();
            engine.subscribe(c, s.secure_filters().remove(0));
            subs.push(s);
        }

        let events: Vec<SecureEvent> = (0..16)
            .map(|i| {
                let e = Event::builder("w")
                    .attr("value", (i % 256) as i64)
                    .payload(vec![9u8; 64])
                    .build();
                publisher.publish(&e, 0).unwrap()
            })
            .collect();

        let report = engine.run(&events, 20.0, 1.0, &CostModel::plain());
        assert!(report.published > 5);
        assert_eq!(report.delivered, report.published * 4);
        // And subscribers can decrypt what the overlay delivered.
        assert!(subs[0].decrypt(&events[0]).is_ok());
    }

    #[test]
    fn selective_secure_filters_respected_in_network() {
        let ps = deployment();
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "w", 0);
        let mut engine = Engine::<SecureFilter>::new(EngineConfig {
            broker_nodes: 2,
            subscribers: 2,
            seed: 5,
        });
        // Subscriber 0 wants value ≥ 200; subscriber 1 wants everything.
        let mut s0 = ps.subscriber("s0");
        ps.authorize_subscriber(
            &mut s0,
            &Filter::for_topic("w").with(Constraint::new("value", Op::Ge(200))),
            0,
        )
        .unwrap();
        engine.subscribe(0, s0.secure_filters().remove(0));
        let mut s1 = ps.subscriber("s1");
        ps.authorize_subscriber(&mut s1, &Filter::for_topic("w"), 0)
            .unwrap();
        engine.subscribe(1, s1.secure_filters().remove(0));

        let events: Vec<SecureEvent> = [10i64, 250]
            .iter()
            .map(|&v| {
                let e = Event::builder("w")
                    .attr("value", v)
                    .payload(vec![1])
                    .build();
                publisher.publish(&e, 0).unwrap()
            })
            .collect();
        let report = engine.run(&events, 2.0, 1.0, &CostModel::plain());
        // s1 gets every event; s0 only the value-250 events (odd cycle
        // positions).
        let n = report.published;
        assert_eq!(report.delivered, n + n / 2);
    }
}
