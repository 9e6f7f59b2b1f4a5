//! Measured crypto costs for the secure overlay engine: the Siena
//! performance engine instantiated with PSGuard's tokenized filters
//! (`psguard_siena::Engine<SecureFilter>`).
//!
//! Figures 9–11 compare baseline Siena against PSGuard under identical
//! overlay conditions; the only difference is the per-message service
//! time. [`CryptoCosts::measure`] times the real encrypt / token-match /
//! derive+decrypt code on the host, and [`secure_cost_model`] folds those
//! microseconds into the engine's [`CostModel`].

use std::time::Instant;

use psguard_model::Event;
use psguard_siena::CostModel;

use crate::error::MeasureError;
use crate::publisher::Publisher;
use crate::service::PsGuard;
use crate::subscriber::Subscriber;

/// Measured cryptographic costs in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CryptoCosts {
    /// Publisher-side: key derivation + payload encryption + tagging.
    pub publish_us: u64,
    /// Subscriber-side: key derivation + payload decryption.
    pub decrypt_us: u64,
    /// Broker-side: one PRF evaluation per token match test.
    pub token_match_us: u64,
}

impl CryptoCosts {
    /// Times the real code paths over `sample_events` (which must be
    /// publishable and decryptable in the given deployment at epoch 0).
    ///
    /// # Errors
    ///
    /// Returns [`MeasureError`] when the samples are empty, fail to
    /// publish or decrypt, or do not all match their own topic token —
    /// measurement requires a working pipeline.
    pub fn measure(
        ps: &PsGuard,
        publisher: &mut Publisher,
        subscriber: &mut Subscriber,
        sample_events: &[Event],
    ) -> Result<Self, MeasureError> {
        if sample_events.is_empty() {
            return Err(MeasureError::NoSamples);
        }
        let reps = (200 / sample_events.len()).max(1);

        let start = Instant::now();
        let mut secures = Vec::new();
        for _ in 0..reps {
            for e in sample_events {
                secures.push(publisher.publish(e, 0)?);
            }
        }
        let publish_us = (start.elapsed().as_micros() as u64 / secures.len() as u64).max(1);

        let token = ps.routing_token(sample_events[0].topic());
        let start = Instant::now();
        let mut matched = 0u64;
        for s in &secures {
            if s.tag.matches(&token) {
                matched += 1;
            }
        }
        let token_match_us = (start.elapsed().as_micros() as u64 / secures.len() as u64).max(1);
        if matched != secures.len() as u64 {
            return Err(MeasureError::SampleTopicMismatch {
                matched,
                total: secures.len() as u64,
            });
        }

        let start = Instant::now();
        for s in &secures {
            subscriber.decrypt(s)?;
        }
        let decrypt_us = (start.elapsed().as_micros() as u64 / secures.len() as u64).max(1);

        Ok(CryptoCosts {
            publish_us,
            decrypt_us,
            token_match_us,
        })
    }
}

/// Builds the secure cost model: the plain Siena baseline costs plus the
/// measured crypto overheads.
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
    use crate::PsGuardConfig;
    use psguard_keys::Schema;
    use psguard_model::{Constraint, Filter, IntRange, Op};
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
    fn measured_costs_are_positive() {
        let ps = deployment();
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "w", 0);
        let mut sub = ps.subscriber("S");
        ps.authorize_subscriber(&mut sub, &Filter::for_topic("w"), 0)
            .unwrap();
        let events: Vec<Event> = (0..8)
            .map(|i| {
                Event::builder("w")
                    .attr("value", (i * 16) as i64)
                    .payload(vec![0u8; 256])
                    .build()
            })
            .collect();
        let costs =
            CryptoCosts::measure(&ps, &mut publisher, &mut sub, &events).expect("working pipeline");
        assert!(costs.publish_us >= 1);
        assert!(costs.decrypt_us >= 1);
        assert!(costs.token_match_us >= 1);
        let model = secure_cost_model(&costs);
        assert!(model.publisher_us > CostModel::plain().publisher_us);
    }

    #[test]
    fn measurement_failures_are_typed() {
        let ps = deployment();
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "w", 0);
        let mut sub = ps.subscriber("S");
        ps.authorize_subscriber(&mut sub, &Filter::for_topic("w"), 0)
            .unwrap();
        assert_eq!(
            CryptoCosts::measure(&ps, &mut publisher, &mut sub, &[]),
            Err(crate::MeasureError::NoSamples)
        );
        // A sample on an unauthorized topic cannot be published.
        let stray = vec![Event::builder("other").payload(vec![1]).build()];
        assert!(matches!(
            CryptoCosts::measure(&ps, &mut publisher, &mut sub, &stray),
            Err(crate::MeasureError::Publish(_))
        ));
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
