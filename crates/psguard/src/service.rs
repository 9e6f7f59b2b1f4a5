//! The PSGuard service: a thin deployment facade bundling the stateless
//! KDC, the topic schema, and the epoch schedule.

use psguard_crypto::Token;
use psguard_keys::{EpochId, EpochSchedule, Kdc, OpCounter, Schema, TopicScope};

use crate::publisher::{Publisher, PublisherCredential};
use crate::subscriber::Subscriber;

/// Deployment-wide configuration.
#[derive(Debug, Clone)]
pub struct PsGuardConfig {
    /// Epoch length in milliseconds (default: one hour).
    pub epoch_len_ms: u64,
    /// Whether topics use per-publisher keys (`K_P(w)`) instead of one
    /// shared key per topic.
    pub per_publisher_keys: bool,
    /// Subscriber key-cache capacity in bytes (0 disables caching).
    pub key_cache_bytes: usize,
}

impl Default for PsGuardConfig {
    fn default() -> Self {
        PsGuardConfig {
            epoch_len_ms: 3_600_000,
            per_publisher_keys: false,
            key_cache_bytes: 64 * 1024,
        }
    }
}

/// The deployment facade.
///
/// # Example
///
/// ```
/// use psguard::{PsGuard, PsGuardConfig};
/// use psguard_keys::Schema;
/// use psguard_model::{Constraint, Event, Filter, IntRange, Op};
///
/// let schema = Schema::builder()
///     .numeric("age", IntRange::new(0, 255).unwrap(), 1)?
///     .build();
/// let ps = PsGuard::new(b"master seed", schema, PsGuardConfig::default());
///
/// let mut publisher = ps.publisher("hospital");
/// ps.authorize_publisher(&mut publisher, "cancerTrail", 0);
///
/// let mut subscriber = ps.subscriber("alice");
/// let filter = Filter::for_topic("cancerTrail")
///     .with(Constraint::new("age", Op::Ge(16)))
///     .with(Constraint::new("age", Op::Le(31)));
/// ps.authorize_subscriber(&mut subscriber, &filter, 0)?;
///
/// let event = Event::builder("cancerTrail")
///     .attr("age", 22i64)
///     .payload(b"record".to_vec())
///     .build();
/// let secure = publisher.publish(&event, 0)?;
/// let plain = subscriber.decrypt(&secure)?;
/// assert_eq!(plain.payload(), b"record");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PsGuard {
    kdc: Kdc,
    schema: Schema,
    schedule: EpochSchedule,
    config: PsGuardConfig,
}

impl PsGuard {
    /// Creates a deployment from a master seed, a topic schema, and
    /// configuration.
    pub fn new(master_seed: &[u8], schema: Schema, config: PsGuardConfig) -> Self {
        PsGuard {
            kdc: Kdc::from_seed(master_seed),
            schema,
            schedule: EpochSchedule::new(config.epoch_len_ms),
            config,
        }
    }

    /// The attribute schema shared by all parties.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The epoch schedule.
    pub fn schedule(&self) -> &EpochSchedule {
        &self.schedule
    }

    /// Direct KDC access (KDC-side tooling; not part of the client API).
    pub fn kdc(&self) -> &Kdc {
        &self.kdc
    }

    /// The epoch holding wall-clock instant `now_ms` for a topic.
    pub fn epoch_at(&self, topic: &str, now_ms: u64) -> EpochId {
        self.schedule.epoch_at(topic, now_ms)
    }

    /// The routing token `T(w)` for a topic (handed to subscribers along
    /// with their grants; publishers receive it inside their credential).
    pub fn routing_token(&self, topic: &str) -> Token {
        self.kdc.routing_token(topic)
    }

    fn scope_for(&self, publisher: &str) -> TopicScope {
        if self.config.per_publisher_keys {
            TopicScope::Publisher(publisher.to_owned())
        } else {
            TopicScope::Shared
        }
    }

    /// Creates an (unauthorized) publisher handle.
    pub fn publisher(&self, name: impl Into<String>) -> Publisher {
        Publisher::new(name, self.schema.clone())
    }

    /// Issues `publisher` the credential (topic key + routing token) to
    /// publish on `topic` during `epoch`.
    pub fn authorize_publisher(&self, publisher: &mut Publisher, topic: &str, epoch: u64) {
        let mut ops = OpCounter::new();
        let scope = self.scope_for(publisher.name());
        let key = self.kdc.topic_key(topic, EpochId(epoch), &scope, &mut ops);
        publisher.install_credential(PublisherCredential {
            topic: topic.to_owned(),
            epoch,
            topic_key: key,
            token: self.kdc.routing_token(topic),
        });
    }

    /// Creates an (unsubscribed) subscriber handle.
    pub fn subscriber(&self, name: impl Into<String>) -> Subscriber {
        Subscriber::new(name, self.schema.clone(), self.config.key_cache_bytes)
    }

    /// Processes a subscription: obtains a grant from the KDC and installs
    /// it (plus the routing token) into the subscriber.
    ///
    /// When per-publisher keys are active the grant must name the
    /// publisher via [`PsGuard::authorize_subscriber_for_publisher`].
    ///
    /// # Errors
    ///
    /// Propagates KDC grant errors.
    pub fn authorize_subscriber(
        &self,
        subscriber: &mut Subscriber,
        filter: &psguard_model::Filter,
        epoch: u64,
    ) -> Result<OpCounter, crate::error::SubscribeError> {
        self.authorize_with_scope(subscriber, filter, epoch, TopicScope::Shared)
    }

    /// Processes a disjunctive subscription (the ∨ of the paper's ∧/∨
    /// filter algebra): one grant per disjunct. An event decrypts when
    /// *any* granted disjunct covers it.
    ///
    /// # Errors
    ///
    /// Fails atomically on the first ungrantable disjunct (no grants are
    /// installed in that case).
    // DEAD-PUB-OK: the paper's disjunctive (∨) subscription, DESIGN.md §7
    pub fn authorize_subscription(
        &self,
        subscriber: &mut Subscriber,
        subscription: &psguard_model::Subscription,
        epoch: u64,
    ) -> Result<OpCounter, crate::error::SubscribeError> {
        // Validate every disjunct first so failure leaves no partial state.
        let mut ops = OpCounter::new();
        let mut staged = Vec::with_capacity(subscription.filters().len());
        for filter in subscription.filters() {
            let grant = self.kdc.grant(
                &self.schema,
                filter,
                EpochId(epoch),
                &TopicScope::Shared,
                &mut ops,
            )?;
            // A successful grant implies the filter names a topic; surface
            // the same error the KDC would if that ever stops holding.
            let topic = filter.topic().ok_or(psguard_keys::KdcError::MissingTopic)?;
            staged.push((self.kdc.routing_token(topic), filter.clone(), grant));
        }
        for (token, filter, grant) in staged {
            subscriber.install_grant(token, filter, grant);
        }
        Ok(ops)
    }

    /// Like [`PsGuard::authorize_subscriber`], but against one publisher's
    /// key lineage (`K_P(w)`).
    ///
    /// # Errors
    ///
    /// Propagates KDC grant errors.
    pub fn authorize_subscriber_for_publisher(
        &self,
        subscriber: &mut Subscriber,
        filter: &psguard_model::Filter,
        epoch: u64,
        publisher: &str,
    ) -> Result<OpCounter, crate::error::SubscribeError> {
        self.authorize_with_scope(
            subscriber,
            filter,
            epoch,
            TopicScope::Publisher(publisher.to_owned()),
        )
    }

    fn authorize_with_scope(
        &self,
        subscriber: &mut Subscriber,
        filter: &psguard_model::Filter,
        epoch: u64,
        scope: TopicScope,
    ) -> Result<OpCounter, crate::error::SubscribeError> {
        let mut ops = OpCounter::new();
        let grant = self
            .kdc
            .grant(&self.schema, filter, EpochId(epoch), &scope, &mut ops)?;
        let topic = filter.topic().ok_or(psguard_keys::KdcError::MissingTopic)?;
        let token = self.kdc.routing_token(topic);
        subscriber.install_grant(token, filter.clone(), grant);
        Ok(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psguard_model::{Constraint, Event, Filter, IntRange, Op};

    fn deployment() -> PsGuard {
        let schema = Schema::builder()
            .numeric("age", IntRange::new(0, 255).unwrap(), 1)
            .unwrap()
            .build();
        PsGuard::new(b"seed", schema, PsGuardConfig::default())
    }

    #[test]
    fn end_to_end_roundtrip() {
        let ps = deployment();
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "w", 0);
        let mut sub = ps.subscriber("S");
        let f = Filter::for_topic("w").with(Constraint::new("age", Op::Ge(16)));
        ps.authorize_subscriber(&mut sub, &f, 0).unwrap();

        let e = Event::builder("w")
            .attr("age", 40i64)
            .payload(b"secret".to_vec())
            .build();
        let secure = publisher.publish(&e, 0).unwrap();
        assert_ne!(secure.event.payload(), b"secret");
        let plain = sub.decrypt(&secure).unwrap();
        assert_eq!(plain.payload(), b"secret");
    }

    #[test]
    fn unauthorized_range_rejected() {
        let ps = deployment();
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "w", 0);
        let mut sub = ps.subscriber("S");
        let f = Filter::for_topic("w").with(Constraint::new("age", Op::Ge(100)));
        ps.authorize_subscriber(&mut sub, &f, 0).unwrap();

        let e = Event::builder("w")
            .attr("age", 40i64)
            .payload(b"secret".to_vec())
            .build();
        let secure = publisher.publish(&e, 0).unwrap();
        assert_eq!(
            sub.decrypt(&secure).unwrap_err(),
            crate::error::DecryptError::NotAuthorized
        );
    }

    #[test]
    fn stale_epoch_rejected() {
        let ps = deployment();
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "w", 1);
        let mut sub = ps.subscriber("S");
        ps.authorize_subscriber(&mut sub, &Filter::for_topic("w"), 0)
            .unwrap();
        let e = Event::builder("w").payload(b"x".to_vec()).build();
        let secure = publisher.publish(&e, 1).unwrap();
        assert!(matches!(
            sub.decrypt(&secure).unwrap_err(),
            crate::error::DecryptError::EpochMismatch { .. }
        ));
    }

    #[test]
    fn per_publisher_isolation() {
        let schema = Schema::new();
        let ps = PsGuard::new(
            b"seed",
            schema,
            PsGuardConfig {
                per_publisher_keys: true,
                ..Default::default()
            },
        );
        let mut pa = ps.publisher("A");
        let mut pb = ps.publisher("B");
        ps.authorize_publisher(&mut pa, "w", 0);
        ps.authorize_publisher(&mut pb, "w", 0);

        let mut sub = ps.subscriber("S");
        ps.authorize_subscriber_for_publisher(&mut sub, &Filter::for_topic("w"), 0, "A")
            .unwrap();

        let e = Event::builder("w").payload(b"x".to_vec()).build();
        let from_a = pa.publish(&e, 0).unwrap();
        let from_b = pb.publish(&e, 0).unwrap();
        assert!(sub.decrypt(&from_a).is_ok());
        // Subscriber of A cannot read B's events even on the same topic.
        assert!(sub.decrypt(&from_b).is_err());
    }

    #[test]
    fn disjunctive_subscription_grants_each_branch() {
        use psguard_model::Subscription;
        let ps = deployment();
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "stocks", 0);
        ps.authorize_publisher(&mut publisher, "weather", 0);

        let mut sub = ps.subscriber("S");
        let subscription = Subscription::new("S")
            .or(Filter::for_topic("stocks").with(Constraint::new("age", Op::Ge(100))))
            .or(Filter::for_topic("weather"));
        ps.authorize_subscription(&mut sub, &subscription, 0)
            .unwrap();
        assert_eq!(sub.subscription_count(), 2);

        // A weather event decrypts via the second branch.
        let w = Event::builder("weather").payload(b"sunny".to_vec()).build();
        let secure = publisher.publish(&w, 0).unwrap();
        assert_eq!(sub.decrypt(&secure).unwrap().payload(), b"sunny");

        // A low stock value matches neither branch.
        let s = Event::builder("stocks")
            .attr("age", 5i64)
            .payload(b"x".to_vec())
            .build();
        let secure = publisher.publish(&s, 0).unwrap();
        assert!(sub.decrypt(&secure).is_err());

        // A high stock value decrypts via the first branch.
        let s = Event::builder("stocks")
            .attr("age", 200i64)
            .payload(b"y".to_vec())
            .build();
        let secure = publisher.publish(&s, 0).unwrap();
        assert_eq!(sub.decrypt(&secure).unwrap().payload(), b"y");
    }

    #[test]
    fn disjunctive_subscription_fails_atomically() {
        use psguard_model::Subscription;
        let ps = deployment();
        let mut sub = ps.subscriber("S");
        let subscription = Subscription::new("S")
            .or(Filter::for_topic("ok"))
            .or(Filter::any()); // wildcard: ungrantable
        assert!(ps
            .authorize_subscription(&mut sub, &subscription, 0)
            .is_err());
        assert_eq!(sub.subscription_count(), 0, "no partial grants");
    }

    #[test]
    fn epoch_at_delegates_to_schedule() {
        let ps = deployment();
        let e0 = ps.epoch_at("w", 0);
        let later = ps.epoch_at("w", 100 * 3_600_000);
        assert!(later > e0);
    }
}
