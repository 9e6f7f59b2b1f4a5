//! The subscriber: holds grants (authorization keys), derives event keys
//! and decrypts matching events — with the §3.2.3 key cache.

use psguard_crypto::{cbc_decrypt, ct_eq, Aes128, DeriveKey, Token};
use psguard_keys::{
    combine_master, event_key_addresses, mac_key, EventKeyAddress, Grant, KeyCache, KeyScope,
    OpCounter, Schema,
};
use psguard_model::{Event, Filter};
use psguard_routing::{SecureEvent, SecureFilter};

use crate::error::DecryptError;
use crate::publisher::mac_iv_ciphertext;

/// One installed subscription: routing token, original filter, grant.
#[derive(Debug, Clone)]
struct Installed {
    token: Token,
    filter: Filter,
    grant: Grant,
}

/// A subscribing principal.
///
/// Obtain via [`crate::PsGuard::subscriber`]; install subscriptions with
/// [`crate::PsGuard::authorize_subscriber`].
#[derive(Debug)]
pub struct Subscriber {
    name: String,
    schema: Schema,
    subscriptions: Vec<Installed>,
    cache: KeyCache,
    ops: OpCounter,
}

impl Subscriber {
    pub(crate) fn new(name: impl Into<String>, schema: Schema, cache_bytes: usize) -> Self {
        Subscriber {
            name: name.into(),
            schema,
            subscriptions: Vec::new(),
            cache: KeyCache::new(cache_bytes),
            ops: OpCounter::new(),
        }
    }

    /// The subscriber's principal name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Installs a grant (called by the service facade).
    pub fn install_grant(&mut self, token: Token, filter: Filter, grant: Grant) {
        self.subscriptions.push(Installed {
            token,
            filter,
            grant,
        });
    }

    /// Number of installed subscriptions.
    // DEAD-PUB-OK: observer of all-or-nothing grants (service.rs tests)
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.len()
    }

    /// Total authorization keys held — the Figure 3 quantity.
    pub fn key_count(&self) -> usize {
        self.subscriptions.iter().map(|s| s.grant.key_count()).sum()
    }

    /// Cumulative key-derivation cost since creation.
    pub fn ops(&self) -> OpCounter {
        self.ops
    }

    /// Key-cache statistics (hits, partial hits, saved hash ops).
    pub fn cache_stats(&self) -> psguard_keys::CacheStats {
        self.cache.stats()
    }

    /// The secure filters this subscriber registers with its broker:
    /// token plus in-network constraints.
    pub fn secure_filters(&self) -> Vec<SecureFilter> {
        self.subscriptions
            .iter()
            .map(|s| SecureFilter::from_filter(s.token, &s.filter))
            .collect()
    }

    /// Derives one address' key part from a grant, preferring the key
    /// cache for numeric parts.
    fn derive_part(
        cache: &mut KeyCache,
        schema: &Schema,
        grant: &Grant,
        addr: &EventKeyAddress,
        ops: &mut OpCounter,
    ) -> Option<DeriveKey> {
        // Numeric parts go through the cache when possible.
        if let EventKeyAddress::Numeric { attr, ktid } = addr {
            if let Some(cg) = grant.constraints.iter().find(|c| &c.attr == attr) {
                for auth in &cg.alternatives {
                    if let KeyScope::Numeric { .. } = auth.scope {
                        if let Some(k) = cache.derive_numeric_cached(auth, ktid, ops) {
                            return Some(k);
                        }
                    }
                }
            }
        }
        // Everything else (and numeric misses like topic-wide grants) goes
        // through the grant directly.
        grant.event_key_part(schema, addr, ops)
    }

    /// Attempts to decrypt a received secure event.
    ///
    /// Returns the event with its plaintext payload restored.
    ///
    /// # Errors
    ///
    /// See [`DecryptError`] — notably [`DecryptError::NotAuthorized`] when
    /// the event does not match any granted filter, and
    /// [`DecryptError::EpochMismatch`] for stale grants (lazy revocation).
    pub fn decrypt(&mut self, secure: &SecureEvent) -> Result<Event, DecryptError> {
        // Disjoint borrows: the grants are read while the cache and the
        // op counter are written.
        let Subscriber {
            schema,
            subscriptions,
            cache,
            ops,
            ..
        } = self;
        // Which subscriptions does this event belong to?
        let mut matching = subscriptions
            .iter()
            .filter(|s| secure.tag.matches(&s.token))
            .peekable();
        if matching.peek().is_none() {
            return Err(DecryptError::NoMatchingSubscription);
        }

        let addrs = event_key_addresses(schema, &secure.event)?;

        let mut saw_epoch_mismatch = None;
        let mut saw_mac_failure = false;
        for sub in matching {
            let grant = &sub.grant;
            if grant.epoch.0 != secure.epoch {
                saw_epoch_mismatch = Some(grant.epoch.0);
                continue;
            }
            let parts: Option<Vec<DeriveKey>> = addrs
                .iter()
                .map(|addr| Self::derive_part(cache, schema, grant, addr, ops))
                .collect();
            let Some(parts) = parts else {
                continue;
            };
            let master = combine_master(&parts, ops);
            // Verify the encrypt-then-MAC tag over ⟨iv ‖ ciphertext⟩
            // before decrypting: a wrong derivation (or tampering) is
            // rejected here rather than risking a CBC padding
            // false-positive.
            let mk = mac_key(&master, ops);
            ops.add_kh(1);
            let expect = mac_iv_ciphertext(&mk, &secure.iv, secure.event.payload());
            if !ct_eq(&expect, &secure.mac) {
                saw_mac_failure = true;
                continue; // try other matching subscriptions, if any
            }
            let key = master.content_key();
            let plaintext = cbc_decrypt(
                &Aes128::new(key.as_bytes()),
                &secure.iv,
                secure.event.payload(),
            )?;
            // The routed event with its plaintext back, built field by
            // field so the ciphertext is never copied.
            let routed = &secure.event;
            let mut restored = Event::builder(routed.topic())
                .id(routed.id())
                .publisher(routed.publisher());
            for (name, value) in routed.attrs() {
                restored = restored.attr(name.clone(), value.clone());
            }
            return Ok(restored.payload(plaintext).build());
        }

        if saw_mac_failure {
            return Err(DecryptError::BadMac);
        }
        match saw_epoch_mismatch {
            Some(grant_epoch) => Err(DecryptError::EpochMismatch {
                event_epoch: secure.epoch,
                grant_epoch,
            }),
            None => Err(DecryptError::NotAuthorized),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PsGuard, PsGuardConfig};
    use psguard_model::{Constraint, IntRange, Op};

    fn deployment(cache_bytes: usize) -> PsGuard {
        let schema = psguard_keys::Schema::builder()
            .numeric("age", IntRange::new(0, 255).unwrap(), 1)
            .unwrap()
            .build();
        PsGuard::new(
            b"seed",
            schema,
            PsGuardConfig {
                key_cache_bytes: cache_bytes,
                ..Default::default()
            },
        )
    }

    #[test]
    fn no_matching_token_detected() {
        let ps = deployment(0);
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "w", 0);
        let mut sub = ps.subscriber("S");
        ps.authorize_subscriber(&mut sub, &Filter::for_topic("other"), 0)
            .unwrap();
        let e = Event::builder("w").payload(vec![1]).build();
        let secure = publisher.publish(&e, 0).unwrap();
        assert_eq!(
            sub.decrypt(&secure).unwrap_err(),
            DecryptError::NoMatchingSubscription
        );
    }

    #[test]
    fn key_cache_reduces_cost_on_temporal_locality() {
        let ps = deployment(64 * 1024);
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "w", 0);
        let mut sub = ps.subscriber("S");
        let f = Filter::for_topic("w").with(Constraint::new(
            "age",
            Op::InRange(IntRange::new(0, 255).unwrap()),
        ));
        ps.authorize_subscriber(&mut sub, &f, 0).unwrap();

        // Stock-quote-like stream: consecutive values nearby.
        for v in [100i64, 101, 100, 102, 101, 100] {
            let e = Event::builder("w")
                .attr("age", v)
                .payload(b"q".to_vec())
                .build();
            let secure = publisher.publish(&e, 0).unwrap();
            sub.decrypt(&secure).unwrap();
        }
        let stats = sub.cache_stats();
        assert!(stats.hits + stats.partial_hits > 0, "{stats:?}");
        assert!(stats.hash_ops_saved > 0);
    }

    #[test]
    fn decrypt_restores_the_routed_event_with_its_plaintext() {
        let ps = deployment(0);
        let mut publisher = ps.publisher("P");
        ps.authorize_publisher(&mut publisher, "w", 0);
        let mut sub = ps.subscriber("S");
        ps.authorize_subscriber(&mut sub, &Filter::for_topic("w"), 0)
            .unwrap();
        let e = Event::builder("w")
            .id(psguard_model::EventId(42))
            .publisher("hospital-a")
            .attr("age", 7i64)
            .attr("ward", "icu")
            .payload(b"patient record".to_vec())
            .build();
        let secure = publisher.publish(&e, 0).unwrap();
        let mut want = secure.event.clone();
        want.replace_payload(b"patient record".to_vec());
        assert_eq!(sub.decrypt(&secure).unwrap(), want);
    }

    #[test]
    fn key_count_reports_grant_sizes() {
        let ps = deployment(0);
        let mut sub = ps.subscriber("S");
        let f = Filter::for_topic("w").with(Constraint::new(
            "age",
            Op::InRange(IntRange::new(8, 19).unwrap()),
        ));
        ps.authorize_subscriber(&mut sub, &f, 0).unwrap();
        assert_eq!(sub.subscription_count(), 1);
        assert_eq!(sub.key_count(), 2); // (8,15) + (16,19)
    }

    #[test]
    fn secure_filters_expose_constraints() {
        let ps = deployment(0);
        let mut sub = ps.subscriber("S");
        let f = Filter::for_topic("w").with(Constraint::new("age", Op::Ge(10)));
        ps.authorize_subscriber(&mut sub, &f, 0).unwrap();
        let sf = sub.secure_filters();
        assert_eq!(sf.len(), 1);
        assert_eq!(sf[0].constraints.len(), 1);
        assert_eq!(sf[0].token, ps.routing_token("w"));
    }
}
