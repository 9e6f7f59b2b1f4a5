//! Tokenized events and filters for secure content-based routing (§4.1).
//!
//! The topic of an event is never routed in the clear. Instead (following
//! Song–Wagner–Perrig searchable encryption):
//!
//! * the KDC gives subscribers of topic `w` the token `T(w) = F_rk(w)`;
//! * a publisher tags each event with `⟨r, F_{T(w)}(r)⟩` for a fresh nonce
//!   `r`;
//! * a broker holding subscription token `tok` matches by testing
//!   `F_tok(r) == match`.
//!
//! The broker learns *that* the event matched one of its registered
//! subscriptions — nothing about `w` itself. Non-topic routable attributes
//! (e.g. a numeric `age`) stay visible for in-network range matching; the
//! secret payload is AES-encrypted under the hierarchy key.

use psguard_crypto::{ct_eq, prf, ProbeTable, Token};
use psguard_model::{AttrName, AttrValue, Constraint, Event, Filter};
use psguard_siena::{FilterSemantics, IndexableFilter, KeyQuery};

/// The routable tag on a secure event: `⟨r, F_{T(w)}(r)⟩`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RoutableTag {
    /// The fresh nonce `r`.
    pub nonce: [u8; 16],
    /// The match value `F_{T(w)}(r)`.
    pub tag: Token,
}

impl RoutableTag {
    /// Deterministic construction from an explicit nonce (tests, replay).
    pub fn with_nonce(topic_token: &Token, nonce: [u8; 16]) -> Self {
        RoutableTag {
            nonce,
            tag: prf(topic_token.as_bytes(), &nonce),
        }
    }

    /// Broker-side: does this tag match a subscription token, i.e.
    /// `F_tok(r) == match`? Constant time in the comparison.
    pub fn matches(&self, subscription_token: &Token) -> bool {
        let expect = prf(subscription_token.as_bytes(), &self.nonce);
        ct_eq(expect.as_bytes(), self.tag.as_bytes())
    }
}

/// A secure event as routed by brokers: pseudonymous topic tag, plaintext
/// routable attributes, encrypted payload.
///
/// The inner [`Event`]'s topic field is replaced by the empty string
/// before routing — brokers must not see `w`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureEvent {
    /// The topic tag `⟨r, F_{T(w)}(r)⟩`.
    pub tag: RoutableTag,
    /// Routable attributes (plaintext) and the *encrypted* payload.
    pub event: Event,
    /// CBC initialization vector for the payload.
    pub iv: [u8; 16],
    /// The epoch the payload was encrypted under.
    pub epoch: u64,
    /// Encrypt-then-MAC tag: `KH_{mac_key}(iv ‖ ciphertext)`. Lets an
    /// authorized subscriber verify it derived the right `K(e)` before
    /// decrypting (and detects tampering in transit).
    pub mac: [u8; 20],
}

/// A secure subscription filter: a topic token plus plaintext attribute
/// constraints (the broker can match ranges without learning the topic).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SecureFilter {
    /// The subscription token `T(w)`.
    pub token: Token,
    /// Attribute constraints evaluated in-network.
    pub constraints: Vec<Constraint>,
}

impl SecureFilter {
    /// Builds a secure filter from a token and the non-topic constraints
    /// of a plaintext filter.
    pub fn from_filter(token: Token, filter: &Filter) -> Self {
        SecureFilter {
            token,
            constraints: filter.constraints().to_vec(),
        }
    }
}

impl FilterSemantics for SecureFilter {
    type Event = SecureEvent;

    fn matches(&self, event: &SecureEvent) -> bool {
        if !event.tag.matches(&self.token) {
            return false;
        }
        self.constraints.iter().all(|c| {
            event
                .event
                .attr(c.name().as_str())
                .is_some_and(|v| c.matches_value(v))
        })
    }

    fn covers(&self, other: &SecureFilter) -> bool {
        if self.token != other.token {
            return false;
        }
        self.constraints
            .iter()
            .all(|mine| other.constraints.iter().any(|theirs| mine.covers(theirs)))
    }
}

/// The broker-side fast path: filters bucket by subscription token, so
/// the [`MatchIndex`](psguard_siena::MatchIndex) stores each distinct
/// token **once** no matter how many subscribers share it (token
/// interning) and performs a single PRF verification per distinct live
/// token per event, all of them in one [`ProbeTable`] sweep — memoized on
/// the event's nonce, so a re-published envelope costs no PRF at all.
impl IndexableFilter for SecureFilter {
    type Key = Token;

    fn routing_key(&self) -> Token {
        self.token
    }

    fn indexed_constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    fn event_attr<'a>(event: &'a SecureEvent, name: &AttrName) -> Option<&'a AttrValue> {
        event.event.attr(name.as_str())
    }

    fn candidate_keys(_event: &SecureEvent) -> KeyQuery<Token> {
        // A tag reveals nothing about its token; every live token bucket
        // must be PRF-probed (that is the point of the scheme).
        KeyQuery::Probe
    }

    fn probe_token(key: &Token) -> Option<&Token> {
        Some(key)
    }

    fn probe_sweep(table: &ProbeTable, event: &SecureEvent, hits: &mut Vec<u32>) {
        table.sweep(&event.tag.nonce, &event.tag.tag, hits);
    }

    fn probe_memo_key(event: &SecureEvent) -> Option<u128> {
        Some(u128::from_le_bytes(event.tag.nonce))
    }
}

/// Wire-format support so secure traffic can cross the TCP transport.
mod wire_impls {
    use super::*;
    use psguard_siena::wire::{take_arr, Wire, WireError};

    impl Wire for RoutableTag {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.nonce);
            self.tag.encode(buf);
        }
        fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
            Ok(RoutableTag {
                nonce: take_arr(input)?,
                tag: Token::decode(input)?,
            })
        }
    }

    impl Wire for SecureEvent {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.tag.encode(buf);
            self.event.encode(buf);
            buf.extend_from_slice(&self.iv);
            self.epoch.encode(buf);
            buf.extend_from_slice(&self.mac);
        }
        fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
            let tag = RoutableTag::decode(input)?;
            let event = Event::decode(input)?;
            let iv = take_arr(input)?;
            let epoch = u64::decode(input)?;
            let mac = take_arr(input)?;
            Ok(SecureEvent {
                tag,
                event,
                iv,
                epoch,
                mac,
            })
        }
    }

    impl Wire for SecureFilter {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.token.encode(buf);
            (self.constraints.len() as u32).encode(buf);
            for c in &self.constraints {
                c.name().as_str().to_owned().encode(buf);
                c.op().encode(buf);
            }
        }
        fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
            let token = Token::decode(input)?;
            let n = u32::decode(input)? as usize;
            if n > 4096 {
                return Err(WireError::BadLength(n));
            }
            let mut constraints = Vec::with_capacity(n);
            for _ in 0..n {
                let name = String::decode(input)?;
                let op = psguard_model::Op::decode(input)?;
                constraints.push(Constraint::new(name, op));
            }
            Ok(SecureFilter { token, constraints })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psguard_model::Op;
    use psguard_siena::wire::Wire;

    fn token(seed: &str) -> Token {
        prf(b"master", seed.as_bytes())
    }

    fn secure_event(topic_token: &Token, age: i64) -> SecureEvent {
        SecureEvent {
            tag: RoutableTag::with_nonce(topic_token, [1; 16]),
            event: Event::builder("")
                .attr("age", age)
                .payload(vec![0xaa; 32])
                .build(),
            iv: [0u8; 16],
            epoch: 0,
            mac: [0u8; 20],
        }
    }

    #[test]
    fn tag_matches_only_its_topic() {
        let t1 = token("cancerTrail");
        let t2 = token("weather");
        let tag = RoutableTag::with_nonce(&t1, [2; 16]);
        assert!(tag.matches(&t1));
        assert!(!tag.matches(&t2));
    }

    #[test]
    fn fresh_nonces_give_unlinkable_tags() {
        let t = token("w");
        let a = RoutableTag::with_nonce(&t, [3; 16]);
        let b = RoutableTag::with_nonce(&t, [4; 16]);
        assert_ne!(a.nonce, b.nonce);
        assert_ne!(a.tag, b.tag);
        assert!(a.matches(&t) && b.matches(&t));
    }

    #[test]
    fn secure_filter_matches_token_and_constraints() {
        let t = token("w");
        let f = SecureFilter {
            token: t,
            constraints: vec![Constraint::new("age", Op::Ge(18))],
        };
        assert!(FilterSemantics::matches(&f, &secure_event(&t, 25)));
        assert!(!FilterSemantics::matches(&f, &secure_event(&t, 10)));
        assert!(!FilterSemantics::matches(
            &f,
            &secure_event(&token("other"), 25)
        ));
    }

    #[test]
    fn secure_covering_requires_same_token() {
        let t = token("w");
        let broad = SecureFilter {
            token: t,
            constraints: vec![Constraint::new("age", Op::Ge(10))],
        };
        let narrow = SecureFilter {
            token: t,
            constraints: vec![Constraint::new("age", Op::Ge(20))],
        };
        assert!(broad.covers(&narrow));
        assert!(!narrow.covers(&broad));
        let other = SecureFilter {
            token: token("x"),
            constraints: vec![],
        };
        assert!(!other.covers(&narrow));
    }

    #[test]
    fn secure_types_roundtrip_on_the_wire() {
        let t = token("w");
        let e = secure_event(&t, 30);
        let bytes = e.to_bytes();
        assert_eq!(SecureEvent::from_bytes(&bytes).unwrap(), e);

        let f = SecureFilter {
            token: t,
            constraints: vec![Constraint::new("age", Op::Le(64))],
        };
        let bytes = f.to_bytes();
        assert_eq!(SecureFilter::from_bytes(&bytes).unwrap(), f);
    }

    #[test]
    fn truncated_wire_rejected() {
        let t = token("w");
        let e = secure_event(&t, 30);
        let bytes = e.to_bytes();
        assert!(SecureEvent::from_bytes(&bytes[..10]).is_err());
    }
}
