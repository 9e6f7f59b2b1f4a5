//! The tokenization PRF `F` (Song–Wagner–Perrig searchable encryption).
//!
//! The KDC issues a topic token `T(w) = F_{rk(KDC)}(w)`. A publisher tags an
//! event with `⟨r, F_{T(w)}(r)⟩` for a fresh nonce `r`, and a broker holding
//! the subscription token `tok` tests `F_tok(r) == match` — learning only
//! whether the event matches, never the topic `w` itself.

use crate::hmac::hmac_sha1;

/// Length in bytes of a PRF output / routing token.
pub const TOKEN_LEN: usize = 20;

/// A routing token: either a subscription token `T(w)` or an event match
/// value `F_{T(w)}(r)`.
///
/// Tokens are pseudonymous but not secret from the broker that matches on
/// them, so normal `Debug`/`Ord`/`Hash` are provided; equality used for
/// *matching* should go through [`crate::ct_eq`], which is constant time.
///
/// # Example
///
/// ```
/// use psguard_crypto::{ct_eq, prf};
///
/// let master = b"rk(KDC)";
/// let token = prf(master, b"cancerTrail");
/// let r = b"random nonce";
/// let tag = prf(token.as_bytes(), r);
/// assert!(ct_eq(prf(token.as_bytes(), r).as_bytes(), tag.as_bytes()));
/// assert!(!ct_eq(prf(token.as_bytes(), b"other nonce").as_bytes(), tag.as_bytes()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token([u8; TOKEN_LEN]);

impl Token {
    /// Wraps raw token bytes.
    pub fn from_raw(raw: [u8; TOKEN_LEN]) -> Self {
        Token(raw)
    }

    /// Raw token bytes.
    pub fn as_bytes(&self) -> &[u8; TOKEN_LEN] {
        &self.0
    }

    /// Short hex fingerprint for diagnostics.
    pub fn fingerprint(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl std::fmt::Debug for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Token({}…)", self.fingerprint())
    }
}

/// The PRF `F`: HMAC-SHA1 keyed by `key`.
pub fn prf(key: &[u8], data: &[u8]) -> Token {
    Token(hmac_sha1(key, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_is_bound_to_token_and_nonce() {
        let token = prf(b"master", b"stockQuote");
        let other = prf(b"master", b"weather");
        let tag = prf(token.as_bytes(), b"r1");
        assert_eq!(prf(token.as_bytes(), b"r1"), tag);
        assert_ne!(prf(other.as_bytes(), b"r1"), tag);
        assert_ne!(prf(token.as_bytes(), b"r2"), tag);
    }

    #[test]
    fn distinct_topics_distinct_tokens() {
        let a = prf(b"master", b"topicA");
        let b = prf(b"master", b"topicB");
        assert_ne!(a, b);
    }

    #[test]
    fn token_debug_is_fingerprint_only() {
        let t = prf(b"k", b"w");
        assert!(format!("{t:?}").starts_with("Token("));
    }
}
