//! Error types of the PSGuard facade.

use psguard_crypto::CipherError;
use psguard_keys::{EventKeyError, KdcError};

/// Errors raised while publishing (encrypting) an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishError {
    /// The publisher holds no credential for the event's topic.
    UnknownTopic {
        /// The topic name.
        topic: String,
    },
    /// The event violates the topic schema.
    EventKey(EventKeyError),
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::UnknownTopic { topic } => {
                write!(f, "no publishing credential for topic {topic:?}")
            }
            PublishError::EventKey(e) => write!(f, "event key derivation failed: {e}"),
        }
    }
}

impl std::error::Error for PublishError {}

impl From<EventKeyError> for PublishError {
    fn from(e: EventKeyError) -> Self {
        PublishError::EventKey(e)
    }
}

/// Errors raised while subscribing (requesting a grant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscribeError {
    /// The KDC rejected the grant request.
    Kdc(KdcError),
}

impl std::fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubscribeError::Kdc(e) => write!(f, "grant refused: {e}"),
        }
    }
}

impl std::error::Error for SubscribeError {}

impl From<KdcError> for SubscribeError {
    fn from(e: KdcError) -> Self {
        SubscribeError::Kdc(e)
    }
}

/// Errors raised while decrypting a received event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecryptError {
    /// No active subscription token matched the event's routable tag.
    NoMatchingSubscription,
    /// A token matched, but the grant's epoch differs from the event's.
    EpochMismatch {
        /// Epoch the event was encrypted under.
        event_epoch: u64,
        /// Epoch of the (stale) grant.
        grant_epoch: u64,
    },
    /// The event violates the topic schema (malformed attributes).
    EventKey(EventKeyError),
    /// The grant cannot derive the event key — the event does not match
    /// the authorized filter.
    NotAuthorized,
    /// Payload decryption failed (corrupt ciphertext or wrong key).
    Cipher(CipherError),
    /// The integrity tag did not verify under any matching grant: the
    /// ciphertext was tampered with, or the grant's key lineage differs
    /// (e.g. per-publisher isolation).
    BadMac,
}

impl std::fmt::Display for DecryptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecryptError::NoMatchingSubscription => {
                write!(f, "no subscription token matches the event tag")
            }
            DecryptError::EpochMismatch {
                event_epoch,
                grant_epoch,
            } => write!(
                f,
                "event epoch {event_epoch} does not match grant epoch {grant_epoch}"
            ),
            DecryptError::EventKey(e) => write!(f, "event key address error: {e}"),
            DecryptError::NotAuthorized => write!(f, "grant does not cover this event"),
            DecryptError::Cipher(e) => write!(f, "payload decryption failed: {e}"),
            DecryptError::BadMac => {
                write!(
                    f,
                    "integrity check failed: tampered ciphertext or foreign key lineage"
                )
            }
        }
    }
}

impl std::error::Error for DecryptError {}

impl From<EventKeyError> for DecryptError {
    fn from(e: EventKeyError) -> Self {
        DecryptError::EventKey(e)
    }
}

impl From<CipherError> for DecryptError {
    fn from(e: CipherError) -> Self {
        DecryptError::Cipher(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = PublishError::UnknownTopic { topic: "x".into() };
        assert!(e.to_string().contains("x"));
        let e = DecryptError::EpochMismatch {
            event_epoch: 2,
            grant_epoch: 1,
        };
        assert!(e.to_string().contains('2'));
        assert!(DecryptError::NotAuthorized.to_string().contains("cover"));
    }

    #[test]
    fn conversions() {
        let e: DecryptError = CipherError::BadPadding.into();
        assert!(matches!(e, DecryptError::Cipher(_)));
        let e: SubscribeError = KdcError::MissingTopic.into();
        assert!(matches!(e, SubscribeError::Kdc(_)));
    }
}
