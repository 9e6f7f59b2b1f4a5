//! Typed key material: derivation keys (hierarchy nodes) and AES content
//! keys.

use crate::aes::BLOCK_SIZE;
use crate::hmac::hmac_sha1;
use crate::redact::Redacted;
use crate::sha1::Sha1;
use crate::zeroize::zeroize;
use crate::{ct_eq, HASH_LEN};

/// Length in bytes of a hierarchy derivation key (one SHA-1 output).
pub const DERIVE_KEY_LEN: usize = HASH_LEN;

/// Errors raised when constructing keys from raw bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyError {
    /// The supplied byte string had the wrong length.
    BadLength {
        /// Expected number of bytes.
        expected: usize,
        /// Number of bytes supplied.
        got: usize,
    },
}

impl std::fmt::Display for KeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyError::BadLength { expected, got } => {
                write!(f, "key material must be {expected} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for KeyError {}

/// A node key in one of PSGuard's key hierarchies (NAKT, category tree,
/// string prefix chain).
///
/// The two derivation operations of the paper are methods here:
///
/// * [`DeriveKey::kh`] — the keyed hash `KH` rooting sub-hierarchies
///   (`K(w) = KH_{rk}(w)`, `K_Ø^num = KH_{K(w)}(num)`);
/// * [`DeriveKey::child`] — one-way child derivation
///   (`K_{ktid‖b} = H(K_ktid ‖ b)`).
///
/// Equality is constant time. `Debug` prints a short fingerprint, never the
/// key bytes.
///
/// # Example
///
/// ```
/// use psguard_crypto::DeriveKey;
///
/// let master = DeriveKey::from_bytes(b"rk(KDC)");
/// let topic = master.kh(b"cancerTrail");
/// let age_root = topic.kh(b"age");
/// // Walking down ktid = 101 for the event value 22 in Figure 1:
/// let k101 = age_root.child(1).child(0).child(1);
/// assert_eq!(k101, age_root.child(1).child(0).child(1));
/// ```
#[derive(Clone)]
pub struct DeriveKey([u8; DERIVE_KEY_LEN]);

impl DeriveKey {
    /// Builds a derivation key by hashing arbitrary seed bytes.
    ///
    /// This is how a deployment turns a master secret into the fixed-length
    /// root `rk(KDC)`.
    pub fn from_bytes(seed: &[u8]) -> Self {
        Self(Sha1::digest(seed))
    }

    /// Wraps exactly [`DERIVE_KEY_LEN`] raw bytes as a key.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::BadLength`] when `raw` is not exactly
    /// [`DERIVE_KEY_LEN`] bytes.
    pub fn from_raw(raw: &[u8]) -> Result<Self, KeyError> {
        let arr: [u8; DERIVE_KEY_LEN] = raw.try_into().map_err(|_| KeyError::BadLength {
            expected: DERIVE_KEY_LEN,
            got: raw.len(),
        })?;
        Ok(Self(arr))
    }

    /// Wraps a full-length hash output as a key — the infallible
    /// counterpart of [`DeriveKey::from_raw`] for derivation loops that
    /// already hold a `[u8; DERIVE_KEY_LEN]` digest (e.g. the batched LKH
    /// refresh threading a [`crate::PrfContext`] through a key tree).
    pub fn from_hash(raw: [u8; DERIVE_KEY_LEN]) -> Self {
        Self(raw)
    }

    /// The keyed hash `KH`: derives a sub-hierarchy root from this key.
    pub fn kh(&self, label: &[u8]) -> DeriveKey {
        DeriveKey(hmac_sha1(&self.0, label))
    }

    /// One-way child derivation `K_{ktid‖b} = H(K_ktid ‖ b)` for a binary
    /// tree. `bit` must be 0 or 1.
    ///
    /// # Panics
    ///
    /// Panics when `bit > 1`; use [`DeriveKey::child_n`] for a-ary trees.
    pub fn child(&self, bit: u8) -> DeriveKey {
        assert!(bit <= 1, "binary child index must be 0 or 1, got {bit}");
        self.child_n(bit as u32)
    }

    /// One-way child derivation for an a-ary tree: `H(K ‖ index)`.
    pub fn child_n(&self, index: u32) -> DeriveKey {
        let mut data = [0u8; DERIVE_KEY_LEN + 4];
        data[..DERIVE_KEY_LEN].copy_from_slice(&self.0);
        data[DERIVE_KEY_LEN..].copy_from_slice(&index.to_be_bytes());
        DeriveKey(Sha1::digest(&data))
    }

    /// Derives the AES-128 content key used to encrypt an event under this
    /// hierarchy node (the first 16 bytes of `KH(self, "enc")`).
    pub fn content_key(&self) -> AesKey {
        let full = hmac_sha1(&self.0, b"psguard-content-key");
        let mut k = [0u8; BLOCK_SIZE];
        k.copy_from_slice(&full[..BLOCK_SIZE]);
        AesKey(k)
    }

    /// Raw key bytes (for wire transfer to an authorized subscriber).
    pub fn as_bytes(&self) -> &[u8; DERIVE_KEY_LEN] {
        &self.0
    }
}

impl PartialEq for DeriveKey {
    fn eq(&self, other: &Self) -> bool {
        ct_eq(&self.0, &other.0)
    }
}

impl Eq for DeriveKey {}

impl std::hash::Hash for DeriveKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl std::fmt::Debug for DeriveKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DeriveKey({})", Redacted(&self.0))
    }
}

// Zeroize-on-drop: hierarchy keys grant decryption of whole event classes;
// wipe them before the memory is reused.
impl Drop for DeriveKey {
    fn drop(&mut self) {
        zeroize(&mut self.0);
    }
}

/// A 16-byte AES-128 content-encryption key.
///
/// Equality is constant time; `Debug` never prints key bytes.
#[derive(Clone)]
pub struct AesKey([u8; BLOCK_SIZE]);

impl AesKey {
    /// Wraps exactly 16 raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::BadLength`] for any other length.
    pub fn from_raw(raw: &[u8]) -> Result<Self, KeyError> {
        let arr: [u8; BLOCK_SIZE] = raw.try_into().map_err(|_| KeyError::BadLength {
            expected: BLOCK_SIZE,
            got: raw.len(),
        })?;
        Ok(Self(arr))
    }

    /// Raw key bytes, e.g. to construct an [`crate::Aes128`].
    pub fn as_bytes(&self) -> &[u8; BLOCK_SIZE] {
        &self.0
    }
}

impl PartialEq for AesKey {
    fn eq(&self, other: &Self) -> bool {
        ct_eq(&self.0, &other.0)
    }
}

impl Eq for AesKey {}

impl std::fmt::Debug for AesKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AesKey({})", Redacted(&self.0))
    }
}

// Zeroize-on-drop: content keys decrypt event payloads directly.
impl Drop for AesKey {
    fn drop(&mut self) {
        zeroize(&mut self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        let a = DeriveKey::from_bytes(b"seed");
        let b = DeriveKey::from_bytes(b"seed");
        assert_eq!(a, b);
        assert_eq!(a.kh(b"topic"), b.kh(b"topic"));
        assert_eq!(a.child(0), b.child(0));
        assert_eq!(a.child_n(3), b.child_n(3));
        assert_eq!(a.content_key(), b.content_key());
    }

    #[test]
    fn children_differ_from_parent_and_siblings() {
        let root = DeriveKey::from_bytes(b"root");
        let left = root.child(0);
        let right = root.child(1);
        assert_ne!(left, right);
        assert_ne!(left, root);
        assert_ne!(right, root);
        assert_ne!(root.child_n(2), root.child_n(3));
    }

    #[test]
    fn binary_child_matches_child_n() {
        let root = DeriveKey::from_bytes(b"root");
        assert_eq!(root.child(0), root.child_n(0));
        assert_eq!(root.child(1), root.child_n(1));
    }

    #[test]
    #[should_panic(expected = "binary child index")]
    fn binary_child_panics_on_large_bit() {
        DeriveKey::from_bytes(b"root").child(2);
    }

    #[test]
    fn from_raw_checks_length() {
        assert!(DeriveKey::from_raw(&[0u8; DERIVE_KEY_LEN]).is_ok());
        assert_eq!(
            DeriveKey::from_raw(&[0u8; 5]),
            Err(KeyError::BadLength {
                expected: DERIVE_KEY_LEN,
                got: 5
            })
        );
        assert!(AesKey::from_raw(&[0u8; 16]).is_ok());
        assert!(AesKey::from_raw(&[0u8; 20]).is_err());
    }

    #[test]
    fn debug_never_leaks_full_key() {
        let k = DeriveKey::from_bytes(b"secret");
        let dbg = format!("{k:?}");
        assert!(dbg.len() < 30, "{dbg}");
        let hex_full: String = k.as_bytes().iter().map(|b| format!("{b:02x}")).collect();
        assert!(!dbg.contains(&hex_full));
    }

    #[test]
    fn redacting_debug_prints_at_most_the_fingerprint() {
        let k = DeriveKey::from_bytes(b"secret material");
        let ck = k.content_key();
        let outputs = [
            (format!("{k:?}"), k.as_bytes().to_vec()),
            (format!("{ck:?}"), ck.as_bytes().to_vec()),
        ];
        for (dbg, bytes) in outputs {
            // The redacted form may show a two-byte fingerprint; any run of
            // three consecutive key bytes in the output is a leak.
            for window in bytes.windows(3) {
                let hex: String = window.iter().map(|b| format!("{b:02x}")).collect();
                assert!(!dbg.contains(&hex), "{dbg} leaks key bytes {hex}");
            }
        }
    }

    #[test]
    fn zeroize_wipes_key_material() {
        let mut buf = *DeriveKey::from_bytes(b"to wipe").as_bytes();
        assert!(buf.iter().any(|&b| b != 0));
        crate::zeroize::zeroize(&mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }
}
