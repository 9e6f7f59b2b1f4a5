//! From-scratch cryptographic primitives for the PSGuard reproduction.
//!
//! The PSGuard paper (Srivatsa & Liu, ICDCS 2007) instantiates its key
//! derivation and event encryption with the following concrete algorithms
//! (§5.1 of the paper):
//!
//! * `H`  — a one-way hash function, approximated by MD5 or **SHA-1**
//!   (this reproduction uses SHA-1);
//! * `KH` — a keyed pseudo-random function, approximated by **HMAC-SHA1**;
//! * `E`  — an encryption algorithm, **AES-128-CBC**;
//! * `F`  — a PRF used for tokenization (Song–Wagner–Perrig searchable
//!   encryption), instantiated here as HMAC-SHA1.
//!
//! This crate implements all of them from first principles so that the
//! reproduction has no external cryptographic dependencies, and ships
//! nothing else. Every primitive is validated against the published test
//! vectors, one table per family: RFC 3174 for SHA-1 and RFC 2202 for
//! HMAC-SHA1 in `tests/vectors_and_props.rs`, FIPS-197 and NIST SP 800-38A
//! for AES-128, CBC and CTR in `tests/aes_oracle.rs`.
//!
//! On x86-64 CPUs with the SHA and AES instructions, every SHA-1
//! compression and AES block runs on them (one audited module holds the
//! kernels); elsewhere the portable code runs, and it is the oracle the
//! kernels are tested against. Both give the same bytes.
//!
//! **Scope note:** these implementations aim for correctness and clarity,
//! which is what a systems-paper reproduction needs. They are *not* hardened
//! against side channels (except [`ct_eq`], which is constant time) and
//! should not be lifted into unrelated production systems as-is. AES-NI
//! reads no table indexed by secret bytes, so the cache-timing exposure of
//! the table AES applies only to the portable fallback.
//!
//! # Example
//!
//! ```
//! use psguard_crypto::{Sha1, hmac_sha1, DeriveKey};
//!
//! // One-way hash H.
//! let digest = Sha1::digest(b"cancerTrail");
//! assert_eq!(digest.len(), 20);
//!
//! // Keyed hash KH used to root the key hierarchy.
//! let master = DeriveKey::from_bytes(b"kdc master key");
//! let topic_key = master.kh(b"cancerTrail");
//! let num_root = topic_key.kh(b"age");
//! // Child key derivation: K_{xi || b} = H(K_xi || b).
//! let left = num_root.child(0);
//! let right = num_root.child(1);
//! assert_ne!(left, right);
//! let _ = hmac_sha1(topic_key.as_bytes(), b"age");
//! ```

// `deny` rather than the workspace-wide `forbid`: two modules scope their
// own `#[allow(unsafe_code)]`, zeroize (the audited volatile writes) and
// x86 (the SHA and AES instruction kernels).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod aes;
mod context;
mod ct;
#[cfg(all(test, target_arch = "x86_64"))]
mod differential;
mod hmac;
mod key;
mod modes;
mod prf;
mod redact;
mod sha1;
#[cfg(target_arch = "x86_64")]
mod x86;
mod zeroize;

pub use aes::{Aes128, BLOCK_SIZE};
pub use context::{PrfContext, ProbeTable};
pub use ct::ct_eq;
pub use hmac::{hmac_sha1, Hmac};
pub use key::{AesKey, DeriveKey, KeyError, DERIVE_KEY_LEN};
pub use modes::{cbc_decrypt, cbc_encrypt, ctr_apply, pkcs7_pad, CipherError};
pub use prf::{prf, Token, TOKEN_LEN};
pub use redact::Redacted;
pub use sha1::Sha1;
pub use zeroize::zeroize;

/// Number of bytes produced by the one-way hash `H` (SHA-1).
pub const HASH_LEN: usize = 20;

/// The one-way hash function `H` from the paper: SHA-1.
///
/// `H` is used for child-key derivation inside every key tree:
/// `K_{ktid || b} = H(K_ktid || b)`.
///
/// # Example
///
/// ```
/// let d = psguard_crypto::h(b"hello");
/// assert_eq!(d.len(), psguard_crypto::HASH_LEN);
/// ```
pub fn h(data: &[u8]) -> [u8; HASH_LEN] {
    Sha1::digest(data)
}

/// The keyed pseudo-random function `KH` from the paper: HMAC-SHA1.
///
/// `KH` roots each hierarchy: `K(w) = KH_{rk(KDC)}(w)` and
/// `K_Ø^num = KH_{K(w)}(num)`.
///
/// # Example
///
/// ```
/// let k = psguard_crypto::kh(b"master", b"cancerTrail");
/// assert_eq!(k.len(), psguard_crypto::HASH_LEN);
/// ```
pub fn kh(key: &[u8], data: &[u8]) -> [u8; HASH_LEN] {
    hmac_sha1(key, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h_is_sha1() {
        assert_eq!(h(b"abc"), Sha1::digest(b"abc"));
    }

    #[test]
    fn kh_is_hmac_sha1() {
        assert_eq!(kh(b"k", b"m"), hmac_sha1(b"k", b"m"));
    }

    #[test]
    fn kh_differs_by_key_and_message() {
        assert_ne!(kh(b"k1", b"m"), kh(b"k2", b"m"));
        assert_ne!(kh(b"k", b"m1"), kh(b"k", b"m2"));
    }
}
