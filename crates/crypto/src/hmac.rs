//! HMAC-SHA1 (RFC 2104).
//!
//! HMAC-SHA1 instantiates the paper's keyed pseudo-random function `KH`
//! (rooting the key hierarchies) and the tokenization PRF `F`.

use crate::sha1::Sha1;
use crate::zeroize::zeroize;

/// SHA-1's block size in bytes.
const BLOCK: usize = 64;

/// Prepares the inner/outer digests keyed per RFC 2104: hash-or-pad the
/// key into a block, then absorb `key ⊕ ipad` and `key ⊕ opad`.
///
/// All key-equivalent scratch lives in fixed stack buffers that are wiped
/// in place before returning — no heap allocation. Shared by [`Hmac::new`]
/// and the reusable contexts in [`crate::context`].
pub(crate) fn keyed_pads(key: &[u8]) -> (Sha1, Sha1) {
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        let mut hashed = Sha1::digest(key);
        key_block[..hashed.len()].copy_from_slice(&hashed);
        zeroize(&mut hashed);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut pad = [0u8; BLOCK];
    for (p, k) in pad.iter_mut().zip(key_block.iter()) {
        *p = k ^ 0x36;
    }
    let mut inner = Sha1::new();
    inner.update(&pad);

    for (p, k) in pad.iter_mut().zip(key_block.iter()) {
        *p = k ^ 0x5c;
    }
    let mut outer = Sha1::new();
    outer.update(&pad);

    // The padded key blocks are key-equivalent; wipe them in place before
    // the stack frame is reused.
    zeroize(&mut key_block);
    zeroize(&mut pad);

    (inner, outer)
}

/// Finishes a MAC from its inner state (message absorbed) and its outer
/// pad state: `H(opad ‖ H(ipad ‖ message))`.
pub(crate) fn finish(inner: Sha1, mut outer: Sha1) -> [u8; 20] {
    outer.update(&inner.finalize());
    outer.finalize()
}

/// Streaming HMAC-SHA1.
///
/// The pad-absorbed states are as good as the key for forging MACs, so
/// they are wiped on drop, and `Debug` prints nothing of them.
///
/// # Example
///
/// ```
/// use psguard_crypto::{hmac_sha1, Hmac};
///
/// let mut mac = Hmac::new(b"key");
/// mac.update(b"The quick brown fox ");
/// mac.update(b"jumps over the lazy dog");
/// assert_eq!(
///     mac.finalize(),
///     hmac_sha1(b"key", b"The quick brown fox jumps over the lazy dog")
/// );
/// ```
#[derive(Clone)]
pub struct Hmac {
    inner: Sha1,
    outer: Sha1,
}

impl std::fmt::Debug for Hmac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hmac").finish_non_exhaustive()
    }
}

impl Hmac {
    /// Creates an HMAC instance keyed with `key`.
    ///
    /// Keys longer than the hash block size are first hashed, per RFC 2104.
    /// Key-block preparation runs entirely in stack buffers (wiped in
    /// place), so keying allocates nothing.
    pub fn new(key: &[u8]) -> Self {
        let (inner, outer) = keyed_pads(key);
        Self { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the MAC and returns the tag.
    pub fn finalize(mut self) -> [u8; 20] {
        // Take the states out: `Drop` then wipes the fresh ones left behind.
        finish(
            std::mem::take(&mut self.inner),
            std::mem::take(&mut self.outer),
        )
    }
}

impl Drop for Hmac {
    fn drop(&mut self) {
        // The pad-absorbed states are key-equivalent: wipe them.
        self.inner.wipe();
        self.outer.wipe();
    }
}

/// One-shot HMAC-SHA1 (the paper's `KH` and `F`).
pub fn hmac_sha1(key: &[u8], message: &[u8]) -> [u8; 20] {
    let (mut inner, outer) = keyed_pads(key);
    inner.update(message);
    finish(inner, outer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_exactly_block_size() {
        let key = [0x42u8; 64];
        // Must not be rehashed: check against the definition directly.
        let tag = hmac_sha1(&key, b"msg");
        let manual = {
            let ipad: Vec<u8> = key.iter().map(|b| b ^ 0x36).collect();
            let opad: Vec<u8> = key.iter().map(|b| b ^ 0x5c).collect();
            let mut inner = Sha1::new();
            inner.update(&ipad);
            inner.update(b"msg");
            let id = inner.finalize();
            let mut outer = Sha1::new();
            outer.update(&opad);
            outer.update(&id);
            outer.finalize()
        };
        assert_eq!(tag, manual);
    }

    #[test]
    fn hmac_wipes_its_pad_states_on_drop() {
        assert!(std::mem::needs_drop::<Hmac>());
        let mut mac = Hmac::new(b"secret key material");
        mac.update(b"message");
        // What `Drop` runs, observed in place: nothing of the key remains.
        mac.inner.wipe();
        mac.outer.wipe();
        for state in [&mac.inner, &mac.outer] {
            assert_eq!(state.clone().finalize(), Sha1::digest(b""));
        }
    }

    #[test]
    fn debug_is_redacted() {
        assert_eq!(format!("{:?}", Hmac::new(b"secret")), "Hmac { .. }");
    }
}
