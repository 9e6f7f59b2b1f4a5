//! Hand-rolled zeroize-on-drop support for key material.
//!
//! The reproduction has no crates.io access, so this is the classic
//! volatile-overwrite idiom rather than the `zeroize` crate: write zeros
//! through `write_volatile` (which the optimizer must not elide, even for
//! a buffer about to be freed) and fence the compiler so the wipe is not
//! reordered past the deallocation.
//!
//! This is one of the workspace's four audited `unsafe` islands, with
//! `x86.rs` (the SHA-NI/AES-NI kernels), `bench/src/alloc_counter.rs`
//! (a counting allocator) and `siena/src/reactor/sys.rs` (the reactor's
//! epoll FFI). Every other crate forbids `unsafe` via
//! `[workspace.lints]`, and the xtask `unsafe-island` rule admits
//! `#[allow(unsafe_code)]` in these four files only.
#![allow(unsafe_code)]

use core::sync::atomic::{compiler_fence, Ordering};

/// Overwrites `buf` with zeros in a way the optimizer must preserve.
pub fn zeroize(buf: &mut [u8]) {
    for b in buf.iter_mut() {
        // SAFETY: `b` is a valid, aligned, exclusive reference obtained
        // from the iterator; writing a plain byte through it is sound.
        unsafe { core::ptr::write_volatile(b, 0) };
    }
    compiler_fence(Ordering::SeqCst);
}

/// Overwrites a word buffer with zeros in a way the optimizer must
/// preserve. Used to wipe digest chaining state (`[u32; N]`) that has
/// absorbed key material, e.g. HMAC pad states held by reusable contexts.
pub(crate) fn zeroize_u32(buf: &mut [u32]) {
    for w in buf.iter_mut() {
        // SAFETY: `w` is a valid, aligned, exclusive reference obtained
        // from the iterator; writing a plain word through it is sound.
        unsafe { core::ptr::write_volatile(w, 0) };
    }
    compiler_fence(Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroize_clears_every_byte() {
        let mut buf = [0xAAu8; 64];
        zeroize(&mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn zeroize_empty_is_fine() {
        zeroize(&mut []);
    }

    #[test]
    fn zeroize_u32_clears_every_word() {
        let mut buf = [0xDEADBEEFu32; 16];
        zeroize_u32(&mut buf);
        assert!(buf.iter().all(|&w| w == 0));
        zeroize_u32(&mut []);
    }
}
