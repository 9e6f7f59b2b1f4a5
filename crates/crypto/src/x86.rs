//! SHA-1 and AES-128 on the x86-64 SHA and AES instructions.
//!
//! Every SHA-1 compression and AES block in the system runs through
//! [`crate::Sha1`], [`crate::ProbeTable`] and [`crate::Aes128`]; each of
//! them asks [`ShaNi::detect`] or [`AesNi::detect`] once per call and runs
//! the kernels here when the CPU has the instructions. Without them, and
//! on every other architecture, the portable code in `sha1.rs` and
//! `aes.rs` runs instead; it is also the oracle the differential tests
//! hold these kernels to. Nothing but the CPUID probe selects a backend,
//! and both produce the same bytes.
//!
//! This is one of the workspace's four audited `unsafe` islands, with
//! `zeroize.rs` (the key wipe), `bench/src/alloc_counter.rs` (a counting
//! allocator) and `siena/src/reactor/sys.rs` (the reactor's epoll FFI).
//! The kernels are safe `#[target_feature]` functions: their intrinsics
//! need no `unsafe` inside them. The `unsafe` here is of two kinds only:
//!
//! * unaligned 16-byte loads and stores, each through [`load`] or
//!   [`store`], whose `&[u8; 16]` argument fixes the length read or
//!   written;
//! * calls into a kernel, each a method of [`ShaNi`] or [`AesNi`], which
//!   only [`ShaNi::detect`] and [`AesNi::detect`] construct, after
//!   `is_x86_feature_detected!` saw every feature that kernel enables.
//!
//! AES-NI rounds read no table indexed by secret bytes, so the cache
//! timing caveat of DESIGN.md §9 applies only to the portable fallback.
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128,
    _mm_aesenclast_si128, _mm_aesimc_si128, _mm_aeskeygenassist_si128, _mm_extract_epi32,
    _mm_loadu_si128, _mm_or_si128, _mm_set_epi32, _mm_set_epi64x, _mm_setzero_si128,
    _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_slli_si128, _mm_storeu_si128, _mm_testz_si128,
    _mm_xor_si128,
};
use std::sync::OnceLock;

/// Proof that this CPU runs the SHA extensions with SSSE3 and SSE4.1:
/// only [`ShaNi::detect`] makes one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShaNi(());

/// Proof that this CPU runs AES-NI: only [`AesNi::detect`] makes one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AesNi(());

impl ShaNi {
    /// The SHA-1 instructions, if this CPU has them. The CPUID probe runs
    /// once per process.
    pub(crate) fn detect() -> Option<Self> {
        static HAS: OnceLock<bool> = OnceLock::new();
        let has = *HAS.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        });
        has.then_some(ShaNi(()))
    }

    /// Runs the compression function over every 64-byte block of
    /// `blocks`, in order. A trailing partial block is ignored.
    pub(crate) fn compress_blocks(self, state: &mut [u32; 5], blocks: &[u8]) {
        // SAFETY: `self` exists only if `detect` saw sha, sse2, ssse3 and
        // sse4.1, every feature `sha1_blocks` enables.
        unsafe { sha1_blocks(state, blocks) }
    }

    /// HMAC-SHA1 of one 16-byte message under every lane's pad states,
    /// pushing the slot of each lane whose tag equals `want`, in lane
    /// order. `pads` holds ten columns, one row per lane: the ipad
    /// chaining state in columns `0..5`, the opad state in `5..10`.
    /// `inner` is the message's padded block as big-endian words, and
    /// `outer_bits` the bit length of the outer hash input. Lanes past
    /// the shortest of `slots` and the columns are not probed.
    pub(crate) fn probe(
        self,
        pads: [&[u32]; 10],
        inner: &[u32; 16],
        outer_bits: u32,
        want: &[u32; 5],
        slots: &[u32],
        hits: &mut Vec<u32>,
    ) {
        // SAFETY: as in `compress_blocks`: `self` proves every feature
        // `hmac_probe` enables.
        unsafe { hmac_probe(pads, inner, outer_bits, want, slots, hits) }
    }
}

impl AesNi {
    /// AES-NI, if this CPU has it. The CPUID probe runs once per process.
    pub(crate) fn detect() -> Option<Self> {
        static HAS: OnceLock<bool> = OnceLock::new();
        let has = *HAS
            .get_or_init(|| is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse2"));
        has.then_some(AesNi(()))
    }

    /// Expands `key` into the encryption round keys `ek` (FIPS-197 §5.2,
    /// as bytes) and the equivalent inverse cipher's `dk` (FIPS-197
    /// §5.3.5: `ek` in reverse round order, rounds 1–9 through
    /// InvMixColumns).
    pub(crate) fn expand(self, key: &[u8; 16], ek: &mut [[u8; 16]; 11], dk: &mut [[u8; 16]; 11]) {
        // SAFETY: `self` exists only if `detect` saw aes and sse2, every
        // feature `aes_expand` enables.
        unsafe { aes_expand(key, ek, dk) }
    }

    /// Encrypts one block in place under `ek`: CBC of one block under a
    /// zero IV is the bare cipher.
    pub(crate) fn encrypt_block(self, ek: &[[u8; 16]; 11], block: &mut [u8; 16]) {
        // SAFETY: as in `expand`.
        unsafe { cbc_encrypt(ek, &[0; 16], std::slice::from_mut(block)) }
    }

    /// Decrypts one block in place under `dk`, as CBC of one block under
    /// a zero IV.
    pub(crate) fn decrypt_block(self, dk: &[[u8; 16]; 11], block: &mut [u8; 16]) {
        // SAFETY: as in `expand`.
        unsafe { cbc_decrypt(dk, &[0; 16], std::slice::from_mut(block)) }
    }

    /// CBC-encrypts `blocks` in place under `ek`, chained from `iv`.
    pub(crate) fn cbc_encrypt(self, ek: &[[u8; 16]; 11], iv: &[u8; 16], blocks: &mut [[u8; 16]]) {
        // SAFETY: as in `expand`.
        unsafe { cbc_encrypt(ek, iv, blocks) }
    }

    /// CBC-decrypts `blocks` in place under `dk`, chained from `iv`.
    pub(crate) fn cbc_decrypt(self, dk: &[[u8; 16]; 11], iv: &[u8; 16], blocks: &mut [[u8; 16]]) {
        // SAFETY: as in `expand`.
        unsafe { cbc_decrypt(dk, iv, blocks) }
    }
}

/// Loads sixteen bytes into a vector, byte 0 in the low lane.
#[inline]
#[target_feature(enable = "sse2")]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is a live reference to exactly the sixteen bytes
    // the unaligned load reads.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Stores a vector into sixteen bytes, the low lane into byte 0.
#[inline]
#[target_feature(enable = "sse2")]
fn store(bytes: &mut [u8; 16], v: __m128i) {
    // SAFETY: `bytes` is a live, exclusive reference to exactly the
    // sixteen bytes the unaligned store writes.
    unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
}

/// Up to four words as a vector, the first in the top lane and missing
/// ones zero: the order SHA1RNDS4 reads chaining words (A on top, or E
/// alone) and message words (W0 on top) in.
#[inline]
#[target_feature(enable = "sse2")]
fn top_first(words: &[u32]) -> __m128i {
    let w = |i: usize| words.get(i).copied().unwrap_or(0) as i32;
    _mm_set_epi32(w(0), w(1), w(2), w(3))
}

/// SHA-1's 80 rounds and feed-forward from the chaining state `abcd`
/// (A in the top lane) and `e` (E in the top lane, zeros below) over one
/// block given as four vectors of four message words, each top-first.
/// Returns the new `(abcd, e)` in the same layout.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn sha1_rounds(abcd: __m128i, e: __m128i, block: [__m128i; 4]) -> (__m128i, __m128i) {
    let [mut w0, mut w1, mut w2, mut w3] = block;
    // SHA1RNDS4 runs four rounds from `cur` with message words `4k..4k+4`
    // whose top lane also carries E. After four rounds E is rol30 of the
    // A four rounds back, which SHA1NEXTE folds in from `prev`, the
    // state group k-1 started from.
    let mut prev = abcd;
    let mut cur = _mm_sha1rnds4_epu32::<0>(abcd, _mm_add_epi32(e, w0));
    macro_rules! group {
        ($func:literal, $w:expr) => {{
            let next = _mm_sha1rnds4_epu32::<$func>(cur, _mm_sha1nexte_epu32(prev, $w));
            prev = cur;
            cur = next;
        }};
    }
    // The next four schedule words from the last sixteen.
    macro_rules! schedule {
        () => {{
            let w4 = _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32(w0, w1), w2), w3);
            (w0, w1, w2, w3) = (w1, w2, w3, w4);
            w4
        }};
    }
    group!(0, w1);
    group!(0, w2);
    group!(0, w3);
    group!(0, schedule!());
    for _ in 0..5 {
        group!(1, schedule!());
    }
    for _ in 0..5 {
        group!(2, schedule!());
    }
    for _ in 0..5 {
        group!(3, schedule!());
    }
    (_mm_add_epi32(abcd, cur), _mm_sha1nexte_epu32(prev, e))
}

/// [`ShaNi::compress_blocks`].
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn sha1_blocks(state: &mut [u32; 5], blocks: &[u8]) {
    // Reverses all sixteen bytes: big-endian word 0 lands in the top lane.
    let bswap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let mut abcd = top_first(&state[..4]);
    let mut e = top_first(&state[4..]);
    for block in blocks.as_chunks::<64>().0 {
        let mut words = [_mm_setzero_si128(); 4];
        for (w, quarter) in words.iter_mut().zip(block.as_chunks::<16>().0) {
            *w = _mm_shuffle_epi8(load(quarter), bswap);
        }
        (abcd, e) = sha1_rounds(abcd, e, words);
    }
    *state = [
        _mm_extract_epi32::<3>(abcd) as u32,
        _mm_extract_epi32::<2>(abcd) as u32,
        _mm_extract_epi32::<1>(abcd) as u32,
        _mm_extract_epi32::<0>(abcd) as u32,
        _mm_extract_epi32::<3>(e) as u32,
    ];
}

/// [`ShaNi::probe`]: two compressions per lane, the inner one over the
/// shared message block, the outer one over the lane's digest, which
/// already sits in the inner result's lanes in message-word order.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn hmac_probe(
    pads: [&[u32]; 10],
    inner: &[u32; 16],
    outer_bits: u32,
    want: &[u32; 5],
    slots: &[u32],
    hits: &mut Vec<u32>,
) {
    let message = [
        top_first(&inner[0..4]),
        top_first(&inner[4..8]),
        top_first(&inner[8..12]),
        top_first(&inner[12..16]),
    ];
    // The outer block after its five digest words: 0x80, zeros, length.
    let digest_end = top_first(&[0, 0x8000_0000]);
    let length = top_first(&[0, 0, 0, outer_bits]);
    let (want_abcd, want_e) = (top_first(&want[..4]), top_first(&want[4..]));
    let n = pads.iter().map(|c| c.len()).fold(slots.len(), usize::min);
    let [i0, i1, i2, i3, i4, o0, o1, o2, o3, o4] = pads.map(|c| &c[..n]);
    for (lane, &slot) in slots[..n].iter().enumerate() {
        let ipad_abcd = top_first(&[i0[lane], i1[lane], i2[lane], i3[lane]]);
        let ipad_e = top_first(&[i4[lane]]);
        let (digest_abcd, digest_e) = sha1_rounds(ipad_abcd, ipad_e, message);
        let opad_abcd = top_first(&[o0[lane], o1[lane], o2[lane], o3[lane]]);
        let opad_e = top_first(&[o4[lane]]);
        let outer = [
            digest_abcd,
            _mm_or_si128(digest_e, digest_end),
            _mm_setzero_si128(),
            length,
        ];
        let (tag_abcd, tag_e) = sha1_rounds(opad_abcd, opad_e, outer);
        let diff = _mm_or_si128(
            _mm_xor_si128(tag_abcd, want_abcd),
            _mm_xor_si128(tag_e, want_e),
        );
        if _mm_testz_si128(diff, diff) == 1 {
            hits.push(slot);
        }
    }
}

/// [`AesNi::expand`].
#[target_feature(enable = "aes,sse2")]
fn aes_expand(key: &[u8; 16], ek: &mut [[u8; 16]; 11], dk: &mut [[u8; 16]; 11]) {
    // Round key i+1 from round key i and KEYGENASSIST's RotWord(SubWord)
    // ^ rcon of its last word, broadcast: each word is the XOR of the
    // previous round key's words up to it, plus that.
    let mut rk = [_mm_setzero_si128(); 11];
    rk[0] = load(key);
    macro_rules! next {
        ($i:literal, $rcon:literal) => {{
            let prev = rk[$i - 1];
            let assist = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<$rcon>(prev));
            let mut k = _mm_xor_si128(prev, _mm_slli_si128::<4>(prev));
            k = _mm_xor_si128(k, _mm_slli_si128::<8>(k));
            rk[$i] = _mm_xor_si128(k, assist);
        }};
    }
    next!(1, 0x01);
    next!(2, 0x02);
    next!(3, 0x04);
    next!(4, 0x08);
    next!(5, 0x10);
    next!(6, 0x20);
    next!(7, 0x40);
    next!(8, 0x80);
    next!(9, 0x1b);
    next!(10, 0x36);
    for (round, (e, d)) in ek.iter_mut().zip(dk.iter_mut().rev()).enumerate() {
        store(e, rk[round]);
        let inv = if round == 0 || round == 10 {
            rk[round]
        } else {
            _mm_aesimc_si128(rk[round])
        };
        store(d, inv);
    }
}

/// The eleven round keys as vectors.
#[inline]
#[target_feature(enable = "aes,sse2")]
fn round_keys(schedule: &[[u8; 16]; 11]) -> [__m128i; 11] {
    let mut rk = [_mm_setzero_si128(); 11];
    for (v, k) in rk.iter_mut().zip(schedule) {
        *v = load(k);
    }
    rk
}

/// [`AesNi::cbc_encrypt`]. Each block's input is the previous block's
/// output, so the blocks run one at a time.
#[target_feature(enable = "aes,sse2")]
fn cbc_encrypt(ek: &[[u8; 16]; 11], iv: &[u8; 16], blocks: &mut [[u8; 16]]) {
    let rk = round_keys(ek);
    let mut chain = load(iv);
    for block in blocks {
        let mut s = _mm_xor_si128(_mm_xor_si128(load(block), chain), rk[0]);
        for k in &rk[1..10] {
            s = _mm_aesenc_si128(s, *k);
        }
        chain = _mm_aesenclast_si128(s, rk[10]);
        store(block, chain);
    }
}

/// [`AesNi::cbc_decrypt`]: four blocks in flight, since each plaintext
/// needs only its own ciphertext and its predecessor's.
#[target_feature(enable = "aes,sse2")]
fn cbc_decrypt(dk: &[[u8; 16]; 11], iv: &[u8; 16], blocks: &mut [[u8; 16]]) {
    let rk = round_keys(dk);
    let mut chain = load(iv);
    let (quads, rest) = blocks.as_chunks_mut::<4>();
    for quad in quads {
        let c = [
            load(&quad[0]),
            load(&quad[1]),
            load(&quad[2]),
            load(&quad[3]),
        ];
        let mut s = c.map(|x| _mm_xor_si128(x, rk[0]));
        for k in &rk[1..10] {
            for x in &mut s {
                *x = _mm_aesdec_si128(*x, *k);
            }
        }
        let preds = [chain, c[0], c[1], c[2]];
        for ((block, x), pred) in quad.iter_mut().zip(s).zip(preds) {
            store(block, _mm_xor_si128(_mm_aesdeclast_si128(x, rk[10]), pred));
        }
        chain = c[3];
    }
    for block in rest {
        let c = load(block);
        let mut s = _mm_xor_si128(c, rk[0]);
        for k in &rk[1..10] {
            s = _mm_aesdec_si128(s, *k);
        }
        store(block, _mm_xor_si128(_mm_aesdeclast_si128(s, rk[10]), chain));
        chain = c;
    }
}
