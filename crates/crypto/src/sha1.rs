//! SHA-1 (RFC 3174 / FIPS 180-1), implemented from the specification.
//!
//! SHA-1 instantiates the paper's one-way hash `H` used for hierarchical
//! child-key derivation and, through HMAC, the keyed hash `KH` and PRF `F`.

use crate::digest::Digest;
use crate::zeroize::{zeroize, zeroize_u32};

/// Streaming SHA-1 hasher.
///
/// # Example
///
/// ```
/// use psguard_crypto::Sha1;
///
/// let d = Sha1::digest(b"abc");
/// assert_eq!(
///     d,
///     [
///         0xa9, 0x99, 0x3e, 0x36, 0x47, 0x06, 0x81, 0x6a, 0xba, 0x3e, 0x25, 0x71, 0x78, 0x50,
///         0xc2, 0x6c, 0x9c, 0xd0, 0xd8, 0x9d
///     ]
/// );
/// ```
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl std::fmt::Debug for Sha1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha1")
            .field("total_len", &self.total_len)
            .finish_non_exhaustive()
    }
}

impl Default for Sha1 {
    fn default() -> Self {
        <Self as Digest>::new()
    }
}

const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// One block's fully expanded message schedule. [`ProbeTable`] expands the
/// shared nonce block once per event and replays it against every token's
/// pad state through [`compress_expanded`].
///
/// [`ProbeTable`]: crate::ProbeTable
pub(crate) type Schedule = [u32; 80];

fn ch(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

fn maj(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (d & (b ^ c))
}

/// The 80 rounds of the compression function over `state`, plus the final
/// feed-forward. `w(t)` supplies schedule word `t` and is called exactly
/// once per round, in order — so the caller decides whether the schedule
/// is rolled on the fly or read from a prepared [`Schedule`].
///
/// Each round group is written out with the roles of `a..e` rotating by
/// name: no value moves between registers and every `t` is a constant
/// after inlining.
#[inline(always)]
fn rounds(state: &[u32; 5], mut w: impl FnMut(usize) -> u32) -> [u32; 5] {
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    macro_rules! round {
        ($f:ident, $k:literal, $t:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add($f($b, $c, $d))
                .wrapping_add($k)
                .wrapping_add(w($t));
            $b = $b.rotate_left(30);
        };
    }
    macro_rules! five {
        ($f:ident, $k:literal, $t:expr) => {
            round!($f, $k, $t, a, b, c, d, e);
            round!($f, $k, $t + 1, e, a, b, c, d);
            round!($f, $k, $t + 2, d, e, a, b, c);
            round!($f, $k, $t + 3, c, d, e, a, b);
            round!($f, $k, $t + 4, b, c, d, e, a);
        };
    }
    macro_rules! group {
        ($f:ident, $k:literal, $t:expr) => {
            five!($f, $k, $t);
            five!($f, $k, $t + 5);
            five!($f, $k, $t + 10);
            five!($f, $k, $t + 15);
        };
    }
    group!(ch, 0x5A827999u32, 0);
    group!(parity, 0x6ED9EBA1u32, 20);
    group!(maj, 0x8F1BBCDCu32, 40);
    group!(parity, 0xCA62C1D6u32, 60);
    [
        state[0].wrapping_add(a),
        state[1].wrapping_add(b),
        state[2].wrapping_add(c),
        state[3].wrapping_add(d),
        state[4].wrapping_add(e),
    ]
}

/// Reads `bytes` as big-endian words into the front of `words`.
pub(crate) fn load_be(words: &mut [u32], bytes: &[u8]) {
    for (w, chunk) in words.iter_mut().zip(bytes.chunks_exact(4)) {
        *w = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
}

/// Word `t >= 16` of the schedule rolled in place over a 16-word window.
#[inline(always)]
fn roll(w: &mut [u32; 16], t: usize) -> u32 {
    let v = (w[(t - 3) & 15] ^ w[(t - 8) & 15] ^ w[(t - 14) & 15] ^ w[t & 15]).rotate_left(1);
    w[t & 15] = v;
    v
}

/// The SHA-1 compression function over one block of sixteen big-endian
/// words, rolling the schedule through a 16-word window.
#[inline]
pub(crate) fn compress(state: &[u32; 5], mut block: [u32; 16]) -> [u32; 5] {
    rounds(state, |t| {
        if t < 16 {
            block[t]
        } else {
            roll(&mut block, t)
        }
    })
}

/// Expands `block` into its full schedule, for [`compress_expanded`].
pub(crate) fn expand(mut block: [u32; 16]) -> Schedule {
    let mut w = [0u32; 80];
    w[..16].copy_from_slice(&block);
    for (t, slot) in w.iter_mut().enumerate().skip(16) {
        *slot = roll(&mut block, t);
    }
    w
}

/// [`compress`] over a block whose schedule was already expanded: the
/// rounds alone, with no schedule arithmetic.
pub(crate) fn compress_expanded(state: &[u32; 5], w: &Schedule) -> [u32; 5] {
    rounds(state, |t| w[t])
}

impl Sha1 {
    /// One-shot SHA-1 digest returning a fixed-size array.
    pub fn digest(data: &[u8]) -> [u8; 20] {
        let mut s = <Self as Digest>::new();
        Digest::update(&mut s, data);
        s.finalize_fixed()
    }

    /// Consumes the hasher and returns the digest as a fixed-size array
    /// without any heap allocation. This is the hot-path finalize used by
    /// [`crate::PrfContext`], where the per-call `Vec`s of
    /// [`Digest::finalize`] would dominate the amortized cost.
    pub fn finalize_fixed(mut self) -> [u8; 20] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Merkle–Damgård padding on the stack: 0x80, zeros to 56 mod 64,
        // then the 8-byte big-endian bit length (≤ 72 bytes total).
        let rem = (self.total_len % 64) as usize;
        let pad_len = if rem < 56 { 56 - rem } else { 120 - rem };
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        // absorb() advances total_len, but the length is already latched.
        self.absorb(&pad[..pad_len + 8]);
        debug_assert_eq!(self.buffer_len, 0);
        let mut out = [0u8; 20];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The chaining state after the whole blocks absorbed so far — for
    /// [`crate::ProbeTable`], which resumes from pad-absorbed states
    /// without carrying the streaming buffer along.
    pub(crate) fn chaining_state(&self) -> [u32; 5] {
        debug_assert_eq!(self.buffer_len, 0, "mid-block state is not resumable");
        self.state
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut words = [0u32; 16];
        load_be(&mut words, block);
        self.state = compress(&self.state, words);
    }

    fn absorb(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            } else {
                // Buffer still partial and input exhausted.
                return;
            }
        }
        let mut chunks = data.chunks_exact(64);
        for chunk in &mut chunks {
            let mut block = [0u8; 64];
            block.copy_from_slice(chunk);
            self.compress(&block);
        }
        let rem = chunks.remainder();
        self.buffer[..rem.len()].copy_from_slice(rem);
        self.buffer_len = rem.len();
    }
}

impl Digest for Sha1 {
    const OUTPUT_LEN: usize = 20;
    const BLOCK_LEN: usize = 64;

    fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    fn update(&mut self, data: &[u8]) {
        self.absorb(data);
    }

    fn finalize(self) -> Vec<u8> {
        self.finalize_fixed().to_vec()
    }

    fn wipe(&mut self) {
        zeroize(&mut self.buffer);
        zeroize_u32(&mut self.state);
        *self = <Self as Digest>::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 3174 and FIPS 180-1 test vectors.
    #[test]
    fn rfc3174_abc() {
        assert_eq!(
            hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn rfc3174_two_block() {
        assert_eq!(
            hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn rfc3174_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha1::digest(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn rfc3174_eighty_repeats() {
        let data = b"01234567".repeat(80);
        assert_eq!(
            hex(&Sha1::digest(&data)),
            "dea356a2cddd90c7a7ecedc5ebb563934f460452"
        );
    }

    #[test]
    fn expanded_schedule_replays_to_the_same_state() {
        // The sweep kernel's split (expand once, replay per state) must be
        // the compression function itself, from any chaining state.
        let mut state = H0;
        for seed in 0u32..64 {
            let block: [u32; 16] =
                std::array::from_fn(|i| (seed + 1).wrapping_mul(0x9E37_79B9).rotate_left(i as u32));
            let next = compress(&state, block);
            assert_eq!(compress_expanded(&state, &expand(block)), next);
            state = next;
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(
            hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        let expect = Sha1::digest(&data);
        for split in 0..data.len() {
            let mut s = <Sha1 as Digest>::new();
            s.update(&data[..split]);
            s.update(&data[split..]);
            assert_eq!(Digest::finalize(s), expect.to_vec(), "split={split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise the 55/56/64-byte padding boundaries.
        for len in [55usize, 56, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xABu8; len];
            let mut s = <Sha1 as Digest>::new();
            for b in &data {
                s.update(std::slice::from_ref(b));
            }
            assert_eq!(
                Digest::finalize(s),
                Sha1::digest(&data).to_vec(),
                "len={len}"
            );
        }
    }
}
