//! SHA-1 (RFC 3174 / FIPS 180-1), implemented from the specification.
//!
//! SHA-1 instantiates the paper's one-way hash `H` used for hierarchical
//! child-key derivation and, through HMAC, the keyed hash `KH` and PRF `F`.

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
        Self::new()
    }
}

const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// One block's fully expanded message schedule. [`ProbeTable`] expands the
/// shared nonce block once per event; [`compress_lanes_shared`] then adds
/// word `t` to every lane in round `t` as one scalar, with no schedule
/// arithmetic per lane.
///
/// [`ProbeTable`]: crate::ProbeTable
pub(crate) type Schedule = [u32; 80];

/// Most lanes one call of a lane kernel takes: a sweep runs its tokens in
/// chunks of this many.
pub(crate) const LANES: usize = 64;

/// Up to [`LANES`] chaining states, word-major: `lanes[j][i]` is word `j`
/// of lane `i`'s state.
pub(crate) type LaneStates = [[u32; LANES]; 5];

/// Sixteen consecutive message-schedule words of up to [`LANES`] lanes,
/// word-major like [`LaneStates`].
type LaneWindow = [[u32; LANES]; 16];

fn ch(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

fn maj(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (d & (b ^ c))
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
///
/// Each round group is written out with the roles of `a..e` rotating by
/// name: no value moves between registers and every `t` is a constant
/// after inlining.
#[inline]
pub(crate) fn compress(state: &[u32; 5], mut block: [u32; 16]) -> [u32; 5] {
    let mut w = |t: usize| {
        if t < 16 {
            block[t]
        } else {
            roll(&mut block, t)
        }
    };
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

/// [`compress`] over every 64-byte block of `blocks`, in order: on the
/// SHA instructions when the CPU has them, else portably. A trailing
/// partial block is ignored.
pub(crate) fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = crate::x86::ShaNi::detect() {
        ni.compress_blocks(state, blocks);
        return;
    }
    compress_blocks_portable(state, blocks);
}

/// [`compress_blocks`] without the SHA instructions.
pub(crate) fn compress_blocks_portable(state: &mut [u32; 5], blocks: &[u8]) {
    for block in blocks.as_chunks::<64>().0 {
        let mut words = [0u32; 16];
        load_be(&mut words, block);
        *state = compress(state, words);
    }
}

/// Expands `block` into its full schedule, for [`compress_lanes_shared`].
pub(crate) fn expand(mut block: [u32; 16]) -> Schedule {
    let mut w = [0u32; 80];
    w[..16].copy_from_slice(&block);
    for (t, slot) in w.iter_mut().enumerate().skip(16) {
        *slot = roll(&mut block, t);
    }
    w
}

/// One round over lanes `0..n`: `e += rotl5(a) + f(b, c, d) + kw + w(i)`,
/// `b = rotl30(b)`, where `kw` is shared by every lane and `w(i)` is lane
/// `i`'s own part of the schedule word.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn lane_round(
    f: impl Fn(u32, u32, u32) -> u32,
    kw: u32,
    a: &[u32],
    b: &mut [u32],
    c: &[u32],
    d: &[u32],
    e: &mut [u32],
    mut w: impl FnMut(usize) -> u32,
) {
    let n = e.len();
    let (a, b, c, d) = (&a[..n], &mut b[..n], &c[..n], &d[..n]);
    for i in 0..n {
        e[i] = e[i]
            .wrapping_add(a[i].rotate_left(5))
            .wrapping_add(f(b[i], c[i], d[i]))
            .wrapping_add(kw)
            .wrapping_add(w(i));
        b[i] = b[i].rotate_left(30);
    }
}

/// The 80 rounds over lanes `0..n` of `s`, round-major: each round is one
/// loop over the lanes, which the loop vectoriser turns into SIMD even on
/// baseline x86-64 (a rotate becomes shift/shift/or). `n` must stay a
/// runtime value: over a constant trip count the loops are unrolled
/// instead, and the SLP vectoriser leaves every rotate scalar. A loop
/// that runs two rounds stays scalar too.
///
/// Word `t` of the message schedule is `shared[t]` plus, with a
/// `window`, a per-lane word: row `t` of the window for `t < 16`, then
/// rolled per lane through its sixteen rows. There is no feed-forward.
#[inline(always)]
fn lane_rounds(
    s: &mut LaneStates,
    n: usize,
    shared: &Schedule,
    mut window: Option<&mut LaneWindow>,
) {
    let [a, b, c, d, e] = s;
    let (a, b, c, d, e) = (
        &mut a[..n],
        &mut b[..n],
        &mut c[..n],
        &mut d[..n],
        &mut e[..n],
    );
    macro_rules! round {
        ($f:ident, $k:literal, $t:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
            let t = $t;
            let kw = shared[t].wrapping_add($k);
            match window.as_deref_mut() {
                None => lane_round($f, kw, $a, $b, $c, $d, $e, |_| 0),
                Some(w) if t < 16 => {
                    let w = &w[t];
                    lane_round($f, kw, $a, $b, $c, $d, $e, |i| w[i]);
                }
                Some(w) => lane_round($f, kw, $a, $b, $c, $d, $e, |i| {
                    let v = (w[(t - 3) & 15][i]
                        ^ w[(t - 8) & 15][i]
                        ^ w[(t - 14) & 15][i]
                        ^ w[t & 15][i])
                        .rotate_left(1);
                    w[t & 15][i] = v;
                    v
                }),
            }
        };
    }
    macro_rules! group {
        ($f:ident, $k:literal, $t:expr) => {
            for t in ($t..$t + 20).step_by(5) {
                round!($f, $k, t, a, b, c, d, e);
                round!($f, $k, t + 1, e, a, b, c, d);
                round!($f, $k, t + 2, d, e, a, b, c);
                round!($f, $k, t + 3, c, d, e, a, b);
                round!($f, $k, t + 4, b, c, d, e, a);
            }
        };
    }
    group!(ch, 0x5A827999u32, 0);
    group!(parity, 0x6ED9EBA1u32, 20);
    group!(maj, 0x8F1BBCDCu32, 40);
    group!(parity, 0xCA62C1D6u32, 60);
}

/// Loads the chaining states `init` (five columns of equal length, at
/// most [`LANES`]) into `s` and returns the lane count.
fn load_lanes(s: &mut LaneStates, init: [&[u32]; 5]) -> usize {
    let n = init[0].len();
    for (row, col) in s.iter_mut().zip(init) {
        row[..n].copy_from_slice(col);
    }
    n
}

/// Adds the chaining states `init` into lanes `0..n` of `s`: SHA-1's
/// feed-forward.
fn feed_forward(s: &mut LaneStates, init: [&[u32]; 5]) {
    for (row, col) in s.iter_mut().zip(init) {
        for (x, &h) in row.iter_mut().zip(col) {
            *x = x.wrapping_add(h);
        }
    }
}

/// [`compress`] once per lane over one block shared by every lane, given
/// as its expanded schedule: lane `i` of `out` becomes
/// `compress(init[..][i], block)`. `init` holds five columns of equal
/// length, at most [`LANES`]; lanes of `out` past that length are left
/// unspecified.
pub(crate) fn compress_lanes_shared(init: [&[u32]; 5], w: &Schedule, out: &mut LaneStates) {
    let n = load_lanes(out, init);
    lane_rounds(out, n, w, None);
    feed_forward(out, init);
}

/// [`compress`] once per lane over the final block of a message whose
/// last 20 bytes are that lane's digest: lane `i` of `out` becomes
/// `compress(init[..][i], digest_i ‖ 0x80 ‖ 0… ‖ bits)`, with `digest_i`
/// lane `i` of `digests`. This is HMAC's outer block, and its schedule
/// rolls per lane through a 16-row window. Shapes are as in
/// [`compress_lanes_shared`].
pub(crate) fn compress_lanes_digest(
    init: [&[u32]; 5],
    digests: &LaneStates,
    bits: u32,
    out: &mut LaneStates,
) {
    let n = load_lanes(out, init);
    let mut window = [[0u32; LANES]; 16];
    for (row, digest) in window.iter_mut().zip(digests) {
        row[..n].copy_from_slice(&digest[..n]);
    }
    window[5] = [0x8000_0000; LANES];
    window[15] = [bits; LANES];
    lane_rounds(out, n, &[0; 80], Some(&mut window));
    feed_forward(out, init);
}

impl Sha1 {
    /// A fresh hasher in its initial state.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot SHA-1 digest.
    pub fn digest(data: &[u8]) -> [u8; 20] {
        let mut s = Self::new();
        s.update(data);
        s.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data);
    }

    /// Consumes the hasher and returns the digest. The padding is built on
    /// the stack: finalizing allocates nothing.
    pub fn finalize(mut self) -> [u8; 20] {
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

    /// Erases any absorbed (possibly key-equivalent) material with
    /// volatile writes and resets the hasher to its initial state. Holders
    /// of keyed pad states call this from `Drop`.
    pub(crate) fn wipe(&mut self) {
        zeroize(&mut self.buffer);
        zeroize_u32(&mut self.state);
        *self = Self::new();
    }

    /// The chaining state after the whole blocks absorbed so far — for
    /// [`crate::ProbeTable`], which resumes from pad-absorbed states
    /// without carrying the streaming buffer along.
    pub(crate) fn chaining_state(&self) -> [u32; 5] {
        debug_assert_eq!(self.buffer_len, 0, "mid-block state is not resumable");
        self.state
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
                compress_blocks(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            } else {
                // Buffer still partial and input exhausted.
                return;
            }
        }
        // Whole blocks straight from the input, in one call; only the
        // partial tail goes through the buffer.
        let (blocks, rem) = data.split_at(data.len() - data.len() % 64);
        compress_blocks(&mut self.state, blocks);
        self.buffer[..rem.len()].copy_from_slice(rem);
        self.buffer_len = rem.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_kernels_equal_scalar_compress_per_lane() {
        // The sweep's split (expand the shared block once, broadcast it to
        // every lane; roll each lane's digest block) must be the
        // compression function itself, per lane, from any chaining state,
        // for any lane count and across chunk boundaries.
        use std::array::from_fn;
        let mut x = 0x9E37_79B9u32;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        for n in [1usize, 3, 4, 5, 63, 64, 65] {
            let states: Vec<[u32; 5]> = (0..n).map(|_| from_fn(|_| next())).collect();
            let digests: Vec<[u32; 5]> = (0..n).map(|_| from_fn(|_| next())).collect();
            let block: [u32; 16] = from_fn(|_| next());
            let bits = next();
            let columns = |rows: &[[u32; 5]]| -> [Vec<u32>; 5] {
                from_fn(|j| rows.iter().map(|r| r[j]).collect())
            };
            let (init, heads) = (columns(&states), columns(&digests));
            let schedule = expand(block);
            for start in (0..n).step_by(LANES) {
                let lanes = start..(start + LANES).min(n);
                let chunk: [&[u32]; 5] = from_fn(|j| &init[j][lanes.clone()]);
                let mut head = [[0; LANES]; 5];
                for (row, col) in head.iter_mut().zip(&heads) {
                    row[..lanes.len()].copy_from_slice(&col[lanes.clone()]);
                }
                let (mut shared, mut tail) = ([[0; LANES]; 5], [[0; LANES]; 5]);
                compress_lanes_shared(chunk, &schedule, &mut shared);
                compress_lanes_digest(chunk, &head, bits, &mut tail);
                for (i, lane) in lanes.enumerate() {
                    let at = |s: &LaneStates| -> [u32; 5] { from_fn(|j| s[j][i]) };
                    assert_eq!(
                        at(&shared),
                        compress(&states[lane], block),
                        "n={n} lane={lane}"
                    );
                    let mut last = [0u32; 16];
                    last[..5].copy_from_slice(&digests[lane]);
                    last[5] = 0x8000_0000;
                    last[15] = bits;
                    assert_eq!(
                        at(&tail),
                        compress(&states[lane], last),
                        "n={n} lane={lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        let expect = Sha1::digest(&data);
        for split in 0..data.len() {
            let mut s = Sha1::new();
            s.update(&data[..split]);
            s.update(&data[split..]);
            assert_eq!(s.finalize(), expect, "split={split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise the 55/56/64-byte padding boundaries.
        for len in [55usize, 56, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xABu8; len];
            let mut s = Sha1::new();
            for b in &data {
                s.update(std::slice::from_ref(b));
            }
            assert_eq!(s.finalize(), Sha1::digest(&data), "len={len}");
        }
    }
}
