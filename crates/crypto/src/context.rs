//! Reusable keyed crypto contexts that amortize per-key setup across events.
//!
//! The one-shot APIs (`prf`, `hmac_sha1`) redo key setup on every call:
//! HMAC hashes the padded key block twice (two compression-function calls)
//! before touching the message. On the hot paths the *same* key is used
//! for thousands of messages — a publisher tags a stream of events under
//! one topic token, a broker probes every event against every live
//! subscription token. The contexts here precompute the keyed state once:
//!
//! * [`PrfContext`] — one key, many messages: the pad-absorbed SHA-1
//!   states of the tokenization PRF `F` (HMAC-SHA1), two compressions per
//!   call instead of four, and no heap traffic;
//! * [`ProbeTable`] — many keys, one message: the broker's per-event form
//!   of the same idea, the pad states of every live subscription token in
//!   one dense table, swept against an event tag on the SHA instructions
//!   or, without them, with the nonce block's message schedule expanded
//!   once and shared by all tokens.
//!
//! Both hold key-equivalent material (pad-absorbed digest states are as
//! good as the key for forging MACs), so they wipe themselves on drop,
//! print redacted `Debug` forms, and are on the psguard-xtask
//! secret-hygiene taint list.

use crate::hmac::{finish, keyed_pads};
use crate::prf::{Token, TOKEN_LEN};
use crate::sha1::{compress_lanes_digest, compress_lanes_shared, expand, load_be, Sha1, LANES};
use crate::zeroize::zeroize_u32;
use crate::BLOCK_SIZE;

/// A reusable context for the tokenization PRF `F` (HMAC-SHA1), keyed by a
/// subscription token or PRF key.
///
/// A publisher tags a stream of events under one topic token, a KDC
/// derives many keys under one parent: the context holds the pad-absorbed
/// SHA-1 states, cutting each call from four compressions (two pads +
/// message block + outer block) to two, with no heap allocation. (The
/// broker side, many tokens against one tag, is [`ProbeTable`].)
///
/// Output is byte-identical to the one-shot [`crate::prf`] for every
/// input (asserted against the RFC 2202 vectors in the crate's vector
/// table).
///
/// # Example
///
/// ```
/// use psguard_crypto::{prf, PrfContext};
///
/// let token = prf(b"rk(KDC)", b"cancerTrail");
/// let ctx = PrfContext::for_token(&token);
/// let tag = prf(token.as_bytes(), b"nonce");
/// assert_eq!(ctx.prf(b"nonce"), tag);
/// ```
#[derive(Clone)]
pub struct PrfContext {
    inner: Sha1,
    outer: Sha1,
}

impl std::fmt::Debug for PrfContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrfContext").finish_non_exhaustive()
    }
}

impl PrfContext {
    /// Precomputes the keyed pad states for a raw PRF key.
    pub fn new(key: &[u8]) -> Self {
        let (inner, outer) = keyed_pads(key);
        Self { inner, outer }
    }

    /// Context keyed by a subscription token `T(w)`, for probing event
    /// tags `⟨r, F_{T(w)}(r)⟩`.
    pub fn for_token(token: &Token) -> Self {
        Self::new(token.as_bytes())
    }

    /// Computes `F_key(data)`, byte-identical to [`crate::prf`].
    pub fn prf(&self, data: &[u8]) -> Token {
        let mut inner = self.inner.clone();
        inner.update(data);
        Token::from_raw(finish(inner, self.outer.clone()))
    }
}

impl Drop for PrfContext {
    fn drop(&mut self) {
        // The pad-absorbed states are key-equivalent: wipe them.
        self.inner.wipe();
        self.outer.wipe();
    }
}

/// Bit length of the inner hash input: the ipad block plus a 16-byte nonce.
const INNER_BITS: u32 = 8 * (64 + BLOCK_SIZE as u32);
/// Bit length of the outer hash input: the opad block plus the inner digest.
const OUTER_BITS: u32 = 8 * (64 + TOKEN_LEN as u32);

/// Words per lane: a token's HMAC-SHA1 chaining states after its ipad
/// block (columns `0..5`) and its opad block (columns `5..10`).
const COLUMNS: usize = 10;
/// Lanes the first growth of an empty table allocates.
const MIN_LANES: usize = 16;
/// `lane_of` entry of a slot that holds no token.
const NO_LANE: u32 = u32::MAX;

/// The broker's token-probe kernel: the pad states of every live
/// subscription token, swept against one event tag `⟨r, F_{T(w)}(r)⟩` per
/// call (the paper's §4.1 test `F_tok(r) = match`, once per token).
///
/// Slots are addressed by the caller (the match index keeps one per
/// bucket) and may be cleared and set again. The live tokens are stored
/// densely, one *lane* each, as ten `u32` columns: the five words of the
/// ipad state and the five of the opad state, each as good as the token.
/// Clearing a slot moves the last lane into its place. Every path that
/// lets go of pad-state words wipes them: growth copies the columns into a
/// larger buffer and wipes the old one, clearing wipes the vacated last
/// lane, and dropping wipes every column.
///
/// Each lane costs exactly two compressions per [`sweep`](Self::sweep):
/// the inner one from its ipad state over the nonce block, which is the
/// same for every token, the outer one from its opad state over its own
/// digest block. On a CPU with the SHA instructions both run on them, one
/// lane after another. Elsewhere the lane kernels run: the nonce block's
/// message schedule is expanded once and the lanes go in chunks of up to
/// 64, round-major, each of a compression's 80 rounds one loop over the
/// chunk's lanes, which the compiler vectorises. Every live token is
/// probed whether or not an earlier one matched, and digests are compared
/// by OR-folding word differences, so the time of a sweep depends on the
/// number of live tokens alone.
///
/// Hits are exactly the tokens `tok` with `prf(tok, nonce) == tag`.
///
/// # Example
///
/// ```
/// use psguard_crypto::{prf, ProbeTable};
///
/// let tokens = [prf(b"rk(KDC)", b"cancerTrail"), prf(b"rk(KDC)", b"weather")];
/// let mut table = ProbeTable::new();
/// for (slot, token) in tokens.iter().enumerate() {
///     table.set(slot as u32, token);
/// }
/// let nonce = [7u8; 16];
/// let tag = prf(tokens[1].as_bytes(), &nonce);
/// let mut hits = Vec::new();
/// table.sweep(&nonce, &tag, &mut hits);
/// assert_eq!(hits, [1]);
/// ```
#[derive(Clone, Default)]
pub struct ProbeTable {
    /// The ten columns in one buffer, `capacity()` words each: word `j` of
    /// lane `i` is at `j * capacity() + i`. Lanes past `len()` are zero.
    columns: Box<[u32]>,
    /// lane → slot.
    slot_of: Vec<u32>,
    /// slot → lane, or [`NO_LANE`].
    lane_of: Vec<u32>,
}

impl std::fmt::Debug for ProbeTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeTable")
            .field("live", &self.len())
            .finish_non_exhaustive()
    }
}

impl ProbeTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live slots: the probes one [`sweep`](Self::sweep) performs.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Whether no slot is live.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Lanes each column has room for.
    fn capacity(&self) -> usize {
        self.columns.len() / COLUMNS
    }

    /// Keys `slot` with `token` (two compressions), growing the table as
    /// needed and replacing whatever the slot held.
    pub fn set(&mut self, slot: u32, token: &Token) {
        let index = slot as usize;
        if index >= self.lane_of.len() {
            self.lane_of.resize(index + 1, NO_LANE);
        }
        let lane = match self.lane_of[index] {
            NO_LANE => {
                if self.len() == self.capacity() {
                    self.grow();
                }
                let lane = self.len();
                self.slot_of.push(slot);
                self.lane_of[index] = lane as u32;
                lane
            }
            lane => lane as usize,
        };
        let ctx = PrfContext::for_token(token);
        let mut pads = [0u32; COLUMNS];
        pads[..5].copy_from_slice(&ctx.inner.chaining_state());
        pads[5..].copy_from_slice(&ctx.outer.chaining_state());
        let capacity = self.capacity();
        for (column, &word) in self.columns.chunks_exact_mut(capacity).zip(&pads) {
            column[lane] = word;
        }
        zeroize_u32(&mut pads);
    }

    /// Doubles the lane capacity: copies the live lanes into a new buffer,
    /// then wipes the old one before it is freed.
    fn grow(&mut self) {
        let (old, live) = (self.capacity(), self.len());
        let capacity = (2 * old).max(MIN_LANES);
        let mut columns = vec![0u32; COLUMNS * capacity].into_boxed_slice();
        for j in 0..COLUMNS {
            columns[j * capacity..][..live].copy_from_slice(&self.columns[j * old..][..live]);
        }
        zeroize_u32(&mut self.columns);
        self.columns = columns;
    }

    /// Wipes `slot`; later sweeps skip it. Clearing a dead or unknown
    /// slot is a no-op.
    pub fn clear(&mut self, slot: u32) {
        let Some(&lane) = self.lane_of.get(slot as usize) else {
            return;
        };
        if lane == NO_LANE {
            return;
        }
        // Swap-remove: the last lane moves into the cleared one, and its
        // old place is wiped.
        let (lane, last) = (lane as usize, self.len() - 1);
        let capacity = self.capacity();
        for column in self.columns.chunks_exact_mut(capacity) {
            column[lane] = column[last];
            zeroize_u32(&mut column[last..=last]);
        }
        let moved = self.slot_of[last];
        self.slot_of.swap_remove(lane);
        self.lane_of[moved as usize] = lane as u32;
        self.lane_of[slot as usize] = NO_LANE;
    }

    /// Appends to `hits` the slot of every live token `tok` with
    /// `F_tok(nonce) == tag`, in slot order.
    pub fn sweep(&self, nonce: &[u8; BLOCK_SIZE], tag: &Token, hits: &mut Vec<u32>) {
        self.sweep_by(Self::probe, nonce, tag, hits);
    }

    /// [`sweep`](Self::sweep) on the lane kernels alone.
    #[cfg(test)]
    pub(crate) fn sweep_portable(
        &self,
        nonce: &[u8; BLOCK_SIZE],
        tag: &Token,
        hits: &mut Vec<u32>,
    ) {
        self.sweep_by(Self::probe_lanes, nonce, tag, hits);
    }

    /// [`sweep`](Self::sweep) with `probe` as the kernel.
    fn sweep_by(
        &self,
        probe: fn(&Self, &[u32; 16], &[u32; 5], &mut Vec<u32>),
        nonce: &[u8; BLOCK_SIZE],
        tag: &Token,
        hits: &mut Vec<u32>,
    ) {
        // Inner message block, the same for every token:
        // nonce ‖ 0x80 ‖ 0… ‖ bit length.
        let mut block = [0u32; 16];
        load_be(&mut block, nonce);
        block[4] = 0x8000_0000;
        block[15] = INNER_BITS;
        let mut want = [0u32; 5];
        load_be(&mut want, tag.as_bytes());

        let first = hits.len();
        probe(self, &block, &want, hits);
        // Lanes are in no particular slot order.
        hits[first..].sort_unstable();
    }

    /// The ten pad-state columns, live lanes only.
    fn pads(&self) -> [&[u32]; COLUMNS] {
        let capacity = self.capacity();
        std::array::from_fn(|j| &self.columns[j * capacity..][..self.len()])
    }

    /// Pushes the slot of every lane whose HMAC of the inner `block`
    /// equals `want`, in lane order: on the SHA instructions when the CPU
    /// has them, else on the lane kernels.
    fn probe(&self, block: &[u32; 16], want: &[u32; 5], hits: &mut Vec<u32>) {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = crate::x86::ShaNi::detect() {
            ni.probe(self.pads(), block, OUTER_BITS, want, &self.slot_of, hits);
            return;
        }
        self.probe_lanes(block, want, hits);
    }

    /// [`probe`](Self::probe) on the lane kernels: the inner block's
    /// schedule is expanded once and shared by every lane.
    fn probe_lanes(&self, block: &[u32; 16], want: &[u32; 5], hits: &mut Vec<u32>) {
        let schedule = expand(*block);
        let pads = self.pads();
        let (mut inner, mut outer) = ([[0u32; LANES]; 5], [[0u32; LANES]; 5]);
        for start in (0..self.len()).step_by(LANES) {
            let lanes = start..self.len().min(start + LANES);
            let column = |j: usize| &pads[j][lanes.clone()];
            // The inner digest, then the outer block over it:
            // digest ‖ 0x80 ‖ 0… ‖ bit length.
            compress_lanes_shared(std::array::from_fn(column), &schedule, &mut inner);
            compress_lanes_digest(
                std::array::from_fn(|j| column(5 + j)),
                &inner,
                OUTER_BITS,
                &mut outer,
            );
            for (i, &slot) in self.slot_of[lanes].iter().enumerate() {
                let diff = outer
                    .iter()
                    .zip(want)
                    .fold(0, |acc, (got, w)| acc | (got[i] ^ w));
                if diff == 0 {
                    hits.push(slot);
                }
            }
        }
    }
}

impl Drop for ProbeTable {
    fn drop(&mut self) {
        zeroize_u32(&mut self.columns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prf::prf;

    #[test]
    fn prf_context_matches_oneshot_prf() {
        let token = prf(b"rk(KDC)", b"stockQuote");
        let ctx = PrfContext::for_token(&token);
        for r in [b"r1".as_slice(), b"r2", &[0u8; 16], &[0xff; 64]] {
            assert_eq!(ctx.prf(r), prf(token.as_bytes(), r));
            assert_ne!(ctx.prf(r), prf(b"other key", r));
        }
    }

    #[test]
    fn probe_table_slots_follow_set_and_clear() {
        let tokens = [prf(b"rk(KDC)", b"a"), prf(b"rk(KDC)", b"b")];
        let nonce = [5u8; 16];
        let tags = tokens.map(|t| prf(t.as_bytes(), &nonce));
        let sweep = |table: &ProbeTable, tag: &Token| {
            let mut hits = Vec::new();
            table.sweep(&nonce, tag, &mut hits);
            hits
        };
        let mut table = ProbeTable::new();
        assert!(table.is_empty());
        // Slots need not be contiguous; the gap stays dead.
        table.set(4, &tokens[0]);
        table.set(1, &tokens[1]);
        assert_eq!(table.len(), 2);
        assert_eq!(sweep(&table, &tags[0]), [4]);
        assert_eq!(sweep(&table, &tags[1]), [1]);
        table.clear(4);
        table.clear(4); // idempotent
        table.clear(99); // unknown slot
        assert_eq!(table.len(), 1);
        assert!(sweep(&table, &tags[0]).is_empty());
        // Re-keying a live slot replaces its token.
        table.set(1, &tokens[0]);
        assert_eq!(table.len(), 1);
        assert_eq!(sweep(&table, &tags[0]), [1]);
        assert!(sweep(&table, &tags[1]).is_empty());
    }

    #[test]
    fn probe_table_wipes_the_lanes_it_vacates() {
        // Lanes past `len()` hold no pad-state words: growth copies only
        // the live lanes, and a clear wipes the lane its swap-remove
        // vacates.
        let vacated_are_zero = |t: &ProbeTable| {
            t.columns
                .chunks_exact(t.capacity())
                .all(|column| column[t.len()..].iter().all(|&w| w == 0))
        };
        let mut table = ProbeTable::new();
        for slot in 0..40u32 {
            table.set(slot, &prf(b"rk(KDC)", &slot.to_be_bytes()));
            assert!(vacated_are_zero(&table), "after set({slot})");
        }
        assert_eq!(table.capacity(), 64);
        for slot in (0..40u32).step_by(3) {
            table.clear(slot);
            assert!(vacated_are_zero(&table), "after clear({slot})");
        }
        assert_eq!(table.len(), 26);
    }

    #[test]
    fn prf_context_reuse_across_many_inputs() {
        let ctx = PrfContext::new(b"key");
        for i in 0..200u32 {
            let data = i.to_be_bytes();
            assert_eq!(ctx.prf(&data), prf(b"key", &data), "i={i}");
        }
    }

    #[test]
    fn contexts_debug_is_redacted() {
        let p = PrfContext::new(b"secret key material");
        assert_eq!(format!("{p:?}"), "PrfContext { .. }");
        let mut t = ProbeTable::new();
        t.set(3, &prf(b"rk(KDC)", b"stockQuote"));
        assert_eq!(format!("{t:?}"), "ProbeTable { live: 1, .. }");
    }
}
