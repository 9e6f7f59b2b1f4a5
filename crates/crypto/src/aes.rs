//! AES-128 block cipher (FIPS-197) in the 32-bit table formulation.
//!
//! AES-128 in CBC mode instantiates the paper's event-encryption algorithm
//! `E`: a publisher encrypts the secret attributes of an event with the
//! event key `K(e)` derived from the key hierarchy.
//!
//! A round is four lookups per output column into one 1 KiB table: [`TE`]
//! folds SubBytes and MixColumns into one word per byte value, and the
//! other three byte positions are the same entry rotated, so ShiftRows is
//! only the choice of which state byte feeds which column. Decryption is
//! FIPS-197 §5.3.5's equivalent inverse cipher: the same round shape over
//! [`TD`] (InvSubBytes and InvMixColumns), with round keys that have been
//! through InvMixColumns once at key setup. The final round has no column
//! mix and reads the plain S-boxes.
//!
//! Table indices are secret state bytes, so lookup timing depends on the
//! cache; DESIGN.md §2 and §9 state why that is outside this system's
//! threat model. On a CPU with AES-NI the tables are not used: `x86.rs`
//! runs every block and key expansion on the AES instructions, over the
//! same schedule.

/// AES block size in bytes.
pub const BLOCK_SIZE: usize = 16;

const NR: usize = 10; // rounds for AES-128
const WORDS: usize = 4 * (NR + 1); // round-key words in a schedule

/// The AES S-box (FIPS-197 figure 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// The inverse S-box, inverted from [`SBOX`] at compile time.
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// SubBytes then MixColumns of one state byte in row 0, as a column word
/// (row 0 in the top byte): `(2·S[x], S[x], S[x], 3·S[x])`. The byte in
/// row `r` uses the same entry rotated right by `8r` bits.
const TE: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        t[i] = u32::from_be_bytes([gmul(s, 2), s, s, gmul(s, 3)]);
        i += 1;
    }
    t
};

/// InvSubBytes then InvMixColumns of one state byte in row 0:
/// `(14·S⁻¹[x], 9·S⁻¹[x], 13·S⁻¹[x], 11·S⁻¹[x])`, rotated like [`TE`].
const TD: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = INV_SBOX[i];
        t[i] = u32::from_be_bytes([gmul(s, 14), gmul(s, 9), gmul(s, 13), gmul(s, 11)]);
        i += 1;
    }
    t
};

/// Multiplication by `x` in GF(2^8) with the AES polynomial.
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

/// General GF(2^8) multiplication; builds the tables and nothing else.
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// Byte `row` (0 = top) of a column word, as a table index.
#[inline(always)]
fn byte(word: u32, row: u32) -> usize {
    (word >> (24 - 8 * row)) as u8 as usize
}

/// SubWord: the S-box applied to each byte of a key-schedule word.
fn sub_word(word: u32) -> u32 {
    u32::from_be_bytes(word.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// InvMixColumns of one column word. `TD[SBOX[b]]` is InvMixColumns of a
/// column holding `b` in row 0 alone, so four rotated lookups sum it.
fn inv_mix_column(word: u32) -> u32 {
    (0..4).fold(0, |acc, row| {
        acc ^ TD[SBOX[byte(word, row)] as usize].rotate_right(8 * row)
    })
}

/// Round keys: one 16-byte key per round, FIPS-197 §5.2 words in
/// big-endian byte order. The table rounds read them as column words, the
/// AES instructions as vectors.
type Schedule = [[u8; BLOCK_SIZE]; NR + 1];

/// One round key as four column words.
#[inline(always)]
fn columns(rk: &[u8; BLOCK_SIZE]) -> [u32; 4] {
    std::array::from_fn(|c| {
        u32::from_be_bytes([rk[4 * c], rk[4 * c + 1], rk[4 * c + 2], rk[4 * c + 3]])
    })
}

/// Loads a block as four column words and adds the first round key.
#[inline(always)]
fn load(block: &[u8; 16], rk: &[u8; BLOCK_SIZE]) -> [u32; 4] {
    let (s, k) = (columns(block), columns(rk));
    std::array::from_fn(|c| s[c] ^ k[c])
}

/// Stores four column words back into a block.
#[inline(always)]
fn store(block: &mut [u8; 16], s: [u32; 4]) {
    for (out, word) in block.chunks_exact_mut(4).zip(s) {
        out.copy_from_slice(&word.to_be_bytes());
    }
}

/// An expanded AES-128 key ready for block encryption/decryption.
///
/// Blocks run on the AES instructions when the CPU has them, else on the
/// table rounds; both read the one schedule stored here.
///
/// # Example
///
/// ```
/// use psguard_crypto::Aes128;
///
/// let cipher = Aes128::new(&[0u8; 16]);
/// let mut block = [0u8; 16];
/// cipher.encrypt_block(&mut block);
/// cipher.decrypt_block(&mut block);
/// assert_eq!(block, [0u8; 16]);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// Encryption round keys.
    ek: Schedule,
    /// Decryption round keys of the equivalent inverse cipher: `ek` in
    /// reverse round order, rounds 1–9 through InvMixColumns.
    dk: Schedule,
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key schedule material through Debug.
        f.write_str("Aes128 { .. }")
    }
}

// Zeroize-on-drop: either schedule inverts to the key itself.
impl Drop for Aes128 {
    fn drop(&mut self) {
        crate::zeroize::zeroize(self.ek.as_flattened_mut());
        crate::zeroize::zeroize(self.dk.as_flattened_mut());
    }
}

impl Aes128 {
    /// Expands a 16-byte key into the encryption and decryption round-key
    /// schedules.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut cipher = Self {
            ek: [[0; BLOCK_SIZE]; NR + 1],
            dk: [[0; BLOCK_SIZE]; NR + 1],
        };
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = crate::x86::AesNi::detect() {
            ni.expand(key, &mut cipher.ek, &mut cipher.dk);
            return cipher;
        }
        cipher.expand_portable(key);
        cipher
    }

    /// [`new`](Self::new)'s key expansion without the AES instructions.
    pub(crate) fn expand_portable(&mut self, key: &[u8; 16]) {
        let mut ek = [0u32; WORDS];
        for (word, bytes) in ek.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let mut rcon: u8 = 1;
        for i in 4..WORDS {
            let mut temp = ek[i - 1];
            if i % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
                rcon = xtime(rcon);
            }
            ek[i] = ek[i - 4] ^ temp;
        }
        for (round, (e, d)) in self.ek.iter_mut().zip(self.dk.iter_mut().rev()).enumerate() {
            let words = &ek[4 * round..][..4];
            for ((e, d), &w) in e.chunks_exact_mut(4).zip(d.chunks_exact_mut(4)).zip(words) {
                e.copy_from_slice(&w.to_be_bytes());
                let inv = if round == 0 || round == NR {
                    w
                } else {
                    inv_mix_column(w)
                };
                d.copy_from_slice(&inv.to_be_bytes());
            }
        }
        crate::zeroize::zeroize_u32(&mut ek);
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = crate::x86::AesNi::detect() {
            ni.encrypt_block(&self.ek, block);
            return;
        }
        self.encrypt_portable(block);
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = crate::x86::AesNi::detect() {
            ni.decrypt_block(&self.dk, block);
            return;
        }
        self.decrypt_portable(block);
    }

    /// CBC-encrypts `blocks` in place, chained from `iv`.
    pub(crate) fn cbc_encrypt_blocks(
        &self,
        iv: &[u8; BLOCK_SIZE],
        blocks: &mut [[u8; BLOCK_SIZE]],
    ) {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = crate::x86::AesNi::detect() {
            ni.cbc_encrypt(&self.ek, iv, blocks);
            return;
        }
        let mut prev = *iv;
        for block in blocks {
            for (b, p) in block.iter_mut().zip(prev.iter()) {
                *b ^= p;
            }
            self.encrypt_portable(block);
            prev = *block;
        }
    }

    /// CBC-decrypts `blocks` in place, chained from `iv`.
    pub(crate) fn cbc_decrypt_blocks(
        &self,
        iv: &[u8; BLOCK_SIZE],
        blocks: &mut [[u8; BLOCK_SIZE]],
    ) {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = crate::x86::AesNi::detect() {
            ni.cbc_decrypt(&self.dk, iv, blocks);
            return;
        }
        let mut prev = *iv;
        for block in blocks {
            let cipher_block = *block;
            self.decrypt_portable(block);
            for (b, p) in block.iter_mut().zip(prev.iter()) {
                *b ^= p;
            }
            prev = cipher_block;
        }
    }

    /// [`encrypt_block`](Self::encrypt_block) on the table rounds.
    pub(crate) fn encrypt_portable(&self, block: &mut [u8; 16]) {
        let mut s = load(block, &self.ek[0]);
        for rk in &self.ek[1..NR] {
            let rk = columns(rk);
            s = std::array::from_fn(|c| {
                TE[byte(s[c], 0)]
                    ^ TE[byte(s[(c + 1) % 4], 1)].rotate_right(8)
                    ^ TE[byte(s[(c + 2) % 4], 2)].rotate_right(16)
                    ^ TE[byte(s[(c + 3) % 4], 3)].rotate_right(24)
                    ^ rk[c]
            });
        }
        let rk = columns(&self.ek[NR]);
        store(
            block,
            std::array::from_fn(|c| {
                u32::from_be_bytes([
                    SBOX[byte(s[c], 0)],
                    SBOX[byte(s[(c + 1) % 4], 1)],
                    SBOX[byte(s[(c + 2) % 4], 2)],
                    SBOX[byte(s[(c + 3) % 4], 3)],
                ]) ^ rk[c]
            }),
        );
    }

    /// [`decrypt_block`](Self::decrypt_block) on the table rounds.
    pub(crate) fn decrypt_portable(&self, block: &mut [u8; 16]) {
        let mut s = load(block, &self.dk[0]);
        for rk in &self.dk[1..NR] {
            let rk = columns(rk);
            s = std::array::from_fn(|c| {
                TD[byte(s[c], 0)]
                    ^ TD[byte(s[(c + 3) % 4], 1)].rotate_right(8)
                    ^ TD[byte(s[(c + 2) % 4], 2)].rotate_right(16)
                    ^ TD[byte(s[(c + 1) % 4], 3)].rotate_right(24)
                    ^ rk[c]
            });
        }
        let rk = columns(&self.dk[NR]);
        store(
            block,
            std::array::from_fn(|c| {
                u32::from_be_bytes([
                    INV_SBOX[byte(s[c], 0)],
                    INV_SBOX[byte(s[(c + 3) % 4], 1)],
                    INV_SBOX[byte(s[(c + 2) % 4], 2)],
                    INV_SBOX[byte(s[(c + 1) % 4], 3)],
                ]) ^ rk[c]
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn block(s: &str) -> [u8; 16] {
        from_hex(s).try_into().unwrap()
    }

    // FIPS-197 appendix A.1: the schedules' ends, whose words no block
    // test isolates.
    #[test]
    fn fips197_appendix_a1_schedule() {
        let key = block("2b7e151628aed2a6abf7158809cf4f3c");
        let cipher = Aes128::new(&key);
        assert_eq!(cipher.ek[NR][12..], 0xb663_0ca6u32.to_be_bytes());
        assert_eq!(cipher.dk[0], cipher.ek[NR]);
        assert_eq!(cipher.dk[NR], cipher.ek[0]);
        assert_eq!(cipher.ek[0], key);
    }

    #[test]
    fn gf_mul_matches_known_products() {
        assert_eq!(gmul(0x57, 0x83), 0xc1); // FIPS-197 §4.2 example
        assert_eq!(gmul(0x57, 0x13), 0xfe);
        assert_eq!(gmul(0x01, 0xab), 0xab);
        assert_eq!(gmul(0x00, 0xab), 0x00);
    }

    #[test]
    fn tables_invert_each_other() {
        for x in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[x as usize] as usize], x);
            // InvMixColumns undoes MixColumns on a column whose only
            // non-zero byte sits in row 0.
            assert_eq!(
                inv_mix_column(TE[x as usize]),
                u32::from(SBOX[x as usize]) << 24
            );
        }
    }
}
