//! The table-driven `Aes128` against a spec-literal AES-128: FIPS-197
//! transcribed byte by byte (SubBytes, ShiftRows, MixColumns with GF(2^8)
//! multiply loops), kept here as the oracle the shipped cipher must match
//! on every key, block and CBC length; and the crate's one table of
//! published AES vectors: FIPS-197 for the block cipher, NIST SP 800-38A
//! for CBC and CTR.

use proptest::prelude::*;
use psguard_crypto::{cbc_decrypt, cbc_encrypt, ctr_apply, pkcs7_pad, Aes128, BLOCK_SIZE};

/// FIPS-197 as written: a column-major state, `state[4c + r]` holding row
/// `r` of column `c`, and one function per step of §5.1 and §5.3.
mod spec {
    const NB: usize = 4;
    const NK: usize = 4;
    const NR: usize = 10;

    fn sbox() -> [u8; 256] {
        // The S-box by its definition (FIPS-197 §5.1.1): the
        // multiplicative inverse in GF(2^8), then the affine map.
        let mut sbox = [0u8; 256];
        for (x, s) in sbox.iter_mut().enumerate() {
            let inv = (1..=255u8).find(|&y| gmul(x as u8, y) == 1).unwrap_or(0);
            *s = inv
                ^ inv.rotate_left(1)
                ^ inv.rotate_left(2)
                ^ inv.rotate_left(3)
                ^ inv.rotate_left(4)
                ^ 0x63;
        }
        sbox
    }

    pub fn xtime(b: u8) -> u8 {
        (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
    }

    pub fn gmul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        for _ in 0..8 {
            if b & 1 != 0 {
                p ^= a;
            }
            a = xtime(a);
            b >>= 1;
        }
        p
    }

    pub struct Aes {
        pub round_keys: [[u8; 16]; NR + 1],
        sbox: [u8; 256],
        inv_sbox: [u8; 256],
    }

    impl Aes {
        pub fn new(key: &[u8; 16]) -> Self {
            let sbox = sbox();
            let mut inv_sbox = [0u8; 256];
            for (i, &s) in sbox.iter().enumerate() {
                inv_sbox[s as usize] = i as u8;
            }
            let mut w = [[0u8; 4]; NB * (NR + 1)];
            for i in 0..NK {
                w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
            }
            let mut rcon: u8 = 1;
            for i in NK..NB * (NR + 1) {
                let mut temp = w[i - 1];
                if i % NK == 0 {
                    temp.rotate_left(1);
                    for b in temp.iter_mut() {
                        *b = sbox[*b as usize];
                    }
                    temp[0] ^= rcon;
                    rcon = xtime(rcon);
                }
                for j in 0..4 {
                    w[i][j] = w[i - NK][j] ^ temp[j];
                }
            }
            let mut round_keys = [[0u8; 16]; NR + 1];
            for (r, rk) in round_keys.iter_mut().enumerate() {
                for c in 0..NB {
                    rk[4 * c..4 * c + 4].copy_from_slice(&w[r * NB + c]);
                }
            }
            Self {
                round_keys,
                sbox,
                inv_sbox,
            }
        }

        fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
            for (s, k) in state.iter_mut().zip(rk.iter()) {
                *s ^= k;
            }
        }

        fn sub_bytes(state: &mut [u8; 16], table: &[u8; 256]) {
            for b in state.iter_mut() {
                *b = table[*b as usize];
            }
        }

        pub fn shift_rows(state: &mut [u8; 16]) {
            let old = *state;
            for c in 0..4 {
                for r in 0..4 {
                    state[4 * c + r] = old[4 * ((c + r) % 4) + r];
                }
            }
        }

        pub fn inv_shift_rows(state: &mut [u8; 16]) {
            let old = *state;
            for c in 0..4 {
                for r in 0..4 {
                    state[4 * ((c + r) % 4) + r] = old[4 * c + r];
                }
            }
        }

        /// Multiplies each column by the circulant matrix whose first row
        /// is `m`: `{02,03,01,01}` for MixColumns, `{0e,0b,0d,09}` for
        /// InvMixColumns.
        fn mix(state: &mut [u8; 16], m: [u8; 4]) {
            for col in state.chunks_exact_mut(4) {
                let old = [col[0], col[1], col[2], col[3]];
                for (r, out) in col.iter_mut().enumerate() {
                    *out = (0..4).fold(0, |acc, k| acc ^ gmul(m[(k + 4 - r) % 4], old[k]));
                }
            }
        }

        pub fn mix_columns(state: &mut [u8; 16]) {
            Self::mix(state, [0x02, 0x03, 0x01, 0x01]);
        }

        pub fn inv_mix_columns(state: &mut [u8; 16]) {
            Self::mix(state, [0x0e, 0x0b, 0x0d, 0x09]);
        }

        pub fn encrypt_block(&self, block: &mut [u8; 16]) {
            Self::add_round_key(block, &self.round_keys[0]);
            for round in 1..NR {
                Self::sub_bytes(block, &self.sbox);
                Self::shift_rows(block);
                Self::mix_columns(block);
                Self::add_round_key(block, &self.round_keys[round]);
            }
            Self::sub_bytes(block, &self.sbox);
            Self::shift_rows(block);
            Self::add_round_key(block, &self.round_keys[NR]);
        }

        pub fn decrypt_block(&self, block: &mut [u8; 16]) {
            Self::add_round_key(block, &self.round_keys[NR]);
            for round in (1..NR).rev() {
                Self::inv_shift_rows(block);
                Self::sub_bytes(block, &self.inv_sbox);
                Self::add_round_key(block, &self.round_keys[round]);
                Self::inv_mix_columns(block);
            }
            Self::inv_shift_rows(block);
            Self::sub_bytes(block, &self.inv_sbox);
            Self::add_round_key(block, &self.round_keys[0]);
        }
    }
}

/// SP 800-38A CBC over the oracle, with the shipped PKCS#7 padding.
fn oracle_cbc_encrypt(key: &[u8; 16], iv: &[u8; BLOCK_SIZE], plaintext: &[u8]) -> Vec<u8> {
    let aes = spec::Aes::new(key);
    let mut buf = plaintext.to_vec();
    pkcs7_pad(&mut buf);
    let mut prev = *iv;
    for chunk in buf.chunks_exact_mut(BLOCK_SIZE) {
        for (b, p) in prev.iter_mut().zip(chunk.iter()) {
            *b ^= p;
        }
        aes.encrypt_block(&mut prev);
        chunk.copy_from_slice(&prev);
    }
    buf
}

fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

fn block(hex: &str) -> [u8; 16] {
    from_hex(hex).try_into().unwrap()
}

// FIPS-197 appendices B and C.1, in both directions, for the oracle and
// the shipped cipher alike.
#[test]
fn fips197_known_answers_both_directions() {
    for (key, plain, cipher) in [
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        ),
        (
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        ),
    ] {
        let (key, plain, cipher) = (block(key), block(plain), block(cipher));
        let oracle = spec::Aes::new(&key);
        let aes = Aes128::new(&key);

        let mut b = plain;
        oracle.encrypt_block(&mut b);
        assert_eq!(b, cipher, "oracle encrypt");
        oracle.decrypt_block(&mut b);
        assert_eq!(b, plain, "oracle decrypt");

        let mut b = plain;
        aes.encrypt_block(&mut b);
        assert_eq!(b, cipher, "encrypt");
        aes.decrypt_block(&mut b);
        assert_eq!(b, plain, "decrypt");
    }
}

// FIPS-197 appendix A.1: the last word of the expanded key.
#[test]
fn fips197_appendix_a1_last_round_key_word() {
    let oracle = spec::Aes::new(&block("2b7e151628aed2a6abf7158809cf4f3c"));
    assert_eq!(oracle.round_keys[10][12..], [0xb6, 0x63, 0x0c, 0xa6]);
}

/// The NIST SP 800-38A AES-128 examples share one key and one plaintext.
const SP800_38A_KEY: &str = "2b7e151628aed2a6abf7158809cf4f3c";
const SP800_38A_PLAIN: [&str; 4] = [
    "6bc1bee22e409f96e93d7e117393172a",
    "ae2d8a571e03ac9c9eb76fac45af8e51",
    "30c81c46a35ce411e5fbc1191a0a52ef",
    "f69f2445df4f9b17ad2b417be66c3710",
];

// NIST SP 800-38A F.2.1/F.2.2 (CBC-AES128): the shipped CBC appends a
// PKCS#7 block, so a vector of n blocks is the first n of n + 1 cipher
// blocks. Both the two-block prefix and all four blocks are checked.
#[test]
fn sp800_38a_cbc() {
    let cipher = Aes128::new(&block(SP800_38A_KEY));
    let iv = block("000102030405060708090a0b0c0d0e0f");
    let want = [
        "7649abac8119b246cee98e9b12e9197d",
        "5086cb9b507219ee95db113a917678b2",
        "73bed6b8e3c1743b7116e69e22229516",
        "3ff1caa1681fac09120eca307586e1a7",
    ];
    for blocks in [2, 4] {
        let plain = from_hex(&SP800_38A_PLAIN[..blocks].concat());
        let ct = cbc_encrypt(&cipher, &iv, &plain);
        assert_eq!(ct.len(), 16 * (blocks + 1));
        assert_eq!(ct[..16 * blocks], from_hex(&want[..blocks].concat()));
        assert_eq!(cbc_decrypt(&cipher, &iv, &ct).unwrap(), plain);
    }
}

// NIST SP 800-38A F.5.1/F.5.2 (CTR-AES128): the low 64 bits of the
// counter block count up, which is what the vector's counter blocks do.
#[test]
fn sp800_38a_ctr() {
    let cipher = Aes128::new(&block(SP800_38A_KEY));
    let counter = block("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
    let plain = from_hex(&SP800_38A_PLAIN.concat());
    let want = from_hex(concat!(
        "874d6191b620e3261bef6864990db6ce",
        "9806f66b7970fdff8617187bb9fffdff",
        "5ae4df3edbd5d35e5b4f09020db03eab",
        "1e031dda2fbe03d1792170a0f3009cee",
    ));
    assert_eq!(ctr_apply(&cipher, &counter, &plain), want);
    assert_eq!(ctr_apply(&cipher, &counter, &want), plain);
}

#[test]
fn oracle_steps_invert() {
    assert_eq!(spec::gmul(0x57, 0x83), 0xc1); // FIPS-197 §4.2 example
    let mut state: [u8; 16] = std::array::from_fn(|i| (i * 17 + 3) as u8);
    let original = state;
    spec::Aes::shift_rows(&mut state);
    assert_ne!(state, original);
    spec::Aes::inv_shift_rows(&mut state);
    assert_eq!(state, original);
    spec::Aes::mix_columns(&mut state);
    assert_ne!(state, original);
    spec::Aes::inv_mix_columns(&mut state);
    assert_eq!(state, original);
}

proptest! {
    #[test]
    fn blocks_equal_the_oracle(key: [u8; 16], plain: [u8; 16]) {
        let (aes, oracle) = (Aes128::new(&key), spec::Aes::new(&key));
        let (mut got, mut want) = (plain, plain);
        aes.encrypt_block(&mut got);
        oracle.encrypt_block(&mut want);
        prop_assert_eq!(got, want);
        // Decrypt an arbitrary block too, not only one this key made.
        let (mut got, mut want) = (plain, plain);
        aes.decrypt_block(&mut got);
        oracle.decrypt_block(&mut want);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn cbc_equals_the_oracle_and_roundtrips(
        key: [u8; 16],
        iv: [u8; 16],
        plain in prop::collection::vec(any::<u8>(), 0..=300),
    ) {
        let aes = Aes128::new(&key);
        let ct = cbc_encrypt(&aes, &iv, &plain);
        prop_assert_eq!(&ct, &oracle_cbc_encrypt(&key, &iv, &plain));
        prop_assert_eq!(cbc_decrypt(&aes, &iv, &ct).unwrap(), plain);
    }
}
