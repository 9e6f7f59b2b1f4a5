//! Extended vector tests and property tests for the crypto crate.

use proptest::prelude::*;
use psguard_crypto::{
    cbc_decrypt, cbc_encrypt, ct_eq, hmac_md5, hmac_sha1, mod_exp, mod_mul, prf, prf_verify,
    Aes128, DeriveKey, Digest, Md5, ProbeTable, Sha1, Token,
};

/// Slots whose token verifies `tag` under `nonce`, one `prf_verify` each.
fn oracle(mirror: &[Option<Token>], nonce: &[u8; 16], tag: &Token) -> Vec<u32> {
    mirror
        .iter()
        .enumerate()
        .filter(|(_, tok)| tok.is_some_and(|tok| prf_verify(&tok, nonce, tag)))
        .map(|(slot, _)| slot as u32)
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// RFC 2202 cases 4, 5, 7 for HMAC-SHA1 (the ones not covered by the unit
// tests).
#[test]
fn rfc2202_sha1_case4() {
    let key: Vec<u8> = (0x01..=0x19).collect();
    let data = [0xcdu8; 50];
    assert_eq!(
        hex(&hmac_sha1(&key, &data)),
        "4c9007f4026250c6bc8414f9bf50c86c2d7235da"
    );
}

#[test]
fn rfc2202_sha1_case5_truncation_source() {
    let key = [0x0cu8; 20];
    assert_eq!(
        hex(&hmac_sha1(&key, b"Test With Truncation")),
        "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04"
    );
}

#[test]
fn rfc2202_sha1_case7() {
    let key = [0xaau8; 80];
    assert_eq!(
        hex(&hmac_sha1(
            &key,
            b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data"
        )),
        "e8e99d0f45237d786d6bbaa7965c7808bbff1a91"
    );
}

#[test]
fn rfc2202_md5_case3() {
    let key = [0xaau8; 16];
    let data = [0xddu8; 50];
    assert_eq!(
        hex(&hmac_md5(&key, &data)),
        "56be34521d144c88dbb8c733f0e8b3f6"
    );
}

// NIST SP 800-38A F.2.2 (CBC-AES128.Decrypt) — all four blocks.
#[test]
fn nist_cbc_four_blocks() {
    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }
    let key: [u8; 16] = from_hex("2b7e151628aed2a6abf7158809cf4f3c")
        .try_into()
        .unwrap();
    let iv: [u8; 16] = from_hex("000102030405060708090a0b0c0d0e0f")
        .try_into()
        .unwrap();
    let pt = from_hex(
        "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
         30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
    );
    let expect_ct = from_hex(
        "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2\
         73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7",
    );
    let cipher = Aes128::new(&key);
    let ct = cbc_encrypt(&cipher, &iv, &pt);
    assert_eq!(&ct[..64], expect_ct.as_slice());
    assert_eq!(cbc_decrypt(&cipher, &iv, &ct).unwrap(), pt);
}

proptest! {
    #[test]
    fn sha1_streaming_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..600), split in 0usize..600) {
        let split = split.min(data.len());
        let mut s = <Sha1 as Digest>::new();
        s.update(&data[..split]);
        s.update(&data[split..]);
        prop_assert_eq!(Digest::finalize(s), Sha1::digest(&data).to_vec());
    }

    #[test]
    fn md5_streaming_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..600), splits in prop::collection::vec(0usize..600, 0..4)) {
        let mut s = <Md5 as Digest>::new();
        let mut prev = 0usize;
        let mut splits = splits;
        splits.sort_unstable();
        for sp in splits {
            let sp = sp.min(data.len()).max(prev);
            s.update(&data[prev..sp]);
            prev = sp;
        }
        s.update(&data[prev..]);
        prop_assert_eq!(Digest::finalize(s), Md5::digest(&data).to_vec());
    }

    #[test]
    fn hmac_distinguishes_keys(k1 in prop::collection::vec(any::<u8>(), 1..100), k2 in prop::collection::vec(any::<u8>(), 1..100), msg in prop::collection::vec(any::<u8>(), 0..100)) {
        prop_assume!(k1 != k2);
        // Not a cryptographic proof — a regression guard against key
        // handling bugs (e.g. ignoring part of the key).
        prop_assert_ne!(hmac_sha1(&k1, &msg), hmac_sha1(&k2, &msg));
    }

    /// One sweep decides exactly like `prf_verify` run per live token,
    /// across set / clear / re-set churn of the slots. Up to 200 tokens
    /// span several 64-lane chunks, and each clear moves the last lane
    /// into the cleared one, across chunk boundaries.
    #[test]
    fn probe_sweep_equals_per_token_prf_verify(
        stored in 0usize..=200,
        clears in prop::collection::vec(any::<u16>(), 0..80),
        reuses in prop::collection::vec(any::<u16>(), 0..40),
        nonce: [u8; 16],
        pick in any::<u16>(),
        twin in any::<u16>(),
    ) {
        // Distinct tokens until the twin step, so a tag has one owner.
        let token = |id: usize| prf(b"rk(KDC)", &(id as u64).to_be_bytes());
        let mut table = ProbeTable::new();
        let mut mirror: Vec<Option<Token>> = (0..stored).map(|id| Some(token(id))).collect();
        for (slot, tok) in mirror.iter().flatten().enumerate() {
            table.set(slot as u32, tok);
        }
        if stored > 0 {
            for c in clears {
                let slot = c as usize % stored;
                table.clear(slot as u32);
                mirror[slot] = None;
            }
            for (n, r) in reuses.into_iter().enumerate() {
                let slot = r as usize % stored;
                let tok = token(1000 + n);
                table.set(slot as u32, &tok);
                mirror[slot] = Some(tok);
            }
        }
        let live: Vec<u32> = (0..stored as u32)
            .filter(|&s| mirror[s as usize].is_some())
            .collect();
        prop_assert_eq!(table.len(), live.len());

        // The sweep appends: what `hits` already holds stays.
        let mut hits = vec![u32::MAX];
        let foreign = prf(token(usize::MAX).as_bytes(), &nonce);
        table.sweep(&nonce, &foreign, &mut hits);
        prop_assert_eq!(&hits, &[u32::MAX]);
        prop_assert!(oracle(&mirror, &nonce, &foreign).is_empty());

        if !live.is_empty() {
            let owner = live[pick as usize % live.len()];
            let owned = mirror[owner as usize].expect("live");
            let tag = prf(owned.as_bytes(), &nonce);
            table.sweep(&nonce, &tag, &mut hits);
            prop_assert_eq!(&hits, &[u32::MAX, owner]);
            prop_assert_eq!(oracle(&mirror, &nonce, &tag), vec![owner]);
            // A second slot, live, dead or past the stored range, keyed
            // with the owner's token: two hits, in ascending slot order.
            let twin = (twin as usize % (stored + 8)) as u32;
            if twin != owner {
                table.set(twin, &owned);
                mirror.resize(mirror.len().max(twin as usize + 1), None);
                mirror[twin as usize] = Some(owned);
                hits.clear();
                table.sweep(&nonce, &tag, &mut hits);
                let both = vec![owner.min(twin), owner.max(twin)];
                prop_assert_eq!(&hits, &both);
                prop_assert_eq!(oracle(&mirror, &nonce, &tag), both);
            }
            // A tag is bound to its nonce.
            let mut other = nonce;
            other[0] ^= 1;
            hits.clear();
            table.sweep(&other, &tag, &mut hits);
            prop_assert_eq!(hits, oracle(&mirror, &other, &tag));
        }
    }

    #[test]
    fn ct_eq_agrees_with_eq(a in prop::collection::vec(any::<u8>(), 0..64), b in prop::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
    }

    #[test]
    fn derive_chain_depends_on_every_step(path in prop::collection::vec(0u32..4, 1..10), flip in 0usize..10) {
        let root = DeriveKey::from_bytes(b"root");
        let walk = |p: &[u32]| p.iter().fold(root.clone(), |k, &d| k.child_n(d));
        let k1 = walk(&path);
        let mut altered = path.clone();
        let i = flip % altered.len();
        altered[i] = (altered[i] + 1) % 4;
        prop_assert_ne!(k1, walk(&altered));
    }

    #[test]
    fn mod_exp_multiplicative(base in 1u64..1_000_000, e1 in 0u64..64, e2 in 0u64..64) {
        const P: u64 = 1_000_000_007;
        // base^(e1+e2) == base^e1 · base^e2 (mod p)
        let lhs = mod_exp(base, e1 + e2, P);
        let rhs = mod_mul(mod_exp(base, e1, P), mod_exp(base, e2, P), P);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn cbc_ciphertext_differs_from_plaintext(key: [u8; 16], iv: [u8; 16], data in prop::collection::vec(any::<u8>(), 16..128)) {
        let cipher = Aes128::new(&key);
        let ct = cbc_encrypt(&cipher, &iv, &data);
        prop_assert_ne!(&ct[..data.len().min(ct.len())], data.as_slice());
    }
}
