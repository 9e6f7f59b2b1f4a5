//! The published test vectors for SHA-1 and HMAC-SHA1, each checked
//! through every form the crate ships, and property tests for the crate.

use proptest::prelude::*;
use psguard_crypto::{
    cbc_encrypt, ct_eq, hmac_sha1, kh, prf, Aes128, DeriveKey, Hmac, PrfContext, ProbeTable, Sha1,
    Token,
};

/// Slots whose token verifies `tag` under `nonce`, one one-shot `prf` each.
fn oracle(mirror: &[Option<Token>], nonce: &[u8; 16], tag: &Token) -> Vec<u32> {
    mirror
        .iter()
        .enumerate()
        .filter(|(_, tok)| {
            tok.is_some_and(|tok| ct_eq(prf(tok.as_bytes(), nonce).as_bytes(), tag.as_bytes()))
        })
        .map(|(slot, _)| slot as u32)
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-1 vectors: (source, message as `piece` repeated `count` times,
/// digest). RFC 3174 §7.3 TEST1–TEST4; the empty message is FIPS 180's.
const SHA1_VECTORS: &[(&str, &[u8], usize, &str)] = &[
    (
        "RFC 3174 TEST1",
        b"abc",
        1,
        "a9993e364706816aba3e25717850c26c9cd0d89d",
    ),
    (
        "RFC 3174 TEST2",
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        1,
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
    ),
    (
        "RFC 3174 TEST3",
        b"a",
        1_000_000,
        "34aa973cd4c4daa4f61eeb2bdbad27316534016f",
    ),
    (
        "RFC 3174 TEST4",
        b"0123456701234567012345670123456701234567012345670123456701234567",
        10,
        "dea356a2cddd90c7a7ecedc5ebb563934f460452",
    ),
    ("empty", b"", 1, "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
];

/// RFC 2202 §3 HMAC-SHA1 test cases 1–7: (case, key, data, digest).
fn hmac_sha1_vectors() -> [(u8, Vec<u8>, Vec<u8>, &'static str); 7] {
    [
        (
            1,
            vec![0x0b; 20],
            b"Hi There".to_vec(),
            "b617318655057264e28bc0b6fb378c8ef146be00",
        ),
        (
            2,
            b"Jefe".to_vec(),
            b"what do ya want for nothing?".to_vec(),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
        ),
        (
            3,
            vec![0xaa; 20],
            vec![0xdd; 50],
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3",
        ),
        (
            4,
            (0x01..=0x19).collect(),
            vec![0xcd; 50],
            "4c9007f4026250c6bc8414f9bf50c86c2d7235da",
        ),
        (
            5,
            vec![0x0c; 20],
            b"Test With Truncation".to_vec(),
            "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04",
        ),
        (
            6,
            vec![0xaa; 80],
            b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112",
        ),
        (
            7,
            vec![0xaa; 80],
            b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data".to_vec(),
            "e8e99d0f45237d786d6bbaa7965c7808bbff1a91",
        ),
    ]
}

/// Every SHA-1 vector through the one-shot digest and the streaming
/// hasher: split in two at every point, and fed piece by piece as RFC
/// 3174's own harness does. TEST3 is a million bytes, so it is split at
/// the block boundaries only.
#[test]
fn sha1_vectors_through_every_form() {
    for &(source, piece, count, want) in SHA1_VECTORS {
        let message = piece.repeat(count);
        assert_eq!(hex(&Sha1::digest(&message)), want, "{source} digest");

        let mut pieces = Sha1::new();
        for _ in 0..count {
            pieces.update(piece);
        }
        assert_eq!(hex(&pieces.finalize()), want, "{source} piece by piece");

        let step = if message.len() > 4096 { 64 * 1024 } else { 1 };
        for split in (0..=message.len()).step_by(step) {
            let mut s = Sha1::new();
            s.update(&message[..split]);
            s.update(&message[split..]);
            assert_eq!(hex(&s.finalize()), want, "{source} split at {split}");
        }
    }
}

/// Every RFC 2202 HMAC-SHA1 case through the one-shot MAC, the streaming
/// `Hmac` split at every point, `PrfContext::prf`, the root `kh`, and
/// `DeriveKey::kh` where the key is a derivation key's length.
#[test]
fn hmac_sha1_vectors_through_every_form() {
    for (case, key, data, want) in hmac_sha1_vectors() {
        assert_eq!(hex(&hmac_sha1(&key, &data)), want, "case {case} hmac_sha1");
        for split in 0..=data.len() {
            let mut mac = Hmac::new(&key);
            mac.update(&data[..split]);
            mac.update(&data[split..]);
            assert_eq!(hex(&mac.finalize()), want, "case {case} split at {split}");
        }
        let ctx = PrfContext::new(&key);
        assert_eq!(
            hex(ctx.prf(&data).as_bytes()),
            want,
            "case {case} PrfContext"
        );
        assert_eq!(hex(&kh(&key, &data)), want, "case {case} kh");
        if let Ok(node) = DeriveKey::from_raw(&key) {
            assert_eq!(
                hex(node.kh(&data).as_bytes()),
                want,
                "case {case} DeriveKey::kh"
            );
        }
    }
}

proptest! {
    #[test]
    fn sha1_streaming_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..600), split in 0usize..600) {
        let split = split.min(data.len());
        let mut s = Sha1::new();
        s.update(&data[..split]);
        s.update(&data[split..]);
        prop_assert_eq!(s.finalize(), Sha1::digest(&data));
    }

    #[test]
    fn hmac_distinguishes_keys(k1 in prop::collection::vec(any::<u8>(), 1..100), k2 in prop::collection::vec(any::<u8>(), 1..100), msg in prop::collection::vec(any::<u8>(), 0..100)) {
        prop_assume!(k1 != k2);
        // Not a cryptographic proof — a regression guard against key
        // handling bugs (e.g. ignoring part of the key).
        prop_assert_ne!(hmac_sha1(&k1, &msg), hmac_sha1(&k2, &msg));
    }

    /// One sweep decides exactly like a one-shot `prf` run per live token,
    /// across set / clear / re-set churn of the slots. Up to 200 tokens
    /// span several 64-lane chunks, and each clear moves the last lane
    /// into the cleared one, across chunk boundaries.
    #[test]
    fn probe_sweep_equals_per_token_prf(
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
    fn cbc_ciphertext_differs_from_plaintext(key: [u8; 16], iv: [u8; 16], data in prop::collection::vec(any::<u8>(), 16..128)) {
        let cipher = Aes128::new(&key);
        let ct = cbc_encrypt(&cipher, &iv, &data);
        prop_assert_ne!(&ct[..data.len().min(ct.len())], data.as_slice());
    }
}
