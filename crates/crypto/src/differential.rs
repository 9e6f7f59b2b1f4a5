//! The SHA and AES instruction kernels against the portable code they
//! replace: SHA-1 and HMAC at every length to 8 KiB and at every split
//! point of the streaming API, CBC under random keys, IVs and lengths,
//! the key schedules, and the token-probe sweep under set/clear churn.
//! The portable code is the oracle; it is itself held to the RFC 3174,
//! RFC 2202, FIPS-197 and SP 800-38A vectors in `tests/`.

use crate::aes::Aes128;
use crate::context::ProbeTable;
use crate::hmac::{hmac_sha1, Hmac};
use crate::modes::{cbc_decrypt, cbc_encrypt};
use crate::prf::prf;
use crate::sha1::{compress_blocks_portable, Sha1};
use crate::x86::{AesNi, ShaNi};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
const MAX_LEN: usize = 8192;

fn bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

/// The portable digest of a message of `total` bytes whose whole blocks
/// up to `tail` left `state`.
fn portable_finish(mut state: [u32; 5], tail: &[u8], total: usize) -> [u8; 20] {
    let mut last = tail.to_vec();
    last.push(0x80);
    while last.len() % 64 != 56 {
        last.push(0);
    }
    last.extend_from_slice(&(8 * total as u64).to_be_bytes());
    compress_blocks_portable(&mut state, &last);
    let mut out = [0u8; 20];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The portable digest of every prefix of `data` (`prefix` bytes already
/// absorbed ahead of it, in whole blocks, leaving `start`): entry `len`
/// is the digest of the first `len` bytes. The chaining state after each
/// whole block is computed once and shared by every longer prefix.
fn portable_prefix_digests(start: [u32; 5], prefix: usize, data: &[u8]) -> Vec<[u8; 20]> {
    let mut states = vec![start];
    for block in data.as_chunks::<64>().0 {
        let mut next = states[states.len() - 1];
        compress_blocks_portable(&mut next, block);
        states.push(next);
    }
    (0..=data.len())
        .map(|len| {
            let whole = len / 64;
            portable_finish(states[whole], &data[64 * whole..len], prefix + len)
        })
        .collect()
}

/// The portable chaining states after `key ⊕ ipad` and `key ⊕ opad`.
fn portable_pads(key: &[u8]) -> ([u32; 5], [u32; 5]) {
    let mut block = [0u8; 64];
    if key.len() > 64 {
        block[..20].copy_from_slice(&portable_prefix_digests(H0, 0, key)[key.len()]);
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let pad = |x: u8| {
        let mut state = H0;
        compress_blocks_portable(&mut state, &block.map(|b| b ^ x));
        state
    };
    (pad(0x36), pad(0x5c))
}

#[test]
fn sha_kernel_equals_portable_compression() {
    let Some(ni) = ShaNi::detect() else {
        return;
    };
    let mut rng = StdRng::seed_from_u64(1);
    for blocks in 0..=9 {
        for _ in 0..16 {
            let start: [u32; 5] = std::array::from_fn(|_| rng.next_u32());
            // A trailing partial block is ignored by both.
            let tail = rng.gen_range(0..64usize);
            let data = bytes(&mut rng, 64 * blocks + tail);
            let (mut hw, mut sw) = (start, start);
            ni.compress_blocks(&mut hw, &data);
            compress_blocks_portable(&mut sw, &data);
            assert_eq!(hw, sw, "blocks={blocks}");
        }
    }
}

#[test]
fn sha1_equals_portable_at_every_length_and_split() {
    let mut rng = StdRng::seed_from_u64(2);
    let data = bytes(&mut rng, MAX_LEN);
    let want = portable_prefix_digests(H0, 0, &data);
    for (len, want) in want.iter().enumerate() {
        assert_eq!(&Sha1::digest(&data[..len]), want, "len={len}");
    }
    for len in [0, 1, 55, 56, 63, 64, 65, 127, 128, 129, 1000, 4097, MAX_LEN] {
        for split in 0..=len {
            let mut s = Sha1::new();
            s.update(&data[..split]);
            s.update(&data[split..len]);
            assert_eq!(s.finalize(), want[len], "len={len} split={split}");
        }
    }
}

#[test]
fn hmac_equals_portable_at_every_length_and_split() {
    let mut rng = StdRng::seed_from_u64(3);
    let data = bytes(&mut rng, MAX_LEN);
    for key_len in [0usize, 20, 64, 65, 100] {
        let key = bytes(&mut rng, key_len);
        let (ipad, opad) = portable_pads(&key);
        let inner = portable_prefix_digests(ipad, 64, &data);
        let want: Vec<[u8; 20]> = inner
            .iter()
            .map(|d| portable_finish(opad, d, 64 + 20))
            .collect();
        // Every length under a token-sized key; under the others, every
        // length across the key block and the first few message blocks.
        let one_shot = if key_len == 20 { MAX_LEN } else { 300 };
        for (len, want) in want.iter().enumerate().take(one_shot + 1) {
            assert_eq!(
                &hmac_sha1(&key, &data[..len]),
                want,
                "key={key_len} len={len}"
            );
        }
        // Streaming splits are SHA-1's (above); the longest message is
        // split under the token-sized key only.
        let longest = if key_len == 20 { MAX_LEN } else { 1000 };
        for len in [0, 1, 63, 64, 65, 1000, longest] {
            for split in 0..=len {
                let mut mac = Hmac::new(&key);
                mac.update(&data[..split]);
                mac.update(&data[split..len]);
                assert_eq!(
                    mac.finalize(),
                    want[len],
                    "key={key_len} len={len} split={split}"
                );
            }
        }
    }
}

#[test]
fn aes_schedules_and_blocks_equal_portable() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..256 {
        let key: [u8; 16] = std::array::from_fn(|_| rng.gen());
        let hw = Aes128::new(&key);
        let mut sw = Aes128::new(&key);
        sw.expand_portable(&key);
        let block: [u8; 16] = std::array::from_fn(|_| rng.gen());
        // Portable rounds over each schedule isolate the key expansion;
        // the dispatched block calls then isolate the rounds.
        let run = |c: &Aes128, f: fn(&Aes128, &mut [u8; 16])| {
            let mut b = block;
            f(c, &mut b);
            b
        };
        let enc = run(&sw, Aes128::encrypt_portable);
        let dec = run(&sw, Aes128::decrypt_portable);
        assert_eq!(run(&hw, Aes128::encrypt_portable), enc);
        assert_eq!(run(&hw, Aes128::decrypt_portable), dec);
        assert_eq!(run(&hw, Aes128::encrypt_block), enc);
        assert_eq!(run(&hw, Aes128::decrypt_block), dec);
    }
}

#[test]
fn cbc_equals_portable_for_random_keys_ivs_and_lengths() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut lens: Vec<usize> = (0..=130)
        .chain([255, 256, 1000, 4095, 4096, 4097])
        .collect();
    lens.extend((0..64).map(|_| rng.gen_range(0..MAX_LEN)));
    for len in lens {
        let key: [u8; 16] = std::array::from_fn(|_| rng.gen());
        let iv: [u8; 16] = std::array::from_fn(|_| rng.gen());
        let plain = bytes(&mut rng, len);
        let mut sw = Aes128::new(&key);
        sw.expand_portable(&key);
        // CBC-PKCS#7 on the portable rounds.
        let mut want = plain.clone();
        crate::pkcs7_pad(&mut want);
        let mut prev = iv;
        for block in want.as_chunks_mut::<16>().0 {
            for (b, p) in block.iter_mut().zip(prev) {
                *b ^= p;
            }
            sw.encrypt_portable(block);
            prev = *block;
        }
        let cipher = Aes128::new(&key);
        let got = cbc_encrypt(&cipher, &iv, &plain);
        assert_eq!(got, want, "len={len}");
        assert_eq!(cbc_decrypt(&cipher, &iv, &got).as_deref(), Ok(&plain[..]));
        // Decrypting arbitrary ciphertext (garbage padding included)
        // agrees block for block with the portable chain.
        let noise = bytes(&mut rng, want.len());
        let mut blocks = noise.clone();
        cipher.cbc_decrypt_blocks(&iv, blocks.as_chunks_mut::<16>().0);
        let mut prev = iv;
        for (got, c) in blocks.chunks_exact(16).zip(noise.as_chunks::<16>().0) {
            let mut b = *c;
            sw.decrypt_portable(&mut b);
            for (b, p) in b.iter_mut().zip(prev) {
                *b ^= p;
            }
            assert_eq!(got, b, "len={len}");
            prev = *c;
        }
    }
}

#[test]
fn sweep_equals_portable_under_churn() {
    let mut rng = StdRng::seed_from_u64(6);
    let tokens: Vec<_> = (0..64u32)
        .map(|i| prf(b"rk(KDC)", &i.to_be_bytes()))
        .collect();
    let mut table = ProbeTable::new();
    let mut live: Vec<Option<usize>> = vec![None; 200];
    let check = |table: &ProbeTable, live: &[Option<usize>], rng: &mut StdRng| {
        let nonce: [u8; 16] = std::array::from_fn(|_| rng.gen());
        // A live slot's token, another token, or none live at all.
        let pick = live.iter().flatten().next().copied();
        let token = &tokens[pick.unwrap_or(rng.gen_range(0..64))];
        for tag in [prf(token.as_bytes(), &nonce), prf(b"no token", &nonce)] {
            let matching: Vec<bool> = tokens
                .iter()
                .map(|t| prf(t.as_bytes(), &nonce) == tag)
                .collect();
            let want: Vec<u32> = (0..live.len() as u32)
                .filter(|&slot| live[slot as usize].is_some_and(|t| matching[t]))
                .collect();
            let (mut hw, mut sw) = (vec![7], vec![7]);
            table.sweep(&nonce, &tag, &mut hw);
            table.sweep_portable(&nonce, &tag, &mut sw);
            assert_eq!(hw[1..], want, "live={}", table.len());
            assert_eq!(sw, hw);
        }
    };
    // Grow to 200 live slots, sweeping at every size, then churn.
    for slot in 0..200 {
        check(&table, &live, &mut rng);
        let t = rng.gen_range(0..64usize);
        table.set(slot as u32, &tokens[t]);
        live[slot] = Some(t);
    }
    for _ in 0..300 {
        let slot = rng.gen_range(0..200usize);
        if rng.gen_bool(0.5) {
            table.clear(slot as u32);
            live[slot] = None;
        } else {
            let t = rng.gen_range(0..64usize);
            table.set(slot as u32, &tokens[t]);
            live[slot] = Some(t);
        }
        check(&table, &live, &mut rng);
    }
    assert_eq!(table.len(), live.iter().flatten().count());
}

/// Fails if the portable code is chosen on a CPU whose kernel reports
/// the instructions, read from `/proc/cpuinfo` independently of the
/// probe under test.
#[test]
#[cfg(target_os = "linux")]
fn instructions_the_cpu_reports_are_used() {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").expect("readable cpuinfo");
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, f)| f.split_whitespace().collect())
        .unwrap_or_default();
    let has = |flag: &str| flags.contains(&flag);
    if has("sha_ni") && has("ssse3") && has("sse4_1") {
        assert!(ShaNi::detect().is_some(), "SHA-1 fell back to portable");
    }
    if has("aes") {
        assert!(AesNi::detect().is_some(), "AES fell back to portable");
    }
}
