//! Microbenchmarks of the cryptographic primitives — the per-operation
//! costs that Tables 1–2 and Figure 5 are built from.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use psguard_crypto::{
    cbc_decrypt, cbc_encrypt, hmac_sha1, prf, Aes128, DeriveKey, ProbeTable, Sha1,
};
use psguard_routing::RoutableTag;

fn bench_hashes(c: &mut Criterion) {
    let data = [0xabu8; 64];
    c.bench_function("sha1_64B", |b| b.iter(|| Sha1::digest(black_box(&data))));
    c.bench_function("hmac_sha1_64B", |b| {
        b.iter(|| hmac_sha1(black_box(b"key"), black_box(&data)))
    });
}

fn bench_key_derivation_step(c: &mut Criterion) {
    let key = DeriveKey::from_bytes(b"node");
    c.bench_function("child_derivation_H", |b| {
        b.iter(|| black_box(&key).child(1))
    });
    c.bench_function("kh_root_derivation", |b| {
        b.iter(|| black_box(&key).kh(b"age"))
    });
}

fn bench_aes(c: &mut Criterion) {
    let cipher = Aes128::new(&[7u8; 16]);
    let mut block = [0u8; 16];
    c.bench_function("aes128_block", |b| {
        b.iter(|| cipher.encrypt_block(black_box(&mut block)))
    });
    // 64 B is a small event's payload, 4,112 B a `durable_bulk` ciphertext.
    let iv = [0u8; 16];
    let sizes = [64usize, 256, 4112];
    let mut group = c.benchmark_group("aes128_cbc_encrypt");
    for len in sizes {
        let payload = vec![0u8; len];
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::from_parameter(len), &payload, |b, payload| {
            b.iter(|| cbc_encrypt(&cipher, &iv, black_box(payload)))
        });
    }
    group.finish();
    let mut group = c.benchmark_group("aes128_cbc_decrypt");
    for len in sizes {
        let ct = cbc_encrypt(&cipher, &iv, &vec![0u8; len]);
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::from_parameter(len), &ct, |b, ct| {
            b.iter(|| cbc_decrypt(&cipher, &iv, black_box(ct)).expect("valid"))
        });
    }
    group.finish();
}

fn bench_tokenization(c: &mut Criterion) {
    let token = prf(b"master", b"topic");
    let routable = RoutableTag::with_nonce(&token, *b"nonce-bytes-0123");
    let tag = routable.tag;
    c.bench_function("token_match_oneshot", |b| {
        b.iter(|| black_box(&routable).matches(black_box(&token)))
    });

    // What a broker pays per event: every live token probed against one
    // tag, as one sweep over prepared pad states. Elements are probes, so
    // the rate compares directly with the one-shot row above.
    let mut group = c.benchmark_group("token_probe_sweep");
    for n in [16u32, 64, 256, 1024] {
        let mut table = ProbeTable::new();
        for slot in 0..n {
            table.set(slot, &prf(b"master", &slot.to_be_bytes()));
        }
        let mut hits = Vec::new();
        group.throughput(Throughput::Elements(u64::from(n)));
        group.bench_with_input(BenchmarkId::from_parameter(n), &table, |b, table| {
            b.iter(|| {
                hits.clear();
                table.sweep(black_box(b"nonce-bytes-0123"), black_box(&tag), &mut hits);
                hits.len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hashes,
    bench_key_derivation_step,
    bench_aes,
    bench_tokenization
);
criterion_main!(benches);
