//! Key-management benchmarks: grant generation and event-key derivation
//! across range sizes, the arity ablation (the paper proves binary trees
//! optimal), and the key cache.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use psguard_crypto::DeriveKey;
use psguard_keys::{
    AuthKey, EpochId, Kdc, KeyCache, KeyScope, Ktid, Nakt, NaktKeySpace, OpCounter, Schema,
    TopicScope,
};
use psguard_model::{Constraint, Event, Filter, IntRange, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_grant_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("kdc_grant");
    for exp in [8u32, 12, 16] {
        let r = 1i64 << exp;
        let schema = Schema::builder()
            .numeric("num", IntRange::new(0, r - 1).expect("valid"), 1)
            .expect("valid nakt")
            .build();
        let kdc = Kdc::from_seed(b"bench");
        let filter = Filter::for_topic("w").with(Constraint::new(
            "num",
            Op::InRange(IntRange::new(1, r - 2).expect("valid")),
        ));
        group.bench_with_input(
            BenchmarkId::new("worst_case_range", format!("R=2^{exp}")),
            &filter,
            |b, f| {
                b.iter(|| {
                    let mut ops = OpCounter::new();
                    kdc.grant(
                        &schema,
                        black_box(f),
                        EpochId(0),
                        &TopicScope::Shared,
                        &mut ops,
                    )
                    .expect("grantable")
                })
            },
        );
    }
    group.finish();
}

fn bench_event_key_derivation(c: &mut Criterion) {
    let schema = Schema::builder()
        .numeric("num", IntRange::new(0, 65_535).expect("valid"), 1)
        .expect("valid nakt")
        .build();
    let kdc = Kdc::from_seed(b"bench");
    let filter = Filter::for_topic("w").with(Constraint::new(
        "num",
        Op::InRange(IntRange::new(0, 32_767).expect("valid")),
    ));
    let mut ops = OpCounter::new();
    let grant = kdc
        .grant(&schema, &filter, EpochId(0), &TopicScope::Shared, &mut ops)
        .expect("grantable");
    let event = Event::builder("w").attr("num", 12_345i64).build();
    let addrs = psguard_keys::event_key_addresses(&schema, &event).expect("valid");
    c.bench_function("subscriber_event_key_derivation_R64k", |b| {
        b.iter(|| {
            let mut ops = OpCounter::new();
            grant
                .event_key(&schema, black_box(&addrs), &mut ops)
                .expect("authorized")
        })
    });
}

/// The arity ablation: a = 2 minimizes authorization keys per grant
/// (§3.1's optimality claim), even though deeper trees cost more hashes
/// per derivation step count.
fn bench_arity_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("nakt_arity");
    for arity in [2u8, 4, 8, 16] {
        let nakt =
            Nakt::with_arity(IntRange::new(0, 4095).expect("valid"), 1, arity).expect("valid");
        let q = IntRange::new(100, 3000).expect("valid");
        // Report the key count alongside timing via the bench id.
        let keys = nakt.canonical_cover(&q).expect("in range").len();
        group.bench_function(
            BenchmarkId::new("cover", format!("a={arity} keys={keys}")),
            |b| b.iter(|| nakt.canonical_cover(black_box(&q)).expect("in range")),
        );
    }
    group.finish();
}

fn bench_key_cache(c: &mut Criterion) {
    let nakt = Nakt::binary(IntRange::new(0, 65_535).expect("valid"), 1).expect("valid");
    let topic = DeriveKey::from_bytes(b"K(w)");
    let space = NaktKeySpace::new(nakt.clone(), &topic, b"num");
    let mut ops = OpCounter::new();
    let auth = AuthKey {
        scope: KeyScope::Numeric {
            attr: "num".into(),
            ktid: Ktid::root(),
        },
        key: space.root_key().clone(),
        epoch: EpochId(0),
    };
    // A locality stream of adjacent leaves.
    let targets: Vec<Ktid> = (10_000..10_064)
        .map(|v| nakt.ktid_of_value(v).expect("in range"))
        .collect();

    c.bench_function("derive_64_events_no_cache", |b| {
        b.iter(|| {
            let mut ops = OpCounter::new();
            for t in &targets {
                NaktKeySpace::derive_descendant(&auth.key, &Ktid::root(), t, &mut ops)
                    .expect("derivable");
            }
        })
    });
    c.bench_function("derive_64_events_with_cache", |b| {
        b.iter(|| {
            let mut cache = KeyCache::new(64 * 1024);
            let mut ops = OpCounter::new();
            for t in &targets {
                cache
                    .derive_numeric_cached(&auth, t, &mut ops)
                    .expect("derivable");
            }
        })
    });
    let _ = &mut ops;

    // The publisher's shape on a many-topic stream: 16 hierarchies keying
    // one attribute, R = 256, uniform values, the default 64 KiB cache.
    // Most derivations evict, so caching has to pay for itself here.
    let nakt = Nakt::binary(IntRange::new(0, 255).expect("valid"), 1).expect("valid");
    let auths: Vec<AuthKey> = (0..16)
        .map(|t| AuthKey {
            scope: KeyScope::Numeric {
                attr: "value".into(),
                ktid: Ktid::root(),
            },
            key: NaktKeySpace::new(nakt.clone(), &DeriveKey::from_bytes(&[t]), b"value")
                .root_key()
                .clone(),
            epoch: EpochId(0),
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(7);
    let stream: Vec<(&AuthKey, Ktid)> = (0..1024)
        .map(|i| {
            let v = rng.gen_range(0..256i64);
            (&auths[i % 16], nakt.ktid_of_value(v).expect("in range"))
        })
        .collect();
    c.bench_function("derive_1024_16h_thrash_no_cache", |b| {
        b.iter(|| {
            let mut ops = OpCounter::new();
            for (auth, t) in &stream {
                NaktKeySpace::derive_descendant(&auth.key, &Ktid::root(), t, &mut ops)
                    .expect("derivable");
            }
        })
    });
    let mut cache = KeyCache::new(64 * 1024);
    c.bench_function("derive_1024_16h_thrash_with_cache", |b| {
        b.iter(|| {
            let mut ops = OpCounter::new();
            for (auth, t) in &stream {
                cache
                    .derive_numeric_cached(auth, t, &mut ops)
                    .expect("derivable");
            }
        })
    });
    // Exact hits: 64 targets that fit in the cache, repeated.
    let hot = &stream[..64];
    let mut cache = KeyCache::new(64 * 1024);
    c.bench_function("derive_1024_16h_warm_hits", |b| {
        b.iter(|| {
            let mut ops = OpCounter::new();
            for (auth, t) in hot.iter().cycle().take(stream.len()) {
                cache
                    .derive_numeric_cached(auth, t, &mut ops)
                    .expect("derivable");
            }
        })
    });
}

criterion_group!(
    benches,
    bench_grant_generation,
    bench_event_key_derivation,
    bench_arity_ablation,
    bench_key_cache
);
criterion_main!(benches);
