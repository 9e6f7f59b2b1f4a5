//! Allocation ceilings for the endpoints once their caches are warm:
//! `Publisher::publish`, `Subscriber::decrypt`, and the §3.2.3 key cache
//! under both. The stream is 16 topics over one numeric attribute with
//! R = 256 and the default 64 KiB key cache, with uniform values, so the
//! publisher's key cache keeps evicting.

use psguard::{PsGuard, PsGuardConfig, Subscriber};
use psguard_crypto::DeriveKey;
use psguard_keys::{
    AuthKey, EpochId, KeyCache, KeyScope, Ktid, Nakt, NaktKeySpace, OpCounter, Schema,
};
use psguard_model::{Constraint, Event, Filter, IntRange, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "../src/alloc_counter.rs"]
mod alloc_counter;

#[global_allocator]
static GLOBAL: alloc_counter::Counting = alloc_counter::Counting;

const TOPICS: usize = 16;
const CACHE_BYTES: usize = 64 * 1024;

fn allocs() -> u64 {
    alloc_counter::ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
}

fn events(n: usize, seed: u64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            Event::builder(format!("topic-{}", i % TOPICS))
                .attr("x", rng.gen_range(0..256i64))
                .payload(vec![7u8; 64])
                .build()
        })
        .collect()
}

/// Root authorization keys of 16 hierarchies that all key attribute "x".
fn hierarchies(nakt: &Nakt) -> Vec<AuthKey> {
    (0..TOPICS)
        .map(|t| {
            let topic = DeriveKey::from_bytes(format!("K(topic-{t})").as_bytes());
            AuthKey {
                scope: KeyScope::Numeric {
                    attr: "x".into(),
                    ktid: Ktid::root(),
                },
                key: NaktKeySpace::new(nakt.clone(), &topic, b"x")
                    .root_key()
                    .clone(),
                epoch: EpochId(0),
            }
        })
        .collect()
}

/// Allocations made by `derive_numeric_cached` over `stream`.
fn cache_allocs(cache: &mut KeyCache, auths: &[AuthKey], stream: &[(usize, Ktid)]) -> u64 {
    let mut ops = OpCounter::new();
    let before = allocs();
    for (a, t) in stream {
        cache.derive_numeric_cached(&auths[*a], t, &mut ops);
    }
    allocs() - before
}

// The only test in this binary: the counter is process-wide.
#[test]
fn warm_endpoints_stay_under_their_allocation_ceilings() {
    // The key cache alone: a thrashing stream evicts on nearly every
    // call, a warm one hits exactly; neither may allocate.
    let nakt = Nakt::binary(IntRange::new(0, 255).expect("valid"), 1).expect("valid");
    let auths = hierarchies(&nakt);
    let mut rng = StdRng::seed_from_u64(11);
    let mut draw = |n: usize, values: i64| -> Vec<(usize, Ktid)> {
        (0..n)
            .map(|i| {
                let v = rng.gen_range(0..values);
                (i % TOPICS, nakt.ktid_of_value(v).expect("in range"))
            })
            .collect()
    };
    let (warm, thrash) = (draw(8192, 256), draw(4096, 256));
    let mut cache = KeyCache::new(CACHE_BYTES);
    cache_allocs(&mut cache, &auths, &warm);
    let before = cache.stats();
    assert_eq!(
        cache_allocs(&mut cache, &auths, &thrash),
        0,
        "thrashing stream"
    );
    let after = cache.stats();
    assert!(
        after.evictions - before.evictions > thrash.len() as u64,
        "the stream must thrash"
    );

    let hot = draw(64, 16);
    let repeat: Vec<_> = hot.iter().cycle().take(4096).cloned().collect();
    let mut cache = KeyCache::new(CACHE_BYTES);
    cache_allocs(&mut cache, &auths, &hot);
    let before = cache.stats();
    assert_eq!(cache_allocs(&mut cache, &auths, &repeat), 0, "warm stream");
    assert_eq!(
        cache.stats().hits - before.hits,
        repeat.len() as u64,
        "every warm call is an exact hit"
    );

    // The endpoints, on the same shape of stream.
    let schema = Schema::builder()
        .numeric("x", IntRange::new(0, 255).expect("valid"), 1)
        .expect("valid nakt")
        .build();
    let config = PsGuardConfig {
        key_cache_bytes: CACHE_BYTES,
        ..PsGuardConfig::default()
    };
    let ps = PsGuard::new(b"alloc-endpoints", schema, config);
    let mut publisher = ps.publisher("P");
    let mut holders: Vec<Subscriber> = (0..TOPICS)
        .map(|t| {
            let topic = format!("topic-{t}");
            ps.authorize_publisher(&mut publisher, &topic, 0);
            let mut holder = ps.subscriber(format!("S{t}"));
            let filter = Filter::for_topic(topic).with(Constraint::new(
                "x",
                Op::InRange(IntRange::new(0, 255).expect("valid")),
            ));
            ps.authorize_subscriber(&mut holder, &filter, 0)
                .expect("grantable");
            holder
        })
        .collect();

    let stream = events(8192, 5);
    let (warm, measured) = stream.split_at(6144);
    for (i, e) in warm.iter().enumerate() {
        let sealed = publisher.publish(e, 0).expect("published");
        holders[i % TOPICS].decrypt(&sealed).expect("decrypted");
    }
    let n = measured.len() as u64;

    let before = allocs();
    let sealed: Vec<_> = measured
        .iter()
        .map(|e| publisher.publish(e, 0).expect("published"))
        .collect();
    // Minus the one allocation of the collecting `Vec`.
    let publish_allocs = allocs() - before - 1;
    assert!(
        publish_allocs <= 10 * n,
        "publish: {:.2} allocations per event",
        publish_allocs as f64 / n as f64
    );

    let before = allocs();
    for (i, s) in sealed.iter().enumerate() {
        let plain = holders[i % TOPICS].decrypt(s).expect("decrypted");
        assert_eq!(plain.payload(), measured[i].payload());
    }
    let decrypt_allocs = allocs() - before;
    assert!(
        decrypt_allocs <= 8 * n,
        "decrypt: {:.2} allocations per delivery",
        decrypt_allocs as f64 / n as f64
    );
}
