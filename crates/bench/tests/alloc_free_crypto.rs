//! The one-shot SHA-1 MAC paths allocate nothing: keying, absorbing and
//! finalizing run on the stack, so every `KH`, content key, PRF token and
//! one-shot tag match costs compressions only.

use psguard_crypto::{hmac_sha1, prf, DeriveKey, Hmac};
use psguard_routing::RoutableTag;

#[path = "../src/alloc_counter.rs"]
mod alloc_counter;

#[global_allocator]
static GLOBAL: alloc_counter::Counting = alloc_counter::Counting;

const ROUNDS: usize = 64;

/// Every one-shot path once; returns a value depending on all of them.
fn one_of_each(node: &DeriveKey, tag: &RoutableTag, i: usize) -> u8 {
    let label = i.to_be_bytes();
    let mac = hmac_sha1(node.as_bytes(), &label);
    let child = node.kh(&label);
    let content = node.content_key();
    let token = prf(node.as_bytes(), &label);
    let hit = tag.matches(&token);
    let mut streamed = Hmac::new(node.as_bytes());
    streamed.update(&label);
    streamed.update(&mac);
    let streamed = streamed.finalize();
    mac[0] ^ child.as_bytes()[0] ^ content.as_bytes()[0] ^ u8::from(hit) ^ streamed[0]
}

// The only test in this binary: the counter is process-wide.
#[test]
fn one_shot_mac_paths_allocate_nothing() {
    let node = DeriveKey::from_bytes(b"alloc-free-crypto");
    let tag = RoutableTag::with_nonce(&prf(node.as_bytes(), b"topic"), [7u8; 16]);
    let mut acc = 0u8;
    for i in 0..ROUNDS {
        acc ^= one_of_each(&node, &tag, i);
    }

    let before = alloc_counter::ALLOCS.load(std::sync::atomic::Ordering::Relaxed);
    for i in 0..ROUNDS {
        acc ^= one_of_each(&node, &tag, i);
    }
    let allocs = alloc_counter::ALLOCS.load(std::sync::atomic::Ordering::Relaxed) - before;
    std::hint::black_box(acc);
    assert_eq!(allocs, 0, "one-shot MAC paths must not allocate");
}
