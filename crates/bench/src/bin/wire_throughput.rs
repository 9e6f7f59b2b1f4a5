//! Wire fast-path throughput: encode-once pooled fan-out vs. the legacy
//! per-recipient serialization.
//!
//! Models a broker fanning one published event out to 64 subscriber
//! connections (in-memory sinks, so the comparison isolates the send
//! path itself, not the kernel):
//!
//! * **baseline** — the pre-change path: one `msg.to_bytes()` per
//!   recipient, then the old two-`write_all` framing (length prefix and
//!   payload as separate writes);
//! * **fastpath** — `FramePool::encode` once per event (prefix written
//!   into the same pooled buffer), an `Arc` clone per recipient, and
//!   per-connection batches drained through one coalesced
//!   `write_frames` call — the same cursor the reactor's connections
//!   drain their batches through.
//!
//! A counting `#[global_allocator]` measures heap allocations per
//! disseminated event on each path. Writes machine-readable results to
//! `BENCH_wire.json` in the current directory and asserts the fast path
//! is ≥2x frames/sec and ≥10x fewer allocations — in `--smoke` mode too
//! (CI runs fewer iterations but still fails if the ratios regress).

use std::fmt::Write as _;
use std::time::Instant;

use psguard_model::{Event, Filter};
use psguard_siena::wire::{Message, Wire};
use psguard_siena::{write_frames, FramePool, SharedFrame};

#[path = "../alloc_counter.rs"]
mod alloc_counter;

#[global_allocator]
static GLOBAL: alloc_counter::Counting = alloc_counter::Counting;

fn allocs_now() -> u64 {
    alloc_counter::ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Fan-out degree: subscriber connections per published event.
const CONNS: usize = 64;
/// Events per measured pass.
const EVENTS: usize = 256;
/// Events per coalesced writer drain on the fast path (mirrors the TCP
/// writer's MAX_COALESCE).
const BATCH: usize = 32;
/// Payload bytes per event.
const PAYLOAD: usize = 512;

type Msg = Message<Filter, Event>;

fn event_pool() -> Vec<Msg> {
    (0..EVENTS)
        .map(|i| {
            Message::Publish(
                Event::builder("stocks")
                    .publisher("bench")
                    .attr("price", (i % 100) as i64)
                    .attr("volume", (i * 37) as i64)
                    .attr("sym", "GOOG")
                    .payload(vec![(i % 251) as u8; PAYLOAD])
                    .build(),
            )
        })
        .collect()
}

/// The legacy two-write framing `write_frame` used before the fast path:
/// length prefix and payload as separate `write_all` calls.
fn legacy_write_frame(sink: &mut Vec<u8>, payload: &[u8]) {
    use std::io::Write;
    let _ = sink.write_all(&(payload.len() as u32).to_be_bytes());
    let _ = sink.write_all(payload);
}

/// One baseline pass: per recipient, serialize the message afresh and
/// write it with the legacy two-write framing.
fn baseline_pass(pool: &[Msg], sinks: &mut [Vec<u8>]) {
    for sink in sinks.iter_mut() {
        sink.clear();
    }
    for msg in pool {
        for sink in sinks.iter_mut() {
            let bytes = msg.to_bytes();
            legacy_write_frame(sink, &bytes);
        }
    }
}

/// One fast-path pass: encode each event once into a pooled shared
/// frame, clone the `Arc` per recipient, and drain per-connection
/// batches through one coalesced vectored write each.
fn fastpath_pass(
    pool: &[Msg],
    frame_pool: &FramePool,
    sinks: &mut [Vec<u8>],
    batches: &mut [Vec<SharedFrame>],
) {
    for sink in sinks.iter_mut() {
        sink.clear();
    }
    for chunk in pool.chunks(BATCH) {
        for msg in chunk {
            let frame = frame_pool.encode(msg);
            for batch in batches.iter_mut() {
                batch.push(frame.clone());
            }
        }
        for (sink, batch) in sinks.iter_mut().zip(batches.iter_mut()) {
            write_frames(sink, batch).expect("in-memory write");
            batch.clear();
        }
    }
}

/// Fan-out frames/sec plus passes sampled: at least `min_passes` passes
/// and `min_ms` of wall time.
fn measure(mut run_pass: impl FnMut(), min_passes: usize, min_ms: u128) -> (f64, usize) {
    run_pass(); // Warm-up (grows sinks and the frame pool once).
    let mut passes = 0usize;
    let start = Instant::now();
    while passes < min_passes || start.elapsed().as_millis() < min_ms {
        run_pass();
        passes += 1;
    }
    (
        (passes * EVENTS * CONNS) as f64 / start.elapsed().as_secs_f64(),
        passes,
    )
}

/// Allocations per disseminated event over one measured pass (after the
/// caller has warmed the path up).
fn measure_allocs(mut run_pass: impl FnMut()) -> f64 {
    run_pass(); // Warm-up.
    let before = allocs_now();
    run_pass();
    (allocs_now() - before) as f64 / EVENTS as f64
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (min_passes, min_ms): (usize, u128) = if smoke { (2, 20) } else { (8, 500) };

    let pool = event_pool();
    let frame_bytes = pool[0].to_bytes().len() + 4;

    // Pre-size sinks so steady-state passes never grow them.
    let mut sinks: Vec<Vec<u8>> = (0..CONNS)
        .map(|_| Vec::with_capacity(EVENTS * (frame_bytes + 64)))
        .collect();

    let (baseline_fps, baseline_passes) =
        measure(|| baseline_pass(&pool, &mut sinks), min_passes, min_ms);
    let baseline_allocs = measure_allocs(|| baseline_pass(&pool, &mut sinks));

    let frame_pool = FramePool::new();
    let mut batches: Vec<Vec<SharedFrame>> =
        (0..CONNS).map(|_| Vec::with_capacity(BATCH)).collect();
    let (fast_fps, fast_passes) = measure(
        || fastpath_pass(&pool, &frame_pool, &mut sinks, &mut batches),
        min_passes,
        min_ms,
    );
    let fast_allocs =
        measure_allocs(|| fastpath_pass(&pool, &frame_pool, &mut sinks, &mut batches));

    // Both passes must put identical bytes on the "socket".
    {
        baseline_pass(&pool, &mut sinks);
        let want = sinks[0].clone();
        fastpath_pass(&pool, &frame_pool, &mut sinks, &mut batches);
        assert_eq!(sinks[0], want, "fast path changed the wire format");
    }

    let speedup = fast_fps / baseline_fps;
    let alloc_ratio = baseline_allocs / fast_allocs.max(f64::MIN_POSITIVE);
    println!(
        "baseline  {baseline_fps:>12.0} frames/s ({baseline_passes} passes)  {baseline_allocs:>8.2} allocs/event"
    );
    println!(
        "fastpath  {fast_fps:>12.0} frames/s ({fast_passes} passes)  {fast_allocs:>8.2} allocs/event"
    );
    println!("speedup {speedup:.2}x   alloc ratio {alloc_ratio:.1}x   ({CONNS} connections)");

    let mut json = String::from(
        "{\n  \"bench\": \"wire_throughput\",\n  \"unit\": \"fanout_frames_per_second\",\n",
    );
    let _ = writeln!(
        json,
        "  \"connections\": {CONNS}, \"events_per_pass\": {EVENTS}, \"coalesce_batch\": {BATCH}, \"payload_bytes\": {PAYLOAD}, \"frame_bytes\": {frame_bytes}, \"smoke\": {smoke},"
    );
    let _ = writeln!(
        json,
        "  \"baseline\": {{\"fps\": {baseline_fps:.1}, \"passes\": {baseline_passes}, \"allocs_per_event\": {baseline_allocs:.2}}},"
    );
    let _ = writeln!(
        json,
        "  \"fastpath\": {{\"fps\": {fast_fps:.1}, \"passes\": {fast_passes}, \"allocs_per_event\": {fast_allocs:.2}}},"
    );
    let _ = writeln!(
        json,
        "  \"speedup\": {speedup:.2},\n  \"alloc_ratio\": {alloc_ratio:.1}\n}}"
    );
    std::fs::write("BENCH_wire.json", &json).expect("write BENCH_wire.json");
    println!("wrote BENCH_wire.json");

    // Asserted in smoke mode too: CI fails when the fast path regresses.
    assert!(
        speedup >= 2.0,
        "encode-once fan-out must be >= 2x the per-recipient path at {CONNS} connections, got {speedup:.2}x"
    );
    assert!(
        alloc_ratio >= 10.0,
        "fast path must allocate >= 10x less per disseminated event, got {alloc_ratio:.1}x \
         ({baseline_allocs:.2} vs {fast_allocs:.2})"
    );
}
