//! Million-subscriber end-to-end macro-bench: publisher encrypt →
//! `Broker::route` match → wire fan-out, under adversarial workloads.
//!
//! Two sections, both landing in `BENCH_e2e.json`:
//!
//! * **sizes** — the e2e trajectory over {10k, 100k, 1M} subscriptions:
//!   each measured pass AES-CBC-encrypts the payload, PRF-tags the
//!   topic in batches, routes each event through the broker's match
//!   driver (one `ProbeTable` sweep per event, recipients as a slice
//!   over reused scratch), then encodes each delivered event once into
//!   a pooled wire frame and charges its bytes per recipient — the
//!   reactor dispatcher's encode-once fan-out.
//! * **scenarios** — every [`ScenarioKind`] replayed end-to-end with
//!   churn and revocations applied at their pinned positions.
//!
//! `--smoke` shrinks every axis to CI seconds and swaps the perf floors
//! for the correctness floors (equality + positive rates) — perf floors
//! on shared CI runners are noise, as pipeline_scaling learned.

use std::time::Instant;

use psguard_analysis::{ChurnKind, PublishOp, ScenarioConfig, ScenarioKind, ScenarioTrace};
use psguard_bench::support::{assert_floor, measure, write_bench_json, Json};
use psguard_crypto::{cbc_encrypt, kh, prf, Aes128, Token};
use psguard_model::{Constraint, Event, IntRange, Op};
use psguard_routing::{RoutableTag, SecureEvent, SecureFilter};
use psguard_siena::{Broker, FramePool, Message, Peer};

/// Distinct topics (Zipf ranks = live tokens probed per event).
const TOPICS: usize = 256;
/// Events encrypted per batch before routing.
const BATCH: usize = 256;
/// Plaintext payload bytes per event (encrypted in the measured loop).
const PAYLOAD: usize = 256;

fn topic_token(t: u32) -> Token {
    prf(b"e2e-master", format!("topic{t:03}").as_bytes())
}

fn secure_filter(topic: u32, lo: i64, hi: i64) -> SecureFilter {
    SecureFilter {
        token: topic_token(topic),
        constraints: vec![Constraint::new(
            "x",
            Op::InRange(IntRange::new(lo, hi).expect("trace ranges are ordered")),
        )],
    }
}

/// The publisher: PRF topic tag, AES-CBC payload, encrypt-then-MAC.
/// This is the per-event cost the e2e loop pays before routing.
fn encrypt_event(
    cipher: &Aes128,
    tokens: &[Token],
    topic: u32,
    value: i64,
    seq: u64,
    plaintext: &[u8],
) -> SecureEvent {
    let mut nonce = [0u8; 16];
    nonce[..8].copy_from_slice(&seq.to_le_bytes());
    let iv = kh(b"e2e-iv", &nonce)[..16]
        .try_into()
        .expect("kh yields 20 bytes");
    let ciphertext = cbc_encrypt(cipher, &iv, plaintext);
    let mut mac_input = Vec::with_capacity(16 + ciphertext.len());
    mac_input.extend_from_slice(&iv);
    mac_input.extend_from_slice(&ciphertext);
    let mac = kh(b"e2e-mac", &mac_input);
    SecureEvent {
        tag: RoutableTag::with_nonce(&tokens[topic as usize], nonce),
        event: Event::builder("")
            .attr("x", value)
            .payload(ciphertext)
            .build(),
        iv,
        epoch: 0,
        mac,
    }
}

/// Routes one batch through `broker` and encodes each delivered event
/// once, calling `fan_out(recipients, frame_bytes)` per delivered event.
/// Returns the batch's matching work.
fn route_batch(
    broker: &mut Broker<SecureFilter>,
    batch: Vec<SecureEvent>,
    pool: &FramePool,
    mut fan_out: impl FnMut(usize, usize),
) -> u64 {
    let mut work = 0;
    for event in batch {
        let recipients = broker.route(Peer::Parent, &event).len();
        work += broker.last_match_work();
        if recipients > 0 {
            // Encode once, fan the shared frame out to every recipient.
            let frame = pool.encode(&Message::<SecureFilter, SecureEvent>::Publish(event));
            fan_out(recipients, frame.wire_bytes().len());
        }
    }
    work
}

/// Encrypts one batch of the trace's publish stream, numbering events
/// from `seq`.
fn encrypt_batch(
    cipher: &Aes128,
    tokens: &[Token],
    chunk: &[PublishOp],
    seq: u64,
    plaintext: &[u8],
) -> Vec<SecureEvent> {
    (seq..)
        .zip(chunk)
        .map(|(seq, p)| encrypt_event(cipher, tokens, p.topic, p.value, seq, plaintext))
        .collect()
}

/// One full e2e pass over the trace's publish stream: encrypt, match,
/// wire-encode, charge bytes per recipient. Returns (deliveries, bytes,
/// matching work of the last batch).
fn e2e_pass(
    broker: &mut Broker<SecureFilter>,
    cipher: &Aes128,
    tokens: &[Token],
    trace: &ScenarioTrace,
    plaintext: &[u8],
    pool: &FramePool,
) -> (u64, u64, u64) {
    let mut delivered = 0u64;
    let mut bytes = 0u64;
    let mut batch_work = 0u64;
    for (i, chunk) in trace.publishes.chunks(BATCH).enumerate() {
        let batch = encrypt_batch(cipher, tokens, chunk, (i * BATCH) as u64, plaintext);
        batch_work = route_batch(broker, batch, pool, |recipients, frame_bytes| {
            delivered += recipients as u64;
            bytes += (frame_bytes * recipients) as u64;
        });
    }
    (delivered, bytes, batch_work)
}

struct SizeRow {
    subscriptions: usize,
    eps: f64,
    iters: usize,
    delivered_per_pass: u64,
    wire_mb_per_pass: f64,
    batch_work: u64,
}

/// The e2e trajectory cell at `n` subscriptions.
fn run_size(n: usize, events: usize, min_ms: u128, tokens: &[Token]) -> SizeRow {
    let cfg = ScenarioConfig {
        kind: ScenarioKind::Steady,
        topics: TOPICS,
        zipf_s: 1.1,
        subscribers: n as u32,
        events,
        value_range: 256,
        sub_width: 96,
        seed: 0x5e2e,
    };
    let trace = ScenarioTrace::generate(&cfg);

    let mut broker: Broker<SecureFilter> = Broker::new(true);
    for s in &trace.initial {
        broker.subscribe(Peer::Local(s.client), secure_filter(s.topic, s.lo, s.hi));
    }

    let cipher = Aes128::new(&[0x42; 16]);
    let plaintext = vec![0xABu8; PAYLOAD];
    let pool = FramePool::new();
    let mut delivered = 0u64;
    let mut bytes = 0u64;
    let mut batch_work = 0u64;
    let m = measure(1, 1, min_ms, |_| {
        (delivered, bytes, batch_work) =
            e2e_pass(&mut broker, &cipher, tokens, &trace, &plaintext, &pool);
    });
    let eps = m.per_sec * trace.publishes.len() as f64;
    let row = SizeRow {
        subscriptions: n,
        eps,
        iters: m.iters,
        delivered_per_pass: delivered,
        wire_mb_per_pass: bytes as f64 / 1e6,
        batch_work,
    };
    println!(
        "n={n:>8}  e2e {eps:>11.0} ev/s ({} passes)  fanout/pass {delivered}  wire {:.1} MB/pass",
        m.iters, row.wire_mb_per_pass
    );
    row
}

struct ScenarioRow {
    kind: ScenarioKind,
    eps: f64,
    delivered: u64,
    churn_ops: usize,
    revocations: usize,
}

/// Replays one scenario end-to-end, applying churn and revocations at
/// their pinned positions in the publish stream. Returns the timed row;
/// the replay runs twice (warm, then measured).
fn run_scenario(kind: ScenarioKind, subs: u32, events: usize, tokens: &[Token]) -> ScenarioRow {
    let cfg = ScenarioConfig {
        kind,
        topics: TOPICS,
        zipf_s: 1.1,
        subscribers: subs,
        events,
        value_range: 256,
        sub_width: 96,
        seed: 0xad0 + kind as u64,
    };
    let trace = ScenarioTrace::generate(&cfg);
    let cipher = Aes128::new(&[0x42; 16]);
    let plaintext = vec![0xABu8; PAYLOAD];
    let pool = FramePool::new();

    let mut timed = 0.0f64;
    let mut delivered = 0u64;
    for round in 0..2 {
        // Fresh broker per round: churn and revocations mutate it.
        let mut broker: Broker<SecureFilter> = Broker::new(true);
        for s in &trace.initial {
            broker.subscribe(Peer::Local(s.client), secure_filter(s.topic, s.lo, s.hi));
        }

        let mut churn = trace.churn.iter().peekable();
        let mut revs = trace.revocations.iter().peekable();
        delivered = 0;
        let start = Instant::now();
        let mut at = 0usize;
        for chunk in trace.publishes.chunks(BATCH) {
            // Apply every operation pinned inside this batch window up
            // front; batching quantizes "before event k" to the batch
            // boundary, which is fine for a throughput bench.
            while let Some(c) = churn.peek().filter(|c| c.at_event < at + chunk.len()) {
                let f = secure_filter(c.sub.topic, c.sub.lo, c.sub.hi);
                let peer = Peer::Local(c.sub.client);
                match c.kind {
                    ChurnKind::Join => {
                        broker.subscribe(peer, f);
                    }
                    ChurnKind::Leave => {
                        broker.unsubscribe(peer, &f);
                    }
                }
                churn.next();
            }
            // A revoked client loses every subscription it holds.
            while let Some(r) = revs.peek().filter(|r| r.at_event < at + chunk.len()) {
                broker.peer_down(Peer::Local(r.client));
                revs.next();
            }

            let batch = encrypt_batch(&cipher, tokens, chunk, at as u64, &plaintext);
            route_batch(&mut broker, batch, &pool, |recipients, frame_bytes| {
                std::hint::black_box(frame_bytes);
                delivered += recipients as u64;
            });
            at += chunk.len();
        }
        if round == 1 {
            timed = start.elapsed().as_secs_f64();
        }
    }

    let eps = trace.publishes.len() as f64 / timed;
    println!(
        "scenario {:<16}  {eps:>10.0} ev/s  deliveries {delivered}  churn {}  revocations {}",
        kind.name(),
        trace.churn.len(),
        trace.revocations.len()
    );
    ScenarioRow {
        kind,
        eps,
        delivered,
        churn_ops: trace.churn.len(),
        revocations: trace.revocations.len(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, events, min_ms): (&[usize], usize, u128) = if smoke {
        (&[1_000, 10_000], 512, 20)
    } else {
        (&[10_000, 100_000, 1_000_000], 2_048, 400)
    };
    let (scenario_subs, scenario_events) = if smoke { (500, 256) } else { (10_000, 4_096) };

    let tokens: Vec<Token> = (0..TOPICS as u32).map(topic_token).collect();

    let rows: Vec<SizeRow> = sizes
        .iter()
        .map(|&n| run_size(n, events, min_ms, &tokens))
        .collect();

    let scenarios: Vec<ScenarioRow> = ScenarioKind::ALL
        .iter()
        .map(|&k| run_scenario(k, scenario_subs, scenario_events, &tokens))
        .collect();

    let doc = Json::obj()
        .field("bench", Json::str("e2e_scaling"))
        .field("unit", Json::str("events_per_second"))
        .field("smoke", Json::Bool(smoke))
        .field("topics", Json::Int(TOPICS as u64))
        .field("batch", Json::Int(BATCH as u64))
        .field("payload_bytes", Json::Int(PAYLOAD as u64))
        .field(
            "sizes",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj()
                            .field("subscriptions", Json::Int(r.subscriptions as u64))
                            .field("e2e_eps", Json::f1(r.eps))
                            .field("passes", Json::Int(r.iters as u64))
                            .field("deliveries_per_pass", Json::Int(r.delivered_per_pass))
                            .field("wire_mb_per_pass", Json::f2(r.wire_mb_per_pass))
                            .field("batch_work", Json::Int(r.batch_work))
                    })
                    .collect(),
            ),
        )
        .field(
            "scenarios",
            Json::Arr(
                scenarios
                    .iter()
                    .map(|s| {
                        Json::obj()
                            .field("scenario", Json::str(s.kind.name()))
                            .field("subscriptions", Json::Int(scenario_subs as u64))
                            .field("eps", Json::f1(s.eps))
                            .field("deliveries", Json::Int(s.delivered))
                            .field("churn_ops", Json::Int(s.churn_ops as u64))
                            .field("revocations", Json::Int(s.revocations as u64))
                    })
                    .collect(),
            ),
        );
    write_bench_json("BENCH_e2e.json", &doc);

    // Correctness floors hold in both modes: the broker delivered
    // something everywhere, and every scenario produced deliveries.
    for r in &rows {
        assert!(
            r.eps.is_finite() && r.eps > 0.0 && r.delivered_per_pass > 0,
            "size {} produced no throughput",
            r.subscriptions
        );
    }
    for s in &scenarios {
        assert!(
            s.eps.is_finite() && s.eps > 0.0 && s.delivered > 0,
            "scenario {} produced no deliveries",
            s.kind.name()
        );
    }
    if smoke {
        println!("smoke mode: perf floors skipped (correctness floors held)");
        return;
    }

    // Perf floor (full mode, the acceptance gate): scaling 10x
    // subscribers (100k → 1M) may cost at most 15x in e2e throughput —
    // the trajectory stays sublinear in fanout.
    let at_100k = rows
        .iter()
        .find(|r| r.subscriptions == 100_000)
        .expect("100k row");
    let at_1m = rows
        .iter()
        .find(|r| r.subscriptions == 1_000_000)
        .expect("1M row");
    assert_floor(
        "e2e throughput 1M vs 100k/15",
        at_1m.eps / (at_100k.eps / 15.0),
        1.0,
    );
}
