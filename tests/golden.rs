//! Golden bytes: what the system emits under a fixed master seed, pinned
//! as hashes. A change that claims "byte-identical output" (a faster
//! kernel, a new batch path) must leave every hash here unchanged.
//!
//! The deployment is fixed: one master seed, one schema (numeric,
//! category and string-prefix attributes), three topics, epochs 0 and 1,
//! and `publish_batch` at 1 and 4 workers. Payload lengths straddle the
//! AES and SHA-1 block boundaries up to 4 KiB, so every partial-block and
//! multi-block path of `E`, `KH` and `F` is in the bytes. One frame of
//! every wire `Message` variant, carrying a sealed event and a secure
//! filter of the same deployment, is pinned beside them.
//!
//! The digest is FNV-1a (64-bit) plus the byte count: it is independent
//! of the SHA-1 under test, and collision resistance is not needed to
//! notice a changed byte.

use psguard::{PsGuard, PsGuardConfig};
use psguard_keys::{AuthKey, Grant, Schema};
use psguard_model::{AttrValue, CategoryPath, Constraint, Event, Filter, IntRange, Op};
use psguard_siena::wire::Wire;

const TOPICS: [&str; 3] = ["alpha", "beta", "gamma"];
const EPOCHS: [u64; 2] = [0, 1];
const PAYLOAD_LENS: [usize; 12] = [0, 1, 15, 16, 17, 55, 56, 63, 64, 65, 1000, 4096];

/// FNV-1a over everything fed to it, plus the byte count.
struct Digest {
    hash: u64,
    len: usize,
}

impl Digest {
    fn new() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            len: 0,
        }
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.len += bytes.len();
    }

    fn hex(&self) -> String {
        format!("{:016x}/{}", self.hash, self.len)
    }
}

fn deployment() -> PsGuard {
    let schema = Schema::builder()
        .numeric("age", IntRange::new(0, 255).expect("valid"), 1)
        .expect("valid nakt")
        .category("diag", 4)
        .str_prefix("sym", 8)
        .build();
    PsGuard::new(b"golden-master-seed", schema, PsGuardConfig::default())
}

/// A fixed batch: every topic, every payload length, values spread over
/// each keyed attribute.
fn events() -> Vec<Event> {
    let mut out = Vec::new();
    for (t, topic) in TOPICS.iter().enumerate() {
        for (i, &len) in PAYLOAD_LENS.iter().enumerate() {
            let k = t * PAYLOAD_LENS.len() + i;
            let payload = (0..len).map(|j| (j * 31 + k) as u8).collect();
            let builder = Event::builder(*topic).payload(payload);
            let event = match k % 3 {
                0 => builder.attr("age", (k * 7 % 256) as i64),
                1 => builder.attr(
                    "diag",
                    AttrValue::Category(CategoryPath::from_indices([k as u32 % 4, 1, 2])),
                ),
                _ => builder.attr("sym", ["GOOG", "GE", "IBM", "MSFT"][k % 4]),
            };
            out.push(event.build());
        }
    }
    out
}

/// One filter per family and topic, each covering part of [`events`].
fn filters() -> Vec<Filter> {
    TOPICS
        .iter()
        .flat_map(|topic| {
            [
                Filter::for_topic(*topic),
                Filter::for_topic(*topic).with(Constraint::new("age", Op::Ge(40))),
                Filter::for_topic(*topic).with(Constraint::new(
                    "diag",
                    Op::CategoryIn(CategoryPath::from_indices([1])),
                )),
                Filter::for_topic(*topic).with(Constraint::new("sym", Op::StrPrefix("G".into()))),
            ]
        })
        .collect()
}

fn feed_auth(d: &mut Digest, auth: &AuthKey) {
    d.feed(format!("{:?}/{:?}", auth.scope, auth.epoch).as_bytes());
    d.feed(auth.key.as_bytes());
}

fn feed_grant(d: &mut Digest, grant: &Grant) {
    d.feed(grant.topic.as_bytes());
    d.feed(&grant.epoch.0.to_be_bytes());
    if let Some(auth) = &grant.topic_auth {
        feed_auth(d, auth);
    }
    for c in &grant.constraints {
        d.feed(c.attr.as_bytes());
        for auth in &c.alternatives {
            feed_auth(d, auth);
        }
    }
}

/// Hashes of the `publish_batch` wire bytes, the grants and the decrypt
/// round trip, per epoch.
fn golden(workers: usize) -> Vec<(u64, String, String, String)> {
    let ps = deployment();
    let batch = events();
    let mut rows = Vec::new();
    for epoch in EPOCHS {
        let mut publisher = ps.publisher("P");
        for topic in TOPICS {
            ps.authorize_publisher(&mut publisher, topic, epoch);
        }
        let sealed = publisher
            .publish_batch(&batch, epoch, workers)
            .expect("publishable");
        let mut wire = Digest::new();
        let mut buf = Vec::new();
        for secure in &sealed {
            buf.clear();
            secure.encode(&mut buf);
            wire.feed(&buf);
        }

        let mut grants = Digest::new();
        let mut plain = Digest::new();
        for filter in filters() {
            let mut ops = psguard_keys::OpCounter::new();
            let grant = ps
                .kdc()
                .grant(
                    ps.schema(),
                    &filter,
                    psguard_keys::EpochId(epoch),
                    &psguard_keys::TopicScope::Shared,
                    &mut ops,
                )
                .expect("grantable");
            feed_grant(&mut grants, &grant);

            let mut sub = ps.subscriber("S");
            ps.authorize_subscriber(&mut sub, &filter, epoch)
                .expect("grantable");
            for (secure, event) in sealed.iter().zip(&batch) {
                if !filter.matches(event) {
                    continue;
                }
                let got = sub.decrypt(secure).expect("a covered event decrypts");
                // The topic is not in the ciphertext: compare the rest.
                assert!(got.attrs().eq(event.attrs()), "round trip under {filter}");
                assert_eq!(got.payload(), event.payload(), "round trip under {filter}");
                buf.clear();
                got.encode(&mut buf);
                plain.feed(&buf);
            }
        }
        rows.push((epoch, wire.hex(), grants.hex(), plain.hex()));
    }
    rows
}

#[test]
fn emitted_bytes_match_the_golden_hashes() {
    let one = golden(1);
    assert_eq!(golden(4), one, "publish_batch must not depend on workers");
    let got: Vec<(u64, &str, &str, &str)> = one
        .iter()
        .map(|(e, w, g, p)| (*e, w.as_str(), g.as_str(), p.as_str()))
        .collect();
    assert_eq!(got, GOLDEN, "emitted bytes changed");
}

/// `(epoch, publish_batch wire bytes, grants, decrypted events)`.
const GOLDEN: [(u64, &str, &str, &str); 2] = [
    (
        0,
        "e94511db0e6c8b2b/21171",
        "c7aac9de46ab4179/1664",
        "ec5745f8847c3a47/19419",
    ),
    (
        1,
        "c38a076276649ff6/21171",
        "21ea312f85703e86/1664",
        "ec5745f8847c3a47/19419",
    ),
];

/// One frame of every `Message` variant, built from a sealed event and a
/// secure filter of the golden deployment, hashed over `Wire::encode`.
fn frames() -> String {
    use psguard_routing::{SecureEvent, SecureFilter};
    use psguard_siena::{Cursor, Message, ResumeOutcome};

    let ps = deployment();
    let mut publisher = ps.publisher("P");
    ps.authorize_publisher(&mut publisher, "alpha", 0);
    let event = publisher
        .publish_batch(&events()[..2], 0, 1)
        .expect("publishable")
        .remove(1);
    let mut sub = ps.subscriber("S");
    let filter = Filter::for_topic("alpha").with(Constraint::new("age", Op::Ge(40)));
    ps.authorize_subscriber(&mut sub, &filter, 0)
        .expect("grantable");
    let filter = sub.secure_filters().remove(0);
    let cursor = Cursor { epoch: 3, seq: 42 };

    let all: [Message<SecureFilter, SecureEvent>; 11] = [
        Message::Hello { kind: 0 },
        Message::Hello { kind: 1 },
        Message::Heartbeat,
        Message::Subscribe(filter.clone()),
        Message::Unsubscribe(filter),
        Message::Publish(event.clone()),
        Message::SubAck { crc: 0xdead_beef },
        Message::CatchUp { cursor },
        Message::Stamped { cursor, event },
        Message::ReplayDone {
            outcome: ResumeOutcome::GapTruncatedByRetention.code(),
            cursor,
        },
        Message::ReplayDone {
            outcome: ResumeOutcome::FreshStart.code(),
            cursor: Cursor::default(),
        },
    ];
    let mut d = Digest::new();
    let mut buf = Vec::new();
    for m in &all {
        buf.clear();
        m.encode(&mut buf);
        d.feed(&buf);
    }
    d.hex()
}

#[test]
fn every_message_variant_matches_its_golden_hash() {
    assert_eq!(frames(), GOLDEN_FRAMES, "frame bytes changed");
}

/// The encodings of [`frames`]' eleven messages.
const GOLDEN_FRAMES: &str = "1b2004a7326fe28c/448";
