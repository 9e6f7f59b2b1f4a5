//! Decoder robustness: arbitrary and mutated byte strings must never
//! panic the wire codec — malformed input from a hostile peer yields
//! `Err`, not a crash (the TCP reader drops such peers).

use proptest::prelude::*;
use psguard_model::{AttrValue, Constraint, Event, Filter, IntRange, Op};
use psguard_siena::wire::{read_frame_into, WireError, MAX_FRAME};
use psguard_siena::{FramePool, Message, Wire};

/// A byte string's declared length is checked before its bytes are
/// copied: past the end of the input it is `Truncated`, over
/// `MAX_FRAME` it is `BadLength`, however much input follows.
#[test]
fn declared_byte_lengths_are_bounded() {
    let bytes = Event::builder("t").build().to_bytes();
    // An event encoding ends with its payload's length prefix.
    let head = &bytes[..bytes.len() - 4];
    let with_payload = |declared: u32, body: usize| {
        let mut b = head.to_vec();
        b.extend_from_slice(&declared.to_be_bytes());
        b.resize(b.len() + body, 0xab);
        b
    };
    assert!(Event::from_bytes(&with_payload(3, 3)).is_ok());
    assert_eq!(
        Event::from_bytes(&with_payload(1, 0)),
        Err(WireError::Truncated)
    );
    assert_eq!(
        Event::from_bytes(&with_payload(4112, 4111)),
        Err(WireError::Truncated)
    );
    let over = MAX_FRAME as u32 + 1;
    assert_eq!(
        Event::from_bytes(&with_payload(over, 64)),
        Err(WireError::BadLength(over as usize))
    );
    assert_eq!(
        Event::from_bytes(&with_payload(u32::MAX, 0)),
        Err(WireError::BadLength(u32::MAX as usize))
    );
    // Strings take the same path.
    let mut s = 5u32.to_be_bytes().to_vec();
    s.extend_from_slice(b"abc");
    assert_eq!(String::from_bytes(&s), Err(WireError::Truncated));
    assert_eq!(
        String::from_bytes(&over.to_be_bytes()),
        Err(WireError::BadLength(over as usize))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Payloads from empty to past 64 KiB round-trip through the event
    /// codec, alone and inside a publish message.
    #[test]
    fn payloads_of_any_size_roundtrip(len in 0usize..=70_000, seed in any::<u8>()) {
        let payload: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect();
        let event = Event::builder("t").attr("x", 1i64).payload(payload).build();
        prop_assert_eq!(&Event::from_bytes(&event.to_bytes()).expect("valid"), &event);
        let msg: Message<Filter, Event> = Message::Publish(event);
        prop_assert_eq!(<Message<Filter, Event>>::from_bytes(&msg.to_bytes()).expect("valid"), msg);
    }

    /// Totally random bytes: decode returns, never panics.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Filter::from_bytes(&bytes);
        let _ = Event::from_bytes(&bytes);
        let _ = <Message<Filter, Event>>::from_bytes(&bytes);
    }

    /// Truncations of valid encodings: every prefix decodes to Err (or,
    /// for the full length, Ok with the original value).
    #[test]
    fn truncated_encodings_error_cleanly(
        lo in -50i64..50,
        w in 1i64..50,
        payload in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let msg: Message<Filter, Event> = Message::Publish(
            Event::builder("t")
                .attr("x", lo)
                .attr("r", psguard_model::AttrValue::Int(lo + w))
                .payload(payload)
                .build(),
        );
        let bytes = msg.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(<Message<Filter, Event>>::from_bytes(&bytes[..cut]).is_err());
        }
        prop_assert_eq!(<Message<Filter, Event>>::from_bytes(&bytes).expect("full"), msg);
    }

    /// Single-byte mutations: decode returns (Ok-with-different-value or
    /// Err are both fine; panicking or looping is not).
    #[test]
    fn mutated_encodings_never_panic(
        flip_at in 0usize..512,
        xor in 1u8..=255,
    ) {
        let f = Filter::for_topic("stocks")
            .with(Constraint::new("price", Op::InRange(IntRange::new(5, 90).expect("valid"))))
            .with(Constraint::new("sym", Op::StrPrefix("GO".into())));
        let msg: Message<Filter, Event> = Message::Subscribe(f);
        let mut bytes = msg.to_bytes();
        let i = flip_at % bytes.len();
        bytes[i] ^= xor;
        let _ = <Message<Filter, Event>>::from_bytes(&bytes);
    }

    /// Framed transport inputs — truncated streams, oversized length
    /// prefixes, and bit-flipped frames — must surface as `Err` from the
    /// frame reader (never a panic or a huge allocation), and a frame
    /// that survives intact must round-trip.
    #[test]
    fn frame_reader_survives_hostile_streams(
        payload in prop::collection::vec(any::<u8>(), 0..128),
        cut in 0usize..512,
        flip_at in 0usize..512,
        xor in 1u8..=255,
    ) {
        let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&payload);

        // Truncation: every strict prefix errors cleanly.
        let cut = cut % wire.len();
        let mut buf = Vec::new();
        prop_assert!(read_frame_into(&mut std::io::Cursor::new(&wire[..cut]), &mut buf).is_err());

        // Bit flip: Err or a different payload, never a panic; a flipped
        // length prefix may demand more bytes than exist, which is Err.
        let mut flipped = wire.clone();
        let i = flip_at % flipped.len();
        flipped[i] ^= xor;
        let mut buf = Vec::new();
        let _ = read_frame_into(&mut std::io::Cursor::new(&flipped[..]), &mut buf);

        // Intact: round-trips.
        let mut buf = Vec::new();
        read_frame_into(&mut std::io::Cursor::new(&wire[..]), &mut buf).unwrap();
        prop_assert_eq!(&buf, &payload);
    }

    /// Oversized length prefixes (any value above MAX_FRAME) are rejected
    /// before allocation, regardless of how much body follows.
    #[test]
    fn oversized_prefix_always_rejected(
        over in (MAX_FRAME as u64 + 1)..=u64::from(u32::MAX),
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut wire = (over as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&body);
        let mut buf = Vec::new();
        prop_assert!(read_frame_into(&mut std::io::Cursor::new(&wire[..]), &mut buf).is_err());
        prop_assert_eq!(buf.capacity(), 0);
    }

    /// The pooled encode path is byte-identical to the classic
    /// `[u32 BE len ‖ to_bytes()]` frame for arbitrary messages, and
    /// decoding the pooled frame returns the original message.
    #[test]
    fn pooled_encode_matches_classic_and_roundtrips(
        topic in "[a-z]{1,8}",
        lo in -100i64..100,
        w in 1i64..100,
        s in "[ -~]{0,12}",
        payload in prop::collection::vec(any::<u8>(), 0..96),
        which in 0u8..3,
    ) {
        let msg: Message<Filter, Event> = match which {
            0 => Message::Subscribe(
                Filter::for_topic(&topic)
                    .with(Constraint::new("x", Op::InRange(IntRange::new(lo, lo + w).unwrap())))
                    .with(Constraint::new("s", Op::StrPrefix(s.clone()))),
            ),
            1 => Message::Publish(
                Event::builder(&topic)
                    .attr("x", lo)
                    .attr("s", AttrValue::Str(s.clone()))
                    .payload(payload.clone())
                    .build(),
            ),
            _ => Message::SubAck { crc: lo as u32 },
        };

        let pool = FramePool::new();
        let frame = pool.encode(&msg);
        let payload = msg.to_bytes();
        let mut classic = (payload.len() as u32).to_be_bytes().to_vec();
        classic.extend_from_slice(&payload);
        prop_assert_eq!(frame.wire_bytes(), &classic[..]);

        let mut buf = Vec::new();
        read_frame_into(&mut std::io::Cursor::new(frame.wire_bytes()), &mut buf).unwrap();
        prop_assert_eq!(<Message<Filter, Event>>::from_bytes(&buf).unwrap(), msg);
    }
}
