//! A compact, dependency-free binary wire format for pub-sub messages.
//!
//! Frames are `u32`-length-prefixed (big-endian). Inside a frame, values
//! serialize with the [`Wire`] trait: fixed-width integers big-endian,
//! byte strings length-prefixed. The format is versioned by a magic byte
//! so incompatible peers fail fast.

use psguard_model::{AttrValue, CategoryPath, Constraint, Event, Filter, IntRange, Op};

/// Maximum frame payload accepted — guards against hostile or corrupt
/// length prefixes: a peer sending a bogus 4-byte prefix must not be able
/// to make the reader allocate gigabytes before `read_exact` fails.
///
/// Sizing: the largest legitimate message is a [`Message::Publish`] whose
/// event carries the biggest payload the secure pipeline produces
/// (encrypted payloads are benched at ≤ 64 KiB) plus up to 4096
/// attributes — well under 512 KiB in practice. 1 MiB gives 2× headroom
/// while still bounding a hostile prefix to one modest allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Wire-format errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// An enum tag byte was invalid.
    BadTag(u8),
    /// A declared length was implausible.
    BadLength(usize),
    /// String bytes were not UTF-8.
    BadUtf8,
    /// Frame magic/version mismatch.
    BadMagic(u8),
    /// A frame's 4-byte length prefix exceeded [`MAX_FRAME`]: either
    /// corruption or a hostile peer trying to force a huge allocation.
    FrameTooLarge(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::BadTag(t) => write!(f, "invalid tag byte {t:#04x}"),
            WireError::BadLength(l) => write!(f, "implausible length {l}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#04x}"),
            WireError::FrameTooLarge(l) => {
                write!(f, "frame of {l} bytes exceeds the {MAX_FRAME}-byte limit")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Frame magic/version byte.
pub const MAGIC: u8 = 0xA7;

/// A type that can be serialized into / parsed from the wire format.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Parses a value, advancing `input` past it.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Convenience: decode a complete buffer, requiring full consumption.
    fn from_bytes(mut bytes: &[u8]) -> Result<Self, WireError> {
        let v = Self::decode(&mut bytes)?;
        if bytes.is_empty() {
            Ok(v)
        } else {
            Err(WireError::BadLength(bytes.len()))
        }
    }
}

/// Appends a length-prefixed byte string. The borrowed counterpart of
/// `Vec::<u8>::encode` / `String::encode`: encoders hand slices straight
/// to the output buffer instead of cloning into a temporary.
pub fn encode_bytes(bytes: &[u8], buf: &mut Vec<u8>) {
    (bytes.len() as u32).encode(buf);
    buf.extend_from_slice(bytes);
}

/// Appends a length-prefixed UTF-8 string without cloning it.
pub fn encode_str(s: &str, buf: &mut Vec<u8>) {
    encode_bytes(s.as_bytes(), buf);
}

/// Parses a length-prefixed byte string with one copy: the counterpart of
/// [`encode_bytes`], and byte-for-byte what `Vec::<u8>::decode` accepts.
/// The declared length is checked against [`MAX_FRAME`] and against the
/// input left *before* anything is allocated.
///
/// # Errors
///
/// [`WireError::BadLength`] for a length over [`MAX_FRAME`],
/// [`WireError::Truncated`] for one past the end of `input`.
pub(crate) fn decode_bytes(input: &mut &[u8]) -> Result<Vec<u8>, WireError> {
    let len = u32::decode(input)? as usize;
    if len > MAX_FRAME {
        return Err(WireError::BadLength(len));
    }
    Ok(take(input, len)?.to_vec())
}

pub(crate) fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if input.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// Like the internal `take` helper, but into a fixed-size array — the length check lives in
/// the return type, so decoders never need a fallible slice conversion.
/// Public so downstream crates implementing [`Wire`] get the same idiom.
pub fn take_arr<const N: usize>(input: &mut &[u8]) -> Result<[u8; N], WireError> {
    let head = take(input, N)?;
    let mut arr = [0u8; N];
    arr.copy_from_slice(head);
    Ok(arr)
}

impl Wire for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(take(input, 1)?[0])
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_be_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(u32::from_be_bytes(take_arr(input)?))
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_be_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(u64::from_be_bytes(take_arr(input)?))
    }
}

impl Wire for i64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_be_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(i64::from_be_bytes(take_arr(input)?))
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_str(self, buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        String::from_utf8(decode_bytes(input)?).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for v in self {
            v.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        if len > MAX_FRAME {
            return Err(WireError::BadLength(len));
        }
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

impl Wire for psguard_crypto::Token {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(psguard_crypto::Token::from_raw(take_arr(input)?))
    }
}

impl Wire for CategoryPath {
    fn encode(&self, buf: &mut Vec<u8>) {
        let indices = self.indices();
        (indices.len() as u32).encode(buf);
        for i in indices {
            i.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        if len > 1024 {
            return Err(WireError::BadLength(len));
        }
        let mut idx = Vec::with_capacity(len);
        for _ in 0..len {
            idx.push(u32::decode(input)?);
        }
        Ok(CategoryPath::from_indices(idx))
    }
}

impl Wire for AttrValue {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            AttrValue::Int(v) => {
                buf.push(0);
                v.encode(buf);
            }
            AttrValue::Str(s) => {
                buf.push(1);
                encode_str(s, buf);
            }
            AttrValue::Category(c) => {
                buf.push(2);
                c.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(AttrValue::Int(i64::decode(input)?)),
            1 => Ok(AttrValue::Str(String::decode(input)?)),
            2 => Ok(AttrValue::Category(CategoryPath::decode(input)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for IntRange {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.lo().encode(buf);
        self.hi().encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let lo = i64::decode(input)?;
        let hi = i64::decode(input)?;
        IntRange::new(lo, hi).ok_or(WireError::BadLength(0))
    }
}

impl Wire for Op {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Op::Eq(v) => {
                buf.push(0);
                v.encode(buf);
            }
            Op::Lt(v) => {
                buf.push(1);
                v.encode(buf);
            }
            Op::Le(v) => {
                buf.push(2);
                v.encode(buf);
            }
            Op::Gt(v) => {
                buf.push(3);
                v.encode(buf);
            }
            Op::Ge(v) => {
                buf.push(4);
                v.encode(buf);
            }
            Op::InRange(r) => {
                buf.push(5);
                r.encode(buf);
            }
            Op::StrPrefix(s) => {
                buf.push(6);
                encode_str(s, buf);
            }
            Op::StrSuffix(s) => {
                buf.push(7);
                encode_str(s, buf);
            }
            Op::CategoryIn(c) => {
                buf.push(8);
                c.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match u8::decode(input)? {
            0 => Op::Eq(AttrValue::decode(input)?),
            1 => Op::Lt(i64::decode(input)?),
            2 => Op::Le(i64::decode(input)?),
            3 => Op::Gt(i64::decode(input)?),
            4 => Op::Ge(i64::decode(input)?),
            5 => Op::InRange(IntRange::decode(input)?),
            6 => Op::StrPrefix(String::decode(input)?),
            7 => Op::StrSuffix(String::decode(input)?),
            8 => Op::CategoryIn(CategoryPath::decode(input)?),
            t => return Err(WireError::BadTag(t)),
        })
    }
}

impl Wire for Filter {
    fn encode(&self, buf: &mut Vec<u8>) {
        // Byte-identical to `Option::<String>::encode`, without the clone.
        match self.topic() {
            None => buf.push(0),
            Some(t) => {
                buf.push(1);
                encode_str(t, buf);
            }
        }
        (self.constraints().len() as u32).encode(buf);
        for c in self.constraints() {
            encode_str(c.name().as_str(), buf);
            c.op().encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let topic: Option<String> = Option::decode(input)?;
        let mut filter = match topic {
            Some(t) => Filter::for_topic(t),
            None => Filter::any(),
        };
        let n = u32::decode(input)? as usize;
        if n > 4096 {
            return Err(WireError::BadLength(n));
        }
        for _ in 0..n {
            let name = String::decode(input)?;
            let op = Op::decode(input)?;
            filter = filter.with(Constraint::new(name, op));
        }
        Ok(filter)
    }
}

impl Wire for Event {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id().0.encode(buf);
        encode_str(self.topic(), buf);
        encode_str(self.publisher(), buf);
        (self.attr_count() as u32).encode(buf);
        for (name, value) in self.attrs() {
            encode_str(name.as_str(), buf);
            value.encode(buf);
        }
        encode_bytes(self.payload(), buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let id = u64::decode(input)?;
        let topic = String::decode(input)?;
        let publisher = String::decode(input)?;
        let n = u32::decode(input)? as usize;
        if n > 4096 {
            return Err(WireError::BadLength(n));
        }
        let mut builder = Event::builder(topic)
            .id(psguard_model::EventId(id))
            .publisher(publisher);
        for _ in 0..n {
            let name = String::decode(input)?;
            let value = AttrValue::decode(input)?;
            builder = builder.attr(name, value);
        }
        Ok(builder.payload(decode_bytes(input)?).build())
    }
}

impl Wire for crate::log::Cursor {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.seq.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(crate::log::Cursor {
            epoch: u32::decode(input)?,
            seq: u64::decode(input)?,
        })
    }
}

/// A pub-sub protocol message between two peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message<F, E> {
    /// Peer handshake: 0 = broker, 1 = client.
    Hello {
        /// Peer kind.
        kind: u8,
    },
    /// Register a subscription.
    Subscribe(F),
    /// Remove a subscription.
    Unsubscribe(F),
    /// An event notification.
    Publish(E),
    /// Periodic liveness probe; carries no payload. Peers that stay
    /// silent for too many intervals are evicted (see `tcp`).
    Heartbeat,
    /// Acknowledges a [`Message::Subscribe`]: the broker has installed
    /// the filter and will route matching events. `crc` is the FNV-1a
    /// checksum of the filter's encoding (see [`filter_crc`]), so a
    /// client awaiting a specific subscription can match the ack.
    SubAck {
        /// Checksum identifying the acknowledged filter.
        crc: u32,
    },
    /// A reconnecting subscriber presents the last `(epoch, seq)` it
    /// applied; the broker replays the retained gap from its durable
    /// log (sent after the subscription replay on reconnect).
    CatchUp {
        /// Last cursor the subscriber applied.
        cursor: crate::log::Cursor,
    },
    /// Ends a replay: carries the resolved
    /// [`ResumeOutcome`](crate::log::ResumeOutcome) code and the
    /// broker's high-water cursor at replay end, which the subscriber
    /// adopts as its floor.
    ReplayDone {
        /// [`ResumeOutcome`](crate::log::ResumeOutcome) wire code.
        outcome: u8,
        /// Broker high-water cursor when the replay finished.
        cursor: crate::log::Cursor,
    },
    /// An event notification stamped with its durable log cursor —
    /// what a durable broker sends to *client* peers (replay and live
    /// alike), so the subscriber can dedup across the replay→live
    /// boundary and persist its resume point. Broker↔broker traffic
    /// stays [`Message::Publish`].
    Stamped {
        /// The event's durable log position.
        cursor: crate::log::Cursor,
        /// The event itself.
        event: E,
    },
}

/// FNV-1a (32-bit) over a filter's wire encoding: the identifier echoed
/// in [`Message::SubAck`].
pub fn filter_crc<F: Wire>(filter: &F) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in &filter.to_bytes() {
        hash ^= b as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

impl<F: Wire, E: Wire> Wire for Message<F, E> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(MAGIC);
        match self {
            Message::Hello { kind } => {
                buf.push(0);
                buf.push(*kind);
            }
            Message::Subscribe(f) => {
                buf.push(1);
                f.encode(buf);
            }
            Message::Unsubscribe(f) => {
                buf.push(2);
                f.encode(buf);
            }
            Message::Publish(e) => {
                buf.push(3);
                e.encode(buf);
            }
            Message::Heartbeat => buf.push(4),
            Message::SubAck { crc } => {
                buf.push(5);
                crc.encode(buf);
            }
            Message::CatchUp { cursor } => {
                buf.push(6);
                cursor.encode(buf);
            }
            Message::ReplayDone { outcome, cursor } => {
                buf.push(7);
                buf.push(*outcome);
                cursor.encode(buf);
            }
            Message::Stamped { cursor, event } => {
                buf.push(8);
                cursor.encode(buf);
                event.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let magic = u8::decode(input)?;
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        Ok(match u8::decode(input)? {
            0 => Message::Hello {
                kind: u8::decode(input)?,
            },
            1 => Message::Subscribe(F::decode(input)?),
            2 => Message::Unsubscribe(F::decode(input)?),
            3 => Message::Publish(E::decode(input)?),
            4 => Message::Heartbeat,
            5 => Message::SubAck {
                crc: u32::decode(input)?,
            },
            6 => Message::CatchUp {
                cursor: crate::log::Cursor::decode(input)?,
            },
            7 => Message::ReplayDone {
                outcome: u8::decode(input)?,
                cursor: crate::log::Cursor::decode(input)?,
            },
            8 => Message::Stamped {
                cursor: crate::log::Cursor::decode(input)?,
                event: E::decode(input)?,
            },
            t => return Err(WireError::BadTag(t)),
        })
    }
}

fn frame_too_large(len: usize) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        WireError::FrameTooLarge(len),
    )
}

/// Reads one length-prefixed frame into `payload`, reusing its capacity.
///
/// This is the steady-state reader-loop entry point: a per-connection
/// buffer passed here is cleared and refilled, so after warm-up a reader
/// allocates nothing per frame (the buffer grows to the largest frame
/// seen, bounded by [`MAX_FRAME`]).
///
/// Writers produce the same `[u32 BE length ‖ payload]` bytes through
/// [`FramePool::encode`](crate::FramePool::encode).
///
/// # Errors
///
/// I/O errors propagate, and a length prefix above [`MAX_FRAME`] yields
/// `InvalidData` wrapping [`WireError::FrameTooLarge`] before any buffer
/// growth — a hostile prefix cannot force a multi-GB reservation.
pub fn read_frame_into<R: std::io::Read>(r: &mut R, payload: &mut Vec<u8>) -> std::io::Result<()> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(frame_too_large(len));
    }
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xdeadbeefu32);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(String::from("héllo"));
        roundtrip(vec![1u8, 2, 3]);
        roundtrip(Option::<u32>::None);
        roundtrip(Some(9u32));
        roundtrip(vec![String::from("a"), String::from("b")]);
    }

    #[test]
    fn model_types_roundtrip() {
        roundtrip(CategoryPath::from_indices([1, 2, 3]));
        roundtrip(AttrValue::Int(-5));
        roundtrip(AttrValue::Str("x".into()));
        roundtrip(AttrValue::Category(CategoryPath::root()));
        roundtrip(IntRange::new(-10, 10).unwrap());
        for op in [
            Op::Eq(AttrValue::Int(1)),
            Op::Lt(2),
            Op::Le(3),
            Op::Gt(4),
            Op::Ge(5),
            Op::InRange(IntRange::new(0, 9).unwrap()),
            Op::StrPrefix("p".into()),
            Op::StrSuffix("s".into()),
            Op::CategoryIn(CategoryPath::from_indices([7])),
        ] {
            roundtrip(op);
        }
    }

    #[test]
    fn filter_and_event_roundtrip() {
        let f = Filter::for_topic("stocks")
            .with(Constraint::new("price", Op::Le(100)))
            .with(Constraint::new("sym", Op::StrPrefix("GO".into())));
        roundtrip(f);
        roundtrip(Filter::any());

        let e = Event::builder("stocks")
            .id(psguard_model::EventId(77))
            .publisher("nasdaq")
            .attr("price", 95i64)
            .attr("sym", "GOOG")
            .payload(vec![0xde, 0xad])
            .build();
        roundtrip(e);
    }

    #[test]
    fn message_roundtrip() {
        let m: Message<Filter, Event> = Message::Subscribe(Filter::for_topic("t"));
        roundtrip(m);
        let m: Message<Filter, Event> = Message::Hello { kind: 1 };
        roundtrip(m);
        let m: Message<Filter, Event> =
            Message::Publish(Event::builder("t").payload(vec![1]).build());
        roundtrip(m);
        roundtrip(Message::<Filter, Event>::Heartbeat);
        roundtrip(Message::<Filter, Event>::SubAck { crc: 0xdead_beef });
    }

    #[test]
    fn catchup_messages_roundtrip() {
        use crate::log::Cursor;
        roundtrip(Cursor {
            epoch: 3,
            seq: u64::MAX,
        });
        roundtrip(Message::<Filter, Event>::CatchUp {
            cursor: Cursor { epoch: 1, seq: 42 },
        });
        roundtrip(Message::<Filter, Event>::ReplayDone {
            outcome: 2,
            cursor: Cursor { epoch: 9, seq: 0 },
        });
        roundtrip(Message::<Filter, Event>::Stamped {
            cursor: Cursor { epoch: 1, seq: 7 },
            event: Event::builder("t").payload(vec![1, 2, 3]).build(),
        });
        // A stamped frame carries the event encoding verbatim after the
        // 12-byte cursor, so the log's opaque payload (an encoded event)
        // decodes unchanged on the client.
        let e = Event::builder("t").payload(vec![9; 10]).build();
        let stamped: Message<Filter, Event> = Message::Stamped {
            cursor: Cursor { epoch: 1, seq: 1 },
            event: e.clone(),
        };
        let bytes = stamped.to_bytes();
        let mut tail = &bytes[2 + 12..]; // magic + tag + cursor
        assert_eq!(Event::decode(&mut tail).unwrap(), e);
    }

    #[test]
    fn filter_crc_distinguishes_filters_and_is_stable() {
        let a = Filter::for_topic("a");
        let b = Filter::for_topic("b");
        assert_eq!(filter_crc(&a), filter_crc(&a.clone()));
        assert_ne!(filter_crc(&a), filter_crc(&b));
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert_eq!(u32::from_bytes(&[1, 2]), Err(WireError::Truncated));
        assert_eq!(Option::<u8>::from_bytes(&[7]), Err(WireError::BadTag(7)));
        // Huge declared length.
        let mut buf = Vec::new();
        (u32::MAX).encode(&mut buf);
        assert!(matches!(
            Vec::<u8>::from_bytes(&buf),
            Err(WireError::BadLength(_))
        ));
        // Bad magic byte.
        assert!(matches!(
            <Message<Filter, Event>>::from_bytes(&[0x00, 1]),
            Err(WireError::BadMagic(0))
        ));
        // Trailing garbage.
        let mut bytes = 5u32.to_bytes();
        bytes.push(0);
        assert!(matches!(
            u32::from_bytes(&bytes),
            Err(WireError::BadLength(1))
        ));
        // Invalid UTF-8.
        let mut buf = Vec::new();
        vec![0xffu8, 0xfe].encode(&mut buf);
        assert_eq!(String::from_bytes(&buf), Err(WireError::BadUtf8));
    }

    /// `[u32 BE length ‖ payload]`, the on-socket frame layout.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(payload);
        wire
    }

    #[test]
    fn frames_roundtrip() {
        let mut cursor = std::io::Cursor::new(framed(b"hello"));
        let mut payload = Vec::new();
        read_frame_into(&mut cursor, &mut payload).unwrap();
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame_into(&mut cursor, &mut Vec::new()).is_err());
    }

    #[test]
    fn oversized_frame_is_typed_and_preallocation_free() {
        // A hostile 4-GB-ish prefix with no body: the reject must carry
        // the typed error and fire before any read/alloc of the body.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        let mut payload = Vec::new();
        let err = read_frame_into(&mut cursor, &mut payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let inner = err.get_ref().and_then(|e| e.downcast_ref::<WireError>());
        assert_eq!(
            inner,
            Some(&WireError::FrameTooLarge(u32::MAX as usize)),
            "error must be the typed WireError, got {err:?}"
        );
        assert_eq!(payload.capacity(), 0, "must reject before allocating");
    }

    #[test]
    fn read_frame_into_reuses_one_buffer() {
        let mut wire = framed(&[7u8; 300]);
        wire.extend(framed(b"tiny"));
        wire.extend(framed(&[9u8; 128]));
        let mut cursor = std::io::Cursor::new(wire);
        let mut payload = Vec::new();

        read_frame_into(&mut cursor, &mut payload).unwrap();
        assert_eq!(payload, vec![7u8; 300]);
        let cap = payload.capacity();

        // Subsequent smaller frames refill the same allocation.
        read_frame_into(&mut cursor, &mut payload).unwrap();
        assert_eq!(payload, b"tiny");
        assert_eq!(payload.capacity(), cap);
        read_frame_into(&mut cursor, &mut payload).unwrap();
        assert_eq!(payload, vec![9u8; 128]);
        assert_eq!(payload.capacity(), cap);

        // EOF surfaces as an error, leaving the buffer reusable.
        assert!(read_frame_into(&mut cursor, &mut payload).is_err());
    }
}
