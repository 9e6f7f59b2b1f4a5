//! On-disk record framing for the durable log.
//!
//! One record is `[u32 BE body_len ‖ u32 BE crc ‖ body]` where the body
//! is `[u32 BE epoch ‖ u64 BE seq ‖ payload]` — the same
//! length-prefixed discipline as the PR5 wire frames, with a CRC so a
//! torn append is detected on reopen instead of being replayed as
//! garbage. The payload is opaque ciphertext-plus-tokens bytes; this
//! module never interprets it.

/// Bytes of `[body_len ‖ crc]` preceding every record body.
pub(crate) const RECORD_HEADER_LEN: usize = 8;

/// Bytes of `[epoch ‖ seq]` at the front of every record body.
pub(crate) const BODY_PREFIX_LEN: usize = 12;

/// Upper bound on one record body: a maximal wire frame plus the
/// epoch/seq prefix. Anything larger read back from disk is corruption.
pub(crate) const MAX_BODY_LEN: usize = crate::wire::MAX_FRAME + BODY_PREFIX_LEN;

/// CRC-32 (IEEE, reflected — the zlib/ethernet polynomial) lookup
/// tables for slicing-by-8, built at compile time. `CRC_TABLES[0]` is the
/// classic byte-at-a-time table; `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so one step folds eight input bytes with
/// eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// CRC-32/IEEE over `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][lo as u8 as usize]
            ^ t[6][(lo >> 8) as u8 as usize]
            ^ t[5][(lo >> 16) as u8 as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][hi as u8 as usize]
            ^ t[2][(hi >> 8) as u8 as usize]
            ^ t[1][(hi >> 16) as u8 as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][(c as u8 ^ b) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Encodes one record into `buf` (cleared first): header, CRC, body.
pub(crate) fn encode_record(buf: &mut Vec<u8>, epoch: u32, seq: u64, payload: &[u8]) {
    buf.clear();
    let body_len = (BODY_PREFIX_LEN + payload.len()) as u32;
    buf.extend_from_slice(&body_len.to_be_bytes());
    buf.extend_from_slice(&[0u8; 4]); // CRC back-patched below
    buf.extend_from_slice(&epoch.to_be_bytes());
    buf.extend_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(payload);
    let crc = crc32(buf.get(RECORD_HEADER_LEN..).unwrap_or(&[]));
    if let Some(slot) = buf.get_mut(4..RECORD_HEADER_LEN) {
        slot.copy_from_slice(&crc.to_be_bytes());
    }
}

/// Splits a record header into `(body_len, crc)`.
pub(crate) fn parse_header(h: [u8; RECORD_HEADER_LEN]) -> (usize, u32) {
    let body_len = u32::from_be_bytes([h[0], h[1], h[2], h[3]]) as usize;
    let crc = u32::from_be_bytes([h[4], h[5], h[6], h[7]]);
    (body_len, crc)
}

/// Splits a verified record body into `(epoch, seq, payload)`; `None`
/// when the body is shorter than its fixed prefix.
pub(crate) fn parse_body(body: &[u8]) -> Option<(u32, u64, &[u8])> {
    let e = body.get(..4)?;
    let s = body.get(4..12)?;
    let payload = body.get(BODY_PREFIX_LEN..)?;
    let epoch = u32::from_be_bytes([e[0], e[1], e[2], e[3]]);
    let seq = u64::from_be_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]);
    Some((epoch, seq, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// CRC-32/IEEE one bit at a time, straight from the polynomial.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The sliced CRC equals the bitwise one for every length up to
        /// past two record sizes, starting at each offset mod 8, so the
        /// 8-byte steps meet every alignment and every remainder.
        #[test]
        fn sliced_crc_equals_bitwise(len in 0usize..=9_000, seed in any::<u32>()) {
            let buf: Vec<u8> = (0..len + 8)
                .map(|i| (i as u32).wrapping_mul(0x9E37_79B9).wrapping_add(seed).to_be_bytes()[0])
                .collect();
            for offset in 0..8 {
                let bytes = &buf[offset..offset + len];
                prop_assert_eq!(crc32(bytes), bitwise_crc32(bytes), "offset {}", offset);
            }
        }
    }

    #[test]
    fn sliced_crc_equals_bitwise_on_short_inputs() {
        for len in 0..=64 {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            assert_eq!(crc32(&bytes), bitwise_crc32(&bytes), "len {len}");
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn record_roundtrips_through_parse() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 7, 42, b"ciphertext-bytes");
        assert_eq!(buf.len(), RECORD_HEADER_LEN + BODY_PREFIX_LEN + 16);
        let mut h = [0u8; RECORD_HEADER_LEN];
        h.copy_from_slice(&buf[..RECORD_HEADER_LEN]);
        let (body_len, crc) = parse_header(h);
        let body = &buf[RECORD_HEADER_LEN..];
        assert_eq!(body_len, body.len());
        assert_eq!(crc, crc32(body));
        let (epoch, seq, payload) = parse_body(body).unwrap();
        assert_eq!((epoch, seq), (7, 42));
        assert_eq!(payload, b"ciphertext-bytes");
    }

    #[test]
    fn flipped_bit_fails_crc() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 1, 1, b"payload");
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let mut h = [0u8; RECORD_HEADER_LEN];
        h.copy_from_slice(&buf[..RECORD_HEADER_LEN]);
        let (_, crc) = parse_header(h);
        assert_ne!(crc, crc32(&buf[RECORD_HEADER_LEN..]));
    }
}
