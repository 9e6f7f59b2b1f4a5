//! Block-cipher modes of operation for AES-128: CBC with PKCS#7 padding
//! (the paper's `E` = AES-128-CBC) and CTR.

use crate::aes::{Aes128, BLOCK_SIZE};

/// Errors raised by the cipher-mode helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CipherError {
    /// Ciphertext length is zero or not a multiple of the block size.
    BadCiphertextLength {
        /// Offending length in bytes.
        len: usize,
    },
    /// PKCS#7 padding bytes were inconsistent after decryption.
    BadPadding,
}

impl std::fmt::Display for CipherError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CipherError::BadCiphertextLength { len } => {
                write!(
                    f,
                    "ciphertext length {len} is not a positive multiple of {BLOCK_SIZE}"
                )
            }
            CipherError::BadPadding => write!(f, "invalid pkcs#7 padding"),
        }
    }
}

impl std::error::Error for CipherError {}

/// Appends PKCS#7 padding so the buffer length becomes a multiple of
/// [`BLOCK_SIZE`]. A full padding block is added when the input is already
/// block-aligned.
///
/// # Example
///
/// ```
/// let mut buf = vec![1, 2, 3];
/// psguard_crypto::pkcs7_pad(&mut buf);
/// assert_eq!(buf.len(), 16);
/// assert_eq!(buf[15], 13);
/// ```
pub fn pkcs7_pad(buf: &mut Vec<u8>) {
    let pad = BLOCK_SIZE - (buf.len() % BLOCK_SIZE);
    buf.extend(std::iter::repeat_n(pad as u8, pad));
}

/// Strips PKCS#7 padding in place.
///
/// # Errors
///
/// Returns [`CipherError::BadPadding`] when the final byte is not a valid
/// pad length or the padding bytes disagree.
pub(crate) fn pkcs7_unpad(buf: &mut Vec<u8>) -> Result<(), CipherError> {
    let &last = buf.last().ok_or(CipherError::BadPadding)?;
    let pad = last as usize;
    if pad == 0 || pad > BLOCK_SIZE || pad > buf.len() {
        return Err(CipherError::BadPadding);
    }
    // Check all padding bytes; accumulate differences to avoid an early exit
    // oracle on which byte mismatched.
    let start = buf.len() - pad;
    let mut diff = 0u8;
    for &b in &buf[start..] {
        diff |= b ^ last;
    }
    if diff != 0 {
        return Err(CipherError::BadPadding);
    }
    buf.truncate(start);
    Ok(())
}

/// AES-128-CBC encryption with PKCS#7 padding — the paper's `E`.
///
/// # Example
///
/// ```
/// use psguard_crypto::{cbc_decrypt, cbc_encrypt, Aes128};
///
/// let cipher = Aes128::new(&[7u8; 16]);
/// let iv = [9u8; 16];
/// let ct = cbc_encrypt(&cipher, &iv, b"patient record");
/// let pt = cbc_decrypt(&cipher, &iv, &ct).unwrap();
/// assert_eq!(pt, b"patient record");
/// ```
pub fn cbc_encrypt(cipher: &Aes128, iv: &[u8; BLOCK_SIZE], plaintext: &[u8]) -> Vec<u8> {
    // Room for the padding up front, so padding never reallocates.
    let mut buf = Vec::with_capacity(plaintext.len() + BLOCK_SIZE);
    buf.extend_from_slice(plaintext);
    pkcs7_pad(&mut buf);
    cipher.cbc_encrypt_blocks(iv, buf.as_chunks_mut::<BLOCK_SIZE>().0);
    buf
}

/// AES-128-CBC decryption with PKCS#7 unpadding.
///
/// # Errors
///
/// Returns [`CipherError::BadCiphertextLength`] for empty/misaligned input
/// and [`CipherError::BadPadding`] when the padding check fails (e.g. the
/// wrong key was used).
pub fn cbc_decrypt(
    cipher: &Aes128,
    iv: &[u8; BLOCK_SIZE],
    ciphertext: &[u8],
) -> Result<Vec<u8>, CipherError> {
    if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(BLOCK_SIZE) {
        return Err(CipherError::BadCiphertextLength {
            len: ciphertext.len(),
        });
    }
    let mut buf = ciphertext.to_vec();
    cipher.cbc_decrypt_blocks(iv, buf.as_chunks_mut::<BLOCK_SIZE>().0);
    pkcs7_unpad(&mut buf)?;
    Ok(buf)
}

/// AES-128-CTR keystream application (encryption and decryption are the same
/// operation). The 16-byte `nonce` forms the initial counter block; the low
/// 64 bits are incremented per block.
// DEAD-PUB-OK: CBC/CTR are the AES modes DESIGN.md §2 lists; SP 800-38A F.5 checks it
pub fn ctr_apply(cipher: &Aes128, nonce: &[u8; BLOCK_SIZE], data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut counter = nonce[8..16]
        .iter()
        .fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
    let mut prefix = [0u8; 8];
    prefix.copy_from_slice(&nonce[..8]);
    for chunk in data.chunks(BLOCK_SIZE) {
        let mut block = [0u8; BLOCK_SIZE];
        block[..8].copy_from_slice(&prefix);
        block[8..].copy_from_slice(&counter.to_be_bytes());
        cipher.encrypt_block(&mut block);
        for (d, k) in chunk.iter().zip(block.iter()) {
            out.push(d ^ k);
        }
        counter = counter.wrapping_add(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbc_roundtrip_various_lengths() {
        let cipher = Aes128::new(&[3u8; 16]);
        let iv = [11u8; 16];
        for len in [0usize, 1, 15, 16, 17, 31, 32, 255, 256, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = cbc_encrypt(&cipher, &iv, &pt);
            assert_eq!(ct.len() % BLOCK_SIZE, 0);
            assert!(ct.len() > pt.len());
            assert_eq!(cbc_decrypt(&cipher, &iv, &ct).unwrap(), pt, "len={len}");
        }
    }

    #[test]
    fn cbc_wrong_key_fails_or_garbles() {
        let cipher = Aes128::new(&[3u8; 16]);
        let wrong = Aes128::new(&[4u8; 16]);
        let iv = [0u8; 16];
        let pt = b"confidential medical record payload".to_vec();
        let ct = cbc_encrypt(&cipher, &iv, &pt);
        match cbc_decrypt(&wrong, &iv, &ct) {
            Err(CipherError::BadPadding) => {}
            Ok(garbled) => assert_ne!(garbled, pt),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn cbc_rejects_bad_lengths() {
        let cipher = Aes128::new(&[3u8; 16]);
        let iv = [0u8; 16];
        assert!(matches!(
            cbc_decrypt(&cipher, &iv, &[]),
            Err(CipherError::BadCiphertextLength { len: 0 })
        ));
        assert!(matches!(
            cbc_decrypt(&cipher, &iv, &[0u8; 17]),
            Err(CipherError::BadCiphertextLength { len: 17 })
        ));
    }

    #[test]
    fn pkcs7_full_block_when_aligned() {
        let mut buf = vec![0u8; 16];
        pkcs7_pad(&mut buf);
        assert_eq!(buf.len(), 32);
        assert!(buf[16..].iter().all(|&b| b == 16));
        pkcs7_unpad(&mut buf).unwrap();
        assert_eq!(buf.len(), 16);
    }

    #[test]
    fn pkcs7_rejects_corrupt_padding() {
        let mut buf = vec![1u8, 2, 3, 3, 4];
        assert_eq!(pkcs7_unpad(&mut buf), Err(CipherError::BadPadding));
        let mut buf = vec![0u8];
        assert_eq!(pkcs7_unpad(&mut buf), Err(CipherError::BadPadding));
        let mut buf: Vec<u8> = vec![17; 17];
        assert_eq!(pkcs7_unpad(&mut buf), Err(CipherError::BadPadding));
        let mut empty: Vec<u8> = vec![];
        assert_eq!(pkcs7_unpad(&mut empty), Err(CipherError::BadPadding));
    }

    #[test]
    fn ctr_is_an_involution() {
        let cipher = Aes128::new(&[9u8; 16]);
        let nonce = [1u8; 16];
        let data: Vec<u8> = (0..100).map(|i| i as u8).collect();
        let once = ctr_apply(&cipher, &nonce, &data);
        assert_eq!(ctr_apply(&cipher, &nonce, &once), data);
        assert_eq!(once.len(), data.len());
    }
}
