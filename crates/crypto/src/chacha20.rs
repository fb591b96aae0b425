//! ChaCha20 stream cipher (RFC 8439) and an encrypt-then-MAC sealing scheme.
//!
//! The simulated TEE uses [`seal`]/[`open`] for sealed storage: ChaCha20 for
//! confidentiality and HMAC-SHA-256 over `nonce || ciphertext` for integrity.

use crate::hmac::{hmac_sha256, verify_tag};
use crate::sha256::Digest;

/// Symmetric key size in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce size in bytes (RFC 8439 96-bit nonce).
pub const NONCE_LEN: usize = 12;

fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Produces one 64-byte ChaCha20 keystream block.
fn chacha20_block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for (word, bytes) in state[4..12].iter_mut().zip(key.as_chunks::<4>().0) {
        *word = u32::from_le_bytes(*bytes);
    }
    state[12] = counter;
    for (word, bytes) in state[13..].iter_mut().zip(nonce.as_chunks::<4>().0) {
        *word = u32::from_le_bytes(*bytes);
    }
    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// XORs `data` in place with the ChaCha20 keystream (encrypt == decrypt).
pub fn chacha20_xor(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
    let mut counter = 1u32; // RFC 8439: block 0 is reserved for Poly1305 key.
    for chunk in data.chunks_mut(64) {
        let ks = chacha20_block(key, counter, nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        // Sealed states are far below the 256 GiB one nonce's counters 1 ..= 2^32 − 1 cover.
        counter = counter.checked_add(1).expect("ChaCha20 counter overflow");
    }
}

/// An authenticated sealed blob: nonce, ciphertext and MAC tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedBlob {
    /// Random per-seal nonce.
    pub nonce: [u8; NONCE_LEN],
    /// ChaCha20 ciphertext.
    pub ciphertext: Vec<u8>,
    /// HMAC-SHA-256 over `nonce || ciphertext` with the derived MAC key.
    pub tag: Digest,
}

/// Derives independent cipher and MAC keys from a master key.
fn derive_keys(master: &[u8; KEY_LEN]) -> ([u8; KEY_LEN], [u8; KEY_LEN]) {
    let key = |info: &[u8]| {
        let mut key = [0u8; KEY_LEN];
        key.copy_from_slice(&crate::hmac::hkdf(b"pds2-seal", master, info, KEY_LEN));
        key
    };
    (key(b"enc"), key(b"mac"))
}

/// Encrypt-then-MAC sealing.
pub fn seal(master: &[u8; KEY_LEN], nonce: [u8; NONCE_LEN], plaintext: &[u8]) -> SealedBlob {
    let (enc_key, mac_key) = derive_keys(master);
    let mut ciphertext = plaintext.to_vec();
    chacha20_xor(&enc_key, &nonce, &mut ciphertext);
    let mut mac_input = Vec::with_capacity(NONCE_LEN + ciphertext.len());
    mac_input.extend_from_slice(&nonce);
    mac_input.extend_from_slice(&ciphertext);
    let tag = hmac_sha256(&mac_key, &mac_input);
    SealedBlob {
        nonce,
        ciphertext,
        tag,
    }
}

/// Verifies and decrypts a sealed blob. Returns `None` if the tag is invalid.
pub fn open(master: &[u8; KEY_LEN], blob: &SealedBlob) -> Option<Vec<u8>> {
    let (enc_key, mac_key) = derive_keys(master);
    let mut mac_input = Vec::with_capacity(NONCE_LEN + blob.ciphertext.len());
    mac_input.extend_from_slice(&blob.nonce);
    mac_input.extend_from_slice(&blob.ciphertext);
    let expected = hmac_sha256(&mac_key, &mac_input);
    if !verify_tag(&expected, &blob.tag) {
        return None;
    }
    let mut plaintext = blob.ciphertext.clone();
    chacha20_xor(&enc_key, &blob.nonce, &mut plaintext);
    Some(plaintext)
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 8439 section 2.3.2 block-function test vector.
    #[test]
    fn rfc8439_block() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = chacha20_block(&key, 1, &nonce);
        let expected_first16: [u8; 16] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4,
        ];
        assert_eq!(&block[..16], &expected_first16);
    }

    // RFC 8439 section 2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encrypt() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.".to_vec();
        chacha20_xor(&key, &nonce, &mut data);
        let hex: String = data.iter().take(16).map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "6e2e359a2568f98041ba0728dd0d6981");
    }

    #[test]
    fn xor_roundtrip() {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let original: Vec<u8> = (0..200).map(|i| (i * 7) as u8).collect();
        let mut data = original.clone();
        chacha20_xor(&key, &nonce, &mut data);
        assert_ne!(data, original);
        chacha20_xor(&key, &nonce, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn seal_open_roundtrip() {
        let master = [42u8; 32];
        let blob = seal(&master, [1u8; 12], b"secret enclave state");
        assert_eq!(open(&master, &blob).unwrap(), b"secret enclave state");
    }

    #[test]
    fn open_rejects_tamper() {
        let master = [42u8; 32];
        let mut blob = seal(&master, [1u8; 12], b"secret");
        blob.ciphertext[0] ^= 1;
        assert!(open(&master, &blob).is_none());
    }

    #[test]
    fn open_rejects_wrong_key() {
        let blob = seal(&[42u8; 32], [1u8; 12], b"secret");
        assert!(open(&[43u8; 32], &blob).is_none());
    }

    #[test]
    fn open_rejects_nonce_swap() {
        let master = [42u8; 32];
        let mut blob = seal(&master, [1u8; 12], b"secret");
        blob.nonce[0] ^= 1;
        assert!(open(&master, &blob).is_none());
    }

    #[test]
    fn seal_empty_plaintext() {
        let master = [0u8; 32];
        let blob = seal(&master, [9u8; 12], b"");
        assert_eq!(open(&master, &blob).unwrap(), Vec::<u8>::new());
    }
}
