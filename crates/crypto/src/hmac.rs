//! HMAC-SHA-256 (RFC 2104) and a minimal HKDF (RFC 5869).
//!
//! Used for sealed-storage integrity tags in the simulated TEE, deterministic
//! nonce derivation in Schnorr signing, and key derivation throughout.

use crate::sha256::{Digest, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// Computes `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut key_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let d = crate::sha256::sha256(key);
        key_block[..DIGEST_LEN].copy_from_slice(d.as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; BLOCK_LEN];
    let mut opad = [0x5cu8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(inner_digest.as_bytes());
    outer.finalize()
}

/// Constant-shape equality check for MAC tags.
///
/// Not hardened constant-time code, but avoids early exit on length match,
/// documenting the intent for a production port.
pub fn verify_tag(expected: &Digest, actual: &Digest) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.as_bytes().iter().zip(actual.as_bytes()) {
        diff |= a ^ b;
    }
    diff == 0
}

/// HKDF-Extract: `PRK = HMAC(salt, ikm)`.
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> Digest {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand producing `len` bytes (`len <= 255 * 32`).
pub fn hkdf_expand(prk: &Digest, info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * DIGEST_LEN, "HKDF output too long");
    let mut out = Vec::with_capacity(len);
    let mut previous: Vec<u8> = Vec::new();
    // Block `counter` is T(counter), 1 ≤ counter ≤ 255: the length check
    // above allows no more.
    for counter in 1..=u8::MAX {
        if out.len() >= len {
            break;
        }
        let mut msg = Vec::with_capacity(previous.len() + info.len() + 1);
        msg.extend_from_slice(&previous);
        msg.extend_from_slice(info);
        msg.push(counter);
        let block = hmac_sha256(prk.as_bytes(), &msg);
        previous = block.as_bytes().to_vec();
        let take = (len - out.len()).min(DIGEST_LEN);
        out.extend_from_slice(&block.as_bytes()[..take]);
    }
    out
}

/// One-call HKDF: extract then expand.
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    hkdf_expand(&hkdf_extract(salt, ikm), info, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 0xaa*20 key, 0xdd*50 data.
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_tag_behaviour() {
        let t1 = hmac_sha256(b"k", b"m");
        let t2 = hmac_sha256(b"k", b"m");
        let t3 = hmac_sha256(b"k", b"m2");
        assert!(verify_tag(&t1, &t2));
        assert!(!verify_tag(&t1, &t3));
    }

    // RFC 5869 test case 1.
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0bu8; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let okm = hkdf(&salt, &ikm, &info, 42);
        let expected =
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865";
        let hex: String = okm.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, expected);
    }

    #[test]
    fn hkdf_lengths() {
        let prk = hkdf_extract(b"salt", b"ikm");
        assert_eq!(hkdf_expand(&prk, b"", 1).len(), 1);
        assert_eq!(hkdf_expand(&prk, b"", 32).len(), 32);
        assert_eq!(hkdf_expand(&prk, b"", 100).len(), 100);
        // Different info strings yield independent keys.
        assert_ne!(hkdf_expand(&prk, b"a", 32), hkdf_expand(&prk, b"b", 32));
    }

    /// The longest output takes all 255 blocks: the counter's last value
    /// is 255, and nothing wraps or panics after it.
    #[test]
    fn hkdf_expands_to_its_full_length() {
        let prk = hkdf_extract(b"s", b"i");
        let full = hkdf_expand(&prk, b"", 255 * 32);
        assert_eq!(full.len(), 255 * 32);
        assert_eq!(full[..100], hkdf_expand(&prk, b"", 100)[..]);
        assert_ne!(full[254 * 32..], full[253 * 32..254 * 32]);
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn hkdf_max_length() {
        let prk = hkdf_extract(b"s", b"i");
        let _ = hkdf_expand(&prk, b"", 255 * 32 + 1);
    }
}
