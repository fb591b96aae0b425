//! Process-wide cache of already-verified signature digests.
//!
//! [`ChainReplica`](crate::sync::ChainReplica) re-validates whole chains
//! during catch-up and fork choice (`adopt_if_longer` replays every block
//! from genesis), and crash recovery re-applies blocks this process has
//! already accepted. Schnorr verification is the dominant cost of that
//! replay, yet the verdict for a given (message, key, signature) triple
//! never changes — so the chain layer remembers accepted triples by
//! digest and skips the exponentiations on re-encounter.
//!
//! Soundness: an entry is inserted only after a *successful* full
//! verification, and the key is the SHA-256 digest of the
//! domain-separated, length-prefixed triple. A lookup hit therefore
//! implies (up to SHA-256 collisions — the same assumption every hash
//! and Merkle commitment in the system already makes) that fresh
//! verification would return `true`. Failed verifications are never
//! cached, so malformed or tampered inputs always pay — and always fail —
//! the real check. Cache state can only convert "would verify" into
//! "verified cheaply": accept/reject decisions, and therefore chain
//! state, are identical with the cache empty, warm, or disabled, at any
//! worker count (`with_threads`).
//!
//! A block's transactions go through [`verify_batch_cached`]: the triples
//! the cache remembers are set aside, the rest are checked as ONE
//! randomised product (`pds2_crypto::schnorr::verify_batch`, DESIGN.md
//! §5d) and remembered only if that product passes. The batch accepts
//! exactly when every member would pass [`verify_cached`] on its own, so
//! the statements above hold for it unchanged, and a refused batch leaves
//! the cache as it found it.
//!
//! The cache is two-generation bounded: inserts go to the live
//! generation; when it fills, the previous generation is dropped and the
//! live one takes its place. Memory is thus capped at roughly
//! `2 × CAPACITY` digests while recent entries (the ones replay hits)
//! survive.

use parking_lot::Mutex;
use pds2_crypto::schnorr::{self, BatchItem, PublicKey, Signature};
use pds2_crypto::sha256::{Digest, Sha256};
use pds2_crypto::BigUint;
use pds2_obs::Counter;
use std::collections::HashSet;
use std::sync::OnceLock;

/// Digests retained per generation (two generations live at once).
const CAPACITY: usize = 1 << 16;

struct Generations {
    live: HashSet<Digest>,
    prev: HashSet<Digest>,
}

static CACHE: OnceLock<Mutex<Generations>> = OnceLock::new();

/// Hit/miss totals live on the `pds2-obs` registry (names
/// `chain.sigcache_hits` / `chain.sigcache_misses`) so they appear in
/// the same [`pds2_obs::snapshot`] as every other metric; [`stats`]
/// and [`clear`] remain the crate-local view of the same counters.
fn hits() -> &'static Counter {
    pds2_obs::counter!("chain.sigcache_hits")
}

fn misses() -> &'static Counter {
    pds2_obs::counter!("chain.sigcache_misses")
}

fn cache() -> &'static Mutex<Generations> {
    CACHE.get_or_init(|| {
        Mutex::new(Generations {
            live: HashSet::new(),
            prev: HashSet::new(),
        })
    })
}

/// Bytes `BigUint::encode_into` writes for `n`: a `u64` count, then the
/// minimal big-endian magnitude.
fn encoded_len(n: &BigUint) -> u64 {
    8 + u64::from(n.bits().div_ceil(8))
}

/// Feeds the hasher exactly the bytes `BigUint::encode_into` would
/// append for `n`, straight from the limbs.
fn update_biguint(h: &mut Sha256, n: &BigUint) {
    let len = encoded_len(n) - 8;
    h.update(&len.to_le_bytes());
    let limbs = n.limbs();
    // Minimal big-endian: only the top limb loses leading zero bytes.
    let mut skip = limbs.len() * 8 - len as usize;
    for limb in limbs.iter().rev() {
        h.update(&limb.to_be_bytes()[skip..]);
        skip = 0;
    }
}

/// Collision-resistant digest of a (message, key, signature) triple.
///
/// Length-prefixed and domain-separated, so distinct triples can never
/// produce the same preimage bytes. The preimage is
/// `domain ‖ len ‖ message ‖ len ‖ key.to_bytes() ‖ len ‖ sig.to_bytes()`
/// (lengths `u64` little-endian): the key is fed to the hasher straight
/// from its limbs, the signature as its 65 fixed-width wire bytes.
pub fn triple_digest(message: &[u8], key: &PublicKey, sig: &Signature) -> Digest {
    let y = key.element();
    let mut h = Sha256::new();
    h.update(b"pds2-sigcache-v1");
    h.update(&(message.len() as u64).to_le_bytes());
    h.update(message);
    h.update(&encoded_len(y).to_le_bytes());
    update_biguint(&mut h, y);
    h.update(&(Signature::LEN as u64).to_le_bytes());
    h.update(&sig.to_wire());
    h.finalize()
}

/// Whether this triple digest has been verified before.
pub fn contains(digest: &Digest) -> bool {
    let guard = cache().lock();
    let hit = guard.live.contains(digest) || guard.prev.contains(digest);
    if hit {
        hits().inc();
    } else {
        misses().inc();
    }
    hit
}

/// Records a digest whose triple passed full verification.
pub fn insert(digest: Digest) {
    let mut guard = cache().lock();
    if guard.live.len() >= CAPACITY {
        guard.prev = std::mem::take(&mut guard.live);
    }
    guard.live.insert(digest);
}

/// Verifies `sig` over `message` with the cache in front of the real
/// check: a remembered accept short-circuits, everything else runs the
/// full verification and remembers a success.
pub fn verify_cached(message: &[u8], key: &PublicKey, sig: &Signature) -> bool {
    let digest = triple_digest(message, key, sig);
    if contains(&digest) {
        return true;
    }
    let ok = key.verify(message, sig);
    if ok {
        insert(digest);
    }
    ok
}

/// Verifies every member of `items` with the cache in front of ONE
/// batched check: remembered triples are set aside (a hit each), the
/// rest (a miss each) go through [`schnorr::verify_batch`] on the calling
/// thread, and are remembered only if the whole batch passes.
pub fn verify_batch_cached(items: &[BatchItem<'_>]) -> bool {
    let (digests, misses): (Vec<Digest>, Vec<BatchItem<'_>>) = items
        .iter()
        .map(|&(key, message, sig)| (triple_digest(message, key, sig), (key, message, sig)))
        .filter(|(digest, _)| !contains(digest))
        .unzip();
    let ok = schnorr::verify_batch(&misses);
    if ok {
        digests.into_iter().for_each(insert);
    }
    ok
}

/// (hits, misses) since process start (or the last [`clear`]).
pub fn stats() -> (u64, u64) {
    (hits().get(), misses().get())
}

/// Drops all cached digests and resets counters (bench/test helper: cold
/// runs must not see a previous run's warm cache).
pub fn clear() {
    let mut guard = cache().lock();
    guard.live.clear();
    guard.prev.clear();
    hits().reset();
    misses().reset();
}

#[cfg(test)]
mod tests {
    // Tests that read the process-wide counters live in
    // `tests/sigcache.rs`, a process of their own.
    use super::*;
    use pds2_crypto::KeyPair;

    #[test]
    fn streamed_preimage_equals_the_encoded_one() {
        use pds2_crypto::Encode;
        // The digest as it was defined before the encodings were
        // streamed: both `to_bytes()` materialised.
        let by_encoding = |message: &[u8], key: &PublicKey, sig: &Signature| {
            let (key_bytes, sig_bytes) = (key.to_bytes(), Encode::to_bytes(sig));
            let mut h = Sha256::new();
            h.update(b"pds2-sigcache-v1");
            h.update(&(message.len() as u64).to_le_bytes());
            h.update(message);
            h.update(&(key_bytes.len() as u64).to_le_bytes());
            h.update(&key_bytes);
            h.update(&(sig_bytes.len() as u64).to_le_bytes());
            h.update(&sig_bytes);
            h.finalize()
        };
        let kp = KeyPair::from_seed(35);
        let sig = kp.sign(b"m");
        assert_eq!(
            triple_digest(b"m", &kp.public, &sig),
            by_encoding(b"m", &kp.public, &sig)
        );
        // Every top-limb width, zero, and limb boundaries.
        let shapes = [
            BigUint::from_bytes_be(&[]),
            BigUint::from_bytes_be(&[1]),
            BigUint::from_bytes_be(&[0xff; 7]),
            BigUint::from_bytes_be(&[0x80; 8]),
            BigUint::from_bytes_be(&[1, 0, 0, 0, 0, 0, 0, 0, 0]),
            BigUint::from_bytes_be(&[0xab; 33]),
            BigUint::from_bytes_be(&[0x01; 64]),
        ];
        // The key half is streamed from the limbs and a key is not range
        // checked, so every shape goes through it; the signature half is
        // fixed-width, so its shapes are the in-range extremes of `R`
        // and `s` beside a signed one.
        let group = schnorr::Group::standard();
        let one = BigUint::one();
        let sigs = [
            sig,
            Signature::new(one.clone(), BigUint::from_bytes_be(&[])).expect("in range"),
            Signature::new(group.p.sub(&one), group.q.sub(&one)).expect("in range"),
            Signature::new(shapes[4].clone(), shapes[3].clone()).expect("in range"),
        ];
        for y in &shapes {
            let key = PublicKey::from_element(y.clone());
            for sig in &sigs {
                assert_eq!(
                    triple_digest(b"shape", &key, sig),
                    by_encoding(b"shape", &key, sig),
                    "y={y:?} sig={sig:?}"
                );
            }
        }
    }

    #[test]
    fn distinct_triples_have_distinct_digests() {
        let kp = KeyPair::from_seed(33);
        let other = KeyPair::from_seed(34);
        let sig = kp.sign(b"m");
        let d = triple_digest(b"m", &kp.public, &sig);
        assert_ne!(d, triple_digest(b"n", &kp.public, &sig));
        assert_ne!(d, triple_digest(b"m", &other.public, &sig));
        let sig2 = kp.sign(b"x");
        assert_ne!(d, triple_digest(b"m", &kp.public, &sig2));
    }
}
