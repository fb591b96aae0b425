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
//! state, are identical with the cache empty, warm, or disabled.
//!
//! A block's transactions go through [`verify_batch_cached`]: the triples
//! the cache remembers are set aside, the rest are checked as ONE
//! randomised product (`pds2_crypto::schnorr::verify_batch`, DESIGN.md
//! §5d) and remembered only if that product passes. The batch accepts
//! exactly when every member would pass [`verify_cached`] on its own, so
//! the statements above hold for it unchanged, and a refused batch leaves
//! the cache as it found it. A run of blocks (catch-up, a sync batch, fork
//! choice, recovery's tail) makes one such call for all its headers and
//! transactions, per window of at most `CAPACITY / 2` signatures: a window
//! that large cannot push its own triples out before its blocks execute and
//! look each transaction up again. Admission needs a verdict per member
//! instead, and takes it from [`verify_each_cached`], which bisects a
//! refused batch.
//!
//! The cache is two-generation bounded: inserts go to the live
//! generation; when it fills, the previous generation is dropped and the
//! live one takes its place. Memory is thus capped at roughly
//! `2 × CAPACITY` digests while recent entries (the ones replay hits)
//! survive.

use parking_lot::Mutex;
use pds2_crypto::schnorr::{self, BatchItem, PublicKey, Signature};
use pds2_crypto::sha256::{Digest, Sha256};
use pds2_obs::Counter;
use std::collections::HashSet;
use std::sync::OnceLock;

/// Digests retained per generation (two generations live at once).
pub(crate) const CAPACITY: usize = 1 << 16;

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

/// Feeds the hasher `key.to_bytes()` behind its `u64` length, straight
/// from the limbs: the element's byte count, then its minimal big-endian
/// magnitude.
fn update_key(h: &mut Sha256, key: &PublicKey) {
    let len = key.encoded_len();
    let magnitude = len - 8;
    h.update(&(len as u64).to_le_bytes());
    h.update(&(magnitude as u64).to_le_bytes());
    let limbs = key.element().limbs();
    // Minimal big-endian: only the top limb loses leading zero bytes.
    let mut skip = limbs.len() * 8 - magnitude;
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
    let mut h = Sha256::new();
    h.update(b"pds2-sigcache-v1");
    h.update(&(message.len() as u64).to_le_bytes());
    h.update(message);
    update_key(&mut h, key);
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

/// Looks every member of `items` up once (a hit or a miss each) and
/// returns the misses: their positions in `items` and their triple
/// digests.
fn lookup_misses(items: &[BatchItem<'_>]) -> (Vec<usize>, Vec<Digest>) {
    items
        .iter()
        .enumerate()
        .map(|(i, &(key, message, sig))| (i, triple_digest(message, key, sig)))
        .filter(|(_, digest)| !contains(digest))
        .unzip()
}

/// Verifies every member of `items` with the cache in front of ONE
/// batched check: remembered triples are set aside (a hit each), the
/// rest (a miss each) go through [`schnorr::verify_batch`] on the calling
/// thread, and are remembered only if the whole batch passes.
pub fn verify_batch_cached(items: &[BatchItem<'_>]) -> bool {
    let (at, digests) = lookup_misses(items);
    let batch: Vec<BatchItem<'_>> = at.iter().map(|&i| items[i]).collect();
    let ok = schnorr::verify_batch(&batch);
    if ok {
        digests.into_iter().for_each(insert);
    }
    ok
}

/// The verdict of every member of `items`, each looked up once as
/// [`verify_cached`] would: the misses are checked as one batch, and a
/// refused batch is halved and each half retried, so k bad members among
/// n cost O(k log n) batch checks rather than n single ones (counted in
/// `chain.admit_batch_checks`). Fewer than [`schnorr::BATCH_MIN`] members
/// are checked one by one, each once (`chain.admit_single_checks`). Every
/// member that passes is remembered. Member by member, the verdicts are
/// [`verify_cached`]'s.
pub fn verify_each_cached(items: &[BatchItem<'_>]) -> Vec<bool> {
    let (at, digests) = lookup_misses(items);
    let mut verdicts = vec![true; items.len()];
    bisect(&at, &mut verdicts, &mut |members| {
        if let &[i] = members {
            pds2_obs::counter!("chain.admit_single_checks").inc();
            let (key, message, sig) = items[i];
            return key.verify(message, sig);
        }
        pds2_obs::counter!("chain.admit_batch_checks").inc();
        let batch: Vec<BatchItem<'_>> = members.iter().map(|&i| items[i]).collect();
        schnorr::verify_batch(&batch)
    });
    for (i, digest) in at.into_iter().zip(digests) {
        if verdicts[i] {
            insert(digest);
        }
    }
    verdicts
}

/// Runs `check` over the members at positions `at`, and if it refuses
/// them, over each half in turn. Below [`schnorr::BATCH_MIN`] members a
/// batch is no cheaper than its single checks (`verify_batch` loops over
/// them), so there `check` runs on each member alone, once, and its
/// verdict is written into `verdicts`.
fn bisect(at: &[usize], verdicts: &mut [bool], check: &mut impl FnMut(&[usize]) -> bool) {
    // A refused single member must not be halved.
    const _: () = assert!(schnorr::BATCH_MIN >= 2);
    if at.len() < schnorr::BATCH_MIN {
        for &i in at {
            verdicts[i] = check(&[i]);
        }
        return;
    }
    if check(at) {
        return;
    }
    let (left, right) = at.split_at(at.len() / 2);
    bisect(left, verdicts, check);
    bisect(right, verdicts, check);
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
    use pds2_crypto::{BigUint, KeyPair};

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

    /// Runs [`bisect`] over n members, the ones `bad` names refused, and
    /// returns the verdicts, the batch checks and how many times each
    /// member was checked alone.
    fn bisect_counting(n: usize, bad: impl Fn(usize) -> bool) -> (Vec<bool>, u32, Vec<u32>) {
        let (mut verdicts, mut batches, mut singles) = (vec![true; n], 0, vec![0; n]);
        bisect(&(0..n).collect::<Vec<_>>(), &mut verdicts, &mut |members| {
            match members {
                &[i] => singles[i] += 1,
                _ => {
                    assert!(members.len() >= schnorr::BATCH_MIN);
                    batches += 1;
                }
            }
            !members.iter().any(|&i| bad(i))
        });
        (verdicts, batches, singles)
    }

    /// One bad member anywhere among n costs at most one batch check of
    /// the whole plus two per halving, 2⌈log₂ n⌉ + 1, and fewer than
    /// 2·`BATCH_MIN` single checks, and is the only refusal;
    /// `tests/admit_amplification.rs` counts the same through admission
    /// with real signatures.
    #[test]
    fn bisection_pays_two_checks_per_halving() {
        for n in [1usize, 4, 13, 256] {
            let bound = 2 * n.next_power_of_two().trailing_zeros() + 1;
            for bad in 0..n {
                let (verdicts, batches, singles) = bisect_counting(n, |i| i == bad);
                assert!((0..n).all(|i| verdicts[i] == (i != bad)), "{bad} of {n}");
                assert!(batches <= bound, "{bad} of {n}: {batches} batch checks");
                let alone: u32 = singles.iter().sum();
                assert!(
                    alone < 2 * schnorr::BATCH_MIN as u32,
                    "{bad} of {n}: {alone}"
                );
                assert!(singles.iter().all(|&s| s <= 1), "{bad} of {n}: {singles:?}");
            }
        }
        // Every member bad: each is found by one check of it alone, under
        // one batch check per set of at least `BATCH_MIN` (13; 6, 7; 4).
        let (verdicts, batches, singles) = bisect_counting(13, |_| true);
        assert_eq!(
            (verdicts, batches, singles),
            (vec![false; 13], 4, vec![1; 13])
        );
        // Nothing bad: one batch check, and a set too small to batch is
        // checked member by member.
        assert_eq!(
            bisect_counting(13, |_| false),
            (vec![true; 13], 1, vec![0; 13])
        );
        assert_eq!(
            bisect_counting(3, |_| false),
            (vec![true; 3], 0, vec![1; 3])
        );
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
