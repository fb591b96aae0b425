//! The signature cache remembers accepts and never remembers rejects.
//!
//! One test per process on purpose (as `hash_once.rs`): the assertions
//! read the process-wide `sigcache` counters and call `clear()`, which
//! the crate's unit tests, verifying signatures concurrently in one
//! process, would move under them.

use pds2_chain::sigcache::{
    clear, contains, stats, triple_digest, verify_batch_cached, verify_cached,
};
use pds2_crypto::KeyPair;

#[test]
fn accepts_are_remembered_and_rejects_never_are() {
    clear();
    let kp = KeyPair::from_seed(31);
    let sig = kp.sign(b"cache me");
    assert!(verify_cached(b"cache me", &kp.public, &sig));
    assert_eq!(stats(), (0, 1), "a cold cache pays the real check");
    assert!(verify_cached(b"cache me", &kp.public, &sig));
    assert_eq!(stats(), (1, 1), "second verification must be a cache hit");

    let kp = KeyPair::from_seed(32);
    let sig = kp.sign(b"good");
    assert!(!verify_cached(b"evil", &kp.public, &sig));
    assert!(!verify_cached(b"evil", &kp.public, &sig));
    assert_eq!(
        stats(),
        (1, 3),
        "failures must keep paying (and failing) the real check"
    );
    assert!(!contains(&triple_digest(b"evil", &kp.public, &sig)));
    // The rejected triple's signature is a good one for its own message.
    assert!(verify_cached(b"good", &kp.public, &sig));
    assert!(contains(&triple_digest(b"good", &kp.public, &sig)));

    // The batch entry: a lookup per member, the misses checked together,
    // and remembered only if all of them pass.
    clear();
    let keys: Vec<KeyPair> = (0..8).map(|i| KeyPair::from_seed(40 + i)).collect();
    let msgs: Vec<[u8; 8]> = (0..8u64).map(u64::to_le_bytes).collect();
    let sigs: Vec<_> = keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
    let item = |i: usize| (&keys[i].public, &msgs[i][..], &sigs[i]);
    let digest = |i: usize| triple_digest(&msgs[i], &keys[i].public, &sigs[i]);
    let mut batch: Vec<_> = (0..8).map(item).collect();
    // Member 5 carries member 6's signature: the batch is refused and
    // none of its seven good members is remembered for it.
    batch[5].2 = &sigs[6];
    assert!(!verify_batch_cached(&batch));
    assert_eq!(stats(), (0, 8));
    assert!((0..8).all(|i| !contains(&digest(i))));
    clear();
    // A good half is remembered whole ...
    assert!(verify_batch_cached(&batch[..4]));
    assert_eq!(stats(), (0, 4));
    // ... and hits from then on, leaving the other half as the batch.
    batch[5] = item(5);
    assert!(verify_batch_cached(&batch));
    assert_eq!(stats(), (4, 8));
    assert!(verify_batch_cached(&batch));
    assert_eq!(stats(), (12, 8));
    assert!(verify_batch_cached(&[]));
}
