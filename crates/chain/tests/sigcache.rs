//! The signature cache remembers accepts and never remembers rejects.
//!
//! One test per process on purpose (as `hash_once.rs`): the assertions
//! read the process-wide `sigcache` counters and call `clear()`, which
//! the crate's unit tests, verifying signatures concurrently in one
//! process, would move under them.

use pds2_chain::sigcache::{clear, contains, stats, triple_digest, verify_cached};
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
}
