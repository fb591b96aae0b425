//! Threshold-federated block sealing (DESIGN.md §5i).
//!
//! In `single` mode (the default, and the differential oracle) each
//! block is signed by its round-robin proposer's own key. In
//! `threshold` mode — [`SigMode::Threshold`] passed as
//! [`crate::ChainConfig::sig_mode`] — the validator set runs a
//! deterministic DKG (via [`pds2_gov`]) and every block is sealed by a
//! t-of-n quorum whose partial signatures aggregate into **one ordinary
//! Schnorr signature** under the committee's group public key. A single
//! compromised validator can no longer forge history: forging now needs
//! `t = ⌊n/2⌋ + 1` shares.
//!
//! Only the signature field changes between modes. The header still
//! names the round-robin proposer (so `WrongProposer` enforcement and
//! the coinbase — and therefore state roots — are bit-identical in both
//! modes), verification still routes through [`crate::sigcache`], and
//! the aggregate passes the unmodified `PublicKey::verify` fast path,
//! which is how `bench_micro`'s bound "aggregate verify within 3× single
//! verify" holds with margin (~1×).
//!
//! Committees are cached process-globally, keyed by a digest of the
//! validator set: replica sync rebuilds chains from their genesis
//! factory on every fork-choice candidate and crash recovery, and
//! re-running the DKG each time would be both slow and — because the
//! instrumented DKG emits spans — a cache-warmth leak into obs digests.
//! The cache path therefore uses the span-free `run_dkg_quiet`.

use parking_lot::Mutex;
use pds2_crypto::schnorr::{PublicKey, Signature};
use pds2_crypto::sha256::Sha256;
use pds2_gov::dkg::{run_dkg_quiet, Committee, ThresholdParams, ValidatorShare};
use pds2_gov::sign::sign_with_quorum;
use std::collections::HashMap;
use std::sync::Arc;

/// How block headers are signed and verified.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SigMode {
    /// Proposer's own key (PR 3 behaviour; the differential oracle).
    #[default]
    Single,
    /// t-of-n threshold signature under the committee group key.
    Threshold,
}

impl SigMode {
    // Reads nothing; only the benchmark calls it. ROADMAP item 8(a) deletes it.
    #[doc(hidden)]
    pub fn from_env() -> SigMode {
        SigMode::Single
    }
}

/// The sealing context a threshold-mode chain holds: the public
/// committee plus — in this single-process simulation, where the chain
/// already holds every validator's `KeyPair` — all shares.
pub struct ThresholdCtx {
    committee: Committee,
    shares: Vec<ValidatorShare>,
}

impl ThresholdCtx {
    /// The group public key headers verify against.
    pub fn group_public(&self) -> &PublicKey {
        self.committee.group_public()
    }

    /// The committee shape.
    pub fn params(&self) -> ThresholdParams {
        self.committee.params
    }

    /// Seals `payload` with the canonical quorum (the `t` lowest
    /// validator indices) under a `gov/sign` span stamped with the block
    /// height. Deterministic: every replica holding the same validator
    /// set derives the same nonces and byte-identical signatures.
    pub fn seal(&self, height: u64, payload: &[u8]) -> Signature {
        let span = pds2_obs::span(
            "gov",
            "sign",
            pds2_obs::Stamp::Block(height),
            pds2_obs::TraceCtx::NONE,
            Vec::new(),
        );
        let quorum: Vec<&ValidatorShare> = self.shares.iter().collect();
        let sig = sign_with_quorum(&self.committee, &quorum, payload)
            .expect("sealing with the full honest share set cannot fail");
        if pds2_obs::enabled() {
            span.finish(
                pds2_obs::Stamp::Block(height),
                vec![
                    ("t", pds2_obs::Value::from(self.committee.params.t)),
                    ("n", pds2_obs::Value::from(self.committee.params.n)),
                ],
            );
        }
        sig
    }
}

/// Digest of a validator set (order-sensitive, like proposer rotation).
fn validator_set_digest(validators: &[PublicKey]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"pds2-gov-committee-v1");
    for v in validators {
        h.update(&v.to_bytes());
    }
    *h.finalize().as_bytes()
}

fn cache() -> &'static Mutex<HashMap<[u8; 32], Arc<ThresholdCtx>>> {
    static CACHE: std::sync::OnceLock<Mutex<HashMap<[u8; 32], Arc<ThresholdCtx>>>> =
        std::sync::OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The threshold context for a validator set, from the process-global
/// cache (see module docs for why replicas must not re-run the DKG).
///
/// The DKG seed is derived from the validator-set digest, so distinct
/// committees get distinct group keys while every replica of the same
/// committee derives the same one.
pub fn committee_for(validators: &[PublicKey]) -> Arc<ThresholdCtx> {
    // majority(0) would be t=1, n=0 — an invalid shape the DKG rejects.
    // Fail with a diagnosis instead of an opaque unwrap downstream.
    assert!(
        !validators.is_empty(),
        "threshold sealing requires a non-empty validator set"
    );
    let digest = validator_set_digest(validators);
    if let Some(ctx) = cache().lock().get(&digest) {
        return Arc::clone(ctx);
    }
    let seed = u64::from_le_bytes(digest[..8].try_into().expect("32 >= 8"));
    let params = ThresholdParams::majority(validators.len());
    let (committee, shares) = run_dkg_quiet(seed, params).expect("majority(n>=1) params are valid");
    let ctx = Arc::new(ThresholdCtx { committee, shares });
    cache()
        .lock()
        .entry(digest)
        .or_insert_with(|| Arc::clone(&ctx))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds2_crypto::schnorr::KeyPair;

    fn pubs(n: u64) -> Vec<PublicKey> {
        (0..n)
            .map(|i| KeyPair::from_seed(7_700 + i).public)
            .collect()
    }

    #[test]
    fn committee_cache_returns_same_ctx_per_set() {
        let set = pubs(4);
        let a = committee_for(&set);
        let b = committee_for(&set);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.params(), ThresholdParams::majority(4));
        // A different set gets a different group key.
        let other = committee_for(&pubs(3));
        assert_ne!(a.group_public(), other.group_public());
    }

    #[test]
    fn seal_verifies_under_group_key_only() {
        let ctx = committee_for(&pubs(4));
        let sig = ctx.seal(9, b"header payload");
        assert!(ctx.group_public().verify(b"header payload", &sig));
        assert!(!ctx.group_public().verify(b"other payload", &sig));
        // Sealing is deterministic (replicas must agree byte-for-byte).
        assert_eq!(ctx.seal(9, b"header payload"), sig);
    }

    #[test]
    #[should_panic(expected = "non-empty validator set")]
    fn empty_validator_set_is_a_clear_error() {
        committee_for(&[]);
    }

    #[test]
    fn sig_mode_from_env_defaults_to_single() {
        assert_eq!(SigMode::from_env(), SigMode::Single);
        assert_eq!(SigMode::default(), SigMode::Single);
    }
}
