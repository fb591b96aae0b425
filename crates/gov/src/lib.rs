//! Threshold-federated governance for the PDS2 chain (DESIGN.md §5i).
//!
//! PR 3 gave the chain single-key Schnorr block signatures; this crate
//! removes the single point of trust. The validator set runs a
//! deterministic [DKG](dkg::run_dkg) that splits a group signing key
//! into `(t, n)` Shamir shares — no party ever holds the whole key —
//! and blocks are sealed by any `t`-of-`n` quorum whose
//! [partial signatures](sign::partial_sign) aggregate, via Lagrange
//! interpolation at zero, into **one ordinary Schnorr signature** under
//! the group public key. Verifiers are oblivious: the aggregate passes
//! the unmodified `PublicKey::verify`, so chain validation, the
//! signature cache and the Montgomery fast path from PR 3 are reused
//! byte-for-byte.
//!
//! Three lifecycle mechanisms complete the committee story:
//!
//! - [`sign::SigningSession`] rejects byzantine partials before they
//!   can poison an aggregate (one dual exponentiation per check);
//! - [`dkg::refresh_share`] proactively re-randomizes every share on
//!   validator churn while the group key — and thus every historical
//!   block signature — stays valid;
//! - [`dkg::recover_share`] rebuilds a crashed validator's share from
//!   any `t` helpers ("break-glass" recovery for up to `n − t` losses).
//!
//! [`net::GovNode`] runs the whole protocol over the deterministic
//! network simulator for the chaos harness; `pds2-chain` wires
//! [`sign::sign_with_quorum`] into block sealing for a chain configured
//! with `SigMode::Threshold`, with the single-key path kept as a
//! differential oracle.
//!
//! Everything is seed-deterministic: same seed, same committee, same
//! signatures, at any worker count (`with_threads`). Observability: `gov.*`
//! counters plus `gov/dkg` and `gov/sign` spans (OBSERVABILITY.md).

#![forbid(unsafe_code)]

pub mod dkg;
pub mod net;
pub mod sign;

pub use dkg::{run_dkg, run_dkg_quiet, Committee, ThresholdParams, ValidatorShare};
pub use sign::{sign_with_quorum, NonceCommitment, NonceGuard, PartialSig, SigningSession};

/// Errors across DKG, signing, refresh and recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GovError {
    /// `t = 0` or `t > n`.
    BadThreshold,
    /// Fewer than `t` shares/partials/contributions were supplied.
    NotEnoughShares,
    /// A signer index appears twice in a signer set.
    DuplicateSigner(u64),
    /// A signer index is not part of the committee (or signer set).
    UnknownSigner(u64),
    /// A dealt share, recovered share or refreshed commitment failed
    /// verification against its public (Feldman) commitment.
    CommitmentMismatch,
    /// A partial's nonce commitment does not match the signer set fixed
    /// for this attempt (inconsistent aggregator views).
    NonceMismatch,
    /// A partial from a different attempt or refresh epoch.
    StalePartial,
    /// A signer was asked to sign the same `(epoch, attempt, message)`
    /// tuple under a second, different commitment transcript — refused
    /// by [`sign::NonceGuard`] so deterministic nonces never meet two
    /// challenges (the Schnorr key-extraction hazard).
    NonceReuse,
    /// A partial signature failed the per-signer check
    /// `g^{s_i}·Y_i^{−e·λ_i} = R_i` — a byzantine contribution.
    BadPartial(u64),
    /// The aggregate failed verification under the group key (an
    /// aggregator-side bug; individual bad partials are caught earlier).
    AggregateInvalid,
}

impl std::fmt::Display for GovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GovError::BadThreshold => write!(f, "threshold must satisfy 1 <= t <= n"),
            GovError::NotEnoughShares => write!(f, "fewer than t shares supplied"),
            GovError::DuplicateSigner(i) => write!(f, "signer {i} appears twice in the set"),
            GovError::UnknownSigner(i) => write!(f, "signer {i} is not in the committee/set"),
            GovError::CommitmentMismatch => write!(f, "share fails its public commitment check"),
            GovError::NonceMismatch => write!(f, "nonce commitment differs from the fixed set"),
            GovError::StalePartial => write!(f, "partial from a stale attempt or epoch"),
            GovError::NonceReuse => write!(
                f,
                "tuple already signed under a different commitment transcript"
            ),
            GovError::BadPartial(i) => write!(f, "byzantine partial signature from signer {i}"),
            GovError::AggregateInvalid => write!(f, "aggregate failed group-key verification"),
        }
    }
}

impl std::error::Error for GovError {}
