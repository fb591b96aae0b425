//! Threshold-federated governance for the PDS2 chain (DESIGN.md §5i).
//!
//! Every chain block is sealed by its proposer's own Schnorr key; this
//! crate is the committee signature that does not trust any one
//! validator. The validator set runs a deterministic [DKG](dkg::run_dkg)
//! that splits a group signing key into `(t, n)` Shamir shares — no
//! party ever holds the whole key — and any `t`-of-`n` quorum's
//! [partial signatures](sign::partial_sign) aggregate, via Lagrange
//! interpolation at zero, into **one ordinary Schnorr signature** under
//! the group public key. Verifiers are oblivious: the aggregate passes
//! the unmodified `PublicKey::verify` and its Montgomery fast path.
//! These signatures are priced for checkpoint cadence — one every `k`
//! blocks over `(height, head hash, state root)` — not for every block
//! (ROADMAP item 5).
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
//! [`net::GovNode`] runs the whole protocol, with shares held apart,
//! over the deterministic network simulator for the chaos harness;
//! [`sign::sign_with_quorum`] is its in-process reference.
//!
//! Everything is seed-deterministic: same seed, same committee, same
//! signatures, on every rerun. Observability:
//! `gov.*` counters (OBSERVABILITY.md).

#![forbid(unsafe_code)]

pub mod dkg;
pub mod net;
pub mod sign;

pub use dkg::{run_dkg, Committee, ThresholdParams, ValidatorShare};
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
