//! Deterministic distributed key generation, proactive share refresh and
//! break-glass share recovery for the validator committee.
//!
//! The DKG is Pedersen-style with Feldman commitments, run over the same
//! Schnorr group block signatures already use (DESIGN.md §5d): every
//! validator `i ∈ 1..=n` deals a degree-`t−1` polynomial `f_i` over `Z_q`,
//! publishes commitments `A_{i,k} = g^{a_{i,k}}`, and sends `f_i(j)` to
//! validator `j`. Each dealt evaluation is checked against the dealer's
//! commitments (`g^{f_i(j)} = Π_k A_{i,k}^{j^k}`), shares are summed into
//! `s_j = Σ_i f_i(j)`, and the group public key is `Y = Π_i A_{i,0}` —
//! a commitment to the group secret `x = Σ_i f_i(0)` that **no single
//! party ever holds**.
//!
//! ## Determinism
//!
//! Polynomial coefficients are derived from a public `(seed, dealer,
//! coefficient)` hash instead of per-dealer CSPRNGs, so every replica —
//! and every rerun — computes bit-identical
//! committees from the same seed. A production deployment would replace
//! the coefficient hash with local randomness and an actual broadcast round;
//! nothing else changes, which is exactly the trade the rest of the
//! repo makes (deterministic nonces, seeded fault plans).
//!
//! ## Proactive refresh
//!
//! [`refresh_delta`] derives, per epoch, a zero-sharing: every dealer
//! contributes a polynomial with `z_i(0) = 0`, so adding `Σ_i z_i(j)` to
//! share `s_j` re-randomizes every share while the group secret — and
//! therefore the group public key — is unchanged. Old-epoch shares become
//! useless to an attacker who compromised fewer than `t` validators
//! before the refresh.
//!
//! ## Break-glass recovery
//!
//! A validator that crashed and lost its share interpolates it back from
//! any `t` helpers: helper `i` sends `λ_i^S(m) · s_i` (the Lagrange
//! weight evaluated at the *lost index* `m`, not at zero), and the sum of
//! `t` contributions is `f(m) = s_m`. The recovered share is checked
//! against the public commitment `Y_m = g^{s_m}` before it is trusted.

use crate::GovError;
use pds2_crypto::schnorr::{Group, PublicKey};
use pds2_crypto::sha256::Sha256;
use pds2_crypto::BigUint;

/// Domain tag for DKG polynomial coefficients.
const DOMAIN_DKG: &[u8] = b"pds2-gov-dkg-v1";
/// Domain tag for refresh (zero-sharing) polynomial coefficients.
const DOMAIN_REFRESH: &[u8] = b"pds2-gov-refresh-v1";

/// The `(t, n)` committee shape: `t` of `n` validators must cooperate to
/// sign; up to `n − t` may crash without halting the chain; fewer than
/// `t` learn nothing about the group secret.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThresholdParams {
    /// Signing threshold (`1 <= t <= n`).
    pub t: usize,
    /// Committee size.
    pub n: usize,
}

impl ThresholdParams {
    /// Validated constructor.
    pub fn new(t: usize, n: usize) -> Result<ThresholdParams, GovError> {
        if t == 0 || t > n {
            return Err(GovError::BadThreshold);
        }
        Ok(ThresholdParams { t, n })
    }

    /// The default committee shape: a strict majority (`t = ⌊n/2⌋ + 1`),
    /// so two disjoint quorums cannot both sign (quorum intersection) and
    /// up to `⌈n/2⌉ − 1` validators may crash.
    pub fn majority(n: usize) -> ThresholdParams {
        ThresholdParams { t: n / 2 + 1, n }
    }
}

/// One validator's Shamir share of the group secret.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidatorShare {
    /// Evaluation point `x = index` (`1..=n`; 0 is the secret itself and
    /// is never dealt).
    pub index: u64,
    /// Refresh epoch this share belongs to (starts at 0; partial
    /// signatures from different epochs do not combine).
    pub epoch: u64,
    /// The share scalar `f(index) ∈ Z_q`.
    pub scalar: BigUint,
}

/// The public outcome of a DKG: everything a verifier — or an aggregator
/// rejecting byzantine partials — needs. Contains no secrets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Committee {
    /// Committee shape.
    pub params: ThresholdParams,
    /// Current refresh epoch.
    pub epoch: u64,
    /// DKG seed (public in this deterministic reproduction; see module
    /// docs). Kept so refresh deltas and per-epoch commitments can be
    /// recomputed by any party, including one recovering from a crash.
    pub seed: u64,
    /// Group public key `Y = g^x`; aggregate signatures verify against
    /// this single key through the ordinary [`PublicKey::verify`].
    group_public: PublicKey,
    /// Per-validator share commitments `Y_j = g^{s_j}` for the current
    /// epoch, indexed by `index − 1`.
    commitments: Vec<BigUint>,
}

impl Committee {
    /// The group public key aggregate signatures verify against.
    pub fn group_public(&self) -> &PublicKey {
        &self.group_public
    }

    /// The share commitment `g^{s_j}` for validator `index` (1-based).
    pub fn commitment(&self, index: u64) -> Option<&BigUint> {
        self.commitments.get(index.checked_sub(1)? as usize)
    }
}

/// Derives one polynomial coefficient from the public transcript.
///
/// The 256-bit hash is reduced mod the 255-bit `q`; the resulting bias
/// is < 2^-250 per draw — irrelevant even before noting that this
/// reproduction's seeds are public anyway.
fn coeff_scalar(domain: &[u8], seed: u64, epoch: u64, dealer: u64, k: u64) -> BigUint {
    let group = Group::standard();
    let mut h = Sha256::new();
    h.update(&(domain.len() as u64).to_le_bytes());
    h.update(domain);
    h.update(&seed.to_le_bytes());
    h.update(&epoch.to_le_bytes());
    h.update(&dealer.to_le_bytes());
    h.update(&k.to_le_bytes());
    BigUint::from_bytes_be(h.finalize().as_bytes()).rem(&group.q)
}

/// Horner evaluation of `Σ_k coeffs[k]·x^k mod q` at a small point.
fn eval_poly(coeffs: &[BigUint], x: u64, q: &BigUint) -> BigUint {
    let xq = BigUint::from_u64(x);
    let mut acc = BigUint::zero();
    for c in coeffs.iter().rev() {
        acc = acc.mul_mod(&xq, q).add_mod(c, q);
    }
    acc
}

/// Runs the (deterministic, seedable) DKG and returns the public
/// committee plus every validator's share.
pub fn run_dkg(
    seed: u64,
    params: ThresholdParams,
) -> Result<(Committee, Vec<ValidatorShare>), GovError> {
    let ThresholdParams { t, n } = ThresholdParams::new(params.t, params.n)?;
    let group = Group::standard();
    let q = &group.q;

    // Each dealer's polynomial and Feldman commitments A_{i,k} = g^{a_{i,k}}.
    let polys: Vec<Vec<BigUint>> = (1..=n as u64)
        .map(|dealer| {
            (0..t as u64)
                .map(|k| coeff_scalar(DOMAIN_DKG, seed, 0, dealer, k))
                .collect()
        })
        .collect();
    let commitments: Vec<Vec<BigUint>> = polys
        .iter()
        .map(|coeffs| coeffs.iter().map(|a| group.pow_g(a)).collect())
        .collect();

    // Deal, verify against the dealer's commitments, and sum.
    let mut shares = Vec::with_capacity(n);
    for j in 1..=n as u64 {
        let mut sum = BigUint::zero();
        for (dealer_idx, coeffs) in polys.iter().enumerate() {
            let dealt = eval_poly(coeffs, j, q);
            // Feldman check: g^{f_i(j)} must equal Π_k A_{i,k}^{j^k}.
            // A malformed deal (impossible here, since we derived it, but
            // the check is the protocol) would be rejected.
            let lhs = group.pow_g(&dealt);
            let mut rhs = BigUint::one();
            let mut x_pow = BigUint::one(); // j^k mod q
            for a_ik in &commitments[dealer_idx] {
                rhs = rhs.mul_mod(&a_ik.modpow(&x_pow, &group.p), &group.p);
                x_pow = x_pow.mul_mod(&BigUint::from_u64(j), q);
            }
            if lhs != rhs {
                return Err(GovError::CommitmentMismatch);
            }
            sum = sum.add_mod(&dealt, q);
        }
        shares.push(ValidatorShare {
            index: j,
            epoch: 0,
            scalar: sum,
        });
    }

    // Group public key: product of the constant-term commitments.
    let mut y = BigUint::one();
    for c in &commitments {
        y = y.mul_mod(&c[0], &group.p);
    }
    let share_commitments: Vec<BigUint> = shares.iter().map(|s| group.pow_g(&s.scalar)).collect();

    Ok((
        Committee {
            params,
            epoch: 0,
            seed,
            group_public: PublicKey::from_element(y),
            commitments: share_commitments,
        },
        shares,
    ))
}

/// The zero-sharing delta validator `index` adds to its share when
/// moving from `epoch` to `epoch + 1`: `Σ_i z_i(index)` where every
/// dealer polynomial has `z_i(0) = 0` (constant term omitted, powers
/// start at `x^1`).
///
/// Derivable by every committee member independently (module docs
/// explain the deterministic stand-in), so refresh needs no extra
/// message round in the simulation.
pub fn refresh_delta(seed: u64, params: ThresholdParams, epoch: u64, index: u64) -> BigUint {
    let group = Group::standard();
    let q = &group.q;
    let mut delta = BigUint::zero();
    for dealer in 1..=params.n as u64 {
        // Coefficients for x^1..x^{t-1}; f(0) = 0 by construction.
        let coeffs: Vec<BigUint> = (1..params.t as u64)
            .map(|k| coeff_scalar(DOMAIN_REFRESH, seed, epoch, dealer, k))
            .collect();
        let xq = BigUint::from_u64(index);
        // Horner, then one extra multiply by x (powers start at 1).
        let val = eval_poly(&coeffs, index, q).mul_mod(&xq, q);
        delta = delta.add_mod(&val, q);
    }
    delta
}

/// Advances `share` by one refresh epoch in place.
///
/// Bumps `gov.share_refreshes`. With `t = 1` the zero-polynomials are
/// identically zero (a degree-0 polynomial with `f(0) = 0` is 0), so the
/// share is unchanged — replication has nothing to re-randomize.
pub fn refresh_share(params: ThresholdParams, seed: u64, share: &mut ValidatorShare) {
    let group = Group::standard();
    let delta = refresh_delta(seed, params, share.epoch, share.index);
    share.scalar = share.scalar.add_mod(&delta, &group.q);
    share.epoch += 1;
    pds2_obs::counter!("gov.share_refreshes").inc();
}

/// Advances the public committee state by one refresh epoch: every share
/// commitment becomes `Y_j · g^{Δ_j}`; the group public key is asserted
/// unchanged (it is, by construction — the deltas share zero).
pub fn refresh_committee(committee: &mut Committee) {
    let group = Group::standard();
    for (i, c) in committee.commitments.iter_mut().enumerate() {
        let delta = refresh_delta(
            committee.seed,
            committee.params,
            committee.epoch,
            i as u64 + 1,
        );
        *c = c.mul_mod(&group.pow_g(&delta), &group.p);
    }
    committee.epoch += 1;
}

/// The Lagrange weight `λ_i^S(x)` = `Π_{j∈S, j≠i} (x − x_j)/(x_i − x_j)
/// mod q` for interpolation at an arbitrary point `x` (0 for signing,
/// the lost index for recovery). `signers` must contain `i` and hold
/// distinct nonzero indices — both are validated, not assumed.
pub fn lagrange_at(signers: &[u64], i: u64, x: u64, q: &BigUint) -> Result<BigUint, GovError> {
    // Distinctness of the WHOLE slice up front — a duplicated `i` itself
    // would otherwise slip through a per-`j` check and silently produce
    // a wrong weight (callers like `recovery_contribution` take a
    // caller-supplied helper set).
    let mut seen = std::collections::BTreeSet::new();
    for &j in signers {
        if !seen.insert(j) {
            return Err(GovError::DuplicateSigner(j));
        }
    }
    if !signers.contains(&i) {
        return Err(GovError::UnknownSigner(i));
    }
    let as_fq = |v: u64| BigUint::from_u64(v).rem(q);
    let mut num = BigUint::one();
    let mut den = BigUint::one();
    for &j in signers {
        if j == i {
            continue;
        }
        num = num.mul_mod(&as_fq(x).sub_mod(&as_fq(j), q), q);
        den = den.mul_mod(&as_fq(i).sub_mod(&as_fq(j), q), q);
    }
    let den_inv = den.modinv(q).ok_or(GovError::DuplicateSigner(i))?;
    Ok(num.mul_mod(&den_inv, q))
}

/// Helper `i`'s contribution to recovering the share of `lost`:
/// `λ_i^S(lost) · s_i mod q`. `helper_set` is the full set of `t`
/// helper indices participating in this recovery.
///
/// A production deployment would blind these contributions pairwise (the
/// sum would be unchanged); the simulation sends them in the clear, as
/// it does every other secret, because nodes are processes in one
/// address space.
pub fn recovery_contribution(
    share: &ValidatorShare,
    helper_set: &[u64],
    lost: u64,
) -> Result<BigUint, GovError> {
    let group = Group::standard();
    let lambda = lagrange_at(helper_set, share.index, lost, &group.q)?;
    Ok(lambda.mul_mod(&share.scalar, &group.q))
}

/// Sums `t` helper contributions into the lost share and verifies it
/// against the public commitment `Y_lost` before trusting it. Bumps
/// `gov.share_recoveries` on success.
pub fn recover_share(
    committee: &Committee,
    contributions: &[BigUint],
    lost: u64,
) -> Result<ValidatorShare, GovError> {
    if contributions.len() < committee.params.t {
        return Err(GovError::NotEnoughShares);
    }
    let group = Group::standard();
    let mut scalar = BigUint::zero();
    for c in contributions {
        scalar = scalar.add_mod(c, &group.q);
    }
    let expected = committee
        .commitment(lost)
        .ok_or(GovError::UnknownSigner(lost))?;
    if &group.pow_g(&scalar) != expected {
        return Err(GovError::CommitmentMismatch);
    }
    pds2_obs::counter!("gov.share_recoveries").inc();
    Ok(ValidatorShare {
        index: lost,
        epoch: committee.epoch,
        scalar,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dkg(t: usize, n: usize) -> (Committee, Vec<ValidatorShare>) {
        run_dkg(0xD16, ThresholdParams::new(t, n).unwrap()).unwrap()
    }

    #[test]
    fn dkg_is_deterministic() {
        let (c1, s1) = dkg(3, 5);
        let (c2, s2) = dkg(3, 5);
        assert_eq!(c1, c2);
        assert_eq!(s1, s2);
        // Different seed, different key.
        let (c3, _) = run_dkg(0xBEEF, ThresholdParams::new(3, 5).unwrap()).unwrap();
        assert_ne!(c1.group_public(), c3.group_public());
    }

    #[test]
    fn shares_interpolate_to_group_secret() {
        let group = Group::standard();
        let (committee, shares) = dkg(3, 5);
        // Reconstruct x from any t shares and check g^x == Y.
        for subset in [[0usize, 1, 2], [2, 3, 4], [0, 2, 4]] {
            let signers: Vec<u64> = subset.iter().map(|&i| shares[i].index).collect();
            let mut x = BigUint::zero();
            for &i in &subset {
                let lambda = lagrange_at(&signers, shares[i].index, 0, &group.q).unwrap();
                x = x.add_mod(&lambda.mul_mod(&shares[i].scalar, &group.q), &group.q);
            }
            assert_eq!(
                &group.pow_g(&x),
                committee.group_public().element(),
                "{subset:?}"
            );
        }
    }

    #[test]
    fn commitments_match_shares() {
        let group = Group::standard();
        let (committee, shares) = dkg(2, 4);
        for s in &shares {
            assert_eq!(
                committee.commitment(s.index).unwrap(),
                &group.pow_g(&s.scalar)
            );
        }
        assert!(committee.commitment(0).is_none());
        assert!(committee.commitment(5).is_none());
    }

    #[test]
    fn refresh_preserves_group_key_and_changes_shares() {
        let (mut committee, mut shares) = dkg(3, 5);
        let before = committee.group_public().clone();
        let old = shares.clone();
        for s in shares.iter_mut() {
            refresh_share(committee.params, committee.seed, s);
        }
        refresh_committee(&mut committee);
        assert_eq!(committee.group_public(), &before, "group key must survive");
        assert_eq!(committee.epoch, 1);
        let group = Group::standard();
        for (new, old) in shares.iter().zip(&old) {
            assert_ne!(new.scalar, old.scalar, "share {} unchanged", new.index);
            assert_eq!(new.epoch, 1);
            // Refreshed commitments still match refreshed shares.
            assert_eq!(
                committee.commitment(new.index).unwrap(),
                &group.pow_g(&new.scalar)
            );
        }
    }

    #[test]
    fn recovery_restores_exact_share() {
        let (committee, shares) = dkg(3, 5);
        let lost = 2u64;
        let helper_set = vec![1u64, 4, 5];
        let contributions: Vec<BigUint> = helper_set
            .iter()
            .map(|&h| recovery_contribution(&shares[(h - 1) as usize], &helper_set, lost).unwrap())
            .collect();
        let recovered = recover_share(&committee, &contributions, lost).unwrap();
        assert_eq!(recovered, shares[(lost - 1) as usize]);
    }

    #[test]
    fn recovery_rejects_corrupt_contribution() {
        let (committee, shares) = dkg(3, 5);
        let helper_set = vec![1u64, 3, 5];
        let mut contributions: Vec<BigUint> = helper_set
            .iter()
            .map(|&h| recovery_contribution(&shares[(h - 1) as usize], &helper_set, 2).unwrap())
            .collect();
        contributions[1] = contributions[1].add_mod(&BigUint::one(), &Group::standard().q);
        assert_eq!(
            recover_share(&committee, &contributions, 2).unwrap_err(),
            GovError::CommitmentMismatch
        );
        assert_eq!(
            recover_share(&committee, &contributions[..2], 2).unwrap_err(),
            GovError::NotEnoughShares
        );
    }

    #[test]
    fn bad_params_rejected() {
        assert_eq!(
            ThresholdParams::new(0, 3).unwrap_err(),
            GovError::BadThreshold
        );
        assert_eq!(
            ThresholdParams::new(4, 3).unwrap_err(),
            GovError::BadThreshold
        );
        assert_eq!(ThresholdParams::majority(4), ThresholdParams { t: 3, n: 4 });
        assert_eq!(ThresholdParams::majority(1), ThresholdParams { t: 1, n: 1 });
    }

    #[test]
    fn lagrange_rejects_bad_sets() {
        let q = &Group::standard().q;
        assert!(lagrange_at(&[1, 2, 3], 4, 0, q).is_err());
        assert!(lagrange_at(&[1, 2, 2], 1, 0, q).is_err());
        // A duplicate of `i` itself must be caught too, not just
        // duplicates among the other signers.
        assert_eq!(
            lagrange_at(&[1, 1, 2], 1, 0, q).unwrap_err(),
            GovError::DuplicateSigner(1)
        );
    }
}
