//! Deterministic distributed key generation for the validator committee.
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
//! The committee is built once per genesis configuration: its shares and
//! commitments are fixed for the life of the DKG, and a validator's
//! share is durable state that survives a crash.
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

use crate::GovError;
use pds2_crypto::schnorr::{Group, PublicKey};
use pds2_crypto::sha256::Sha256;
use pds2_crypto::BigUint;

/// Domain tag for DKG polynomial coefficients.
const DOMAIN_DKG: &[u8] = b"pds2-gov-dkg-v1";

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
    /// The share scalar `f(index) ∈ Z_q`.
    pub scalar: BigUint,
}

/// The public outcome of a DKG: everything a verifier — or an aggregator
/// rejecting byzantine partials — needs. Contains no secrets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Committee {
    /// Committee shape.
    pub params: ThresholdParams,
    /// Group public key `Y = g^x`; aggregate signatures verify against
    /// this single key through the ordinary [`PublicKey::verify`].
    group_public: PublicKey,
    /// Per-validator share commitments `Y_j = g^{s_j}`, indexed by
    /// `index − 1`.
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
fn coeff_scalar(seed: u64, dealer: u64, k: u64) -> BigUint {
    let group = Group::standard();
    let mut h = Sha256::new();
    h.update(&(DOMAIN_DKG.len() as u64).to_le_bytes());
    h.update(DOMAIN_DKG);
    h.update(&seed.to_le_bytes());
    // Reserved zero word, part of the preimage every pinned committee used.
    h.update(&0u64.to_le_bytes());
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
                .map(|k| coeff_scalar(seed, dealer, k))
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
            group_public: PublicKey::from_element(y),
            commitments: share_commitments,
        },
        shares,
    ))
}

/// The Lagrange weight `λ_i^S(0)` = `Π_{j∈S, j≠i} x_j/(x_j − x_i) mod q`
/// for interpolation at zero, where the group secret sits. `signers`
/// must contain `i` and hold distinct nonzero indices — both are
/// validated, not assumed.
pub fn lagrange_at(signers: &[u64], i: u64, q: &BigUint) -> Result<BigUint, GovError> {
    // Distinctness of the WHOLE slice up front — a duplicated `i` itself
    // would otherwise slip through a per-`j` check and silently produce
    // a wrong weight (callers pass a signer set a peer chose).
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
        num = num.mul_mod(&as_fq(j), q);
        den = den.mul_mod(&as_fq(j).sub_mod(&as_fq(i), q), q);
    }
    let den_inv = den.modinv(q).ok_or(GovError::DuplicateSigner(i))?;
    Ok(num.mul_mod(&den_inv, q))
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
        // Pinned: the group key for (0xD16, 3-of-5) never moves.
        assert_eq!(
            c1.group_public().element().to_hex(),
            "8113e9166af8fa37ca502f8657205620a7956d363b12b3c3682fe0c180766128"
        );
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
                let lambda = lagrange_at(&signers, shares[i].index, &group.q).unwrap();
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
        assert!(lagrange_at(&[1, 2, 3], 4, q).is_err());
        assert!(lagrange_at(&[1, 2, 2], 1, q).is_err());
        // A duplicate of `i` itself must be caught too, not just
        // duplicates among the other signers.
        assert_eq!(
            lagrange_at(&[1, 1, 2], 1, q).unwrap_err(),
            GovError::DuplicateSigner(1)
        );
    }
}
