//! Two-round t-of-n threshold Schnorr signing with FROST-style nonce
//! binding.
//!
//! Round 1 — every quorum member `i` derives a deterministic *pair* of
//! nonces `(d_i, e_i) = HMAC(s_i, 0 ‖ attempt ‖ tag ‖ m) mod q`
//! (RFC 6979 in spirit, one HMAC per component tag) and publishes the
//! commitment pair `(D_i, E_i) = (g^{d_i}, g^{e_i})`.
//!
//! Round 2 — once the signer set `S` (|S| = t) and its commitment pairs
//! are fixed, everyone hashes the full transcript `B = [(j, D_j, E_j)]`
//! into per-signer binding factors `ρ_j = H(j ‖ B ‖ m)`, forms the
//! effective nonce points `R_j = D_j · E_j^{ρ_j}`, the aggregate
//! `R = Π_{j∈S} R_j`, the ordinary Schnorr challenge `e = H(R ‖ Y ‖ m)`,
//! the Lagrange weight `λ_i = λ_i^S(0)`, and the partial response
//! `s_i^part = d_i + ρ_i·e_i + e·λ_i·s_i mod q`.
//!
//! The aggregate `s = Σ_{i∈S} s_i^part` satisfies `s = k + e·x` with
//! `k = Σ (d_i + ρ_i e_i)` and `x = Σ λ_i s_i` the interpolated group
//! secret — so `(R, s)` **is a plain Schnorr signature** under the group
//! key `Y`, verified by the unmodified
//! [`pds2_crypto::schnorr::PublicKey::verify`] on the Montgomery fast
//! path. Verifiers never learn (or care) that the key was split.
//!
//! A byzantine shareholder that submits a garbage partial is caught
//! before aggregation: `g^{s_i^part} · Y_i^{q − e·λ_i} = R_i` must hold,
//! where `Y_i = g^{s_i}` is the signer's public share commitment from
//! the DKG — one [`Group::dual_pow_g`] per partial, the same dual
//! exponentiation single-signature verification runs.
//!
//! ## Why the binding factor, and why [`NonceGuard`]
//!
//! Deterministic nonces are only safe if one nonce never signs two
//! different challenges — the classic Schnorr key-extraction hazard:
//! from `s = k + e·λ·x` and `s' = k + e'·λ'·x` anyone holding both
//! partials solves for the share `x`. Two mechanisms close every route
//! to that state:
//!
//! - the **binding factor** folds the whole transcript (signer set and
//!   every commitment pair) into every effective nonce, so signing the
//!   same message with a *different quorum* — or under a commitment
//!   list an aggregator tampered with — uses a fresh effective nonce,
//!   never the old one under a new challenge;
//! - the **[`NonceGuard`]** makes [`partial_sign`] stateful: a signer
//!   records the transcript digest it signed for each
//!   `(attempt, message)` pair and refuses any other transcript for the
//!   same pair ([`GovError::NonceReuse`]). Without it, a
//!   dishonest aggregator could collect partials for one pair under
//!   several transcripts and solve the resulting linear system for the
//!   base nonces and the share.
//!
//! The `attempt` counter still domain-separates retries: when an
//! aggregation attempt aborts (byzantine partial, partition stall), the
//! retry re-derives fresh base nonces on top of everything above.

use crate::dkg::{lagrange_at, Committee, ValidatorShare};
use crate::GovError;
use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use pds2_crypto::hmac::hmac_sha256;
use pds2_crypto::schnorr::{Group, Signature};
use pds2_crypto::sha256::Sha256;
use pds2_crypto::BigUint;
use std::collections::BTreeMap;

/// Domain tag for base-nonce derivation.
const DOMAIN_NONCE: &[u8] = b"pds2-gov-nonce-v2";
/// Domain tag for transcript binding factors.
const DOMAIN_BIND: &[u8] = b"pds2-gov-bind-v1";

/// Round-1 public output: the hiding/binding commitment pair
/// `(D_i, E_i) = (g^{d_i}, g^{e_i})`. Set-independent, so members can
/// publish it before the aggregator has fixed the signer set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NonceCommitment {
    /// Hiding commitment `D_i = g^{d_i}`.
    pub hiding: BigUint,
    /// Binding commitment `E_i = g^{e_i}`.
    pub binding: BigUint,
}

/// A partial signature: one quorum member's contribution to the
/// aggregate, carrying its *effective* nonce point so the aggregator can
/// check it without extra state. This is the wire type the chaos harness
/// corrupts in flight and the decode fuzzer mangles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialSig {
    /// Signer index (evaluation point, 1-based).
    pub signer: u64,
    /// Retry counter the nonces were derived under.
    pub attempt: u32,
    /// Effective nonce point `R_i = D_i · E_i^{ρ_i}`.
    pub r: BigUint,
    /// Response share `s_i^part = d_i + ρ_i·e_i + e·λ_i·s_i mod q`.
    pub s: BigUint,
}

impl Encode for PartialSig {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.signer);
        enc.put_u32(self.attempt);
        self.r.encode_into(enc);
        self.s.encode_into(enc);
    }
}

impl Decode for PartialSig {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(PartialSig {
            signer: dec.get_u64()?,
            attempt: dec.get_u32()?,
            r: BigUint::decode_from(dec)?,
            s: BigUint::decode_from(dec)?,
        })
    }
}

/// Per-signer anti-reuse state (see the module docs): each
/// `(attempt, message)` pair is signed under at most one commitment
/// transcript, ever. Long-lived signers must persist one
/// guard per share across restarts — [`crate::net::GovNode`] treats it
/// as on-disk state that survives crashes, exactly like completed
/// signatures.
#[derive(Clone, Debug, Default)]
pub struct NonceGuard {
    /// `(attempt, H(message)) → transcript digest` for every pair this
    /// signer has produced a partial for.
    signed: BTreeMap<(u32, [u8; 32]), [u8; 32]>,
}

impl NonceGuard {
    /// An empty guard (no pair signed yet).
    pub fn new() -> NonceGuard {
        NonceGuard::default()
    }

    /// Records `transcript` for the pair, or rejects it if a different
    /// transcript was already signed for the same pair.
    fn admit(
        &mut self,
        attempt: u32,
        message: &[u8],
        transcript: [u8; 32],
    ) -> Result<(), GovError> {
        let mut h = Sha256::new();
        h.update(message);
        let key = (attempt, *h.finalize().as_bytes());
        match self.signed.get(&key) {
            Some(prev) if *prev != transcript => Err(GovError::NonceReuse),
            _ => {
                self.signed.insert(key, transcript);
                Ok(())
            }
        }
    }
}

/// Deterministic base-nonce pair `(d_i, e_i)` for
/// `(share, message, attempt)`, each nonzero in `Z_q`.
fn nonce_scalars(share: &ValidatorShare, message: &[u8], attempt: u32) -> (BigUint, BigUint) {
    let group = Group::standard();
    let derive = |tag: u8| {
        let mut keyed = Vec::with_capacity(DOMAIN_NONCE.len() + 13 + message.len());
        keyed.extend_from_slice(DOMAIN_NONCE);
        // Reserved zero word, part of the preimage every pinned signature used.
        keyed.extend_from_slice(&0u64.to_le_bytes());
        keyed.extend_from_slice(&attempt.to_le_bytes());
        keyed.push(tag);
        keyed.extend_from_slice(message);
        let mac = hmac_sha256(&share.scalar.to_bytes_be(), &keyed);
        let mut k = BigUint::from_bytes_be(mac.as_bytes()).rem(&group.q);
        if k.is_zero() {
            k = BigUint::one();
        }
        k
    };
    (derive(b'd'), derive(b'e'))
}

/// Round-1 output: the commitment pair `(D_i, E_i)`.
pub fn nonce_commitment(share: &ValidatorShare, message: &[u8], attempt: u32) -> NonceCommitment {
    let group = Group::standard();
    let (d, e) = nonce_scalars(share, message, attempt);
    NonceCommitment {
        hiding: group.pow_g(&d),
        binding: group.pow_g(&e),
    }
}

/// Digest of the full round-1 transcript `[(j, D_j, E_j)]` — the value
/// every binding factor, and the [`NonceGuard`], are bound to.
fn transcript_digest(nonces: &[(u64, NonceCommitment)]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&(nonces.len() as u64).to_le_bytes());
    for (i, c) in nonces {
        h.update(&i.to_le_bytes());
        let d = c.hiding.to_bytes_be();
        h.update(&(d.len() as u64).to_le_bytes());
        h.update(&d);
        let e = c.binding.to_bytes_be();
        h.update(&(e.len() as u64).to_le_bytes());
        h.update(&e);
    }
    *h.finalize().as_bytes()
}

/// Binding factor `ρ_j = H(j ‖ transcript ‖ m) mod q`.
fn binding_factor(signer: u64, message: &[u8], transcript: &[u8; 32]) -> BigUint {
    Group::standard().hash_to_scalar(&[DOMAIN_BIND, &signer.to_le_bytes(), transcript, message])
}

/// The effective nonce points `R_j = D_j · E_j^{ρ_j}` for the whole set.
fn effective_nonces(message: &[u8], nonces: &[(u64, NonceCommitment)]) -> Vec<(u64, BigUint)> {
    let group = Group::standard();
    let transcript = transcript_digest(nonces);
    nonces
        .iter()
        .map(|(i, c)| {
            let rho = binding_factor(*i, message, &transcript);
            let r = c
                .binding
                .modpow(&rho, &group.p)
                .mul_mod(&c.hiding, &group.p);
            (*i, r)
        })
        .collect()
}

/// The aggregate nonce point and the Schnorr challenge for a fixed
/// effective-nonce set: `R = Π R_j` and `e = H(R ‖ Y ‖ m)` — the
/// single-key formula.
fn challenge(
    committee: &Committee,
    message: &[u8],
    effective: &[(u64, BigUint)],
) -> (BigUint, BigUint) {
    let group = Group::standard();
    let mut r_total = BigUint::one();
    for (_, r) in effective {
        r_total = r_total.mul_mod(r, &group.p);
    }
    let e = group.hash_to_scalar(&[
        &r_total.to_bytes_be(),
        &committee.group_public().element().to_bytes_be(),
        message,
    ]);
    (r_total, e)
}

/// Round 2, member side: computes this share's partial signature for a
/// fixed signer set.
///
/// Rejects a set that does not list this signer, lists it with a
/// commitment pair that differs from the locally derived one (an
/// aggregator feeding inconsistent views), contains duplicates, or —
/// via `guard` — re-visits an `(attempt, message)` pair this signer
/// already signed under a *different* transcript
/// ([`GovError::NonceReuse`]; re-signing the identical transcript is
/// fine and reproduces the identical partial). Bumps
/// `gov.partials_sent`.
pub fn partial_sign(
    share: &ValidatorShare,
    committee: &Committee,
    message: &[u8],
    attempt: u32,
    nonces: &[(u64, NonceCommitment)],
    guard: &mut NonceGuard,
) -> Result<PartialSig, GovError> {
    let group = Group::standard();
    let signers: Vec<u64> = nonces.iter().map(|(i, _)| *i).collect();
    let listed = nonces
        .iter()
        .find(|(i, _)| *i == share.index)
        .ok_or(GovError::UnknownSigner(share.index))?;
    let my_commit = nonce_commitment(share, message, attempt);
    if listed.1 != my_commit {
        return Err(GovError::NonceMismatch);
    }
    // Validates distinctness of the whole set as a side effect.
    let lambda = lagrange_at(&signers, share.index, &group.q)?;
    let transcript = transcript_digest(nonces);
    guard.admit(attempt, message, transcript)?;
    let (d, e_nonce) = nonce_scalars(share, message, attempt);
    let rho = binding_factor(share.index, message, &transcript);
    let k = d.add_mod(&rho.mul_mod(&e_nonce, &group.q), &group.q);
    let (_, e) = challenge(committee, message, &effective_nonces(message, nonces));
    let s = k.add_mod(
        &e.mul_mod(&lambda, &group.q)
            .mul_mod(&share.scalar, &group.q),
        &group.q,
    );
    pds2_obs::counter!("gov.partials_sent").inc();
    Ok(PartialSig {
        signer: share.index,
        attempt,
        r: group.pow_g(&k),
        s,
    })
}

/// Aggregator-side state for one signing attempt over a fixed signer
/// set: verifies each arriving partial against its signer's share
/// commitment and, once `t` have been accepted, interpolates them into
/// one group signature.
#[derive(Debug)]
pub struct SigningSession {
    attempt: u32,
    signers: Vec<u64>,
    /// Effective nonce points `R_j` derived from the fixed transcript.
    nonces: Vec<(u64, BigUint)>,
    /// Their product `R`, the nonce point the aggregate carries.
    r: BigUint,
    e: BigUint,
    accepted: BTreeMap<u64, BigUint>,
}

impl SigningSession {
    /// Fixes the signer set for this attempt. `nonces` carries exactly
    /// the quorum's `(index, (D_i, E_i))` pairs — `t` of them, distinct,
    /// each a known committee index.
    pub fn new(
        committee: &Committee,
        message: &[u8],
        attempt: u32,
        nonces: Vec<(u64, NonceCommitment)>,
    ) -> Result<SigningSession, GovError> {
        if nonces.len() != committee.params.t {
            return Err(GovError::NotEnoughShares);
        }
        let signers: Vec<u64> = nonces.iter().map(|(i, _)| *i).collect();
        for (pos, &i) in signers.iter().enumerate() {
            if committee.commitment(i).is_none() {
                return Err(GovError::UnknownSigner(i));
            }
            if signers[pos + 1..].contains(&i) {
                return Err(GovError::DuplicateSigner(i));
            }
        }
        let effective = effective_nonces(message, &nonces);
        let (r, e) = challenge(committee, message, &effective);
        Ok(SigningSession {
            attempt,
            signers,
            nonces: effective,
            r,
            e,
            accepted: BTreeMap::new(),
        })
    }

    /// The Schnorr challenge this attempt signs under.
    pub fn challenge(&self) -> &BigUint {
        &self.e
    }

    /// Offers one partial signature. Verifies it against the signer's
    /// public share commitment (`g^{s_i} · Y_i^{q − e·λ_i} = R_i`) and
    /// rejects byzantine or stale contributions; a rejection bumps
    /// `gov.partials_rejected`.
    pub fn offer(&mut self, committee: &Committee, partial: &PartialSig) -> Result<(), GovError> {
        let verdict = self.check(committee, partial);
        if verdict.is_err() {
            pds2_obs::counter!("gov.partials_rejected").inc();
        }
        verdict
    }

    fn check(&mut self, committee: &Committee, partial: &PartialSig) -> Result<(), GovError> {
        let group = Group::standard();
        if partial.attempt != self.attempt {
            return Err(GovError::StalePartial);
        }
        if !self.signers.contains(&partial.signer) {
            return Err(GovError::UnknownSigner(partial.signer));
        }
        let expected_r = &self
            .nonces
            .iter()
            .find(|(i, _)| *i == partial.signer)
            // `nonces` holds one entry per member of `signers`, checked above.
            .expect("signer set checked above")
            .1;
        if &partial.r != expected_r {
            return Err(GovError::NonceMismatch);
        }
        if partial.s.cmp_val(&group.q) != std::cmp::Ordering::Less {
            return Err(GovError::BadPartial(partial.signer));
        }
        // g^{s_i} · Y_i^{q − e·λ_i} must equal R_i.
        let lambda = lagrange_at(&self.signers, partial.signer, &group.q)?;
        let e_lambda = self.e.mul_mod(&lambda, &group.q);
        let y_i = committee
            .commitment(partial.signer)
            .ok_or(GovError::UnknownSigner(partial.signer))?;
        let lhs = group.dual_pow_g(&partial.s, y_i, &group.q.sub(&e_lambda));
        if &lhs != expected_r {
            return Err(GovError::BadPartial(partial.signer));
        }
        self.accepted.insert(partial.signer, partial.s.clone());
        Ok(())
    }

    /// Whether every member of the signer set has been accepted.
    pub fn ready(&self) -> bool {
        self.accepted.len() == self.signers.len()
    }

    /// Aggregates the accepted partials into one group signature `(R, s)`
    /// from the session's own `R` and `e`, and checks `g^s · Y^{q − e} = R`
    /// before returning it (one dual exponentiation and no hash: what a
    /// verifier would re-derive the session already holds — cheap
    /// insurance against an aggregator-side bug forging an unverifiable
    /// header). Bumps `gov.aggregations`.
    pub fn aggregate(&self, committee: &Committee) -> Result<Signature, GovError> {
        if !self.ready() {
            return Err(GovError::NotEnoughShares);
        }
        let group = Group::standard();
        let mut s = BigUint::zero();
        for part in self.accepted.values() {
            s = s.add_mod(part, &group.q);
        }
        let y = committee.group_public().element();
        if group.dual_pow_g(&s, y, &group.q.sub(&self.e)) != self.r {
            return Err(GovError::AggregateInvalid);
        }
        let sig = Signature::new(self.r.clone(), s).ok_or(GovError::AggregateInvalid)?;
        pds2_obs::counter!("gov.aggregations").inc();
        Ok(sig)
    }
}

/// One-call t-of-n signature over `message` using the given quorum of
/// shares — the reference the network protocol in [`crate::net`] is
/// differentially tested against. The quorum must hold at least `t` shares; exactly the first
/// `t` are used.
///
/// Fresh [`NonceGuard`]s per call are sound here because the caller is
/// simultaneously the aggregator and every shareholder — there is no
/// untrusted party to equivocate the transcript. A signer exposing
/// partials to a *remote* aggregator must persist one guard per share
/// (as [`crate::net::GovNode`] does).
pub fn sign_with_quorum(
    committee: &Committee,
    quorum: &[&ValidatorShare],
    message: &[u8],
) -> Result<Signature, GovError> {
    if quorum.len() < committee.params.t {
        return Err(GovError::NotEnoughShares);
    }
    let quorum = &quorum[..committee.params.t];
    let attempt = 0;
    let nonces: Vec<(u64, NonceCommitment)> = quorum
        .iter()
        .map(|s| (s.index, nonce_commitment(s, message, attempt)))
        .collect();
    let mut session = SigningSession::new(committee, message, attempt, nonces.clone())?;
    for share in quorum {
        let partial = partial_sign(
            share,
            committee,
            message,
            attempt,
            &nonces,
            &mut NonceGuard::new(),
        )?;
        session.offer(committee, &partial)?;
    }
    session.aggregate(committee)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dkg::{run_dkg, ThresholdParams};

    fn setup(t: usize, n: usize) -> (Committee, Vec<ValidatorShare>) {
        run_dkg(0x516E, ThresholdParams::new(t, n).unwrap()).unwrap()
    }

    fn refs<'a>(shares: &'a [ValidatorShare], idx: &[usize]) -> Vec<&'a ValidatorShare> {
        idx.iter().map(|&i| &shares[i]).collect()
    }

    fn commitments(
        quorum: &[&ValidatorShare],
        msg: &[u8],
        attempt: u32,
    ) -> Vec<(u64, NonceCommitment)> {
        quorum
            .iter()
            .map(|s| (s.index, nonce_commitment(s, msg, attempt)))
            .collect()
    }

    #[test]
    fn aggregate_verifies_under_group_key() {
        let (committee, shares) = setup(3, 5);
        let sig = sign_with_quorum(&committee, &refs(&shares, &[0, 1, 2]), b"block 7").unwrap();
        assert!(committee.group_public().verify(b"block 7", &sig));
        assert!(committee.group_public().verify_reference(b"block 7", &sig));
        assert!(!committee.group_public().verify(b"block 8", &sig));
    }

    #[test]
    fn any_quorum_produces_some_valid_signature() {
        let (committee, shares) = setup(3, 5);
        for subset in [[0usize, 1, 2], [2, 3, 4], [0, 2, 4], [1, 2, 3]] {
            let sig = sign_with_quorum(&committee, &refs(&shares, &subset), b"msg").unwrap();
            assert!(committee.group_public().verify(b"msg", &sig), "{subset:?}");
        }
    }

    #[test]
    fn byzantine_partial_is_rejected_and_honest_quorum_still_signs() {
        let (committee, shares) = setup(3, 4);
        let msg = b"seal me";
        let quorum = refs(&shares, &[0, 1, 2]);
        let nonces = commitments(&quorum, msg, 0);
        let mut session = SigningSession::new(&committee, msg, 0, nonces.clone()).unwrap();
        // Signer 2 lies: garbage response scalar.
        let mut bad = partial_sign(
            quorum[1],
            &committee,
            msg,
            0,
            &nonces,
            &mut NonceGuard::new(),
        )
        .unwrap();
        bad.s = bad.s.add_mod(&BigUint::one(), &Group::standard().q);
        assert_eq!(
            session.offer(&committee, &bad).unwrap_err(),
            GovError::BadPartial(2)
        );
        assert!(!session.ready());
        // Honest partials from the same set still complete the session.
        for share in &quorum {
            let p =
                partial_sign(share, &committee, msg, 0, &nonces, &mut NonceGuard::new()).unwrap();
            session.offer(&committee, &p).unwrap();
        }
        let sig = session.aggregate(&committee).unwrap();
        assert!(committee.group_public().verify(msg, &sig));
    }

    #[test]
    fn stale_attempt_partials_are_rejected() {
        let (committee, shares) = setup(2, 3);
        let msg = b"m";
        let quorum = refs(&shares, &[0, 1]);
        let nonces = commitments(&quorum, msg, 1);
        let mut session = SigningSession::new(&committee, msg, 1, nonces.clone()).unwrap();
        let good = partial_sign(
            quorum[0],
            &committee,
            msg,
            1,
            &nonces,
            &mut NonceGuard::new(),
        )
        .unwrap();
        let mut wrong_attempt = good.clone();
        wrong_attempt.attempt = 0;
        assert_eq!(
            session.offer(&committee, &wrong_attempt).unwrap_err(),
            GovError::StalePartial
        );
        session.offer(&committee, &good).unwrap();
    }

    #[test]
    fn undersized_quorum_cannot_sign() {
        let (committee, shares) = setup(3, 5);
        assert_eq!(
            sign_with_quorum(&committee, &refs(&shares, &[0, 1]), b"m").unwrap_err(),
            GovError::NotEnoughShares
        );
    }

    #[test]
    fn session_rejects_malformed_signer_sets() {
        let (committee, shares) = setup(2, 3);
        let n1 = nonce_commitment(&shares[0], b"m", 0);
        // Wrong size.
        assert!(SigningSession::new(&committee, b"m", 0, vec![(1, n1.clone())]).is_err());
        // Duplicate signer.
        assert_eq!(
            SigningSession::new(&committee, b"m", 0, vec![(1, n1.clone()), (1, n1.clone())])
                .unwrap_err(),
            GovError::DuplicateSigner(1)
        );
        // Unknown index.
        assert_eq!(
            SigningSession::new(&committee, b"m", 0, vec![(1, n1.clone()), (9, n1)]).unwrap_err(),
            GovError::UnknownSigner(9)
        );
    }

    #[test]
    fn partial_sig_codec_roundtrip() {
        let (committee, shares) = setup(2, 3);
        let quorum = refs(&shares, &[0, 1]);
        let nonces = commitments(&quorum, b"wire", 3);
        let p = partial_sign(
            &shares[0],
            &committee,
            b"wire",
            3,
            &nonces,
            &mut NonceGuard::new(),
        )
        .unwrap();
        let back = PartialSig::from_bytes(&Encode::to_bytes(&p)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn signing_is_deterministic_per_quorum() {
        let (committee, shares) = setup(3, 5);
        let a = sign_with_quorum(&committee, &refs(&shares, &[0, 1, 2]), b"det").unwrap();
        let b = sign_with_quorum(&committee, &refs(&shares, &[0, 1, 2]), b"det").unwrap();
        assert_eq!(a, b);
        // Pinned: the aggregate for this quorum and message never moves.
        let wire: String = a.to_wire().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            wire,
            "095811350e673a4ec68dcdffacd2f6f13345e27726414d98cdc0c372d750ece1\
             fd40244ae4af0d0c023b75af031ee2314a31d56f6cf8565d7beadd41dd6360c149"
        );
        // A different quorum binds a different transcript into every
        // effective nonce — distinct but equally valid signature.
        let c = sign_with_quorum(&committee, &refs(&shares, &[1, 2, 3]), b"det").unwrap();
        assert_ne!(a, c);
        assert!(committee.group_public().verify(b"det", &c));
    }

    /// The binding factor must fold the whole transcript into every
    /// effective nonce: a shared signer contributes a *different*
    /// effective nonce to two different quorums, and to a commitment
    /// list an aggregator tampered with — so its base nonce pair never
    /// signs two different challenges.
    #[test]
    fn transcript_changes_rebind_every_effective_nonce() {
        let (committee, shares) = setup(3, 5);
        let msg = b"bind";
        // Same signer (index 2), two quorums.
        let qa = refs(&shares, &[0, 1, 2]);
        let qb = refs(&shares, &[1, 2, 3]);
        let pa = partial_sign(
            &shares[1],
            &committee,
            msg,
            0,
            &commitments(&qa, msg, 0),
            &mut NonceGuard::new(),
        )
        .unwrap();
        let pb = partial_sign(
            &shares[1],
            &committee,
            msg,
            0,
            &commitments(&qb, msg, 0),
            &mut NonceGuard::new(),
        )
        .unwrap();
        assert_ne!(pa.r, pb.r, "effective nonce must differ across quorums");
        // Same quorum, but the aggregator tampers with another signer's
        // binding commitment: signer 1's effective nonce changes too,
        // and the honest session rejects the resulting partial.
        let honest = commitments(&qa, msg, 0);
        let mut tampered = honest.clone();
        tampered[2].1.binding = Group::standard().pow_g(&BigUint::from_u64(41));
        let pt = partial_sign(
            &shares[0],
            &committee,
            msg,
            0,
            &tampered,
            &mut NonceGuard::new(),
        )
        .unwrap();
        let ph = partial_sign(
            &shares[0],
            &committee,
            msg,
            0,
            &honest,
            &mut NonceGuard::new(),
        )
        .unwrap();
        assert_ne!(pt.r, ph.r, "tampered transcript must rebind the nonce");
        let mut session = SigningSession::new(&committee, msg, 0, honest).unwrap();
        assert_eq!(
            session.offer(&committee, &pt).unwrap_err(),
            GovError::NonceMismatch
        );
    }

    /// The stateful guard pins each `(attempt, message)` pair to one
    /// transcript: re-signing the identical transcript reproduces
    /// the identical partial, any other transcript is refused.
    #[test]
    fn nonce_guard_refuses_second_transcript_for_same_tuple() {
        let (committee, shares) = setup(3, 5);
        let msg = b"guarded";
        let qa = refs(&shares, &[0, 1, 2]);
        let qb = refs(&shares, &[1, 2, 3]);
        let na = commitments(&qa, msg, 0);
        let nb = commitments(&qb, msg, 0);
        let mut guard = NonceGuard::new();
        let first = partial_sign(&shares[1], &committee, msg, 0, &na, &mut guard).unwrap();
        let again = partial_sign(&shares[1], &committee, msg, 0, &na, &mut guard).unwrap();
        assert_eq!(first, again, "identical transcript must be idempotent");
        assert_eq!(
            partial_sign(&shares[1], &committee, msg, 0, &nb, &mut guard).unwrap_err(),
            GovError::NonceReuse
        );
        // A different attempt (or message) is a fresh pair.
        let nb1 = commitments(&qb, msg, 1);
        partial_sign(&shares[1], &committee, msg, 1, &nb1, &mut guard).unwrap();
    }
}
