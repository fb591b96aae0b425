//! The threshold-signing committee as a [`pds2_net`] protocol, for the
//! chaos harness.
//!
//! Node `i` plays validator index `i + 1`; node 0 doubles as the
//! aggregator driving one digest at a time through the two signing
//! rounds:
//!
//! ```text
//!   aggregator                         members (t-of-n quorum)
//!       │  NonceReq{seq,attempt,digest}
//!       ├──────────────────────────────────▶│  derive (d_i, e_i),
//!       │                                   │  (D_i, E_i) = (g^d_i, g^e_i)
//!       │◀──────────────────────────────────┤  Nonce{…, signer, (D_i,E_i)}
//!       │  (t commitment pairs gathered → signer set fixed)
//!       │  SignReq{seq,attempt,digest,nonces}
//!       ├──────────────────────────────────▶│  partial_sign(...) — binds
//!       │                                   │  the full transcript, guarded
//!       │                                   │  against transcript swaps
//!       │◀──────────────────────────────────┤  Partial{seq, PartialSig}
//!       │  (t partials verified → aggregate → plain Schnorr sig)
//! ```
//!
//! Failure handling is retry-shaped and self-healing:
//!
//! - **Byzantine partial** — [`SigningSession::offer`] rejects it; the
//!   signer is blacklisted for that sequence number and the attempt
//!   counter bumps, which re-derives every nonce (no nonce ever signs
//!   two different challenges) and picks a quorum without the liar.
//! - **Partitioned sub-quorum** — with fewer than `t` members reachable
//!   the attempt simply never completes; a retry timer re-issues the
//!   request until the partition heals.
//! - **Crash** — a restart loses only the in-flight signing state. The
//!   share (held in an HSM in a real deployment), the [`NonceGuard`]
//!   and the completed signatures are durable and survive it. A
//!   recovered aggregator resumes at its next unsigned sequence number;
//!   a member whose guard refuses a replayed attempt stays silent until
//!   the retry bumps it.
//!
//! Everything — quorum choice, nonces, retries — is deterministic given
//! the simulator seed and fault plan, so chaos runs pin exact trace
//! hashes in golden files.

use crate::dkg::{run_dkg, Committee, ThresholdParams, ValidatorShare};
use crate::sign::{
    nonce_commitment, partial_sign, NonceCommitment, NonceGuard, PartialSig, SigningSession,
};
use crate::GovError;
use pds2_crypto::schnorr::Signature;
use pds2_crypto::sha256::Sha256;
use pds2_crypto::BigUint;
use pds2_net::sim::{Ctx, Node, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// Per-seq retry cadence (µs of simulated time).
const RETRY_US: u64 = 50_000;
/// Tag of the retry timer, the protocol's only timer.
const TAG_RETRY: u64 = 1;

/// Static configuration every node holds — the "config file on disk"
/// that survives crashes.
#[derive(Clone, Debug)]
pub struct GovConfig {
    /// DKG seed (public; see [`crate::dkg`] module docs).
    pub seed: u64,
    /// Committee shape.
    pub params: ThresholdParams,
    /// Digests the aggregator (node 0) drives through signing, in order.
    pub digests: Vec<[u8; 32]>,
    /// Node indices (0-based) that corrupt their partial signatures.
    pub byzantine: BTreeSet<usize>,
}

/// Protocol messages. Sizes are dominated by 32-byte group elements.
#[derive(Clone, Debug)]
pub enum GovMsg {
    /// Aggregator → all: request round-1 nonce commitments.
    NonceReq {
        seq: u64,
        attempt: u32,
        digest: [u8; 32],
    },
    /// Member → aggregator: nonce commitment pair `(D_i, E_i)`.
    Nonce {
        seq: u64,
        attempt: u32,
        signer: u64,
        commit: NonceCommitment,
    },
    /// Aggregator → quorum: signer set fixed, produce partials.
    SignReq {
        seq: u64,
        attempt: u32,
        digest: [u8; 32],
        nonces: Vec<(u64, NonceCommitment)>,
    },
    /// Member → aggregator: partial signature.
    Partial { seq: u64, partial: PartialSig },
}

/// Aggregator-side state for the in-flight sequence number.
struct PendingSeq {
    seq: u64,
    attempt: u32,
    digest: [u8; 32],
    nonces: BTreeMap<u64, NonceCommitment>,
    session: Option<SigningSession>,
    /// Signers caught sending byzantine partials for this seq.
    blacklist: BTreeSet<u64>,
}

/// One committee node (see module docs). Node 0 is also the aggregator.
pub struct GovNode {
    cfg: GovConfig,
    /// Public committee state, fixed for the life of the DKG.
    committee: Committee,
    /// This validator's share, durable across crashes.
    share: ValidatorShare,
    /// Anti-reuse state for [`partial_sign`]: each `(attempt, digest)`
    /// pair is signed under at most one transcript. Persisted like
    /// `completed` ("on disk") — it must survive crashes, or a
    /// restarted signer could be replayed into nonce reuse.
    guard: NonceGuard,
    // Aggregator state (node 0 only).
    pending: Option<PendingSeq>,
    next_seq: u64,
    /// Completed signatures, by sequence number ("blocks on disk" —
    /// they survive crashes).
    pub completed: BTreeMap<u64, Signature>,
}

impl GovNode {
    /// Builds the full committee. Shares come from the (in-process,
    /// trusted-setup) DKG; node `i` keeps share `i + 1`. Fails with
    /// [`GovError::BadThreshold`] on a `cfg.params` outside `1 <= t <= n`.
    pub fn build(cfg: &GovConfig) -> Result<Vec<GovNode>, GovError> {
        let (committee, shares) = run_dkg(cfg.seed, cfg.params)?;
        Ok(shares
            .into_iter()
            .map(|share| GovNode {
                cfg: cfg.clone(),
                committee: committee.clone(),
                share,
                guard: NonceGuard::new(),
                pending: None,
                next_seq: 0,
                completed: BTreeMap::new(),
            })
            .collect())
    }

    fn is_aggregator(&self, ctx: &Ctx<'_, GovMsg>) -> bool {
        ctx.id == 0
    }

    /// Starts (or restarts, after `attempt` bump) the current sequence.
    fn kick_seq(&mut self, ctx: &mut Ctx<'_, GovMsg>) {
        let seq = self.next_seq;
        let Some(&digest) = self.cfg.digests.get(seq as usize) else {
            self.pending = None;
            return;
        };
        let (attempt, blacklist) = match self.pending.take() {
            Some(p) if p.seq == seq => (p.attempt + 1, p.blacklist),
            _ => (0, BTreeSet::new()),
        };
        self.pending = Some(PendingSeq {
            seq,
            attempt,
            digest,
            nonces: BTreeMap::new(),
            session: None,
            blacklist,
        });
        let req = GovMsg::NonceReq {
            seq,
            attempt,
            digest,
        };
        for to in 1..ctx.n_nodes {
            ctx.send(to, req.clone());
        }
        // The aggregator is a committee member too: answer locally.
        let nonce = self.member_nonce(seq, attempt, &digest);
        self.on_nonce(ctx, nonce);
    }

    /// Member half of `NonceReq`: derive the commitment.
    fn member_nonce(&self, seq: u64, attempt: u32, digest: &[u8; 32]) -> GovMsg {
        GovMsg::Nonce {
            seq,
            attempt,
            signer: self.share.index,
            commit: nonce_commitment(&self.share, digest, attempt),
        }
    }

    /// Member half of `SignReq`: compute the partial (corrupting it when
    /// configured byzantine), or stay silent when [`partial_sign`]
    /// refuses the request.
    fn member_partial(
        &mut self,
        ctx: &mut Ctx<'_, GovMsg>,
        seq: u64,
        attempt: u32,
        digest: &[u8; 32],
        nonces: &[(u64, NonceCommitment)],
    ) -> Option<GovMsg> {
        let mut partial = partial_sign(
            &self.share,
            &self.committee,
            digest,
            attempt,
            nonces,
            &mut self.guard,
        )
        .ok()?;
        if self.cfg.byzantine.contains(&ctx.id) {
            let q = &pds2_crypto::schnorr::Group::standard().q;
            partial.s = partial.s.add_mod(&BigUint::one(), q);
        }
        Some(GovMsg::Partial { seq, partial })
    }

    /// Aggregator ingest of one nonce commitment.
    fn on_nonce(&mut self, ctx: &mut Ctx<'_, GovMsg>, msg: GovMsg) {
        let GovMsg::Nonce {
            seq,
            attempt,
            signer,
            commit,
        } = msg
        else {
            return;
        };
        let t = self.cfg.params.t;
        let Some(p) = self.pending.as_mut() else {
            return;
        };
        if (seq, attempt) != (p.seq, p.attempt)
            || p.session.is_some()
            || p.blacklist.contains(&signer)
        {
            return;
        }
        p.nonces.insert(signer, commit);
        if p.nonces.len() < t {
            return;
        }
        // Quorum reached: fix the signer set as the t smallest indices
        // seen (deterministic regardless of arrival order beyond "who
        // answered before the t-th distinct signer").
        let set: Vec<(u64, NonceCommitment)> = p
            .nonces
            .iter()
            .take(t)
            .map(|(i, r)| (*i, r.clone()))
            .collect();
        let session = match SigningSession::new(&self.committee, &p.digest, p.attempt, set.clone())
        {
            Ok(s) => s,
            Err(_) => return,
        };
        p.session = Some(session);
        let req = GovMsg::SignReq {
            seq: p.seq,
            attempt: p.attempt,
            digest: p.digest,
            nonces: set.clone(),
        };
        let (seq, attempt, digest) = (p.seq, p.attempt, p.digest);
        for (i, _) in &set {
            let node = (*i - 1) as usize;
            if node != ctx.id {
                ctx.send(node, req.clone());
            }
        }
        if set.iter().any(|(i, _)| (*i - 1) as usize == ctx.id) {
            if let Some(part) = self.member_partial(ctx, seq, attempt, &digest, &set) {
                self.on_partial(ctx, part);
            }
        }
    }

    /// Aggregator ingest of one partial signature.
    fn on_partial(&mut self, ctx: &mut Ctx<'_, GovMsg>, msg: GovMsg) {
        let GovMsg::Partial { seq, partial } = msg else {
            return;
        };
        let Some(p) = self.pending.as_mut() else {
            return;
        };
        if seq != p.seq || partial.attempt != p.attempt {
            return;
        }
        let Some(session) = p.session.as_mut() else {
            return;
        };
        match session.offer(&self.committee, &partial) {
            Ok(()) => {}
            Err(GovError::BadPartial(i)) => {
                // Byzantine: exclude the liar and restart the attempt
                // with fresh nonces.
                p.blacklist.insert(i);
                self.kick_seq(ctx);
                return;
            }
            Err(_) => return,
        }
        if session.ready() {
            if let Ok(sig) = session.aggregate(&self.committee) {
                self.completed.insert(p.seq, sig);
                self.pending = None;
                self.next_seq += 1;
                self.kick_seq(ctx);
            }
        }
    }
}

/// Bytes that hold any group element or scalar of the 260-bit group: a
/// node reduces every one it puts in a message mod `p` or mod `q`.
const WIDE: usize = 33;

fn ints(h: &mut Sha256, values: &[u64]) {
    for v in values {
        h.update(&v.to_le_bytes());
    }
}

fn wide(h: &mut Sha256, values: &[&BigUint]) {
    for v in values {
        let mut bytes = [0u8; WIDE];
        v.write_bytes_be(&mut bytes);
        h.update(&bytes);
    }
}

impl Node for GovNode {
    type Msg = GovMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, GovMsg>) {
        if self.is_aggregator(ctx) {
            self.kick_seq(ctx);
            ctx.set_timer(RETRY_US, TAG_RETRY);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, GovMsg>, from: NodeId, msg: GovMsg) {
        match msg {
            GovMsg::NonceReq {
                seq,
                attempt,
                digest,
            } => {
                let reply = self.member_nonce(seq, attempt, &digest);
                ctx.send(from, reply);
            }
            GovMsg::Nonce { .. } => {
                if self.is_aggregator(ctx) {
                    self.on_nonce(ctx, msg);
                }
            }
            GovMsg::SignReq {
                seq,
                attempt,
                digest,
                nonces,
            } => {
                if let Some(reply) = self.member_partial(ctx, seq, attempt, &digest, &nonces) {
                    ctx.send(from, reply);
                }
            }
            GovMsg::Partial { .. } => {
                if self.is_aggregator(ctx) {
                    self.on_partial(ctx, msg);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GovMsg>, tag: u64) {
        if tag != TAG_RETRY {
            return;
        }
        // Re-issue the in-flight sequence with a fresh attempt if it has
        // not completed (partition stall, lost messages — all heal here).
        if self.pending.is_some() {
            self.kick_seq(ctx);
        }
        if self.next_seq < self.cfg.digests.len() as u64 {
            ctx.set_timer(RETRY_US, TAG_RETRY);
        }
    }

    fn msg_size(msg: &GovMsg) -> u64 {
        match msg {
            GovMsg::NonceReq { .. } => 44,
            GovMsg::Nonce { .. } => 84,
            GovMsg::SignReq { nonces, .. } => 44 + 72 * nonces.len() as u64,
            GovMsg::Partial { .. } => 84,
        }
    }

    fn msg_kind(msg: &GovMsg) -> u8 {
        match msg {
            GovMsg::NonceReq { .. } => 0,
            GovMsg::Nonce { .. } => 1,
            GovMsg::SignReq { .. } => 2,
            GovMsg::Partial { .. } => 3,
        }
    }

    /// Tag, then every field at fixed width (integers little-endian,
    /// group elements and scalars in `WIDE` big-endian bytes), so the
    /// trace digest commits to what a message says, not to its size: a
    /// byzantine `s + 1` is as long as the honest `s`.
    fn msg_digest(msg: &GovMsg) -> u64 {
        let mut h = Sha256::new();
        h.update(&[Self::msg_kind(msg)]);
        match msg {
            GovMsg::NonceReq {
                seq,
                attempt,
                digest,
            } => {
                ints(&mut h, &[*seq, *attempt as u64]);
                h.update(digest);
            }
            GovMsg::Nonce {
                seq,
                attempt,
                signer,
                commit,
            } => {
                ints(&mut h, &[*seq, *attempt as u64, *signer]);
                wide(&mut h, &[&commit.hiding, &commit.binding]);
            }
            GovMsg::SignReq {
                seq,
                attempt,
                digest,
                nonces,
            } => {
                ints(&mut h, &[*seq, *attempt as u64, nonces.len() as u64]);
                h.update(digest);
                for (signer, commit) in nonces {
                    h.update(&signer.to_le_bytes());
                    wide(&mut h, &[&commit.hiding, &commit.binding]);
                }
            }
            GovMsg::Partial { seq, partial: p } => {
                ints(&mut h, &[*seq, p.signer, p.attempt as u64]);
                wide(&mut h, &[&p.r, &p.s]);
            }
        }
        h.finalize().fold_u64()
    }

    fn on_crash(&mut self) {
        // Process restart: the in-flight signing state is gone. Config,
        // the share, completed signatures and the nonce-reuse guard
        // ("disk" or an HSM) survive — wiping the guard would let a
        // replayed SignReq walk a restarted signer into nonce reuse.
        self.pending = None;
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, GovMsg>) {
        // Only the aggregator has work to resume: the next unsigned seq.
        if self.is_aggregator(ctx) {
            self.kick_seq(ctx);
            ctx.set_timer(RETRY_US, TAG_RETRY);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds2_net::fault::FaultPlan;
    use pds2_net::link::LinkModel;
    use pds2_net::sim::Simulator;

    fn digests(n: usize) -> Vec<[u8; 32]> {
        (0..n as u8)
            .map(|i| {
                let mut d = [0u8; 32];
                d[0] = i + 1;
                d
            })
            .collect()
    }

    fn cfg(t: usize, n: usize, n_digests: usize) -> GovConfig {
        GovConfig {
            seed: 0x90F,
            params: ThresholdParams::new(t, n).unwrap(),
            digests: digests(n_digests),
            byzantine: BTreeSet::new(),
        }
    }

    fn link() -> LinkModel {
        LinkModel {
            base_latency_us: 1_000,
            jitter_us: 300,
            bandwidth_bytes_per_sec: 1_250_000,
            ..LinkModel::instant()
        }
    }

    fn run(cfg: &GovConfig, sim_seed: u64, until: u64) -> Simulator<GovNode> {
        let mut sim = Simulator::new(GovNode::build(cfg).unwrap(), link(), sim_seed);
        sim.run_until(until);
        sim
    }

    fn assert_all_signed(sim: &Simulator<GovNode>, cfg: &GovConfig) {
        let agg = sim.node(0);
        assert_eq!(agg.completed.len(), cfg.digests.len());
        let (committee, _) = run_dkg(cfg.seed, cfg.params).unwrap();
        for (seq, sig) in &agg.completed {
            assert!(
                committee
                    .group_public()
                    .verify(&cfg.digests[*seq as usize], sig),
                "seq {seq}"
            );
        }
    }

    #[test]
    fn happy_path_signs_every_digest() {
        let cfg = cfg(3, 4, 3);
        let sim = run(&cfg, 7, 2_000_000);
        assert_all_signed(&sim, &cfg);
    }

    #[test]
    fn msg_digest_tells_two_partials_apart_by_s_alone() {
        let partial = PartialSig {
            signer: 2,
            attempt: 1,
            r: BigUint::from_u64(0xAB),
            s: BigUint::from_u64(0xCD),
        };
        let mut forged = partial.clone();
        forged.s = forged
            .s
            .add_mod(&BigUint::one(), &BigUint::from_u64(u64::MAX));
        let (honest, lie) = (
            GovMsg::Partial { seq: 0, partial },
            GovMsg::Partial {
                seq: 0,
                partial: forged,
            },
        );
        assert_eq!(GovNode::msg_size(&honest), GovNode::msg_size(&lie));
        assert_ne!(GovNode::msg_digest(&honest), GovNode::msg_digest(&lie));
        assert_eq!(GovNode::msg_digest(&honest), GovNode::msg_digest(&honest));
    }

    #[test]
    fn msg_digest_tells_two_sign_reqs_apart_by_one_nonce_commitment() {
        let commit = |d: u64, e: u64| NonceCommitment {
            hiding: BigUint::from_u64(d),
            binding: BigUint::from_u64(e),
        };
        let req = |last: NonceCommitment| GovMsg::SignReq {
            seq: 3,
            attempt: 0,
            digest: [7; 32],
            nonces: vec![(1, commit(10, 11)), (2, commit(20, 21)), (4, last)],
        };
        let (a, b) = (req(commit(40, 41)), req(commit(40, 42)));
        assert_eq!(GovNode::msg_size(&a), GovNode::msg_size(&b));
        assert_ne!(GovNode::msg_digest(&a), GovNode::msg_digest(&b));
    }

    #[test]
    fn byzantine_member_is_excluded_and_signing_completes() {
        let mut cfg = cfg(3, 5, 3);
        cfg.byzantine.insert(2); // validator index 3 lies in round 2
        let sim = run(&cfg, 7, 4_000_000);
        assert_all_signed(&sim, &cfg);
        // The liar ended up blacklisted out of at least one quorum.
        assert!(sim.node(0).completed.len() == 3);
    }

    #[test]
    fn below_threshold_committee_never_signs() {
        // n = 4, t = 3, but two members crash at t=0 and never recover:
        // only t − 1 = 2 shares remain reachable.
        let cfg = cfg(3, 4, 2);
        let plan = FaultPlan::new(1).crash(2, 0, None).crash(3, 0, None);
        let mut sim = Simulator::new(GovNode::build(&cfg).unwrap(), link(), 7);
        sim.install_fault_plan(plan);
        sim.run_until(3_000_000);
        assert!(sim.node(0).completed.is_empty(), "t-1 must not sign");
    }
}
