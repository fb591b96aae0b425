//! The threshold-signing committee as a [`pds2_net`] protocol, for the
//! chaos harness.
//!
//! Node `i` plays validator index `i + 1`; node 0 doubles as the
//! aggregator driving one digest at a time through the two signing
//! rounds:
//!
//! ```text
//!   aggregator                         members (t-of-n quorum)
//!       │  NonceReq{seq,attempt,epoch,digest}
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
//! - **Crash/refresh races** — shares are epoch-tagged. A member whose
//!   share epoch does not match a request stays silent, stale partials
//!   are rejected, and the retry picks things up once epochs agree.
//!   A crashed member loses its share (break-glass drill: in this
//!   deterministic reproduction it *could* re-derive everything from
//!   the public seed, but the point is the protocol) and interpolates
//!   it back from any `t` helpers before signing again.
//!
//! Everything — quorum choice, nonces, retries — is deterministic given
//! the simulator seed and fault plan, so chaos runs pin exact trace
//! hashes in golden files.

use crate::dkg::{
    recover_share, recovery_contribution, refresh_committee, refresh_share, run_dkg_quiet,
    Committee, ThresholdParams, ValidatorShare,
};
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
/// Recovery retry cadence.
const RECOVER_RETRY_US: u64 = 30_000;

const TAG_RETRY: u64 = 1;
const TAG_REFRESH: u64 = 2;
const TAG_RECOVER: u64 = 3;

/// Static configuration every node holds — the "config file on disk"
/// that survives crashes (unlike the share, which is wiped).
#[derive(Clone, Debug)]
pub struct GovConfig {
    /// DKG seed (public; see [`crate::dkg`] module docs).
    pub seed: u64,
    /// Committee shape.
    pub params: ThresholdParams,
    /// Simulated time at which every node proactively refreshes its
    /// share (one epoch bump), or `None` to never refresh.
    pub refresh_at: Option<u64>,
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
        epoch: u64,
        digest: [u8; 32],
    },
    /// Member → aggregator: nonce commitment pair `(D_i, E_i)`.
    Nonce {
        seq: u64,
        attempt: u32,
        epoch: u64,
        signer: u64,
        commit: NonceCommitment,
    },
    /// Aggregator → quorum: signer set fixed, produce partials.
    SignReq {
        seq: u64,
        attempt: u32,
        epoch: u64,
        digest: [u8; 32],
        nonces: Vec<(u64, NonceCommitment)>,
    },
    /// Member → aggregator: partial signature.
    Partial { seq: u64, partial: PartialSig },
    /// Recovering member → all: who can help rebuild my share?
    RecoverReq { epoch: u64 },
    /// Helper → recovering member: I hold a share at that epoch.
    RecoverOffer { epoch: u64, signer: u64 },
    /// Recovering member → chosen helpers: the full helper set (needed
    /// for the Lagrange weights).
    RecoverSet { epoch: u64, helpers: Vec<u64> },
    /// Helper → recovering member: `λ_i^S(lost)·s_i`.
    RecoverHelp {
        epoch: u64,
        helpers: Vec<u64>,
        contribution: BigUint,
    },
}

/// Aggregator-side state for the in-flight sequence number.
struct PendingSeq {
    seq: u64,
    attempt: u32,
    epoch: u64,
    digest: [u8; 32],
    nonces: BTreeMap<u64, NonceCommitment>,
    session: Option<SigningSession>,
    /// Signers caught sending byzantine partials for this seq.
    blacklist: BTreeSet<u64>,
}

/// Recovering-member state.
struct PendingRecovery {
    epoch: u64,
    offers: BTreeSet<u64>,
    helpers: Vec<u64>,
    contributions: BTreeMap<u64, BigUint>,
}

/// One committee node (see module docs). Node 0 is also the aggregator.
pub struct GovNode {
    cfg: GovConfig,
    /// Public committee state at the current epoch.
    committee: Committee,
    /// This validator's share; `None` after a crash until recovery.
    share: Option<ValidatorShare>,
    /// Anti-reuse state for [`partial_sign`]: each `(epoch, attempt,
    /// digest)` tuple is signed under at most one transcript. Persisted
    /// like `completed` ("on disk") — it must survive crashes, or a
    /// restarted signer could be replayed into nonce reuse.
    guard: NonceGuard,
    recovery: Option<PendingRecovery>,
    // Aggregator state (node 0 only).
    pending: Option<PendingSeq>,
    next_seq: u64,
    /// Completed signatures, by sequence number ("blocks on disk" —
    /// they survive crashes).
    pub completed: BTreeMap<u64, Signature>,
}

/// The committee's public state at `epoch`, recomputed from scratch —
/// commitments are public information any party can rebuild (or, in a
/// real deployment, refetch).
fn committee_at(seed: u64, params: ThresholdParams, epoch: u64) -> Committee {
    let (mut committee, _) = run_dkg_quiet(seed, params).expect("params validated at build");
    for _ in 0..epoch {
        refresh_committee(&mut committee);
    }
    committee
}

impl GovNode {
    /// Builds the full committee. Shares come from the (in-process,
    /// trusted-setup) DKG; node `i` keeps share `i + 1`.
    pub fn build(cfg: &GovConfig) -> Vec<GovNode> {
        let (committee, shares) =
            run_dkg_quiet(cfg.seed, cfg.params).expect("valid threshold params");
        shares
            .into_iter()
            .map(|share| GovNode {
                cfg: cfg.clone(),
                committee: committee.clone(),
                share: Some(share),
                guard: NonceGuard::new(),
                recovery: None,
                pending: None,
                next_seq: 0,
                completed: BTreeMap::new(),
            })
            .collect()
    }

    /// The epoch of this node's live share, or `None` if the share was
    /// lost to a crash and not yet recovered.
    pub fn share_epoch(&self) -> Option<u64> {
        self.share.as_ref().map(|s| s.epoch)
    }

    /// The epoch a node believes current at simulated time `now`.
    fn epoch_at(&self, now: u64) -> u64 {
        match self.cfg.refresh_at {
            Some(t) if now >= t => 1,
            _ => 0,
        }
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
        let epoch = self.epoch_at(ctx.now);
        self.pending = Some(PendingSeq {
            seq,
            attempt,
            epoch,
            digest,
            nonces: BTreeMap::new(),
            session: None,
            blacklist,
        });
        let req = GovMsg::NonceReq {
            seq,
            attempt,
            epoch,
            digest,
        };
        for to in 1..ctx.n_nodes {
            ctx.send(to, req.clone());
        }
        // The aggregator is a committee member too: answer locally.
        if let Some(nonce) = self.member_nonce(seq, attempt, epoch, &digest) {
            self.on_nonce(ctx, nonce);
        }
    }

    /// Member half of `NonceReq`: derive and return the commitment, or
    /// stay silent when the share is missing or from another epoch.
    fn member_nonce(
        &mut self,
        seq: u64,
        attempt: u32,
        epoch: u64,
        digest: &[u8; 32],
    ) -> Option<GovMsg> {
        let share = self.share.as_ref()?;
        if share.epoch != epoch {
            return None;
        }
        Some(GovMsg::Nonce {
            seq,
            attempt,
            epoch,
            signer: share.index,
            commit: nonce_commitment(share, digest, attempt),
        })
    }

    /// Member half of `SignReq`: compute the partial (corrupting it when
    /// configured byzantine).
    fn member_partial(
        &mut self,
        ctx: &mut Ctx<'_, GovMsg>,
        seq: u64,
        attempt: u32,
        epoch: u64,
        digest: &[u8; 32],
        nonces: &[(u64, NonceCommitment)],
    ) -> Option<GovMsg> {
        let share = self.share.as_ref()?;
        if share.epoch != epoch {
            return None;
        }
        let mut partial = partial_sign(
            share,
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
            epoch,
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
        if (seq, attempt, epoch) != (p.seq, p.attempt, p.epoch)
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
            epoch: p.epoch,
            digest: p.digest,
            nonces: set.clone(),
        };
        let (seq, attempt, epoch, digest) = (p.seq, p.attempt, p.epoch, p.digest);
        for (i, _) in &set {
            let node = (*i - 1) as usize;
            if node != ctx.id {
                ctx.send(node, req.clone());
            }
        }
        if set.iter().any(|(i, _)| (*i - 1) as usize == ctx.id) {
            if let Some(part) = self.member_partial(ctx, seq, attempt, epoch, &digest, &set) {
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

    /// Starts (or retries) share recovery after a crash.
    fn kick_recovery(&mut self, ctx: &mut Ctx<'_, GovMsg>) {
        if self.share.is_some() {
            self.recovery = None;
            return;
        }
        let epoch = self.epoch_at(ctx.now);
        self.recovery = Some(PendingRecovery {
            epoch,
            offers: BTreeSet::new(),
            helpers: Vec::new(),
            contributions: BTreeMap::new(),
        });
        for to in 0..ctx.n_nodes {
            if to != ctx.id {
                ctx.send(to, GovMsg::RecoverReq { epoch });
            }
        }
        ctx.set_timer(RECOVER_RETRY_US, TAG_RECOVER);
    }

    fn on_recover_offer(&mut self, ctx: &mut Ctx<'_, GovMsg>, epoch: u64, signer: u64) {
        let t = self.cfg.params.t;
        let Some(rec) = self.recovery.as_mut() else {
            return;
        };
        if epoch != rec.epoch || !rec.helpers.is_empty() {
            return;
        }
        rec.offers.insert(signer);
        if rec.offers.len() < t {
            return;
        }
        rec.helpers = rec.offers.iter().take(t).copied().collect();
        let set = GovMsg::RecoverSet {
            epoch,
            helpers: rec.helpers.clone(),
        };
        for &h in &rec.helpers.clone() {
            ctx.send((h - 1) as usize, set.clone());
        }
    }

    fn on_recover_help(
        &mut self,
        ctx: &mut Ctx<'_, GovMsg>,
        epoch: u64,
        helpers: Vec<u64>,
        from: NodeId,
        contribution: BigUint,
    ) {
        let lost = ctx.id as u64 + 1;
        let Some(rec) = self.recovery.as_mut() else {
            return;
        };
        if epoch != rec.epoch || helpers != rec.helpers {
            return;
        }
        // Only the chosen helpers may contribute: an equivocating node
        // echoing the helper set could otherwise inject a junk
        // contribution and force the commitment check to abort-and-retry.
        if !rec.helpers.contains(&(from as u64 + 1)) {
            return;
        }
        rec.contributions.insert(from as u64 + 1, contribution);
        if rec.contributions.len() < rec.helpers.len() {
            return;
        }
        let contributions: Vec<BigUint> = rec.contributions.values().cloned().collect();
        // The commitment check runs against the epoch the helpers signed
        // up for; on a mismatch (refresh race) we just retry later.
        let committee = committee_at(self.cfg.seed, self.cfg.params, epoch);
        match recover_share(&committee, &contributions, lost) {
            Ok(share) => {
                self.share = Some(share);
                self.recovery = None;
                self.committee = committee;
            }
            Err(_) => {
                self.recovery = None; // retry timer will re-kick
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
        if let Some(at) = self.cfg.refresh_at {
            ctx.set_timer(at.saturating_sub(ctx.now), TAG_REFRESH);
        }
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
                epoch,
                digest,
            } => {
                if let Some(reply) = self.member_nonce(seq, attempt, epoch, &digest) {
                    ctx.send(from, reply);
                }
            }
            GovMsg::Nonce { .. } => {
                if self.is_aggregator(ctx) {
                    self.on_nonce(ctx, msg);
                }
            }
            GovMsg::SignReq {
                seq,
                attempt,
                epoch,
                digest,
                nonces,
            } => {
                if let Some(reply) = self.member_partial(ctx, seq, attempt, epoch, &digest, &nonces)
                {
                    ctx.send(from, reply);
                }
            }
            GovMsg::Partial { .. } => {
                if self.is_aggregator(ctx) {
                    self.on_partial(ctx, msg);
                }
            }
            GovMsg::RecoverReq { epoch } => {
                if let Some(share) = self.share.as_ref() {
                    if share.epoch == epoch {
                        ctx.send(
                            from,
                            GovMsg::RecoverOffer {
                                epoch,
                                signer: share.index,
                            },
                        );
                    }
                }
            }
            GovMsg::RecoverOffer { epoch, signer } => {
                self.on_recover_offer(ctx, epoch, signer);
            }
            GovMsg::RecoverSet { epoch, helpers } => {
                let lost = from as u64 + 1;
                if let Some(share) = self.share.as_ref() {
                    if share.epoch == epoch {
                        if let Ok(contribution) = recovery_contribution(share, &helpers, lost) {
                            ctx.send(
                                from,
                                GovMsg::RecoverHelp {
                                    epoch,
                                    helpers,
                                    contribution,
                                },
                            );
                        }
                    }
                }
            }
            GovMsg::RecoverHelp {
                epoch,
                helpers,
                contribution,
            } => {
                self.on_recover_help(ctx, epoch, helpers, from, contribution);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GovMsg>, tag: u64) {
        match tag {
            TAG_RETRY => {
                // Re-issue the in-flight sequence with a fresh attempt if
                // it has not completed (partition stall, refresh race,
                // lost messages — all heal here).
                if self.pending.is_some() {
                    self.kick_seq(ctx);
                }
                if self.next_seq < self.cfg.digests.len() as u64 {
                    ctx.set_timer(RETRY_US, TAG_RETRY);
                }
            }
            TAG_REFRESH => {
                if let Some(share) = self.share.as_mut() {
                    if share.epoch == 0 {
                        refresh_share(self.cfg.params, self.cfg.seed, share);
                    }
                }
                if self.committee.epoch == 0 {
                    refresh_committee(&mut self.committee);
                }
                if self.is_aggregator(ctx) && self.pending.is_some() {
                    self.kick_seq(ctx); // restart under the new epoch
                }
            }
            TAG_RECOVER => {
                if self.share.is_none() && self.recovery.is_none() {
                    self.kick_recovery(ctx);
                } else if self.share.is_none() {
                    ctx.set_timer(RECOVER_RETRY_US, TAG_RECOVER);
                }
            }
            _ => {}
        }
    }

    fn msg_size(msg: &GovMsg) -> u64 {
        match msg {
            GovMsg::NonceReq { .. } => 52,
            GovMsg::Nonce { .. } => 92,
            GovMsg::SignReq { nonces, .. } => 52 + 72 * nonces.len() as u64,
            GovMsg::Partial { .. } => 92,
            GovMsg::RecoverReq { .. } => 8,
            GovMsg::RecoverOffer { .. } => 16,
            GovMsg::RecoverSet { helpers, .. } => 8 + 8 * helpers.len() as u64,
            GovMsg::RecoverHelp { helpers, .. } => 40 + 8 * helpers.len() as u64,
        }
    }

    fn msg_kind(msg: &GovMsg) -> u8 {
        match msg {
            GovMsg::NonceReq { .. } => 0,
            GovMsg::Nonce { .. } => 1,
            GovMsg::SignReq { .. } => 2,
            GovMsg::Partial { .. } => 3,
            GovMsg::RecoverReq { .. } => 4,
            GovMsg::RecoverOffer { .. } => 5,
            GovMsg::RecoverSet { .. } => 6,
            GovMsg::RecoverHelp { .. } => 7,
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
                epoch,
                digest,
            } => {
                ints(&mut h, &[*seq, *attempt as u64, *epoch]);
                h.update(digest);
            }
            GovMsg::Nonce {
                seq,
                attempt,
                epoch,
                signer,
                commit,
            } => {
                ints(&mut h, &[*seq, *attempt as u64, *epoch, *signer]);
                wide(&mut h, &[&commit.hiding, &commit.binding]);
            }
            GovMsg::SignReq {
                seq,
                attempt,
                epoch,
                digest,
                nonces,
            } => {
                ints(
                    &mut h,
                    &[*seq, *attempt as u64, *epoch, nonces.len() as u64],
                );
                h.update(digest);
                for (signer, commit) in nonces {
                    h.update(&signer.to_le_bytes());
                    wide(&mut h, &[&commit.hiding, &commit.binding]);
                }
            }
            GovMsg::Partial { seq, partial: p } => {
                ints(&mut h, &[*seq, p.signer, p.epoch, p.attempt as u64]);
                wide(&mut h, &[&p.r, &p.s]);
            }
            GovMsg::RecoverReq { epoch } => ints(&mut h, &[*epoch]),
            GovMsg::RecoverOffer { epoch, signer } => ints(&mut h, &[*epoch, *signer]),
            GovMsg::RecoverSet { epoch, helpers } => {
                ints(&mut h, &[*epoch, helpers.len() as u64]);
                ints(&mut h, helpers);
            }
            GovMsg::RecoverHelp {
                epoch,
                helpers,
                contribution,
            } => {
                ints(&mut h, &[*epoch, helpers.len() as u64]);
                ints(&mut h, helpers);
                wide(&mut h, &[contribution]);
            }
        }
        h.finalize().fold_u64()
    }

    fn on_crash(&mut self) {
        // Process restart: the share (secret, held in memory / an HSM in
        // a real deployment) and all in-flight protocol state are gone;
        // config, completed signatures and the nonce-reuse guard
        // ("disk") survive — wiping the guard would let a replayed
        // SignReq walk a recovered signer into nonce reuse.
        self.share = None;
        self.recovery = None;
        self.pending = None;
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, GovMsg>) {
        // Re-arm the refresh timer if the boundary is still ahead, then
        // start break-glass recovery of the lost share.
        if let Some(at) = self.cfg.refresh_at {
            if ctx.now < at {
                ctx.set_timer(at - ctx.now, TAG_REFRESH);
            } else if self.committee.epoch == 0 {
                refresh_committee(&mut self.committee);
            }
        }
        self.kick_recovery(ctx);
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
            refresh_at: None,
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
        let mut sim = Simulator::new(GovNode::build(cfg), link(), sim_seed);
        sim.run_until(until);
        sim
    }

    fn assert_all_signed(sim: &Simulator<GovNode>, cfg: &GovConfig) {
        let agg = sim.node(0);
        assert_eq!(agg.completed.len(), cfg.digests.len());
        let committee = committee_at(cfg.seed, cfg.params, 0);
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
            epoch: 0,
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
            epoch: 1,
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
        let mut sim = Simulator::new(GovNode::build(&cfg), link(), 7);
        sim.install_fault_plan(plan);
        sim.run_until(3_000_000);
        assert!(sim.node(0).completed.is_empty(), "t-1 must not sign");
    }

    #[test]
    fn refresh_mid_run_keeps_signing_and_group_key() {
        let mut cfg = cfg(3, 4, 4);
        cfg.refresh_at = Some(300_000);
        let sim = run(&cfg, 11, 5_000_000);
        assert_all_signed(&sim, &cfg); // old-epoch key still verifies all
        for i in 0..4 {
            let node = sim.node(i);
            assert_eq!(node.share.as_ref().unwrap().epoch, 1, "node {i}");
            assert_eq!(node.committee.epoch, 1);
        }
    }
}
