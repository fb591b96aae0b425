//! From dirty leaves to a root: the state's side of the commitment.
//!
//! Every piece of consensus state is a [`LeafKey`] with canonical value
//! bytes. `WorldState` owns the layout of the `Account`, `Contract` and
//! `Burned` leaves; the token ledgers own theirs. Writes mark the leaf
//! they touch, [`WorldState::state_root`] recomputes the marked leaves
//! from the live maps and folds them into the tree.

use super::WorldState;
use crate::backend::{BackendKind, Commitment, LeafKey};
use crate::smt::SmtProof;
use pds2_crypto::codec::{Encode, Encoder};
use pds2_crypto::sha256::{sha256, Digest};
use std::collections::BTreeSet;

/// Root-commitment bookkeeping: the tree plus the set of leaves mutated
/// since the last commit.
pub(super) struct Committer {
    backend: Commitment,
    dirty: BTreeSet<LeafKey>,
}

impl Committer {
    pub(super) fn new(kind: BackendKind) -> Committer {
        Committer {
            backend: kind.make(),
            dirty: BTreeSet::new(),
        }
    }
}

impl WorldState {
    /// Swaps the commitment backend in place. The entire current leaf
    /// set is marked dirty so the next `state_root()` rebuilds the new
    /// backend's tree from scratch.
    pub fn set_backend(&mut self, kind: BackendKind) {
        let mut fresh = Committer::new(kind);
        fresh.dirty = self.leaf_keys().collect();
        *self.committer.get_mut() = fresh;
    }

    /// Name of the active commitment backend.
    pub fn backend_name(&self) -> &'static str {
        self.committer.borrow().backend.name()
    }

    /// The active commitment backend.
    pub(crate) fn backend(&self) -> BackendKind {
        self.committer.borrow().backend.kind
    }

    /// Marks one leaf for recommit. Conservative over-marking is always
    /// safe: the committed value is recomputed from the live maps, and
    /// an absent entry becomes a (possibly no-op) delete.
    pub(super) fn mark(&self, key: LeafKey) {
        self.committer.borrow_mut().dirty.insert(key);
    }

    /// Every leaf currently present, from the live maps. Deliberately
    /// independent of the dirty set, so an incremental marking bug cannot
    /// hide in what the full-rehash oracle is given.
    fn leaf_keys(&self) -> impl Iterator<Item = LeafKey> + '_ {
        let accounts = self.accounts.keys().map(|a| LeafKey::Account(*a));
        let contracts = self.contracts.keys().map(|a| LeafKey::Contract(*a));
        accounts
            .chain(self.erc20.leaf_keys())
            .chain(self.erc721.leaf_keys())
            .chain(contracts)
            .chain((self.burned != 0).then_some(LeafKey::Burned))
    }

    /// Canonical value bytes of one leaf, `None` when the leaf is
    /// absent. This is the byte string a light client feeds to
    /// [`crate::smt::verify_proof`]; the tree stores its sha256.
    pub fn leaf_value(&self, key: &LeafKey) -> Option<Vec<u8>> {
        match key {
            LeafKey::Account(a) => self.accounts.get(a).map(|acct| acct.to_bytes()),
            LeafKey::Contract(a) => self.contracts.get(a).map(|inst| {
                let mut enc = Encoder::new();
                enc.put_str(&inst.code_id);
                enc.put_digest(&inst.contract.state_digest());
                enc.finish()
            }),
            LeafKey::Burned => (self.burned != 0).then(|| self.burned.to_bytes()),
            LeafKey::Erc20Meta(..) | LeafKey::Erc20Bal(..) | LeafKey::Erc20Next => {
                self.erc20.leaf_value(key)
            }
            LeafKey::Erc721Token(..) | LeafKey::Erc721Next => self.erc721.leaf_value(key),
        }
    }

    /// What the tree stores for one leaf.
    fn leaf_digest(&self, key: &LeafKey) -> Option<Digest> {
        self.leaf_value(key).map(|bytes| sha256(&bytes))
    }

    /// The complete canonical leaf set `(tree key, value digest)`: the
    /// full-rehash oracle's input.
    fn full_leaves(&self) -> Vec<(Digest, Digest)> {
        self.leaf_keys()
            .filter_map(|k| Some((k.digest(), self.leaf_digest(&k)?)))
            .collect()
    }

    /// Canonical root hash of the entire state: the sparse-Merkle root
    /// over the [`LeafKey`] → value-bytes map (see DESIGN.md §5f).
    ///
    /// Commits lazily: leaves touched since the last call are
    /// recomputed from the live maps and folded into the backend's
    /// tree, costing O(touched keys · depth) on the incremental
    /// backend. With nothing dirty this is a cached-root read.
    pub fn state_root(&self) -> Digest {
        let mut committer = self.committer.borrow_mut();
        if committer.dirty.is_empty() {
            if let Some(root) = committer.backend.root() {
                return root;
            }
        }
        let updates: Vec<(Digest, Option<Digest>)> = committer
            .dirty
            .iter()
            .map(|k| (k.digest(), self.leaf_digest(k)))
            .collect();
        let touched = updates.len() as u64;
        let span = pds2_obs::span(
            "state",
            "commit",
            pds2_obs::Stamp::None,
            pds2_obs::TraceCtx::NONE,
            Vec::new(),
        );
        let (root, hashed) = committer.backend.commit(updates, || self.full_leaves());
        committer.dirty.clear();
        pds2_obs::counter!("state.smt.nodes_hashed").add(hashed);
        span.finish(
            pds2_obs::Stamp::None,
            vec![("touched", pds2_obs::Value::from(touched))],
        );
        root
    }

    /// Produces the leaf's current value and a Merkle (non-)inclusion
    /// proof against the current state root (committing first if
    /// needed). Verify with [`crate::smt::verify_proof`] against the
    /// root from a validated block header.
    pub fn prove_leaf(&self, key: &LeafKey) -> (Option<Vec<u8>>, SmtProof) {
        let _ = self.state_root(); // flush pending changes
        let proof = self.committer.borrow().backend.prove(&key.digest());
        (self.leaf_value(key), proof)
    }
}
