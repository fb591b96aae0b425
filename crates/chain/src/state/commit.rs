//! From dirty leaves to a root: the state's side of the commitment.
//!
//! Every piece of consensus state is a [`LeafKey`] with canonical value
//! bytes. `WorldState` owns the layout of the `Account`, `Contract` and
//! `Burned` leaves; the token ledgers own theirs. Each write records the
//! leaf it touches where it writes (a ledger through the callback
//! `WorldState` passes in): once the tree holds a commit the leaf is
//! marked, and [`WorldState::state_root`] recomputes the marked leaves
//! from the live maps and folds them into the tree. Before that first
//! commit (genesis, a snapshot restore, a backend switch) nothing is
//! marked: the first commit builds the tree in one walk of the maps. The
//! same call puts the leaf's old value on the undo list (`super::undo`).

use super::undo::Old;
use super::{ContractInstance, WorldState};
use crate::address::{Account, Address};
use crate::backend::{BackendKind, Commitment, LeafKey};
use crate::smt::SmtProof;
use pds2_crypto::codec::{Encode, Encoder};
use pds2_crypto::sha256::{sha256, Digest};
use std::collections::BTreeSet;

/// Write bookkeeping: the tree plus the set of leaves mutated since the
/// last commit (empty until the first), and the undo list.
pub(super) struct Committer {
    backend: Commitment,
    dirty: BTreeSet<LeafKey>,
    /// `(leaf, old value)` of each write since the outermost open
    /// savepoint, oldest first; empty while none is open.
    pub(super) undo: Vec<(LeafKey, Old)>,
    /// Savepoints open.
    pub(super) open: usize,
    /// Commits so far: a savepoint notes it, so that its rollback knows
    /// whether the tree took in the writes it undoes.
    pub(super) commits: u64,
}

impl Committer {
    pub(super) fn new(kind: BackendKind) -> Committer {
        Committer {
            backend: kind.make(),
            dirty: BTreeSet::new(),
            undo: Vec::new(),
            open: 0,
            commits: 0,
        }
    }

    /// Marks one leaf for recommit. Conservative over-marking is always
    /// safe: the committed value is recomputed from the live maps, and
    /// an absent entry becomes a (possibly no-op) delete. Before the
    /// first commit there is nothing to mark against.
    pub(super) fn mark(&mut self, key: LeafKey) {
        if self.backend.committed() {
            self.dirty.insert(key);
        }
    }

    /// Marks `key` and keeps `old` for an undo: [`Self::keep`]. Every
    /// write to the state calls this; the ledgers get it as their
    /// callback, borrowing only the committer.
    pub(super) fn record(&mut self, key: LeafKey, old: Old) {
        self.mark(key);
        self.keep(key, old);
    }

    /// While a savepoint is open, records `old`, the value `key` holds
    /// before the write about to happen.
    pub(super) fn keep(&mut self, key: LeafKey, old: Old) {
        if self.open > 0 {
            self.undo.push((key, old));
        }
    }
}

impl WorldState {
    /// Swaps the commitment backend in place. The new backend holds no
    /// tree, so the next `state_root()` builds it from the whole leaf set.
    pub fn set_backend(&mut self, kind: BackendKind) {
        *self.committer.get_mut() = Committer::new(kind);
    }

    /// Name of the active commitment backend.
    pub fn backend_name(&self) -> &'static str {
        self.committer.borrow().backend.name()
    }

    /// The active commitment backend.
    pub(crate) fn backend(&self) -> BackendKind {
        self.committer.borrow().backend.kind
    }

    /// Records a write of one leaf: [`Committer::record`].
    pub(super) fn record(&mut self, key: LeafKey, old: Old) {
        self.committer.get_mut().record(key, old);
    }

    /// Canonical value bytes of one leaf, `None` when the leaf is
    /// absent. This is the byte string a light client feeds to
    /// [`crate::smt::verify_proof`]; the tree stores its sha256.
    pub fn leaf_value(&self, key: &LeafKey) -> Option<Vec<u8>> {
        match key {
            LeafKey::Account(a) => self.accounts.get(a).map(|acct| acct.to_bytes()),
            LeafKey::Contract(a) => self.contracts.get(a).map(|inst| contract_value(a, inst)),
            LeafKey::Burned => (self.burned != 0).then(|| self.burned.to_bytes()),
            LeafKey::Erc20Meta(..) | LeafKey::Erc20Bal(..) | LeafKey::Erc20Next => {
                self.erc20.leaf_value(key)
            }
            LeafKey::Erc721Token(..) | LeafKey::Erc721Next => self.erc721.leaf_value(key),
        }
    }

    /// What the tree stores for one leaf. An account, the leaf most
    /// commits touch, is hashed from its encoding on the stack.
    fn leaf_digest(&self, key: &LeafKey) -> Option<Digest> {
        match key {
            LeafKey::Account(a) => self
                .accounts
                .get(a)
                .map(|acct| sha256(&account_bytes(acct))),
            _ => self.leaf_value(key).map(|bytes| sha256(&bytes)),
        }
    }

    /// The complete canonical leaf set `(tree key, value digest)`, in one
    /// walk of the live maps: what a first commit and every commit of the
    /// full-rehash oracle build from. Deliberately independent of the
    /// dirty set, so an incremental marking bug cannot hide in it. Account
    /// values are encoded on the stack.
    fn full_leaves(&self) -> Vec<(Digest, Digest)> {
        let tokens = self
            .erc20
            .leaf_keys()
            .chain(self.erc721.leaf_keys())
            .chain((self.burned != 0).then_some(LeafKey::Burned));
        let mut leaves: Vec<(Digest, Digest)> = tokens
            .filter_map(|k| Some((k.digest(), self.leaf_digest(&k)?)))
            .collect();
        leaves.reserve_exact(self.accounts.len() + self.contracts.len());
        for (addr, acct) in &self.accounts {
            leaves.push((
                LeafKey::Account(*addr).digest(),
                sha256(&account_bytes(acct)),
            ));
        }
        for (addr, inst) in &self.contracts {
            let value = contract_value(addr, inst);
            leaves.push((LeafKey::Contract(*addr).digest(), sha256(&value)));
        }
        leaves
    }

    /// Canonical root hash of the entire state: the sparse-Merkle root
    /// over the [`LeafKey`] → value-bytes map (see DESIGN.md §5f).
    ///
    /// Commits lazily: leaves touched since the last call are
    /// recomputed from the live maps and folded into the backend's
    /// tree, costing O(touched keys · depth) on the incremental
    /// backend. With nothing dirty this is a cached-root read. The first
    /// commit builds the tree from the whole leaf set, which it reports
    /// as touched.
    pub fn state_root(&self) -> Digest {
        let mut committer = self.committer.borrow_mut();
        if committer.dirty.is_empty() {
            if let Some(root) = committer.backend.root() {
                return root;
            }
        }
        let first = !committer.backend.committed();
        // The set's iterator knows its length: one allocation of it.
        let updates: Vec<(Digest, Option<Digest>)> = committer
            .dirty
            .iter()
            .map(|k| (k.digest(), self.leaf_digest(k)))
            .collect();
        let span = pds2_obs::span(
            "state",
            "commit",
            pds2_obs::Stamp::None,
            pds2_obs::TraceCtx::NONE,
            Vec::new(),
        );
        let changed = updates.len();
        let (root, hashed) = committer.backend.commit(updates, || self.full_leaves());
        let touched = if first {
            committer.backend.len()
        } else {
            changed
        } as u64;
        committer.dirty.clear();
        committer.commits += 1;
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

/// Canonical value bytes of a contract leaf: code id and the digest of
/// the committed state.
fn contract_value(addr: &Address, inst: &ContractInstance) -> Vec<u8> {
    // Both backends read `committed`, so a stale copy would not split
    // their roots: this check, on every commit of a build with debug
    // assertions, holds the copy to a fresh encoding.
    debug_assert_eq!(
        inst.committed,
        inst.contract.snapshot(),
        "contract {addr}: committed bytes are stale"
    );
    let mut enc = Encoder::new();
    enc.put_str(&inst.code_id);
    enc.put_digest(&sha256(&inst.committed));
    enc.finish()
}

/// An account's canonical encoding (`Account: Encode`, balance then
/// nonce, little-endian) in a stack buffer.
fn account_bytes(acct: &Account) -> [u8; 24] {
    let mut out = [0u8; 24];
    out[..16].copy_from_slice(&acct.balance.to_le_bytes());
    out[16..].copy_from_slice(&acct.nonce.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn account_bytes_are_the_encoding() {
        for (balance, nonce) in [(0, 0), (1, 2), (u128::MAX, u64::MAX), (1 << 100, 7)] {
            let acct = Account { balance, nonce };
            assert_eq!(account_bytes(&acct).to_vec(), acct.to_bytes());
        }
    }
}
