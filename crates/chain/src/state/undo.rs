//! The undo list: what a refused block or a failed call puts back.
//!
//! Each write records the leaf it is about to change and the value the
//! leaf holds, `(LeafKey, Old)`, in the same call that marks the leaf
//! for recommit ([`super::commit`]). A [`Savepoint`] is a position in the
//! list. Rolling back to it restores the entries above it, newest
//! first; releasing it keeps them for the savepoint around it. The list
//! records only while a savepoint is open and is empty when none is:
//! `Blockchain` opens one around each block it executes and releases it
//! when the block commits, and `apply_transaction_env` one around each
//! payload (a call's escrow, run and payouts). Genesis credits, which no
//! savepoint encloses, record nothing.

use super::WorldState;
use crate::address::Account;
use crate::backend::LeafKey;

/// The value a leaf held before a write, as the undo list keeps it.
pub(crate) enum Old {
    /// No entry: the undo removes the one the write made.
    Absent,
    /// An account's balance and nonce.
    Account(Account),
    /// A contract's committed bytes, which the undo restores it from.
    Contract(Vec<u8>),
    /// A token balance or the burn counter.
    Amount(u128),
    /// A ledger's next-id counter.
    Count(u64),
}

/// A position in the undo list and the commit count when it was taken,
/// closed by exactly one [`WorldState::rollback`] or
/// [`WorldState::release`].
#[must_use]
pub(crate) struct Savepoint {
    at: usize,
    commits: u64,
}

impl WorldState {
    /// Opens a savepoint at the end of the undo list.
    pub(crate) fn savepoint(&mut self) -> Savepoint {
        let committer = self.committer.get_mut();
        committer.open += 1;
        Savepoint {
            at: committer.undo.len(),
            commits: committer.commits,
        }
    }

    /// Closes `savepoint` and keeps what was written since: a savepoint
    /// around it can still undo it. With none around it the list empties.
    pub(crate) fn release(&mut self, _: Savepoint) {
        let committer = self.committer.get_mut();
        committer.open -= 1;
        if committer.open == 0 {
            committer.undo.clear();
        }
    }

    /// Closes `savepoint` and puts back everything written since it was
    /// opened, newest first. If a root was committed in between, each
    /// leaf is marked again, so that the next root is the one before;
    /// otherwise the tree never took the writes in, and the marks stay as
    /// the writes left them.
    pub(crate) fn rollback(&mut self, savepoint: Savepoint) {
        let committer = self.committer.get_mut();
        committer.open -= 1;
        let remark = committer.commits != savepoint.commits;
        let mut undo = std::mem::take(&mut committer.undo);
        for (key, old) in undo.drain(savepoint.at..).rev() {
            if remark {
                self.committer.get_mut().mark(key);
            }
            self.undo(key, old);
        }
        self.committer.get_mut().undo = undo;
    }

    /// Puts back the value one leaf held.
    fn undo(&mut self, key: LeafKey, old: Old) {
        match (key, old) {
            (LeafKey::Account(addr), Old::Account(account)) => {
                self.accounts.insert(addr, account);
            }
            (LeafKey::Account(addr), _) => {
                self.accounts.remove(&addr);
            }
            (LeafKey::Contract(addr), Old::Contract(bytes)) => {
                if let Some(instance) = self.contracts.get_mut(&addr) {
                    // `bytes` is this instance's own `snapshot()` output.
                    instance
                        .contract
                        .restore(&bytes)
                        .expect("a contract restores its own snapshot");
                    instance.committed = bytes;
                }
            }
            (LeafKey::Contract(addr), _) => {
                self.contracts.remove(&addr);
            }
            (LeafKey::Burned, old) => {
                let Old::Amount(burned) = old else { return };
                // The burn took exactly this much out of circulation.
                self.native_supply += self.burned - burned;
                self.burned = burned;
            }
            (LeafKey::Erc20Meta(..) | LeafKey::Erc20Bal(..) | LeafKey::Erc20Next, old) => {
                self.erc20.undo(key, old);
            }
            (LeafKey::Erc721Token(..) | LeafKey::Erc721Next, old) => self.erc721.undo(key, old),
        }
    }
}
