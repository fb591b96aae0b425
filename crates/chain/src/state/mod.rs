//! World state and transaction execution.
//!
//! [`WorldState`] holds native accounts, the two token modules and every
//! deployed contract instance. [`WorldState::apply_transaction_env`] is the
//! single state-transition function: it meters gas, enforces nonces,
//! executes the payload atomically (failed transactions leave no effects
//! beyond the nonce bump and the gas paid) and produces a [`TxReceipt`].
//!
//! One file per concern, in the order a transaction meets them:
//! `transition` (price → signature → nonce → escrow → payload → settle →
//! receipt), `call` (a contract call: escrow in, payouts out, all of it
//! undone if any part fails), `commit` (dirty leaves → root and proofs),
//! `undo` (savepoints and the `(leaf, old value)` list they roll back)
//! and `snapshot` (the recovery codec). This file holds the state itself,
//! its read-only queries and the one write path to an account.

mod call;
mod commit;
mod snapshot;
#[cfg(test)]
mod tests;
mod transition;
mod undo;

pub(crate) use undo::{Old, Savepoint};

use crate::address::{Account, Address};
use crate::backend::LeafKey;
use crate::event::Event;
use commit::Committer;
use pds2_crypto::sha256::Digest;
use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Per-block execution environment: the consensus values every
/// transaction in the block executes under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockEnv {
    /// Height of the including block.
    pub height: u64,
    /// Base fee per gas (EIP-1559): burned on every unit of gas.
    pub base_fee: u64,
    /// Proposer address credited with priority fees.
    pub coinbase: Address,
}

impl BlockEnv {
    /// A zero-fee environment at `height` — the legacy execution model
    /// (no base fee, no proposer payment).
    pub fn free(height: u64) -> BlockEnv {
        BlockEnv {
            height,
            base_fee: 0,
            coinbase: Address(Digest::ZERO),
        }
    }
}

/// Outcome of executing one transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxReceipt {
    /// Hash of the transaction.
    pub tx_hash: Digest,
    /// Whether execution succeeded.
    pub success: bool,
    /// Gas consumed.
    pub gas_used: u64,
    /// Per-gas price actually paid (EIP-1559 effective price at the
    /// block's base fee; 0 for free/legacy transactions).
    pub effective_gas_price: u64,
    /// Contract return data (empty unless a successful call returned some).
    pub output: Vec<u8>,
    /// Error description on failure.
    pub error: Option<String>,
    /// Events emitted (empty on failure).
    pub events: Vec<Event>,
    /// Address of the deployed contract, for deploy transactions.
    pub deployed: Option<Address>,
}

impl TxReceipt {
    /// The receipt of a transaction that failed: no output, no events,
    /// nothing deployed.
    pub fn failed(tx_hash: Digest, gas_used: u64, effective_gas_price: u64, error: String) -> Self {
        TxReceipt {
            tx_hash,
            success: false,
            gas_used,
            effective_gas_price,
            output: Vec::new(),
            error: Some(error),
            events: Vec::new(),
            deployed: None,
        }
    }
}

/// A deployed contract instance. `deployer` and `init` are retained so
/// snapshot restore can revive the instance through the registry's
/// constructor before restoring its canonical snapshot; they are NOT
/// part of the state root (which commits only `code_id` + state digest).
struct ContractInstance {
    code_id: String,
    deployer: Address,
    init: Vec<u8>,
    contract: Box<dyn crate::contract::Contract>,
    /// `contract.snapshot()` as of the last deploy, successful call or
    /// snapshot restore: the one encoding that rollback, the state root,
    /// the recovery snapshot and [`WorldState::contract_snapshot`] read.
    committed: Vec<u8>,
}

/// The full chain state.
#[derive(Default)]
pub struct WorldState {
    accounts: BTreeMap<Address, Account>,
    /// Fungible-token module.
    pub erc20: crate::erc20::Erc20Module,
    /// NFT module.
    pub erc721: crate::erc721::Erc721Module,
    contracts: BTreeMap<Address, ContractInstance>,
    /// Cumulative native tokens destroyed by base-fee burning. Part of
    /// the state root: every node must agree on it, and the conservation
    /// invariant becomes `circulating supply + burned = const`.
    burned: u128,
    /// Maintained sum of every native balance, so conservation checks
    /// are O(1) instead of an account-map walk. Every credit/debit nets
    /// to zero except genesis minting (+) and base-fee burning (−).
    native_supply: u128,
    /// Behind a [`RefCell`] so `state_root(&self)` can commit lazily.
    committer: RefCell<Committer>,
}

impl WorldState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Credits an address at genesis. No savepoint encloses it, so no
    /// rollback takes the credit back, nor the supply it mints.
    pub fn genesis_credit(&mut self, addr: Address, amount: u128) {
        self.account_mut(addr).balance += amount;
        self.native_supply += amount;
    }

    /// Account balance query.
    pub fn balance(&self, addr: &Address) -> u128 {
        self.accounts.get(addr).map_or(0, |a| a.balance)
    }

    /// Account nonce query.
    pub fn nonce(&self, addr: &Address) -> u64 {
        self.accounts.get(addr).map_or(0, |a| a.nonce)
    }

    /// Sum of every native balance (for conservation checks). O(1):
    /// returns the maintained counter rather than walking the account
    /// map — `recompute_native_supply` is the slow cross-check.
    pub fn total_native_supply(&self) -> u128 {
        self.native_supply
    }

    /// Recomputes the native supply by walking every account. O(total
    /// accounts); exists so tests can assert the maintained counter
    /// never drifts from the ground truth.
    pub fn recompute_native_supply(&self) -> u128 {
        self.accounts.values().map(|a| a.balance).sum()
    }

    /// Total native tokens burned as base fees since genesis.
    pub fn burned(&self) -> u128 {
        self.burned
    }

    /// Read-only view of a contract's canonical snapshot (for inspection
    /// and off-chain indexing).
    pub fn contract_snapshot(&self, addr: &Address) -> Option<Vec<u8>> {
        self.contracts.get(addr).map(|c| c.committed.clone())
    }

    /// The one write path to an account: records its leaf with the value
    /// it holds, then hands out the entry, created empty if the address
    /// is new.
    fn account_mut(&mut self, addr: Address) -> &mut Account {
        let entry = self.accounts.entry(addr);
        let old = match &entry {
            Entry::Occupied(account) => Old::Account(*account.get()),
            Entry::Vacant(_) => Old::Absent,
        };
        self.committer.get_mut().record(LeafKey::Account(addr), old);
        entry.or_default()
    }

    fn native_transfer(&mut self, from: Address, to: Address, amount: u128) -> Result<(), String> {
        let from_balance = self.balance(&from);
        if from_balance < amount {
            return Err(format!(
                "insufficient balance: have {from_balance}, need {amount}"
            ));
        }
        self.account_mut(from).balance -= amount;
        self.account_mut(to).balance += amount;
        Ok(())
    }
}
