//! The blockchain: one block pipeline that every node runs.
//!
//! PDS² selects a permissionless chain (Ethereum) in the paper; this
//! simulation runs a proof-of-authority committee instead (see DESIGN.md's
//! substitution table) — block *content* and contract semantics are what
//! the marketplace depends on, not the Sybil-resistance mechanism.
//! Validators take turns round-robin; every block is fully validated
//! (proposer turn, parent hash, header signature, tx root, tx signatures)
//! before being appended, so the tests can demonstrate tamper rejection.
//!
//! The submodules are the pipeline's stages (admit → produce → validate
//! → apply → persist → prove), each implemented once and shared by the
//! producer, by followers and by crash recovery.

mod admit;
mod apply;
mod persist;
mod produce;
mod prove;
mod validate;

pub use prove::InclusionProof;

use crate::block::Block;
use crate::contract::ContractRegistry;
use crate::event::Event;
use crate::mempool::{Mempool, SubmitError};
use crate::state::{TxReceipt, WorldState};
use crate::tx::SignedTransaction;
use parking_lot::Mutex;
use pds2_crypto::schnorr::{KeyPair, PublicKey};
use pds2_crypto::sha256::Digest;
use pds2_obs::TraceCtx;
use pds2_storage::chainlog::ChainLog;
use std::collections::HashMap;
use std::sync::Arc;

/// First eight bytes of a digest as a trace-field-sized fingerprint.
fn digest_tag(d: &Digest) -> u64 {
    let &[b0, b1, b2, b3, b4, b5, b6, b7, ..] = d.as_bytes();
    u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7])
}

/// Chain configuration.
#[derive(Clone, Debug)]
pub struct ChainConfig {
    /// Gas budget per block.
    pub block_gas_limit: u64,
    /// Maximum transactions per block regardless of gas.
    pub max_txs_per_block: usize,
    /// Maximum pending transactions held in the mempool; beyond it the
    /// cheapest account tail is evicted to admit better-paying traffic.
    pub mempool_capacity: usize,
    /// Base fee carried by the first block. Defaults to 0, which keeps
    /// legacy zero-fee transactions includable until congestion pushes
    /// the fee up (see [`crate::gas::next_base_fee`]).
    pub initial_base_fee: u64,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            block_gas_limit: 30_000_000,
            max_txs_per_block: 1024,
            mempool_capacity: 1 << 20,
            initial_base_fee: 0,
        }
    }
}

/// Errors from block production/validation or submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// Submitted transaction has an invalid signature.
    InvalidSignature,
    /// Submitted transaction nonce is already used.
    StaleNonce {
        /// Account's current nonce.
        expected: u64,
        /// Nonce carried by the transaction.
        got: u64,
    },
    /// Duplicate of a transaction already pending or included.
    Duplicate,
    /// Block validation failed.
    InvalidBlock(&'static str),
    /// The proposer is not the validator whose turn it is.
    WrongProposer,
    /// The mempool refused the transaction (unfittable gas limit, pool
    /// full, or an underpriced replacement).
    Submit(SubmitError),
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::InvalidSignature => write!(f, "invalid transaction signature"),
            ChainError::StaleNonce { expected, got } => {
                write!(f, "stale nonce: account at {expected}, tx has {got}")
            }
            ChainError::Duplicate => write!(f, "duplicate transaction"),
            ChainError::InvalidBlock(why) => write!(f, "invalid block: {why}"),
            ChainError::WrongProposer => write!(f, "proposer out of turn"),
            ChainError::Submit(e) => write!(f, "mempool rejected transaction: {e}"),
        }
    }
}

impl std::error::Error for ChainError {}

/// The blockchain node (state machine + ledger + mempool).
pub struct Blockchain {
    /// Current world state.
    pub state: WorldState,
    registry: ContractRegistry,
    config: ChainConfig,
    validators: Vec<KeyPair>,
    blocks: Vec<Block>,
    receipts: HashMap<Digest, TxReceipt>,
    mempool: Mempool,
    /// Base fee the *next* produced block will carry, derived from the
    /// previous block's gas usage by [`crate::gas::next_base_fee`].
    next_base_fee: u64,
    seen: std::collections::HashSet<Digest>,
    /// Ambient causal context: chain work not attributable to a specific
    /// transaction (block production/validation/apply spans) joins this
    /// trace. Replicas set it per network delivery; the marketplace sets
    /// it per workload call.
    trace_ctx: TraceCtx,
    /// Causal context and submission height of each pending traced
    /// transaction; consumed (and emitted as `tx.included`) when the tx
    /// enters a block. Populated only while a capture is active.
    tx_traces: HashMap<Digest, (TraceCtx, u64)>,
    /// Durable store: appended blocks (plus receipt digests) and
    /// journaled pending transactions, with periodic state snapshots.
    /// `None` (the default) runs fully in memory.
    store: Option<Arc<Mutex<ChainLog>>>,
    /// Snapshot cadence in blocks (0 = never snapshot).
    snapshot_every: u64,
}

impl Blockchain {
    /// Creates a chain with a validator committee and genesis allocations.
    pub fn new(
        validators: Vec<KeyPair>,
        genesis_alloc: &[(crate::address::Address, u128)],
        registry: ContractRegistry,
        config: ChainConfig,
    ) -> Blockchain {
        assert!(!validators.is_empty(), "need at least one validator");
        let mut state = WorldState::new();
        for (addr, amount) in genesis_alloc {
            state.genesis_credit(*addr, *amount);
        }
        Blockchain {
            state,
            registry,
            validators,
            blocks: Vec::new(),
            receipts: HashMap::new(),
            mempool: Mempool::new(config.mempool_capacity),
            next_base_fee: config.initial_base_fee,
            config,
            seen: std::collections::HashSet::new(),
            trace_ctx: TraceCtx::NONE,
            tx_traces: HashMap::new(),
            store: None,
            snapshot_every: 0,
        }
    }

    /// Sets the ambient causal context (see the `trace_ctx` field).
    /// [`TraceCtx::NONE`] detaches the chain from any trace.
    pub fn set_trace_ctx(&mut self, ctx: TraceCtx) {
        self.trace_ctx = ctx;
    }

    /// Convenience single-validator chain for tests and examples.
    pub fn single_validator(
        seed: u64,
        genesis_alloc: &[(crate::address::Address, u128)],
        registry: ContractRegistry,
    ) -> Blockchain {
        Blockchain::new(
            vec![KeyPair::from_seed(seed)],
            genesis_alloc,
            registry,
            ChainConfig::default(),
        )
    }

    /// The validator committee's public keys.
    pub fn validator_set(&self) -> Vec<PublicKey> {
        self.validators.iter().map(|v| v.public.clone()).collect()
    }

    /// Next block height.
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Hash of the latest block (`Digest::ZERO` before genesis).
    pub fn head_hash(&self) -> Digest {
        self.blocks.last().map_or(Digest::ZERO, |b| b.header.hash())
    }

    /// Block by height.
    pub fn block(&self, height: u64) -> Option<&Block> {
        self.blocks.get(height as usize)
    }

    /// All blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Receipt by transaction hash.
    pub fn receipt(&self, tx_hash: &Digest) -> Option<&TxReceipt> {
        self.receipts.get(tx_hash)
    }

    /// Every event the held receipts record, in block and transaction
    /// order (blocks loaded from a snapshot hold no receipts).
    pub fn events(&self) -> Vec<&Event> {
        self.blocks
            .iter()
            .flat_map(|block| &block.transactions)
            .filter_map(|tx| self.receipts.get(&tx.hash()))
            .flat_map(|receipt| &receipt.events)
            .collect()
    }

    /// Events whose topic starts with `prefix`.
    pub fn events_by_topic(&self, prefix: &str) -> Vec<&Event> {
        let mut events = self.events();
        events.retain(|e| e.topic.starts_with(prefix));
        events
    }

    /// Number of pending mempool transactions.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// Base fee the next produced block will carry.
    pub fn base_fee(&self) -> u64 {
        self.next_base_fee
    }

    /// Every pending transaction in deterministic (sender, nonce) order.
    /// The reorg path uses this to carry a pool across a fork switch.
    pub fn mempool_txs(&self) -> Vec<SignedTransaction> {
        self.mempool.all()
    }

    /// Whether a durable store is attached.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// Publishes the `chain.mempool_size` gauge; every site that
    /// mutates the pool reports through this helper.
    fn publish_mempool_gauge(&self) {
        pds2_obs::gauge!("chain.mempool_size").set(self.mempool.len() as f64);
    }

    /// The validator whose turn it is at `height`.
    fn proposer_for(&self, height: u64) -> &KeyPair {
        &self.validators[(height as usize) % self.validators.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::tx::{Transaction, TxKind};

    pub(super) fn signed_transfer(
        kp: &KeyPair,
        nonce: u64,
        to: Address,
        amount: u128,
    ) -> SignedTransaction {
        fee_transfer(kp, nonce, to, amount, 0, 0)
    }

    pub(super) fn fee_transfer(
        kp: &KeyPair,
        nonce: u64,
        to: Address,
        amount: u128,
        max_fee: u64,
        prio: u64,
    ) -> SignedTransaction {
        Transaction {
            from: kp.public.clone(),
            nonce,
            kind: TxKind::Transfer { to, amount },
            gas_limit: 100_000,
            max_fee_per_gas: max_fee,
            priority_fee_per_gas: prio,
        }
        .sign(kp)
    }

    pub(super) fn test_chain(alice: &KeyPair) -> Blockchain {
        Blockchain::single_validator(
            1000,
            &[(Address::of(&alice.public), 1_000_000)],
            ContractRegistry::new(),
        )
    }

    #[test]
    fn events_are_indexed() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        chain.submit(signed_transfer(&alice, 0, bob, 5)).unwrap();
        chain.produce_block();
        assert_eq!(chain.events_by_topic("native.").len(), 1);
        assert!(chain.events_by_topic("erc20.").is_empty());
    }
}
