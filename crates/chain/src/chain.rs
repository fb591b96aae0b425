//! The blockchain: proof-of-authority production, mempool, receipts and
//! queries.
//!
//! PDS² selects a permissionless chain (Ethereum) in the paper; this
//! simulation runs a proof-of-authority committee instead (see DESIGN.md's
//! substitution table) — block *content* and contract semantics are what
//! the marketplace depends on, not the Sybil-resistance mechanism.
//! Validators take turns round-robin; every block is fully validated
//! (proposer turn, parent hash, header signature, tx root, tx signatures)
//! before being appended, so the tests can demonstrate tamper rejection.

use crate::address::Account;
use crate::backend::LeafKey;
use crate::block::{receipts_digest, Block, BlockHeader};
use crate::contract::ContractRegistry;
use crate::event::Event;
use crate::gas;
use crate::mempool::{InsertOutcome, Mempool, SelectionStats, SubmitError};
use crate::smt::SmtProof;
use crate::state::{BlockEnv, TxReceipt, WorldState};
use crate::threshold::{SigMode, ThresholdCtx};
use crate::tx::SignedTransaction;
use parking_lot::Mutex;
use pds2_crypto::codec::{Decode, Decoder, Encode, Encoder};
use pds2_crypto::schnorr::{KeyPair, PublicKey};
use pds2_crypto::sha256::Digest;
use pds2_obs::TraceCtx;
use pds2_storage::chainlog::{ChainLog, FRAME_BLOCK, FRAME_TX};
use std::collections::HashMap;
use std::sync::Arc;

/// First eight bytes of a digest as a trace-field-sized fingerprint.
fn digest_tag(d: &Digest) -> u64 {
    u64::from_le_bytes(d.as_bytes()[..8].try_into().expect("digest >= 8 bytes"))
}

/// Chain configuration.
#[derive(Clone, Debug)]
pub struct ChainConfig {
    /// Gas budget per block.
    pub block_gas_limit: u64,
    /// Logical seconds between blocks (drives header timestamps).
    pub block_interval_secs: u64,
    /// Maximum transactions per block regardless of gas.
    pub max_txs_per_block: usize,
    /// Maximum pending transactions held in the mempool; beyond it the
    /// cheapest account tail is evicted to admit better-paying traffic.
    pub mempool_capacity: usize,
    /// Base fee carried by the first block. Defaults to 0, which keeps
    /// legacy zero-fee transactions includable until congestion pushes
    /// the fee up (see [`gas::next_base_fee`]).
    pub initial_base_fee: u64,
    /// Header signing scheme (see [`crate::threshold`]). Defaults to
    /// [`SigMode::from_env`], so `PDS2_SIG_MODE=threshold` flips every
    /// default-configured chain — including replica genesis factories —
    /// to t-of-n committee sealing; tests override it programmatically.
    pub sig_mode: SigMode,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            block_gas_limit: 30_000_000,
            block_interval_secs: 12,
            max_txs_per_block: 1024,
            mempool_capacity: 1 << 20,
            initial_base_fee: 0,
            sig_mode: SigMode::from_env(),
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

/// A light-client proof that a transaction was included in a block.
#[derive(Clone, Debug)]
pub struct InclusionProof {
    /// Height of the including block.
    pub block_height: u64,
    /// The proven transaction hash.
    pub tx_hash: Digest,
    /// Merkle path to the header's `tx_root`.
    pub proof: pds2_crypto::merkle::MerkleProof,
}

impl InclusionProof {
    /// Verifies the proof against a trusted block header.
    pub fn verify(&self, header: &crate::block::BlockHeader) -> bool {
        header.height == self.block_height
            && self.proof.verify(self.tx_hash.as_bytes(), &header.tx_root)
    }
}

/// The blockchain node (state machine + ledger + mempool).
pub struct Blockchain {
    /// Current world state.
    pub state: WorldState,
    registry: ContractRegistry,
    config: ChainConfig,
    validators: Vec<KeyPair>,
    blocks: Vec<Block>,
    receipts: HashMap<Digest, TxReceipt>,
    events: Vec<Event>,
    mempool: Mutex<Mempool>,
    /// Base fee the *next* produced block will carry, derived from the
    /// previous block's gas usage by [`gas::next_base_fee`].
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
    /// Threshold sealing context (`Some` iff `config.sig_mode` is
    /// [`SigMode::Threshold`]); shared process-globally per validator
    /// set via [`crate::threshold::committee_for`].
    threshold: Option<Arc<ThresholdCtx>>,
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
        let threshold = match config.sig_mode {
            SigMode::Single => None,
            SigMode::Threshold => {
                let pubs: Vec<PublicKey> = validators.iter().map(|v| v.public.clone()).collect();
                Some(crate::threshold::committee_for(&pubs))
            }
        };
        Blockchain {
            state,
            registry,
            validators,
            blocks: Vec::new(),
            receipts: HashMap::new(),
            events: Vec::new(),
            mempool: Mutex::new(Mempool::new(config.mempool_capacity)),
            next_base_fee: config.initial_base_fee,
            config,
            seen: std::collections::HashSet::new(),
            trace_ctx: TraceCtx::NONE,
            tx_traces: HashMap::new(),
            store: None,
            snapshot_every: 0,
            threshold,
        }
    }

    /// Sets the ambient causal context (see the `trace_ctx` field).
    /// [`TraceCtx::NONE`] detaches the chain from any trace.
    pub fn set_trace_ctx(&mut self, ctx: TraceCtx) {
        self.trace_ctx = ctx;
    }

    /// The current ambient causal context.
    pub fn trace_ctx(&self) -> TraceCtx {
        self.trace_ctx
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

    /// All events ever emitted, in chain order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events whose topic starts with `prefix`.
    pub fn events_by_topic(&self, prefix: &str) -> Vec<&Event> {
        self.events
            .iter()
            .filter(|e| e.topic.starts_with(prefix))
            .collect()
    }

    /// Number of pending mempool transactions.
    pub fn mempool_len(&self) -> usize {
        self.mempool.lock().len()
    }

    /// Base fee the next produced block will carry.
    pub fn base_fee(&self) -> u64 {
        self.next_base_fee
    }

    /// Every pending transaction in deterministic (sender, nonce) order.
    /// The reorg path uses this to carry a pool across a fork switch.
    pub fn mempool_txs(&self) -> Vec<SignedTransaction> {
        self.mempool.lock().all()
    }

    /// Publishes the `chain.mempool_size` gauge from a pool length read
    /// under the lock. Every site that mutates the pool reports through
    /// this helper with the length it observed inside its own lock
    /// acquisition, so the gauge never interleaves with a concurrent
    /// mutation (it previously mixed in-lock and re-lock reads).
    fn publish_mempool_gauge(len: usize) {
        pds2_obs::gauge!("chain.mempool_size").set(len as f64);
    }

    /// Submits a transaction to the mempool after stateless+stateful
    /// admission checks, under the ambient causal context.
    pub fn submit(&mut self, tx: SignedTransaction) -> Result<Digest, ChainError> {
        let ctx = self.trace_ctx;
        self.submit_traced(tx, ctx)
    }

    /// [`submit`](Self::submit) under an explicit causal context. With a
    /// live capture and `ctx == NONE`, submission *mints* a new trace
    /// (`chain/tx.submit` root) — a bare tx entering the system is a
    /// workload in its own right; a non-empty `ctx` (the marketplace's
    /// workload trace, a replica's delivery span) joins that trace
    /// instead. Inclusion later emits `chain/tx.included` on the same
    /// trace with the blocks-waited count.
    pub fn submit_traced(
        &mut self,
        tx: SignedTransaction,
        ctx: TraceCtx,
    ) -> Result<Digest, ChainError> {
        pds2_obs::counter!("chain.txs_submitted").inc();
        // Cheap reject before expensive reject: `seen` only ever holds
        // hashes of transactions that already passed verification, so a
        // known body is refused for one set lookup instead of a Schnorr
        // check (recovery resubmits every journaled tx since genesis).
        let hash = tx.hash();
        if self.seen.contains(&hash) {
            pds2_obs::counter!("chain.txs_rejected").inc();
            return Err(ChainError::Duplicate);
        }
        if !tx.verify_signature() {
            pds2_obs::counter!("chain.txs_rejected").inc();
            return Err(ChainError::InvalidSignature);
        }
        let account_nonce = self.state.nonce(&tx.tx.sender());
        if tx.tx.nonce < account_nonce {
            pds2_obs::counter!("chain.txs_rejected").inc();
            return Err(ChainError::StaleNonce {
                expected: account_nonce,
                got: tx.tx.nonce,
            });
        }
        // Admission into the fee-market pool; this can evict cheaper
        // pending transactions (pool at capacity) or replace a same-nonce
        // one (replace-by-fee).
        let tx_nonce = tx.tx.nonce;
        let tx_bytes = self.store.as_ref().map(|_| tx.to_bytes());
        let mut evicted = Vec::new();
        let (outcome, pool_len) = {
            let mut pool = self.mempool.lock();
            let outcome = pool.insert(tx, account_nonce, self.config.block_gas_limit, &mut evicted);
            (outcome, pool.len())
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                pds2_obs::counter!("chain.txs_rejected").inc();
                pds2_obs::counter!("chain.mempool.rejected").inc();
                return Err(ChainError::Submit(e));
            }
        };
        if let InsertOutcome::Replaced(old) = outcome {
            pds2_obs::counter!("chain.mempool.rbf_replaced").inc();
            self.seen.remove(&old);
            self.tx_traces.remove(&old);
        }
        if !evicted.is_empty() {
            pds2_obs::counter!("chain.mempool.evicted").add(evicted.len() as u64);
            for h in &evicted {
                // Evicted transactions were never included: forget them so
                // the sender can resubmit (e.g. with a higher fee).
                self.seen.remove(h);
                self.tx_traces.remove(h);
            }
        }
        if pds2_obs::enabled() {
            let height = self.height();
            let fields = vec![
                ("tx", pds2_obs::Value::from(digest_tag(&hash))),
                ("nonce", pds2_obs::Value::from(tx_nonce)),
            ];
            let tx_ctx = if ctx.is_none() {
                let root = pds2_obs::new_trace(
                    "chain",
                    "tx.submit",
                    pds2_obs::Stamp::Block(height),
                    fields,
                );
                let minted = root.ctx();
                root.finish(pds2_obs::Stamp::Block(height), Vec::new());
                minted
            } else {
                pds2_obs::emit_traced(
                    "chain",
                    "tx.submit",
                    pds2_obs::Stamp::Block(height),
                    ctx,
                    fields,
                );
                ctx
            };
            if !tx_ctx.is_none() {
                self.tx_traces.insert(hash, (tx_ctx, height));
            }
        }
        self.seen.insert(hash);
        // Journal the admitted transaction so a crashed node can
        // reinstate its pending pool on recovery.
        if let (Some(store), Some(bytes)) = (&self.store, tx_bytes) {
            store.lock().append(FRAME_TX, self.height(), &bytes);
        }
        Self::publish_mempool_gauge(pool_len);
        Ok(hash)
    }

    /// The validator whose turn it is at `height`.
    fn proposer_for(&self, height: u64) -> &KeyPair {
        &self.validators[(height as usize) % self.validators.len()]
    }

    /// Produces, validates and appends the next block from the mempool.
    ///
    /// Returns the new block. Transactions that no longer pass nonce
    /// ordering are retried later (kept in the pool) unless their nonce is
    /// stale, in which case they are dropped.
    pub fn produce_block(&mut self) -> Block {
        let height = self.height();
        let span = pds2_obs::span_traced(
            "chain",
            "produce_block",
            pds2_obs::Stamp::Block(height),
            self.trace_ctx,
            Vec::new(),
        );
        let parent = self.head_hash();
        let timestamp = height * self.config.block_interval_secs;
        let base_fee = self.next_base_fee;

        // Select transactions from the priority index: highest effective
        // tip first, per-account nonce chains kept contiguous, stale
        // entries pruned on the way. O(accounts + selected · log accounts)
        // instead of the old O(pending²) rescan.
        let mut sel_stats = SelectionStats::default();
        let (selected, pool_len) = {
            let state = &self.state;
            let mut pool = self.mempool.lock();
            let selected = pool.select(
                base_fee,
                self.config.block_gas_limit,
                self.config.max_txs_per_block,
                |addr| state.nonce(addr),
                &mut sel_stats,
            );
            (selected, pool.len())
        };
        if sel_stats.stale_dropped > 0 {
            pds2_obs::counter!("chain.mempool_stale_dropped").add(sel_stats.stale_dropped as u64);
        }

        // Execute. Each traced transaction executes under its own
        // submission-time context, so contract events it raises join the
        // workload's trace rather than the producer's ambient one.
        let produce_ctx = if span.id() != 0 {
            span.ctx()
        } else {
            self.trace_ctx
        };
        let proposer = self.proposer_for(height).clone();
        let env = BlockEnv {
            height,
            base_fee,
            coinbase: crate::address::Address::of(&proposer.public),
        };
        let mut receipts = Vec::with_capacity(selected.len());
        let mut included = Vec::with_capacity(selected.len());
        for (i, tx) in selected.iter().enumerate() {
            let hash = tx.hash();
            let trace = self
                .tx_traces
                .get(&hash)
                .map(|(ctx, _)| *ctx)
                .unwrap_or(produce_ctx);
            let receipt =
                self.state
                    .apply_transaction_env(&self.registry, tx, &env, i as u32, trace);
            receipts.push(receipt);
            if let Some((ctx, submitted_at)) = self.tx_traces.remove(&hash) {
                included.push((hash, ctx, submitted_at));
            }
        }
        for (hash, ctx, submitted_at) in included {
            pds2_obs::trace_event!(
                "chain",
                "tx.included",
                pds2_obs::Stamp::Block(height),
                ctx,
                "tx" => digest_tag(&hash),
                "blocks_waited" => height.saturating_sub(submitted_at),
            );
        }

        let gas_used: u64 = receipts.iter().map(|r| r.gas_used).sum();
        let tx_root = Block::compute_tx_root(&selected);
        let state_root = self.state.state_root();
        let header = match &self.threshold {
            None => BlockHeader::new_signed(
                &proposer, height, parent, state_root, tx_root, timestamp, base_fee, gas_used,
            ),
            Some(ctx) => {
                // Same header body and proposer as single mode — only the
                // signature differs, produced by the t-of-n committee.
                let payload = BlockHeader::signing_bytes(
                    height,
                    &parent,
                    &state_root,
                    &tx_root,
                    timestamp,
                    base_fee,
                    gas_used,
                    &proposer.public,
                );
                BlockHeader {
                    height,
                    parent,
                    state_root,
                    tx_root,
                    timestamp,
                    base_fee,
                    gas_used,
                    proposer: proposer.public.clone(),
                    signature: ctx.seal(height, &payload),
                }
            }
        };
        let block = Block {
            header,
            transactions: selected,
        };
        self.next_base_fee = gas::next_base_fee(base_fee, gas_used, self.config.block_gas_limit);

        // Record.
        for receipt in receipts {
            self.events.extend(receipt.events.iter().cloned());
            self.receipts.insert(receipt.tx_hash, receipt);
        }
        pds2_obs::counter!("chain.blocks_produced").inc();
        pds2_obs::counter!("chain.txs_included").add(block.transactions.len() as u64);
        pds2_obs::histogram!("chain.gas_per_block").observe(gas_used);
        pds2_obs::gauge!("chain.base_fee").set(self.next_base_fee as f64);
        Self::publish_mempool_gauge(pool_len);
        if pds2_obs::enabled() {
            span.finish(
                pds2_obs::Stamp::Block(height),
                vec![
                    ("txs", pds2_obs::Value::from(block.transactions.len())),
                    ("gas_used", pds2_obs::Value::from(gas_used)),
                ],
            );
        }
        self.blocks.push(block.clone());
        self.persist_block(&block);
        self.maybe_snapshot();
        block
    }

    /// Produces blocks until the mempool is drained (bounded by
    /// `max_blocks` as a safety stop). Returns the number produced.
    ///
    /// Stops early when a round makes no progress — the remaining
    /// transactions are waiting on something block production cannot
    /// provide (a nonce-gap fill, or a base fee above their fee cap) and
    /// spinning to `max_blocks` would only mint empty blocks.
    pub fn produce_until_empty(&mut self, max_blocks: usize) -> usize {
        let mut produced = 0;
        while produced < max_blocks {
            let before = self.mempool_len();
            if before == 0 {
                break;
            }
            self.produce_block();
            produced += 1;
            if self.mempool_len() >= before {
                break;
            }
        }
        produced
    }

    /// Validates a block received from elsewhere against the current head
    /// (used by tests to demonstrate tamper rejection). Does not execute.
    pub fn validate_external_block(&self, block: &Block) -> Result<(), ChainError> {
        let height = block.header.height;
        let span = pds2_obs::span_traced(
            "chain",
            "validate_block",
            pds2_obs::Stamp::Block(height),
            self.trace_ctx,
            Vec::new(),
        );
        let res = self.validate_external_block_uninstrumented(block);
        match res {
            Ok(()) => pds2_obs::counter!("chain.blocks_validated").inc(),
            Err(_) => pds2_obs::counter!("chain.blocks_rejected").inc(),
        }
        if pds2_obs::enabled() {
            span.finish(
                pds2_obs::Stamp::Block(height),
                vec![
                    ("txs", pds2_obs::Value::from(block.transactions.len())),
                    ("ok", pds2_obs::Value::from(res.is_ok() as u64)),
                ],
            );
        }
        res
    }

    /// [`validate_external_block`](Self::validate_external_block) minus
    /// the observability wrapper. Public so `bench_obs` can time the
    /// bare validation path as the baseline for its overhead
    /// measurement; everyone else should call the instrumented entry
    /// point.
    #[doc(hidden)]
    pub fn validate_external_block_uninstrumented(&self, block: &Block) -> Result<(), ChainError> {
        if block.header.height != self.height() {
            return Err(ChainError::InvalidBlock("wrong height"));
        }
        if block.header.parent != self.head_hash() {
            return Err(ChainError::InvalidBlock("wrong parent"));
        }
        if block.header.base_fee != self.next_base_fee {
            // The base fee is a pure function of the parent chain; a
            // mismatch means the proposer computed (or forged) it wrong.
            return Err(ChainError::InvalidBlock("wrong base fee"));
        }
        let expected_proposer = &self.proposer_for(block.header.height).public;
        if &block.header.proposer != expected_proposer {
            return Err(ChainError::WrongProposer);
        }
        let sig_ok = match &self.threshold {
            None => block.header.verify_signature(),
            Some(ctx) => block.header.verify_signature_with(ctx.group_public()),
        };
        if !sig_ok {
            return Err(ChainError::InvalidBlock("bad header signature"));
        }
        if !block.tx_root_matches() {
            return Err(ChainError::InvalidBlock("tx root mismatch"));
        }
        // Signature checks are independent per transaction, so they fan
        // out across the pds2-par worker pool; the verdict (all-true) is
        // order-insensitive, and each check also warms the transaction's
        // digest cache for later Merkle/receipt lookups.
        let verdicts =
            pds2_par::par_map_indexed(&block.transactions, |_, tx| tx.verify_signature());
        if !verdicts.into_iter().all(|ok| ok) {
            return Err(ChainError::InvalidBlock("bad tx signature"));
        }
        Ok(())
    }

    /// Access to the contract registry (e.g. to check registered types).
    pub fn registry(&self) -> &ContractRegistry {
        &self.registry
    }

    /// Produces a light-client inclusion proof for a transaction: the
    /// block height plus a Merkle path from the transaction hash to the
    /// block header's `tx_root`. Providers use this to prove to third
    /// parties (e.g. in a §IV-A reward dispute) that their participation
    /// was recorded, holding only block headers.
    pub fn prove_inclusion(&self, tx_hash: &Digest) -> Option<InclusionProof> {
        for block in &self.blocks {
            if let Some(index) = block.transactions.iter().position(|t| &t.hash() == tx_hash) {
                // Same leaf construction as `Block::compute_tx_root`, so
                // the path verifies against the header's tx_root; digests
                // are already cached from validation.
                let leaf_hashes = pds2_par::par_map_indexed(&block.transactions, |_, t| {
                    pds2_crypto::merkle::leaf_hash(t.hash().as_bytes())
                });
                let tree = pds2_crypto::merkle::MerkleTree::from_leaf_hashes(leaf_hashes);
                return Some(InclusionProof {
                    block_height: block.header.height,
                    tx_hash: *tx_hash,
                    proof: tree.prove(index)?,
                });
            }
        }
        None
    }

    /// Applies a block produced by another node: validates it against the
    /// local head, executes its transactions and appends it.
    ///
    /// Execution is deterministic, so after a valid block the local state
    /// root must equal the header's. A [`ChainError::InvalidBlock`]
    /// `"state root mismatch"` therefore means the proposer lied about its
    /// post-state; like a real validator, the caller must halt this
    /// replica (the local state has already executed the block's
    /// transactions and is no longer canonical).
    pub fn apply_external_block(&mut self, block: &Block) -> Result<(), ChainError> {
        self.validate_external_block(block)?;
        let height = block.header.height;
        let env = BlockEnv {
            height,
            base_fee: block.header.base_fee,
            coinbase: crate::address::Address::of(&block.header.proposer),
        };
        let mut receipts = Vec::with_capacity(block.transactions.len());
        for (i, tx) in block.transactions.iter().enumerate() {
            let hash = tx.hash();
            let trace = self
                .tx_traces
                .get(&hash)
                .map(|(ctx, _)| *ctx)
                .unwrap_or(self.trace_ctx);
            receipts.push(self.state.apply_transaction_env(
                &self.registry,
                tx,
                &env,
                i as u32,
                trace,
            ));
        }
        let gas_used: u64 = receipts.iter().map(|r| r.gas_used).sum();
        if gas_used != block.header.gas_used {
            return Err(ChainError::InvalidBlock("gas used mismatch"));
        }
        if self.state.state_root() != block.header.state_root {
            return Err(ChainError::InvalidBlock("state root mismatch"));
        }
        self.next_base_fee =
            gas::next_base_fee(block.header.base_fee, gas_used, self.config.block_gas_limit);
        pds2_obs::gauge!("chain.base_fee").set(self.next_base_fee as f64);
        for receipt in receipts {
            self.events.extend(receipt.events.iter().cloned());
            self.seen.insert(receipt.tx_hash);
            self.receipts.insert(receipt.tx_hash, receipt);
        }
        // Drop any mempool copies of the included transactions, and close
        // out their pending trace records (submit-to-inclusion hops).
        let pool_len = {
            let mut pool = self.mempool.lock();
            for tx in &block.transactions {
                pool.remove_by_hash(&tx.hash());
            }
            pool.len()
        };
        Self::publish_mempool_gauge(pool_len);
        for tx in &block.transactions {
            let hash = tx.hash();
            if let Some((ctx, submitted_at)) = self.tx_traces.remove(&hash) {
                pds2_obs::trace_event!(
                    "chain",
                    "tx.included",
                    pds2_obs::Stamp::Block(height),
                    ctx,
                    "tx" => digest_tag(&hash),
                    "blocks_waited" => height.saturating_sub(submitted_at),
                );
            }
        }
        self.blocks.push(block.clone());
        self.persist_block(block);
        self.maybe_snapshot();
        pds2_obs::counter!("chain.blocks_applied").inc();
        pds2_obs::trace_event!(
            "chain",
            "apply_block",
            pds2_obs::Stamp::Block(height),
            self.trace_ctx,
            "txs" => block.transactions.len(),
        );
        Ok(())
    }

    /// Applies a run of external blocks, pipelining signature
    /// verification against state application: while block `i` executes,
    /// a helper thread pre-verifies block `i+1`'s header and transaction
    /// signatures, warming [`crate::sigcache`] so `i+1`'s validation pass
    /// hits the cache instead of re-paying the exponentiations.
    ///
    /// Verification is a pure function of the block bytes and the cache
    /// only short-circuits signatures that full verification would also
    /// accept, so the chain state after this call is bit-identical to
    /// applying the blocks serially — at any `PDS2_THREADS` setting. With
    /// one worker thread (or a single block) it *is* the serial loop.
    ///
    /// Returns the number of blocks applied; stops at the first error.
    pub fn apply_external_blocks_pipelined(
        &mut self,
        blocks: &[Block],
    ) -> Result<usize, (usize, ChainError)> {
        if pds2_par::current_threads() <= 1 || blocks.len() <= 1 {
            for (i, b) in blocks.iter().enumerate() {
                self.apply_external_block(b).map_err(|e| (i, e))?;
            }
            return Ok(blocks.len());
        }
        let group_key = self.threshold.as_ref().map(|c| c.group_public().clone());
        std::thread::scope(|scope| {
            let mut warm: Option<std::thread::ScopedJoinHandle<'_, ()>> = None;
            for (i, b) in blocks.iter().enumerate() {
                if let Some(next) = blocks.get(i + 1) {
                    let group_key = group_key.as_ref();
                    warm = Some(scope.spawn(move || {
                        // Results are irrelevant here: either outcome
                        // leaves the sigcache warmed for the real check
                        // (against whichever key this mode verifies).
                        let _ = match group_key {
                            Some(k) => next.header.verify_signature_with(k),
                            None => next.header.verify_signature(),
                        };
                        for tx in &next.transactions {
                            let _ = tx.verify_signature();
                        }
                    }));
                }
                let res = self.apply_external_block(b);
                if let Some(h) = warm.take() {
                    let _ = h.join();
                }
                res.map_err(|e| (i, e))?;
            }
            Ok(blocks.len())
        })
    }

    /// Feeds transactions from orphaned blocks (or a pre-fork mempool)
    /// back through submission after a reorg. Transactions the new chain
    /// already includes, whose nonces it already consumed, or that fail
    /// any other admission check are silently skipped — they are either
    /// redundant or unusable on this fork. Returns how many re-entered
    /// the pool.
    pub fn reinstate_transactions(
        &mut self,
        txs: impl IntoIterator<Item = SignedTransaction>,
    ) -> usize {
        let mut reinstated = 0;
        for tx in txs {
            if self.submit(tx).is_ok() {
                reinstated += 1;
            }
        }
        if reinstated > 0 {
            pds2_obs::counter!("chain.txs_reinstated").add(reinstated as u64);
        }
        reinstated
    }

    // ------------------------------------------------------------------
    // Durable store: journaling, snapshots and crash recovery
    // ------------------------------------------------------------------

    /// Attaches a durable store. Blocks the log does not yet hold are
    /// backfilled, then every produced/applied block (and admitted
    /// transaction) is appended as it happens, with a full state
    /// snapshot every `snapshot_every` blocks.
    pub fn attach_store(&mut self, store: Arc<Mutex<ChainLog>>, snapshot_every: u64) {
        {
            let mut log = store.lock();
            let persisted = log
                .scan()
                .frames
                .iter()
                .filter(|f| f.kind == FRAME_BLOCK)
                .count();
            for block in self.blocks.iter().skip(persisted) {
                let digest = Self::stored_receipts_digest(&self.receipts, block);
                log.append(
                    FRAME_BLOCK,
                    block.header.height,
                    &Self::block_frame(block, &digest),
                );
            }
        }
        self.store = Some(store);
        self.snapshot_every = snapshot_every;
        self.maybe_snapshot();
    }

    /// Whether a durable store is attached.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// Block-frame payload: block bytes + receipts digest.
    fn block_frame(block: &Block, receipts: &Digest) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_bytes(&block.to_bytes());
        enc.put_digest(receipts);
        enc.finish()
    }

    fn decode_block_frame(payload: &[u8]) -> Option<(Block, Digest)> {
        let mut dec = Decoder::new(payload);
        let block = Block::from_bytes(&dec.get_bytes().ok()?).ok()?;
        let digest = dec.get_digest().ok()?;
        dec.expect_end().ok()?;
        Some((block, digest))
    }

    /// Receipts digest of a block from the chain's receipt map.
    fn stored_receipts_digest(receipts: &HashMap<Digest, TxReceipt>, block: &Block) -> Digest {
        receipts_digest(
            block
                .transactions
                .iter()
                .filter_map(|tx| receipts.get(&tx.hash())),
        )
    }

    fn persist_block(&self, block: &Block) {
        let Some(store) = &self.store else { return };
        let digest = Self::stored_receipts_digest(&self.receipts, block);
        store.lock().append(
            FRAME_BLOCK,
            block.header.height,
            &Self::block_frame(block, &digest),
        );
    }

    fn maybe_snapshot(&mut self) {
        if self.snapshot_every == 0
            || self.height() == 0
            || !self.height().is_multiple_of(self.snapshot_every)
        {
            return;
        }
        let Some(store) = &self.store else { return };
        let height = self.height();
        let bytes = self.snapshot_bytes();
        store.lock().write_snapshot(height, bytes);
        pds2_obs::counter!("chain.snapshots_written").inc();
    }

    /// Serializes the chain tip for a recovery snapshot: height, fee
    /// state and the complete world state.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u64(self.height());
        enc.put_u64(self.next_base_fee);
        self.state.encode_snapshot(&mut enc);
        enc.finish()
    }

    /// Restores the tip state (fee + world state) from snapshot bytes.
    /// Blocks, receipts and events are NOT in the snapshot — the caller
    /// loads the block prefix from the log.
    fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<u64, String> {
        let mut dec = Decoder::new(bytes);
        let height = dec.get_u64().map_err(|e| format!("snapshot: {e:?}"))?;
        let next_base_fee = dec.get_u64().map_err(|e| format!("snapshot: {e:?}"))?;
        let state = WorldState::decode_snapshot(&mut dec, &self.registry)?;
        dec.expect_end().map_err(|e| format!("snapshot: {e:?}"))?;
        self.state = state;
        self.next_base_fee = next_base_fee;
        Ok(height)
    }

    /// Rebuilds a crashed node from its durable store: restore the
    /// latest snapshot (falling back to genesis replay if it is missing
    /// or corrupt), replay the block log from there — re-validating
    /// every block and checking each frame's receipts digest against the
    /// re-derived receipts — then reinstate journaled transactions the
    /// chain does not already include. The log's torn tail, if any, is
    /// truncated first.
    ///
    /// `genesis` must be the same construction the crashed node started
    /// from (validators, allocations, registry, config);
    /// `snapshot_every` re-arms the snapshot cadence going forward.
    pub fn recover_from_store(
        genesis: Blockchain,
        store: Arc<Mutex<ChainLog>>,
        snapshot_every: u64,
    ) -> Blockchain {
        let mut chain = genesis;
        chain.store = None; // no re-journaling while replaying
        let (snapshot, frames) = {
            let mut log = store.lock();
            let scan = log.repair();
            (log.snapshot().map(|(h, b)| (h, b.to_vec())), scan.frames)
        };
        // Snapshot fast path: restore the tip state and load the block
        // prefix raw (no re-execution; pre-snapshot receipts and events
        // are not retained).
        let mut replay_from = 0u64;
        if let Some((_, bytes)) = snapshot {
            match chain.restore_snapshot(&bytes) {
                Ok(height) => {
                    replay_from = height;
                    for frame in &frames {
                        if frame.kind != FRAME_BLOCK || frame.height >= height {
                            continue;
                        }
                        let Some((block, _)) = Self::decode_block_frame(&frame.payload) else {
                            continue;
                        };
                        for tx in &block.transactions {
                            chain.seen.insert(tx.hash());
                        }
                        chain.blocks.push(block);
                    }
                }
                Err(_) => {
                    pds2_obs::counter!("chain.snapshot_restore_failed").inc();
                    replay_from = 0;
                }
            }
        }
        // Replay the tail through full validation + execution.
        for frame in &frames {
            if frame.kind != FRAME_BLOCK || frame.height < replay_from {
                continue;
            }
            let Some((block, expected_receipts)) = Self::decode_block_frame(&frame.payload) else {
                break;
            };
            if chain.apply_external_block(&block).is_err() {
                break;
            }
            if Self::stored_receipts_digest(&chain.receipts, &block) != expected_receipts {
                // Replay diverged from the pre-crash execution — the log
                // is not trustworthy past this point.
                break;
            }
        }
        // Reinstate journaled transactions; `submit` dedups everything
        // the replayed chain already included (via `seen`).
        let mut reinstated = 0usize;
        for frame in &frames {
            if frame.kind != FRAME_TX {
                continue;
            }
            let Ok(tx) = SignedTransaction::from_bytes(&frame.payload) else {
                continue;
            };
            if chain.submit(tx).is_ok() {
                reinstated += 1;
            }
        }
        if reinstated > 0 {
            pds2_obs::counter!("chain.txs_reinstated").add(reinstated as u64);
        }
        pds2_obs::counter!("chain.recoveries").inc();
        // Only now re-arm persistence (attaching earlier would duplicate
        // every replayed frame).
        chain.attach_store(store, snapshot_every);
        chain
    }

    // ------------------------------------------------------------------
    // Authenticated light-client reads
    // ------------------------------------------------------------------

    /// Produces an authenticated account read: the account (if any) plus
    /// a Merkle (non-)inclusion proof against the current state root.
    /// Light clients verify with [`verify_account_proof`] holding only a
    /// validated block header.
    pub fn prove_account(&self, addr: &crate::address::Address) -> AccountProof {
        let (value, proof) = self.state.prove_leaf(&LeafKey::Account(*addr));
        let account = value.map(|b| Account::from_bytes(&b).expect("canonical account encoding"));
        AccountProof { account, proof }
    }

    /// Produces an authenticated NFT read (ownership of datasets and
    /// workload code, §III-A): metadata plus (non-)inclusion proof.
    pub fn prove_nft(
        &self,
        id: crate::erc721::NftId,
    ) -> (Option<crate::erc721::NftInfo>, SmtProof) {
        let (value, proof) = self.state.prove_leaf(&LeafKey::Erc721Token(id));
        let info =
            value.map(|b| crate::erc721::NftInfo::from_bytes(&b).expect("canonical NFT encoding"));
        (info, proof)
    }
}

/// An authenticated account read (see [`Blockchain::prove_account`]).
#[derive(Clone, Debug)]
pub struct AccountProof {
    /// The account, or `None` with a proof of absence.
    pub account: Option<Account>,
    /// Merkle (non-)inclusion proof against the state root.
    pub proof: SmtProof,
}

/// Verifies an [`AccountProof`] against a trusted state root (from a
/// validated block header). Checks inclusion of the account's canonical
/// encoding, or absence when the proof carries no account.
pub fn verify_account_proof(
    state_root: &Digest,
    addr: &crate::address::Address,
    proof: &AccountProof,
) -> bool {
    let key = LeafKey::Account(*addr).digest();
    match &proof.account {
        Some(acct) => {
            crate::smt::verify_proof(state_root, &key, Some(&acct.to_bytes()), &proof.proof)
        }
        None => crate::smt::verify_proof(state_root, &key, None, &proof.proof),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::tx::{Transaction, TxKind};

    fn signed_transfer(kp: &KeyPair, nonce: u64, to: Address, amount: u128) -> SignedTransaction {
        fee_transfer(kp, nonce, to, amount, 0, 0)
    }

    fn fee_transfer(
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

    fn test_chain(alice: &KeyPair) -> Blockchain {
        Blockchain::single_validator(
            1000,
            &[(Address::of(&alice.public), 1_000_000)],
            ContractRegistry::new(),
        )
    }

    #[test]
    fn produce_empty_block() {
        let alice = KeyPair::from_seed(1);
        let mut chain = test_chain(&alice);
        let b = chain.produce_block();
        assert_eq!(b.header.height, 0);
        assert_eq!(b.header.parent, Digest::ZERO);
        assert!(b.transactions.is_empty());
        assert_eq!(chain.height(), 1);
    }

    #[test]
    fn submit_and_include() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        let tx = signed_transfer(&alice, 0, bob, 500);
        let hash = chain.submit(tx).unwrap();
        assert_eq!(chain.mempool_len(), 1);
        let b = chain.produce_block();
        assert_eq!(b.transactions.len(), 1);
        assert_eq!(chain.mempool_len(), 0);
        let receipt = chain.receipt(&hash).unwrap();
        assert!(receipt.success);
        assert_eq!(chain.state.balance(&bob), 500);
    }

    #[test]
    fn duplicate_submission_rejected() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        let tx = signed_transfer(&alice, 0, bob, 1);
        chain.submit(tx.clone()).unwrap();
        assert_eq!(chain.submit(tx), Err(ChainError::Duplicate));
    }

    #[test]
    fn duplicate_with_corrupted_signature_still_rejected() {
        // The duplicate check runs before the signature check, so a known
        // body never reaches the verifier; it must be refused all the same.
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        let tx = signed_transfer(&alice, 0, bob, 1);
        chain.submit(tx.clone()).unwrap();
        let mut forged = tx.signature.clone();
        forged.s = forged.s.add(&pds2_crypto::BigUint::one());
        let forged = SignedTransaction::new(tx.tx.clone(), forged);
        assert!(!forged.verify_signature());
        assert_eq!(chain.submit(forged.clone()), Err(ChainError::Duplicate));
        assert_eq!(chain.mempool_len(), 1);
        // Still refused once the original is included.
        chain.produce_block();
        assert_eq!(chain.submit(forged), Err(ChainError::Duplicate));
        assert_eq!(chain.mempool_len(), 0);
    }

    #[test]
    fn invalid_signature_rejected_at_submission() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        let mut tx = signed_transfer(&alice, 0, bob, 1);
        tx.tx.nonce = 1; // tamper
        assert_eq!(chain.submit(tx), Err(ChainError::InvalidSignature));
    }

    #[test]
    fn stale_nonce_rejected_at_submission() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        chain.submit(signed_transfer(&alice, 0, bob, 1)).unwrap();
        chain.produce_block();
        let stale = signed_transfer(&alice, 0, bob, 2);
        assert!(matches!(
            chain.submit(stale),
            Err(ChainError::StaleNonce {
                expected: 1,
                got: 0
            })
        ));
    }

    #[test]
    fn future_nonce_waits_for_gap_fill() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        // Submit nonce 1 before nonce 0.
        chain.submit(signed_transfer(&alice, 1, bob, 10)).unwrap();
        let b = chain.produce_block();
        assert!(b.transactions.is_empty(), "gap: nothing included");
        assert_eq!(chain.mempool_len(), 1, "future tx retained");
        chain.submit(signed_transfer(&alice, 0, bob, 5)).unwrap();
        let b = chain.produce_block();
        assert_eq!(b.transactions.len(), 2, "both included in order");
        assert_eq!(chain.state.balance(&bob), 15);
    }

    #[test]
    fn round_robin_proposers() {
        let alice = KeyPair::from_seed(1);
        let validators: Vec<KeyPair> = (0..3).map(|i| KeyPair::from_seed(2000 + i)).collect();
        let pubs: Vec<PublicKey> = validators.iter().map(|v| v.public.clone()).collect();
        let mut chain = Blockchain::new(
            validators,
            &[(Address::of(&alice.public), 1000)],
            ContractRegistry::new(),
            ChainConfig::default(),
        );
        for expected in [0usize, 1, 2, 0, 1] {
            let b = chain.produce_block();
            assert_eq!(b.header.proposer, pubs[expected]);
        }
    }

    fn mode_chain(sig_mode: SigMode, alice: &KeyPair) -> Blockchain {
        let validators: Vec<KeyPair> = (0..4).map(|i| KeyPair::from_seed(2100 + i)).collect();
        Blockchain::new(
            validators,
            &[(Address::of(&alice.public), 1_000_000)],
            ContractRegistry::new(),
            ChainConfig {
                sig_mode,
                ..ChainConfig::default()
            },
        )
    }

    #[test]
    fn threshold_mode_agrees_with_single_mode_block_for_block() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut single = mode_chain(SigMode::Single, &alice);
        let mut threshold = mode_chain(SigMode::Threshold, &alice);
        for h in 0..5u64 {
            for c in [&mut single, &mut threshold] {
                c.submit(signed_transfer(&alice, h, bob, 10 + h as u128))
                    .unwrap();
            }
            let bs = single.produce_block();
            let bt = threshold.produce_block();
            // The differential oracle: everything but the signature is
            // bit-identical — proposer (and thus coinbase), roots, fees.
            assert_eq!(bs.header.state_root, bt.header.state_root, "h={h}");
            assert_eq!(bs.header.tx_root, bt.header.tx_root);
            assert_eq!(bs.header.proposer, bt.header.proposer);
            assert_eq!(bs.header.base_fee, bt.header.base_fee);
            assert_ne!(bs.header.signature, bt.header.signature);
            // The threshold seal verifies only against the group key.
            assert!(!bt.header.verify_signature(), "not the proposer's sig");
            let ctx = crate::threshold::committee_for(&threshold.validator_set());
            assert!(bt.header.verify_signature_with(ctx.group_public()));
        }
        assert_eq!(single.state.state_root(), threshold.state.state_root());
    }

    #[test]
    fn threshold_validator_rejects_single_key_seal() {
        let alice = KeyPair::from_seed(1);
        let mut threshold = mode_chain(SigMode::Threshold, &alice);
        // A proposer gone rogue seals with its own key instead of
        // gathering a quorum: every honest threshold validator rejects.
        let single = mode_chain(SigMode::Single, &alice);
        let mut shadow = mode_chain(SigMode::Single, &alice);
        let forged = shadow.produce_block();
        drop(single);
        assert_eq!(
            threshold.validate_external_block(&forged),
            Err(ChainError::InvalidBlock("bad header signature"))
        );
        // And the genuine threshold seal is accepted.
        let mut shadow_t = mode_chain(SigMode::Threshold, &alice);
        let good = shadow_t.produce_block();
        threshold.validate_external_block(&good).unwrap();
        threshold.apply_external_block(&good).unwrap();
    }

    #[test]
    fn chain_links_parents() {
        let alice = KeyPair::from_seed(1);
        let mut chain = test_chain(&alice);
        let b0 = chain.produce_block();
        let b1 = chain.produce_block();
        assert_eq!(b1.header.parent, b0.header.hash());
        assert_eq!(b1.header.timestamp, 12);
    }

    #[test]
    fn external_block_validation_rejects_tampering() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        chain.submit(signed_transfer(&alice, 0, bob, 5)).unwrap();

        // Build a *valid* candidate block on a clone of the chain.
        let mut shadow = test_chain(&alice);
        shadow.submit(signed_transfer(&alice, 0, bob, 5)).unwrap();
        let good = shadow.produce_block();
        chain.validate_external_block(&good).unwrap();

        // Tamper with the body.
        let mut bad = good.clone();
        bad.transactions.clear();
        assert_eq!(
            chain.validate_external_block(&bad),
            Err(ChainError::InvalidBlock("tx root mismatch"))
        );

        // Wrong proposer.
        let rogue = KeyPair::from_seed(666);
        let mut forged = good.clone();
        forged.header = BlockHeader::new_signed(
            &rogue,
            forged.header.height,
            forged.header.parent,
            forged.header.state_root,
            forged.header.tx_root,
            forged.header.timestamp,
            forged.header.base_fee,
            forged.header.gas_used,
        );
        assert_eq!(
            chain.validate_external_block(&forged),
            Err(ChainError::WrongProposer)
        );

        // Wrong height.
        let mut wrong_height = good.clone();
        wrong_height.header.height = 7;
        assert!(chain.validate_external_block(&wrong_height).is_err());
    }

    #[test]
    fn block_gas_limit_defers_transactions() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = Blockchain::new(
            vec![KeyPair::from_seed(1000)],
            &[(Address::of(&alice.public), 1_000_000)],
            ContractRegistry::new(),
            ChainConfig {
                block_gas_limit: 150_000, // fits one 100k-gas tx only
                ..Default::default()
            },
        );
        chain.submit(signed_transfer(&alice, 0, bob, 1)).unwrap();
        chain.submit(signed_transfer(&alice, 1, bob, 1)).unwrap();
        let b = chain.produce_block();
        assert_eq!(b.transactions.len(), 1);
        assert_eq!(chain.mempool_len(), 1);
        let b = chain.produce_block();
        assert_eq!(b.transactions.len(), 1);
    }

    #[test]
    fn produce_until_empty_drains_pool() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        for nonce in 0..5 {
            chain
                .submit(signed_transfer(&alice, nonce, bob, 1))
                .unwrap();
        }
        let produced = chain.produce_until_empty(100);
        assert!(produced >= 1);
        assert_eq!(chain.mempool_len(), 0);
        assert_eq!(chain.state.balance(&bob), 5);
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

    #[test]
    fn inclusion_proofs_verify_against_headers() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        let mut hashes = Vec::new();
        for nonce in 0..5 {
            hashes.push(
                chain
                    .submit(signed_transfer(&alice, nonce, bob, 1))
                    .unwrap(),
            );
        }
        chain.produce_block();
        let header = &chain.block(0).unwrap().header.clone();
        for h in &hashes {
            let proof = chain.prove_inclusion(h).expect("included");
            assert!(proof.verify(header), "proof for {h}");
            assert_eq!(proof.block_height, 0);
        }
        // Unknown tx: no proof.
        assert!(chain
            .prove_inclusion(&pds2_crypto::sha256(b"ghost"))
            .is_none());
        // A proof does not verify against the wrong header.
        chain.submit(signed_transfer(&alice, 5, bob, 1)).unwrap();
        chain.produce_block();
        let other_header = &chain.block(1).unwrap().header;
        let proof = chain.prove_inclusion(&hashes[0]).unwrap();
        assert!(!proof.verify(other_header));
    }

    #[test]
    fn inclusion_proof_rejects_forged_tx_hash() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        let h = chain.submit(signed_transfer(&alice, 0, bob, 1)).unwrap();
        chain.produce_block();
        let header = chain.block(0).unwrap().header.clone();
        let mut proof = chain.prove_inclusion(&h).unwrap();
        proof.tx_hash = pds2_crypto::sha256(b"forged");
        assert!(!proof.verify(&header));
    }

    #[test]
    fn unfittable_gas_limit_rejected_at_submit() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        let tx = Transaction {
            from: alice.public.clone(),
            nonce: 0,
            kind: TxKind::Transfer { to: bob, amount: 1 },
            gas_limit: 30_000_001, // above the 30M block gas limit
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(&alice);
        let err = chain.submit(tx.clone()).unwrap_err();
        assert!(matches!(
            err,
            ChainError::Submit(crate::mempool::SubmitError::GasLimitTooHigh { .. })
        ));
        assert_eq!(chain.mempool_len(), 0);
        // The rejected hash is not burned into `seen`: a corrected
        // resubmission is not a Duplicate.
        let ok = signed_transfer(&alice, 0, bob, 1);
        chain.submit(ok).unwrap();
        // And the old unfittable tx still fails for its own reason.
        assert!(matches!(chain.submit(tx), Err(ChainError::Submit(_))));
    }

    #[test]
    fn produce_until_empty_breaks_on_stuck_pool() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        // Nonce 1 with no nonce 0: can never be included.
        chain.submit(signed_transfer(&alice, 1, bob, 1)).unwrap();
        let produced = chain.produce_until_empty(100);
        assert_eq!(produced, 1, "one no-progress round, then stop");
        assert_eq!(chain.mempool_len(), 1, "gapped tx stays pending");
    }

    #[test]
    fn blocks_order_by_effective_tip() {
        let keys: Vec<KeyPair> = (1..=3).map(KeyPair::from_seed).collect();
        let bob = Address::of(&KeyPair::from_seed(99).public);
        let alloc: Vec<(Address, u128)> = keys
            .iter()
            .map(|k| (Address::of(&k.public), 1_000_000_000))
            .collect();
        let mut chain = Blockchain::new(
            vec![KeyPair::from_seed(1000)],
            &alloc,
            ContractRegistry::new(),
            ChainConfig::default(),
        );
        chain
            .submit(fee_transfer(&keys[0], 0, bob, 1, 10, 2))
            .unwrap();
        chain
            .submit(fee_transfer(&keys[1], 0, bob, 1, 10, 9))
            .unwrap();
        chain
            .submit(fee_transfer(&keys[2], 0, bob, 1, 10, 5))
            .unwrap();
        let b = chain.produce_block();
        let tips: Vec<u64> = b
            .transactions
            .iter()
            .map(|t| t.tx.priority_fee_per_gas)
            .collect();
        assert_eq!(tips, [9, 5, 2], "highest tip first at base fee 0");
    }

    #[test]
    fn base_fee_rises_under_load_and_decays_when_idle() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = Blockchain::new(
            vec![KeyPair::from_seed(1000)],
            &[(Address::of(&alice.public), u128::MAX / 2)],
            ContractRegistry::new(),
            ChainConfig {
                // Target is 20k gas; one ~23k-gas transfer per block keeps
                // every block above target, driving the fee up.
                block_gas_limit: 40_000,
                initial_base_fee: 1_000,
                ..Default::default()
            },
        );
        for nonce in 0..3 {
            let tx = Transaction {
                from: alice.public.clone(),
                nonce,
                kind: TxKind::Transfer { to: bob, amount: 1 },
                gas_limit: 30_000,
                max_fee_per_gas: 1_000_000,
                priority_fee_per_gas: 1,
            }
            .sign(&alice);
            chain.submit(tx).unwrap();
        }
        assert_eq!(chain.base_fee(), 1_000);
        let mut fees = Vec::new();
        for _ in 0..3 {
            let b = chain.produce_block();
            assert_eq!(b.transactions.len(), 1);
            fees.push(chain.base_fee());
        }
        assert!(
            fees.windows(2).all(|w| w[1] > w[0]),
            "congested blocks push the fee up: {fees:?}"
        );
        let congested = chain.base_fee();
        chain.produce_block(); // empty
        assert!(chain.base_fee() < congested, "idle block decays the fee");
        // Burned supply is positive and conservation holds with it.
        assert!(chain.state.burned() > 0);
    }

    #[test]
    fn fee_market_conserves_supply_plus_burn() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = Blockchain::new(
            vec![KeyPair::from_seed(1000)],
            &[(Address::of(&alice.public), 1_000_000_000_000)],
            ContractRegistry::new(),
            ChainConfig {
                initial_base_fee: 5,
                ..Default::default()
            },
        );
        for nonce in 0..10 {
            chain
                .submit(fee_transfer(&alice, nonce, bob, 100, 50, 3))
                .unwrap();
        }
        chain.produce_until_empty(10);
        assert!(chain.state.burned() > 0, "base fee burned something");
        assert_eq!(
            chain.state.total_native_supply() + chain.state.burned(),
            1_000_000_000_000,
            "supply + burned is invariant"
        );
        // The proposer collected tips.
        let coinbase = Address::of(&KeyPair::from_seed(1000).public);
        assert!(chain.state.balance(&coinbase) > 0);
    }

    #[test]
    fn mempool_eviction_frees_room_for_better_fees() {
        let keys: Vec<KeyPair> = (1..=3).map(KeyPair::from_seed).collect();
        let bob = Address::of(&KeyPair::from_seed(99).public);
        let alloc: Vec<(Address, u128)> = keys
            .iter()
            .map(|k| (Address::of(&k.public), 1_000_000_000))
            .collect();
        let mut chain = Blockchain::new(
            vec![KeyPair::from_seed(1000)],
            &alloc,
            ContractRegistry::new(),
            ChainConfig {
                mempool_capacity: 2,
                ..Default::default()
            },
        );
        let cheap = fee_transfer(&keys[0], 0, bob, 1, 1, 0);
        let cheap_hash = cheap.hash();
        chain.submit(cheap).unwrap();
        chain
            .submit(fee_transfer(&keys[1], 0, bob, 1, 50, 1))
            .unwrap();
        // Pool full; a better-paying arrival displaces the cheapest.
        chain
            .submit(fee_transfer(&keys[2], 0, bob, 1, 80, 2))
            .unwrap();
        assert_eq!(chain.mempool_len(), 2);
        // The evicted tx can be resubmitted (repriced) — not a Duplicate.
        let repriced = fee_transfer(&keys[0], 0, bob, 1, 90, 3);
        assert_ne!(repriced.hash(), cheap_hash);
        chain.submit(repriced).unwrap();
    }

    #[test]
    fn pipelined_apply_matches_serial() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        // Produce a small chain on one node...
        let mut producer = test_chain(&alice);
        let mut blocks = Vec::new();
        for nonce in 0..6u64 {
            producer
                .submit(signed_transfer(&alice, nonce, bob, 10))
                .unwrap();
            blocks.push(producer.produce_block());
        }
        // ...and replay it onto two fresh replicas, serially and pipelined.
        let mut serial = test_chain(&alice);
        for b in &blocks {
            serial.apply_external_block(b).unwrap();
        }
        crate::sigcache::clear();
        let mut pipelined = test_chain(&alice);
        let n = pipelined.apply_external_blocks_pipelined(&blocks).unwrap();
        assert_eq!(n, blocks.len());
        assert_eq!(pipelined.height(), serial.height());
        assert_eq!(pipelined.head_hash(), serial.head_hash());
        assert_eq!(
            pipelined.state.state_root(),
            serial.state.state_root(),
            "bit-identical state after pipelined apply"
        );
        assert_eq!(pipelined.base_fee(), serial.base_fee());
    }

    #[test]
    fn reinstate_skips_included_and_readmits_the_rest() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        let t0 = signed_transfer(&alice, 0, bob, 1);
        let t1 = signed_transfer(&alice, 1, bob, 1);
        chain.submit(t0.clone()).unwrap();
        chain.produce_block(); // includes t0
        let reinstated = chain.reinstate_transactions(vec![t0, t1]);
        assert_eq!(reinstated, 1, "t0 already included, t1 re-enters");
        assert_eq!(chain.mempool_len(), 1);
    }

    #[test]
    fn native_supply_is_conserved() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        for nonce in 0..10 {
            chain
                .submit(signed_transfer(&alice, nonce, bob, 100))
                .unwrap();
        }
        chain.produce_until_empty(10);
        assert_eq!(chain.state.total_native_supply(), 1_000_000);
    }
}
