//! Block synchronisation over the simulated network.
//!
//! [`ChainReplica`] wraps a [`Blockchain`] in a [`pds2_net::Node`] so a
//! committee of replicas keeps converging under the fault plans of
//! `pds2-net`: missed-block catch-up after partitions, fork choice on
//! rejoin (rebuild from genesis, adopt the longest *valid* chain), and
//! crash-stop recovery (volatile state is wiped, the replica resyncs
//! from its peers).
//!
//! The protocol is deliberately simple — this is PoA with round-robin
//! proposers, so at most one honest node produces a given height and
//! honest forks cannot occur. What the chaos tests exercise is the
//! *repair* machinery:
//!
//! * a proposer whose turn arrives broadcasts [`SyncMsg::NewBlock`];
//! * every replica periodically broadcasts [`SyncMsg::Announce`] with
//!   its height; a peer that is behind answers with a
//!   [`SyncMsg::Request`], and the head replies with the missing suffix
//!   in a [`SyncMsg::Blocks`] batch;
//! * corrupted blocks (byzantine links flip bits in flight) fail
//!   validation and are counted in [`ChainReplica::blocks_rejected`],
//!   never applied; a block refused only after it executed (a proposer
//!   that signed a wrong root) is counted too, and
//!   [`Blockchain::apply_external_block`] has already rolled its writes
//!   back, so the replica holds the chain it held before;
//! * a crashed replica loses everything but its keys and config
//!   ([`crate::chain::Blockchain`] is rebuilt from the genesis factory)
//!   and resynchronises on recovery before it is allowed to propose
//!   again — unless it was built with [`ChainReplica::new_persistent`],
//!   in which case it first restores snapshot + log from its durable
//!   [`ChainLog`] and only fetches the missing suffix from peers.
//!
//! A harness that finds two replicas apart asks
//! [`ChainReplica::first_divergent_height`], which reads the
//! `(height, block hash)` pairs off the two chains when asked: the
//! replica keeps no second record of the blocks it holds.

use crate::block::Block;
use crate::chain::{Blockchain, ChainError};
use parking_lot::Mutex;
use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use pds2_crypto::sha256::Digest;
use pds2_net::{Ctx, Node, NodeId};
use pds2_storage::chainlog::ChainLog;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Messages exchanged by chain replicas.
#[derive(Clone, Debug)]
pub enum SyncMsg {
    /// A freshly produced block, broadcast by its proposer.
    NewBlock(Block),
    /// "Send me your blocks from this height on."
    Request {
        /// First height the requester is missing.
        from_height: u64,
    },
    /// A batch of consecutive blocks answering a [`SyncMsg::Request`].
    Blocks(Vec<Block>),
    /// Periodic head gossip driving catch-up.
    Announce {
        /// The announcer's chain height.
        height: u64,
    },
}

/// Message-kind tags (used for targeted drops and the trace).
pub mod kind {
    /// [`super::SyncMsg::NewBlock`].
    pub const NEW_BLOCK: u8 = 1;
    /// [`super::SyncMsg::Request`].
    pub const REQUEST: u8 = 2;
    /// [`super::SyncMsg::Blocks`].
    pub const BLOCKS: u8 = 3;
    /// [`super::SyncMsg::Announce`].
    pub const ANNOUNCE: u8 = 4;
}

impl Encode for SyncMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            SyncMsg::NewBlock(b) => {
                enc.put_u8(kind::NEW_BLOCK);
                b.encode(enc);
            }
            SyncMsg::Request { from_height } => {
                enc.put_u8(kind::REQUEST);
                enc.put_u64(*from_height);
            }
            SyncMsg::Blocks(blocks) => {
                enc.put_u8(kind::BLOCKS);
                enc.put_seq(blocks);
            }
            SyncMsg::Announce { height } => {
                enc.put_u8(kind::ANNOUNCE);
                enc.put_u64(*height);
            }
        }
    }
}

impl Decode for SyncMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            kind::NEW_BLOCK => Ok(SyncMsg::NewBlock(Block::decode(dec)?)),
            kind::REQUEST => Ok(SyncMsg::Request {
                from_height: dec.get_u64()?,
            }),
            kind::BLOCKS => Ok(SyncMsg::Blocks(dec.get_seq()?)),
            kind::ANNOUNCE => Ok(SyncMsg::Announce {
                height: dec.get_u64()?,
            }),
            tag => Err(DecodeError::InvalidTag(tag)),
        }
    }
}

/// Factory rebuilding the genesis [`Blockchain`] (same committee, same
/// allocations, same registry) — a crashed replica's durable config.
pub type GenesisFactory = Arc<dyn Fn() -> Blockchain + Send + Sync>;

const TIMER_PRODUCE: u64 = 1;
const TIMER_ANNOUNCE: u64 = 2;

/// One PoA validator (or observer) participating in block sync.
pub struct ChainReplica {
    chain: Blockchain,
    genesis: GenesisFactory,
    /// This replica's slot in the round-robin committee (`None` for a
    /// non-producing observer).
    validator_index: Option<usize>,
    n_validators: usize,
    /// Virtual µs between production attempts.
    produce_interval_us: u64,
    /// Virtual µs between head announcements.
    announce_interval_us: u64,
    /// While `true` the replica is catching up and must not propose
    /// (a stale proposer would re-sign an already-decided height).
    syncing: bool,
    /// Durable store surviving crash-stop faults (`None` = volatile
    /// replica that rebuilds from genesis on crash).
    store: Option<Arc<Mutex<ChainLog>>>,
    /// Snapshot cadence handed to the chain alongside the store.
    snapshot_every: u64,
    /// Blocks produced by this replica.
    pub blocks_produced: u64,
    /// External blocks applied (NewBlock + catch-up batches).
    pub blocks_applied: u64,
    /// External blocks that failed validation (corruption, stale, forged).
    pub blocks_rejected: u64,
    /// Catch-up requests sent.
    pub catchup_requests: u64,
    /// Times the fork-choice rule replaced the local chain wholesale.
    pub forks_adopted: u64,
    /// Transactions from orphaned fork blocks (or the pre-fork mempool)
    /// readmitted into the pool after a fork switch.
    pub txs_reinstated: u64,
}

impl ChainReplica {
    /// Creates a replica from its durable configuration. The chain starts
    /// at the genesis state produced by `genesis`.
    pub fn new(
        genesis: GenesisFactory,
        validator_index: Option<usize>,
        produce_interval_us: u64,
        announce_interval_us: u64,
    ) -> ChainReplica {
        let chain = genesis();
        let n_validators = chain.validator_set().len();
        ChainReplica {
            chain,
            genesis,
            validator_index,
            n_validators,
            produce_interval_us,
            announce_interval_us,
            syncing: false,
            store: None,
            snapshot_every: 0,
            blocks_produced: 0,
            blocks_applied: 0,
            blocks_rejected: 0,
            catchup_requests: 0,
            forks_adopted: 0,
            txs_reinstated: 0,
        }
    }

    /// Creates a replica whose chain journals blocks and admitted
    /// transactions into `store` (snapshotting every `snapshot_every`
    /// blocks). A crash-stop fault then recovers from snapshot + log
    /// replay instead of wiping to genesis — see
    /// [`Blockchain::recover_from_store`].
    pub fn new_persistent(
        genesis: GenesisFactory,
        validator_index: Option<usize>,
        produce_interval_us: u64,
        announce_interval_us: u64,
        store: Arc<Mutex<ChainLog>>,
        snapshot_every: u64,
    ) -> ChainReplica {
        let mut replica = ChainReplica::new(
            genesis,
            validator_index,
            produce_interval_us,
            announce_interval_us,
        );
        replica.chain.attach_store(store.clone(), snapshot_every);
        replica.store = Some(store);
        replica.snapshot_every = snapshot_every;
        replica
    }

    /// The wrapped chain.
    pub fn chain(&self) -> &Blockchain {
        &self.chain
    }

    /// Mutable access (tests inject transactions through this).
    pub fn chain_mut(&mut self) -> &mut Blockchain {
        &mut self.chain
    }

    /// Whether the replica is currently resynchronising.
    pub fn is_syncing(&self) -> bool {
        self.syncing
    }

    /// One `(height, block hash)` digest checkpoint per block the
    /// replica holds, ascending height, read off the chain when asked.
    /// Block hashes commit to their parents, so the list is a
    /// chained-digest sequence: equal entries at height `h` certify
    /// identical chains through `h`.
    pub fn block_checkpoints(&self) -> Vec<(u64, Digest)> {
        let checkpoint = |b: &Block| (b.header.height, b.header.hash());
        self.chain.blocks().iter().map(checkpoint).collect()
    }

    /// First height at which this replica's chain and `other`'s
    /// disagree, or `None` when they are equal; a pure extension
    /// reports the first height only one side holds. Bisects the two
    /// checkpoint lists ([`pds2_obs::diff::first_divergent_height`]),
    /// so chaos harnesses localize a replica divergence to its forking
    /// block without diffing block bodies.
    pub fn first_divergent_height(&self, other: &ChainReplica) -> Option<u64> {
        pds2_obs::diff::first_divergent_height(
            &self.block_checkpoints(),
            &other.block_checkpoints(),
        )
    }

    fn my_turn(&self) -> bool {
        self.validator_index
            .is_some_and(|i| (self.chain.height() as usize) % self.n_validators == i)
    }

    fn broadcast(&self, ctx: &mut Ctx<'_, SyncMsg>, msg: SyncMsg) {
        for to in 0..ctx.n_nodes {
            if to != ctx.id {
                ctx.send(to, msg.clone());
            }
        }
    }

    /// Applies consecutive external blocks in order, skipping any
    /// already-known prefix. Returns `Err` on the first block refused;
    /// the blocks before it stay applied and are counted.
    fn apply_batch(&mut self, blocks: &[Block]) -> Result<(), ChainError> {
        let start = blocks
            .iter()
            .position(|b| b.header.height >= self.chain.height())
            .unwrap_or(blocks.len());
        let blocks = &blocks[start..];
        match self.chain.apply_external_blocks_pipelined(blocks) {
            Ok(n) => {
                self.blocks_applied += n as u64;
                Ok(())
            }
            Err((applied, e)) => {
                self.blocks_applied += applied as u64;
                Err(e)
            }
        }
    }

    /// Fork choice on rejoin: rebuild from genesis and re-validate the
    /// offered chain end to end; adopt it iff it is valid and strictly
    /// longer than the local one. Returns whether the switch happened.
    ///
    /// On a switch, every transaction the abandoned fork carried — in its
    /// orphaned blocks or still pending in its mempool — is fed back
    /// through admission on the adopted chain, so work the doomed fork
    /// accepted is not silently lost: transactions the new chain already
    /// includes (or whose nonce it consumed) drop out as duplicates, the
    /// rest wait in the pool for the next block.
    fn adopt_if_longer(&mut self, blocks: &[Block]) -> bool {
        if blocks.len() as u64 <= self.chain.height() {
            return false;
        }
        let mut candidate = (self.genesis)();
        if candidate.apply_external_blocks_pipelined(blocks).is_err() {
            self.blocks_rejected += 1;
            return false;
        }
        self.blocks_applied += blocks.len() as u64;
        self.forks_adopted += 1;
        let orphaned = std::mem::replace(&mut self.chain, candidate);
        // The candidate was rebuilt from genesis without a store; hand it
        // this replica's journal before reinstating, so the reinstated
        // pool is journaled too.
        if let Some(store) = &self.store {
            self.chain.restart_store(store.clone(), self.snapshot_every);
        }
        let mut reinstated: Vec<crate::tx::SignedTransaction> = Vec::new();
        for block in orphaned.blocks() {
            reinstated.extend(block.transactions.iter().cloned());
        }
        reinstated.extend(orphaned.mempool_txs());
        self.txs_reinstated += self.chain.reinstate(reinstated);
        true
    }
}

impl Node for ChainReplica {
    type Msg = SyncMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SyncMsg>) {
        self.chain.set_trace_ctx(ctx.incoming());
        // Stagger by id so same-instant production/announce rounds keep a
        // stable per-node order without relying on queue tie-breaks.
        ctx.set_timer(self.produce_interval_us + ctx.id as u64, TIMER_PRODUCE);
        ctx.set_timer(self.announce_interval_us + ctx.id as u64, TIMER_ANNOUNCE);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SyncMsg>, tag: u64) {
        self.chain.set_trace_ctx(ctx.incoming());
        match tag {
            TIMER_PRODUCE => {
                if !self.syncing && self.my_turn() {
                    let block = self.chain.produce_block();
                    self.blocks_produced += 1;
                    self.broadcast(ctx, SyncMsg::NewBlock(block));
                }
                ctx.set_timer(self.produce_interval_us, TIMER_PRODUCE);
            }
            TIMER_ANNOUNCE => {
                self.broadcast(
                    ctx,
                    SyncMsg::Announce {
                        height: self.chain.height(),
                    },
                );
                ctx.set_timer(self.announce_interval_us, TIMER_ANNOUNCE);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SyncMsg>, from: NodeId, msg: SyncMsg) {
        // Chain operations triggered by this message (apply, validate,
        // produce) run under the sender's causal context: cross-node hops
        // become parent→child edges in the trace DAG.
        self.chain.set_trace_ctx(ctx.incoming());
        match msg {
            SyncMsg::NewBlock(block) => {
                let height = block.header.height;
                if height == self.chain.height() {
                    match self.chain.apply_external_block(&block) {
                        Ok(()) => {
                            self.blocks_applied += 1;
                            self.syncing = false;
                        }
                        Err(_) => self.blocks_rejected += 1,
                    }
                } else if height > self.chain.height() {
                    // Missed at least one block: ask the proposer for the
                    // gap instead of applying out of order.
                    self.catchup_requests += 1;
                    ctx.send(
                        from,
                        SyncMsg::Request {
                            from_height: self.chain.height(),
                        },
                    );
                }
                // Blocks below our height are stale duplicates: ignore.
            }
            SyncMsg::Request { from_height } => {
                let have = self.chain.height();
                if from_height < have {
                    let batch: Vec<Block> = self.chain.blocks()[from_height as usize..].to_vec();
                    ctx.send(from, SyncMsg::Blocks(batch));
                }
            }
            SyncMsg::Blocks(blocks) => {
                if self.apply_batch(&blocks).is_err() {
                    // The suffix does not extend our chain (we diverged
                    // while isolated, or a block was corrupted in flight).
                    // Re-request the peer's full chain and let the
                    // fork-choice rule arbitrate.
                    self.blocks_rejected += 1;
                    if blocks.first().is_some_and(|b| b.header.height > 0) {
                        self.catchup_requests += 1;
                        ctx.send(from, SyncMsg::Request { from_height: 0 });
                    }
                } else if !blocks.is_empty() {
                    self.syncing = false;
                }
                if blocks.first().is_some_and(|b| b.header.height == 0) {
                    // Full-chain offer: apply fork choice even if the
                    // incremental path failed.
                    self.adopt_if_longer(&blocks);
                    if blocks.len() as u64 <= self.chain.height() {
                        self.syncing = false;
                    }
                }
            }
            SyncMsg::Announce { height } => {
                if height > self.chain.height() {
                    self.catchup_requests += 1;
                    ctx.send(
                        from,
                        SyncMsg::Request {
                            from_height: self.chain.height(),
                        },
                    );
                } else if self.syncing && height <= self.chain.height() {
                    // Nobody visible is ahead of us any more.
                    self.syncing = false;
                }
            }
        }
    }

    /// The length of `msg.to_bytes()`, summed from the parts' lengths:
    /// a message goes to every peer, and encoding it once per recipient
    /// only to count its bytes cost more than the send.
    fn msg_size(msg: &SyncMsg) -> u64 {
        let body = match msg {
            SyncMsg::NewBlock(block) => block.encoded_len(),
            SyncMsg::Request { .. } | SyncMsg::Announce { .. } => 8,
            SyncMsg::Blocks(blocks) => 8 + blocks.iter().map(Block::encoded_len).sum::<usize>(),
        };
        1 + body as u64
    }

    fn msg_kind(msg: &SyncMsg) -> u8 {
        match msg {
            SyncMsg::NewBlock(_) => kind::NEW_BLOCK,
            SyncMsg::Request { .. } => kind::REQUEST,
            SyncMsg::Blocks(_) => kind::BLOCKS,
            SyncMsg::Announce { .. } => kind::ANNOUNCE,
        }
    }

    fn msg_digest(msg: &SyncMsg) -> u64 {
        msg.content_hash().fold_u64()
    }

    /// Byzantine corruption: flip one random bit of the wire encoding and
    /// re-decode. If the mangled bytes no longer parse, the frame is
    /// destroyed; if they do, the receiver gets a structurally valid but
    /// semantically corrupt message its validation must catch.
    fn corrupt_msg(msg: &SyncMsg, rng: &mut StdRng) -> Option<SyncMsg> {
        let mut bytes = msg.to_bytes();
        if bytes.is_empty() {
            return None;
        }
        let bit = rng.random_range(0..bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        SyncMsg::from_bytes(&bytes).ok()
    }

    /// Crash-stop: everything volatile is lost. A persistent replica
    /// recovers from its snapshot + log (journaled but unincluded
    /// transactions re-enter the mempool); a volatile one only keeps its
    /// keys and genesis config (encoded in the factory). Either way the
    /// replica resyncs from peers before proposing again.
    fn on_crash(&mut self) {
        self.chain = match &self.store {
            Some(store) => {
                Blockchain::recover_from_store((self.genesis)(), store.clone(), self.snapshot_every)
            }
            None => (self.genesis)(),
        };
        self.syncing = true;
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, SyncMsg>) {
        self.chain.set_trace_ctx(ctx.incoming());
        // Re-arm timers (the crash dropped the schedule) and ask every
        // peer for the canonical chain before proposing again.
        ctx.set_timer(self.produce_interval_us + ctx.id as u64, TIMER_PRODUCE);
        ctx.set_timer(self.announce_interval_us + ctx.id as u64, TIMER_ANNOUNCE);
        self.catchup_requests += 1;
        self.broadcast(
            ctx,
            SyncMsg::Request {
                from_height: self.chain.height(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::chain::ChainConfig;
    use crate::contract::ContractRegistry;
    use pds2_crypto::KeyPair;

    fn factory() -> GenesisFactory {
        Arc::new(|| {
            Blockchain::new(
                (0..3).map(|i| KeyPair::from_seed(9_000 + i)).collect(),
                &[(Address::of(&KeyPair::from_seed(1).public), 1_000_000)],
                ContractRegistry::new(),
                ChainConfig::default(),
            )
        })
    }

    fn transfer(from: &KeyPair, to: Address, amount: u128) -> crate::tx::SignedTransaction {
        crate::tx::Transaction {
            from: from.public.clone(),
            nonce: 0,
            kind: crate::tx::TxKind::Transfer { to, amount },
            gas_limit: 100_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(from)
    }

    #[test]
    fn sync_msg_codec_roundtrip() {
        let f = factory();
        let mut chain = f();
        let block = chain.produce_block();
        let msgs = [
            SyncMsg::NewBlock(block),
            SyncMsg::Request { from_height: 7 },
            SyncMsg::Blocks(chain.blocks().to_vec()),
            SyncMsg::Announce { height: 3 },
        ];
        for msg in &msgs {
            let back = SyncMsg::from_bytes(&msg.to_bytes()).unwrap();
            assert_eq!(back.to_bytes(), msg.to_bytes());
            assert_eq!(ChainReplica::msg_kind(&back), ChainReplica::msg_kind(msg));
        }
    }

    /// The size a replica reports is its message's encoded length, for
    /// every kind: an empty batch, a decoded block whose transactions have
    /// not been hashed yet, and a block that deploys and calls a contract.
    #[test]
    fn msg_size_is_the_encoded_length() {
        use crate::tx::{Transaction, TxKind};
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = factory()();
        chain.submit(transfer(&alice, bob, 5)).unwrap();
        let block = chain.produce_block();
        let sign = |nonce, kind| {
            Transaction {
                from: alice.public.clone(),
                nonce,
                kind,
                gas_limit: 1_000_000,
                max_fee_per_gas: 9,
                priority_fee_per_gas: 1,
            }
            .sign(&alice)
        };
        let deploy = TxKind::Deploy {
            code_id: "counter".into(),
            init: vec![1, 2, 3],
        };
        let call = TxKind::Call {
            contract: Address::contract(&Address::of(&alice.public), 1),
            input: vec![0; 40],
            value: 7,
        };
        let contracts = Block {
            header: block.header.clone(),
            transactions: vec![sign(1, deploy), sign(2, call)],
        };
        let cold = || Block::from_bytes(&block.to_bytes()).unwrap();
        let msgs = [
            SyncMsg::NewBlock(block.clone()),
            SyncMsg::NewBlock(cold()),
            SyncMsg::NewBlock(contracts.clone()),
            SyncMsg::Request { from_height: 7 },
            SyncMsg::Blocks(Vec::new()),
            SyncMsg::Blocks(vec![cold(), contracts, block]),
            SyncMsg::Announce { height: u64::MAX },
        ];
        for (i, msg) in msgs.iter().enumerate() {
            let size = ChainReplica::msg_size(msg);
            assert_eq!(size, msg.to_bytes().len() as u64, "message {i}");
        }
    }

    #[test]
    fn unknown_tag_fails_to_decode() {
        assert!(SyncMsg::from_bytes(&[99]).is_err());
    }

    #[test]
    fn corrupt_msg_never_panics_and_often_survives_decoding() {
        use rand::SeedableRng;
        let f = factory();
        let mut chain = f();
        let block = chain.produce_block();
        let msg = SyncMsg::NewBlock(block);
        let mut rng = StdRng::seed_from_u64(5);
        let mut survived = 0;
        for _ in 0..200 {
            if let Some(mangled) = ChainReplica::corrupt_msg(&msg, &mut rng) {
                survived += 1;
                // A surviving corruption must differ from the original.
                assert_ne!(mangled.to_bytes(), msg.to_bytes());
            }
        }
        assert!(survived > 0, "some corruptions should still decode");
    }

    #[test]
    fn adopt_if_longer_takes_valid_longer_chain_only() {
        let f = factory();
        let mut canonical = f();
        for _ in 0..4 {
            canonical.produce_block();
        }
        let mut replica = ChainReplica::new(f, Some(0), 1_000, 5_000);
        replica.chain_mut().produce_block();
        assert_eq!(replica.chain().height(), 1);

        // Shorter offer: refused.
        assert!(!replica.adopt_if_longer(&canonical.blocks()[..1]));
        // Tampered offer: refused.
        let mut forged = canonical.blocks().to_vec();
        forged[2].header.height = 9;
        assert!(!replica.adopt_if_longer(&forged));
        assert_eq!(replica.blocks_rejected, 1);
        // Valid longer offer: adopted wholesale.
        assert!(replica.adopt_if_longer(canonical.blocks()));
        assert_eq!(replica.chain().height(), 4);
        assert_eq!(replica.chain().head_hash(), canonical.head_hash());
        assert_eq!(replica.forks_adopted, 1);
    }

    /// The scheduled proposer re-signs its block with one bit of
    /// `state_root` flipped: the block passes validation, executes, and
    /// only then is refused. Through the chain's own entry point and the
    /// replica's batch, on a volatile and on a persistent replica, at the
    /// first height and above one block, the follower ends as a twin that
    /// never saw the forged block, and the honest block at that height
    /// applies. No rebuild runs: the genesis factory, which a crash, fork
    /// choice or a rebuild of the chain would call, is not called across
    /// the refusal.
    #[test]
    fn a_block_refused_after_it_executed_leaves_no_trace() {
        use crate::block::BlockHeader;
        use crate::tx::SignedTransaction;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let built = Arc::new(AtomicUsize::new(0));
        let f: GenesisFactory = {
            let (genesis, built) = (factory(), built.clone());
            Arc::new(move || {
                built.fetch_add(1, Ordering::Relaxed);
                genesis()
            })
        };
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let tx = transfer(&alice, bob, 500);
        let view = |c: &Blockchain| {
            let root = c.state.state_root();
            let pool = c.mempool_txs();
            let included = |t: &SignedTransaction| c.receipt(&t.hash()).is_some();
            assert!(!pool.iter().any(included), "the pool holds an included tx");
            (c.height(), c.head_hash(), root, c.state.balance(&bob), pool)
        };
        for below in 0..2u64 {
            let mut proposer = f();
            let prefix: Vec<Block> = (0..below).map(|_| proposer.produce_block()).collect();
            proposer.submit(tx.clone()).unwrap();
            let honest = proposer.produce_block();
            let h = &honest.header;
            let mut root = h.state_root;
            root.0[0] ^= 1;
            let forged = Block {
                header: BlockHeader::new_signed(
                    &KeyPair::from_seed(9_000 + below),
                    h.height,
                    h.parent,
                    root,
                    h.tx_root,
                    h.timestamp,
                    h.base_fee,
                    h.gas_used,
                ),
                transactions: honest.transactions.clone(),
            };
            for persistent in [false, true] {
                for batch in [false, true] {
                    let what = format!("forged at {below}, persistent {persistent}, batch {batch}");
                    let mut follower = match persistent {
                        true => {
                            let store = Arc::new(Mutex::new(ChainLog::new()));
                            ChainReplica::new_persistent(f.clone(), Some(1), 1_000, 5_000, store, 2)
                        }
                        false => ChainReplica::new(f.clone(), Some(1), 1_000, 5_000),
                    };
                    let mut twin = f();
                    follower.apply_batch(&prefix).unwrap();
                    twin.apply_external_blocks_pipelined(&prefix).unwrap();
                    follower.chain_mut().submit(tx.clone()).unwrap();
                    twin.submit(tx.clone()).unwrap();

                    let builds = built.load(Ordering::Relaxed);
                    let refused = match batch {
                        true => follower.apply_batch(std::slice::from_ref(&forged)),
                        false => follower.chain_mut().apply_external_block(&forged),
                    };
                    assert_eq!(
                        refused,
                        Err(ChainError::InvalidBlock("state root mismatch")),
                        "{what}"
                    );
                    assert_eq!(built.load(Ordering::Relaxed), builds, "{what}: rebuilt");
                    assert_eq!(view(follower.chain()), view(&twin), "{what}");
                    assert_eq!(view(&twin).3, 0, "{what}");

                    follower.apply_batch(std::slice::from_ref(&honest)).unwrap();
                    twin.apply_external_block(&honest).unwrap();
                    assert_eq!(view(follower.chain()), view(&twin), "{what}");
                    assert_eq!(
                        (view(&twin).1, view(&twin).3),
                        (proposer.head_hash(), 500),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn first_divergent_height_follows_fork_adoption_and_crash() {
        let f = factory();
        let mut twin = ChainReplica::new(f.clone(), None, 1_000, 5_000);
        for _ in 0..4 {
            twin.chain_mut().produce_block();
        }
        let mut replica = ChainReplica::new(f, Some(0), 1_000, 5_000);
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        replica
            .chain_mut()
            .submit(transfer(&alice, bob, 1))
            .unwrap();
        replica.chain_mut().produce_block(); // a different block 0
        assert_eq!(replica.block_checkpoints().len(), 1);
        assert_eq!(replica.first_divergent_height(&twin), Some(0));

        assert!(replica.adopt_if_longer(twin.chain().blocks()));
        assert_eq!(replica.block_checkpoints(), twin.block_checkpoints());
        assert_eq!(replica.first_divergent_height(&twin), None);

        replica.chain_mut().produce_block();
        assert_eq!(replica.first_divergent_height(&twin), Some(4));
        assert_eq!(twin.first_divergent_height(&replica), Some(4));

        replica.on_crash(); // volatile: back to genesis
        assert!(replica.block_checkpoints().is_empty());
        assert_eq!(replica.first_divergent_height(&twin), Some(0));
    }

    #[test]
    fn fork_adoption_reinstates_orphaned_transactions() {
        let f = factory();
        let mut canonical = f();
        for _ in 0..4 {
            canonical.produce_block();
        }
        let mut replica = ChainReplica::new(f, Some(0), 1_000, 5_000);
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let h = replica
            .chain_mut()
            .submit(transfer(&alice, bob, 42))
            .unwrap();
        replica.chain_mut().produce_block(); // included on the doomed fork
        assert!(replica.chain().receipt(&h).is_some());

        // The longer canonical chain (no alice tx) replaces the fork; the
        // orphaned transaction must re-enter the pool, not vanish.
        assert!(replica.adopt_if_longer(canonical.blocks()));
        assert_eq!(replica.txs_reinstated, 1);
        assert_eq!(replica.chain().mempool_len(), 1);
        assert!(replica.chain().receipt(&h).is_none(), "not yet re-included");

        // The next block on the adopted chain re-includes it.
        let b = replica.chain_mut().produce_block();
        assert_eq!(b.transactions.len(), 1);
        assert_eq!(b.transactions[0].hash(), h);
        assert_eq!(replica.chain().state.balance(&bob), 42);
    }

    #[test]
    fn crash_wipes_to_genesis() {
        let f = factory();
        let mut replica = ChainReplica::new(f, Some(0), 1_000, 5_000);
        replica.chain_mut().produce_block();
        assert_eq!(replica.chain().height(), 1);
        replica.on_crash();
        assert_eq!(replica.chain().height(), 0);
        assert!(replica.is_syncing());
    }

    #[test]
    fn persistent_crash_recovers_from_store() {
        let f = factory();
        let store = Arc::new(Mutex::new(ChainLog::new()));
        let mut replica = ChainReplica::new_persistent(f, Some(0), 1_000, 5_000, store, 2);
        for _ in 0..3 {
            replica.chain_mut().produce_block();
        }
        // A journaled-but-unincluded transaction must survive the crash.
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        replica
            .chain_mut()
            .submit(transfer(&alice, bob, 7))
            .unwrap();
        let head = replica.chain().head_hash();
        let root = replica.chain().state.state_root();

        replica.on_crash();
        assert_eq!(replica.chain().height(), 3, "blocks replayed from the log");
        assert_eq!(replica.chain().head_hash(), head);
        assert_eq!(replica.chain().state.state_root(), root);
        assert_eq!(replica.chain().mempool_len(), 1, "pending tx reinstated");
        assert!(replica.is_syncing(), "still resyncs before proposing");
        // The recovered chain keeps journaling: the next block persists.
        replica.chain_mut().produce_block();
        assert!(replica.chain().has_store());
    }

    #[test]
    fn persistent_crash_after_fork_adoption_recovers_the_adopted_chain() {
        let f = factory();
        let mut canonical = f();
        for _ in 0..4 {
            canonical.produce_block();
        }
        let store = Arc::new(Mutex::new(ChainLog::new()));
        let mut replica = ChainReplica::new_persistent(f, Some(0), 1_000, 5_000, store, 2);
        let alice = KeyPair::from_seed(1);
        let tx = transfer(&alice, Address::of(&KeyPair::from_seed(2).public), 42);
        let h = replica.chain_mut().submit(tx).unwrap();
        replica.chain_mut().produce_block(); // included on the doomed fork

        assert!(replica.adopt_if_longer(canonical.blocks()));
        assert!(
            replica.chain().has_store(),
            "adopted chain keeps journaling"
        );

        replica.on_crash();
        assert_eq!(replica.chain().height(), 4);
        assert_eq!(replica.chain().head_hash(), canonical.head_hash());
        assert_eq!(
            replica.chain().state.state_root(),
            canonical.state.state_root()
        );
        // The orphaned transaction was journaled on reinstatement.
        assert_eq!(replica.chain().mempool_len(), 1);
        assert_eq!(replica.chain().mempool_txs()[0].hash(), h);
    }
}
