//! The only file that calls into the PDS2 crates.
//!
//! Workloads, the layer replay and the correctness gate go through the
//! functions here, so a change to the program's public API (for example
//! ROADMAP item 3's `RuntimeConfig`) is absorbed in one place. Nothing in
//! this file measures time or knows which workload is running.

use parking_lot::Mutex;
use pds2_chain::address::Address;
use pds2_chain::backend::{BackendKind, LeafKey};
use pds2_chain::block::{Block, BlockHeader};
use pds2_chain::chain::{Blockchain, ChainConfig, ChainError};
use pds2_chain::contract::ContractRegistry;
use pds2_chain::mempool::{Mempool, SelectionStats, SubmitError};
use pds2_chain::sigcache;
use pds2_chain::smt::SmtTree;
use pds2_chain::state::{BlockEnv, WorldState};
use pds2_chain::sync::{ChainReplica, GenesisFactory, SyncMsg};
use pds2_chain::threshold::SigMode;
use pds2_chain::tx::{SignedTransaction, Transaction, TxKind};
use pds2_core::authenticity::{Device, ManufacturerRegistry, ReadingVerifier, SignedReading};
use pds2_core::contract::{Phase, WorkloadContract, WORKLOAD_CODE_ID};
use pds2_core::marketplace::{Marketplace, StorageChoice};
use pds2_core::workload::{RewardScheme, TaskKind, WorkloadSpec};
use pds2_crypto::codec::Encode;
use pds2_crypto::{sha256, Digest, KeyPair};
use pds2_ml::data::{gaussian_blobs, Dataset};
use pds2_net::{FaultPlan, LinkModel, SchedulerKind, Simulator, Topology};
use pds2_storage::chainlog::{ChainLog, FRAME_BLOCK, FRAME_TX};
use pds2_storage::semantic::{MetaValue, Metadata, Requirement};
use pds2_tee::{AttestationService, CostModel, EnclaveCode, Measurement, Platform, Quote};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub type Chain = Blockchain;
pub type Tx = SignedTransaction;
pub type Blk = Block;
pub type Keys = KeyPair;
pub type Addr = Address;
pub type Hash = Digest;
pub type Store = Arc<Mutex<ChainLog>>;

/// Block gas budget used by every benchmark chain (the program default).
const BLOCK_GAS_LIMIT: u64 = 30_000_000;
/// Gas limit carried by generated transfers.
const TRANSFER_GAS_LIMIT: u64 = 50_000;

// ---------------------------------------------------------------------
// Runtime fingerprint
// ---------------------------------------------------------------------

/// The runtime defaults the program resolved for this process. The
/// benchmark sets no `PDS2_*` variable; this records what that meant.
pub fn runtime_defaults() -> Vec<(&'static str, String)> {
    vec![
        ("threads", pds2_par::current_threads().to_string()),
        ("hardware_cores", pds2_par::hardware_cores().to_string()),
        (
            "net_sched",
            match SchedulerKind::from_env() {
                SchedulerKind::Wheel => "wheel",
                SchedulerKind::Heap => "heap",
            }
            .to_string(),
        ),
        (
            "sig_mode",
            match SigMode::from_env() {
                SigMode::Single => "single",
                SigMode::Threshold => "threshold",
            }
            .to_string(),
        ),
        (
            "state_backend",
            match BackendKind::from_env() {
                BackendKind::Smt => "smt",
                BackendKind::FullRehash => "rehash",
            }
            .to_string(),
        ),
    ]
}

/// Worker threads the program's parallel sections use in this process.
pub fn threads() -> usize {
    pds2_par::current_threads()
}

/// Runs `f` with the program's worker pool held to one thread on this
/// thread (what `PDS2_THREADS=1` would do for the whole process).
pub fn with_one_thread<R>(f: impl FnOnce() -> R) -> R {
    pds2_par::with_threads(1, f)
}

// ---------------------------------------------------------------------
// Keys, addresses, transactions
// ---------------------------------------------------------------------

pub fn keypair(seed: u64) -> Keys {
    KeyPair::from_seed(seed)
}

pub fn address(keys: &Keys) -> Addr {
    Address::of(&keys.public)
}

/// A key-less account address (a transfer recipient that never signs).
pub fn synthetic_address(tag: u64, index: u64) -> Addr {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&tag.to_le_bytes());
    bytes[8..].copy_from_slice(&index.to_le_bytes());
    Address(sha256(&bytes))
}

pub fn sign_transfer(
    keys: &Keys,
    nonce: u64,
    to: Addr,
    amount: u128,
    max_fee_per_gas: u64,
    priority_fee_per_gas: u64,
) -> Tx {
    Transaction {
        from: keys.public.clone(),
        nonce,
        kind: TxKind::Transfer { to, amount },
        gas_limit: TRANSFER_GAS_LIMIT,
        max_fee_per_gas,
        priority_fee_per_gas,
    }
    .sign(keys)
}

pub fn tx_hash(tx: &Tx) -> Hash {
    tx.hash()
}

/// Sender, plus the account the transaction pays or calls.
pub fn tx_touches(tx: &Tx) -> (Addr, Option<Addr>) {
    let other = match &tx.tx.kind {
        TxKind::Transfer { to, .. } => Some(*to),
        TxKind::Call { contract, .. } => Some(*contract),
        _ => None,
    };
    (tx.tx.sender(), other)
}

pub fn tx_is_transfer(tx: &Tx) -> bool {
    matches!(tx.tx.kind, TxKind::Transfer { .. })
}

pub fn tx_nonce(tx: &Tx) -> u64 {
    tx.tx.nonce
}

// ---------------------------------------------------------------------
// Chain
// ---------------------------------------------------------------------

/// A chain at genesis with an empty contract registry.
pub fn new_chain(
    validator_seeds: &[u64],
    alloc: &[(Addr, u128)],
    max_txs_per_block: usize,
    mempool_capacity: usize,
) -> Chain {
    Blockchain::new(
        validator_seeds
            .iter()
            .map(|s| KeyPair::from_seed(*s))
            .collect(),
        alloc,
        ContractRegistry::new(),
        ChainConfig {
            block_gas_limit: BLOCK_GAS_LIMIT,
            max_txs_per_block,
            mempool_capacity,
            ..ChainConfig::default()
        },
    )
}

pub fn new_store() -> Store {
    Arc::new(Mutex::new(ChainLog::new()))
}

pub fn attach_store(chain: &mut Chain, store: &Store, snapshot_every: u64) {
    chain.attach_store(store.clone(), snapshot_every);
}

/// A deep copy of a journal: what a node's disk holds at this instant.
pub fn store_copy(store: &Store) -> Store {
    let copy = store.lock().clone();
    Arc::new(Mutex::new(copy))
}

pub fn store_log_bytes(store: &Store) -> u64 {
    store.lock().log_bytes() as u64
}

pub fn store_snapshot_height(store: &Store) -> u64 {
    store.lock().snapshot().map_or(0, |(h, _)| h)
}

/// Why `submit` turned a transaction away. The fee-market refusals are
/// design rejections (layer counts); `Other` is a failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    Underpriced,
    ReplacementUnderpriced,
    PoolFull,
    Other(String),
}

pub fn submit(chain: &mut Chain, tx: Tx) -> Result<(), Reject> {
    match chain.submit(tx) {
        Ok(_) => Ok(()),
        Err(ChainError::Submit(SubmitError::Underpriced { .. })) => Err(Reject::Underpriced),
        Err(ChainError::Submit(SubmitError::ReplacementUnderpriced { .. })) => {
            Err(Reject::ReplacementUnderpriced)
        }
        Err(ChainError::Submit(SubmitError::PoolFull { .. })) => Err(Reject::PoolFull),
        Err(e) => Err(Reject::Other(e.to_string())),
    }
}

pub fn produce(chain: &mut Chain) -> Blk {
    chain.produce_block()
}

pub fn apply(chain: &mut Chain, block: &Blk) -> Result<(), String> {
    chain.apply_external_block(block).map_err(|e| e.to_string())
}

pub fn apply_pipelined(chain: &mut Chain, blocks: &[Blk]) -> Result<(), String> {
    chain
        .apply_external_blocks_pipelined(blocks)
        .map(|_| ())
        .map_err(|(i, e)| format!("block {i}: {e}"))
}

pub fn validate(chain: &Chain, block: &Blk) -> Result<(), String> {
    chain
        .validate_external_block(block)
        .map_err(|e| e.to_string())
}

pub fn recover(genesis: Chain, store: &Store, snapshot_every: u64) -> Chain {
    Blockchain::recover_from_store(genesis, store.clone(), snapshot_every)
}

/// What two nodes must agree on: `(height, head hash, state root)`.
pub fn tip(chain: &Chain) -> (u64, Hash, Hash) {
    (chain.height(), chain.head_hash(), chain.state.state_root())
}

/// Forces the state commitment to exist (the first call builds the tree).
pub fn state_root(chain: &Chain) -> Hash {
    chain.state.state_root()
}

/// `total_native_supply + burned`: constant under every valid block.
pub fn supply_plus_burned(chain: &Chain) -> u128 {
    chain.state.total_native_supply() + chain.state.burned()
}

pub fn account_nonce(chain: &Chain, addr: &Addr) -> u64 {
    chain.state.nonce(addr)
}

pub fn height(chain: &Chain) -> u64 {
    chain.height()
}

pub fn mempool_len(chain: &Chain) -> usize {
    chain.mempool_len()
}

pub fn blocks(chain: &Chain) -> &[Blk] {
    chain.blocks()
}

pub fn block_txs(block: &Blk) -> &[Tx] {
    &block.transactions
}

pub fn block_height(block: &Blk) -> u64 {
    block.header.height
}

pub fn snapshot_bytes(chain: &Chain) -> usize {
    chain.snapshot_bytes().len()
}

// ---------------------------------------------------------------------
// Process-global caches and counters
// ---------------------------------------------------------------------

/// Lookups counted before the cache was last emptied; `sigcache::clear`
/// resets the program's own counters.
static CLEARED_HITS: AtomicU64 = AtomicU64::new(0);
static CLEARED_MISSES: AtomicU64 = AtomicU64::new(0);

/// Empties the signature cache: what a separate process would start with.
pub fn sigcache_clear() {
    let (hits, misses) = sigcache::stats();
    CLEARED_HITS.fetch_add(hits, Ordering::Relaxed);
    CLEARED_MISSES.fetch_add(misses, Ordering::Relaxed);
    sigcache::clear();
}

/// `(hits, misses)` since process start, across every [`sigcache_clear`].
pub fn sigcache_stats() -> (u64, u64) {
    let (hits, misses) = sigcache::stats();
    (
        hits + CLEARED_HITS.load(Ordering::Relaxed),
        misses + CLEARED_MISSES.load(Ordering::Relaxed),
    )
}

/// Every counter of the program's metrics registry.
pub fn counters() -> BTreeMap<String, u64> {
    pds2_obs::snapshot().counters
}

/// High-water mark of a gauge, 0 if it was never set.
pub fn gauge_high_water(name: &str) -> f64 {
    pds2_obs::snapshot()
        .gauge_hwms
        .get(name)
        .copied()
        .unwrap_or(0.0)
}

/// Runs `f` with an obs capture active (null sink), as `bench_obs` does.
pub fn with_obs_capture<R>(f: impl FnOnce() -> R) -> R {
    let capture = pds2_obs::capture(pds2_obs::SinkKind::Null);
    let out = f();
    drop(capture.finish());
    out
}

// ---------------------------------------------------------------------
// Marketplace
// ---------------------------------------------------------------------

const CONSUMER_SEED: u64 = 1;
const CONSUMER_FUNDS: u128 = u128::MAX / 4;
const PROVIDER_REWARD: u128 = 100_000;
const EXECUTOR_FEE: u128 = 1_000;

/// A marketplace with its fleet registered and data ingested.
pub struct Market {
    pub m: Marketplace,
    seed: u64,
    consumer: Addr,
    providers: Vec<Addr>,
    executors: Vec<Addr>,
    validation: Dataset,
}

fn market_registry() -> ContractRegistry {
    let mut registry = ContractRegistry::new();
    registry.register(WORKLOAD_CODE_ID, WorkloadContract::construct);
    registry
}

fn sensor_metadata() -> Metadata {
    Metadata::new()
        .with(
            "type",
            MetaValue::Class("sensor/environment/temperature".into()),
            0,
        )
        .with("sample-rate-hz", MetaValue::Num(1.0), 1)
}

pub fn market_setup(seed: u64, providers: usize, readings: usize, executors: usize) -> Market {
    let mut m = Marketplace::new(seed);
    let consumer = m.register_consumer(CONSUMER_SEED, CONSUMER_FUNDS);
    let data = gaussian_blobs(readings * providers, 4, 0.7, seed ^ 5);
    let (train, validation) = data.split(0.2, seed ^ 6);
    let mut provider_addrs = Vec::with_capacity(providers);
    for (i, shard) in train.partition_iid(providers, seed ^ 7).iter().enumerate() {
        let p = m.register_provider(1_000 + i as u64, StorageChoice::Local);
        m.provider_add_device(p).expect("provider registered");
        m.provider_ingest(p, 0, shard, sensor_metadata())
            .expect("ingest");
        provider_addrs.push(p);
    }
    let executor_addrs = (0..executors)
        .map(|i| m.register_executor(5_000 + i as u64))
        .collect();
    Market {
        m,
        seed,
        consumer,
        providers: provider_addrs,
        executors: executor_addrs,
        validation,
    }
}

/// The genesis a second node of the marketplace chain starts from.
pub fn market_genesis(seed: u64) -> Chain {
    let consumer = Address::of(&KeyPair::from_seed(CONSUMER_SEED).public);
    Blockchain::single_validator(
        seed ^ 0xb10c,
        &[(consumer, CONSUMER_FUNDS)],
        market_registry(),
    )
}

pub fn market_chain(market: &mut Market) -> &mut Chain {
    &mut market.m.chain
}

pub fn market_chain_ref(market: &Market) -> &Chain {
    &market.m.chain
}

/// Step 1 of Fig. 2. `index` makes the workload's code (and so its NFT)
/// unique; `shapley` picks the Monte-Carlo Shapley reward scheme.
pub fn market_submit_workload(
    market: &mut Market,
    index: u64,
    shapley: bool,
) -> Result<u64, String> {
    let code = EnclaveCode::new(
        "bench-trainer",
        1,
        format!("bench-trainer-{}-{index}", market.seed).into_bytes(),
    );
    let spec = WorkloadSpec {
        title: "bench".into(),
        precondition: Requirement::HasClass {
            attr: "type".into(),
            class: "sensor/environment".into(),
        },
        task: TaskKind::BinaryClassification,
        feature_dim: market.validation.dim() as u32,
        provider_reward: PROVIDER_REWARD,
        executor_fee: EXECUTOR_FEE,
        reward_scheme: if shapley {
            RewardScheme::ShapleyMonteCarlo { permutations: 32 }
        } else {
            RewardScheme::ProportionalToRecords
        },
        min_providers: market.providers.len() as u32,
        min_records: 10,
        code_measurement: code.measurement(),
        validation: market.validation.clone(),
        local_epochs: 5,
        aggregation_rounds: 3,
        dp_noise_multiplier: None,
        reward_token: None,
        data_bounds: None,
    };
    let executors = market.executors.len() as u32;
    market
        .m
        .submit_workload(market.consumer, spec, code, executors)
        .map_err(|e| e.to_string())
}

pub fn market_executor_join(
    market: &mut Market,
    workload: u64,
    executor: usize,
) -> Result<(), String> {
    let e = market.executors[executor];
    market
        .m
        .executor_join(e, workload)
        .map_err(|e| e.to_string())
}

pub fn market_provider_accept(
    market: &mut Market,
    workload: u64,
    provider: usize,
) -> Result<(), String> {
    let p = market.providers[provider];
    let e = market.executors[provider % market.executors.len()];
    market
        .m
        .provider_accept(p, workload, e)
        .map_err(|e| e.to_string())
}

pub fn market_try_start(market: &mut Market, workload: u64) -> Result<(), String> {
    match market.m.try_start(workload) {
        Ok(true) => Ok(()),
        Ok(false) => Err("start quorum not met".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// Runs the enclaves; returns the readings the executors accepted.
pub fn market_execute(market: &mut Market, workload: u64) -> Result<u64, String> {
    market
        .m
        .execute(workload)
        .map(|r| r.readings_accepted)
        .map_err(|e| e.to_string())
}

/// Pays out and checks the escrow ended in payout XOR refund: the
/// contract is `Completed`, every provider got a share, the shares sum to
/// the reward pool, and nothing is left in the contract's account.
pub fn market_finalize(market: &mut Market, workload: u64) -> Result<(), String> {
    let report = market.m.finalize(workload).map_err(|e| e.to_string())?;
    let state = market
        .m
        .workload_state(workload)
        .map_err(|e| e.to_string())?;
    let contract = market
        .m
        .workload_contract(workload)
        .ok_or("workload has no contract")?;
    let paid: u128 = report.provider_shares.iter().map(|(_, s)| *s).sum();
    let left = market.m.chain.state.balance(&contract);
    if state.phase != Phase::Completed {
        return Err(format!(
            "workload {workload} ended in phase {:?}",
            state.phase
        ));
    }
    if report.provider_shares.len() != market.providers.len() || paid != PROVIDER_REWARD {
        return Err(format!(
            "workload {workload} paid {paid} to {} providers",
            report.provider_shares.len()
        ));
    }
    if report.paid_executors.len() != market.executors.len() || left != 0 {
        return Err(format!(
            "workload {workload}: {} executors paid, {left} left in escrow",
            report.paid_executors.len()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Replica fleet on the simulated network
// ---------------------------------------------------------------------

/// One fault of a fleet run, in simulated microseconds.
#[derive(Clone, Debug)]
pub enum Fault {
    Partition {
        at: u64,
        heal_at: u64,
        groups: Vec<Vec<usize>>,
    },
    Crash {
        node: usize,
        at: u64,
        recover_at: u64,
    },
}

pub struct Fleet {
    sim: Simulator<ChainReplica>,
    stores: Vec<Store>,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct FleetStats {
    pub delivered: u64,
    pub bytes_delivered: u64,
    pub dropped: u64,
    pub catchup_requests: u64,
    pub forks_adopted: u64,
    pub blocks_rejected: u64,
    pub txs_reinstated: u64,
}

impl FleetStats {
    pub fn add(&mut self, other: &FleetStats) {
        self.delivered += other.delivered;
        self.bytes_delivered += other.bytes_delivered;
        self.dropped += other.dropped;
        self.catchup_requests += other.catchup_requests;
        self.forks_adopted += other.forks_adopted;
        self.blocks_rejected += other.blocks_rejected;
        self.txs_reinstated += other.txs_reinstated;
    }
}

#[allow(clippy::too_many_arguments)]
pub fn fleet_new(
    seed: u64,
    validator_seeds: Vec<u64>,
    observers: usize,
    alloc: Vec<(Addr, u128)>,
    produce_interval_us: u64,
    announce_interval_us: u64,
    snapshot_every: u64,
    faults: &[Fault],
) -> Fleet {
    let n_validators = validator_seeds.len();
    let factory: GenesisFactory =
        Arc::new(move || new_chain(&validator_seeds, &alloc, 1024, 1 << 20));
    let stores: Vec<Store> = (0..n_validators + observers).map(|_| new_store()).collect();
    let replicas = stores
        .iter()
        .enumerate()
        .map(|(i, store)| {
            ChainReplica::new_persistent(
                factory.clone(),
                (i < n_validators).then_some(i),
                produce_interval_us,
                announce_interval_us,
                store.clone(),
                snapshot_every,
            )
        })
        .collect();
    let link = LinkModel::regional(Topology::five_continents(seed));
    let mut sim = Simulator::new(replicas, link, seed);
    let mut plan = FaultPlan::new(seed ^ 0xfa17);
    for fault in faults {
        plan = match fault.clone() {
            Fault::Partition {
                at,
                heal_at,
                groups,
            } => plan.partition(at, heal_at, groups),
            Fault::Crash {
                node,
                at,
                recover_at,
            } => plan.crash(node, at, Some(recover_at)),
        };
    }
    sim.install_fault_plan(plan);
    Fleet { sim, stores }
}

pub fn fleet_len(fleet: &Fleet) -> usize {
    fleet.sim.len()
}

pub fn fleet_submit(fleet: &mut Fleet, node: usize, tx: Tx) -> Result<(), Reject> {
    submit(fleet.sim.node_mut(node).chain_mut(), tx)
}

/// Advances simulated time; returns the events processed.
pub fn fleet_run_until(fleet: &mut Fleet, deadline_us: u64) -> u64 {
    fleet.sim.run_until(deadline_us)
}

pub fn fleet_online(fleet: &Fleet, node: usize) -> bool {
    fleet.sim.is_online(node)
}

pub fn fleet_chain(fleet: &Fleet, node: usize) -> &Chain {
    fleet.sim.node(node).chain()
}

pub fn fleet_store(fleet: &Fleet, node: usize) -> &Store {
    &fleet.stores[node]
}

/// Whether every online replica sits on the same head and none is
/// still resynchronising.
pub fn fleet_converged(fleet: &Fleet) -> bool {
    let mut heads = (0..fleet.sim.len())
        .filter(|i| fleet.sim.is_online(*i))
        .map(|i| fleet.sim.node(i))
        .map(|r| (r.is_syncing(), r.chain().head_hash()));
    let Some((syncing, first)) = heads.next() else {
        return true;
    };
    !syncing && heads.all(|(s, h)| !s && h == first)
}

/// Lowest and highest chain height among online replicas.
pub fn fleet_height_range(fleet: &Fleet) -> (u64, u64) {
    let heights = (0..fleet.sim.len())
        .filter(|i| fleet.sim.is_online(*i))
        .map(|i| fleet.sim.node(i).chain().height());
    heights.fold((u64::MAX, 0), |(lo, hi), h| (lo.min(h), hi.max(h)))
}

/// First height at which any replica's chain disagrees with node 0's.
pub fn fleet_first_divergent_height(fleet: &Fleet) -> Option<u64> {
    let reference = fleet.sim.node(0);
    (1..fleet.sim.len())
        .filter_map(|i| reference.first_divergent_height(fleet.sim.node(i)))
        .min()
}

pub fn fleet_stats(fleet: &Fleet) -> FleetStats {
    let net = fleet.sim.stats();
    let mut out = FleetStats {
        delivered: net.delivered,
        bytes_delivered: net.bytes_delivered,
        dropped: net.dropped_loss + net.dropped_offline + net.dropped_partition + net.dropped_fault,
        ..FleetStats::default()
    };
    for r in fleet.sim.nodes() {
        out.catchup_requests += r.catchup_requests;
        out.forks_adopted += r.forks_adopted;
        out.blocks_rejected += r.blocks_rejected;
        out.txs_reinstated += r.txs_reinstated;
    }
    out
}

// ---------------------------------------------------------------------
// Layer replay: each layer's public function, on a shadow instance
// ---------------------------------------------------------------------

/// Full Schnorr verification of a transaction, bypassing the cache.
pub fn layer_verify(tx: &Tx) -> bool {
    tx.tx.from.verify(tx.hash().as_bytes(), &tx.signature)
}

pub struct ShadowPool(Mempool);

pub fn shadow_pool(capacity: usize) -> ShadowPool {
    ShadowPool(Mempool::new(capacity))
}

pub fn shadow_pool_insert(pool: &mut ShadowPool, tx: Tx, state_nonce: u64) -> bool {
    let mut evicted = Vec::new();
    pool.0
        .insert(tx, state_nonce, BLOCK_GAS_LIMIT, &mut evicted)
        .is_ok()
}

/// Selects one block's worth; `state_nonce` is what the shadow pool was
/// filled against.
pub fn shadow_pool_select(
    pool: &mut ShadowPool,
    max_txs: usize,
    state_nonce: &BTreeMap<Addr, u64>,
) -> usize {
    let mut stats = SelectionStats::default();
    pool.0
        .select(
            0,
            BLOCK_GAS_LIMIT,
            max_txs,
            |a| state_nonce.get(a).copied().unwrap_or(0),
            &mut stats,
        )
        .len()
}

/// A bare world state that follows the chain by executing every block's
/// transactions, so `apply_transaction_env` and `state_root` can be timed
/// on the exact inputs the chain saw.
pub struct ShadowState {
    state: WorldState,
    registry: ContractRegistry,
}

pub fn shadow_state(alloc: &[(Addr, u128)], with_workload_contract: bool) -> ShadowState {
    let mut state = WorldState::new();
    for (addr, amount) in alloc {
        state.genesis_credit(*addr, *amount);
    }
    let registry = if with_workload_contract {
        market_registry()
    } else {
        ContractRegistry::new()
    };
    ShadowState { state, registry }
}

pub fn market_alloc() -> Vec<(Addr, u128)> {
    vec![(
        Address::of(&KeyPair::from_seed(CONSUMER_SEED).public),
        CONSUMER_FUNDS,
    )]
}

pub fn shadow_apply(shadow: &mut ShadowState, block: &Blk, index: usize) -> bool {
    let env = BlockEnv {
        height: block.header.height,
        base_fee: block.header.base_fee,
        coinbase: Address::of(&block.header.proposer),
    };
    shadow
        .state
        .apply_transaction_env(
            &shadow.registry,
            &block.transactions[index],
            &env,
            index as u32,
            pds2_obs::TraceCtx::NONE,
        )
        .success
}

pub fn shadow_state_root(shadow: &ShadowState) -> Hash {
    shadow.state.state_root()
}

pub fn block_state_root(block: &Blk) -> Hash {
    block.header.state_root
}

/// A sparse Merkle tree with one leaf per account, for timing `commit`
/// at the state's real size.
pub struct ShadowSmt(SmtTree);

fn account_leaf(addr: &Addr, round: u64) -> (Hash, Hash) {
    let key = LeafKey::Account(*addr).digest();
    let mut bytes = [0u8; 40];
    bytes[..32].copy_from_slice(key.as_bytes());
    bytes[32..].copy_from_slice(&round.to_le_bytes());
    (key, sha256(&bytes))
}

/// Builds the tree; returns it with the node hashes computed.
pub fn shadow_smt_build(accounts: impl Iterator<Item = Addr>) -> (ShadowSmt, u64) {
    let (tree, hashed) = SmtTree::from_leaves(accounts.map(|a| account_leaf(&a, 0)).collect());
    (ShadowSmt(tree), hashed)
}

pub fn shadow_smt_len(smt: &ShadowSmt) -> usize {
    smt.0.len()
}

/// Commits new values for the touched accounts; returns nodes hashed.
pub fn shadow_smt_commit(smt: &mut ShadowSmt, touched: &[Addr], round: u64) -> u64 {
    smt.0.commit(
        touched
            .iter()
            .map(|a| {
                let (k, v) = account_leaf(a, round);
                (k, Some(v))
            })
            .collect(),
    )
}

pub fn layer_tx_root(txs: &[Tx]) -> Hash {
    Block::compute_tx_root(txs)
}

/// Signs a header carrying `block`'s fields with `keys`.
pub fn layer_seal(keys: &Keys, block: &Blk) -> BlockHeader {
    let h = &block.header;
    BlockHeader::new_signed(
        keys,
        h.height,
        h.parent,
        h.state_root,
        h.tx_root,
        h.timestamp,
        h.base_fee,
        h.gas_used,
    )
}

/// Full verification of a freshly sealed header (never cached before).
pub fn layer_header_verify(header: &BlockHeader) -> bool {
    header.verify_signature()
}

pub struct ShadowLog(ChainLog);

pub fn shadow_log() -> ShadowLog {
    ShadowLog(ChainLog::new())
}

/// Encodes a transaction for its journal frame (what `submit` journals).
pub fn tx_frame(tx: &Tx) -> Vec<u8> {
    tx.to_bytes()
}

/// Encodes a block for its journal frame.
pub fn block_frame(block: &Blk) -> Vec<u8> {
    block.to_bytes()
}

pub fn shadow_log_append_tx(log: &mut ShadowLog, height: u64, frame: &[u8]) {
    log.0.append(FRAME_TX, height, frame);
}

pub fn shadow_log_append_block(log: &mut ShadowLog, height: u64, frame: &[u8]) {
    log.0.append(FRAME_BLOCK, height, frame);
}

pub fn shadow_log_scan(log: &ShadowLog) -> usize {
    log.0.scan().frames.len()
}

/// Wire size of the `NewBlock` gossip message for `block`.
pub fn layer_sync_encode(block: &Blk) -> usize {
    SyncMsg::NewBlock(block.clone()).to_bytes().len()
}

/// Device readings plus the registry that endorses their device: the
/// inputs of `ReadingVerifier::verify`.
pub struct ReadingFixture {
    registry: ManufacturerRegistry,
    readings: Vec<SignedReading>,
}

pub fn reading_fixture(seed: u64, count: usize, dim: usize) -> ReadingFixture {
    let manufacturer = KeyPair::from_seed(seed ^ 0xfac);
    let mut registry = ManufacturerRegistry::new();
    registry.register_manufacturer(manufacturer.public.clone());
    let mut device = Device::new(seed);
    registry
        .endorse(&manufacturer, &device)
        .expect("manufacturer registered");
    let readings = (0..count)
        .map(|i| device.sign_reading(i as u64, vec![i as f64; dim], 1.0))
        .collect();
    ReadingFixture { registry, readings }
}

/// Verifies every reading of the fixture; returns how many passed.
pub fn layer_verify_readings(fixture: &ReadingFixture) -> u64 {
    let mut verifier = ReadingVerifier::new(&fixture.registry);
    for reading in &fixture.readings {
        let _ = verifier.verify(reading);
    }
    verifier.accepted
}

pub struct QuoteFixture {
    service: AttestationService,
    quote: Quote,
    expected: Measurement,
}

pub fn quote_fixture(seed: u64) -> QuoteFixture {
    let platform = Platform::new(seed, CostModel::default());
    let mut service = AttestationService::new();
    service.register_platform(platform.attestation_key());
    let code = EnclaveCode::new("bench-trainer", 1, b"bench-trainer".to_vec());
    let quote = platform.launch(&code).attest(sha256(&seed.to_le_bytes()));
    QuoteFixture {
        service,
        quote,
        expected: code.measurement(),
    }
}

pub fn layer_verify_quote(fixture: &QuoteFixture) -> bool {
    fixture
        .service
        .verify_expecting(&fixture.quote, fixture.expected)
        .is_ok()
}
