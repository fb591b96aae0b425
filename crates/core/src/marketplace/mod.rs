//! The PDS² marketplace orchestrator.
//!
//! Wires the five roles of Fig. 1 — consumers, providers, the storage
//! subsystem, executors, and the blockchain governance layer — and drives
//! the Fig. 2 workload lifecycle end to end. One file per phase, in the
//! order the paper draws them:
//!
//! 1. `register` — actors join, providers' devices sign readings into
//!    their storage subsystem (a dataset NFT per record);
//! 2. `submit` — the consumer submits a workload specification: the
//!    workload-code NFT, the on-chain contract and its escrow;
//! 3. `attest` — executors launch the approved code in an enclave and
//!    publish an attestation quote; crash, recovery and relaunch;
//! 4. `accept` — storage subsystems match provider data against the
//!    precondition; a provider verifies the executor's quote, then hands
//!    over data under signed access grants and a participation
//!    certificate; the executor verifies every reading against its
//!    device's batch signature (§IV-B) and registers the contribution
//!    on-chain;
//! 5. `execute` — once the contract's quorum is met the governance layer
//!    starts execution; executors train inside (simulated) enclaves and
//!    aggregate peer-to-peer; the agreed result hash goes on-chain;
//! 6. `reward` — rewards are split (proportional or Shapley) and paid out
//!    by the workload contract; result retrieval and dispute proofs;
//! 7. `abort` — the way out when every executor holding data is gone.
//!
//! This file holds what the phases share: the actors' accounts, the
//! off-chain half of a workload, the transaction sender and the lookups.

mod abort;
mod accept;
mod attest;
mod execute;
mod register;
mod reward;
mod submit;
#[cfg(test)]
mod tests;

pub use accept::decode_readings;
pub use execute::{hash_params, ExecutionReport, RetryPolicy};
pub use register::StorageChoice;
pub use reward::FinalizeReport;
pub use submit::DEFAULT_EXEC_TIMEOUT_BLOCKS;

use crate::authenticity::{Device, ManufacturerRegistry};
use crate::contract::{Call, WorkloadContract, WorkloadState, WORKLOAD_CODE_ID};
use crate::workload::WorkloadSpec;
use pds2_chain::address::Address;
use pds2_chain::chain::Blockchain;
use pds2_chain::contract::ContractRegistry;
use pds2_chain::state::TxReceipt;
use pds2_chain::tx::{Transaction, TxKind};
use pds2_crypto::codec::{Decode, Encode};
use pds2_crypto::schnorr::KeyPair;
use pds2_crypto::sha256::Digest;
use pds2_ml::data::Dataset;
use pds2_obs::TraceCtx;
use pds2_storage::semantic::Ontology;
use pds2_storage::store::{RecordId, StorageBackend, StorageError};
use pds2_tee::attestation::{AttestationService, Quote};
use pds2_tee::measurement::EnclaveCode;
use pds2_tee::platform::{Enclave, Platform};
use std::collections::HashMap;
use std::sync::Arc;

/// Marketplace-level errors.
#[derive(Debug)]
pub enum MarketError {
    /// Referenced actor is not registered.
    UnknownActor(&'static str),
    /// Referenced workload id does not exist.
    UnknownWorkload(u64),
    /// An on-chain transaction failed.
    ChainFailure(String),
    /// Attestation of an executor enclave failed.
    Attestation(String),
    /// Storage-layer failure.
    Storage(StorageError),
    /// Device-signature verification rejected data.
    Authenticity(String),
    /// The operation is invalid in the workload's current phase.
    BadPhase(String),
    /// Spec/feature-shape mismatch.
    ShapeMismatch(String),
    /// The spec's provider reward plus its executor fees is more than a
    /// `u128` holds; nothing was sent to the chain.
    EscrowOverflow,
}

impl std::fmt::Display for MarketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarketError::UnknownActor(kind) => write!(f, "unknown {kind}"),
            MarketError::UnknownWorkload(id) => write!(f, "unknown workload {id}"),
            MarketError::ChainFailure(e) => write!(f, "chain failure: {e}"),
            MarketError::Attestation(e) => write!(f, "attestation failure: {e}"),
            MarketError::Storage(e) => write!(f, "storage failure: {e}"),
            MarketError::Authenticity(e) => write!(f, "authenticity failure: {e}"),
            MarketError::BadPhase(e) => write!(f, "bad phase: {e}"),
            MarketError::ShapeMismatch(e) => write!(f, "shape mismatch: {e}"),
            MarketError::EscrowOverflow => {
                write!(f, "provider reward plus executor fees overflow the escrow")
            }
        }
    }
}

impl std::error::Error for MarketError {}

impl From<StorageError> for MarketError {
    fn from(e: StorageError) -> Self {
        MarketError::Storage(e)
    }
}

struct ConsumerAccount {
    keys: KeyPair,
}

struct ProviderAccount {
    keys: KeyPair,
    /// Provider-owned or outsourced (Fig. 3): one interface either way.
    store: Box<dyn StorageBackend>,
    /// The key an outsourced store's records are sealed under, which the
    /// provider conveys to an attested enclave; `None` for plaintext.
    sealing_key: Option<[u8; 32]>,
    devices: Vec<Device>,
    /// How many readings each record holds (what a participation
    /// certificate states; the readings themselves are in `store`).
    reading_counts: HashMap<RecordId, u64>,
}

struct ExecutorAccount {
    keys: KeyPair,
    platform: Arc<Platform>,
    /// Enclaves launched per workload id.
    enclaves: HashMap<u64, Enclave>,
    /// Crash-stop flag: a crashed executor lost all enclave state and is
    /// skipped by `execute` until it recovers.
    crashed: bool,
    /// When set, the executor recovers automatically once the governance
    /// chain reaches this height (used by `execute_with_retry` backoff).
    recover_at_height: Option<u64>,
}

/// Per-workload runtime state held by the marketplace (off-chain side).
struct WorkloadRuntime {
    spec: WorkloadSpec,
    code: EnclaveCode,
    contract: Address,
    consumer: Address,
    executors: Vec<Address>,
    /// Attestation quote of each joined executor's live enclave; a crash
    /// takes the quote with it.
    quotes: HashMap<Address, Quote>,
    /// Verified provider data held by each executor.
    executor_data: HashMap<Address, Vec<(Address, Dataset)>>,
    /// On-chain participation transaction per provider (dispute proofs).
    participation_tx: HashMap<Address, Digest>,
    /// Final agreed model parameters after execution.
    result_params: Option<Vec<f64>>,
    /// The executors' verification across every provider accepted so far:
    /// readings (accepted, rejected, found out of bounds) and the device
    /// signatures checked for them.
    verifier_stats: (u64, u64, u64, u64),
    /// Causal context minted when the workload was submitted; every later
    /// lifecycle phase re-enters it so the whole submit→payout story is
    /// one trace ([`TraceCtx::NONE`] when no capture was active).
    trace: TraceCtx,
}

/// The marketplace: all five roles plus the governance chain.
pub struct Marketplace {
    /// The governance-layer blockchain.
    pub chain: Blockchain,
    /// TEE attestation verifier.
    pub attestation: AttestationService,
    /// Semantic ontology shared by the platform.
    pub ontology: Ontology,
    /// Trusted device manufacturers.
    pub manufacturers: ManufacturerRegistry,
    manufacturer_keys: KeyPair,
    consumers: HashMap<Address, ConsumerAccount>,
    providers: HashMap<Address, ProviderAccount>,
    executors: HashMap<Address, ExecutorAccount>,
    workloads: HashMap<u64, WorkloadRuntime>,
    next_workload_id: u64,
    next_device_seed: u64,
    now: u64,
    /// Ambient causal context for chain traffic: the trace of whichever
    /// workload a lifecycle method is currently acting for.
    current_trace: TraceCtx,
}

/// Signs, submits and mines one transaction and returns its receipt. The
/// chain takes `trace` as its ambient context, so the
/// submit→inclusion→contract-event chain joins the workload's trace.
///
/// A function of the chain and not a method of the marketplace, so that a
/// lifecycle step keeps its borrows of the workload and of the signer's
/// account across the call and copies nothing out of them.
fn send_raw(chain: &mut Blockchain, trace: TraceCtx, keys: &KeyPair, kind: TxKind) -> TxReceipt {
    chain.set_trace_ctx(trace);
    let sender = Address::of(&keys.public);
    let nonce = chain.state.nonce(&sender);
    let tx = Transaction {
        from: keys.public.clone(),
        nonce,
        kind,
        gas_limit: 10_000_000,
        // High fee ceiling, zero tip: marketplace actors always clear
        // the base fee, and at the idle-chain base fee of zero they
        // pay nothing (legacy behaviour preserved).
        max_fee_per_gas: u64::MAX / 2,
        priority_fee_per_gas: 0,
    }
    .sign(keys);
    let hash = match chain.submit(tx) {
        Ok(h) => h,
        Err(e) => return TxReceipt::failed(Digest::ZERO, 0, 0, e.to_string()),
    };
    chain.produce_block();
    // Every step seals the block its one transaction went into, so the pool
    // held only this executable transaction and the new block includes it.
    chain
        .receipt(&hash)
        .cloned()
        .expect("produced block contains the receipt")
}

/// [`send_raw`] for a step that ends where its transaction fails.
fn send(
    chain: &mut Blockchain,
    trace: TraceCtx,
    keys: &KeyPair,
    kind: TxKind,
) -> Result<TxReceipt, MarketError> {
    let receipt = send_raw(chain, trace, keys, kind);
    if !receipt.success {
        return Err(MarketError::ChainFailure(receipt.error.unwrap_or_default()));
    }
    Ok(receipt)
}

/// A call into a workload contract that carries no native value: every
/// lifecycle transaction but the mints, the deploy and a native FUND.
fn call(contract: Address, call: Call) -> TxKind {
    TxKind::Call {
        contract,
        input: call.to_bytes(),
        value: 0,
    }
}

/// The off-chain half of a workload. Like [`actor`], it borrows only the
/// map it reads and leaves the chain and the other maps to the caller.
fn workload(
    workloads: &HashMap<u64, WorkloadRuntime>,
    id: u64,
) -> Result<&WorkloadRuntime, MarketError> {
    workloads.get(&id).ok_or(MarketError::UnknownWorkload(id))
}

/// A registered actor's account; `kind` names the role in the error.
fn actor<'a, A>(
    accounts: &'a HashMap<Address, A>,
    addr: &Address,
    kind: &'static str,
) -> Result<&'a A, MarketError> {
    accounts.get(addr).ok_or(MarketError::UnknownActor(kind))
}

fn actor_mut<'a, A>(
    accounts: &'a mut HashMap<Address, A>,
    addr: &Address,
    kind: &'static str,
) -> Result<&'a mut A, MarketError> {
    accounts
        .get_mut(addr)
        .ok_or(MarketError::UnknownActor(kind))
}

impl Marketplace {
    /// Boots a marketplace with a single-validator governance chain.
    pub fn new(seed: u64) -> Marketplace {
        let mut registry = ContractRegistry::new();
        registry.register(WORKLOAD_CODE_ID, WorkloadContract::construct);
        let chain = Blockchain::single_validator(seed ^ 0xb10c, &[], registry);
        let mut manufacturers = ManufacturerRegistry::new();
        let manufacturer_keys = KeyPair::from_seed(seed ^ 0xfac);
        manufacturers.register_manufacturer(manufacturer_keys.public.clone());
        let mut ontology = Ontology::new();
        ontology.declare("sensor/environment/temperature");
        ontology.declare("sensor/environment/humidity");
        ontology.declare("sensor/motion/accelerometer");
        ontology.declare("sensor/health/heart-rate");
        Marketplace {
            chain,
            attestation: AttestationService::new(),
            ontology,
            manufacturers,
            manufacturer_keys,
            consumers: HashMap::new(),
            providers: HashMap::new(),
            executors: HashMap::new(),
            workloads: HashMap::new(),
            next_workload_id: 0,
            next_device_seed: 0x1000,
            now: 0,
            current_trace: TraceCtx::NONE,
        }
    }

    /// Re-enters the causal context minted at workload submission, so
    /// chain traffic and phase events from this lifecycle step join the
    /// workload's trace. No-op ([`TraceCtx::NONE`]) for unknown workloads
    /// or untraced submissions.
    fn enter_workload_trace(&mut self, workload_id: u64) {
        self.current_trace = self
            .workloads
            .get(&workload_id)
            .map(|r| r.trace)
            .unwrap_or(TraceCtx::NONE);
    }

    /// Current logical marketplace time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the logical clock.
    pub fn tick(&mut self) {
        self.now += 1;
    }

    /// Advances the governance chain by `n` empty blocks. Retry backoff,
    /// deadline expiry and execution timeouts all measure time in blocks.
    pub fn mine_empty_blocks(&mut self, n: u64) {
        self.chain.set_trace_ctx(self.current_trace);
        for _ in 0..n {
            self.chain.produce_block();
        }
    }

    /// The contract address of a workload.
    pub fn workload_contract(&self, workload_id: u64) -> Option<Address> {
        self.workloads.get(&workload_id).map(|r| r.contract)
    }

    /// Reads the on-chain contract state for a workload.
    pub fn workload_state(&self, workload_id: u64) -> Result<WorkloadState, MarketError> {
        let runtime = workload(&self.workloads, workload_id)?;
        let snapshot = self
            .chain
            .state
            .contract_snapshot(&runtime.contract)
            .ok_or_else(|| MarketError::ChainFailure("contract missing".into()))?;
        WorkloadState::from_bytes(&snapshot).map_err(|e| MarketError::ChainFailure(e.to_string()))
    }

    /// Convenience: drives a workload through the whole Fig. 2 lifecycle.
    ///
    /// `assignments` maps each accepting provider to its chosen executor.
    pub fn run_full_lifecycle(
        &mut self,
        workload_id: u64,
        assignments: &[(Address, Address)],
    ) -> Result<(ExecutionReport, FinalizeReport), MarketError> {
        for (provider, executor) in assignments {
            self.provider_accept(*provider, workload_id, *executor)?;
        }
        if !self.try_start(workload_id)? {
            return Err(MarketError::BadPhase("start conditions not met".into()));
        }
        let exec_report = self.execute(workload_id)?;
        let fin_report = self.finalize(workload_id)?;
        Ok((exec_report, fin_report))
    }
}
