//! The PDS² marketplace orchestrator.
//!
//! Wires the five roles of Fig. 1 — consumers, providers, the storage
//! subsystem, executors, and the blockchain governance layer — and drives
//! the Fig. 2 workload lifecycle end to end:
//!
//! 1. consumer submits a workload specification (on-chain contract +
//!    escrow + workload-code NFT);
//! 2. storage subsystems match provider data against the precondition and
//!    providers are notified;
//! 3. providers verify the executor's enclave attestation, then hand over
//!    data under signed access grants and participation certificates;
//! 4. executors verify device signatures (§IV-B), register participation
//!    on-chain, and once the contract's quorum is met the governance layer
//!    starts execution;
//! 5. executors train inside (simulated) enclaves and aggregate
//!    peer-to-peer; the agreed result hash goes on-chain;
//! 6. rewards are split (proportional or Shapley) and paid out by the
//!    workload contract, with the whole trail in the event log.

use crate::authenticity::{Device, DeviceId, ManufacturerRegistry, ReadingVerifier, SignedReading};
use crate::certificate::ParticipationCertificate;
use crate::contract::{calls, Phase, WorkloadContract, WorkloadState, WORKLOAD_CODE_ID};
use crate::workload::{RewardScheme, TaskKind, WorkloadSpec};
use pds2_chain::address::Address;
use pds2_chain::chain::Blockchain;
use pds2_chain::contract::ContractRegistry;
use pds2_chain::erc721::{AssetKind, Erc721Op};
use pds2_chain::state::TxReceipt;
use pds2_chain::tx::{Transaction, TxKind};
use pds2_crypto::codec::Encoder;
use pds2_crypto::schnorr::KeyPair;
use pds2_crypto::sha256::{sha256, Digest};
use pds2_ml::data::Dataset;
use pds2_ml::model::{LinearRegression, LogisticRegression, Model};
use pds2_ml::sgd::{train, SgdConfig};
use pds2_rewards::shapley::{
    exact_shapley, monte_carlo_shapley_par, proportional, to_reward_shares, McConfig,
};
use pds2_rewards::utility::MlUtility;
use pds2_storage::semantic::{Metadata, Ontology};
use pds2_storage::store::{
    AccessGrant, LocalStore, Record, RecordId, StorageBackend, StorageError, ThirdPartyStore,
};
use pds2_tee::attestation::{AttestationService, Quote};
use pds2_tee::cost::{CostMeter, CostModel};
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
        }
    }
}

impl std::error::Error for MarketError {}

impl From<StorageError> for MarketError {
    fn from(e: StorageError) -> Self {
        MarketError::Storage(e)
    }
}

/// Where a provider keeps its data (the Fig. 3 hardware configurations).
pub enum StorageChoice {
    /// Provider-owned hardware holding plaintext.
    Local,
    /// Outsourced sealed storage publishing metadata at the given detail
    /// level.
    ThirdParty {
        /// Metadata detail level revealed to the operator.
        publish_level: u8,
    },
}

struct ProviderAccount {
    keys: KeyPair,
    store: ProviderStore,
    devices: Vec<Device>,
    /// Readings per record (the provider's own plaintext copy).
    readings: HashMap<RecordId, Vec<SignedReading>>,
}

enum ProviderStore {
    Local(LocalStore),
    Third {
        store: ThirdPartyStore,
        key: [u8; 32],
    },
}

impl ProviderStore {
    fn backend(&self) -> &dyn StorageBackend {
        match self {
            ProviderStore::Local(s) => s,
            ProviderStore::Third { store, .. } => store,
        }
    }

    fn backend_mut(&mut self) -> &mut dyn StorageBackend {
        match self {
            ProviderStore::Local(s) => s,
            ProviderStore::Third { store, .. } => store,
        }
    }
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

struct ConsumerAccount {
    keys: KeyPair,
}

/// Per-workload runtime state held by the marketplace (off-chain side).
struct WorkloadRuntime {
    spec: WorkloadSpec,
    code: EnclaveCode,
    contract: Address,
    consumer: Address,
    executors: Vec<Address>,
    /// Attestation quotes produced by joined executors.
    quotes: HashMap<Address, Quote>,
    /// Verified provider data held by each executor.
    executor_data: HashMap<Address, Vec<(Address, Dataset)>>,
    certificates: Vec<ParticipationCertificate>,
    /// On-chain participation transaction per provider (dispute proofs).
    participation_tx: HashMap<Address, Digest>,
    /// Final agreed model parameters after execution.
    result_params: Option<Vec<f64>>,
    /// Per-executor verification stats.
    /// (accepted, rejected, out-of-bounds)
    verifier_stats: HashMap<Address, (u64, u64, u64)>,
    /// Causal context minted when the workload was submitted; every later
    /// lifecycle phase re-enters it so the whole submit→payout story is
    /// one trace ([`pds2_obs::TraceCtx::NONE`] when no capture was active).
    trace: pds2_obs::TraceCtx,
}

/// Outcome of the execution phase.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// Hash submitted on-chain by every honest executor.
    pub result_hash: Digest,
    /// Validation accuracy (classification) or negative MSE (regression)
    /// of the aggregated model on the consumer's validation set.
    pub validation_score: f64,
    /// Per-executor simulated enclave cost.
    pub enclave_costs: HashMap<Address, CostMeter>,
    /// Readings accepted / rejected across executors (§IV-B pipeline).
    pub readings_accepted: u64,
    /// Readings rejected.
    pub readings_rejected: u64,
    /// Readings discarded by §IV-C executor-side data verification
    /// (authentic but outside the workload's declared value bounds).
    pub readings_out_of_bounds: u64,
}

/// Retry discipline for [`Marketplace::execute_with_retry`]: how often to
/// re-attempt a failed execution and how long to back off between
/// attempts (backoff is expressed in mined governance blocks and doubles
/// after every failure, so crashed executors with a scheduled recovery
/// height come back within a bounded number of attempts).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum execution attempts (≥ 1).
    pub max_attempts: u32,
    /// Empty blocks mined after the first failure; doubles per attempt.
    pub backoff_blocks: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_blocks: 2,
        }
    }
}

/// Outcome of finalization.
#[derive(Clone, Debug)]
pub struct FinalizeReport {
    /// Reward paid per provider.
    pub provider_shares: Vec<(Address, u128)>,
    /// Executors that received fees.
    pub paid_executors: Vec<Address>,
    /// Executors slashed for disagreement.
    pub slashed: Vec<Address>,
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
    current_trace: pds2_obs::TraceCtx,
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
            current_trace: pds2_obs::TraceCtx::NONE,
        }
    }

    /// Re-enters the causal context minted at workload submission, so
    /// chain traffic and phase events from this lifecycle step join the
    /// workload's trace. No-op ([`pds2_obs::TraceCtx::NONE`]) for unknown
    /// workloads or untraced submissions.
    fn enter_workload_trace(&mut self, workload_id: u64) {
        self.current_trace = self
            .workloads
            .get(&workload_id)
            .map(|r| r.trace)
            .unwrap_or(pds2_obs::TraceCtx::NONE);
    }

    /// Current logical marketplace time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the logical clock.
    pub fn tick(&mut self) {
        self.now += 1;
    }

    // ---------------------------------------------------------------
    // Registration
    // ---------------------------------------------------------------

    /// Registers a consumer with initial funds.
    pub fn register_consumer(&mut self, seed: u64, funds: u128) -> Address {
        let keys = KeyPair::from_seed(seed);
        let addr = Address::of(&keys.public);
        self.chain.state.genesis_credit(addr, funds);
        self.consumers.insert(addr, ConsumerAccount { keys });
        addr
    }

    /// Registers a provider with a storage choice (Fig. 3).
    pub fn register_provider(&mut self, seed: u64, storage: StorageChoice) -> Address {
        let keys = KeyPair::from_seed(seed);
        let addr = Address::of(&keys.public);
        let store = match storage {
            StorageChoice::Local => ProviderStore::Local(LocalStore::new()),
            StorageChoice::ThirdParty { publish_level } => {
                let key_bytes = pds2_crypto::hmac::hkdf(
                    b"pds2-provider-store",
                    &seed.to_le_bytes(),
                    b"key",
                    32,
                );
                ProviderStore::Third {
                    store: ThirdPartyStore::new(
                        key_bytes.clone().try_into().unwrap(),
                        publish_level,
                    ),
                    key: key_bytes.try_into().unwrap(),
                }
            }
        };
        self.providers.insert(
            addr,
            ProviderAccount {
                keys,
                store,
                devices: Vec::new(),
                readings: HashMap::new(),
            },
        );
        addr
    }

    /// Registers an executor with its own TEE-capable platform.
    pub fn register_executor(&mut self, seed: u64) -> Address {
        self.register_executor_with_cost_model(seed, CostModel::default())
    }

    /// Registers an executor with an explicit TEE cost model (ablation A2).
    pub fn register_executor_with_cost_model(&mut self, seed: u64, model: CostModel) -> Address {
        let keys = KeyPair::from_seed(seed);
        let addr = Address::of(&keys.public);
        let platform = Platform::new(seed, model);
        self.attestation
            .register_platform(platform.attestation_key());
        self.executors.insert(
            addr,
            ExecutorAccount {
                keys,
                platform,
                enclaves: HashMap::new(),
                crashed: false,
                recover_at_height: None,
            },
        );
        addr
    }

    /// Creates an ERC-20 reward token minted to the consumer — used to
    /// denominate workloads in fungible tokens instead of native currency.
    pub fn consumer_create_reward_token(
        &mut self,
        consumer: Address,
        symbol: &str,
        supply: u128,
    ) -> Result<pds2_chain::erc20::TokenId, MarketError> {
        let keys = self
            .consumers
            .get(&consumer)
            .ok_or(MarketError::UnknownActor("consumer"))?
            .keys
            .clone();
        let receipt = self.send_tx(
            &keys,
            TxKind::Erc20(pds2_chain::erc20::Erc20Op::Create {
                symbol: symbol.to_string(),
                initial_supply: supply,
            }),
        );
        if !receipt.success {
            return Err(MarketError::ChainFailure(receipt.error.unwrap_or_default()));
        }
        Ok(pds2_chain::erc20::TokenId(u64::from_le_bytes(
            receipt.output[..8]
                .try_into()
                .expect("create returns token id"),
        )))
    }

    /// Provisions a manufacturer-endorsed device for a provider.
    pub fn provider_add_device(&mut self, provider: Address) -> Result<DeviceId, MarketError> {
        let seed = self.next_device_seed;
        self.next_device_seed += 1;
        let device = Device::new(seed);
        self.manufacturers
            .endorse(&self.manufacturer_keys.clone(), &device)
            .expect("platform manufacturer is registered");
        let id = device.id();
        let account = self
            .providers
            .get_mut(&provider)
            .ok_or(MarketError::UnknownActor("provider"))?;
        account.devices.push(device);
        Ok(id)
    }

    // ---------------------------------------------------------------
    // Data ingestion
    // ---------------------------------------------------------------

    /// A provider's device signs `data` reading-by-reading; the signed
    /// batch is stored in the provider's storage subsystem and registered
    /// on-chain as a dataset NFT.
    pub fn provider_ingest(
        &mut self,
        provider: Address,
        device_index: usize,
        data: &Dataset,
        metadata: Metadata,
    ) -> Result<RecordId, MarketError> {
        let now = self.now;
        let account = self
            .providers
            .get_mut(&provider)
            .ok_or(MarketError::UnknownActor("provider"))?;
        let device = account
            .devices
            .get_mut(device_index)
            .ok_or(MarketError::UnknownActor("device"))?;
        let readings: Vec<SignedReading> = data
            .x
            .iter()
            .zip(&data.y)
            .enumerate()
            .map(|(i, (row, &y))| device.sign_reading(now + i as u64, row.clone(), y))
            .collect();
        let mut enc = Encoder::new();
        enc.put_seq(&readings);
        let payload = enc.finish();
        let record = Record {
            payload,
            metadata,
            timestamp: now,
        };
        let id = account.store.backend_mut().put(record);
        account.readings.insert(id, readings);

        // Register the dataset on-chain as an NFT committing to its hash.
        let keys = account.keys.clone();
        let receipt = self.send_tx(
            &keys,
            TxKind::Erc721(Erc721Op::Mint {
                kind: AssetKind::Dataset,
                content: id.0,
                label: format!("dataset-{}", id.0.short()),
            }),
        );
        if !receipt.success {
            return Err(MarketError::ChainFailure(receipt.error.unwrap_or_default()));
        }
        self.now += data.len() as u64;
        Ok(id)
    }

    // ---------------------------------------------------------------
    // Workload lifecycle (Fig. 2)
    // ---------------------------------------------------------------

    /// Step 1: the consumer submits a workload. Deploys the contract,
    /// funds the escrow for up to `max_executors` executors and mints the
    /// workload-code NFT.
    pub fn submit_workload(
        &mut self,
        consumer: Address,
        spec: WorkloadSpec,
        code: EnclaveCode,
        max_executors: u32,
    ) -> Result<u64, MarketError> {
        self.submit_workload_with_timeout(consumer, spec, code, max_executors, 0)
    }

    /// Like [`Marketplace::submit_workload`], but arms the contract's
    /// execution timeout: once Executing, anyone may abort the workload
    /// after `exec_timeout_blocks` governance blocks and refund the
    /// consumer — the escape hatch when every executor holding data
    /// crashes mid-workload (0 disables the timeout).
    pub fn submit_workload_with_timeout(
        &mut self,
        consumer: Address,
        spec: WorkloadSpec,
        code: EnclaveCode,
        max_executors: u32,
        exec_timeout_blocks: u64,
    ) -> Result<u64, MarketError> {
        if code.measurement() != spec.code_measurement {
            return Err(MarketError::Attestation(
                "spec measurement does not match supplied code".into(),
            ));
        }
        let keys = self
            .consumers
            .get(&consumer)
            .ok_or(MarketError::UnknownActor("consumer"))?
            .keys
            .clone();
        // A workload entering the system is the root of a new trace: every
        // later phase (join, accept, start, execute, payout) re-enters this
        // context, and the chain/net layers inherit it for the workload's
        // transactions and gossip.
        let root = pds2_obs::new_trace(
            "market",
            "workload.submit",
            pds2_obs::Stamp::Block(self.chain.height()),
            vec![
                ("max_executors", pds2_obs::Value::from(max_executors as u64)),
                ("timeout_blocks", pds2_obs::Value::from(exec_timeout_blocks)),
            ],
        );
        self.current_trace = root.ctx();
        // Mint the workload-code NFT (§III-A: code as a non-fungible asset).
        let code_content = sha256(&code.code);
        let receipt = self.send_tx(
            &keys,
            TxKind::Erc721(Erc721Op::Mint {
                kind: AssetKind::WorkloadCode,
                content: code_content,
                label: code.name.clone(),
            }),
        );
        if !receipt.success {
            return Err(MarketError::ChainFailure(receipt.error.unwrap_or_default()));
        }
        // Deploy the workload contract.
        let init = WorkloadContract::init_bytes(
            spec.spec_hash(),
            spec.code_measurement.0,
            spec.provider_reward,
            spec.executor_fee,
            spec.min_providers,
            spec.min_records,
            0, // marketplace workloads carry no on-chain deadline by default
            exec_timeout_blocks,
            spec.reward_token,
        );
        let receipt = self.send_tx(
            &keys,
            TxKind::Deploy {
                code_id: WORKLOAD_CODE_ID.into(),
                init,
            },
        );
        if !receipt.success {
            return Err(MarketError::ChainFailure(receipt.error.unwrap_or_default()));
        }
        let contract = receipt.deployed.expect("deploy receipt carries address");
        // Fund the escrow: native value, or an ERC-20 transfer followed by
        // a zero-value FUND acknowledgement (§III-A token rewards).
        let escrow = spec.required_escrow(max_executors);
        match spec.reward_token {
            None => {
                let receipt = self.send_tx(
                    &keys,
                    TxKind::Call {
                        contract,
                        input: calls::fund(),
                        value: escrow,
                    },
                );
                if !receipt.success {
                    return Err(MarketError::ChainFailure(receipt.error.unwrap_or_default()));
                }
            }
            Some(token) => {
                let receipt = self.send_tx(
                    &keys,
                    TxKind::Erc20(pds2_chain::erc20::Erc20Op::Transfer {
                        token,
                        to: contract,
                        amount: escrow,
                    }),
                );
                if !receipt.success {
                    return Err(MarketError::ChainFailure(receipt.error.unwrap_or_default()));
                }
                let receipt = self.send_tx(
                    &keys,
                    TxKind::Call {
                        contract,
                        input: calls::fund(),
                        value: 0,
                    },
                );
                if !receipt.success {
                    return Err(MarketError::ChainFailure(receipt.error.unwrap_or_default()));
                }
            }
        }
        let id = self.next_workload_id;
        self.next_workload_id += 1;
        self.workloads.insert(
            id,
            WorkloadRuntime {
                spec,
                code,
                contract,
                consumer,
                executors: Vec::new(),
                quotes: HashMap::new(),
                executor_data: HashMap::new(),
                certificates: Vec::new(),
                participation_tx: HashMap::new(),
                result_params: None,
                verifier_stats: HashMap::new(),
                trace: self.current_trace,
            },
        );
        self.tick();
        root.finish(
            pds2_obs::Stamp::Block(self.chain.height()),
            vec![("workload", pds2_obs::Value::from(id))],
        );
        Ok(id)
    }

    /// An executor joins a workload: launches the enclave, produces an
    /// attestation quote (verified against the approved measurement) and
    /// registers on-chain.
    pub fn executor_join(
        &mut self,
        executor: Address,
        workload_id: u64,
    ) -> Result<(), MarketError> {
        self.enter_workload_trace(workload_id);
        let runtime = self
            .workloads
            .get(&workload_id)
            .ok_or(MarketError::UnknownWorkload(workload_id))?;
        let code = runtime.code.clone();
        let expected = runtime.spec.code_measurement;
        let contract = runtime.contract;
        let account = self
            .executors
            .get_mut(&executor)
            .ok_or(MarketError::UnknownActor("executor"))?;
        let mut enclave = account.platform.launch(&code);
        let report_data = sha256(&executor.0 .0);
        let quote = enclave.attest(report_data);
        self.attestation
            .verify_expecting(&quote, expected)
            .map_err(|e| MarketError::Attestation(e.to_string()))?;
        account.enclaves.insert(workload_id, enclave);
        let keys = account.keys.clone();
        let receipt = self.send_tx(
            &keys,
            TxKind::Call {
                contract,
                input: calls::register_executor(),
                value: 0,
            },
        );
        if !receipt.success {
            return Err(MarketError::ChainFailure(receipt.error.unwrap_or_default()));
        }
        let runtime = self.workloads.get_mut(&workload_id).expect("checked");
        runtime.executors.push(executor);
        runtime.quotes.insert(executor, quote);
        self.tick();
        pds2_obs::trace_event!(
            "market",
            "executor.join",
            pds2_obs::Stamp::Block(self.chain.height()),
            self.current_trace,
            "workload" => workload_id,
        );
        Ok(())
    }

    // ---------------------------------------------------------------
    // Executor crash-recovery (chaos-harness consumer)
    // ---------------------------------------------------------------

    /// Simulates a crash-stop failure of an executor: all volatile enclave
    /// state is lost and the executor is skipped by [`Marketplace::execute`]
    /// until it recovers. `recover_at_height` optionally schedules an
    /// automatic recovery once the governance chain reaches that height
    /// (the hook [`Marketplace::execute_with_retry`] backoff relies on).
    pub fn executor_crash(
        &mut self,
        executor: Address,
        recover_at_height: Option<u64>,
    ) -> Result<(), MarketError> {
        let account = self
            .executors
            .get_mut(&executor)
            .ok_or(MarketError::UnknownActor("executor"))?;
        account.crashed = true;
        account.recover_at_height = recover_at_height;
        account.enclaves.clear();
        Ok(())
    }

    /// Recovers a crashed executor: clears the crash flag and relaunches
    /// (and re-attests) an enclave for every workload the executor had
    /// joined — the original enclaves died with the crash.
    pub fn executor_recover(&mut self, executor: Address) -> Result<(), MarketError> {
        {
            let account = self
                .executors
                .get_mut(&executor)
                .ok_or(MarketError::UnknownActor("executor"))?;
            account.crashed = false;
            account.recover_at_height = None;
        }
        let mut joined: Vec<u64> = self
            .workloads
            .iter()
            .filter(|(_, rt)| rt.executors.contains(&executor))
            .map(|(id, _)| *id)
            .collect();
        joined.sort_unstable();
        for workload_id in joined {
            self.executor_relaunch(executor, workload_id)?;
        }
        Ok(())
    }

    /// Relaunches and re-attests the enclave for one workload, refreshing
    /// the quote providers verify against. The executor stays registered
    /// on-chain; only the off-chain enclave is replaced.
    pub fn executor_relaunch(
        &mut self,
        executor: Address,
        workload_id: u64,
    ) -> Result<(), MarketError> {
        let runtime = self
            .workloads
            .get(&workload_id)
            .ok_or(MarketError::UnknownWorkload(workload_id))?;
        let code = runtime.code.clone();
        let expected = runtime.spec.code_measurement;
        let account = self
            .executors
            .get_mut(&executor)
            .ok_or(MarketError::UnknownActor("executor"))?;
        let mut enclave = account.platform.launch(&code);
        let report_data = sha256(&executor.0 .0);
        let quote = enclave.attest(report_data);
        self.attestation
            .verify_expecting(&quote, expected)
            .map_err(|e| MarketError::Attestation(e.to_string()))?;
        account.enclaves.insert(workload_id, enclave);
        self.workloads
            .get_mut(&workload_id)
            .expect("checked")
            .quotes
            .insert(executor, quote);
        Ok(())
    }

    /// Whether an executor is currently in the crashed state.
    pub fn executor_is_crashed(&self, executor: Address) -> bool {
        self.executors.get(&executor).is_some_and(|a| a.crashed)
    }

    /// Wakes up crashed executors whose scheduled recovery height has
    /// been reached by the governance chain.
    fn recover_due_executors(&mut self) -> Result<(), MarketError> {
        let height = self.chain.height();
        let mut due: Vec<Address> = self
            .executors
            .iter()
            .filter(|(_, a)| a.crashed && a.recover_at_height.is_some_and(|h| height >= h))
            .map(|(addr, _)| *addr)
            .collect();
        due.sort();
        for executor in due {
            self.executor_recover(executor)?;
        }
        Ok(())
    }

    /// Step 2: storage subsystems match the precondition; returns the
    /// providers with at least one eligible record.
    pub fn eligible_providers(&self, workload_id: u64) -> Result<Vec<Address>, MarketError> {
        let runtime = self
            .workloads
            .get(&workload_id)
            .ok_or(MarketError::UnknownWorkload(workload_id))?;
        let mut eligible: Vec<Address> = self
            .providers
            .iter()
            .filter(|(_, account)| {
                !account
                    .store
                    .backend()
                    .match_workload(&runtime.spec.precondition, &self.ontology)
                    .is_empty()
            })
            .map(|(addr, _)| *addr)
            .collect();
        eligible.sort();
        Ok(eligible)
    }

    /// Steps 3–4: a provider accepts a workload through a chosen executor.
    ///
    /// The provider first verifies the executor's enclave attestation,
    /// then issues access grants and a participation certificate; the
    /// executor fetches the data, verifies every device signature and
    /// registers the contribution on-chain.
    pub fn provider_accept(
        &mut self,
        provider: Address,
        workload_id: u64,
        executor: Address,
    ) -> Result<(), MarketError> {
        self.enter_workload_trace(workload_id);
        let runtime = self
            .workloads
            .get(&workload_id)
            .ok_or(MarketError::UnknownWorkload(workload_id))?;
        let contract = runtime.contract;
        let expected_measurement = runtime.spec.code_measurement;
        let precondition = runtime.spec.precondition.clone();
        let feature_dim = runtime.spec.feature_dim as usize;
        let data_bounds = runtime.spec.data_bounds;
        if !runtime.executors.contains(&executor) {
            return Err(MarketError::UnknownActor("executor (not joined)"));
        }
        // Provider-side attestation check (§II-E: no trust in executors).
        let quote = runtime
            .quotes
            .get(&executor)
            .ok_or(MarketError::Attestation("no quote from executor".into()))?
            .clone();
        self.attestation
            .verify_expecting(&quote, expected_measurement)
            .map_err(|e| MarketError::Attestation(e.to_string()))?;

        let now = self.now;
        let executor_digest = sha256(&executor.0 .0);
        let (grants, cert, keys) = {
            let account = self
                .providers
                .get_mut(&provider)
                .ok_or(MarketError::UnknownActor("provider"))?;
            let matching = account
                .store
                .backend()
                .match_workload(&precondition, &self.ontology);
            if matching.is_empty() {
                return Err(MarketError::BadPhase("no eligible records".into()));
            }
            let n_readings: u64 = matching
                .iter()
                .map(|id| account.readings.get(id).map_or(0, |r| r.len() as u64))
                .sum();
            let grants: Vec<AccessGrant> = matching
                .iter()
                .map(|&id| {
                    AccessGrant::issue(
                        &account.keys,
                        id,
                        workload_id,
                        executor_digest,
                        now + 10_000,
                    )
                })
                .collect();
            let cert = ParticipationCertificate::issue(
                &account.keys,
                workload_id,
                contract,
                matching.clone(),
                n_readings,
                executor,
                now + 10_000,
            );
            (grants, cert, account.keys.clone())
        };
        drop(keys); // provider key not needed past issuance

        // Executor fetches and verifies the data.
        let mut dataset_rows: Vec<Vec<f64>> = Vec::new();
        let mut dataset_targets: Vec<f64> = Vec::new();
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        let mut out_of_bounds = 0u64;
        {
            let account = self.providers.get(&provider).expect("checked above");
            let mut verifier = ReadingVerifier::new(&self.manufacturers);
            for grant in &grants {
                let wire = match &account.store {
                    ProviderStore::Local(store) => {
                        store.fetch_with_grant(grant, &executor_digest, now)?
                    }
                    ProviderStore::Third { store, key } => {
                        let sealed_wire = store.fetch_with_grant(grant, &executor_digest, now)?;
                        // The provider releases its key to the *attested*
                        // enclave only; we already verified the quote.
                        let mut dec = pds2_crypto::codec::Decoder::new(&sealed_wire);
                        let nonce: [u8; 12] = dec
                            .get_raw(12)
                            .map_err(storage_decode_err)?
                            .try_into()
                            .unwrap();
                        let ciphertext = dec.get_bytes().map_err(storage_decode_err)?;
                        let tag = dec.get_digest().map_err(storage_decode_err)?;
                        ThirdPartyStore::unseal_payload(
                            key,
                            &pds2_crypto::chacha20::SealedBlob {
                                nonce,
                                ciphertext,
                                tag,
                            },
                        )?
                    }
                };
                let readings = decode_readings(&wire)
                    .map_err(|e| MarketError::Authenticity(format!("payload decode: {e}")))?;
                for reading in &readings {
                    if let Ok(()) = verifier.verify(reading) {
                        if reading.features.len() != feature_dim {
                            return Err(MarketError::ShapeMismatch(format!(
                                "reading has {} features, workload expects {feature_dim}",
                                reading.features.len()
                            )));
                        }
                        // §IV-C complementary check: verify the requirement
                        // directly on the data. Costs executor compute on
                        // irrelevant readings (counted), but leaks nothing
                        // via metadata.
                        if let Some((lo, hi)) = data_bounds {
                            if reading.features.iter().any(|v| *v < lo || *v > hi) {
                                out_of_bounds += 1;
                                continue;
                            }
                        }
                        dataset_rows.push(reading.features.clone());
                        dataset_targets.push(reading.target);
                    }
                }
            }
            accepted += verifier.accepted;
            rejected += verifier.rejected;
        }
        if dataset_rows.is_empty() {
            return Err(MarketError::Authenticity(
                "no readings survived verification".into(),
            ));
        }
        let verified_data = Dataset::new(dataset_rows, dataset_targets);

        // Executor registers the contribution on-chain with the cert hash.
        let cert_hash = cert.certificate_hash();
        let n_verified = verified_data.len() as u64;
        let exec_keys = self
            .executors
            .get(&executor)
            .ok_or(MarketError::UnknownActor("executor"))?
            .keys
            .clone();
        let receipt = self.send_tx(
            &exec_keys,
            TxKind::Call {
                contract,
                input: calls::submit_participation(&[(provider, n_verified, cert_hash)]),
                value: 0,
            },
        );
        if !receipt.success {
            return Err(MarketError::ChainFailure(receipt.error.unwrap_or_default()));
        }
        let participation_tx_hash = receipt.tx_hash;

        let runtime = self.workloads.get_mut(&workload_id).expect("checked");
        runtime
            .executor_data
            .entry(executor)
            .or_default()
            .push((provider, verified_data));
        runtime.certificates.push(cert);
        runtime
            .participation_tx
            .insert(provider, participation_tx_hash);
        let stats = runtime.verifier_stats.entry(executor).or_insert((0, 0, 0));
        stats.0 += accepted;
        stats.1 += rejected;
        stats.2 += out_of_bounds;
        self.tick();
        pds2_obs::trace_event!(
            "market",
            "provider.accept",
            pds2_obs::Stamp::Block(self.chain.height()),
            self.current_trace,
            "workload" => workload_id,
            "accepted" => accepted,
            "rejected" => rejected,
        );
        Ok(())
    }

    /// Step 5 precursor: asks the governance layer to start execution.
    /// Returns `true` when the contract's quorum conditions were met.
    pub fn try_start(&mut self, workload_id: u64) -> Result<bool, MarketError> {
        self.enter_workload_trace(workload_id);
        let runtime = self
            .workloads
            .get(&workload_id)
            .ok_or(MarketError::UnknownWorkload(workload_id))?;
        let contract = runtime.contract;
        let keys = self
            .consumers
            .get(&runtime.consumer)
            .expect("consumer registered")
            .keys
            .clone();
        let receipt = self.send_tx(
            &keys,
            TxKind::Call {
                contract,
                input: calls::start(),
                value: 0,
            },
        );
        self.tick();
        Ok(receipt.success)
    }

    /// Step 5: executors train inside enclaves and aggregate peer-to-peer;
    /// every honest executor submits the agreed result hash on-chain.
    pub fn execute(&mut self, workload_id: u64) -> Result<ExecutionReport, MarketError> {
        self.enter_workload_trace(workload_id);
        let span = pds2_obs::span_traced(
            "market",
            "execute",
            pds2_obs::Stamp::Block(self.chain.height()),
            self.current_trace,
            Vec::new(),
        );
        // Chain traffic during the attempt nests under the execute span.
        let outer = self.current_trace;
        if span.id() != 0 {
            self.current_trace = span.ctx();
        }
        let res = self.execute_attempt(workload_id);
        self.current_trace = outer;
        match &res {
            Ok(report) => {
                pds2_obs::counter!("market.executions").inc();
                if pds2_obs::enabled() {
                    span.finish(
                        pds2_obs::Stamp::Block(self.chain.height()),
                        vec![
                            ("workload", pds2_obs::Value::from(workload_id)),
                            ("ok", pds2_obs::Value::from(1u64)),
                            (
                                "validation_score",
                                pds2_obs::Value::from(report.validation_score),
                            ),
                        ],
                    );
                }
            }
            Err(_) => {
                pds2_obs::counter!("market.execution_failures").inc();
                if pds2_obs::enabled() {
                    span.finish(
                        pds2_obs::Stamp::Block(self.chain.height()),
                        vec![
                            ("workload", pds2_obs::Value::from(workload_id)),
                            ("ok", pds2_obs::Value::from(0u64)),
                        ],
                    );
                }
            }
        }
        res
    }

    /// [`Marketplace::execute`] minus the observability wrapper.
    fn execute_attempt(&mut self, workload_id: u64) -> Result<ExecutionReport, MarketError> {
        let state = self.workload_state(workload_id)?;
        if state.phase != Phase::Executing {
            return Err(MarketError::BadPhase(format!(
                "expected Executing, contract is {:?}",
                state.phase
            )));
        }
        // Crash-recovery: executors whose scheduled recovery height has
        // passed come back (with freshly attested enclaves) before the
        // live set is computed.
        self.recover_due_executors()?;
        let (spec, contract, executors_with_data) = {
            let runtime = self
                .workloads
                .get(&workload_id)
                .ok_or(MarketError::UnknownWorkload(workload_id))?;
            let ex: Vec<Address> = runtime
                .executors
                .iter()
                .copied()
                .filter(|e| {
                    runtime.executor_data.contains_key(e)
                        && self.executors.get(e).is_some_and(|a| !a.crashed)
                })
                .collect();
            (runtime.spec.clone(), runtime.contract, ex)
        };
        if executors_with_data.is_empty() {
            return Err(MarketError::BadPhase("no live executor holds data".into()));
        }

        // Local training inside each executor's enclave.
        let mut local_params: Vec<(Address, Vec<f64>, u64)> = Vec::new();
        let mut enclave_costs = HashMap::new();
        for &executor in &executors_with_data {
            let pooled = {
                let runtime = self.workloads.get(&workload_id).expect("checked");
                let parts: Vec<Dataset> = runtime.executor_data[&executor]
                    .iter()
                    .map(|(_, d)| d.clone())
                    .collect();
                Dataset::concat(&parts)
            };
            let n = pooled.len() as u64;
            let params = {
                let account = self.executors.get_mut(&executor).expect("registered");
                let enclave = account
                    .enclaves
                    .get_mut(&workload_id)
                    .ok_or(MarketError::Attestation("enclave not launched".into()))?;
                // Cost model: ~200ns per sample-epoch of plain compute over
                // the pooled working set.
                let compute_ns = 200 * n * spec.local_epochs as u64;
                let working_set = n * (spec.feature_dim as u64 + 1) * 8;
                let spec_ref = &spec;
                let pooled_ref = &pooled;
                let params = enclave.execute(compute_ns, working_set, || {
                    train_local(spec_ref, pooled_ref, workload_id)
                });
                enclave_costs.insert(executor, enclave.meter());
                params
            };
            local_params.push((executor, params, n));
        }

        // Decentralized aggregation: iterative peer averaging converging to
        // the record-weighted mean (identical on every executor, so all
        // honest executors submit the same hash).
        let total_records: u64 = local_params.iter().map(|(_, _, n)| n).sum();
        let dim = local_params[0].1.len();
        let mut aggregated = vec![0.0; dim];
        for (_, params, n) in &local_params {
            for (a, p) in aggregated.iter_mut().zip(params) {
                *a += p * (*n as f64 / total_records as f64);
            }
        }
        // Aggregation rounds only affect simulated communication cost here;
        // the fixed point is the weighted mean.
        let result_hash = hash_params(&aggregated);

        // Validation score on the consumer's public validation set.
        let validation_score = score_params(&spec, &aggregated);

        // Every executor submits the result on-chain.
        for &executor in &executors_with_data {
            let keys = self.executors[&executor].keys.clone();
            let receipt = self.send_tx(
                &keys,
                TxKind::Call {
                    contract,
                    input: calls::submit_result(result_hash),
                    value: 0,
                },
            );
            if !receipt.success {
                return Err(MarketError::ChainFailure(receipt.error.unwrap_or_default()));
            }
        }

        let (accepted, rejected, out_of_bounds) = {
            let runtime = self.workloads.get_mut(&workload_id).expect("checked");
            runtime.result_params = Some(aggregated);
            runtime
                .verifier_stats
                .values()
                .fold((0, 0, 0), |acc, (a, r, f)| {
                    (acc.0 + a, acc.1 + r, acc.2 + f)
                })
        };
        self.tick();
        Ok(ExecutionReport {
            result_hash,
            validation_score,
            enclave_costs,
            readings_accepted: accepted,
            readings_rejected: rejected,
            readings_out_of_bounds: out_of_bounds,
        })
    }

    /// Runs [`Marketplace::execute`] under a retry discipline: after each
    /// failed attempt the marketplace mines empty governance blocks
    /// (doubling the backoff, and waking any executor whose scheduled
    /// recovery height passes) and tries again. Returns the report plus
    /// the number of attempts used; the last error if all attempts fail.
    pub fn execute_with_retry(
        &mut self,
        workload_id: u64,
        policy: RetryPolicy,
    ) -> Result<(ExecutionReport, u32), MarketError> {
        self.enter_workload_trace(workload_id);
        let max_attempts = policy.max_attempts.max(1);
        let mut backoff = policy.backoff_blocks.max(1);
        let mut attempt = 1u32;
        loop {
            match self.execute(workload_id) {
                Ok(report) => return Ok((report, attempt)),
                Err(e) if attempt >= max_attempts => return Err(e),
                Err(_) => {
                    pds2_obs::counter!("market.retries").inc();
                    pds2_obs::trace_event!(
                        "market",
                        "execute.retry",
                        pds2_obs::Stamp::Block(self.chain.height()),
                        self.current_trace,
                        "workload" => workload_id,
                        "attempt" => attempt as u64,
                        "backoff_blocks" => backoff,
                    );
                    self.mine_empty_blocks(backoff);
                    backoff *= 2;
                    attempt += 1;
                }
            }
        }
    }

    /// Advances the governance chain by `n` empty blocks. Retry backoff,
    /// deadline expiry and execution timeouts all measure time in blocks.
    pub fn mine_empty_blocks(&mut self, n: u64) {
        self.chain.set_trace_ctx(self.current_trace);
        for _ in 0..n {
            self.chain.produce_block();
        }
    }

    /// Gracefully aborts an Executing workload whose executors crashed
    /// mid-computation: mines past the contract's execution timeout if
    /// necessary, then calls ABORT, refunding the remaining escrow to the
    /// consumer. Returns the refunded amount.
    pub fn abort_workload(&mut self, workload_id: u64) -> Result<u128, MarketError> {
        self.enter_workload_trace(workload_id);
        let state = self.workload_state(workload_id)?;
        if state.phase != Phase::Executing {
            return Err(MarketError::BadPhase(format!(
                "expected Executing, contract is {:?}",
                state.phase
            )));
        }
        if state.exec_timeout_blocks == 0 {
            return Err(MarketError::BadPhase(
                "workload has no execution timeout".into(),
            ));
        }
        let abort_height = state.started_height + state.exec_timeout_blocks;
        let height = self.chain.height();
        if height <= abort_height {
            self.mine_empty_blocks(abort_height - height + 1);
        }
        let refund = state.funded;
        let contract = self
            .workloads
            .get(&workload_id)
            .ok_or(MarketError::UnknownWorkload(workload_id))?
            .contract;
        let keys = self
            .consumers
            .get(&state.consumer)
            .ok_or(MarketError::UnknownActor("consumer"))?
            .keys
            .clone();
        let receipt = self.send_tx(
            &keys,
            TxKind::Call {
                contract,
                input: calls::abort(),
                value: 0,
            },
        );
        if !receipt.success {
            return Err(MarketError::ChainFailure(receipt.error.unwrap_or_default()));
        }
        self.tick();
        pds2_obs::counter!("market.aborts").inc();
        pds2_obs::trace_event!(
            "market",
            "workload.abort",
            pds2_obs::Stamp::Block(self.chain.height()),
            self.current_trace,
            "workload" => workload_id,
            "refund" => refund,
        );
        Ok(refund)
    }

    /// An adversarial executor submits a forged result hash (E12 hook).
    pub fn executor_submit_forged_result(
        &mut self,
        executor: Address,
        workload_id: u64,
        forged: Digest,
    ) -> Result<TxReceipt, MarketError> {
        self.enter_workload_trace(workload_id);
        let contract = self
            .workloads
            .get(&workload_id)
            .ok_or(MarketError::UnknownWorkload(workload_id))?
            .contract;
        let keys = self
            .executors
            .get(&executor)
            .ok_or(MarketError::UnknownActor("executor"))?
            .keys
            .clone();
        Ok(self.send_tx(
            &keys,
            TxKind::Call {
                contract,
                input: calls::submit_result(forged),
                value: 0,
            },
        ))
    }

    /// Step 6: reward computation (per the spec's scheme) and on-chain
    /// payout through the workload contract.
    pub fn finalize(&mut self, workload_id: u64) -> Result<FinalizeReport, MarketError> {
        self.enter_workload_trace(workload_id);
        let (spec, contract, consumer, provider_data) = {
            let runtime = self
                .workloads
                .get(&workload_id)
                .ok_or(MarketError::UnknownWorkload(workload_id))?;
            let mut provider_data: Vec<(Address, Dataset)> = Vec::new();
            for datasets in runtime.executor_data.values() {
                for (provider, data) in datasets {
                    provider_data.push((*provider, data.clone()));
                }
            }
            provider_data.sort_by_key(|(a, _)| *a);
            (
                runtime.spec.clone(),
                runtime.contract,
                runtime.consumer,
                provider_data,
            )
        };
        let shares = compute_shares(&spec, &provider_data, workload_id);
        let keys = self.consumers[&consumer].keys.clone();
        let receipt = self.send_tx(
            &keys,
            TxKind::Call {
                contract,
                input: calls::finalize(&shares),
                value: 0,
            },
        );
        if !receipt.success {
            return Err(MarketError::ChainFailure(receipt.error.unwrap_or_default()));
        }
        let state = self.workload_state(workload_id)?;
        // Fees go only to executors whose submitted result matches the
        // agreed one; abstainers and slashed executors earn nothing.
        let paid_executors: Vec<Address> = state
            .executors
            .iter()
            .filter(|(_, r)| **r == state.result)
            .map(|(e, _)| *e)
            .collect();
        self.tick();
        pds2_obs::trace_event!(
            "market",
            "workload.payout",
            pds2_obs::Stamp::Block(self.chain.height()),
            self.current_trace,
            "workload" => workload_id,
            "providers_paid" => shares.len(),
            "executors_paid" => paid_executors.len(),
        );
        Ok(FinalizeReport {
            provider_shares: shares,
            paid_executors,
            slashed: state.slashed,
        })
    }

    /// The consumer retrieves the trained model parameters.
    pub fn consumer_retrieve_result(&self, workload_id: u64) -> Result<Vec<f64>, MarketError> {
        let runtime = self
            .workloads
            .get(&workload_id)
            .ok_or(MarketError::UnknownWorkload(workload_id))?;
        let state = self.workload_state(workload_id)?;
        let params = runtime
            .result_params
            .clone()
            .ok_or_else(|| MarketError::BadPhase("no result yet".into()))?;
        // Integrity: the off-chain parameters must hash to the on-chain
        // agreed result.
        match state.result {
            Some(onchain) if onchain == hash_params(&params) => Ok(params),
            Some(_) => Err(MarketError::ChainFailure(
                "result does not match on-chain hash".into(),
            )),
            None => Err(MarketError::BadPhase("not finalized".into())),
        }
    }

    /// Produces a light-client proof that a provider's participation in a
    /// workload is recorded on-chain: the participation transaction's
    /// Merkle inclusion proof plus the signed header it verifies against.
    /// Providers use this in §IV-A reward disputes without trusting the
    /// marketplace operator.
    pub fn prove_participation(
        &self,
        workload_id: u64,
        provider: Address,
    ) -> Result<
        (
            pds2_chain::chain::InclusionProof,
            pds2_chain::block::BlockHeader,
        ),
        MarketError,
    > {
        let runtime = self
            .workloads
            .get(&workload_id)
            .ok_or(MarketError::UnknownWorkload(workload_id))?;
        let tx_hash = runtime
            .participation_tx
            .get(&provider)
            .ok_or(MarketError::UnknownActor("provider (no participation)"))?;
        let proof = self
            .chain
            .prove_inclusion(tx_hash)
            .ok_or_else(|| MarketError::ChainFailure("participation tx not on-chain".into()))?;
        let header = self
            .chain
            .block(proof.block_height)
            .expect("proof references an existing block")
            .header
            .clone();
        Ok((proof, header))
    }

    /// Reads the on-chain contract state for a workload.
    pub fn workload_state(&self, workload_id: u64) -> Result<WorkloadState, MarketError> {
        let runtime = self
            .workloads
            .get(&workload_id)
            .ok_or(MarketError::UnknownWorkload(workload_id))?;
        let snapshot = self
            .chain
            .state
            .contract_snapshot(&runtime.contract)
            .ok_or_else(|| MarketError::ChainFailure("contract missing".into()))?;
        WorkloadState::from_snapshot(&snapshot)
            .map_err(|e| MarketError::ChainFailure(e.to_string()))
    }

    /// The contract address of a workload.
    pub fn workload_contract(&self, workload_id: u64) -> Option<Address> {
        self.workloads.get(&workload_id).map(|r| r.contract)
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

    // ---------------------------------------------------------------
    // Internals
    // ---------------------------------------------------------------

    /// Signs, submits and mines one transaction, returning its receipt.
    /// The chain inherits the marketplace's ambient causal context, so the
    /// submit→inclusion→contract-event chain joins the workload's trace.
    fn send_tx(&mut self, keys: &KeyPair, kind: TxKind) -> TxReceipt {
        self.chain.set_trace_ctx(self.current_trace);
        let sender = Address::of(&keys.public);
        let nonce = self.chain.state.nonce(&sender);
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
        let hash = match self.chain.submit(tx) {
            Ok(h) => h,
            Err(e) => return TxReceipt::failed(Digest::ZERO, 0, 0, e.to_string()),
        };
        self.chain.produce_block();
        self.chain
            .receipt(&hash)
            .cloned()
            .expect("produced block contains the receipt")
    }
}

fn storage_decode_err(_e: pds2_crypto::codec::DecodeError) -> MarketError {
    MarketError::Storage(StorageError::CorruptCiphertext)
}

/// Decodes a reading batch written by `provider_ingest`.
pub fn decode_readings(
    bytes: &[u8],
) -> Result<Vec<SignedReading>, pds2_crypto::codec::DecodeError> {
    let mut dec = pds2_crypto::codec::Decoder::new(bytes);
    let readings: Vec<SignedReading> = dec.get_seq()?;
    dec.expect_end()?;
    Ok(readings)
}

/// Deterministic local training for one executor.
fn train_local(spec: &WorkloadSpec, data: &Dataset, workload_id: u64) -> Vec<f64> {
    let cfg = SgdConfig {
        learning_rate: 0.1,
        lr_decay: 0.98,
        batch_size: 16,
        epochs: spec.local_epochs as usize,
        clip: spec.dp_noise_multiplier.map(|_| 1.0),
        seed: workload_id,
    };
    match spec.task {
        TaskKind::BinaryClassification => {
            let mut m = LogisticRegression::new(spec.feature_dim as usize);
            match spec.dp_noise_multiplier {
                None => {
                    train(&mut m, data, &cfg);
                }
                Some(multiplier) => {
                    // DP-SGD: clipped per-epoch gradients plus seeded
                    // Gaussian noise (deterministic per workload, so all
                    // executors converge to the same aggregate).
                    train_dp_classifier(&mut m, data, &cfg, multiplier, workload_id);
                }
            }
            m.params()
        }
        TaskKind::Regression => {
            // Closed-form ridge: deterministic and robust to raw sensor
            // scales (naive SGD on unscaled temperature units diverges).
            let m = pds2_ml::solve::ridge_fit(data, 1e-6);
            m.params()
        }
    }
}

/// DP-SGD training for the classification workload path: per-step clipped
/// gradients with Gaussian noise, all seeded from the workload id so the
/// run stays replayable.
fn train_dp_classifier(
    model: &mut LogisticRegression,
    data: &Dataset,
    cfg: &SgdConfig,
    noise_multiplier: f64,
    workload_id: u64,
) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    if data.is_empty() {
        return;
    }
    let clip = cfg.clip.unwrap_or(1.0);
    let mut rng = StdRng::seed_from_u64(workload_id ^ 0xd9);
    let mut lr = cfg.learning_rate;
    for _ in 0..cfg.epochs {
        let batch: Vec<usize> = (0..cfg.batch_size.min(data.len()))
            .map(|_| rng.random_range(0..data.len()))
            .collect();
        let mut grad = model.gradient(data, &batch);
        pds2_ml::linalg::clip_norm(&mut grad, clip);
        let sigma = noise_multiplier * clip / batch.len() as f64;
        for g in &mut grad {
            let u1: f64 = rng.random::<f64>().max(1e-12);
            let u2: f64 = rng.random();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            *g += sigma * z;
        }
        let mut params = model.params();
        for (p, g) in params.iter_mut().zip(&grad) {
            *p -= lr * g;
        }
        model.set_params(&params);
        lr *= cfg.lr_decay;
    }
}

/// Scores aggregated parameters on the validation set.
fn score_params(spec: &WorkloadSpec, params: &[f64]) -> f64 {
    match spec.task {
        TaskKind::BinaryClassification => {
            let mut m = LogisticRegression::new(spec.feature_dim as usize);
            m.set_params(params);
            let preds: Vec<f64> = spec.validation.x.iter().map(|x| m.classify(x)).collect();
            pds2_ml::metrics::accuracy(&preds, &spec.validation.y)
        }
        TaskKind::Regression => {
            let mut m = LinearRegression::new(spec.feature_dim as usize);
            m.set_params(params);
            let preds: Vec<f64> = spec.validation.x.iter().map(|x| m.predict(x)).collect();
            -pds2_ml::metrics::mse(&preds, &spec.validation.y)
        }
    }
}

/// Canonical hash of model parameters (the on-chain result commitment).
pub fn hash_params(params: &[f64]) -> Digest {
    let mut enc = Encoder::new();
    enc.put_u64(params.len() as u64);
    for p in params {
        enc.put_f64(*p);
    }
    sha256(&enc.finish())
}

/// Computes reward shares per the spec's scheme. Deterministic: MC Shapley
/// seeds from the workload id.
fn compute_shares(
    spec: &WorkloadSpec,
    provider_data: &[(Address, Dataset)],
    workload_id: u64,
) -> Vec<(Address, u128)> {
    if provider_data.is_empty() {
        return Vec::new();
    }
    let total = spec.provider_reward;
    let raw: Vec<f64> = match spec.reward_scheme {
        RewardScheme::ProportionalToRecords => {
            let weights: Vec<f64> = provider_data.iter().map(|(_, d)| d.len() as f64).collect();
            proportional(&weights, total as f64)
        }
        RewardScheme::ShapleyExact | RewardScheme::ShapleyMonteCarlo { .. } => {
            let shards: Vec<Dataset> = provider_data.iter().map(|(_, d)| d.clone()).collect();
            let mut utility = MlUtility::new(
                shards,
                spec.validation.clone(),
                SgdConfig {
                    epochs: (spec.local_epochs as usize).max(1),
                    seed: workload_id,
                    ..Default::default()
                },
            );
            let phi = match spec.reward_scheme {
                RewardScheme::ShapleyExact => exact_shapley(&mut utility),
                // Parallel estimator: bit-identical to the serial one for
                // any PDS2_THREADS, so reward splits stay reproducible.
                RewardScheme::ShapleyMonteCarlo { permutations } => monte_carlo_shapley_par(
                    &utility,
                    &McConfig {
                        permutations: permutations as usize,
                        truncation_tolerance: 1e-3,
                        seed: workload_id,
                    },
                ),
                RewardScheme::ProportionalToRecords => unreachable!(),
            };
            to_reward_shares(&phi, total as f64)
        }
    };
    // Integer conversion with remainder to the largest share.
    let mut shares: Vec<(Address, u128)> = provider_data
        .iter()
        .zip(&raw)
        .map(|((addr, _), v)| (*addr, v.floor().max(0.0) as u128))
        .collect();
    let assigned: u128 = shares.iter().map(|(_, v)| v).sum();
    if assigned < total {
        if let Some(max_entry) = shares.iter_mut().max_by_key(|(_, v)| *v) {
            max_entry.1 += total - assigned;
        }
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests_support::sample_spec_with;
    use pds2_ml::data::gaussian_blobs;
    use pds2_storage::semantic::MetaValue;

    fn temperature_metadata() -> Metadata {
        Metadata::new()
            .with(
                "type",
                MetaValue::Class("sensor/environment/temperature".into()),
                0,
            )
            .with("sample-rate-hz", MetaValue::Num(1.0), 1)
    }

    struct World {
        market: Marketplace,
        consumer: Address,
        providers: Vec<Address>,
        executors: Vec<Address>,
        workload: u64,
        full_data: Dataset,
    }

    fn build_world(n_providers: usize, n_executors: usize, scheme: RewardScheme) -> World {
        build_world_with_timeout(n_providers, n_executors, scheme, 0)
    }

    fn build_world_with_timeout(
        n_providers: usize,
        n_executors: usize,
        scheme: RewardScheme,
        exec_timeout_blocks: u64,
    ) -> World {
        let mut market = Marketplace::new(42);
        let consumer = market.register_consumer(1, 1_000_000);
        let data = gaussian_blobs(60 * n_providers, 3, 0.7, 7);
        let (train, validation) = data.split(0.2, 8);
        let shards = train.partition_iid(n_providers, 9);
        let mut providers = Vec::new();
        for (i, shard) in shards.iter().enumerate() {
            let storage = if i % 2 == 0 {
                StorageChoice::Local
            } else {
                StorageChoice::ThirdParty { publish_level: 1 }
            };
            let p = market.register_provider(1000 + i as u64, storage);
            market.provider_add_device(p).unwrap();
            market
                .provider_ingest(p, 0, shard, temperature_metadata())
                .unwrap();
            providers.push(p);
        }
        let executors: Vec<Address> = (0..n_executors)
            .map(|i| market.register_executor(2000 + i as u64))
            .collect();

        let code = EnclaveCode::new("logistic-trainer", 1, b"trainer-binary-v1".to_vec());
        let spec = sample_spec_with(code.measurement(), validation, scheme, n_providers as u32);
        let workload = market
            .submit_workload_with_timeout(
                consumer,
                spec,
                code,
                n_executors as u32,
                exec_timeout_blocks,
            )
            .unwrap();
        for &e in &executors {
            market.executor_join(e, workload).unwrap();
        }
        World {
            market,
            consumer,
            providers,
            executors,
            workload,
            full_data: train,
        }
    }

    #[test]
    fn full_lifecycle_proportional() {
        let mut w = build_world(4, 2, RewardScheme::ProportionalToRecords);
        let assignments: Vec<(Address, Address)> = w
            .providers
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, w.executors[i % 2]))
            .collect();
        let (exec, fin) = w
            .market
            .run_full_lifecycle(w.workload, &assignments)
            .unwrap();
        assert!(
            exec.validation_score > 0.85,
            "score {}",
            exec.validation_score
        );
        assert_eq!(exec.readings_rejected, 0);
        assert!(exec.readings_accepted as usize >= w.full_data.len());
        assert!(fin.slashed.is_empty());
        assert_eq!(fin.paid_executors.len(), 2);
        // All provider rewards disbursed.
        let total: u128 = fin.provider_shares.iter().map(|(_, v)| v).sum();
        let st = w.market.workload_state(w.workload).unwrap();
        assert_eq!(total, st.provider_reward);
        // Providers actually hold their balances on-chain.
        for (p, v) in &fin.provider_shares {
            assert_eq!(w.market.chain.state.balance(p), *v);
        }
        // Consumer can retrieve the verified model.
        let params = w.market.consumer_retrieve_result(w.workload).unwrap();
        assert_eq!(params.len(), 4);
        // Full audit trail on-chain.
        assert!(!w
            .market
            .chain
            .events_by_topic("workload.completed")
            .is_empty());
        assert!(!w.market.chain.events_by_topic("erc721.mint").is_empty());
    }

    #[test]
    fn full_lifecycle_shapley() {
        let mut w = build_world(3, 1, RewardScheme::ShapleyExact);
        let assignments: Vec<(Address, Address)> =
            w.providers.iter().map(|&p| (p, w.executors[0])).collect();
        let (_, fin) = w
            .market
            .run_full_lifecycle(w.workload, &assignments)
            .unwrap();
        assert_eq!(fin.provider_shares.len(), 3);
        let total: u128 = fin.provider_shares.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn eligible_providers_respect_precondition() {
        let mut w = build_world(2, 1, RewardScheme::ProportionalToRecords);
        let eligible = w.market.eligible_providers(w.workload).unwrap();
        assert_eq!(eligible.len(), 2);
        // A provider with non-matching data is not eligible.
        let other = w.market.register_provider(5000, StorageChoice::Local);
        w.market.provider_add_device(other).unwrap();
        let shard = gaussian_blobs(10, 3, 1.0, 1);
        let meta = Metadata::new().with(
            "type",
            MetaValue::Class("sensor/motion/accelerometer".into()),
            0,
        );
        w.market.provider_ingest(other, 0, &shard, meta).unwrap();
        let eligible = w.market.eligible_providers(w.workload).unwrap();
        assert!(!eligible.contains(&other));
    }

    #[test]
    fn start_blocked_below_quorum() {
        let mut w = build_world(3, 1, RewardScheme::ProportionalToRecords);
        // Only one provider accepts; min_providers is 3.
        w.market
            .provider_accept(w.providers[0], w.workload, w.executors[0])
            .unwrap();
        assert!(!w.market.try_start(w.workload).unwrap());
        let st = w.market.workload_state(w.workload).unwrap();
        assert_eq!(st.phase, Phase::Open);
    }

    #[test]
    fn wrong_code_executor_rejected_at_join() {
        let mut w = build_world(2, 1, RewardScheme::ProportionalToRecords);
        // Build a second workload whose spec demands different code than
        // what the executor runs.
        let honest_code = EnclaveCode::new("trainer", 1, b"trainer-binary-v1".to_vec());
        let evil_code = EnclaveCode::new("trainer", 1, b"evil-binary".to_vec());
        let spec = sample_spec_with(
            honest_code.measurement(),
            gaussian_blobs(10, 3, 1.0, 1),
            RewardScheme::ProportionalToRecords,
            1,
        );
        // submit_workload itself rejects mismatched code.
        let err = w
            .market
            .submit_workload(w.consumer, spec, evil_code, 1)
            .unwrap_err();
        assert!(matches!(err, MarketError::Attestation(_)));
    }

    #[test]
    fn forged_result_executor_gets_slashed() {
        let mut w = build_world(4, 3, RewardScheme::ProportionalToRecords);
        for (i, &p) in w.providers.iter().enumerate() {
            // Give data to executors 0 and 1 only; executor 2 joins with
            // no data but still registered on-chain... must hold data to
            // submit a forged result? No: registered executors may submit.
            w.market
                .provider_accept(p, w.workload, w.executors[i % 2])
                .unwrap();
        }
        assert!(w.market.try_start(w.workload).unwrap());
        let exec = w.market.execute(w.workload).unwrap();
        // Executor 2 (no data, did not auto-submit) now submits a forgery.
        let forged = sha256(b"forged-model");
        let receipt = w
            .market
            .executor_submit_forged_result(w.executors[2], w.workload, forged)
            .unwrap();
        assert!(receipt.success);
        let fin = w.market.finalize(w.workload).unwrap();
        assert_eq!(fin.slashed, vec![w.executors[2]]);
        assert!(!fin.paid_executors.contains(&w.executors[2]));
        // The honest result stands.
        let st = w.market.workload_state(w.workload).unwrap();
        assert_eq!(st.result, Some(exec.result_hash));
    }

    #[test]
    fn provider_cannot_double_participate() {
        let mut w = build_world(3, 2, RewardScheme::ProportionalToRecords);
        w.market
            .provider_accept(w.providers[0], w.workload, w.executors[0])
            .unwrap();
        // Accepting again through another executor fails on-chain.
        let err = w
            .market
            .provider_accept(w.providers[0], w.workload, w.executors[1])
            .unwrap_err();
        assert!(matches!(err, MarketError::ChainFailure(_)), "{err}");
    }

    #[test]
    fn execute_requires_started_contract() {
        let mut w = build_world(2, 1, RewardScheme::ProportionalToRecords);
        let err = w.market.execute(w.workload).unwrap_err();
        assert!(matches!(err, MarketError::BadPhase(_)));
    }

    #[test]
    fn third_party_storage_works_end_to_end() {
        // build_world already mixes Local and ThirdParty providers; this
        // asserts a pure third-party world also completes.
        let mut market = Marketplace::new(7);
        let consumer = market.register_consumer(1, 1_000_000);
        let data = gaussian_blobs(120, 3, 0.7, 7);
        let (train, validation) = data.split(0.2, 8);
        let shards = train.partition_iid(2, 9);
        let mut providers = Vec::new();
        for (i, shard) in shards.iter().enumerate() {
            let p = market.register_provider(
                1000 + i as u64,
                StorageChoice::ThirdParty { publish_level: 1 },
            );
            market.provider_add_device(p).unwrap();
            market
                .provider_ingest(p, 0, shard, temperature_metadata())
                .unwrap();
            providers.push(p);
        }
        let executor = market.register_executor(2000);
        let code = EnclaveCode::new("trainer", 1, b"bin".to_vec());
        let spec = sample_spec_with(
            code.measurement(),
            validation,
            RewardScheme::ProportionalToRecords,
            2,
        );
        let workload = market.submit_workload(consumer, spec, code, 1).unwrap();
        market.executor_join(executor, workload).unwrap();
        let assignments: Vec<(Address, Address)> =
            providers.iter().map(|&p| (p, executor)).collect();
        let (exec, _) = market.run_full_lifecycle(workload, &assignments).unwrap();
        assert!(exec.validation_score > 0.8, "{}", exec.validation_score);
    }

    #[test]
    fn crashed_executor_aborts_with_refund() {
        let mut w = build_world_with_timeout(2, 1, RewardScheme::ProportionalToRecords, 3);
        for &p in &w.providers.clone() {
            w.market
                .provider_accept(p, w.workload, w.executors[0])
                .unwrap();
        }
        assert!(w.market.try_start(w.workload).unwrap());
        // The only executor holding data crashes with no recovery in sight.
        w.market.executor_crash(w.executors[0], None).unwrap();
        assert!(w.market.executor_is_crashed(w.executors[0]));
        let err = w.market.execute(w.workload).unwrap_err();
        assert!(matches!(err, MarketError::BadPhase(_)), "{err}");
        // Graceful abort: timeout elapses, consumer gets the escrow back.
        let escrow = w.market.workload_state(w.workload).unwrap().funded;
        assert!(escrow > 0);
        let before = w.market.chain.state.balance(&w.consumer);
        let refund = w.market.abort_workload(w.workload).unwrap();
        assert_eq!(refund, escrow);
        assert_eq!(w.market.chain.state.balance(&w.consumer), before + escrow);
        let st = w.market.workload_state(w.workload).unwrap();
        assert_eq!(st.phase, Phase::Cancelled);
        assert_eq!(st.funded, 0);
        assert!(!w
            .market
            .chain
            .events_by_topic("workload.aborted")
            .is_empty());
        // Refund XOR payout: a second abort cannot double-refund.
        assert!(w.market.abort_workload(w.workload).is_err());
    }

    #[test]
    fn abort_requires_timeout_and_executing_phase() {
        // No timeout configured: abort is unavailable even when Executing.
        let mut w = build_world(2, 1, RewardScheme::ProportionalToRecords);
        for &p in &w.providers.clone() {
            w.market
                .provider_accept(p, w.workload, w.executors[0])
                .unwrap();
        }
        assert!(w.market.try_start(w.workload).unwrap());
        let err = w.market.abort_workload(w.workload).unwrap_err();
        assert!(matches!(err, MarketError::BadPhase(_)), "{err}");
        // Open phase: abort is premature even with a timeout configured.
        let mut w = build_world_with_timeout(2, 1, RewardScheme::ProportionalToRecords, 3);
        let err = w.market.abort_workload(w.workload).unwrap_err();
        assert!(matches!(err, MarketError::BadPhase(_)), "{err}");
    }

    #[test]
    fn executor_recovery_retries_to_success() {
        let mut w = build_world_with_timeout(2, 1, RewardScheme::ProportionalToRecords, 100);
        for &p in &w.providers.clone() {
            w.market
                .provider_accept(p, w.workload, w.executors[0])
                .unwrap();
        }
        assert!(w.market.try_start(w.workload).unwrap());
        // Crash with a scheduled recovery a few blocks out: the retry
        // backoff mines the chain forward until the executor comes back.
        let recover_at = w.market.chain.height() + 4;
        w.market
            .executor_crash(w.executors[0], Some(recover_at))
            .unwrap();
        let (report, attempts) = w
            .market
            .execute_with_retry(w.workload, RetryPolicy::default())
            .unwrap();
        assert!(attempts > 1, "first attempt must fail while crashed");
        assert!(!w.market.executor_is_crashed(w.executors[0]));
        assert!(report.validation_score > 0.8, "{}", report.validation_score);
        // The relaunched enclave carries a fresh verified quote and the
        // lifecycle completes normally after recovery.
        let fin = w.market.finalize(w.workload).unwrap();
        assert_eq!(fin.paid_executors, vec![w.executors[0]]);
        assert!(fin.slashed.is_empty());
    }

    #[test]
    fn execute_skips_crashed_executor_when_another_is_live() {
        let mut w = build_world(4, 2, RewardScheme::ProportionalToRecords);
        let assignments: Vec<(Address, Address)> = w
            .providers
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, w.executors[i % 2]))
            .collect();
        for (p, e) in &assignments {
            w.market.provider_accept(*p, w.workload, *e).unwrap();
        }
        assert!(w.market.try_start(w.workload).unwrap());
        w.market.executor_crash(w.executors[1], None).unwrap();
        // Execution proceeds on the surviving executor alone.
        let report = w.market.execute(w.workload).unwrap();
        assert!(report.enclave_costs.contains_key(&w.executors[0]));
        assert!(!report.enclave_costs.contains_key(&w.executors[1]));
    }

    #[test]
    fn dp_workload_completes_and_is_deterministic() {
        let run = || {
            let mut w = build_world(3, 1, RewardScheme::ProportionalToRecords);
            // Rebuild the workload with DP enabled.
            let code = EnclaveCode::new("dp-trainer", 1, b"dp-bin".to_vec());
            let mut spec = crate::workload::tests_support::sample_spec_with(
                code.measurement(),
                gaussian_blobs(30, 3, 0.7, 5),
                RewardScheme::ProportionalToRecords,
                3,
            );
            spec.dp_noise_multiplier = Some(0.5);
            spec.local_epochs = 30;
            let workload = w.market.submit_workload(w.consumer, spec, code, 1).unwrap();
            w.market.executor_join(w.executors[0], workload).unwrap();
            let assignments: Vec<(Address, Address)> =
                w.providers.iter().map(|&p| (p, w.executors[0])).collect();
            let (exec, _) = w.market.run_full_lifecycle(workload, &assignments).unwrap();
            exec
        };
        let a = run();
        let b = run();
        assert_eq!(a.result_hash, b.result_hash, "DP noise must be seeded");
        // DP training still learns something on an easy task.
        assert!(a.validation_score > 0.6, "{}", a.validation_score);
    }
}
