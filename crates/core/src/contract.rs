//! The per-workload smart contract (§III-A): "a separate smart contract
//! instance is deployed for managing the lifetime of each workload and
//! validate all of its steps."
//!
//! The contract is the governance layer's state machine for Fig. 2:
//!
//! ```text
//! Open ──(fund / register executors / submit participation)──▶
//! Open ──START (quorum + escrow check)──▶ Executing
//! Executing ──(executors submit result hashes)──▶
//! Executing ──FINALIZE (2/3 agreement, reward payout)──▶ Completed
//! Open ──CANCEL (consumer)──▶ Cancelled
//! Open ──EXPIRE (deadline passed, anyone)──▶ Cancelled
//! Executing ──ABORT (execution timeout passed, anyone)──▶ Cancelled
//! ```
//!
//! Tamper-resistance properties enforced on-chain (experiment E12):
//! double provider registration is rejected (double-claim defence),
//! deviating executors are identified by hash disagreement and slashed
//! (no fee), payouts cannot exceed escrow, and every step emits an audit
//! event.

use pds2_chain::address::Address;
use pds2_chain::contract::{CallCtx, Contract, ContractError};
use pds2_chain::erc20::TokenId;
use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use pds2_crypto::sha256::{Digest, DIGEST_LEN};
use std::collections::BTreeMap;

/// Contract type id registered with the chain.
pub const WORKLOAD_CODE_ID: &str = "pds2-workload-v1";

/// Lifecycle phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Accepting funding, executors and participation.
    Open,
    /// Conditions met; executors computing.
    Executing,
    /// Result agreed and rewards paid.
    Completed,
    /// Cancelled by the consumer before start.
    Cancelled,
}

impl Phase {
    fn to_u8(self) -> u8 {
        match self {
            Phase::Open => 0,
            Phase::Executing => 1,
            Phase::Completed => 2,
            Phase::Cancelled => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Phase, DecodeError> {
        match v {
            0 => Ok(Phase::Open),
            1 => Ok(Phase::Executing),
            2 => Ok(Phase::Completed),
            3 => Ok(Phase::Cancelled),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// A provider's recorded contribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Contribution {
    /// Records contributed.
    pub records: u64,
    /// Hash of the provider's participation certificate.
    pub certificate_hash: Digest,
    /// Executor that received the data.
    pub executor: Address,
}

/// Full contract state — also the off-chain query view (decode a
/// [`Contract::snapshot`] with [`WorkloadState::from_snapshot`]).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadState {
    /// The consumer who deployed and funds the workload.
    pub consumer: Address,
    /// Hash of the full workload specification.
    pub spec_hash: Digest,
    /// Approved enclave code measurement.
    pub code_measurement: Digest,
    /// Escrowed provider reward pool.
    pub provider_reward: u128,
    /// Fee per honest executor.
    pub executor_fee: u128,
    /// Start quorum: distinct providers.
    pub min_providers: u32,
    /// Start quorum: total records.
    pub min_records: u64,
    /// Block height after which anyone may expire an Open workload,
    /// refunding the consumer (0 = no deadline).
    pub deadline_height: u64,
    /// Blocks after START before anyone may abort a stuck Executing
    /// workload and refund the consumer (0 = no execution timeout).
    /// This is the chaos-harness escape hatch: if every executor holding
    /// data crashes mid-workload, the escrow is not locked forever.
    pub exec_timeout_blocks: u64,
    /// When set, rewards/fees are escrowed and paid in this ERC-20 token
    /// instead of native currency (§III-A fungible-token rewards).
    pub reward_token: Option<TokenId>,
    /// Total funded so far.
    pub funded: u128,
    /// Current phase.
    pub phase: Phase,
    /// Block height at which START succeeded (0 while still Open).
    pub started_height: u64,
    /// Registered executors and their submitted result hash (if any).
    pub executors: BTreeMap<Address, Option<Digest>>,
    /// Provider contributions.
    pub contributions: BTreeMap<Address, Contribution>,
    /// Agreed result hash after finalization.
    pub result: Option<Digest>,
    /// Executors slashed for disagreeing with the majority result.
    pub slashed: Vec<Address>,
}

/// The escrow formula: the provider reward and one fee per executor.
/// `None` when they do not fit a `u128`, which no escrow meets. The
/// consumer's marketplace funds this much for the executors it allows
/// (`WorkloadSpec::required_escrow`) and START demands it for the
/// executors that registered.
pub fn required_escrow(
    provider_reward: u128,
    executor_fee: u128,
    executors: usize,
) -> Option<u128> {
    executor_fee
        .checked_mul(executors as u128)?
        .checked_add(provider_reward)
}

impl WorkloadState {
    /// Decodes the canonical snapshot (off-chain inspection).
    pub fn from_snapshot(bytes: &[u8]) -> Result<WorkloadState, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let state = Self::decode(&mut dec)?;
        dec.expect_end()?;
        Ok(state)
    }

    /// Total records contributed.
    pub fn total_records(&self) -> u64 {
        self.contributions.values().map(|c| c.records).sum()
    }

    /// The height ABORT has to be past: START's height plus the execution
    /// timeout. `None` when the workload was deployed without a timeout.
    /// The contract enforces it; the marketplace mines up to it.
    pub fn abort_height(&self) -> Option<u64> {
        (self.exec_timeout_blocks != 0).then(|| self.started_height + self.exec_timeout_blocks)
    }

    /// What START needs funded for the executors registered so far. Both
    /// amounts come from the deployer's init bytes.
    fn required_escrow(&self) -> Option<u128> {
        required_escrow(
            self.provider_reward,
            self.executor_fee,
            self.executors.len(),
        )
    }

    fn start_conditions_met(&self) -> bool {
        self.contributions.len() as u32 >= self.min_providers
            && self.total_records() >= self.min_records
            && !self.executors.is_empty()
            && self.required_escrow().is_some_and(|r| self.funded >= r)
    }
}

impl Encode for WorkloadState {
    fn encode(&self, enc: &mut Encoder) {
        self.consumer.encode(enc);
        enc.put_digest(&self.spec_hash);
        enc.put_digest(&self.code_measurement);
        enc.put_u128(self.provider_reward);
        enc.put_u128(self.executor_fee);
        enc.put_u32(self.min_providers);
        enc.put_u64(self.min_records);
        enc.put_u64(self.deadline_height);
        enc.put_u64(self.exec_timeout_blocks);
        enc.put_option(&self.reward_token);
        enc.put_u128(self.funded);
        enc.put_u8(self.phase.to_u8());
        enc.put_u64(self.started_height);
        enc.put_u64(self.executors.len() as u64);
        for (addr, result) in &self.executors {
            addr.encode(enc);
            enc.put_option(result);
        }
        enc.put_u64(self.contributions.len() as u64);
        for (addr, c) in &self.contributions {
            addr.encode(enc);
            enc.put_u64(c.records);
            enc.put_digest(&c.certificate_hash);
            c.executor.encode(enc);
        }
        enc.put_option(&self.result);
        enc.put_seq(&self.slashed);
    }
}

impl Decode for WorkloadState {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let consumer = Address::decode(dec)?;
        let spec_hash = dec.get_digest()?;
        let code_measurement = dec.get_digest()?;
        let provider_reward = dec.get_u128()?;
        let executor_fee = dec.get_u128()?;
        let min_providers = dec.get_u32()?;
        let min_records = dec.get_u64()?;
        let deadline_height = dec.get_u64()?;
        let exec_timeout_blocks = dec.get_u64()?;
        let reward_token = dec.get_option()?;
        let funded = dec.get_u128()?;
        let phase = Phase::from_u8(dec.get_u8()?)?;
        let started_height = dec.get_u64()?;
        let n_exec = dec.get_u64()? as usize;
        let mut executors = BTreeMap::new();
        for _ in 0..n_exec {
            let addr = Address::decode(dec)?;
            let result = dec.get_option()?;
            executors.insert(addr, result);
        }
        let n_contrib = dec.get_u64()? as usize;
        let mut contributions = BTreeMap::new();
        for _ in 0..n_contrib {
            let addr = Address::decode(dec)?;
            contributions.insert(
                addr,
                Contribution {
                    records: dec.get_u64()?,
                    certificate_hash: dec.get_digest()?,
                    executor: Address::decode(dec)?,
                },
            );
        }
        let result = dec.get_option()?;
        let slashed = dec.get_seq()?;
        Ok(WorkloadState {
            consumer,
            spec_hash,
            code_measurement,
            provider_reward,
            executor_fee,
            min_providers,
            min_records,
            deadline_height,
            exec_timeout_blocks,
            reward_token,
            funded,
            phase,
            started_height,
            executors,
            contributions,
            result,
            slashed,
        })
    }
}

/// Call-input builder/parser for the contract's methods.
pub mod calls {
    use super::*;

    pub(super) const FUND: u8 = 0;
    pub(super) const REGISTER_EXECUTOR: u8 = 1;
    pub(super) const SUBMIT_PARTICIPATION: u8 = 2;
    pub(super) const START: u8 = 3;
    pub(super) const SUBMIT_RESULT: u8 = 4;
    pub(super) const FINALIZE: u8 = 5;
    pub(super) const CANCEL: u8 = 6;
    pub(super) const EXPIRE: u8 = 7;
    pub(super) const ABORT: u8 = 8;

    /// Escrow funding (attach value to the call).
    pub fn fund() -> Vec<u8> {
        vec![FUND]
    }

    /// Executor self-registration.
    pub fn register_executor() -> Vec<u8> {
        vec![REGISTER_EXECUTOR]
    }

    /// Executor submits the providers whose data it holds.
    pub fn submit_participation(providers: &[(Address, u64, Digest)]) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u8(SUBMIT_PARTICIPATION);
        enc.put_u64(providers.len() as u64);
        for (addr, records, cert) in providers {
            addr.encode(&mut enc);
            enc.put_u64(*records);
            enc.put_digest(cert);
        }
        enc.finish()
    }

    /// Requests the Open → Executing transition.
    pub fn start() -> Vec<u8> {
        vec![START]
    }

    /// Executor submits its result hash.
    pub fn submit_result(result: Digest) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u8(SUBMIT_RESULT);
        enc.put_digest(&result);
        enc.finish()
    }

    /// Finalizes with per-provider reward shares.
    pub fn finalize(shares: &[(Address, u128)]) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u8(FINALIZE);
        enc.put_u64(shares.len() as u64);
        for (addr, amount) in shares {
            addr.encode(&mut enc);
            enc.put_u128(*amount);
        }
        enc.finish()
    }

    /// Consumer cancellation (Open phase only).
    pub fn cancel() -> Vec<u8> {
        vec![CANCEL]
    }

    /// Public expiry after the deadline (Open phase only; anyone may call).
    pub fn expire() -> Vec<u8> {
        vec![EXPIRE]
    }

    /// Public abort of a stuck Executing workload once the execution
    /// timeout has elapsed; refunds the remaining escrow to the consumer.
    pub fn abort() -> Vec<u8> {
        vec![ABORT]
    }
}

/// The deployable workload contract.
pub struct WorkloadContract {
    state: WorkloadState,
}

impl WorkloadContract {
    /// Constructor registered with the chain under [`WORKLOAD_CODE_ID`].
    ///
    /// Init bytes: `spec_hash ‖ code_measurement ‖ provider_reward ‖
    /// executor_fee ‖ min_providers ‖ min_records`; the deployer becomes
    /// the consumer.
    pub fn construct(deployer: Address, init: &[u8]) -> Result<Box<dyn Contract>, ContractError> {
        let mut dec = Decoder::new(init);
        let parse = |e: DecodeError| ContractError::BadInput(e.to_string());
        let spec_hash = dec.get_digest().map_err(parse)?;
        let code_measurement = dec.get_digest().map_err(parse)?;
        let provider_reward = dec.get_u128().map_err(parse)?;
        let executor_fee = dec.get_u128().map_err(parse)?;
        let min_providers = dec.get_u32().map_err(parse)?;
        let min_records = dec.get_u64().map_err(parse)?;
        let deadline_height = dec.get_u64().map_err(parse)?;
        let exec_timeout_blocks = dec.get_u64().map_err(parse)?;
        let reward_token = dec.get_option().map_err(parse)?;
        dec.expect_end().map_err(parse)?;
        pds2_obs::counter!("market.contracts_created").inc();
        pds2_obs::event!(
            "market",
            "contract.created",
            pds2_obs::Stamp::None,
            "provider_reward" => provider_reward,
            "executor_fee" => executor_fee,
            "min_providers" => min_providers,
            "min_records" => min_records,
        );
        Ok(Box::new(WorkloadContract {
            state: WorkloadState {
                consumer: deployer,
                spec_hash,
                code_measurement,
                provider_reward,
                executor_fee,
                min_providers,
                min_records,
                deadline_height,
                exec_timeout_blocks,
                reward_token,
                funded: 0,
                phase: Phase::Open,
                started_height: 0,
                executors: BTreeMap::new(),
                contributions: BTreeMap::new(),
                result: None,
                slashed: Vec::new(),
            },
        }))
    }

    /// Canonical deploy-init encoding.
    #[allow(clippy::too_many_arguments)]
    pub fn init_bytes(
        spec_hash: Digest,
        code_measurement: Digest,
        provider_reward: u128,
        executor_fee: u128,
        min_providers: u32,
        min_records: u64,
        deadline_height: u64,
        exec_timeout_blocks: u64,
        reward_token: Option<TokenId>,
    ) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_digest(&spec_hash);
        enc.put_digest(&code_measurement);
        enc.put_u128(provider_reward);
        enc.put_u128(executor_fee);
        enc.put_u32(min_providers);
        enc.put_u64(min_records);
        enc.put_u64(deadline_height);
        enc.put_u64(exec_timeout_blocks);
        enc.put_option(&reward_token);
        enc.finish()
    }

    /// Pays out in the workload's denomination (native or ERC-20).
    fn pay(&self, ctx: &mut CallCtx<'_>, to: Address, amount: u128) {
        match self.state.reward_token {
            None => ctx.transfer_out(to, amount),
            Some(token) => ctx.transfer_token_out(token, to, amount),
        }
    }

    /// The one way a workload ends without a payout: whatever escrow is
    /// left goes back to the consumer and the contract is Cancelled.
    /// `counter` and `reason` say which of CANCEL, EXPIRE and ABORT it was.
    fn refund_and_cancel(
        &mut self,
        ctx: &mut CallCtx<'_>,
        counter: &pds2_obs::Counter,
        from: &'static str,
        reason: &'static str,
    ) {
        if self.state.funded > 0 {
            self.pay(ctx, self.state.consumer, self.state.funded);
            self.state.funded = 0;
        }
        self.state.phase = Phase::Cancelled;
        counter.inc();
        pds2_obs::trace_event!(
            "market",
            "contract.phase",
            pds2_obs::Stamp::Block(ctx.block_height),
            ctx.trace,
            "from" => from, "to" => "cancelled", "reason" => reason,
        );
    }

    fn require_phase(&self, phase: Phase) -> Result<(), ContractError> {
        if self.state.phase != phase {
            return Err(ContractError::Revert(format!(
                "wrong phase: expected {phase:?}, contract is {:?}",
                self.state.phase
            )));
        }
        Ok(())
    }
}

impl Contract for WorkloadContract {
    fn call(&mut self, ctx: &mut CallCtx<'_>, input: &[u8]) -> Result<Vec<u8>, ContractError> {
        ctx.charge_gas(5_000)?;
        let (&tag, rest) = input
            .split_first()
            .ok_or_else(|| ContractError::BadInput("empty input".into()))?;
        let mut dec = Decoder::new(rest);
        let parse = |e: DecodeError| ContractError::BadInput(e.to_string());
        match tag {
            calls::FUND => {
                self.require_phase(Phase::Open)?;
                match self.state.reward_token {
                    None => {
                        if ctx.value == 0 {
                            return Err(ContractError::Revert("funding requires value".into()));
                        }
                        self.state.funded += ctx.value;
                    }
                    Some(token) => {
                        // Token escrow: the consumer transfers ERC-20 to
                        // the contract address first, then calls FUND to
                        // acknowledge the balance.
                        if ctx.value != 0 {
                            return Err(ContractError::Revert(
                                "token-denominated workload takes no native value".into(),
                            ));
                        }
                        let balance = ctx.own_token_balance(token);
                        if balance <= self.state.funded {
                            return Err(ContractError::Revert(format!(
                                "no new token escrow: balance {balance}, recorded {}",
                                self.state.funded
                            )));
                        }
                        self.state.funded = balance;
                    }
                }
                ctx.emit(
                    "workload.funded",
                    format!("by={} total={}", ctx.sender, self.state.funded),
                )?;
                pds2_obs::counter!("market.fund_calls").inc();
                pds2_obs::trace_event!(
                    "market",
                    "contract.funded",
                    pds2_obs::Stamp::Block(ctx.block_height),
                    ctx.trace,
                    "escrow" => self.state.funded,
                );
                Ok(Vec::new())
            }
            calls::REGISTER_EXECUTOR => {
                self.require_phase(Phase::Open)?;
                if self.state.executors.contains_key(&ctx.sender) {
                    return Err(ContractError::Revert("executor already registered".into()));
                }
                self.state.executors.insert(ctx.sender, None);
                ctx.emit(
                    "workload.executor_registered",
                    format!("executor={}", ctx.sender),
                )?;
                Ok(Vec::new())
            }
            calls::SUBMIT_PARTICIPATION => {
                self.require_phase(Phase::Open)?;
                if !self.state.executors.contains_key(&ctx.sender) {
                    return Err(ContractError::Revert("unregistered executor".into()));
                }
                let n = dec.get_u64().map_err(parse)? as usize;
                for _ in 0..n {
                    let provider = Address::decode(&mut dec).map_err(parse)?;
                    let records = dec.get_u64().map_err(parse)?;
                    let cert = dec.get_digest().map_err(parse)?;
                    if records == 0 {
                        return Err(ContractError::Revert("empty contribution".into()));
                    }
                    if self.state.contributions.contains_key(&provider) {
                        // Double-claim defence (§IV-B / E12).
                        return Err(ContractError::Revert(format!(
                            "provider {provider} already contributed"
                        )));
                    }
                    ctx.charge_gas(pds2_chain::gas::STORAGE_WORD * 4)?;
                    self.state.contributions.insert(
                        provider,
                        Contribution {
                            records,
                            certificate_hash: cert,
                            executor: ctx.sender,
                        },
                    );
                    ctx.emit(
                        "workload.participation",
                        format!(
                            "provider={provider} records={records} executor={} cert={}",
                            ctx.sender,
                            cert.short()
                        ),
                    )?;
                }
                Ok(Vec::new())
            }
            calls::START => {
                self.require_phase(Phase::Open)?;
                if !self.state.start_conditions_met() {
                    return Err(ContractError::Revert(format!(
                        "start conditions not met: providers {}/{}, records {}/{}, funded {}/{}",
                        self.state.contributions.len(),
                        self.state.min_providers,
                        self.state.total_records(),
                        self.state.min_records,
                        self.state.funded,
                        self.state
                            .required_escrow()
                            .map_or("more than any escrow".into(), |r| r.to_string())
                    )));
                }
                self.state.phase = Phase::Executing;
                self.state.started_height = ctx.block_height;
                pds2_obs::counter!("market.contracts_started").inc();
                pds2_obs::trace_event!(
                    "market",
                    "contract.phase",
                    pds2_obs::Stamp::Block(ctx.block_height),
                    ctx.trace,
                    "from" => "open", "to" => "executing",
                    "providers" => self.state.contributions.len(),
                    "records" => self.state.total_records(),
                    "escrow" => self.state.funded,
                );
                ctx.emit(
                    "workload.started",
                    format!(
                        "providers={} records={} executors={}",
                        self.state.contributions.len(),
                        self.state.total_records(),
                        self.state.executors.len()
                    ),
                )?;
                Ok(Vec::new())
            }
            calls::SUBMIT_RESULT => {
                self.require_phase(Phase::Executing)?;
                let result = dec.get_digest().map_err(parse)?;
                match self.state.executors.get_mut(&ctx.sender) {
                    None => return Err(ContractError::Revert("unregistered executor".into())),
                    Some(slot) if slot.is_some() => {
                        return Err(ContractError::Revert("result already submitted".into()))
                    }
                    Some(slot) => *slot = Some(result),
                }
                ctx.emit(
                    "workload.result_submitted",
                    format!("executor={} result={}", ctx.sender, result.short()),
                )?;
                Ok(Vec::new())
            }
            calls::FINALIZE => {
                self.require_phase(Phase::Executing)?;
                // Every executor that actually received data must have
                // answered; registered-but-dataless executors may abstain
                // (they neither block finalization nor earn a fee).
                let contributing: std::collections::BTreeSet<Address> = self
                    .state
                    .contributions
                    .values()
                    .map(|c| c.executor)
                    .collect();
                for e in &contributing {
                    if self.state.executors.get(e).is_none_or(|r| r.is_none()) {
                        return Err(ContractError::Revert(format!(
                            "results outstanding from contributing executor {e}"
                        )));
                    }
                }
                // Majority over the executors that voted, requiring a 2/3
                // supermajority of voters.
                let voters: Vec<(&Address, &Digest)> = self
                    .state
                    .executors
                    .iter()
                    .filter_map(|(a, r)| r.as_ref().map(|d| (a, d)))
                    .collect();
                if voters.is_empty() {
                    return Err(ContractError::Revert("no results submitted".into()));
                }
                let mut counts: BTreeMap<Digest, u32> = BTreeMap::new();
                for (_, r) in &voters {
                    *counts.entry(**r).or_default() += 1;
                }
                let (majority, votes) = counts
                    .iter()
                    .max_by_key(|(_, c)| **c)
                    .map(|(d, c)| (*d, *c))
                    .expect("at least one voter");
                let total = voters.len() as u32;
                if votes * 3 < total * 2 {
                    return Err(ContractError::Revert(format!(
                        "no 2/3 agreement: best {votes}/{total}"
                    )));
                }
                // Identify slashed (disagreeing) voters.
                let slashed: Vec<Address> = voters
                    .iter()
                    .filter(|(_, r)| **r != majority)
                    .map(|(a, _)| **a)
                    .collect();
                // Parse and validate shares.
                let n = dec.get_u64().map_err(parse)?;
                let n = dec.bounded_count(n, DIGEST_LEN + 16).map_err(parse)?;
                let mut shares = Vec::with_capacity(n);
                let mut total_shares: u128 = 0;
                for _ in 0..n {
                    let provider = Address::decode(&mut dec).map_err(parse)?;
                    let amount = dec.get_u128().map_err(parse)?;
                    if !self.state.contributions.contains_key(&provider) {
                        return Err(ContractError::Revert(format!(
                            "share for non-contributor {provider}"
                        )));
                    }
                    total_shares = total_shares.saturating_add(amount);
                    shares.push((provider, amount));
                }
                if total_shares > self.state.provider_reward {
                    return Err(ContractError::Revert(format!(
                        "shares {total_shares} exceed reward pool {}",
                        self.state.provider_reward
                    )));
                }
                // Payouts.
                let mut paid: u128 = 0;
                for (provider, amount) in &shares {
                    if *amount > 0 {
                        self.pay(ctx, *provider, *amount);
                        paid += amount;
                    }
                }
                for (executor, result) in &self.state.executors {
                    if *result == Some(majority) {
                        self.pay(ctx, *executor, self.state.executor_fee);
                        paid += self.state.executor_fee;
                    }
                }
                // Refund the unspent escrow.
                if self.state.funded > paid {
                    self.pay(ctx, self.state.consumer, self.state.funded - paid);
                }
                for s in &slashed {
                    ctx.emit("workload.slashed", format!("executor={s}"))?;
                }
                self.state.slashed = slashed;
                self.state.result = Some(majority);
                self.state.phase = Phase::Completed;
                pds2_obs::counter!("market.contracts_completed").inc();
                pds2_obs::trace_event!(
                    "market",
                    "contract.phase",
                    pds2_obs::Stamp::Block(ctx.block_height),
                    ctx.trace,
                    "from" => "executing", "to" => "completed",
                    "paid" => paid,
                    "slashed" => self.state.slashed.len(),
                );
                ctx.emit(
                    "workload.completed",
                    format!(
                        "result={} providers_paid={} total_paid={paid}",
                        majority.short(),
                        shares.len()
                    ),
                )?;
                Ok(majority.as_bytes().to_vec())
            }
            calls::CANCEL => {
                self.require_phase(Phase::Open)?;
                if ctx.sender != self.state.consumer {
                    return Err(ContractError::Revert("only the consumer may cancel".into()));
                }
                let counter = pds2_obs::counter!("market.contracts_cancelled");
                self.refund_and_cancel(ctx, counter, "open", "cancel");
                ctx.emit("workload.cancelled", format!("by={}", ctx.sender))?;
                Ok(Vec::new())
            }
            calls::EXPIRE => {
                self.require_phase(Phase::Open)?;
                if self.state.deadline_height == 0 {
                    return Err(ContractError::Revert("workload has no deadline".into()));
                }
                if ctx.block_height <= self.state.deadline_height {
                    return Err(ContractError::Revert(format!(
                        "deadline {} not reached at height {}",
                        self.state.deadline_height, ctx.block_height
                    )));
                }
                let counter = pds2_obs::counter!("market.contracts_expired");
                self.refund_and_cancel(ctx, counter, "open", "expired");
                ctx.emit(
                    "workload.expired",
                    format!("by={} at_height={}", ctx.sender, ctx.block_height),
                )?;
                Ok(Vec::new())
            }
            calls::ABORT => {
                self.require_phase(Phase::Executing)?;
                let abort_height = self.state.abort_height().ok_or_else(|| {
                    ContractError::Revert("workload has no execution timeout".into())
                })?;
                if ctx.block_height <= abort_height {
                    return Err(ContractError::Revert(format!(
                        "execution timeout {abort_height} not reached at height {}",
                        ctx.block_height
                    )));
                }
                let counter = pds2_obs::counter!("market.contracts_aborted");
                self.refund_and_cancel(ctx, counter, "executing", "abort");
                ctx.emit(
                    "workload.aborted",
                    format!("by={} at_height={}", ctx.sender, ctx.block_height),
                )?;
                Ok(Vec::new())
            }
            t => Err(ContractError::BadInput(format!("unknown method {t}"))),
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        self.state.to_bytes()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), ContractError> {
        self.state = WorkloadState::from_snapshot(snapshot)
            .map_err(|e| ContractError::BadInput(e.to_string()))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds2_chain::chain::Blockchain;
    use pds2_chain::contract::ContractRegistry;
    use pds2_chain::tx::{Transaction, TxKind};
    use pds2_crypto::sha256::sha256;
    use pds2_crypto::KeyPair;

    struct Harness {
        chain: Blockchain,
        consumer: KeyPair,
        executors: Vec<KeyPair>,
        providers: Vec<Address>,
        contract: Address,
        nonces: std::collections::HashMap<Address, u64>,
    }

    impl Harness {
        fn new(n_executors: usize) -> Harness {
            Harness::new_with_timeout(n_executors, 0)
        }

        fn new_with_timeout(n_executors: usize, exec_timeout_blocks: u64) -> Harness {
            let init = WorkloadContract::init_bytes(
                sha256(b"spec"),
                sha256(b"code"),
                10_000,
                500,
                2,
                10,
                0,
                exec_timeout_blocks,
                None,
            );
            Harness::with_init(n_executors, init)
        }

        fn with_init(n_executors: usize, init: Vec<u8>) -> Harness {
            let consumer = KeyPair::from_seed(1);
            let executors: Vec<KeyPair> = (0..n_executors as u64)
                .map(|i| KeyPair::from_seed(100 + i))
                .collect();
            let providers: Vec<Address> = (0..4u64)
                .map(|i| Address::of(&KeyPair::from_seed(200 + i).public))
                .collect();
            let mut registry = ContractRegistry::new();
            registry.register(WORKLOAD_CODE_ID, WorkloadContract::construct);
            let mut alloc: Vec<(Address, u128)> = vec![(Address::of(&consumer.public), 1_000_000)];
            for e in &executors {
                alloc.push((Address::of(&e.public), 10_000));
            }
            let chain = Blockchain::single_validator(999, &alloc, registry);

            let mut h = Harness {
                chain,
                consumer,
                executors,
                providers,
                contract: Address::contract(&Address::of(&KeyPair::from_seed(1).public), 0),
                nonces: Default::default(),
            };
            let consumer_kp = h.consumer.clone();
            let receipt = h.send(
                &consumer_kp,
                TxKind::Deploy {
                    code_id: WORKLOAD_CODE_ID.into(),
                    init,
                },
            );
            assert!(receipt.success, "{:?}", receipt.error);
            h.contract = receipt.deployed.unwrap();
            h
        }

        fn send(&mut self, from: &KeyPair, kind: TxKind) -> pds2_chain::state::TxReceipt {
            let addr = Address::of(&from.public);
            let nonce = self.nonces.entry(addr).or_insert(0);
            let tx = Transaction {
                from: from.public.clone(),
                nonce: *nonce,
                kind,
                gas_limit: 5_000_000,
                max_fee_per_gas: 0,
                priority_fee_per_gas: 0,
            }
            .sign(from);
            *nonce += 1;
            let hash = self.chain.submit(tx).unwrap();
            self.chain.produce_block();
            self.chain.receipt(&hash).unwrap().clone()
        }

        fn call(
            &mut self,
            from: &KeyPair,
            input: Vec<u8>,
            value: u128,
        ) -> pds2_chain::state::TxReceipt {
            let contract = self.contract;
            self.send(
                from,
                TxKind::Call {
                    contract,
                    input,
                    value,
                },
            )
        }

        fn state(&self) -> WorkloadState {
            WorkloadState::from_snapshot(
                &self.chain.state.contract_snapshot(&self.contract).unwrap(),
            )
            .unwrap()
        }

        /// Drives the happy path up to Executing with 2 executors and
        /// the first 3 providers.
        fn drive_to_executing(&mut self) {
            let consumer = self.consumer.clone();
            let execs = self.executors.clone();
            let r = self.call(&consumer, calls::fund(), 11_000);
            assert!(r.success, "{:?}", r.error);
            for e in &execs {
                let r = self.call(e, calls::register_executor(), 0);
                assert!(r.success, "{:?}", r.error);
            }
            let p = self.providers.clone();
            let r = self.call(
                &execs[0],
                calls::submit_participation(&[
                    (p[0], 20, sha256(b"cert0")),
                    (p[1], 30, sha256(b"cert1")),
                ]),
                0,
            );
            assert!(r.success, "{:?}", r.error);
            let r = self.call(
                &execs[1],
                calls::submit_participation(&[(p[2], 25, sha256(b"cert2"))]),
                0,
            );
            assert!(r.success, "{:?}", r.error);
            let r = self.call(&consumer, calls::start(), 0);
            assert!(r.success, "{:?}", r.error);
            assert_eq!(self.state().phase, Phase::Executing);
        }
    }

    #[test]
    fn full_lifecycle_happy_path() {
        let mut h = Harness::new(2);
        h.drive_to_executing();
        let result = sha256(b"model-v1");
        let execs = h.executors.clone();
        for e in &execs {
            let r = h.call(e, calls::submit_result(result), 0);
            assert!(r.success, "{:?}", r.error);
        }
        let consumer = h.consumer.clone();
        let p = h.providers.clone();
        let shares = [(p[0], 3_000u128), (p[1], 4_000u128), (p[2], 3_000u128)];
        let r = h.call(&consumer, calls::finalize(&shares), 0);
        assert!(r.success, "{:?}", r.error);
        let st = h.state();
        assert_eq!(st.phase, Phase::Completed);
        assert_eq!(st.result, Some(result));
        assert!(st.slashed.is_empty());
        // Providers paid.
        assert_eq!(h.chain.state.balance(&p[0]), 3_000);
        assert_eq!(h.chain.state.balance(&p[1]), 4_000);
        assert_eq!(h.chain.state.balance(&p[2]), 3_000);
        // Executors got fees.
        for e in &execs {
            assert_eq!(h.chain.state.balance(&Address::of(&e.public)), 10_000 + 500);
        }
        // Escrow fully disbursed; contract empty.
        assert_eq!(h.chain.state.balance(&h.contract), 0);
        // Audit trail exists.
        assert!(!h.chain.events_by_topic("workload.completed").is_empty());
    }

    #[test]
    fn start_requires_quorum_and_escrow() {
        let mut h = Harness::new(1);
        let consumer = h.consumer.clone();
        // No funding, no providers: start fails.
        let r = h.call(&consumer, calls::start(), 0);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("start conditions"));
    }

    #[test]
    fn double_provider_registration_rejected() {
        let mut h = Harness::new(2);
        let consumer = h.consumer.clone();
        let execs = h.executors.clone();
        let p = h.providers.clone();
        h.call(&consumer, calls::fund(), 11_000);
        for e in &execs {
            h.call(e, calls::register_executor(), 0);
        }
        let r = h.call(
            &execs[0],
            calls::submit_participation(&[(p[0], 20, sha256(b"cert0"))]),
            0,
        );
        assert!(r.success);
        // Same provider via another executor: the double-claim attack.
        let r = h.call(
            &execs[1],
            calls::submit_participation(&[(p[0], 20, sha256(b"cert0-again"))]),
            0,
        );
        assert!(!r.success);
        assert!(r.error.unwrap().contains("already contributed"));
        assert_eq!(h.state().contributions.len(), 1, "no partial effects");
    }

    #[test]
    fn disagreeing_executor_is_slashed() {
        let mut h = Harness::new(3);
        let consumer = h.consumer.clone();
        let execs = h.executors.clone();
        let p = h.providers.clone();
        h.call(&consumer, calls::fund(), 12_000);
        for e in &execs {
            h.call(e, calls::register_executor(), 0);
        }
        h.call(
            &execs[0],
            calls::submit_participation(&[(p[0], 20, sha256(b"c0")), (p[1], 20, sha256(b"c1"))]),
            0,
        );
        h.call(&consumer, calls::start(), 0);
        let honest = sha256(b"honest-result");
        let forged = sha256(b"forged-result");
        h.call(&execs[0], calls::submit_result(honest), 0);
        h.call(&execs[1], calls::submit_result(honest), 0);
        h.call(&execs[2], calls::submit_result(forged), 0);
        let r = h.call(
            &consumer,
            calls::finalize(&[(p[0], 5_000), (p[1], 5_000)]),
            0,
        );
        assert!(r.success, "{:?}", r.error);
        let st = h.state();
        assert_eq!(st.result, Some(honest));
        assert_eq!(st.slashed, vec![Address::of(&execs[2].public)]);
        // Slashed executor got no fee; honest ones did.
        assert_eq!(
            h.chain.state.balance(&Address::of(&execs[2].public)),
            10_000
        );
        assert_eq!(
            h.chain.state.balance(&Address::of(&execs[0].public)),
            10_500
        );
        assert!(!h.chain.events_by_topic("workload.slashed").is_empty());
    }

    #[test]
    fn no_supermajority_blocks_finalization() {
        let mut h = Harness::new(3);
        let consumer = h.consumer.clone();
        let execs = h.executors.clone();
        let p = h.providers.clone();
        h.call(&consumer, calls::fund(), 12_000);
        for e in &execs {
            h.call(e, calls::register_executor(), 0);
        }
        h.call(
            &execs[0],
            calls::submit_participation(&[(p[0], 20, sha256(b"c0")), (p[1], 20, sha256(b"c1"))]),
            0,
        );
        h.call(&consumer, calls::start(), 0);
        h.call(&execs[0], calls::submit_result(sha256(b"a")), 0);
        h.call(&execs[1], calls::submit_result(sha256(b"b")), 0);
        h.call(&execs[2], calls::submit_result(sha256(b"c")), 0);
        let r = h.call(&consumer, calls::finalize(&[(p[0], 1)]), 0);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("no 2/3 agreement"));
        assert_eq!(h.state().phase, Phase::Executing, "stays executing");
    }

    #[test]
    fn overspending_shares_rejected() {
        let mut h = Harness::new(2);
        h.drive_to_executing();
        let execs = h.executors.clone();
        let result = sha256(b"r");
        for e in &execs {
            h.call(e, calls::submit_result(result), 0);
        }
        let consumer = h.consumer.clone();
        let p = h.providers.clone();
        let r = h.call(&consumer, calls::finalize(&[(p[0], 50_000)]), 0);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("exceed reward pool"));
    }

    #[test]
    fn share_for_non_contributor_rejected() {
        let mut h = Harness::new(2);
        h.drive_to_executing();
        let execs = h.executors.clone();
        let result = sha256(b"r");
        for e in &execs {
            h.call(e, calls::submit_result(result), 0);
        }
        let consumer = h.consumer.clone();
        let outsider = Address::of(&KeyPair::from_seed(9999).public);
        let r = h.call(&consumer, calls::finalize(&[(outsider, 1)]), 0);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("non-contributor"));
    }

    #[test]
    fn finalize_share_count_is_bounded_by_its_input() {
        let mut h = Harness::new(2);
        h.drive_to_executing();
        for e in &h.executors.clone() {
            assert!(h.call(e, calls::submit_result(sha256(b"r")), 0).success);
        }
        let before = h.state();
        // Nine bytes from anyone: the tag, and a share count that nothing
        // follows. It is a failed call, not an allocation.
        let stranger = KeyPair::from_seed(55);
        for count in [1u64 << 60, 1] {
            let mut input = vec![calls::FINALIZE];
            input.extend_from_slice(&count.to_le_bytes());
            let r = h.call(&stranger, input, 0);
            assert!(!r.success);
            assert!(r.error.unwrap().contains("length prefix exceeds input"));
            assert_eq!(h.state(), before, "count {count}: rolled back");
        }
        // The workload still finalizes.
        let p = h.providers.clone();
        let r = h.call(&h.consumer.clone(), calls::finalize(&[(p[0], 10_000)]), 0);
        assert!(r.success, "{:?}", r.error);
    }

    #[test]
    fn cancel_refunds_consumer() {
        let mut h = Harness::new(1);
        let consumer = h.consumer.clone();
        let consumer_addr = Address::of(&consumer.public);
        let balance_before = h.chain.state.balance(&consumer_addr);
        h.call(&consumer, calls::fund(), 5_000);
        assert_eq!(
            h.chain.state.balance(&consumer_addr),
            balance_before - 5_000
        );
        let r = h.call(&consumer, calls::cancel(), 0);
        assert!(r.success, "{:?}", r.error);
        assert_eq!(h.chain.state.balance(&consumer_addr), balance_before);
        assert_eq!(h.state().phase, Phase::Cancelled);
    }

    #[test]
    fn only_consumer_cancels() {
        let mut h = Harness::new(1);
        let exec = h.executors[0].clone();
        let r = h.call(&exec, calls::cancel(), 0);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("only the consumer"));
    }

    #[test]
    fn unregistered_executor_cannot_participate_or_submit() {
        let mut h = Harness::new(1);
        let consumer = h.consumer.clone();
        let p = h.providers.clone();
        h.call(&consumer, calls::fund(), 11_000);
        let rogue = KeyPair::from_seed(777);
        // Needs funds for gas-free chain, but account must exist: sending
        // from a zero-balance account is fine (no fees).
        let r = h.call(
            &rogue,
            calls::submit_participation(&[(p[0], 5, sha256(b"c"))]),
            0,
        );
        assert!(!r.success);
        assert!(r.error.unwrap().contains("unregistered"));
    }

    #[test]
    fn result_submission_only_once_and_only_executing() {
        let mut h = Harness::new(2);
        let execs = h.executors.clone();
        // Before start: wrong phase.
        let r = h.call(&execs[0], calls::submit_result(sha256(b"early")), 0);
        assert!(!r.success);
        h.drive_to_executing();
        let r = h.call(&execs[0], calls::submit_result(sha256(b"a")), 0);
        assert!(r.success);
        let r = h.call(&execs[0], calls::submit_result(sha256(b"b")), 0);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("already submitted"));
    }

    #[test]
    fn expiry_refunds_after_deadline() {
        // Deploy a contract WITH a deadline via raw init bytes.
        let consumer = KeyPair::from_seed(1);
        let stranger = KeyPair::from_seed(55);
        let mut registry = ContractRegistry::new();
        registry.register(WORKLOAD_CODE_ID, WorkloadContract::construct);
        let mut chain = Blockchain::single_validator(
            999,
            &[(Address::of(&consumer.public), 100_000)],
            registry,
        );
        let init = WorkloadContract::init_bytes(
            sha256(b"spec"),
            sha256(b"code"),
            10_000,
            500,
            2,
            10,
            3, // deadline at height 3
            0,
            None,
        );
        let deploy = Transaction {
            from: consumer.public.clone(),
            nonce: 0,
            kind: TxKind::Deploy {
                code_id: WORKLOAD_CODE_ID.into(),
                init,
            },
            gas_limit: 5_000_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(&consumer);
        let h = chain.submit(deploy).unwrap();
        chain.produce_block();
        let contract = chain.receipt(&h).unwrap().deployed.unwrap();
        // Fund it.
        let fund = Transaction {
            from: consumer.public.clone(),
            nonce: 1,
            kind: TxKind::Call {
                contract,
                input: calls::fund(),
                value: 11_000,
            },
            gas_limit: 5_000_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(&consumer);
        chain.submit(fund).unwrap();
        chain.produce_block(); // height 2
                               // Expiry before the deadline fails.
        let early = Transaction {
            from: stranger.public.clone(),
            nonce: 0,
            kind: TxKind::Call {
                contract,
                input: calls::expire(),
                value: 0,
            },
            gas_limit: 5_000_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(&stranger);
        let h = chain.submit(early).unwrap();
        chain.produce_block(); // height 3: executes at height 2... block idx 2
        let r = chain.receipt(&h).unwrap();
        assert!(!r.success, "{:?}", r.error);
        // Mine past the deadline, then anyone can expire.
        chain.produce_block();
        chain.produce_block();
        let late = Transaction {
            from: stranger.public.clone(),
            nonce: 1,
            kind: TxKind::Call {
                contract,
                input: calls::expire(),
                value: 0,
            },
            gas_limit: 5_000_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(&stranger);
        let h = chain.submit(late).unwrap();
        chain.produce_block();
        let r = chain.receipt(&h).unwrap();
        assert!(r.success, "{:?}", r.error);
        // Consumer refunded in full (no gas fees in this chain).
        assert_eq!(chain.state.balance(&Address::of(&consumer.public)), 100_000);
        let st = WorkloadState::from_snapshot(&chain.state.contract_snapshot(&contract).unwrap())
            .unwrap();
        assert_eq!(st.phase, Phase::Cancelled);
        assert!(!chain.events_by_topic("workload.expired").is_empty());
    }

    #[test]
    fn abort_refunds_after_execution_timeout() {
        let mut h = Harness::new_with_timeout(2, 2);
        let consumer_addr = Address::of(&h.consumer.public);
        let balance_before = h.chain.state.balance(&consumer_addr);
        h.drive_to_executing();
        let st = h.state();
        assert!(st.started_height > 0, "START records its height");
        // Too early: the timeout window has not elapsed.
        let stranger = KeyPair::from_seed(55);
        let r = h.call(&stranger, calls::abort(), 0);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("not reached"));
        // Mine past started_height + exec_timeout_blocks; anyone may abort.
        h.chain.produce_block();
        h.chain.produce_block();
        h.chain.produce_block();
        let r = h.call(&stranger, calls::abort(), 0);
        assert!(r.success, "{:?}", r.error);
        let st = h.state();
        assert_eq!(st.phase, Phase::Cancelled);
        assert_eq!(st.funded, 0);
        // Full escrow back with the consumer (nothing was paid out).
        assert_eq!(h.chain.state.balance(&consumer_addr), balance_before);
        assert!(!h.chain.events_by_topic("workload.aborted").is_empty());
        // Terminal: no result submission or second abort afterwards.
        let exec = h.executors[0].clone();
        assert!(
            !h.call(&exec, calls::submit_result(sha256(b"late")), 0)
                .success
        );
        assert!(!h.call(&stranger, calls::abort(), 0).success);
    }

    #[test]
    fn abort_requires_configured_timeout_and_executing_phase() {
        let mut h = Harness::new(2);
        let stranger = KeyPair::from_seed(55);
        // Open phase: wrong phase regardless of timeout config.
        let r = h.call(&stranger, calls::abort(), 0);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("wrong phase"));
        h.drive_to_executing();
        // Executing but no timeout configured.
        let r = h.call(&stranger, calls::abort(), 0);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("no execution timeout"));
    }

    #[test]
    fn no_deadline_means_no_public_expiry() {
        let mut h = Harness::new(1);
        let stranger = KeyPair::from_seed(55);
        h.call(&h.consumer.clone(), calls::fund(), 1_000);
        let r = h.call(&stranger, calls::expire(), 0);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("no deadline"));
    }

    /// A workload with no quorum and no reward pool, so one executor can
    /// drive it alone.
    fn quorumless_init(executor_fee: u128, reward_token: Option<TokenId>) -> Vec<u8> {
        WorkloadContract::init_bytes(
            sha256(b"spec"),
            sha256(b"code"),
            0,
            executor_fee,
            0,
            0,
            0,
            0,
            reward_token,
        )
    }

    #[test]
    fn finalize_in_a_token_that_does_not_exist_fails_and_rolls_back() {
        let mut h = Harness::with_init(1, quorumless_init(0, Some(TokenId(999))));
        let exec = h.executors[0].clone();
        for input in [
            calls::register_executor(),
            calls::start(),
            calls::submit_result(sha256(b"model")),
        ] {
            let r = h.call(&exec, input, 0);
            assert!(r.success, "{:?}", r.error);
        }
        let before = h.state();
        // Pays the executor its fee of 0 in token 999.
        let r = h.call(&exec, calls::finalize(&[]), 0);
        assert!(!r.success);
        assert_eq!(
            r.error.as_deref(),
            Some("contract balance too low for payout")
        );
        assert_eq!(h.state(), before, "call rolled back");
        assert_eq!(before.phase, Phase::Executing);
    }

    #[test]
    fn start_escrow_check_does_not_wrap() {
        // Two fees of 2^127 are 2^128: past `u128`, so nothing funds them.
        let mut h = Harness::with_init(2, quorumless_init(1 << 127, None));
        for e in h.executors.clone() {
            let r = h.call(&e, calls::register_executor(), 0);
            assert!(r.success, "{:?}", r.error);
        }
        let exec = h.executors[0].clone();
        let r = h.call(&exec, calls::start(), 0);
        assert!(!r.success);
        let error = r.error.unwrap();
        assert!(error.contains("funded 0/more than any escrow"), "{error}");
        assert_eq!(h.state().phase, Phase::Open);
    }

    #[test]
    fn snapshot_roundtrip_preserves_state() {
        let mut h = Harness::new(2);
        h.drive_to_executing();
        let snap = h.chain.state.contract_snapshot(&h.contract).unwrap();
        let st = WorkloadState::from_snapshot(&snap).unwrap();
        assert_eq!(st.to_bytes(), snap);
        assert_eq!(st.contributions.len(), 3);
        assert_eq!(st.total_records(), 75);
    }
}
