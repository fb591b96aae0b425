//! The per-workload smart contract (§III-A): "a separate smart contract
//! instance is deployed for managing the lifetime of each workload and
//! validate all of its steps."
//!
//! The contract is the governance layer's state machine for Fig. 2. Each
//! transition is one [`Call`]; in brackets, who may send it:
//!
//! ```text
//! Open ──FUND [anyone, with the escrow]──▶ Open
//! Open ──REGISTER_EXECUTOR [an executor, once]──▶ Open
//! Open ──SUBMIT_PARTICIPATION [a registered executor]──▶ Open
//! Open ──START [anyone] (quorum + escrow check)──▶ Executing
//! Executing ──SUBMIT_RESULT [a registered executor, once]──▶ Executing
//! Executing ──FINALIZE [consumer] (2/3 agreement, reward payout)──▶ Completed
//! Open ──CANCEL [consumer]──▶ Cancelled
//! Open ──EXPIRE [anyone] (deadline passed)──▶ Cancelled
//! Executing ──ABORT [anyone] (START height + timeout passed)──▶ Cancelled
//! ```
//!
//! Every funded escrow has an exit: an Open workload has its consumer's
//! CANCEL, and an Executing one ABORT, because every workload is deployed
//! with a non-zero execution timeout ([`Init::exec_timeout_blocks`]).
//!
//! The deploy input is one [`Init`] and the call input one [`Call`]; each
//! has one `Encode` / `Decode` pair, which owns its tags, its counts and
//! its end of input. [`Contract::call`] parses once, so a malformed input
//! is `bad input` whatever the phase and whoever sent it, and then
//! dispatches to one function per step.
//!
//! Tamper-resistance properties enforced on-chain (experiment E12):
//! double provider registration is rejected (double-claim defence),
//! deviating executors are identified by hash disagreement and slashed
//! (no fee), payouts cannot exceed escrow, only the consumer who chose
//! the shares can trigger the payout, and every step emits an audit
//! event.

use pds2_chain::address::Address;
use pds2_chain::contract::{CallCtx, Contract, ContractError};
use pds2_chain::erc20::TokenId;
use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use pds2_crypto::sha256::{Digest, DIGEST_LEN};
use std::collections::BTreeMap;
use std::num::NonZeroU32;

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

/// The deploy input: the terms the consumer fixes when deploying. The
/// deployer becomes the consumer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Init {
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
    /// workload and refund the consumer. There is no "off" value: if the
    /// executors never agree, or every executor holding data crashes
    /// mid-workload, the escrow is not locked forever. A `u32` added to
    /// START's `u64` height cannot overflow.
    pub exec_timeout_blocks: NonZeroU32,
    /// When set, rewards/fees are escrowed and paid in this ERC-20 token
    /// instead of native currency (§III-A fungible-token rewards).
    pub reward_token: Option<TokenId>,
}

impl Encode for Init {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_digest(&self.spec_hash);
        enc.put_digest(&self.code_measurement);
        enc.put_u128(self.provider_reward);
        enc.put_u128(self.executor_fee);
        enc.put_u32(self.min_providers);
        enc.put_u64(self.min_records);
        enc.put_u64(self.deadline_height);
        enc.put_u32(self.exec_timeout_blocks.get());
        enc.put_option(&self.reward_token);
    }
}

impl Decode for Init {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Init {
            spec_hash: dec.get_digest()?,
            code_measurement: dec.get_digest()?,
            provider_reward: dec.get_u128()?,
            executor_fee: dec.get_u128()?,
            min_providers: dec.get_u32()?,
            min_records: dec.get_u64()?,
            deadline_height: dec.get_u64()?,
            exec_timeout_blocks: NonZeroU32::new(dec.get_u32()?)
                .ok_or(DecodeError::Invalid("zero execution timeout"))?,
            reward_token: dec.get_option()?,
        })
    }
}

/// The call input: one step of Fig. 2. On the wire a tag byte, then the
/// step's fields; rows are counted by a `u64`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Call {
    /// Escrow funding: native value rides on the call; a token escrow is
    /// transferred to the contract first and FUND acknowledges the balance.
    Fund,
    /// Executor self-registration.
    RegisterExecutor,
    /// An executor names the providers whose data it holds:
    /// `(provider, records, certificate hash)` rows.
    SubmitParticipation(Vec<(Address, u64, Digest)>),
    /// Requests the Open → Executing transition.
    Start,
    /// An executor submits its result hash.
    SubmitResult(Digest),
    /// The consumer finalizes with `(provider, reward share)` rows.
    Finalize(Vec<(Address, u128)>),
    /// Consumer cancellation (Open phase only).
    Cancel,
    /// Public expiry after the deadline (Open phase only).
    Expire,
    /// Public abort of a stuck Executing workload once the execution
    /// timeout has elapsed; refunds the remaining escrow to the consumer.
    Abort,
}

impl Encode for Call {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Call::Fund => enc.put_u8(0),
            Call::RegisterExecutor => enc.put_u8(1),
            Call::SubmitParticipation(rows) => {
                enc.put_u8(2);
                enc.put_u64(rows.len() as u64);
                for (provider, records, certificate_hash) in rows {
                    provider.encode(enc);
                    enc.put_u64(*records);
                    enc.put_digest(certificate_hash);
                }
            }
            Call::Start => enc.put_u8(3),
            Call::SubmitResult(result) => {
                enc.put_u8(4);
                enc.put_digest(result);
            }
            Call::Finalize(shares) => {
                enc.put_u8(5);
                enc.put_u64(shares.len() as u64);
                for (provider, amount) in shares {
                    provider.encode(enc);
                    enc.put_u128(*amount);
                }
            }
            Call::Cancel => enc.put_u8(6),
            Call::Expire => enc.put_u8(7),
            Call::Abort => enc.put_u8(8),
        }
    }
}

impl Decode for Call {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        // A row count is bounded by the input left before anything is
        // allocated for it.
        Ok(match dec.get_u8()? {
            0 => Call::Fund,
            1 => Call::RegisterExecutor,
            2 => {
                let n = dec.get_u64()?;
                let n = dec.bounded_count(n, 2 * DIGEST_LEN + 8)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push((Address::decode(dec)?, dec.get_u64()?, dec.get_digest()?));
                }
                Call::SubmitParticipation(rows)
            }
            3 => Call::Start,
            4 => Call::SubmitResult(dec.get_digest()?),
            5 => {
                let n = dec.get_u64()?;
                let n = dec.bounded_count(n, DIGEST_LEN + 16)?;
                let mut shares = Vec::with_capacity(n);
                for _ in 0..n {
                    shares.push((Address::decode(dec)?, dec.get_u128()?));
                }
                Call::Finalize(shares)
            }
            6 => Call::Cancel,
            7 => Call::Expire,
            8 => Call::Abort,
            t => return Err(DecodeError::InvalidTag(t)),
        })
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

/// Full contract state — also the off-chain query view (a
/// [`Contract::snapshot`] is its canonical encoding).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadState {
    /// The consumer who deployed and funds the workload.
    pub consumer: Address,
    /// The terms it was deployed with.
    pub init: Init,
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
    /// Total records contributed.
    pub fn total_records(&self) -> u64 {
        self.contributions.values().map(|c| c.records).sum()
    }

    /// The height ABORT has to be past: START's height plus the execution
    /// timeout. The contract enforces it; the marketplace mines up to it.
    pub fn abort_height(&self) -> u64 {
        self.started_height + u64::from(self.init.exec_timeout_blocks.get())
    }

    /// What START needs funded for the executors registered so far. Both
    /// amounts come from the deployer's init bytes.
    fn required_escrow(&self) -> Option<u128> {
        required_escrow(
            self.init.provider_reward,
            self.init.executor_fee,
            self.executors.len(),
        )
    }

    fn start_conditions_met(&self) -> bool {
        self.contributions.len() as u32 >= self.init.min_providers
            && self.total_records() >= self.init.min_records
            && !self.executors.is_empty()
            && self.required_escrow().is_some_and(|r| self.funded >= r)
    }
}

impl Encode for WorkloadState {
    fn encode(&self, enc: &mut Encoder) {
        self.consumer.encode(enc);
        self.init.encode(enc);
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
        let init = Init::decode(dec)?;
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
        Ok(WorkloadState {
            consumer,
            init,
            funded,
            phase,
            started_height,
            executors,
            contributions,
            result: dec.get_option()?,
            slashed: dec.get_seq()?,
        })
    }
}

fn bad_input(e: DecodeError) -> ContractError {
    ContractError::BadInput(e.to_string())
}

/// The deployable workload contract.
pub struct WorkloadContract {
    state: WorkloadState,
}

impl WorkloadContract {
    /// Constructor registered with the chain under [`WORKLOAD_CODE_ID`]:
    /// `init` is an encoded [`Init`] and the deployer becomes the consumer.
    pub fn construct(deployer: Address, init: &[u8]) -> Result<Box<dyn Contract>, ContractError> {
        let init = Init::from_bytes(init).map_err(bad_input)?;
        pds2_obs::counter!("market.contracts_created").inc();
        pds2_obs::event!(
            "market",
            "contract.created",
            pds2_obs::Stamp::None,
            pds2_obs::TraceCtx::NONE,
            "provider_reward" => init.provider_reward,
            "executor_fee" => init.executor_fee,
            "min_providers" => init.min_providers,
            "min_records" => init.min_records,
        );
        Ok(Box::new(WorkloadContract {
            state: WorkloadState {
                consumer: deployer,
                init,
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

    /// Pays out in the workload's denomination (native or ERC-20).
    fn pay(&self, ctx: &mut CallCtx<'_>, to: Address, amount: u128) {
        match self.state.init.reward_token {
            None => ctx.transfer_out(to, amount),
            Some(token) => ctx.transfer_token_out(token, to, amount),
        }
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

    fn fund(&mut self, ctx: &mut CallCtx<'_>) -> Result<(), ContractError> {
        self.require_phase(Phase::Open)?;
        match self.state.init.reward_token {
            None => {
                if ctx.value == 0 {
                    return Err(ContractError::Revert("funding requires value".into()));
                }
                self.state.funded += ctx.value;
            }
            Some(token) => {
                // Token escrow: the consumer transfers ERC-20 to the
                // contract address first, then calls FUND to acknowledge
                // the balance.
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
        pds2_obs::event!(
            "market",
            "contract.funded",
            pds2_obs::Stamp::Block(ctx.block_height),
            ctx.trace,
            "escrow" => self.state.funded,
        );
        Ok(())
    }

    fn register_executor(&mut self, ctx: &mut CallCtx<'_>) -> Result<(), ContractError> {
        self.require_phase(Phase::Open)?;
        if self.state.executors.contains_key(&ctx.sender) {
            return Err(ContractError::Revert("executor already registered".into()));
        }
        self.state.executors.insert(ctx.sender, None);
        ctx.emit(
            "workload.executor_registered",
            format!("executor={}", ctx.sender),
        )
    }

    fn submit_participation(
        &mut self,
        ctx: &mut CallCtx<'_>,
        rows: Vec<(Address, u64, Digest)>,
    ) -> Result<(), ContractError> {
        self.require_phase(Phase::Open)?;
        if !self.state.executors.contains_key(&ctx.sender) {
            return Err(ContractError::Revert("unregistered executor".into()));
        }
        for (provider, records, certificate_hash) in rows {
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
                    certificate_hash,
                    executor: ctx.sender,
                },
            );
            ctx.emit(
                "workload.participation",
                format!(
                    "provider={provider} records={records} executor={} cert={}",
                    ctx.sender,
                    certificate_hash.short()
                ),
            )?;
        }
        Ok(())
    }

    fn start(&mut self, ctx: &mut CallCtx<'_>) -> Result<(), ContractError> {
        self.require_phase(Phase::Open)?;
        if !self.state.start_conditions_met() {
            return Err(ContractError::Revert(format!(
                "start conditions not met: providers {}/{}, records {}/{}, funded {}/{}",
                self.state.contributions.len(),
                self.state.init.min_providers,
                self.state.total_records(),
                self.state.init.min_records,
                self.state.funded,
                self.state
                    .required_escrow()
                    .map_or("more than any escrow".into(), |r| r.to_string())
            )));
        }
        self.state.phase = Phase::Executing;
        self.state.started_height = ctx.block_height;
        pds2_obs::counter!("market.contracts_started").inc();
        pds2_obs::event!(
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
        )
    }

    fn submit_result(
        &mut self,
        ctx: &mut CallCtx<'_>,
        result: Digest,
    ) -> Result<(), ContractError> {
        self.require_phase(Phase::Executing)?;
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
        )
    }

    /// Pays the shares the consumer chose, one fee per executor that voted
    /// with the 2/3 majority, and the rest back to the consumer. Returns the
    /// agreed result.
    fn finalize(
        &mut self,
        ctx: &mut CallCtx<'_>,
        shares: Vec<(Address, u128)>,
    ) -> Result<Digest, ContractError> {
        self.require_phase(Phase::Executing)?;
        // The consumer chose the shares; nobody else may spend its escrow.
        if ctx.sender != self.state.consumer {
            return Err(ContractError::Revert(
                "only the consumer may finalize".into(),
            ));
        }
        // Every executor that actually received data must have answered;
        // registered-but-dataless executors may abstain (they neither
        // block finalization nor earn a fee).
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
        let mut counts: BTreeMap<Digest, u32> = BTreeMap::new();
        for result in self.state.executors.values().flatten() {
            *counts.entry(*result).or_default() += 1;
        }
        let Some((&majority, &votes)) = counts.iter().max_by_key(|(_, c)| **c) else {
            return Err(ContractError::Revert("no results submitted".into()));
        };
        let total: u32 = counts.values().sum();
        if votes * 3 < total * 2 {
            return Err(ContractError::Revert(format!(
                "no 2/3 agreement: best {votes}/{total}"
            )));
        }
        // The shares name contributors only and fit the pool.
        let mut total_shares: u128 = 0;
        for (provider, amount) in &shares {
            if !self.state.contributions.contains_key(provider) {
                return Err(ContractError::Revert(format!(
                    "share for non-contributor {provider}"
                )));
            }
            total_shares = total_shares.saturating_add(*amount);
        }
        if total_shares > self.state.init.provider_reward {
            return Err(ContractError::Revert(format!(
                "shares {total_shares} exceed reward pool {}",
                self.state.init.provider_reward
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
        let mut slashed = Vec::new();
        for (executor, result) in &self.state.executors {
            if *result == Some(majority) {
                self.pay(ctx, *executor, self.state.init.executor_fee);
                paid += self.state.init.executor_fee;
            } else if result.is_some() {
                slashed.push(*executor);
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
        pds2_obs::event!(
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
        Ok(majority)
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
        pds2_obs::event!(
            "market",
            "contract.phase",
            pds2_obs::Stamp::Block(ctx.block_height),
            ctx.trace,
            "from" => from, "to" => "cancelled", "reason" => reason,
        );
    }

    fn cancel(&mut self, ctx: &mut CallCtx<'_>) -> Result<(), ContractError> {
        self.require_phase(Phase::Open)?;
        if ctx.sender != self.state.consumer {
            return Err(ContractError::Revert("only the consumer may cancel".into()));
        }
        let counter = pds2_obs::counter!("market.contracts_cancelled");
        self.refund_and_cancel(ctx, counter, "open", "cancel");
        ctx.emit("workload.cancelled", format!("by={}", ctx.sender))
    }

    fn expire(&mut self, ctx: &mut CallCtx<'_>) -> Result<(), ContractError> {
        self.require_phase(Phase::Open)?;
        let deadline = self.state.init.deadline_height;
        if deadline == 0 {
            return Err(ContractError::Revert("workload has no deadline".into()));
        }
        if ctx.block_height <= deadline {
            return Err(ContractError::Revert(format!(
                "deadline {deadline} not reached at height {}",
                ctx.block_height
            )));
        }
        let counter = pds2_obs::counter!("market.contracts_expired");
        self.refund_and_cancel(ctx, counter, "open", "expired");
        ctx.emit(
            "workload.expired",
            format!("by={} at_height={}", ctx.sender, ctx.block_height),
        )
    }

    fn abort(&mut self, ctx: &mut CallCtx<'_>) -> Result<(), ContractError> {
        self.require_phase(Phase::Executing)?;
        let abort_height = self.state.abort_height();
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
        )
    }
}

impl Contract for WorkloadContract {
    fn call(&mut self, ctx: &mut CallCtx<'_>, input: &[u8]) -> Result<Vec<u8>, ContractError> {
        ctx.charge_gas(5_000)?;
        match Call::from_bytes(input).map_err(bad_input)? {
            Call::Fund => self.fund(ctx)?,
            Call::RegisterExecutor => self.register_executor(ctx)?,
            Call::SubmitParticipation(rows) => self.submit_participation(ctx, rows)?,
            Call::Start => self.start(ctx)?,
            Call::SubmitResult(result) => self.submit_result(ctx, result)?,
            Call::Finalize(shares) => return Ok(self.finalize(ctx, shares)?.as_bytes().to_vec()),
            Call::Cancel => self.cancel(ctx)?,
            Call::Expire => self.expire(ctx)?,
            Call::Abort => self.abort(ctx)?,
        }
        Ok(Vec::new())
    }

    fn snapshot(&self) -> Vec<u8> {
        self.state.to_bytes()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), ContractError> {
        self.state = WorkloadState::from_bytes(snapshot).map_err(bad_input)?;
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

    fn timeout(blocks: u32) -> NonZeroU32 {
        NonZeroU32::new(blocks).unwrap()
    }

    /// The terms most tests deploy: a pool of 10 000, a fee of 500, two
    /// providers and ten records to start, no deadline, and a timeout of
    /// 64 blocks that no test waits out.
    fn terms() -> Init {
        Init {
            spec_hash: sha256(b"spec"),
            code_measurement: sha256(b"code"),
            provider_reward: 10_000,
            executor_fee: 500,
            min_providers: 2,
            min_records: 10,
            deadline_height: 0,
            exec_timeout_blocks: timeout(64),
            reward_token: None,
        }
    }

    /// `init`'s bytes with the execution timeout written as zero: the
    /// field after two digests, two `u128`s, a `u32` and two `u64`s.
    fn with_zero_timeout(init: &Init) -> Vec<u8> {
        let mut bytes = init.to_bytes();
        bytes[116..120].fill(0);
        bytes
    }

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
            Harness::with_init(n_executors, terms())
        }

        fn new_with_timeout(n_executors: usize, exec_timeout_blocks: NonZeroU32) -> Harness {
            let init = Init {
                exec_timeout_blocks,
                ..terms()
            };
            Harness::with_init(n_executors, init)
        }

        fn with_init(n_executors: usize, init: Init) -> Harness {
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
                    init: init.to_bytes(),
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
            call: Call,
            value: u128,
        ) -> pds2_chain::state::TxReceipt {
            self.call_bytes(from, call.to_bytes(), value)
        }

        fn call_bytes(
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
            WorkloadState::from_bytes(&self.chain.state.contract_snapshot(&self.contract).unwrap())
                .unwrap()
        }

        /// Drives the happy path up to Executing with 2 executors and
        /// the first 3 providers.
        fn drive_to_executing(&mut self) {
            let consumer = self.consumer.clone();
            let execs = self.executors.clone();
            let r = self.call(&consumer, Call::Fund, 11_000);
            assert!(r.success, "{:?}", r.error);
            for e in &execs {
                let r = self.call(e, Call::RegisterExecutor, 0);
                assert!(r.success, "{:?}", r.error);
            }
            let p = self.providers.clone();
            let r = self.call(
                &execs[0],
                Call::SubmitParticipation(vec![
                    (p[0], 20, sha256(b"cert0")),
                    (p[1], 30, sha256(b"cert1")),
                ]),
                0,
            );
            assert!(r.success, "{:?}", r.error);
            let r = self.call(
                &execs[1],
                Call::SubmitParticipation(vec![(p[2], 25, sha256(b"cert2"))]),
                0,
            );
            assert!(r.success, "{:?}", r.error);
            let r = self.call(&consumer, Call::Start, 0);
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
            let r = h.call(e, Call::SubmitResult(result), 0);
            assert!(r.success, "{:?}", r.error);
        }
        let consumer = h.consumer.clone();
        let p = h.providers.clone();
        let shares = [(p[0], 3_000u128), (p[1], 4_000u128), (p[2], 3_000u128)];
        let r = h.call(&consumer, Call::Finalize(shares.to_vec()), 0);
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
        let r = h.call(&consumer, Call::Start, 0);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("start conditions"));
    }

    #[test]
    fn double_provider_registration_rejected() {
        let mut h = Harness::new(2);
        let consumer = h.consumer.clone();
        let execs = h.executors.clone();
        let p = h.providers.clone();
        h.call(&consumer, Call::Fund, 11_000);
        for e in &execs {
            h.call(e, Call::RegisterExecutor, 0);
        }
        let r = h.call(
            &execs[0],
            Call::SubmitParticipation(vec![(p[0], 20, sha256(b"cert0"))]),
            0,
        );
        assert!(r.success);
        // Same provider via another executor: the double-claim attack.
        let r = h.call(
            &execs[1],
            Call::SubmitParticipation(vec![(p[0], 20, sha256(b"cert0-again"))]),
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
        h.call(&consumer, Call::Fund, 12_000);
        for e in &execs {
            h.call(e, Call::RegisterExecutor, 0);
        }
        h.call(
            &execs[0],
            Call::SubmitParticipation(vec![(p[0], 20, sha256(b"c0")), (p[1], 20, sha256(b"c1"))]),
            0,
        );
        h.call(&consumer, Call::Start, 0);
        let honest = sha256(b"honest-result");
        let forged = sha256(b"forged-result");
        h.call(&execs[0], Call::SubmitResult(honest), 0);
        h.call(&execs[1], Call::SubmitResult(honest), 0);
        h.call(&execs[2], Call::SubmitResult(forged), 0);
        let r = h.call(
            &consumer,
            Call::Finalize(vec![(p[0], 5_000), (p[1], 5_000)]),
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
        h.call(&consumer, Call::Fund, 12_000);
        for e in &execs {
            h.call(e, Call::RegisterExecutor, 0);
        }
        h.call(
            &execs[0],
            Call::SubmitParticipation(vec![(p[0], 20, sha256(b"c0")), (p[1], 20, sha256(b"c1"))]),
            0,
        );
        h.call(&consumer, Call::Start, 0);
        h.call(&execs[0], Call::SubmitResult(sha256(b"a")), 0);
        h.call(&execs[1], Call::SubmitResult(sha256(b"b")), 0);
        h.call(&execs[2], Call::SubmitResult(sha256(b"c")), 0);
        let r = h.call(&consumer, Call::Finalize(vec![(p[0], 1)]), 0);
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
            h.call(e, Call::SubmitResult(result), 0);
        }
        let consumer = h.consumer.clone();
        let p = h.providers.clone();
        let r = h.call(&consumer, Call::Finalize(vec![(p[0], 50_000)]), 0);
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
            h.call(e, Call::SubmitResult(result), 0);
        }
        let consumer = h.consumer.clone();
        let outsider = Address::of(&KeyPair::from_seed(9999).public);
        let r = h.call(&consumer, Call::Finalize(vec![(outsider, 1)]), 0);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("non-contributor"));
    }

    #[test]
    fn finalize_share_count_is_bounded_by_its_input() {
        let mut h = Harness::new(2);
        h.drive_to_executing();
        for e in &h.executors.clone() {
            assert!(h.call(e, Call::SubmitResult(sha256(b"r")), 0).success);
        }
        let before = h.state();
        // Nine bytes from anyone: the tag, and a share count that nothing
        // follows. It is a failed call, not an allocation.
        let stranger = KeyPair::from_seed(55);
        for count in [1u64 << 60, 1] {
            let mut input = Call::Finalize(vec![]).to_bytes();
            input[1..].copy_from_slice(&count.to_le_bytes());
            let r = h.call_bytes(&stranger, input, 0);
            assert!(!r.success);
            assert!(r.error.unwrap().contains("length prefix exceeds input"));
            assert_eq!(h.state(), before, "count {count}: rolled back");
        }
        // The workload still finalizes.
        let p = h.providers.clone();
        let r = h.call(&h.consumer.clone(), Call::Finalize(vec![(p[0], 10_000)]), 0);
        assert!(r.success, "{:?}", r.error);
    }

    /// Both executors' results are in and `sender`, who is not the consumer,
    /// names one contributor for the whole pool. It is refused, no state and
    /// no balance moves, and the consumer's own FINALIZE still goes through.
    fn assert_only_the_consumer_finalizes(sender: &KeyPair) {
        let mut h = Harness::new(2);
        h.drive_to_executing();
        for e in &h.executors.clone() {
            assert!(h.call(e, Call::SubmitResult(sha256(b"r")), 0).success);
        }
        let p = h.providers.clone();
        let mut watched = vec![h.contract, Address::of(&sender.public)];
        watched.extend(p.iter().copied());
        watched.extend(
            [&h.consumer, &h.executors[0], &h.executors[1]].map(|k| Address::of(&k.public)),
        );
        let balances = |h: &Harness| -> Vec<u128> {
            watched.iter().map(|a| h.chain.state.balance(a)).collect()
        };
        let before = (h.state(), balances(&h));
        let whole_pool = Call::Finalize(vec![(p[0], 10_000)]);
        let r = h.call(sender, whole_pool.clone(), 0);
        assert_eq!(
            r.error.as_deref(),
            Some("reverted: only the consumer may finalize")
        );
        assert_eq!((h.state(), balances(&h)), before);
        let r = h.call(&h.consumer.clone(), whole_pool, 0);
        assert!(r.success, "{:?}", r.error);
        assert_eq!(h.state().phase, Phase::Completed);
        assert_eq!(h.chain.state.balance(&p[0]), 10_000);
    }

    #[test]
    fn a_stranger_cannot_finalize() {
        assert_only_the_consumer_finalizes(&KeyPair::from_seed(55));
    }

    #[test]
    fn a_contributing_provider_cannot_finalize() {
        // Provider 0, the one the shares name.
        assert_only_the_consumer_finalizes(&KeyPair::from_seed(200));
    }

    #[test]
    fn a_registered_executor_cannot_finalize() {
        assert_only_the_consumer_finalizes(&KeyPair::from_seed(100));
    }

    /// A workload one executor can drive alone (no quorum, no pool, no fee)
    /// with a deadline at height 1 and a timeout of one block, after that
    /// executor has sent `steps`.
    fn lone_executor(steps: &[Call]) -> (Harness, KeyPair) {
        let init = Init {
            deadline_height: 1,
            exec_timeout_blocks: timeout(1),
            ..quorumless_init(0, None)
        };
        let mut h = Harness::with_init(1, init);
        let exec = h.executors[0].clone();
        for step in steps {
            let r = h.call(&exec, step.clone(), 0);
            assert!(r.success, "{step:?}: {:?}", r.error);
        }
        (h, exec)
    }

    /// One input is one call. `call` with a byte after it is refused and
    /// changes nothing; without the byte it is accepted, so the byte is what
    /// was refused.
    fn assert_trailing_byte_refused(h: &mut Harness, from: &KeyPair, call: Call, value: u128) {
        let before = h.chain.state.contract_snapshot(&h.contract);
        let r = h.call_bytes(from, [call.to_bytes(), vec![0]].concat(), value);
        assert_eq!(
            r.error.as_deref(),
            Some("bad input: trailing bytes after decode"),
            "{call:?}"
        );
        assert_eq!(h.chain.state.contract_snapshot(&h.contract), before);
        let r = h.call(from, call, value);
        assert!(r.success, "{:?}", r.error);
    }

    #[test]
    fn trailing_byte_after_fund_is_refused() {
        let (mut h, _) = lone_executor(&[]);
        assert_trailing_byte_refused(&mut h, &KeyPair::from_seed(1), Call::Fund, 7);
    }

    #[test]
    fn trailing_byte_after_register_executor_is_refused() {
        let (mut h, exec) = lone_executor(&[]);
        assert_trailing_byte_refused(&mut h, &exec, Call::RegisterExecutor, 0);
    }

    #[test]
    fn trailing_byte_after_submit_participation_is_refused() {
        let (mut h, exec) = lone_executor(&[Call::RegisterExecutor]);
        let rows = vec![(h.providers[0], 1, sha256(b"cert"))];
        assert_trailing_byte_refused(&mut h, &exec, Call::SubmitParticipation(rows), 0);
    }

    #[test]
    fn trailing_byte_after_start_is_refused() {
        let (mut h, exec) = lone_executor(&[Call::RegisterExecutor]);
        assert_trailing_byte_refused(&mut h, &exec, Call::Start, 0);
    }

    #[test]
    fn trailing_byte_after_submit_result_is_refused() {
        let (mut h, exec) = lone_executor(&[Call::RegisterExecutor, Call::Start]);
        assert_trailing_byte_refused(&mut h, &exec, Call::SubmitResult(sha256(b"r")), 0);
    }

    #[test]
    fn trailing_byte_after_finalize_is_refused() {
        let results_in = [
            Call::RegisterExecutor,
            Call::Start,
            Call::SubmitResult(sha256(b"r")),
        ];
        let (mut h, _) = lone_executor(&results_in);
        assert_trailing_byte_refused(&mut h, &KeyPair::from_seed(1), Call::Finalize(vec![]), 0);
    }

    #[test]
    fn trailing_byte_after_cancel_is_refused() {
        let (mut h, _) = lone_executor(&[]);
        assert_trailing_byte_refused(&mut h, &KeyPair::from_seed(1), Call::Cancel, 0);
    }

    #[test]
    fn trailing_byte_after_expire_is_refused() {
        // The deploy and the registration put the chain past height 1.
        let (mut h, _) = lone_executor(&[Call::RegisterExecutor]);
        assert_trailing_byte_refused(&mut h, &KeyPair::from_seed(55), Call::Expire, 0);
    }

    #[test]
    fn trailing_byte_after_abort_is_refused() {
        let (mut h, _) = lone_executor(&[Call::RegisterExecutor, Call::Start]);
        // Past START's height plus the timeout of one block.
        h.chain.produce_block();
        assert_trailing_byte_refused(&mut h, &KeyPair::from_seed(55), Call::Abort, 0);
    }

    #[test]
    fn cancel_refunds_consumer() {
        let mut h = Harness::new(1);
        let consumer = h.consumer.clone();
        let consumer_addr = Address::of(&consumer.public);
        let balance_before = h.chain.state.balance(&consumer_addr);
        h.call(&consumer, Call::Fund, 5_000);
        assert_eq!(
            h.chain.state.balance(&consumer_addr),
            balance_before - 5_000
        );
        let r = h.call(&consumer, Call::Cancel, 0);
        assert!(r.success, "{:?}", r.error);
        assert_eq!(h.chain.state.balance(&consumer_addr), balance_before);
        assert_eq!(h.state().phase, Phase::Cancelled);
    }

    #[test]
    fn only_consumer_cancels() {
        let mut h = Harness::new(1);
        let exec = h.executors[0].clone();
        let r = h.call(&exec, Call::Cancel, 0);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("only the consumer"));
    }

    #[test]
    fn unregistered_executor_cannot_participate_or_submit() {
        let mut h = Harness::new(1);
        let consumer = h.consumer.clone();
        let p = h.providers.clone();
        h.call(&consumer, Call::Fund, 11_000);
        let rogue = KeyPair::from_seed(777);
        // Needs funds for gas-free chain, but account must exist: sending
        // from a zero-balance account is fine (no fees).
        let r = h.call(
            &rogue,
            Call::SubmitParticipation(vec![(p[0], 5, sha256(b"c"))]),
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
        let r = h.call(&execs[0], Call::SubmitResult(sha256(b"early")), 0);
        assert!(!r.success);
        h.drive_to_executing();
        let r = h.call(&execs[0], Call::SubmitResult(sha256(b"a")), 0);
        assert!(r.success);
        let r = h.call(&execs[0], Call::SubmitResult(sha256(b"b")), 0);
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
        let init = Init {
            deadline_height: 3,
            ..terms()
        }
        .to_bytes();
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
                input: Call::Fund.to_bytes(),
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
                input: Call::Expire.to_bytes(),
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
                input: Call::Expire.to_bytes(),
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
        let st =
            WorkloadState::from_bytes(&chain.state.contract_snapshot(&contract).unwrap()).unwrap();
        assert_eq!(st.phase, Phase::Cancelled);
        assert!(!chain.events_by_topic("workload.expired").is_empty());
    }

    #[test]
    fn abort_refunds_after_execution_timeout() {
        let mut h = Harness::new_with_timeout(2, timeout(2));
        let consumer_addr = Address::of(&h.consumer.public);
        let balance_before = h.chain.state.balance(&consumer_addr);
        h.drive_to_executing();
        let st = h.state();
        assert!(st.started_height > 0, "START records its height");
        // Too early: the timeout window has not elapsed.
        let stranger = KeyPair::from_seed(55);
        let r = h.call(&stranger, Call::Abort, 0);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("not reached"));
        // Mine past started_height + exec_timeout_blocks; anyone may abort.
        h.chain.produce_block();
        h.chain.produce_block();
        h.chain.produce_block();
        let r = h.call(&stranger, Call::Abort, 0);
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
            !h.call(&exec, Call::SubmitResult(sha256(b"late")), 0)
                .success
        );
        assert!(!h.call(&stranger, Call::Abort, 0).success);
    }

    #[test]
    fn abort_requires_configured_timeout_and_executing_phase() {
        let mut h = Harness::new(2);
        let stranger = KeyPair::from_seed(55);
        // Open phase: wrong phase whatever the timeout.
        let r = h.call(&stranger, Call::Abort, 0);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("wrong phase"));
        // A workload with no timeout cannot be deployed.
        let consumer = h.consumer.clone();
        let r = h.send(
            &consumer,
            TxKind::Deploy {
                code_id: WORKLOAD_CODE_ID.into(),
                init: with_zero_timeout(&terms()),
            },
        );
        assert_eq!(
            r.error.as_deref(),
            Some("bad input: invalid value: zero execution timeout")
        );
        assert_eq!(r.deployed, None);
    }

    #[test]
    fn abort_at_the_largest_timeout_waits_for_it() {
        let mut h = Harness::new_with_timeout(2, NonZeroU32::MAX);
        h.drive_to_executing();
        // The block after START's.
        let r = h.call(&KeyPair::from_seed(55), Call::Abort, 0);
        let error = r.error.expect("ABORT one block after START is refused");
        assert!(error.contains("not reached"), "{error}");
        assert_eq!(h.state().phase, Phase::Executing);
    }

    #[test]
    fn no_deadline_means_no_public_expiry() {
        let mut h = Harness::new(1);
        let stranger = KeyPair::from_seed(55);
        h.call(&h.consumer.clone(), Call::Fund, 1_000);
        let r = h.call(&stranger, Call::Expire, 0);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("no deadline"));
    }

    /// A workload with no quorum and no reward pool, so one executor can
    /// drive it alone.
    fn quorumless_init(executor_fee: u128, reward_token: Option<TokenId>) -> Init {
        Init {
            provider_reward: 0,
            executor_fee,
            min_providers: 0,
            min_records: 0,
            reward_token,
            ..terms()
        }
    }

    #[test]
    fn finalize_in_a_token_that_does_not_exist_fails_and_rolls_back() {
        let mut h = Harness::with_init(1, quorumless_init(0, Some(TokenId(999))));
        let exec = h.executors[0].clone();
        for input in [
            Call::RegisterExecutor,
            Call::Start,
            Call::SubmitResult(sha256(b"model")),
        ] {
            let r = h.call(&exec, input, 0);
            assert!(r.success, "{:?}", r.error);
        }
        let before = h.state();
        // Pays the executor its fee of 0 in token 999.
        let r = h.call(&h.consumer.clone(), Call::Finalize(vec![]), 0);
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
            let r = h.call(&e, Call::RegisterExecutor, 0);
            assert!(r.success, "{:?}", r.error);
        }
        let exec = h.executors[0].clone();
        let r = h.call(&exec, Call::Start, 0);
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
        let st = WorkloadState::from_bytes(&snap).unwrap();
        assert_eq!(st.to_bytes(), snap);
        assert_eq!(st.contributions.len(), 3);
        assert_eq!(st.total_records(), 75);
    }
}
