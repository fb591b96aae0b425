//! The native-contract framework.
//!
//! PDS² deploys "a separate smart contract instance … for managing the
//! lifetime of each workload" (§III-A). Here contracts are native Rust
//! types registered under a `code_id`; deploying instantiates one with a
//! constructor input, and calls dispatch byte-encoded inputs to it.
//!
//! The framework provides the Ethereum-like execution guarantees the
//! governance layer needs:
//!
//! - **atomicity** — a failed call rolls back all contract state, pending
//!   value transfers and events (via snapshot/restore);
//! - **metering** — contracts charge gas through [`CallCtx::charge_gas`];
//! - **auditability** — events emitted through the context land in the
//!   block's receipt log;
//! - **escrow** — attached value is credited to the contract account, and
//!   contracts schedule payouts with [`CallCtx::transfer_out`].

use crate::address::Address;
use crate::erc20::{Erc20Module, TokenId};
use crate::event::{Event, EventSink};
use crate::gas::{self, GasMeter};
use std::collections::HashMap;

/// Why a contract call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractError {
    /// The contract explicitly reverted.
    Revert(String),
    /// Gas limit exceeded.
    OutOfGas,
    /// Input bytes could not be decoded.
    BadInput(String),
    /// The contract tried to pay out more than its balance.
    InsufficientContractFunds,
}

impl std::fmt::Display for ContractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContractError::Revert(msg) => write!(f, "reverted: {msg}"),
            ContractError::OutOfGas => write!(f, "out of gas"),
            ContractError::BadInput(msg) => write!(f, "bad input: {msg}"),
            ContractError::InsufficientContractFunds => {
                write!(f, "contract balance too low for payout")
            }
        }
    }
}

impl std::error::Error for ContractError {}

impl From<gas::OutOfGas> for ContractError {
    fn from(_: gas::OutOfGas) -> Self {
        ContractError::OutOfGas
    }
}

/// Execution context handed to a contract call.
pub struct CallCtx<'a> {
    /// Address of the calling account.
    pub sender: Address,
    /// Address of the contract instance being called.
    pub contract: Address,
    /// Native value attached to the call (already escrowed).
    pub value: u128,
    /// Height of the block including this transaction.
    pub block_height: u64,
    /// Causal context of the workload that submitted this transaction
    /// ([`pds2_obs::TraceCtx::NONE`] when the submission was untraced).
    /// Contracts attach their domain events to it via
    /// [`pds2_obs::event!`].
    pub trace: pds2_obs::TraceCtx,
    pub(crate) gas: &'a mut GasMeter,
    pub(crate) events: &'a mut EventSink,
    pub(crate) pending_transfers: Vec<(Address, u128)>,
    pub(crate) pending_token_transfers: Vec<(TokenId, Address, u128)>,
    pub(crate) erc20: &'a Erc20Module,
}

impl<'a> CallCtx<'a> {
    /// Charges gas; returns `OutOfGas` on exhaustion.
    pub fn charge_gas(&mut self, amount: u64) -> Result<(), ContractError> {
        self.gas.charge(amount)?;
        Ok(())
    }

    /// Emits an event (charged).
    pub fn emit(&mut self, topic: &str, data: String) -> Result<(), ContractError> {
        self.gas.charge(gas::EVENT)?;
        self.events.emit(Event::new(topic, data));
        Ok(())
    }

    /// Schedules a native-token payout from the contract's account. The
    /// transfer is applied only if the call succeeds and the contract
    /// balance covers all scheduled payouts.
    pub fn transfer_out(&mut self, to: Address, amount: u128) {
        self.pending_transfers.push((to, amount));
    }

    /// Schedules an ERC-20 payout from the contract's token balance —
    /// §III-A's "rewards … handled with fungible tokens". Applied only if
    /// the call succeeds and the balance covers all scheduled payouts.
    pub fn transfer_token_out(&mut self, token: TokenId, to: Address, amount: u128) {
        self.pending_token_transfers.push((token, to, amount));
    }

    /// The contract's own ERC-20 balance (read-only view of the module).
    pub fn own_token_balance(&self, token: TokenId) -> u128 {
        self.erc20.balance_of(token, &self.contract)
    }
}

/// A native smart contract.
///
/// State persistence and rollback go through [`snapshot`](Contract::snapshot)
/// / [`restore`](Contract::restore); the state root commits to
/// `sha256(snapshot())`.
pub trait Contract {
    /// Handles one call. Any `Err` rolls the contract back.
    fn call(&mut self, ctx: &mut CallCtx<'_>, input: &[u8]) -> Result<Vec<u8>, ContractError>;

    /// Serializes the full contract state canonically.
    fn snapshot(&self) -> Vec<u8>;

    /// Restores state from a snapshot.
    fn restore(&mut self, snapshot: &[u8]) -> Result<(), ContractError>;
}

/// Constructor signature for a registered contract type.
pub type ContractConstructor =
    fn(deployer: Address, init: &[u8]) -> Result<Box<dyn Contract>, ContractError>;

/// Registry of deployable contract types.
#[derive(Default)]
pub struct ContractRegistry {
    constructors: HashMap<String, ContractConstructor>,
}

impl ContractRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a contract type under `code_id`.
    pub fn register(&mut self, code_id: impl Into<String>, constructor: ContractConstructor) {
        self.constructors.insert(code_id.into(), constructor);
    }

    /// Instantiates a registered type.
    pub fn instantiate(
        &self,
        code_id: &str,
        deployer: Address,
        init: &[u8],
    ) -> Result<Box<dyn Contract>, ContractError> {
        let ctor = self
            .constructors
            .get(code_id)
            .ok_or_else(|| ContractError::BadInput(format!("unknown contract type {code_id}")))?;
        ctor(deployer, init)
    }

    /// Whether a type is registered.
    pub fn contains(&self, code_id: &str) -> bool {
        self.constructors.contains_key(code_id)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use pds2_crypto::codec::{Decode, Decoder, Encode, Encoder};

    /// A minimal counter contract used by framework tests.
    pub struct Counter {
        pub value: u64,
        pub owner: Address,
    }

    impl Counter {
        pub fn construct(
            deployer: Address,
            init: &[u8],
        ) -> Result<Box<dyn Contract>, ContractError> {
            let start = if init.is_empty() {
                0
            } else {
                let mut dec = Decoder::new(init);
                dec.get_u64()
                    .map_err(|e| ContractError::BadInput(e.to_string()))?
            };
            Ok(Box::new(Counter {
                value: start,
                owner: deployer,
            }))
        }
    }

    impl Contract for Counter {
        fn call(&mut self, ctx: &mut CallCtx<'_>, input: &[u8]) -> Result<Vec<u8>, ContractError> {
            ctx.charge_gas(100)?;
            match input.first() {
                Some(0) => {
                    // increment
                    self.value += 1;
                    ctx.emit("counter.inc", format!("value={}", self.value))?;
                    let mut enc = Encoder::new();
                    enc.put_u64(self.value);
                    Ok(enc.finish())
                }
                Some(1) => {
                    // increment then revert (for rollback tests)
                    self.value += 100;
                    Err(ContractError::Revert("deliberate".into()))
                }
                Some(2) => {
                    // pay out half the attached value back to the sender
                    ctx.transfer_out(ctx.sender, ctx.value / 2);
                    Ok(Vec::new())
                }
                Some(3) => {
                    // try to overspend the contract
                    ctx.transfer_out(ctx.sender, u128::MAX);
                    Ok(Vec::new())
                }
                Some(4) => {
                    // pay the sender in tokens: `token u64 ‖ amount u128`
                    // per payout
                    for payout in input[1..].chunks_exact(24) {
                        let token = u64::from_le_bytes(payout[..8].try_into().unwrap());
                        let amount = u128::from_le_bytes(payout[8..].try_into().unwrap());
                        ctx.transfer_token_out(TokenId(token), ctx.sender, amount);
                    }
                    Ok(Vec::new())
                }
                _ => Err(ContractError::BadInput("unknown method".into())),
            }
        }

        fn snapshot(&self) -> Vec<u8> {
            let mut enc = Encoder::new();
            enc.put_u64(self.value);
            self.owner.encode(&mut enc);
            enc.finish()
        }

        fn restore(&mut self, snapshot: &[u8]) -> Result<(), ContractError> {
            let mut dec = Decoder::new(snapshot);
            self.value = dec
                .get_u64()
                .map_err(|e| ContractError::BadInput(e.to_string()))?;
            self.owner =
                Address::decode(&mut dec).map_err(|e| ContractError::BadInput(e.to_string()))?;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::Counter;
    use super::*;
    use pds2_crypto::KeyPair;

    fn addr(seed: u64) -> Address {
        Address::of(&KeyPair::from_seed(seed).public)
    }

    #[test]
    fn registry_instantiates_registered_types() {
        let mut reg = ContractRegistry::new();
        reg.register("counter", Counter::construct);
        assert!(reg.contains("counter"));
        assert!(!reg.contains("missing"));
        let c = reg.instantiate("counter", addr(1), &[]).unwrap();
        assert_eq!(c.snapshot(), c.snapshot());
    }

    #[test]
    fn unknown_type_rejected() {
        let reg = ContractRegistry::new();
        assert!(matches!(
            reg.instantiate("nope", addr(1), &[]),
            Err(ContractError::BadInput(_))
        ));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut c = Counter {
            value: 42,
            owner: addr(1),
        };
        let snap = c.snapshot();
        c.value = 0;
        c.restore(&snap).unwrap();
        assert_eq!(c.value, 42);
        assert_eq!(c.owner, addr(1));
    }

    #[test]
    fn call_ctx_gas_and_events() {
        let mut gas = GasMeter::new(1000);
        let mut events = EventSink::new();
        let erc20 = Erc20Module::default();
        let mut ctx = CallCtx {
            sender: addr(1),
            contract: addr(2),
            value: 0,
            block_height: 5,
            trace: pds2_obs::TraceCtx::NONE,
            gas: &mut gas,
            events: &mut events,
            pending_transfers: Vec::new(),
            pending_token_transfers: Vec::new(),
            erc20: &erc20,
        };
        ctx.charge_gas(100).unwrap();
        ctx.emit("test.topic", "data".into()).unwrap();
        assert_eq!(gas.used(), 100 + gas::EVENT);
        assert_eq!(events.events().len(), 1);
    }

    #[test]
    fn out_of_gas_surfaces() {
        let mut gas = GasMeter::new(10);
        let mut events = EventSink::new();
        let erc20 = Erc20Module::default();
        let mut ctx = CallCtx {
            sender: addr(1),
            contract: addr(2),
            value: 0,
            block_height: 0,
            trace: pds2_obs::TraceCtx::NONE,
            gas: &mut gas,
            events: &mut events,
            pending_transfers: Vec::new(),
            pending_token_transfers: Vec::new(),
            erc20: &erc20,
        };
        assert_eq!(ctx.charge_gas(11).unwrap_err(), ContractError::OutOfGas);
    }
}
