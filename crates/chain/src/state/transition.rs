//! The state transition, in the order it happens: price → signature →
//! nonce → escrow → payload → settle → receipt.

use super::{BlockEnv, ContractInstance, TxReceipt, WorldState};
use crate::address::Address;
use crate::backend::LeafKey;
use crate::contract::ContractRegistry;
use crate::erc20::Erc20Module;
use crate::erc721::Erc721Module;
use crate::event::{Event, EventSink};
use crate::gas::{self, GasMeter};
use crate::tx::{SignedTransaction, TxKind};

impl WorldState {
    /// Executes one transaction under a block environment, charging
    /// EIP-1559 fees around the payload:
    ///
    /// 1. the effective gas price at `env.base_fee` is computed (a fee
    ///    cap below the base fee fails the transaction without touching
    ///    state — producers never select such transactions, so hitting
    ///    this is a proposer fault);
    /// 2. the signature and the nonce are checked: a bad one is an invalid
    ///    transaction (no state change, no nonce bump). The caller (block
    ///    producer / validator) must have verified the signature; this is
    ///    the one defensive re-check;
    /// 3. the nonce is consumed and `gas_limit × price` is escrowed from
    ///    the sender up front (so execution cannot spend money owed for
    ///    gas);
    /// 4. the payload runs against the gas meter;
    /// 5. the unused portion is refunded, the base-fee share of the
    ///    consumed gas is burned (`burned` accumulator, part of the state
    ///    root) and the tip share is credited to `env.coinbase`.
    ///
    /// At a zero effective price (free/legacy transaction at zero base
    /// fee) every fee amount is zero, since `price ≥ base_fee`: the escrow
    /// cannot fail and nothing is burned or tipped, so the free path is
    /// this same function. `trace` flows into
    /// [`crate::contract::CallCtx::trace`] so contract code can attach its
    /// phase events to the submitting workload's trace.
    pub fn apply_transaction_env(
        &mut self,
        registry: &ContractRegistry,
        signed: &SignedTransaction,
        env: &BlockEnv,
        tx_index: u32,
        trace: pds2_obs::TraceCtx,
    ) -> TxReceipt {
        let tx = &signed.tx;
        let tx_hash = signed.hash();
        let fail = |gas_used, price, error| TxReceipt::failed(tx_hash, gas_used, price, error);

        let Some(price) = tx.effective_gas_price(env.base_fee) else {
            let (cap, base_fee) = (tx.max_fee_per_gas, env.base_fee);
            return fail(0, 0, format!("fee cap {cap} below base fee {base_fee}"));
        };
        if !signed.verify_signature() {
            return fail(0, 0, "invalid signature".into());
        }
        let sender = signed.sender();
        let expected_nonce = self.nonce(&sender);
        if tx.nonce != expected_nonce {
            let got = tx.nonce;
            return fail(
                0,
                0,
                format!("bad nonce: expected {expected_nonce}, got {got}"),
            );
        }
        let upfront = tx.gas_limit as u128 * price as u128;
        let have = self.balance(&sender);
        if have < upfront {
            return fail(
                0,
                price,
                format!("insufficient funds for gas: need {upfront}, have {have}"),
            );
        }

        // From here on the nonce is consumed, success or not.
        let account = self.account_mut(sender);
        account.nonce += 1;
        account.balance -= upfront;

        let mut meter = GasMeter::new(tx.gas_limit);
        let mut events = EventSink::new();
        let intrinsic = gas::TX_BASE.saturating_add(signed.body_len() as u64 * gas::PER_BYTE);
        let result = match meter.charge(intrinsic) {
            Err(_) => Err("out of gas (intrinsic)".into()),
            Ok(()) => self.execute_payload(
                registry,
                signed,
                sender,
                env.height,
                trace,
                &mut meter,
                &mut events,
            ),
        };

        let gas_used = meter.used();
        let gas_cost = gas_used as u128 * price as u128;
        self.account_mut(sender).balance += upfront - gas_cost;
        let burn = gas_used as u128 * env.base_fee as u128;
        if burn > 0 {
            self.mark(LeafKey::Burned);
            self.burned += burn;
            // Escrow−refund−tip nets the circulating supply down by exactly
            // the burn.
            self.native_supply -= burn;
        }
        let tip = gas_cost - burn;
        if tip > 0 {
            self.account_mut(env.coinbase).balance += tip;
        }

        match result {
            Ok((output, deployed)) => {
                let mut events = events.into_events();
                for e in &mut events {
                    e.block_height = env.height;
                    e.tx_index = tx_index;
                }
                TxReceipt {
                    tx_hash,
                    success: true,
                    gas_used,
                    effective_gas_price: price,
                    output,
                    error: None,
                    events,
                    deployed,
                }
            }
            Err(error) => fail(gas_used, price, error),
        }
    }

    /// Runs the payload against the meter and returns `(output, deployed
    /// address)`. An `Err` leaves nothing behind but the marks and, for a
    /// failed ERC-20 transfer or burn, the sender's zero balance entry.
    #[allow(clippy::too_many_arguments)]
    fn execute_payload(
        &mut self,
        registry: &ContractRegistry,
        signed: &SignedTransaction,
        sender: Address,
        block_height: u64,
        trace: pds2_obs::TraceCtx,
        meter: &mut GasMeter,
        events: &mut EventSink,
    ) -> Result<(Vec<u8>, Option<Address>), String> {
        let id_bytes =
            |created: Option<u64>| created.map_or(Vec::new(), |id| id.to_le_bytes().into());
        match &signed.tx.kind {
            TxKind::Transfer { to, amount } => {
                self.native_transfer(sender, *to, *amount)?;
                events.emit(Event::new(
                    "native.transfer",
                    format!("from={sender} to={to} amount={amount}"),
                ));
                Ok((Vec::new(), None))
            }
            TxKind::Erc20(op) => {
                meter.charge(gas::ERC20_OP).map_err(|e| e.to_string())?;
                let result = self.erc20.apply(sender, op, events);
                let created = *result.as_ref().unwrap_or(&None);
                // Whatever the outcome: see `touched_leaves`.
                for key in Erc20Module::touched_leaves(sender, op, created) {
                    self.mark(key);
                }
                result.map_err(|e| e.to_string())?;
                Ok((id_bytes(created.map(|id| id.0)), None))
            }
            TxKind::Erc721(op) => {
                meter.charge(gas::ERC721_OP).map_err(|e| e.to_string())?;
                let result = self.erc721.apply(sender, op, events);
                let created = *result.as_ref().unwrap_or(&None);
                for key in Erc721Module::touched_leaves(op, created) {
                    self.mark(key);
                }
                result.map_err(|e| e.to_string())?;
                Ok((id_bytes(created.map(|id| id.0)), None))
            }
            TxKind::Deploy { code_id, init } => {
                meter.charge(gas::DEPLOY).map_err(|e| e.to_string())?;
                // The nonce this transaction consumed.
                let addr = Address::contract(&sender, signed.tx.nonce);
                if self.contracts.contains_key(&addr) {
                    return Err("contract address collision".into());
                }
                let contract = registry
                    .instantiate(code_id, sender, init)
                    .map_err(|e| e.to_string())?;
                let instance = ContractInstance {
                    code_id: code_id.clone(),
                    deployer: sender,
                    init: init.clone(),
                    contract,
                };
                self.contracts.insert(addr, instance);
                self.mark(LeafKey::Contract(addr));
                self.account_mut(addr);
                events.emit(Event::new(
                    "contract.deploy",
                    format!("code={code_id} addr={addr} by={sender}"),
                ));
                Ok((Vec::new(), Some(addr)))
            }
            TxKind::Call {
                contract,
                input,
                value,
            } => {
                let output = self.execute_call(
                    sender,
                    *contract,
                    input,
                    *value,
                    block_height,
                    trace,
                    meter,
                    events,
                )?;
                Ok((output, None))
            }
        }
    }
}
