//! The state transition, in the order it happens: price → signature →
//! nonce → escrow → payload → settle → receipt.

use super::{BlockEnv, ContractInstance, Old, TxReceipt, WorldState};
use crate::address::Address;
use crate::backend::LeafKey;
use crate::contract::ContractRegistry;
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
    /// 4. the payload runs against the gas meter, inside a savepoint that
    ///    a failed payload rolls back to (a failed call leaves no escrow,
    ///    payout or contract change behind);
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
        let savepoint = self.savepoint();
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
        match result {
            Ok(_) => self.release(savepoint),
            Err(_) => self.rollback(savepoint),
        }

        let gas_used = meter.used();
        let gas_cost = gas_used as u128 * price as u128;
        self.account_mut(sender).balance += upfront - gas_cost;
        let burn = gas_used as u128 * env.base_fee as u128;
        if burn > 0 {
            self.record(LeafKey::Burned, Old::Amount(self.burned));
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
    /// address)`. What an `Err` wrote, its caller rolls back.
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
        // The ledgers' callback borrows only the committer, so it is passed
        // beside the ledger it records for.
        let record = |key, old| self.committer.borrow_mut().record(key, old);
        match &signed.tx.kind {
            TxKind::Transfer { to, amount } => {
                self.native_transfer(sender, *to, *amount)?;
                events.emit(Event::new(
                    "native.transfer",
                    transfer_event_data(&sender, to, *amount),
                ));
                Ok((Vec::new(), None))
            }
            TxKind::Erc20(op) => {
                meter.charge(gas::ERC20_OP).map_err(|e| e.to_string())?;
                let created = self.erc20.apply(sender, op, events, record);
                let id_bytes = created
                    .map_err(|e| e.to_string())?
                    .map(|id| id.0.to_le_bytes());
                Ok((id_bytes.map_or(Vec::new(), Vec::from), None))
            }
            TxKind::Erc721(op) => {
                meter.charge(gas::ERC721_OP).map_err(|e| e.to_string())?;
                let id = self.erc721.apply(sender, op, events, record);
                Ok((id.map_err(|e| e.to_string())?.0.to_le_bytes().into(), None))
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
                    committed: contract.snapshot(),
                    contract,
                };
                self.record(LeafKey::Contract(addr), Old::Absent);
                self.contracts.insert(addr, instance);
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

/// The `native.transfer` event's data, `from=0x… to=0x… amount=…` as
/// `Address: Display` and `u128: Display` render it, pushed into one
/// string sized up front: every transfer pays for this.
fn transfer_event_data(from: &Address, to: &Address, amount: u128) -> String {
    // Two `0x` + 8-hex addresses, at most 39 digits, 18 bytes of labels.
    let mut s = String::with_capacity(2 * 10 + 39 + 18);
    s.push_str("from=0x");
    push_short_hex(&mut s, from);
    s.push_str(" to=0x");
    push_short_hex(&mut s, to);
    s.push_str(" amount=");
    let mut digits = [0u8; 39];
    let mut at = digits.len();
    let mut rest = amount;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    s.extend(digits[at..].iter().map(|&d| char::from(d)));
    s
}

/// The address' first four bytes as lowercase hex, what
/// `Digest::short` renders, written straight into `s`.
fn push_short_hex(s: &mut String, address: &Address) {
    const NIBBLES: &[u8; 16] = b"0123456789abcdef";
    let [a, b, c, d, ..] = address.0 .0;
    for byte in [a, b, c, d] {
        s.push(char::from(NIBBLES[usize::from(byte >> 4)]));
        s.push(char::from(NIBBLES[usize::from(byte & 0x0f)]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds2_crypto::sha256::{sha256, Digest};

    #[test]
    fn transfer_event_data_is_the_format_rendering() {
        let addrs = [
            Address(Digest::ZERO),
            Address(Digest([0xff; 32])),
            Address(sha256(b"alice")),
            Address(sha256(b"bob")),
        ];
        let amounts = [0, 1, 9, 10, 1_000_000_007, u64::MAX as u128 + 1, u128::MAX];
        for from in &addrs {
            for to in &addrs {
                for amount in amounts {
                    let data = transfer_event_data(from, to, amount);
                    assert_eq!(data, format!("from={from} to={to} amount={amount}"));
                    assert!(data.len() <= 2 * 10 + 39 + 18, "fits the size reserved");
                }
            }
        }
    }
}
