//! A contract call: escrow in, payout or refund out, nothing in between.

use super::WorldState;
use crate::address::Address;
use crate::backend::LeafKey;
use crate::contract::{CallCtx, ContractError};
use crate::erc20::TokenId;
use crate::event::{Event, EventSink};
use crate::gas::{self, GasMeter};
use std::collections::BTreeMap;

impl WorldState {
    /// Escrows `value` with the contract, runs the call and pays what it
    /// scheduled. An `Err` from the call or from the payouts is undone in
    /// one place: the contract's state and the escrow are as they were
    /// (the atomicity `crate::contract` promises).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn execute_call(
        &mut self,
        sender: Address,
        contract_addr: Address,
        input: &[u8],
        value: u128,
        block_height: u64,
        trace: pds2_obs::TraceCtx,
        meter: &mut GasMeter,
        events: &mut EventSink,
    ) -> Result<Vec<u8>, String> {
        meter.charge(gas::CALL_BASE).map_err(|e| e.to_string())?;
        if !self.contracts.contains_key(&contract_addr) {
            return Err(format!("no contract at {contract_addr}"));
        }
        if value > 0 {
            self.native_transfer(sender, contract_addr, value)?;
        }
        // The call may change the contract's state and a failed one puts it
        // back; its leaf is recomputed either way.
        self.mark(LeafKey::Contract(contract_addr));
        // Split borrows: the contract is called mutably while the token
        // module is readable through the context.
        let mut ctx = CallCtx {
            sender,
            contract: contract_addr,
            value,
            block_height,
            trace,
            gas: meter,
            events: &mut *events,
            pending_transfers: Vec::new(),
            pending_token_transfers: Vec::new(),
            erc20: &self.erc20,
        };
        // Found at the top; the escrow transfer and `mark` remove no contract.
        let instance = self
            .contracts
            .get_mut(&contract_addr)
            .expect("checked above");
        let result = match instance.contract.call(&mut ctx, input) {
            Ok(output) => {
                let (native, tokens) = (ctx.pending_transfers, ctx.pending_token_transfers);
                self.pay_out(contract_addr, native, tokens, events)
                    .map(|()| output)
            }
            Err(e) => Err(e.to_string()),
        };
        // Still there: the call sees only `ctx` and `pay_out` moves balances.
        let instance = self
            .contracts
            .get_mut(&contract_addr)
            .expect("checked above");
        if result.is_ok() {
            instance.committed = instance.contract.snapshot();
        } else {
            // `committed` is this instance's own state before the call.
            instance
                .contract
                .restore(&instance.committed)
                .expect("restoring own snapshot cannot fail");
            // The escrow credited `value`, and a failed call or payout moved
            // nothing out of the contract's balance.
            if value > 0 {
                self.native_transfer(contract_addr, sender, value)
                    .expect("escrow refund cannot fail");
            }
        }
        result
    }

    /// Applies the payouts a successful call scheduled. Overspend aborts
    /// the whole call: the native total must fit the contract's balance
    /// and each token's total its balance in a token that exists (a total
    /// past `u128::MAX` fits nothing). Nothing moves before every total is
    /// known to fit, so an `Err` has changed nothing.
    fn pay_out(
        &mut self,
        contract_addr: Address,
        native: Vec<(Address, u128)>,
        tokens: Vec<(TokenId, Address, u128)>,
        events: &mut EventSink,
    ) -> Result<(), String> {
        let native_total = native
            .iter()
            .try_fold(0u128, |sum, (_, amount)| sum.checked_add(*amount));
        let mut token_totals: BTreeMap<TokenId, Option<u128>> = BTreeMap::new();
        for (token, _, amount) in &tokens {
            let total = token_totals.entry(*token).or_insert(Some(0));
            *total = total.and_then(|sum| sum.checked_add(*amount));
        }
        let covered = native_total.is_some_and(|total| total <= self.balance(&contract_addr))
            && token_totals.iter().all(|(token, total)| {
                self.erc20.total_supply(*token).is_some()
                    && total.is_some_and(|t| t <= self.erc20.balance_of(*token, &contract_addr))
            });
        if !covered {
            return Err(ContractError::InsufficientContractFunds.to_string());
        }
        // `covered` held each total to its balance in a token that exists,
        // the only ways a transfer below can fail.
        for (to, amount) in native {
            self.native_transfer(contract_addr, to, amount)
                .expect("total checked above");
        }
        for (token, to, amount) in tokens {
            let mark = |key| self.committer.borrow_mut().mark(key);
            self.erc20
                .module_transfer(token, contract_addr, to, amount, mark)
                .expect("totals checked above");
            events.emit(Event::new(
                "erc20.contract_payout",
                format!(
                    "token={} from={contract_addr} to={to} amount={amount}",
                    token.0
                ),
            ));
        }
        Ok(())
    }
}
