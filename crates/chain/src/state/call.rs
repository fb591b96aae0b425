//! A contract call: escrow in, payouts out. A failed one is rolled back
//! by the savepoint around the payload.

use super::{Old, WorldState};
use crate::address::Address;
use crate::backend::LeafKey;
use crate::contract::{CallCtx, ContractError};
use crate::erc20::TokenId;
use crate::event::{Event, EventSink};
use crate::gas::{self, GasMeter};

impl WorldState {
    /// Escrows `value` with the contract, runs the call and pays what it
    /// scheduled. An `Err` from any of the three may leave writes behind;
    /// `apply_transaction_env` rolls them back, so the contract's state
    /// and every balance are as they were (the atomicity
    /// `crate::contract` promises).
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
        let missing = || format!("no contract at {contract_addr}");
        if !self.contracts.contains_key(&contract_addr) {
            return Err(missing());
        }
        if value > 0 {
            self.native_transfer(sender, contract_addr, value)?;
        }
        let instance = self.contracts.get_mut(&contract_addr).ok_or_else(missing)?;
        // The call writes the contract's leaf. Its committed bytes move to
        // the undo list (the payload's savepoint is open, so the list keeps
        // them), and a call that pays out commits fresh ones.
        let old = std::mem::take(&mut instance.committed);
        self.committer
            .get_mut()
            .record(LeafKey::Contract(contract_addr), Old::Contract(old));
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
        let output = instance
            .contract
            .call(&mut ctx, input)
            .map_err(|e| e.to_string())?;
        let (native, tokens) = (ctx.pending_transfers, ctx.pending_token_transfers);
        self.pay_out(contract_addr, native, tokens, events)?;
        let instance = self.contracts.get_mut(&contract_addr).ok_or_else(missing)?;
        instance.committed = instance.contract.snapshot();
        Ok(output)
    }

    /// Applies the payouts a successful call scheduled, in order. The
    /// first that does not fit the contract's balance, or names a token
    /// that does not exist, fails the call. The token leaves are marked
    /// once every payout went through, so a refused call marks none.
    fn pay_out(
        &mut self,
        contract_addr: Address,
        native: Vec<(Address, u128)>,
        tokens: Vec<(TokenId, Address, u128)>,
        events: &mut EventSink,
    ) -> Result<(), String> {
        let refused = || ContractError::InsufficientContractFunds.to_string();
        for (to, amount) in native {
            self.native_transfer(contract_addr, to, amount)
                .map_err(|_| refused())?;
        }
        let mut paid = Vec::with_capacity(2 * tokens.len());
        for (token, to, amount) in tokens {
            let committer = self.committer.get_mut();
            let keep = |key, old| {
                paid.push(key);
                committer.keep(key, old);
            };
            self.erc20
                .module_transfer(token, contract_addr, to, amount, keep)
                .map_err(|_| refused())?;
            events.emit(Event::new(
                "erc20.contract_payout",
                format!(
                    "token={} from={contract_addr} to={to} amount={amount}",
                    token.0
                ),
            ));
        }
        let committer = self.committer.get_mut();
        paid.into_iter().for_each(|key| committer.mark(key));
        Ok(())
    }
}
