//! The way out of a workload whose executors are gone: once the contract's
//! execution timeout has passed, ABORT refunds the consumer.

use super::{actor, call, send, workload, MarketError, Marketplace};
use crate::contract::Call;

impl Marketplace {
    /// Gracefully aborts an Executing workload whose executors crashed
    /// mid-computation: mines past the contract's execution timeout if
    /// necessary, then calls ABORT, refunding the remaining escrow to the
    /// consumer. Returns the refunded amount. When ABORT is due is the
    /// contract's rule ([`crate::contract::WorkloadState::abort_height`]).
    pub fn abort_workload(&mut self, workload_id: u64) -> Result<u128, MarketError> {
        self.enter_workload_trace(workload_id);
        let state = self.executing_state(workload_id)?;
        let abort_height = state.abort_height();
        let height = self.chain.height();
        if height <= abort_height {
            self.mine_empty_blocks(abort_height - height + 1);
        }
        let refund = state.funded;
        let runtime = workload(&self.workloads, workload_id)?;
        send(
            &mut self.chain,
            self.current_trace,
            &actor(&self.consumers, &runtime.consumer, "consumer")?.keys,
            call(runtime.contract, Call::Abort),
        )?;
        self.tick();
        pds2_obs::counter!("market.aborts").inc();
        pds2_obs::event!(
            "market",
            "workload.abort",
            pds2_obs::Stamp::Block(self.chain.height()),
            self.current_trace,
            "workload" => workload_id,
            "refund" => refund,
        );
        Ok(refund)
    }
}
