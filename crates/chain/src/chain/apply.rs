//! Apply: execute a block's transactions against the state and commit the
//! block — the state transition every node runs, whether it sealed the
//! block itself, received it from a peer or is replaying its own journal.

use super::{digest_tag, Blockchain, ChainError};
use crate::address::Address;
use crate::block::Block;
use crate::gas;
use crate::state::{BlockEnv, TxReceipt};
use crate::tx::SignedTransaction;
use pds2_obs::TraceCtx;

impl Blockchain {
    /// Executes `txs` in order under `env`. A traced transaction executes
    /// under its own submission-time context, so contract events it
    /// raises join the workload's trace; the rest run under `default_ctx`.
    pub(super) fn execute_block(
        &mut self,
        txs: &[SignedTransaction],
        env: &BlockEnv,
        default_ctx: TraceCtx,
    ) -> Vec<TxReceipt> {
        let mut receipts = Vec::with_capacity(txs.len());
        for (i, tx) in txs.iter().enumerate() {
            let trace = self
                .tx_traces
                .get(&tx.hash())
                .map_or(default_ctx, |(ctx, _)| *ctx);
            receipts.push(self.state.apply_transaction_env(
                &self.registry,
                tx,
                env,
                i as u32,
                trace,
            ));
        }
        receipts
    }

    /// Closes out the pending trace record of every traced transaction
    /// in `txs` with a `tx.included` event (the submit-to-inclusion hop).
    pub(super) fn emit_included(&mut self, txs: &[SignedTransaction], height: u64) {
        for tx in txs {
            let hash = tx.hash();
            if let Some((ctx, submitted_at)) = self.tx_traces.remove(&hash) {
                pds2_obs::event!(
                    "chain",
                    "tx.included",
                    pds2_obs::Stamp::Block(height),
                    ctx,
                    "tx" => digest_tag(&hash),
                    "blocks_waited" => height.saturating_sub(submitted_at),
                );
            }
        }
    }

    /// Commits an executed block: records its receipts and events,
    /// appends it to the ledger, journals it and snapshots on cadence.
    pub(super) fn commit_block(&mut self, block: &Block, receipts: Vec<TxReceipt>) {
        for receipt in receipts {
            self.events.extend(receipt.events.iter().cloned());
            self.seen.insert(receipt.tx_hash);
            self.receipts.insert(receipt.tx_hash, receipt);
        }
        self.blocks.push(block.clone());
        if let Some(store) = &self.store {
            self.journal_block(&mut store.lock(), block);
        }
        self.maybe_snapshot();
    }

    /// Applies a block produced by another node: validates it against the
    /// local head, executes its transactions and appends it.
    ///
    /// Execution is deterministic, so after a valid block the local state
    /// root must equal the header's. A [`ChainError::InvalidBlock`]
    /// `"state root mismatch"` therefore means the proposer lied about its
    /// post-state; like a real validator, the caller must halt this
    /// replica (the local state has already executed the block's
    /// transactions and is no longer canonical).
    pub fn apply_external_block(&mut self, block: &Block) -> Result<(), ChainError> {
        self.validate_external_block(block)?;
        let height = block.header.height;
        let env = BlockEnv {
            height,
            base_fee: block.header.base_fee,
            coinbase: Address::of(&block.header.proposer),
        };
        let receipts = self.execute_block(&block.transactions, &env, self.trace_ctx);
        let gas_used: u64 = receipts.iter().map(|r| r.gas_used).sum();
        if gas_used != block.header.gas_used {
            return Err(ChainError::InvalidBlock("gas used mismatch"));
        }
        if self.state.state_root() != block.header.state_root {
            return Err(ChainError::InvalidBlock("state root mismatch"));
        }
        self.next_base_fee =
            gas::next_base_fee(block.header.base_fee, gas_used, self.config.block_gas_limit);
        pds2_obs::gauge!("chain.base_fee").set(self.next_base_fee as f64);
        // Drop any mempool copies of the included transactions.
        let pool_len = {
            let mut pool = self.mempool.lock();
            for tx in &block.transactions {
                pool.remove_by_hash(&tx.hash());
            }
            pool.len()
        };
        Self::publish_mempool_gauge(pool_len);
        self.emit_included(&block.transactions, height);
        self.commit_block(block, receipts);
        pds2_obs::counter!("chain.blocks_applied").inc();
        pds2_obs::event!(
            "chain",
            "apply_block",
            pds2_obs::Stamp::Block(height),
            self.trace_ctx,
            "txs" => block.transactions.len(),
        );
        Ok(())
    }

    /// Applies a run of external blocks in order, stopping at the first
    /// one refused: `Ok(n)` when all `n` applied, `Err((i, e))` when block
    /// `i` was refused with blocks `0..i` applied. A block refused by
    /// validation leaves the chain where block `i - 1` put it.
    ///
    /// Nothing is pipelined: the helper thread the name recalls lost to
    /// this loop at two workers and is gone (ROADMAP item 3). The name
    /// stays because `benchmark/src/adapter.rs` calls it.
    pub fn apply_external_blocks_pipelined(
        &mut self,
        blocks: &[Block],
    ) -> Result<usize, (usize, ChainError)> {
        for (i, b) in blocks.iter().enumerate() {
            self.apply_external_block(b).map_err(|e| (i, e))?;
        }
        Ok(blocks.len())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{signed_transfer, test_chain};
    use super::*;
    use pds2_crypto::schnorr::KeyPair;

    #[test]
    fn a_run_stops_at_the_first_refused_block_and_keeps_what_it_applied() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut producer = test_chain(&alice);
        let mut blocks = Vec::new();
        for nonce in 0..4u64 {
            producer
                .submit(signed_transfer(&alice, nonce, bob, 10))
                .unwrap();
            blocks.push(producer.produce_block());
        }
        // Validation refuses a wrong height before anything executes (a
        // wrong `state_root` is only seen after execution).
        blocks[2].header.height += 1;

        let mut after_two = test_chain(&alice);
        for b in &blocks[..2] {
            after_two.apply_external_block(b).unwrap();
        }
        let mut replica = test_chain(&alice);
        assert_eq!(
            replica.apply_external_blocks_pipelined(&blocks),
            Err((2, ChainError::InvalidBlock("wrong height")))
        );
        assert_eq!(replica.height(), 2);
        assert_eq!(replica.head_hash(), after_two.head_hash());
        assert_eq!(replica.state.state_root(), after_two.state.state_root());
        assert_eq!(replica.base_fee(), after_two.base_fee());
    }
}
