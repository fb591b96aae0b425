//! Apply: execute a block's transactions against the state and commit the
//! block — the state transition every node runs, whether it sealed the
//! block itself, received it from a peer or is replaying its own journal.

use super::validate::{run_windows, window_signatures_hold};
use super::{digest_tag, Blockchain, ChainError};
use crate::address::Address;
use crate::block::Block;
use crate::gas;
use crate::state::{BlockEnv, Savepoint, TxReceipt};
use crate::tx::SignedTransaction;
use pds2_obs::TraceCtx;

impl Blockchain {
    /// Executes `txs` in order under `env`, inside a savepoint that the
    /// block's commit releases or its refusal rolls back to. A traced
    /// transaction executes under its own submission-time context, so
    /// contract events it raises join the workload's trace; the rest run
    /// under `default_ctx`.
    pub(super) fn execute_block(
        &mut self,
        txs: &[SignedTransaction],
        env: &BlockEnv,
        default_ctx: TraceCtx,
    ) -> (Savepoint, Vec<TxReceipt>) {
        let savepoint = self.state.savepoint();
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
        (savepoint, receipts)
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

    /// Commits an executed block: releases its savepoint, records its
    /// receipts, appends it to the ledger, journals it and snapshots on
    /// cadence.
    pub(super) fn commit_block(
        &mut self,
        block: &Block,
        savepoint: Savepoint,
        receipts: Vec<TxReceipt>,
    ) {
        self.state.release(savepoint);
        for receipt in receipts {
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
    /// `"gas used mismatch"` or `"state root mismatch"` therefore means
    /// the proposer lied about its post-state. The block is refused after
    /// it executed, and it leaves no trace: the state rolls back to the
    /// savepoint taken before its first transaction, so the chain is the
    /// one it was, root included, and the honest block at that height
    /// still applies. Every caller gets this: a replica, fork choice's
    /// candidate and the recovery tail replay.
    pub fn apply_external_block(&mut self, block: &Block) -> Result<(), ChainError> {
        self.apply_block(block, false)
    }

    /// [`Self::apply_external_block`] behind
    /// [`validate_block`](Self::validate_block), told whether the block's
    /// signatures were already checked.
    fn apply_block(&mut self, block: &Block, signatures_checked: bool) -> Result<(), ChainError> {
        self.validate_block(block, signatures_checked)?;
        let height = block.header.height;
        let env = BlockEnv {
            height,
            base_fee: block.header.base_fee,
            coinbase: Address::of(&block.header.proposer),
        };
        let (savepoint, receipts) = self.execute_block(&block.transactions, &env, self.trace_ctx);
        let gas_used: u64 = receipts.iter().map(|r| r.gas_used).sum();
        let refused = if gas_used != block.header.gas_used {
            Some("gas used mismatch")
        } else if self.state.state_root() != block.header.state_root {
            Some("state root mismatch")
        } else {
            None
        };
        if let Some(why) = refused {
            self.state.rollback(savepoint);
            // The head's header holds the root the block started from.
            let root = |head: &Block| head.header.state_root == self.state.state_root();
            debug_assert!(
                self.blocks.last().is_none_or(root),
                "block {height} left a trace"
            );
            return Err(ChainError::InvalidBlock(why));
        }
        self.next_base_fee =
            gas::next_base_fee(block.header.base_fee, gas_used, self.config.block_gas_limit);
        pds2_obs::gauge!("chain.base_fee").set(self.next_base_fee as f64);
        // Drop any mempool copies of the included transactions.
        for tx in &block.transactions {
            self.mempool.remove_by_hash(&tx.hash());
        }
        self.publish_mempool_gauge();
        self.emit_included(&block.transactions, height);
        self.commit_block(block, savepoint, receipts);
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
    /// `i` was refused with blocks `0..i` applied. A refused block, by
    /// validation or after it executed, leaves the chain where block
    /// `i - 1` put it.
    ///
    /// Every header and transaction signature of the run is checked
    /// before its first block executes, as one batch per window of
    /// consecutive blocks that hold at most half a generation of the
    /// signature cache between them (32 768 signatures), so the run pays
    /// one multi-exponentiation per window instead of one per block (or
    /// two single checks per one-transaction block). The blocks of an
    /// accepted window then run only their head checks and their
    /// transaction root. A refused window remembers nothing, and its
    /// blocks are validated one at a time as [`Self::apply_external_block`]
    /// does: the applied prefix, the refused index and its error are those
    /// of applying the blocks one by one, for at most twice their
    /// signature work. A window of one block, so a run of one, is applied
    /// as a block alone is.
    ///
    /// The name stays because `benchmark/src/adapter.rs` calls it until
    /// ROADMAP 8(b) renames it.
    pub fn apply_external_blocks_pipelined(
        &mut self,
        blocks: &[Block],
    ) -> Result<usize, (usize, ChainError)> {
        self.apply_run(blocks, |_, _| Ok(()))
    }

    /// [`Self::apply_external_blocks_pipelined`] with `after` called on
    /// each block's index once it applied: an error there stops the run at
    /// that block, which stays applied.
    pub(super) fn apply_run(
        &mut self,
        blocks: &[Block],
        mut after: impl FnMut(&Self, usize) -> Result<(), ChainError>,
    ) -> Result<usize, (usize, ChainError)> {
        let mut at = 0;
        for window in run_windows(blocks) {
            let checked = window.len() > 1 && window_signatures_hold(window);
            for block in window {
                self.apply_block(block, checked)
                    .and_then(|()| after(self, at))
                    .map_err(|e| (at, e))?;
                at += 1;
            }
        }
        Ok(at)
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
