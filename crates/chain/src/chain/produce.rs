//! Produce: select from the mempool, execute, seal a header.

use super::Blockchain;
use crate::address::Address;
use crate::block::{Block, BlockHeader};
use crate::gas;
use crate::mempool::SelectionStats;
use crate::state::BlockEnv;

/// Logical seconds between blocks: a header's timestamp is its height
/// times this.
const BLOCK_INTERVAL_SECS: u64 = 12;

impl Blockchain {
    /// Produces, validates and appends the next block from the mempool.
    ///
    /// Returns the new block. Transactions that no longer pass nonce
    /// ordering are retried later (kept in the pool) unless their nonce is
    /// stale, in which case they are dropped.
    pub fn produce_block(&mut self) -> Block {
        let height = self.height();
        let span = pds2_obs::span(
            "chain",
            "produce_block",
            pds2_obs::Stamp::Block(height),
            self.trace_ctx,
            Vec::new(),
        );
        let base_fee = self.next_base_fee;

        // Select transactions from the priority index: highest effective
        // tip first, per-account nonce chains kept contiguous, stale
        // entries pruned on the way. O(accounts + selected · log accounts)
        // instead of the old O(pending²) rescan.
        let mut sel_stats = SelectionStats::default();
        let state = &self.state;
        let selected = self.mempool.select(
            base_fee,
            self.config.block_gas_limit,
            self.config.max_txs_per_block,
            |addr| state.nonce(addr),
            &mut sel_stats,
        );
        if sel_stats.stale_dropped > 0 {
            pds2_obs::counter!("chain.mempool_stale_dropped").add(sel_stats.stale_dropped as u64);
        }

        // Untraced transactions execute under the production span (or the
        // ambient context when no capture opened one).
        let produce_ctx = if span.id() != 0 {
            span.ctx()
        } else {
            self.trace_ctx
        };
        let proposer = self.proposer_for(height).clone();
        let env = BlockEnv {
            height,
            base_fee,
            coinbase: Address::of(&proposer.public),
        };
        let (savepoint, receipts) = self.execute_block(&selected, &env, produce_ctx);
        self.emit_included(&selected, height);

        let gas_used: u64 = receipts.iter().map(|r| r.gas_used).sum();
        let tx_root = Block::compute_tx_root(&selected);
        let state_root = self.state.state_root();
        let header = BlockHeader::new_signed(
            &proposer,
            height,
            self.head_hash(),
            state_root,
            tx_root,
            height * BLOCK_INTERVAL_SECS,
            base_fee,
            gas_used,
        );
        let block = Block {
            header,
            transactions: selected,
        };
        self.next_base_fee = gas::next_base_fee(base_fee, gas_used, self.config.block_gas_limit);

        pds2_obs::counter!("chain.blocks_produced").inc();
        pds2_obs::counter!("chain.txs_included").add(block.transactions.len() as u64);
        pds2_obs::histogram!("chain.gas_per_block").observe(gas_used);
        pds2_obs::gauge!("chain.base_fee").set(self.next_base_fee as f64);
        self.publish_mempool_gauge();
        if pds2_obs::enabled() {
            span.finish(
                pds2_obs::Stamp::Block(height),
                vec![
                    ("txs", pds2_obs::Value::from(block.transactions.len())),
                    ("gas_used", pds2_obs::Value::from(gas_used)),
                ],
            );
        }
        self.commit_block(&block, savepoint, receipts);
        block
    }

    /// Produces blocks until the mempool is drained (bounded by
    /// `max_blocks` as a safety stop). Returns the number produced.
    ///
    /// Stops early when a round makes no progress — the remaining
    /// transactions are waiting on something block production cannot
    /// provide (a nonce-gap fill, or a base fee above their fee cap) and
    /// spinning to `max_blocks` would only mint empty blocks.
    pub fn produce_until_empty(&mut self, max_blocks: usize) -> usize {
        let mut produced = 0;
        while produced < max_blocks {
            let before = self.mempool_len();
            if before == 0 {
                break;
            }
            self.produce_block();
            produced += 1;
            if self.mempool_len() >= before {
                break;
            }
        }
        produced
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{fee_transfer, signed_transfer, test_chain};
    use super::super::ChainConfig;
    use super::*;
    use crate::contract::ContractRegistry;
    use crate::tx::{Transaction, TxKind};
    use pds2_crypto::schnorr::{KeyPair, PublicKey};
    use pds2_crypto::sha256::Digest;

    #[test]
    fn produce_empty_block() {
        let alice = KeyPair::from_seed(1);
        let mut chain = test_chain(&alice);
        let b = chain.produce_block();
        assert_eq!(b.header.height, 0);
        assert_eq!(b.header.parent, Digest::ZERO);
        assert!(b.transactions.is_empty());
        assert_eq!(chain.height(), 1);
    }

    #[test]
    fn submit_and_include() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        let tx = signed_transfer(&alice, 0, bob, 500);
        let hash = chain.submit(tx).unwrap();
        assert_eq!(chain.mempool_len(), 1);
        let b = chain.produce_block();
        assert_eq!(b.transactions.len(), 1);
        assert_eq!(chain.mempool_len(), 0);
        let receipt = chain.receipt(&hash).unwrap();
        assert!(receipt.success);
        assert_eq!(chain.state.balance(&bob), 500);
    }

    #[test]
    fn future_nonce_waits_for_gap_fill() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        // Submit nonce 1 before nonce 0.
        chain.submit(signed_transfer(&alice, 1, bob, 10)).unwrap();
        let b = chain.produce_block();
        assert!(b.transactions.is_empty(), "gap: nothing included");
        assert_eq!(chain.mempool_len(), 1, "future tx retained");
        chain.submit(signed_transfer(&alice, 0, bob, 5)).unwrap();
        let b = chain.produce_block();
        assert_eq!(b.transactions.len(), 2, "both included in order");
        assert_eq!(chain.state.balance(&bob), 15);
    }

    #[test]
    fn round_robin_proposers() {
        let alice = KeyPair::from_seed(1);
        let validators: Vec<KeyPair> = (0..3).map(|i| KeyPair::from_seed(2000 + i)).collect();
        let pubs: Vec<PublicKey> = validators.iter().map(|v| v.public.clone()).collect();
        let mut chain = Blockchain::new(
            validators,
            &[(Address::of(&alice.public), 1000)],
            ContractRegistry::new(),
            ChainConfig::default(),
        );
        for expected in [0usize, 1, 2, 0, 1] {
            let b = chain.produce_block();
            assert_eq!(b.header.proposer, pubs[expected]);
        }
    }

    #[test]
    fn chain_links_parents() {
        let alice = KeyPair::from_seed(1);
        let mut chain = test_chain(&alice);
        let b0 = chain.produce_block();
        let b1 = chain.produce_block();
        assert_eq!(b1.header.parent, b0.header.hash());
        assert_eq!(b1.header.timestamp, 12);
    }

    #[test]
    fn block_gas_limit_defers_transactions() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = Blockchain::new(
            vec![KeyPair::from_seed(1000)],
            &[(Address::of(&alice.public), 1_000_000)],
            ContractRegistry::new(),
            ChainConfig {
                block_gas_limit: 150_000, // fits one 100k-gas tx only
                ..Default::default()
            },
        );
        chain.submit(signed_transfer(&alice, 0, bob, 1)).unwrap();
        chain.submit(signed_transfer(&alice, 1, bob, 1)).unwrap();
        let b = chain.produce_block();
        assert_eq!(b.transactions.len(), 1);
        assert_eq!(chain.mempool_len(), 1);
        let b = chain.produce_block();
        assert_eq!(b.transactions.len(), 1);
    }

    #[test]
    fn produce_until_empty_drains_pool() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        for nonce in 0..5 {
            chain
                .submit(signed_transfer(&alice, nonce, bob, 1))
                .unwrap();
        }
        let produced = chain.produce_until_empty(100);
        assert!(produced >= 1);
        assert_eq!(chain.mempool_len(), 0);
        assert_eq!(chain.state.balance(&bob), 5);
    }

    #[test]
    fn produce_until_empty_breaks_on_stuck_pool() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        // Nonce 1 with no nonce 0: can never be included.
        chain.submit(signed_transfer(&alice, 1, bob, 1)).unwrap();
        let produced = chain.produce_until_empty(100);
        assert_eq!(produced, 1, "one no-progress round, then stop");
        assert_eq!(chain.mempool_len(), 1, "gapped tx stays pending");
    }

    #[test]
    fn blocks_order_by_effective_tip() {
        let keys: Vec<KeyPair> = (1..=3).map(KeyPair::from_seed).collect();
        let bob = Address::of(&KeyPair::from_seed(99).public);
        let alloc: Vec<(Address, u128)> = keys
            .iter()
            .map(|k| (Address::of(&k.public), 1_000_000_000))
            .collect();
        let mut chain = Blockchain::new(
            vec![KeyPair::from_seed(1000)],
            &alloc,
            ContractRegistry::new(),
            ChainConfig::default(),
        );
        chain
            .submit(fee_transfer(&keys[0], 0, bob, 1, 10, 2))
            .unwrap();
        chain
            .submit(fee_transfer(&keys[1], 0, bob, 1, 10, 9))
            .unwrap();
        chain
            .submit(fee_transfer(&keys[2], 0, bob, 1, 10, 5))
            .unwrap();
        let b = chain.produce_block();
        let tips: Vec<u64> = b
            .transactions
            .iter()
            .map(|t| t.tx.priority_fee_per_gas)
            .collect();
        assert_eq!(tips, [9, 5, 2], "highest tip first at base fee 0");
    }

    #[test]
    fn base_fee_rises_under_load_and_decays_when_idle() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = Blockchain::new(
            vec![KeyPair::from_seed(1000)],
            &[(Address::of(&alice.public), u128::MAX / 2)],
            ContractRegistry::new(),
            ChainConfig {
                // Target is 20k gas; one ~23k-gas transfer per block keeps
                // every block above target, driving the fee up.
                block_gas_limit: 40_000,
                initial_base_fee: 1_000,
                ..Default::default()
            },
        );
        for nonce in 0..3 {
            let tx = Transaction {
                from: alice.public.clone(),
                nonce,
                kind: TxKind::Transfer { to: bob, amount: 1 },
                gas_limit: 30_000,
                max_fee_per_gas: 1_000_000,
                priority_fee_per_gas: 1,
            }
            .sign(&alice);
            chain.submit(tx).unwrap();
        }
        assert_eq!(chain.base_fee(), 1_000);
        let mut fees = Vec::new();
        for _ in 0..3 {
            let b = chain.produce_block();
            assert_eq!(b.transactions.len(), 1);
            fees.push(chain.base_fee());
        }
        assert!(
            fees.windows(2).all(|w| w[1] > w[0]),
            "congested blocks push the fee up: {fees:?}"
        );
        let congested = chain.base_fee();
        chain.produce_block(); // empty
        assert!(chain.base_fee() < congested, "idle block decays the fee");
        // Burned supply is positive and conservation holds with it.
        assert!(chain.state.burned() > 0);
    }

    #[test]
    fn fee_market_conserves_supply_plus_burn() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = Blockchain::new(
            vec![KeyPair::from_seed(1000)],
            &[(Address::of(&alice.public), 1_000_000_000_000)],
            ContractRegistry::new(),
            ChainConfig {
                initial_base_fee: 5,
                ..Default::default()
            },
        );
        for nonce in 0..10 {
            chain
                .submit(fee_transfer(&alice, nonce, bob, 100, 50, 3))
                .unwrap();
        }
        chain.produce_until_empty(10);
        assert!(chain.state.burned() > 0, "base fee burned something");
        assert_eq!(
            chain.state.total_native_supply() + chain.state.burned(),
            1_000_000_000_000,
            "supply + burned is invariant"
        );
        // The proposer collected tips.
        let coinbase = Address::of(&KeyPair::from_seed(1000).public);
        assert!(chain.state.balance(&coinbase) > 0);
    }

    #[test]
    fn native_supply_is_conserved() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        for nonce in 0..10 {
            chain
                .submit(signed_transfer(&alice, nonce, bob, 100))
                .unwrap();
        }
        chain.produce_until_empty(10);
        assert_eq!(chain.state.total_native_supply(), 1_000_000);
    }
}
