//! Admit: the one way a transaction enters the mempool.

use super::{digest_tag, Blockchain, ChainError};
use crate::mempool::InsertOutcome;
use crate::tx::SignedTransaction;
use pds2_crypto::codec::Encode;
use pds2_crypto::sha256::Digest;

impl Blockchain {
    /// Submits a transaction to the mempool after stateless+stateful
    /// admission checks.
    ///
    /// With a live capture and no ambient causal context, submission
    /// *mints* a new trace (`chain/tx.submit` root) — a bare tx entering
    /// the system is a workload in its own right; a non-empty ambient
    /// context (the marketplace's workload trace, a replica's delivery
    /// span) joins that trace instead. Inclusion later emits
    /// `chain/tx.included` on the same trace with the blocks-waited count.
    pub fn submit(&mut self, tx: SignedTransaction) -> Result<Digest, ChainError> {
        pds2_obs::counter!("chain.txs_submitted").inc();
        // Cheap reject before expensive reject: `seen` only ever holds
        // hashes of transactions that already passed verification, so a
        // known body is refused for one set lookup instead of a Schnorr
        // check (recovery resubmits every journaled tx since genesis).
        let hash = tx.hash();
        if self.seen.contains(&hash) {
            pds2_obs::counter!("chain.txs_rejected").inc();
            return Err(ChainError::Duplicate);
        }
        if !tx.verify_signature() {
            pds2_obs::counter!("chain.txs_rejected").inc();
            return Err(ChainError::InvalidSignature);
        }
        let account_nonce = self.state.nonce(&tx.sender());
        if tx.tx.nonce < account_nonce {
            pds2_obs::counter!("chain.txs_rejected").inc();
            return Err(ChainError::StaleNonce {
                expected: account_nonce,
                got: tx.tx.nonce,
            });
        }
        // Admission into the fee-market pool; this can evict cheaper
        // pending transactions (pool at capacity) or replace a same-nonce
        // one (replace-by-fee).
        let tx_nonce = tx.tx.nonce;
        let tx_bytes = self.store.as_ref().map(|_| tx.to_bytes());
        let mut evicted = Vec::new();
        let gas_limit = self.config.block_gas_limit;
        let inserted = self
            .mempool
            .insert(tx, account_nonce, gas_limit, &mut evicted);
        let outcome = match inserted {
            Ok(o) => o,
            Err(e) => {
                pds2_obs::counter!("chain.txs_rejected").inc();
                pds2_obs::counter!("chain.mempool.rejected").inc();
                return Err(ChainError::Submit(e));
            }
        };
        if let InsertOutcome::Replaced(old) = outcome {
            pds2_obs::counter!("chain.mempool.rbf_replaced").inc();
            self.seen.remove(&old);
            self.tx_traces.remove(&old);
        }
        if !evicted.is_empty() {
            pds2_obs::counter!("chain.mempool.evicted").add(evicted.len() as u64);
            for h in &evicted {
                // Evicted transactions were never included: forget them so
                // the sender can resubmit (e.g. with a higher fee).
                self.seen.remove(h);
                self.tx_traces.remove(h);
            }
        }
        if pds2_obs::enabled() {
            let height = self.height();
            let fields = vec![
                ("tx", pds2_obs::Value::from(digest_tag(&hash))),
                ("nonce", pds2_obs::Value::from(tx_nonce)),
            ];
            let tx_ctx = if self.trace_ctx.is_none() {
                let root = pds2_obs::new_trace(
                    "chain",
                    "tx.submit",
                    pds2_obs::Stamp::Block(height),
                    fields,
                );
                let minted = root.ctx();
                root.finish(pds2_obs::Stamp::Block(height), Vec::new());
                minted
            } else {
                pds2_obs::emit(
                    "chain",
                    "tx.submit",
                    pds2_obs::Stamp::Block(height),
                    self.trace_ctx,
                    fields,
                );
                self.trace_ctx
            };
            if !tx_ctx.is_none() {
                self.tx_traces.insert(hash, (tx_ctx, height));
            }
        }
        self.seen.insert(hash);
        // Journal the admitted transaction so a crashed node can
        // reinstate its pending pool on recovery.
        if let Some(bytes) = tx_bytes {
            self.journal_tx(&bytes);
        }
        self.publish_mempool_gauge();
        Ok(hash)
    }

    /// Feeds transactions from orphaned blocks, a pre-fork mempool or a
    /// recovered journal back through submission. Transactions the chain
    /// already includes, whose nonces it already consumed, or that fail
    /// any other admission check are silently skipped — they are either
    /// redundant or unusable on this fork. Returns how many re-entered
    /// the pool.
    pub fn reinstate_transactions(
        &mut self,
        txs: impl IntoIterator<Item = SignedTransaction>,
    ) -> usize {
        let mut reinstated = 0;
        for tx in txs {
            if self.submit(tx).is_ok() {
                reinstated += 1;
            }
        }
        if reinstated > 0 {
            pds2_obs::counter!("chain.txs_reinstated").add(reinstated as u64);
        }
        reinstated
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{fee_transfer, signed_transfer, test_chain};
    use super::super::ChainConfig;
    use super::*;
    use crate::address::Address;
    use crate::contract::ContractRegistry;
    use crate::tx::{Transaction, TxKind};
    use pds2_crypto::schnorr::KeyPair;

    #[test]
    fn duplicate_submission_rejected() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        let tx = signed_transfer(&alice, 0, bob, 1);
        chain.submit(tx.clone()).unwrap();
        assert_eq!(chain.submit(tx), Err(ChainError::Duplicate));
    }

    #[test]
    fn duplicate_with_corrupted_signature_still_rejected() {
        // The duplicate check runs before the signature check, so a known
        // body never reaches the verifier; it must be refused all the same.
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        let tx = signed_transfer(&alice, 0, bob, 1);
        chain.submit(tx.clone()).unwrap();
        let s = tx.signature.s().add(&pds2_crypto::BigUint::one());
        let forged = pds2_crypto::Signature::new(tx.signature.r().clone(), s).expect("in range");
        let forged = SignedTransaction::new(tx.tx.clone(), forged);
        assert!(!forged.verify_signature());
        assert_eq!(chain.submit(forged.clone()), Err(ChainError::Duplicate));
        assert_eq!(chain.mempool_len(), 1);
        // Still refused once the original is included.
        chain.produce_block();
        assert_eq!(chain.submit(forged), Err(ChainError::Duplicate));
        assert_eq!(chain.mempool_len(), 0);
    }

    #[test]
    fn invalid_signature_rejected_at_submission() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        let mut tx = signed_transfer(&alice, 0, bob, 1);
        tx.tx.nonce = 1; // tamper
        assert_eq!(chain.submit(tx), Err(ChainError::InvalidSignature));
    }

    #[test]
    fn stale_nonce_rejected_at_submission() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        chain.submit(signed_transfer(&alice, 0, bob, 1)).unwrap();
        chain.produce_block();
        let stale = signed_transfer(&alice, 0, bob, 2);
        assert!(matches!(
            chain.submit(stale),
            Err(ChainError::StaleNonce {
                expected: 1,
                got: 0
            })
        ));
    }

    #[test]
    fn unfittable_gas_limit_rejected_at_submit() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        let tx = Transaction {
            from: alice.public.clone(),
            nonce: 0,
            kind: TxKind::Transfer { to: bob, amount: 1 },
            gas_limit: 30_000_001, // above the 30M block gas limit
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(&alice);
        let err = chain.submit(tx.clone()).unwrap_err();
        assert!(matches!(
            err,
            ChainError::Submit(crate::mempool::SubmitError::GasLimitTooHigh { .. })
        ));
        assert_eq!(chain.mempool_len(), 0);
        // The rejected hash is not burned into `seen`: a corrected
        // resubmission is not a Duplicate.
        let ok = signed_transfer(&alice, 0, bob, 1);
        chain.submit(ok).unwrap();
        // And the old unfittable tx still fails for its own reason.
        assert!(matches!(chain.submit(tx), Err(ChainError::Submit(_))));
    }

    #[test]
    fn mempool_eviction_frees_room_for_better_fees() {
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
            ChainConfig {
                mempool_capacity: 2,
                ..Default::default()
            },
        );
        let cheap = fee_transfer(&keys[0], 0, bob, 1, 1, 0);
        let cheap_hash = cheap.hash();
        chain.submit(cheap).unwrap();
        chain
            .submit(fee_transfer(&keys[1], 0, bob, 1, 50, 1))
            .unwrap();
        // Pool full; a better-paying arrival displaces the cheapest.
        chain
            .submit(fee_transfer(&keys[2], 0, bob, 1, 80, 2))
            .unwrap();
        assert_eq!(chain.mempool_len(), 2);
        // The evicted tx can be resubmitted (repriced) — not a Duplicate.
        let repriced = fee_transfer(&keys[0], 0, bob, 1, 90, 3);
        assert_ne!(repriced.hash(), cheap_hash);
        chain.submit(repriced).unwrap();
    }

    #[test]
    fn reinstate_skips_included_and_readmits_the_rest() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        let t0 = signed_transfer(&alice, 0, bob, 1);
        let t1 = signed_transfer(&alice, 1, bob, 1);
        chain.submit(t0.clone()).unwrap();
        chain.produce_block(); // includes t0
        let reinstated = chain.reinstate_transactions(vec![t0, t1]);
        assert_eq!(reinstated, 1, "t0 already included, t1 re-enters");
        assert_eq!(chain.mempool_len(), 1);
    }
}
