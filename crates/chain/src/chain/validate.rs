//! Validate: the checks a block from another node must pass against the
//! local head before it is executed.

use super::{Blockchain, ChainError};
use crate::block::{Block, BlockHeader};
use crate::sigcache;

impl Blockchain {
    /// Validates a block received from elsewhere against the current
    /// head. The first stage of
    /// [`apply_external_block`](Self::apply_external_block); it changes
    /// nothing, so it also serves wherever only a verdict is wanted.
    pub fn validate_external_block(&self, block: &Block) -> Result<(), ChainError> {
        let height = block.header.height;
        let span = pds2_obs::span(
            "chain",
            "validate_block",
            pds2_obs::Stamp::Block(height),
            self.trace_ctx,
            Vec::new(),
        );
        let check = || {
            if height != self.height() {
                return Err(ChainError::InvalidBlock("wrong height"));
            }
            if block.header.parent != self.head_hash() {
                return Err(ChainError::InvalidBlock("wrong parent"));
            }
            if block.header.base_fee != self.next_base_fee {
                // The base fee is a pure function of the parent chain; a
                // mismatch means the proposer computed (or forged) it wrong.
                return Err(ChainError::InvalidBlock("wrong base fee"));
            }
            if block.header.proposer != self.proposer_for(height).public {
                return Err(ChainError::WrongProposer);
            }
            if !self.header_sig_ok(&block.header) {
                return Err(ChainError::InvalidBlock("bad header signature"));
            }
            if !block.tx_root_matches() {
                return Err(ChainError::InvalidBlock("tx root mismatch"));
            }
            // The block's signatures are one batch: those the cache does
            // not remember cost one multi-exponentiation between them, not
            // one dual exponentiation each. The body hashes were computed
            // (and cached per transaction) by the tx-root check above.
            let hashes: Vec<_> = block.transactions.iter().map(|tx| tx.hash()).collect();
            let batch: Vec<_> = (block.transactions.iter().zip(&hashes))
                .map(|(tx, hash)| (&tx.tx.from, &hash.as_bytes()[..], &tx.signature))
                .collect();
            if !sigcache::verify_batch_cached(&batch) {
                return Err(ChainError::InvalidBlock("bad tx signature"));
            }
            Ok(())
        };
        let res = check();
        match res {
            Ok(()) => pds2_obs::counter!("chain.blocks_validated").inc(),
            Err(_) => pds2_obs::counter!("chain.blocks_rejected").inc(),
        }
        if pds2_obs::enabled() {
            span.finish(
                pds2_obs::Stamp::Block(height),
                vec![
                    ("txs", pds2_obs::Value::from(block.transactions.len())),
                    ("ok", pds2_obs::Value::from(res.is_ok() as u64)),
                ],
            );
        }
        res
    }

    /// Whether `header` carries the signature this chain's mode expects:
    /// the named proposer's own, or — with a threshold committee — the
    /// group's.
    pub(super) fn header_sig_ok(&self, header: &BlockHeader) -> bool {
        match &self.threshold {
            None => header.verify_signature(),
            Some(ctx) => header.verify_signature_with(ctx.group_public()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{mode_chain, signed_transfer, test_chain};
    use super::*;
    use crate::address::Address;
    use crate::threshold::SigMode;
    use pds2_crypto::schnorr::KeyPair;

    #[test]
    fn threshold_validator_rejects_single_key_seal() {
        let alice = KeyPair::from_seed(1);
        let mut threshold = mode_chain(SigMode::Threshold, &alice);
        // A proposer gone rogue seals with its own key instead of
        // gathering a quorum: every honest threshold validator rejects.
        let single = mode_chain(SigMode::Single, &alice);
        let mut shadow = mode_chain(SigMode::Single, &alice);
        let forged = shadow.produce_block();
        drop(single);
        assert_eq!(
            threshold.validate_external_block(&forged),
            Err(ChainError::InvalidBlock("bad header signature"))
        );
        // And the genuine threshold seal is accepted.
        let mut shadow_t = mode_chain(SigMode::Threshold, &alice);
        let good = shadow_t.produce_block();
        threshold.validate_external_block(&good).unwrap();
        threshold.apply_external_block(&good).unwrap();
    }

    #[test]
    fn external_block_validation_rejects_tampering() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        chain.submit(signed_transfer(&alice, 0, bob, 5)).unwrap();

        // Build a *valid* candidate block on a clone of the chain.
        let mut shadow = test_chain(&alice);
        shadow.submit(signed_transfer(&alice, 0, bob, 5)).unwrap();
        let good = shadow.produce_block();
        chain.validate_external_block(&good).unwrap();

        // Tamper with the body.
        let mut bad = good.clone();
        bad.transactions.clear();
        assert_eq!(
            chain.validate_external_block(&bad),
            Err(ChainError::InvalidBlock("tx root mismatch"))
        );

        // Wrong proposer.
        let rogue = KeyPair::from_seed(666);
        let mut forged = good.clone();
        forged.header = BlockHeader::new_signed(
            &rogue,
            forged.header.height,
            forged.header.parent,
            forged.header.state_root,
            forged.header.tx_root,
            forged.header.timestamp,
            forged.header.base_fee,
            forged.header.gas_used,
        );
        assert_eq!(
            chain.validate_external_block(&forged),
            Err(ChainError::WrongProposer)
        );

        // Wrong height.
        let mut wrong_height = good.clone();
        wrong_height.header.height = 7;
        assert!(chain.validate_external_block(&wrong_height).is_err());
    }
}
