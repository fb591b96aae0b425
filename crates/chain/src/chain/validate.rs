//! Validate: the checks a block from another node must pass against the
//! local head before it is executed.

use super::{Blockchain, ChainError};
use crate::block::Block;
use crate::sigcache;
use pds2_crypto::schnorr::BatchItem;
use pds2_crypto::sha256::Digest;

/// Signatures that one window of a run checks as one batch: half a
/// generation of the signature cache, so every triple an accepted window
/// remembers is still there when its transaction's execution re-checks it.
const RUN_WINDOW: usize = sigcache::CAPACITY / 2;

/// Splits a run into windows of consecutive blocks that hold at most
/// [`RUN_WINDOW`] signatures each, a header's and its transactions'. A
/// block that holds more is a window alone.
pub(super) fn run_windows(blocks: &[Block]) -> impl Iterator<Item = &[Block]> {
    let mut rest = blocks;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let mut members = 0;
        let fit = rest
            .iter()
            .take_while(|b| {
                members += 1 + b.transactions.len();
                members <= RUN_WINDOW
            })
            .count();
        let (window, tail) = rest.split_at(fit.max(1));
        rest = tail;
        Some(window)
    })
}

/// Whether every header and transaction signature in `window` holds, by
/// one [`sigcache::verify_batch_cached`] call: an accepted window is
/// remembered, a refused one is not.
pub(super) fn window_signatures_hold(window: &[Block]) -> bool {
    let headers: Vec<Vec<u8>> = window.iter().map(|b| b.header.signed_bytes()).collect();
    let txs = window.iter().flat_map(|b| &b.transactions);
    let hashes: Vec<Digest> = txs.clone().map(|tx| tx.hash()).collect();
    let mut batch: Vec<BatchItem<'_>> = (window.iter().zip(&headers))
        .map(|(b, bytes)| (&b.header.proposer, &bytes[..], &b.header.signature))
        .collect();
    batch.extend(
        txs.zip(&hashes)
            .map(|(tx, hash)| (&tx.tx.from, &hash.as_bytes()[..], &tx.signature)),
    );
    sigcache::verify_batch_cached(&batch)
}

impl Blockchain {
    /// Validates a block received from elsewhere against the current
    /// head. The first stage of
    /// [`apply_external_block`](Self::apply_external_block); it changes
    /// nothing, so it also serves wherever only a verdict is wanted.
    pub fn validate_external_block(&self, block: &Block) -> Result<(), ChainError> {
        self.validate_block(block, false)
    }

    /// [`Self::validate_external_block`], told whether the block's header
    /// and transaction signatures were already checked, in an accepted
    /// batch of the run it came in. Those it does not look up again: only
    /// the head checks and the transaction root are left.
    pub(super) fn validate_block(
        &self,
        block: &Block,
        signatures_checked: bool,
    ) -> Result<(), ChainError> {
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
            if !signatures_checked && !block.header.verify_signature() {
                return Err(ChainError::InvalidBlock("bad header signature"));
            }
            if !block.tx_root_matches() {
                return Err(ChainError::InvalidBlock("tx root mismatch"));
            }
            if signatures_checked {
                return Ok(());
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
}

#[cfg(test)]
mod tests {
    use super::super::tests::{signed_transfer, test_chain};
    use super::*;
    use crate::address::Address;
    use crate::block::BlockHeader;
    use pds2_crypto::schnorr::{KeyPair, Signature};
    use pds2_crypto::BigUint;

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

        // The scheduled proposer named, another key's signature.
        forged.header.proposer = good.header.proposer.clone();
        assert_eq!(
            chain.validate_external_block(&forged),
            Err(ChainError::InvalidBlock("bad header signature"))
        );

        // The good header with its signature's `s` moved by one.
        let sig = &good.header.signature;
        let mut bent = good.clone();
        bent.header.signature =
            Signature::new(sig.r().clone(), sig.s().add(&BigUint::one())).expect("in range");
        assert_eq!(
            chain.validate_external_block(&bent),
            Err(ChainError::InvalidBlock("bad header signature"))
        );

        // Wrong height.
        let mut wrong_height = good.clone();
        wrong_height.header.height = 7;
        assert!(chain.validate_external_block(&wrong_height).is_err());
    }
}
