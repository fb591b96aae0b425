//! Prove: authenticated reads for light clients holding only validated
//! block headers. A transaction's inclusion is proved here against the
//! header's `tx_root`; any state leaf is proved against its `state_root`
//! by [`crate::state::WorldState::prove_leaf`] and checked with
//! [`crate::smt::verify_proof`].

use super::Blockchain;
use crate::block::{Block, BlockHeader};
use pds2_crypto::sha256::Digest;

/// A light-client proof that a transaction was included in a block.
#[derive(Clone, Debug)]
pub struct InclusionProof {
    /// Height of the including block.
    pub block_height: u64,
    /// The proven transaction hash.
    pub tx_hash: Digest,
    /// Merkle path to the header's `tx_root`.
    pub proof: pds2_crypto::merkle::MerkleProof,
}

impl InclusionProof {
    /// Verifies the proof against a trusted block header.
    pub fn verify(&self, header: &BlockHeader) -> bool {
        header.height == self.block_height
            && self.proof.verify(self.tx_hash.as_bytes(), &header.tx_root)
    }
}

impl Blockchain {
    /// Produces a light-client inclusion proof for a transaction: the
    /// block height plus a Merkle path from the transaction hash to the
    /// block header's `tx_root`. Providers use this to prove to third
    /// parties (e.g. in a §IV-A reward dispute) that their participation
    /// was recorded, holding only block headers.
    pub fn prove_inclusion(&self, tx_hash: &Digest) -> Option<InclusionProof> {
        for block in &self.blocks {
            if let Some(index) = block.transactions.iter().position(|t| &t.hash() == tx_hash) {
                return Some(InclusionProof {
                    block_height: block.header.height,
                    tx_hash: *tx_hash,
                    proof: Block::tx_tree(&block.transactions).prove(index)?,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{signed_transfer, test_chain};
    use crate::address::Address;
    use pds2_crypto::schnorr::KeyPair;

    #[test]
    fn inclusion_proofs_verify_against_headers() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        let mut hashes = Vec::new();
        for nonce in 0..5 {
            hashes.push(
                chain
                    .submit(signed_transfer(&alice, nonce, bob, 1))
                    .unwrap(),
            );
        }
        chain.produce_block();
        let header = &chain.block(0).unwrap().header.clone();
        for h in &hashes {
            let proof = chain.prove_inclusion(h).expect("included");
            assert!(proof.verify(header), "proof for {h}");
            assert_eq!(proof.block_height, 0);
        }
        // Unknown tx: no proof.
        assert!(chain
            .prove_inclusion(&pds2_crypto::sha256(b"ghost"))
            .is_none());
        // A proof does not verify against the wrong header.
        chain.submit(signed_transfer(&alice, 5, bob, 1)).unwrap();
        chain.produce_block();
        let other_header = &chain.block(1).unwrap().header;
        let proof = chain.prove_inclusion(&hashes[0]).unwrap();
        assert!(!proof.verify(other_header));
    }

    #[test]
    fn inclusion_proof_rejects_forged_tx_hash() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = test_chain(&alice);
        let h = chain.submit(signed_transfer(&alice, 0, bob, 1)).unwrap();
        chain.produce_block();
        let header = chain.block(0).unwrap().header.clone();
        let mut proof = chain.prove_inclusion(&h).unwrap();
        proof.tx_hash = pds2_crypto::sha256(b"forged");
        assert!(!proof.verify(&header));
    }
}
