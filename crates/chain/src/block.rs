//! Blocks and headers.

use crate::tx::SignedTransaction;
use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use pds2_crypto::merkle::{self, MerkleTree};
use pds2_crypto::schnorr::{KeyPair, PublicKey, Signature};
use pds2_crypto::sha256::Digest;

/// A block header, signed by the proposing validator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockHeader {
    /// Height (genesis = 0).
    pub height: u64,
    /// Hash of the parent header (`Digest::ZERO` for genesis).
    pub parent: Digest,
    /// State root *after* applying this block.
    pub state_root: Digest,
    /// Merkle root over the included transactions.
    pub tx_root: Digest,
    /// Logical timestamp (height × block interval).
    pub timestamp: u64,
    /// Base fee per gas for this block (EIP-1559 style; every included
    /// transaction burns this much per unit of gas). Consensus-critical:
    /// validators recompute it from the parent and reject mismatches.
    pub base_fee: u64,
    /// Total gas consumed by this block's transactions (drives the next
    /// block's base fee).
    pub gas_used: u64,
    /// Proposing validator.
    pub proposer: PublicKey,
    /// Proposer's signature over the header body.
    pub signature: Signature,
}

impl BlockHeader {
    #[allow(clippy::too_many_arguments)]
    fn signing_bytes(
        height: u64,
        parent: &Digest,
        state_root: &Digest,
        tx_root: &Digest,
        timestamp: u64,
        base_fee: u64,
        gas_used: u64,
        proposer: &PublicKey,
    ) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_raw(b"pds2-block-v2");
        enc.put_u64(height);
        enc.put_digest(parent);
        enc.put_digest(state_root);
        enc.put_digest(tx_root);
        enc.put_u64(timestamp);
        enc.put_u64(base_fee);
        enc.put_u64(gas_used);
        proposer.encode(&mut enc);
        enc.finish()
    }

    /// Builds a header naming `proposer` and seals it with whatever
    /// `sign` returns for the header's signing bytes: the proposer's own
    /// signature, or the committee's threshold signature — the header
    /// body is the same either way.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sealed(
        proposer: PublicKey,
        height: u64,
        parent: Digest,
        state_root: Digest,
        tx_root: Digest,
        timestamp: u64,
        base_fee: u64,
        gas_used: u64,
        sign: impl FnOnce(&[u8]) -> Signature,
    ) -> BlockHeader {
        let signature = sign(&Self::signing_bytes(
            height,
            &parent,
            &state_root,
            &tx_root,
            timestamp,
            base_fee,
            gas_used,
            &proposer,
        ));
        BlockHeader {
            height,
            parent,
            state_root,
            tx_root,
            timestamp,
            base_fee,
            gas_used,
            proposer,
            signature,
        }
    }

    /// Builds a header and signs it with the proposer's own key.
    #[allow(clippy::too_many_arguments)]
    pub fn new_signed(
        keys: &KeyPair,
        height: u64,
        parent: Digest,
        state_root: Digest,
        tx_root: Digest,
        timestamp: u64,
        base_fee: u64,
        gas_used: u64,
    ) -> BlockHeader {
        Self::sealed(
            keys.public.clone(),
            height,
            parent,
            state_root,
            tx_root,
            timestamp,
            base_fee,
            gas_used,
            |payload| keys.sign(payload),
        )
    }

    /// Verifies the signature against the embedded proposer's key.
    pub fn verify_signature(&self) -> bool {
        self.verify_signature_with(&self.proposer)
    }

    /// Verifies the header signature against an explicit key instead of
    /// the embedded proposer — threshold mode checks the committee's
    /// group key while the header keeps naming its round-robin proposer
    /// (which still drives the coinbase and `WrongProposer` checks).
    ///
    /// Routed through [`crate::sigcache`]: during sync replay and fork
    /// choice the same headers are re-validated repeatedly, and an
    /// already-accepted header costs one hash instead of an
    /// exponentiation.
    pub fn verify_signature_with(&self, key: &PublicKey) -> bool {
        let payload = Self::signing_bytes(
            self.height,
            &self.parent,
            &self.state_root,
            &self.tx_root,
            self.timestamp,
            self.base_fee,
            self.gas_used,
            &self.proposer,
        );
        crate::sigcache::verify_cached(&payload, key, &self.signature)
    }

    /// The header hash (block identifier).
    pub fn hash(&self) -> Digest {
        self.content_hash()
    }
}

impl Encode for BlockHeader {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.height);
        enc.put_digest(&self.parent);
        enc.put_digest(&self.state_root);
        enc.put_digest(&self.tx_root);
        enc.put_u64(self.timestamp);
        enc.put_u64(self.base_fee);
        enc.put_u64(self.gas_used);
        self.proposer.encode(enc);
        self.signature.encode(enc);
    }
}

impl Decode for BlockHeader {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(BlockHeader {
            height: dec.get_u64()?,
            parent: dec.get_digest()?,
            state_root: dec.get_digest()?,
            tx_root: dec.get_digest()?,
            timestamp: dec.get_u64()?,
            base_fee: dec.get_u64()?,
            gas_used: dec.get_u64()?,
            proposer: PublicKey::decode(dec)?,
            signature: Signature::decode(dec)?,
        })
    }
}

/// A full block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Signed header.
    pub header: BlockHeader,
    /// Included transactions, in execution order.
    pub transactions: Vec<SignedTransaction>,
}

impl Block {
    /// The Merkle tree over a transaction list: header roots and
    /// inclusion proofs both come from it.
    ///
    /// Leaves are the domain-separated hashes of the (cached) transaction
    /// digests, computed in parallel in index order — the same tree
    /// `MerkleTree::from_leaves` would build over the digest bytes.
    pub(crate) fn tx_tree(txs: &[SignedTransaction]) -> MerkleTree {
        let leaf_hashes =
            pds2_par::par_map_indexed(txs, |_, t| merkle::leaf_hash(t.hash().as_bytes()));
        MerkleTree::from_leaf_hashes(leaf_hashes)
    }

    /// Computes the Merkle root over a transaction list.
    pub fn compute_tx_root(txs: &[SignedTransaction]) -> Digest {
        Self::tx_tree(txs).root()
    }

    /// Checks that the header's tx root matches the body.
    pub fn tx_root_matches(&self) -> bool {
        Self::compute_tx_root(&self.transactions) == self.header.tx_root
    }
}

/// Canonical digest over a block's receipts (outcome, gas and price per
/// transaction). Stored in each persisted block frame so crash recovery
/// can verify that replaying the log reproduced the pre-crash execution
/// outcomes, not just the state root.
pub fn receipts_digest<'a>(
    receipts: impl IntoIterator<Item = &'a crate::state::TxReceipt>,
) -> Digest {
    let mut enc = Encoder::new();
    for r in receipts {
        enc.put_digest(&r.tx_hash);
        enc.put_u8(r.success as u8);
        enc.put_u64(r.gas_used);
        enc.put_u64(r.effective_gas_price);
    }
    pds2_crypto::sha256(&enc.finish())
}

impl Encode for Block {
    fn encode(&self, enc: &mut Encoder) {
        self.header.encode(enc);
        enc.put_seq(&self.transactions);
    }
}

impl Decode for Block {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Block {
            header: BlockHeader::decode(dec)?,
            transactions: dec.get_seq()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::tx::{Transaction, TxKind};

    fn sample_block(n_txs: usize) -> Block {
        let validator = KeyPair::from_seed(10);
        let sender = KeyPair::from_seed(1);
        let txs: Vec<SignedTransaction> = (0..n_txs as u64)
            .map(|nonce| {
                Transaction {
                    from: sender.public.clone(),
                    nonce,
                    kind: TxKind::Transfer {
                        to: Address::of(&KeyPair::from_seed(2).public),
                        amount: 1,
                    },
                    gas_limit: 30_000,
                    max_fee_per_gas: 0,
                    priority_fee_per_gas: 0,
                }
                .sign(&sender)
            })
            .collect();
        let tx_root = Block::compute_tx_root(&txs);
        let header = BlockHeader::new_signed(
            &validator,
            1,
            Digest::ZERO,
            pds2_crypto::sha256(b"state"),
            tx_root,
            10,
            3,
            21_000,
        );
        Block {
            header,
            transactions: txs,
        }
    }

    #[test]
    fn header_signature_verifies() {
        let b = sample_block(3);
        assert!(b.header.verify_signature());
        assert!(b.tx_root_matches());
    }

    #[test]
    fn tampered_header_fails() {
        let mut b = sample_block(1);
        b.header.height = 99;
        assert!(!b.header.verify_signature());
    }

    #[test]
    fn tampered_fee_fields_fail() {
        // base_fee and gas_used are consensus fields: both are covered by
        // the proposer signature.
        let mut b = sample_block(1);
        b.header.base_fee += 1;
        assert!(!b.header.verify_signature());
        let mut b = sample_block(1);
        b.header.gas_used ^= 1;
        assert!(!b.header.verify_signature());
    }

    #[test]
    fn tampered_body_breaks_tx_root() {
        let mut b = sample_block(3);
        b.transactions.pop();
        assert!(!b.tx_root_matches());
        assert!(b.header.verify_signature(), "header itself untouched");
    }

    #[test]
    fn empty_block_root_is_zero_sentinel() {
        assert_eq!(Block::compute_tx_root(&[]), Digest::ZERO);
    }

    #[test]
    fn header_codec_roundtrip() {
        let b = sample_block(2);
        let bytes = b.header.to_bytes();
        let back = BlockHeader::from_bytes(&bytes).unwrap();
        assert_eq!(back, b.header);
        assert!(back.verify_signature());
    }

    #[test]
    fn block_codec_roundtrip() {
        let b = sample_block(3);
        let back = Block::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(back, b);
        assert!(back.tx_root_matches());
    }

    #[test]
    fn block_hash_changes_with_contents() {
        let b1 = sample_block(1);
        let b2 = sample_block(2);
        assert_ne!(b1.header.hash(), b2.header.hash());
    }
}
