//! Merkle trees with inclusion proofs.
//!
//! Used by the governance layer to commit to transaction sets in block
//! headers, by the storage subsystem to commit to dataset contents, so
//! that a provider can later prove an individual record was part of a
//! registered dataset without revealing the rest, and by devices to sign
//! a batch of readings once (each reading carries its proof, encoded).

use crate::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use crate::sha256::{sha256_pair, Digest, DIGEST_LEN};

/// Domain-separation prefixes to prevent leaf/node second-preimage attacks.
const LEAF_PREFIX: [u8; 1] = [0x00];
const NODE_PREFIX: [u8; 1] = [0x01];

/// Hashes a leaf payload with domain separation.
pub fn leaf_hash(data: &[u8]) -> Digest {
    sha256_pair(&LEAF_PREFIX, data)
}

/// Hashes an internal node from its children with domain separation.
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut buf = [0u8; 65];
    buf[0] = NODE_PREFIX[0];
    buf[1..33].copy_from_slice(left.as_bytes());
    buf[33..65].copy_from_slice(right.as_bytes());
    crate::sha256::sha256(&buf)
}

/// A fully-built Merkle tree over a list of leaf payloads.
///
/// Odd nodes at each level are promoted unchanged (Bitcoin-style duplication
/// is avoided because it admits ambiguous trees).
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// `levels[0]` = leaf hashes, last level = single root (unless empty).
    levels: Vec<Vec<Digest>>,
}

/// One step of an inclusion proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProofStep {
    /// Sibling hash to combine with.
    pub sibling: Digest,
    /// True if the sibling is on the right of the running hash.
    pub sibling_on_right: bool,
}

/// An inclusion proof for a single leaf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// Path from leaf to root.
    pub steps: Vec<ProofStep>,
}

impl MerkleTree {
    /// Builds a tree from leaf payloads. An empty input yields the
    /// all-zero root sentinel.
    pub fn from_leaves<T: AsRef<[u8]>>(leaves: &[T]) -> Self {
        Self::from_leaf_hashes(leaves.iter().map(|l| leaf_hash(l.as_ref())).collect())
    }

    /// Builds a tree from pre-hashed leaves.
    pub fn from_leaf_hashes(hashes: Vec<Digest>) -> Self {
        let mut levels = Vec::new();
        let mut level = hashes;
        while level.len() > 1 {
            let pairs = level.chunks_exact(2);
            // Odd node: promote unchanged.
            let odd = pairs.remainder().first().copied();
            let next = pairs.map(|p| node_hash(&p[0], &p[1])).chain(odd).collect();
            levels.push(std::mem::replace(&mut level, next));
        }
        levels.push(level);
        MerkleTree { levels }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, |l| l.len())
    }

    /// True if the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Root digest (`Digest::ZERO` for an empty tree).
    pub fn root(&self) -> Digest {
        match self.levels.last() {
            Some(level) if !level.is_empty() => level[0],
            _ => Digest::ZERO,
        }
    }

    /// Produces an inclusion proof for leaf `index`, or `None` if out of
    /// range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        let mut steps = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len().saturating_sub(1)] {
            let sibling_idx = idx ^ 1;
            if sibling_idx < level.len() {
                steps.push(ProofStep {
                    sibling: level[sibling_idx],
                    sibling_on_right: sibling_idx > idx,
                });
            }
            // Promoted odd nodes keep their position without a step.
            idx /= 2;
        }
        Some(MerkleProof {
            leaf_index: index,
            steps,
        })
    }
}

impl MerkleProof {
    /// The longest path a decoder accepts: a tree of 2⁶⁴ leaves, more than
    /// a `usize` index can address.
    pub const MAX_STEPS: usize = 64;

    /// Verifies that `leaf_data` hashes up to `root` through this proof.
    pub fn verify(&self, leaf_data: &[u8], root: &Digest) -> bool {
        self.verify_hash(leaf_hash(leaf_data), root)
    }

    /// Verifies starting from a pre-computed leaf hash.
    pub fn verify_hash(&self, leaf: Digest, root: &Digest) -> bool {
        self.root_from(leaf) == *root
    }

    /// The root this path leads to from `leaf`. Only the steps decide it:
    /// `leaf_index` says where the prover found the leaf and is not bound
    /// by the root.
    pub fn root_from(&self, leaf: Digest) -> Digest {
        self.steps.iter().fold(leaf, |acc, step| {
            if step.sibling_on_right {
                node_hash(&acc, &step.sibling)
            } else {
                node_hash(&step.sibling, &acc)
            }
        })
    }
}

impl Encode for MerkleProof {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.leaf_index as u64);
        enc.put_u64(self.steps.len() as u64);
        for step in &self.steps {
            enc.put_digest(&step.sibling);
            enc.put_bool(step.sibling_on_right);
        }
    }
}

impl Decode for MerkleProof {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let leaf_index =
            usize::try_from(dec.get_u64()?).map_err(|_| DecodeError::LengthOverflow)?;
        let count = dec.get_u64()?;
        let count = dec.bounded_count(count, DIGEST_LEN + 1)?;
        if count > Self::MAX_STEPS {
            return Err(DecodeError::LengthOverflow);
        }
        let mut steps = Vec::with_capacity(count);
        for _ in 0..count {
            steps.push(ProofStep {
                sibling: dec.get_digest()?,
                sibling_on_right: dec.get_bool()?,
            });
        }
        Ok(MerkleProof { leaf_index, steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_root_is_zero() {
        let t = MerkleTree::from_leaves::<Vec<u8>>(&[]);
        assert_eq!(t.root(), Digest::ZERO);
        assert!(t.is_empty());
        assert!(t.prove(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let t = MerkleTree::from_leaves(&[b"only".to_vec()]);
        assert_eq!(t.root(), leaf_hash(b"only"));
        let proof = t.prove(0).unwrap();
        assert!(proof.steps.is_empty());
        assert!(proof.verify(b"only", &t.root()));
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=17 {
            let ls = leaves(n);
            let t = MerkleTree::from_leaves(&ls);
            for (i, leaf) in ls.iter().enumerate() {
                let proof = t.prove(i).unwrap();
                assert!(proof.verify(leaf, &t.root()), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn proof_rejects_wrong_leaf() {
        let ls = leaves(8);
        let t = MerkleTree::from_leaves(&ls);
        let proof = t.prove(3).unwrap();
        assert!(!proof.verify(b"not-the-leaf", &t.root()));
    }

    #[test]
    fn proof_rejects_wrong_root() {
        let ls = leaves(8);
        let t = MerkleTree::from_leaves(&ls);
        let proof = t.prove(3).unwrap();
        let other = MerkleTree::from_leaves(&leaves(9)).root();
        assert!(!proof.verify(&ls[3], &other));
    }

    #[test]
    fn proof_rejects_tampered_step() {
        let ls = leaves(8);
        let t = MerkleTree::from_leaves(&ls);
        let mut proof = t.prove(3).unwrap();
        proof.steps[0].sibling_on_right = !proof.steps[0].sibling_on_right;
        assert!(!proof.verify(&ls[3], &t.root()));
    }

    #[test]
    fn proof_codec_roundtrip_and_step_cap() {
        for n in [1, 2, 33] {
            let t = MerkleTree::from_leaves(&leaves(n));
            for i in 0..n {
                let proof = t.prove(i).unwrap();
                assert_eq!(MerkleProof::from_bytes(&proof.to_bytes()), Ok(proof));
            }
        }
        let step = ProofStep {
            sibling: Digest([7; 32]),
            sibling_on_right: true,
        };
        let at_cap = MerkleProof {
            leaf_index: 0,
            steps: vec![step; MerkleProof::MAX_STEPS],
        };
        assert!(MerkleProof::from_bytes(&at_cap.to_bytes()).is_ok());
        let over = MerkleProof {
            leaf_index: 0,
            steps: vec![step; MerkleProof::MAX_STEPS + 1],
        };
        assert_eq!(
            MerkleProof::from_bytes(&over.to_bytes()),
            Err(DecodeError::LengthOverflow)
        );
        // A side byte is a bool, nothing else.
        let mut bytes = at_cap.to_bytes();
        *bytes.last_mut().unwrap() = 2;
        assert_eq!(
            MerkleProof::from_bytes(&bytes),
            Err(DecodeError::InvalidTag(2))
        );
    }

    #[test]
    fn leaf_and_node_domains_differ() {
        // A node hash must never collide with a leaf hash of the same bytes.
        let d1 = leaf_hash(&[1u8; 64]);
        let left = Digest([1u8; 32]);
        let right = Digest([1u8; 32]);
        let d2 = node_hash(&left, &right);
        assert_ne!(d1, d2);
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let ls = leaves(6);
        let base = MerkleTree::from_leaves(&ls).root();
        for i in 0..6 {
            let mut modified = ls.clone();
            modified[i].push(b'!');
            assert_ne!(MerkleTree::from_leaves(&modified).root(), base, "leaf {i}");
        }
    }

    #[test]
    fn root_depends_on_order() {
        let ls = leaves(4);
        let mut swapped = ls.clone();
        swapped.swap(0, 1);
        assert_ne!(
            MerkleTree::from_leaves(&ls).root(),
            MerkleTree::from_leaves(&swapped).root()
        );
    }
}
