//! Copy-on-write sparse Merkle tree over 256-bit keys.
//!
//! The tree authenticates the key → value-digest map that
//! [`crate::state::WorldState`] flattens its accounts, token ledgers and
//! contracts into (see [`crate::backend`]). Structure is *canonical*: it
//! is a pure function of the key set, so any two nodes holding the same
//! logical state produce bit-identical roots regardless of insertion
//! order, thread count or which backend maintained the tree.
//!
//! Shape. Keys are traversed MSB-first. A subtree holding no keys is
//! empty (hash [`Digest::ZERO`]); a subtree holding exactly one key is a
//! leaf wherever that happens, so single-key paths collapse; a subtree
//! holding two or more keys is an internal node splitting on the next
//! bit. With `sha256` keys the expected depth is ~log₂(n) and the node
//! count is O(n).
//!
//! Hashing is domain-separated from the transaction Merkle tree
//! ([`pds2_crypto::merkle`] uses prefixes `0x00`/`0x01`):
//!
//! - leaf: `sha256(0x02 ‖ key ‖ value_digest)`
//! - internal: `sha256(0x03 ‖ left_hash ‖ right_hash)` with
//!   `Digest::ZERO` standing in for an empty child.
//!
//! Internal nodes exist at every consecutive depth along a multi-key
//! path (no skip compression), so a proof is simply the sibling hash per
//! level and the verifier re-derives each direction from the key's bits —
//! there is no prover-controlled index a forged non-inclusion proof
//! could lie about.
//!
//! Nodes are reference-counted ([`Arc`]); an update clones the touched
//! path and shares everything else, so a commit costs
//! O(touched keys · depth) hashes and old roots stay valid snapshots.

use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use pds2_crypto::sha256::{sha256, Digest};
use std::sync::Arc;

/// Domain prefix for leaf hashes.
const LEAF_PREFIX: u8 = 0x02;
/// Domain prefix for internal-node hashes.
const NODE_PREFIX: u8 = 0x03;

/// Proofs cannot be deeper than the key width (256-bit sha256 keys).
pub const MAX_DEPTH: usize = 256;

/// Updates per commit above which node hashing fans out across the
/// `pds2-par` worker pool.
const PAR_COMMIT_MIN: usize = 1024;

/// Depth of the parallel frontier: the tree is split into
/// `2^PAR_DEPTH` independent subtrees, one work item each.
const PAR_DEPTH: usize = 4;

/// Bit `d` (MSB-first across the digest bytes) of a key.
#[inline]
fn bit(key: &Digest, d: usize) -> bool {
    (key.as_bytes()[d >> 3] >> (7 - (d & 7))) & 1 == 1
}

/// `sha256(prefix ‖ a ‖ b)`: 65 bytes laid out on the stack, which
/// `sha256` hashes as two blocks in one call.
fn tagged_hash(prefix: u8, a: &Digest, b: &Digest) -> Digest {
    let mut buf = [0u8; 65];
    buf[0] = prefix;
    buf[1..33].copy_from_slice(a.as_bytes());
    buf[33..].copy_from_slice(b.as_bytes());
    sha256(&buf)
}

/// `sha256(0x02 ‖ key ‖ value_digest)`.
pub fn leaf_hash(key: &Digest, value: &Digest) -> Digest {
    tagged_hash(LEAF_PREFIX, key, value)
}

/// `sha256(0x03 ‖ left ‖ right)`.
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    tagged_hash(NODE_PREFIX, left, right)
}

enum Node {
    Leaf {
        key: Digest,
        value: Digest,
        hash: Digest,
    },
    Internal {
        left: Option<Arc<Node>>,
        right: Option<Arc<Node>>,
        hash: Digest,
    },
}

impl Node {
    fn hash(&self) -> Digest {
        match self {
            Node::Leaf { hash, .. } | Node::Internal { hash, .. } => *hash,
        }
    }
}

fn opt_hash(node: &Option<Arc<Node>>) -> Digest {
    node.as_ref().map_or(Digest::ZERO, |n| n.hash())
}

fn make_leaf(key: Digest, value: Digest, hashed: &mut u64) -> Arc<Node> {
    *hashed += 1;
    Arc::new(Node::Leaf {
        key,
        value,
        hash: leaf_hash(&key, &value),
    })
}

/// Canonical parent of two child subtrees: empty + empty is empty, a
/// lone leaf floats up (a one-key subtree *is* a leaf), anything else
/// is an internal node.
fn combine(
    left: Option<Arc<Node>>,
    right: Option<Arc<Node>>,
    hashed: &mut u64,
) -> Option<Arc<Node>> {
    match (&left, &right) {
        (None, None) => None,
        (Some(n), None) if matches!(**n, Node::Leaf { .. }) => left,
        (None, Some(n)) if matches!(**n, Node::Leaf { .. }) => right,
        _ => {
            *hashed += 1;
            let hash = node_hash(&opt_hash(&left), &opt_hash(&right));
            Some(Arc::new(Node::Internal { left, right, hash }))
        }
    }
}

/// Builds a canonical subtree from sorted, distinct `(key, value)` pairs
/// whose keys all share bits `0..depth`.
fn build_leaves(depth: usize, items: &[(Digest, Digest)], hashed: &mut u64) -> Option<Arc<Node>> {
    match items {
        [] => None,
        [(k, v)] => Some(make_leaf(*k, *v, hashed)),
        _ => {
            debug_assert!(depth < MAX_DEPTH, "distinct sha256 keys must diverge");
            let split = items.partition_point(|(k, _)| !bit(k, depth));
            let left = build_leaves(depth + 1, &items[..split], hashed);
            let right = build_leaves(depth + 1, &items[split..], hashed);
            combine(left, right, hashed)
        }
    }
}

/// Applies sorted, distinct updates (`None` = delete) to a subtree.
fn apply_updates(
    node: Option<&Arc<Node>>,
    depth: usize,
    ups: &[(Digest, Option<Digest>)],
    hashed: &mut u64,
) -> Option<Arc<Node>> {
    if ups.is_empty() {
        return node.cloned();
    }
    let inserts = |ups: &[(Digest, Option<Digest>)]| -> Vec<(Digest, Digest)> {
        ups.iter().filter_map(|(k, v)| v.map(|v| (*k, v))).collect()
    };
    match node.map(|n| &**n) {
        None => build_leaves(depth, &inserts(ups), hashed),
        Some(Node::Leaf { key, value, .. }) => {
            // Merge the existing leaf into the update set unless an
            // update overrides (or deletes) it.
            let mut items = inserts(ups);
            if !ups.iter().any(|(k, _)| k == key) {
                let pos = items.partition_point(|(k, _)| k < key);
                items.insert(pos, (*key, *value));
            }
            build_leaves(depth, &items, hashed)
        }
        Some(Node::Internal { left, right, .. }) => {
            debug_assert!(depth < MAX_DEPTH, "distinct sha256 keys must diverge");
            let split = ups.partition_point(|(k, _)| !bit(k, depth));
            let new_left = apply_updates(left.as_ref(), depth + 1, &ups[..split], hashed);
            let new_right = apply_updates(right.as_ref(), depth + 1, &ups[split..], hashed);
            let unchanged = |a: &Option<Arc<Node>>, b: &Option<Arc<Node>>| match (a, b) {
                (Some(x), Some(y)) => Arc::ptr_eq(x, y),
                (None, None) => true,
                _ => false,
            };
            if unchanged(&new_left, left) && unchanged(&new_right, right) {
                return node.cloned();
            }
            combine(new_left, new_right, hashed)
        }
    }
}

/// Collects the `2^(PAR_DEPTH - depth)` subtree roots at the parallel
/// frontier, placing shallow leaves into the slot their key selects.
fn split_frontier(node: Option<Arc<Node>>, depth: usize, out: &mut Vec<Option<Arc<Node>>>) {
    let slots = 1 << (PAR_DEPTH - depth);
    match node.as_deref() {
        _ if depth == PAR_DEPTH => out.push(node),
        None => out.extend(std::iter::repeat_with(|| None).take(slots)),
        Some(Node::Leaf { key, .. }) => {
            let mut idx = 0;
            for d in depth..PAR_DEPTH {
                idx = (idx << 1) | bit(key, d) as usize;
            }
            out.extend((0..slots).map(|i| if i == idx { node.clone() } else { None }));
        }
        Some(Node::Internal { left, right, .. }) => {
            split_frontier(left.clone(), depth + 1, out);
            split_frontier(right.clone(), depth + 1, out);
        }
    }
}

/// Rebuilds the tree top from the updated frontier slots.
fn join_frontier(
    slots: &mut std::vec::IntoIter<Option<Arc<Node>>>,
    depth: usize,
    hashed: &mut u64,
) -> Option<Arc<Node>> {
    if depth == PAR_DEPTH {
        return slots.next().expect("frontier slot count is exact");
    }
    let left = join_frontier(slots, depth + 1, hashed);
    let right = join_frontier(slots, depth + 1, hashed);
    combine(left, right, hashed)
}

/// A copy-on-write sparse Merkle tree (see the module docs for the
/// canonical shape and hashing rules).
#[derive(Clone, Default)]
pub struct SmtTree {
    root: Option<Arc<Node>>,
    leaves: usize,
}

impl SmtTree {
    /// An empty tree (root [`Digest::ZERO`]).
    pub fn new() -> SmtTree {
        SmtTree::default()
    }

    /// Builds a tree from an arbitrary-order list of distinct leaves.
    /// Returns the tree and the number of node hashes computed.
    pub fn from_leaves(mut leaves: Vec<(Digest, Digest)>) -> (SmtTree, u64) {
        leaves.sort_unstable_by_key(|a| a.0);
        leaves.dedup_by(|a, b| a.0 == b.0);
        let updates: Vec<(Digest, Option<Digest>)> =
            leaves.into_iter().map(|(k, v)| (k, Some(v))).collect();
        let mut tree = SmtTree::new();
        let hashed = tree.commit(updates);
        (tree, hashed)
    }

    /// Root hash ([`Digest::ZERO`] when empty).
    pub fn root_hash(&self) -> Digest {
        opt_hash(&self.root)
    }

    /// Number of leaves present.
    pub fn len(&self) -> usize {
        self.leaves
    }

    /// Whether the tree holds no leaves.
    pub fn is_empty(&self) -> bool {
        self.leaves == 0
    }

    /// Value digest stored under `key`, if present.
    pub fn get(&self, key: &Digest) -> Option<Digest> {
        let mut cur = self.root.as_ref();
        let mut depth = 0;
        while let Some(node) = cur {
            match &**node {
                Node::Leaf { key: k, value, .. } => {
                    return (k == key).then_some(*value);
                }
                Node::Internal { left, right, .. } => {
                    cur = if bit(key, depth) {
                        right.as_ref()
                    } else {
                        left.as_ref()
                    };
                    depth += 1;
                }
            }
        }
        None
    }

    /// Applies a batch of updates (`Some` upsert, `None` delete; later
    /// entries for the same key win) and returns the number of node
    /// hashes computed. Large batches fan out over `pds2-par`; the
    /// result is bit-identical at every thread count because each
    /// frontier subtree is an independent pure function of its inputs.
    pub fn commit(&mut self, mut updates: Vec<(Digest, Option<Digest>)>) -> u64 {
        if updates.is_empty() {
            return 0;
        }
        // Stable sort + keep-last dedup: the final write per key wins.
        updates.sort_by_key(|a| a.0);
        updates.reverse();
        updates.dedup_by(|a, b| a.0 == b.0);
        updates.reverse();
        // Net leaf-count delta, from what each key held before.
        for (k, v) in &updates {
            match (self.get(k).is_some(), v.is_some()) {
                (false, true) => self.leaves += 1,
                (true, false) => self.leaves -= 1,
                _ => {}
            }
        }
        let mut hashed = 0u64;
        // Gate on batch size ONLY (never on thread count): the frontier
        // split changes which top-level nodes get rebuilt, so tying it
        // to `current_threads()` would make the hash count — an obs
        // counter — vary across `PDS2_THREADS`.
        if updates.len() >= PAR_COMMIT_MIN {
            let mut slots = Vec::with_capacity(1 << PAR_DEPTH);
            split_frontier(self.root.clone(), 0, &mut slots);
            // Partition the sorted updates into the same 2^PAR_DEPTH
            // key-prefix groups the frontier slots cover.
            let mut groups: Vec<&[(Digest, Option<Digest>)]> = Vec::with_capacity(slots.len());
            let mut rest: &[(Digest, Option<Digest>)] = &updates;
            for i in 0..slots.len() {
                let end = if i + 1 == slots.len() {
                    rest.len()
                } else {
                    rest.partition_point(|(k, _)| {
                        let mut idx = 0;
                        for d in 0..PAR_DEPTH {
                            idx = (idx << 1) | bit(k, d) as usize;
                        }
                        idx <= i
                    })
                };
                let (group, tail) = rest.split_at(end);
                groups.push(group);
                rest = tail;
            }
            type Slot<'a> = (Option<Arc<Node>>, &'a [(Digest, Option<Digest>)]);
            let work: Vec<Slot<'_>> = slots.into_iter().zip(groups).collect();
            let results = pds2_par::par_map_indexed(&work, |_, (node, ups)| {
                let mut h = 0u64;
                let sub = apply_updates(node.as_ref(), PAR_DEPTH, ups, &mut h);
                (sub, h)
            });
            let mut new_slots = Vec::with_capacity(results.len());
            for (sub, h) in results {
                new_slots.push(sub);
                hashed += h;
            }
            self.root = join_frontier(&mut new_slots.into_iter(), 0, &mut hashed);
        } else {
            self.root = apply_updates(self.root.as_ref(), 0, &updates, &mut hashed);
        }
        hashed
    }

    /// Produces a proof for `key`: the sibling hash per level down the
    /// key's path plus the leaf the path terminates in (if any). The
    /// same proof serves inclusion (the leaf is `key`) and
    /// non-inclusion (empty path end, or a different leaf occupying
    /// `key`'s path).
    pub fn prove(&self, key: &Digest) -> SmtProof {
        let mut siblings = Vec::new();
        let mut cur = self.root.as_ref();
        let mut depth = 0;
        loop {
            match cur.map(|n| &**n) {
                None => {
                    return SmtProof {
                        siblings,
                        found: None,
                    }
                }
                Some(Node::Leaf { key: k, value, .. }) => {
                    return SmtProof {
                        siblings,
                        found: Some((*k, *value)),
                    }
                }
                Some(Node::Internal { left, right, .. }) => {
                    if bit(key, depth) {
                        siblings.push(opt_hash(left));
                        cur = right.as_ref();
                    } else {
                        siblings.push(opt_hash(right));
                        cur = left.as_ref();
                    }
                    depth += 1;
                }
            }
        }
    }
}

/// A Merkle (non-)inclusion proof for one key (see [`SmtTree::prove`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmtProof {
    /// Sibling hash per level, root-first; [`Digest::ZERO`] where the
    /// sibling subtree is empty.
    pub siblings: Vec<Digest>,
    /// The leaf found at the end of the key's path: `Some((key, value
    /// digest))`, or `None` when the path ends in an empty subtree.
    pub found: Option<(Digest, Digest)>,
}

impl SmtProof {
    /// Folds `acc` up the path using `key`'s bits for direction.
    fn fold(&self, key: &Digest, acc: Digest) -> Digest {
        let mut acc = acc;
        for (d, sib) in self.siblings.iter().enumerate().rev() {
            acc = if bit(key, d) {
                node_hash(sib, &acc)
            } else {
                node_hash(&acc, sib)
            };
        }
        acc
    }

    /// Verifies that `key` maps to `value_digest` under `root`.
    pub fn verify_inclusion(&self, root: &Digest, key: &Digest, value_digest: &Digest) -> bool {
        self.found == Some((*key, *value_digest))
            && self.fold(key, leaf_hash(key, value_digest)) == *root
    }

    /// Verifies that `key` is absent under `root`: the key's path ends
    /// empty, or a *different* leaf occupies it (the canonical tree
    /// stores at most one leaf per path prefix, so a mismatched
    /// witness leaf rules the key out).
    pub fn verify_absence(&self, root: &Digest, key: &Digest) -> bool {
        match &self.found {
            None => self.fold(key, Digest::ZERO) == *root,
            Some((k, v)) => k != key && self.fold(key, leaf_hash(k, v)) == *root,
        }
    }
}

/// Verifies a proof against a trusted root: `value = Some(bytes)`
/// checks inclusion of `sha256(bytes)`, `None` checks absence. This is
/// the light-client entry point — no tree, no state, just the root
/// from a validated block header.
pub fn verify_proof(root: &Digest, key: &Digest, value: Option<&[u8]>, proof: &SmtProof) -> bool {
    match value {
        Some(bytes) => proof.verify_inclusion(root, key, &sha256(bytes)),
        None => proof.verify_absence(root, key),
    }
}

impl Encode for SmtProof {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.siblings.len() as u64);
        for s in &self.siblings {
            enc.put_digest(s);
        }
        match &self.found {
            None => enc.put_u8(0),
            Some((k, v)) => {
                enc.put_u8(1);
                enc.put_digest(k);
                enc.put_digest(v);
            }
        }
    }
}

impl Decode for SmtProof {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = dec.get_u64()? as usize;
        if len > MAX_DEPTH {
            return Err(DecodeError::Invalid("proof deeper than key width"));
        }
        let mut siblings = Vec::with_capacity(len);
        for _ in 0..len {
            siblings.push(dec.get_digest()?);
        }
        let found = match dec.get_u8()? {
            0 => None,
            1 => Some((dec.get_digest()?, dec.get_digest()?)),
            t => return Err(DecodeError::InvalidTag(t)),
        };
        Ok(SmtProof { siblings, found })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn key(i: u64) -> Digest {
        sha256(&i.to_le_bytes())
    }

    fn val(i: u64) -> Digest {
        sha256(format!("value-{i}").as_bytes())
    }

    /// Reference root: rebuild from scratch from a plain map.
    fn reference_root(map: &BTreeMap<Digest, Digest>) -> Digest {
        let (tree, _) = SmtTree::from_leaves(map.iter().map(|(k, v)| (*k, *v)).collect());
        tree.root_hash()
    }

    #[test]
    fn empty_tree_root_is_zero() {
        assert_eq!(SmtTree::new().root_hash(), Digest::ZERO);
    }

    #[test]
    fn incremental_commits_match_scratch_rebuild() {
        let mut tree = SmtTree::new();
        let mut map = BTreeMap::new();
        // Interleave inserts, overwrites and deletes across commits.
        for round in 0..10u64 {
            let mut ups = Vec::new();
            for i in 0..20u64 {
                let k = key(round * 7 + i);
                if (round + i) % 5 == 0 && map.contains_key(&k) {
                    map.remove(&k);
                    ups.push((k, None));
                } else {
                    map.insert(k, val(round * 100 + i));
                    ups.push((k, Some(val(round * 100 + i))));
                }
            }
            tree.commit(ups);
            assert_eq!(tree.root_hash(), reference_root(&map), "round {round}");
            assert_eq!(tree.len(), map.len());
        }
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let leaves: Vec<(Digest, Digest)> = (0..50).map(|i| (key(i), val(i))).collect();
        let (forward, _) = SmtTree::from_leaves(leaves.clone());
        let mut reversed = SmtTree::new();
        for (k, v) in leaves.iter().rev() {
            reversed.commit(vec![(*k, Some(*v))]);
        }
        assert_eq!(forward.root_hash(), reversed.root_hash());
    }

    #[test]
    fn delete_restores_prior_root() {
        let (base, _) = SmtTree::from_leaves((0..30).map(|i| (key(i), val(i))).collect());
        let mut tree = base.clone();
        tree.commit(vec![(key(99), Some(val(99)))]);
        assert_ne!(tree.root_hash(), base.root_hash());
        tree.commit(vec![(key(99), None)]);
        assert_eq!(tree.root_hash(), base.root_hash());
        assert_eq!(tree.len(), 30);
        // Deleting an absent key is a no-op.
        tree.commit(vec![(key(777), None)]);
        assert_eq!(tree.root_hash(), base.root_hash());
    }

    #[test]
    fn last_write_wins_within_a_batch() {
        let mut a = SmtTree::new();
        a.commit(vec![
            (key(1), Some(val(1))),
            (key(1), Some(val(2))),
            (key(2), Some(val(3))),
            (key(2), None),
        ]);
        let mut b = SmtTree::new();
        b.commit(vec![(key(1), Some(val(2)))]);
        assert_eq!(a.root_hash(), b.root_hash());
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn parallel_commit_is_thread_invariant() {
        let leaves: Vec<(Digest, Digest)> = (0..3000).map(|i| (key(i), val(i))).collect();
        let roots: Vec<Digest> = [1usize, 4, 8]
            .iter()
            .map(|&threads| {
                pds2_par::with_threads(threads, || {
                    let (tree, _) = SmtTree::from_leaves(leaves.clone());
                    tree.root_hash()
                })
            })
            .collect();
        assert_eq!(roots[0], roots[1]);
        assert_eq!(roots[0], roots[2]);
        // And a large incremental batch over an existing tree.
        let roots2: Vec<Digest> = [1usize, 4, 8]
            .iter()
            .map(|&threads| {
                pds2_par::with_threads(threads, || {
                    let (mut tree, _) = SmtTree::from_leaves(leaves.clone());
                    tree.commit((3000..6000).map(|i| (key(i), Some(val(i)))).collect());
                    tree.root_hash()
                })
            })
            .collect();
        assert_eq!(roots2[0], roots2[1]);
        assert_eq!(roots2[0], roots2[2]);
    }

    #[test]
    fn get_reads_back_committed_values() {
        let (tree, _) = SmtTree::from_leaves((0..40).map(|i| (key(i), val(i))).collect());
        for i in 0..40 {
            assert_eq!(tree.get(&key(i)), Some(val(i)));
        }
        assert_eq!(tree.get(&key(41)), None);
    }

    #[test]
    fn inclusion_proofs_verify_and_bind() {
        let (tree, _) = SmtTree::from_leaves((0..64).map(|i| (key(i), val(i))).collect());
        let root = tree.root_hash();
        for i in [0u64, 7, 31, 63] {
            let proof = tree.prove(&key(i));
            assert!(proof.verify_inclusion(&root, &key(i), &val(i)));
            // Wrong value, wrong key, wrong root: all rejected.
            assert!(!proof.verify_inclusion(&root, &key(i), &val(i + 1)));
            assert!(!proof.verify_inclusion(&root, &key(i + 1), &val(i)));
            assert!(!proof.verify_inclusion(&Digest::ZERO, &key(i), &val(i)));
            // An inclusion proof is not an absence proof.
            assert!(!proof.verify_absence(&root, &key(i)));
        }
    }

    #[test]
    fn absence_proofs_verify_for_missing_keys() {
        let (tree, _) = SmtTree::from_leaves((0..64).map(|i| (key(i), val(i))).collect());
        let root = tree.root_hash();
        for i in 64..96u64 {
            let proof = tree.prove(&key(i));
            assert!(proof.verify_absence(&root, &key(i)), "key {i}");
            assert!(!proof.verify_inclusion(&root, &key(i), &val(i)));
        }
        // Empty tree: everything is absent.
        let empty = SmtTree::new();
        let proof = empty.prove(&key(1));
        assert!(proof.verify_absence(&empty.root_hash(), &key(1)));
    }

    #[test]
    fn verify_proof_entry_point_hashes_value_bytes() {
        let mut tree = SmtTree::new();
        let k = key(5);
        let bytes = b"account-encoding".to_vec();
        tree.commit(vec![(k, Some(sha256(&bytes)))]);
        let root = tree.root_hash();
        let proof = tree.prove(&k);
        assert!(verify_proof(&root, &k, Some(&bytes), &proof));
        assert!(!verify_proof(&root, &k, Some(b"other"), &proof));
        assert!(!verify_proof(&root, &k, None, &proof));
        let missing = key(6);
        let proof = tree.prove(&missing);
        assert!(verify_proof(&root, &missing, None, &proof));
    }

    #[test]
    fn proof_codec_roundtrip() {
        let (tree, _) = SmtTree::from_leaves((0..64).map(|i| (key(i), val(i))).collect());
        for i in [3u64, 80] {
            let proof = tree.prove(&key(i));
            let back = SmtProof::from_bytes(&proof.to_bytes()).unwrap();
            assert_eq!(back, proof);
        }
        // Absurd depth prefix is rejected before allocation.
        let mut enc = Encoder::new();
        enc.put_u64(100_000);
        assert!(SmtProof::from_bytes(&enc.finish()).is_err());
    }
}
