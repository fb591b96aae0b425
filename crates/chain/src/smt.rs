//! Sparse Merkle tree over 256-bit keys, stored in two flat arrays.
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
//! Storage. Leaves (96 bytes) and internal nodes (40 bytes) sit in one
//! `Vec` each and name each other by `u32` slot (`Ref`); a slot whose
//! node is deleted goes on that array's free list and is the next one
//! handed out. A commit sorts its updates and descends once: an internal
//! node splits the updates on its bit, visits only the halves that have
//! any, and is rewritten in its own slot when a child changed. So a
//! commit costs O(touched keys · depth) hashes and allocates nothing
//! beyond the sorted update list.
//!
//! There is one version of the tree. `Clone` copies both arrays, and a
//! commit leaves no previous root behind; nothing in the workspace reads
//! one. A rollback (ROADMAP item 3) should keep a per-block undo list of
//! `(key, old value)` and replay it as an ordinary commit.

use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use pds2_crypto::sha256::{sha256, Digest};

/// Domain prefix for leaf hashes.
const LEAF_PREFIX: u8 = 0x02;
/// Domain prefix for internal-node hashes.
const NODE_PREFIX: u8 = 0x03;

/// Proofs cannot be deeper than the key width (256-bit sha256 keys).
pub const MAX_DEPTH: usize = 256;

/// One update of a commit: `Some` upserts the value digest, `None` deletes.
type Update = (Digest, Option<Digest>);

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

/// Names a subtree: a slot of the leaf array when the top bit is set, a
/// slot of the internal-node array otherwise, or [`Ref::EMPTY`].
#[derive(Clone, Copy, PartialEq, Eq)]
struct Ref(u32);

/// What a [`Ref`] points at.
enum Slot {
    Empty,
    Leaf(usize),
    Internal(usize),
}

impl Ref {
    const EMPTY: Ref = Ref(u32::MAX);
    const LEAF_BIT: u32 = 1 << 31;

    fn slot(self) -> Slot {
        if self == Ref::EMPTY {
            Slot::Empty
        } else if self.0 & Ref::LEAF_BIT != 0 {
            Slot::Leaf((self.0 ^ Ref::LEAF_BIT) as usize)
        } else {
            Slot::Internal(self.0 as usize)
        }
    }
}

impl Default for Ref {
    fn default() -> Ref {
        Ref::EMPTY
    }
}

#[derive(Clone, Copy)]
struct Leaf {
    key: Digest,
    value: Digest,
    hash: Digest,
}

#[derive(Clone, Copy)]
struct Internal {
    left: Ref,
    right: Ref,
    hash: Digest,
}

/// Puts `node` in the slot freed last, or in a new one, and returns the
/// slot. Slot numbers stay below [`Ref::EMPTY`]'s in either array.
fn store<T>(slots: &mut Vec<T>, free: &mut Vec<u32>, node: T) -> u32 {
    if let Some(i) = free.pop() {
        slots[i as usize] = node;
        return i;
    }
    assert!(
        slots.len() < (Ref::LEAF_BIT - 1) as usize,
        "sparse Merkle store is full: a u32 slot number addresses 2^31 - 1 nodes of a kind"
    );
    slots.push(node);
    (slots.len() - 1) as u32
}

/// A sparse Merkle tree (see the module docs for the canonical shape,
/// the hashing rules and the storage).
#[derive(Clone, Default)]
pub struct SmtTree {
    root: Ref,
    leaves: Vec<Leaf>,
    internals: Vec<Internal>,
    free_leaves: Vec<u32>,
    free_internals: Vec<u32>,
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
        let updates: Vec<Update> = leaves.into_iter().map(|(k, v)| (k, Some(v))).collect();
        let mut tree = SmtTree::new();
        let hashed = tree.commit(updates);
        (tree, hashed)
    }

    /// Root hash ([`Digest::ZERO`] when empty).
    pub fn root_hash(&self) -> Digest {
        self.hash_of(self.root)
    }

    /// Number of leaves present.
    pub fn len(&self) -> usize {
        self.leaves.len() - self.free_leaves.len()
    }

    /// Whether the tree holds no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value digest stored under `key`, if present.
    pub fn get(&self, key: &Digest) -> Option<Digest> {
        let leaf = self.descend(key, |_| {})?;
        (leaf.key == *key).then_some(leaf.value)
    }

    /// Applies a batch of updates (`Some` upsert, `None` delete; later
    /// entries for the same key win) and returns the number of node
    /// hashes computed: a function of the tree and the batch alone.
    pub fn commit(&mut self, mut updates: Vec<(Digest, Option<Digest>)>) -> u64 {
        // Stable sort + keep-last dedup: the final write per key wins.
        updates.sort_by_key(|a| a.0);
        updates.reverse();
        updates.dedup_by(|a, b| a.0 == b.0);
        updates.reverse();
        // One growth step for a bulk build instead of a doubling series.
        self.leaves.reserve(updates.len());
        self.internals.reserve(updates.len());
        let mut hashed = 0u64;
        self.root = self.apply(self.root, 0, &updates, &mut hashed).0;
        hashed
    }

    /// Produces a proof for `key`: the sibling hash per level down the
    /// key's path plus the leaf the path terminates in (if any). The
    /// same proof serves inclusion (the leaf is `key`) and
    /// non-inclusion (empty path end, or a different leaf occupying
    /// `key`'s path).
    pub fn prove(&self, key: &Digest) -> SmtProof {
        let mut siblings = Vec::new();
        let found = self
            .descend(key, |sibling| siblings.push(self.hash_of(sibling)))
            .map(|leaf| (leaf.key, leaf.value));
        SmtProof { siblings, found }
    }

    /// Walks `key`'s path from the root, handing `off_path` the subtree
    /// not taken at each level, to the leaf the path ends in (if any).
    fn descend(&self, key: &Digest, mut off_path: impl FnMut(Ref)) -> Option<&Leaf> {
        let (mut cur, mut depth) = (self.root, 0);
        loop {
            match cur.slot() {
                Slot::Empty => return None,
                Slot::Leaf(i) => return Some(&self.leaves[i]),
                Slot::Internal(i) => {
                    let Internal { left, right, .. } = self.internals[i];
                    let (on, off) = if bit(key, depth) {
                        (right, left)
                    } else {
                        (left, right)
                    };
                    off_path(off);
                    cur = on;
                    depth += 1;
                }
            }
        }
    }

    fn hash_of(&self, node: Ref) -> Digest {
        match node.slot() {
            Slot::Empty => Digest::ZERO,
            Slot::Leaf(i) => self.leaves[i].hash,
            Slot::Internal(i) => self.internals[i].hash,
        }
    }

    fn new_leaf(&mut self, key: Digest, value: Digest, hashed: &mut u64) -> Ref {
        *hashed += 1;
        let hash = leaf_hash(&key, &value);
        let leaf = Leaf { key, value, hash };
        Ref(store(&mut self.leaves, &mut self.free_leaves, leaf) | Ref::LEAF_BIT)
    }

    /// Canonical parent of two child subtrees: empty + empty is empty, a
    /// lone leaf floats up (a one-key subtree *is* a leaf), anything else
    /// is an internal node.
    fn combine(&mut self, left: Ref, right: Ref, hashed: &mut u64) -> Ref {
        match (left.slot(), right.slot()) {
            (Slot::Empty, Slot::Empty | Slot::Leaf(_)) => right,
            (Slot::Leaf(_), Slot::Empty) => left,
            _ => {
                *hashed += 1;
                let hash = node_hash(&self.hash_of(left), &self.hash_of(right));
                let node = Internal { left, right, hash };
                Ref(store(&mut self.internals, &mut self.free_internals, node))
            }
        }
    }

    /// Builds the canonical subtree at `depth` of the upserts among
    /// sorted, distinct `ups` (all sharing bits `0..depth`) plus `kept`,
    /// the displaced leaf of this path when no update names its key.
    fn build(
        &mut self,
        depth: usize,
        ups: &[Update],
        kept: Option<(Digest, Digest)>,
        hashed: &mut u64,
    ) -> Ref {
        match (ups, kept) {
            ([], None) => Ref::EMPTY,
            ([], Some((k, v))) => self.new_leaf(k, v, hashed),
            ([(k, v)], None) => v.map_or(Ref::EMPTY, |v| self.new_leaf(*k, v, hashed)),
            _ => {
                assert!(depth < MAX_DEPTH, "distinct 256-bit keys must diverge");
                let split = ups.partition_point(|(k, _)| !bit(k, depth));
                let (kept_left, kept_right) = match kept {
                    Some((k, _)) if bit(&k, depth) => (None, kept),
                    _ => (kept, None),
                };
                let left = self.build(depth + 1, &ups[..split], kept_left, hashed);
                let right = self.build(depth + 1, &ups[split..], kept_right, hashed);
                self.combine(left, right, hashed)
            }
        }
    }

    /// Applies sorted, distinct updates to the subtree at `node` and
    /// returns what stands there now, and whether it was rewritten. A
    /// slot given up here is the one `store` hands out next, so a node
    /// that stays a node is rewritten where it was.
    fn apply(&mut self, node: Ref, depth: usize, ups: &[Update], hashed: &mut u64) -> (Ref, bool) {
        if ups.is_empty() {
            return (node, false);
        }
        match node.slot() {
            Slot::Empty => {
                let built = self.build(depth, ups, None, hashed);
                (built, built != Ref::EMPTY)
            }
            // A leaf under the updates is re-created (and re-hashed) from
            // the merged set unless an update overrides or deletes it.
            Slot::Leaf(i) => {
                let Leaf { key, value, .. } = self.leaves[i];
                self.free_leaves.push(i as u32);
                let named = ups.binary_search_by_key(&key, |u| u.0).is_ok();
                let kept = (!named).then_some((key, value));
                (self.build(depth, ups, kept, hashed), true)
            }
            Slot::Internal(i) => {
                assert!(depth < MAX_DEPTH, "distinct 256-bit keys must diverge");
                let Internal { left, right, .. } = self.internals[i];
                let split = ups.partition_point(|(k, _)| !bit(k, depth));
                let (left, left_new) = self.apply(left, depth + 1, &ups[..split], hashed);
                let (right, right_new) = self.apply(right, depth + 1, &ups[split..], hashed);
                if !(left_new || right_new) {
                    return (node, false);
                }
                self.free_internals.push(i as u32);
                (self.combine(left, right, hashed), true)
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

    /// Slots of both arrays that hold a live node.
    fn live_slots(tree: &SmtTree) -> (usize, usize) {
        (
            tree.leaves.len() - tree.free_leaves.len(),
            tree.internals.len() - tree.free_internals.len(),
        )
    }

    #[test]
    fn node_sizes_are_the_documented_ones() {
        // `bench_micro` derives `chain.smt.tree_bytes` from these two figures.
        assert_eq!(std::mem::size_of::<Leaf>(), 96);
        assert_eq!(std::mem::size_of::<Internal>(), 40);
        // A fresh build hashes every node once and frees nothing.
        let (tree, hashed) = SmtTree::from_leaves((0..500).map(|i| (key(i), val(i))).collect());
        assert_eq!(tree.leaves.len(), 500);
        assert_eq!(tree.internals.len() as u64, hashed - 500);
        assert!(tree.free_leaves.is_empty() && tree.free_internals.is_empty());
    }

    #[test]
    fn deleted_slots_are_reused() {
        // Insert-then-delete over a 256-key universe: whatever a round
        // frees the next round takes, so the arrays never outgrow the
        // widest round. Slack: a round holds at most 32 extra leaves and
        // a leaf sits under fewer than 32 internal nodes of its own.
        let mut tree = SmtTree::new();
        let mut bound = (0, 0);
        for round in 0..10_000u64 {
            let picked: Vec<Digest> = (0..1 + round % 32)
                .map(|j| key((round * 31 + j * 7) % 256))
                .collect();
            tree.commit(picked.iter().map(|k| (*k, Some(val(round)))).collect());
            if round == 0 {
                bound = (tree.leaves.len() + 32, tree.internals.len() + 32 * 32);
            }
            assert!(tree.leaves.len() <= bound.0, "round {round}");
            assert!(tree.internals.len() <= bound.1, "round {round}");
            tree.commit(picked.iter().map(|k| (*k, None)).collect());
            assert_eq!(live_slots(&tree), (0, 0), "round {round}");
            assert_eq!(tree.root_hash(), Digest::ZERO);
        }
    }

    #[test]
    fn emptied_tree_is_the_empty_tree_and_reuses_its_slots() {
        let mut tree = SmtTree::new();
        tree.commit(vec![(key(1), Some(val(1)))]);
        assert!(tree.root == Ref(Ref::LEAF_BIT), "first leaf sits in slot 0");
        tree.commit(vec![(key(1), None)]);
        assert_eq!(tree.root_hash(), Digest::ZERO);
        assert_eq!((tree.len(), tree.is_empty()), (0, true));
        tree.commit(vec![(key(2), Some(val(2)))]);
        assert!(tree.root == Ref(Ref::LEAF_BIT), "slot 0 is reused");
        assert_eq!(tree.leaves.len(), 1);

        // The same from a populated tree, emptied in one batch.
        let (mut tree, _) = SmtTree::from_leaves((0..300).map(|i| (key(i), val(i))).collect());
        let (leaves, internals) = (tree.leaves.len(), tree.internals.len());
        tree.commit((0..300).map(|i| (key(i), None)).collect());
        assert_eq!(tree.root_hash(), Digest::ZERO);
        assert_eq!((tree.len(), live_slots(&tree)), (0, (0, 0)));
        tree.commit((300..600).map(|i| (key(i), Some(val(i)))).collect());
        assert_eq!(tree.len(), 300);
        assert_eq!(tree.leaves.len(), leaves, "leaf slots are reused");
        assert!(tree.internals.len() <= internals.max(live_slots(&tree).1));
    }

    #[test]
    fn clone_is_an_independent_copy() {
        let (base, _) = SmtTree::from_leaves((0..200).map(|i| (key(i), val(i))).collect());
        let snapshot = |t: &SmtTree| {
            let proofs: Vec<SmtProof> = (0..220).map(|i| t.prove(&key(i))).collect();
            (t.root_hash(), t.len(), proofs)
        };
        let before = snapshot(&base);
        let mut copy = base.clone();
        assert_eq!(snapshot(&copy), before);
        // Overwrites, deletes and inserts on the copy only.
        copy.commit(
            (0..400)
                .map(|i| (key(i), (i % 3 != 0).then(|| val(i + 1_000))))
                .collect(),
        );
        assert_ne!(copy.root_hash(), before.0);
        assert_eq!(snapshot(&base), before, "original moved with its clone");
        // And the other way round.
        let after = snapshot(&copy);
        let mut base = base;
        base.commit((0..200).map(|i| (key(i), None)).collect());
        assert!(base.is_empty());
        assert_eq!(snapshot(&copy), after, "clone moved with its original");
    }

    #[test]
    fn lone_leaf_grows_a_path_and_collapses_back() {
        // Two keys that agree on their first two bits and a third that
        // leaves them at bit 0.
        let a = key(0);
        let b = (1..)
            .map(key)
            .find(|k| bit(k, 0) == bit(&a, 0) && bit(k, 1) == bit(&a, 1))
            .unwrap();
        let c = (1..).map(key).find(|k| bit(k, 0) != bit(&a, 0)).unwrap();
        let fork = (0..).find(|&d| bit(&a, d) != bit(&b, d)).unwrap();
        assert!(fork >= 2);
        let (la, lb, lc) = (
            leaf_hash(&a, &val(1)),
            leaf_hash(&b, &val(2)),
            leaf_hash(&c, &val(3)),
        );
        // `under(h, from)`: the root of a path from depth `from` down
        // to `h` along `a`'s bits, with nothing beside it.
        let under = |h: Digest, from: usize| {
            (from..fork).rev().fold(h, |h, d| {
                if bit(&a, d) {
                    node_hash(&Digest::ZERO, &h)
                } else {
                    node_hash(&h, &Digest::ZERO)
                }
            })
        };
        let pair = if bit(&a, fork) {
            node_hash(&lb, &la)
        } else {
            node_hash(&la, &lb)
        };

        let mut tree = SmtTree::new();
        assert_eq!(tree.commit(vec![(a, Some(val(1)))]), 1);
        assert_eq!(tree.root_hash(), la, "one key is a leaf at depth 0");
        assert_eq!(live_slots(&tree), (1, 0));

        // `a` is displaced down to the fork: both leaves and every node
        // of the path are hashed.
        assert_eq!(tree.commit(vec![(b, Some(val(2)))]), 2 + fork as u64 + 1);
        assert_eq!(tree.root_hash(), under(pair, 0));
        assert_eq!(live_slots(&tree), (2, fork + 1));
        assert_eq!(tree.prove(&a).siblings.len(), fork + 1);

        // A third key on the other side of bit 0 rehashes the root only.
        assert_eq!(tree.commit(vec![(c, Some(val(3)))]), 2);
        let below = under(pair, 1);
        let root = if bit(&a, 0) {
            node_hash(&lc, &below)
        } else {
            node_hash(&below, &lc)
        };
        assert_eq!(tree.root_hash(), root);

        // Deleting `b` floats `a` up past the whole path, whose slots
        // are freed: root = (a, c) at depth 0.
        assert_eq!(tree.commit(vec![(b, None)]), 1);
        let root = if bit(&a, 0) {
            node_hash(&lc, &la)
        } else {
            node_hash(&la, &lc)
        };
        assert_eq!(tree.root_hash(), root);
        assert_eq!(live_slots(&tree), (2, 1));
        assert_eq!(tree.free_internals.len(), fork);

        // Deleting `c` floats `a` to the root; nothing is hashed.
        assert_eq!(tree.commit(vec![(c, None)]), 0);
        assert_eq!(tree.root_hash(), la);
        assert_eq!(live_slots(&tree), (1, 0));
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
