//! The state commitment: leaf keys and the tree that holds them.
//!
//! [`crate::state::WorldState`] flattens every piece of consensus state
//! into `(LeafKey, value bytes)` pairs; a `Commitment` keeps the sparse
//! Merkle tree ([`crate::smt`]) over them and differs by [`BackendKind`]
//! in one place, how a commit reaches the tree:
//!
//! - [`BackendKind::Smt`] (default) folds the changed leaves into the tree
//!   in place, O(touched keys · depth) hashes whatever the state size;
//! - [`BackendKind::FullRehash`], the reference oracle, ignores the
//!   changed set and rebuilds the tree from a fresh enumeration of *every*
//!   leaf in the live maps, like the schoolbook oracles of the crypto fast
//!   paths. A dirty-tracking bug on the incremental path shows up as a
//!   root that differs from this one.
//!
//! Both give **bit-identical roots** for identical logical state: the
//! root is a pure function of the canonical leaf set. The kind is a value
//! the caller passes to [`crate::state::WorldState::with_backend`] or
//! [`crate::state::WorldState::set_backend`].

use crate::address::Address;
use crate::erc20::TokenId;
use crate::erc721::NftId;
use crate::smt::{SmtProof, SmtTree};
use pds2_crypto::sha256::{sha256, Digest};

/// Domain prefix for leaf-key digests (keeps state keys disjoint from
/// every other hash domain in the system).
const KEY_DOMAIN: &[u8] = b"pds2-state-leaf";

/// Identifies one leaf of the authenticated state map. A leaf is
/// present iff the corresponding map entry exists (for singleton
/// counters: iff the value is non-zero).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LeafKey {
    /// Native account (balance + nonce).
    Account(Address),
    /// ERC-20 token metadata: symbol, minter, total supply.
    Erc20Meta(TokenId),
    /// ERC-20 balance entry (explicit zeros included).
    Erc20Bal(TokenId, Address),
    /// ERC-20 next-token-id counter (present iff non-zero).
    Erc20Next,
    /// ERC-721 token metadata.
    Erc721Token(NftId),
    /// ERC-721 next-id counter (present iff non-zero).
    Erc721Next,
    /// Deployed contract: code id + state digest.
    Contract(Address),
    /// Cumulative burned native supply (present iff non-zero).
    Burned,
}

impl LeafKey {
    /// The 256-bit tree key for this leaf: `sha256` of the domain prefix,
    /// a variant tag, the token or NFT id (if any) and the address (if
    /// any) in canonical-codec form. At most 15 + 1 + 8 + 32 bytes, laid
    /// out on the stack and hashed in one call. Tag 3 stays unassigned, so
    /// every other leaf keeps the key it always had.
    pub fn digest(&self) -> Digest {
        let (tag, id, addr): (u8, Option<u64>, Option<&Address>) = match self {
            LeafKey::Account(a) => (0, None, Some(a)),
            LeafKey::Erc20Meta(t) => (1, Some(t.0), None),
            LeafKey::Erc20Bal(t, a) => (2, Some(t.0), Some(a)),
            LeafKey::Erc20Next => (4, None, None),
            LeafKey::Erc721Token(id) => (5, Some(id.0), None),
            LeafKey::Erc721Next => (6, None, None),
            LeafKey::Contract(a) => (7, None, Some(a)),
            LeafKey::Burned => (8, None, None),
        };
        let mut buf = [0u8; 56];
        let mut len = 0;
        let mut put = |bytes: &[u8]| {
            buf[len..len + bytes.len()].copy_from_slice(bytes);
            len += bytes.len();
        };
        put(KEY_DOMAIN);
        put(&[tag]);
        if let Some(id) = id {
            put(&id.to_le_bytes());
        }
        if let Some(addr) = addr {
            put(addr.0.as_bytes());
        }
        sha256(&buf[..len])
    }
}

/// Which backend maintains the state commitment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Incremental sparse Merkle tree (default).
    Smt,
    /// Full-rehash reference oracle.
    FullRehash,
}

impl BackendKind {
    // Reads nothing; only the benchmark calls it. ROADMAP item 8(a) deletes it.
    #[doc(hidden)]
    pub fn from_env() -> BackendKind {
        BackendKind::Smt
    }

    /// An empty commitment of this kind.
    pub(crate) fn make(self) -> Commitment {
        Commitment {
            kind: self,
            tree: SmtTree::default(),
            committed: false,
        }
    }
}

/// The authenticated leaf set: one tree, filled the way `kind` says.
pub(crate) struct Commitment {
    pub(crate) kind: BackendKind,
    tree: SmtTree,
    committed: bool,
}

impl Commitment {
    /// Backend name for diagnostics and bench output.
    pub(crate) fn name(&self) -> &'static str {
        match self.kind {
            BackendKind::Smt => "smt",
            BackendKind::FullRehash => "rehash",
        }
    }

    /// Applies a batch of leaf changes (`None` = delete) and returns
    /// `(new root, node hashes computed)`. The incremental kind uses the
    /// delta once it holds a tree. Its first commit, and every commit of
    /// the oracle, ignore the delta and build the tree in one pass from
    /// `full`, the enumeration of the whole canonical leaf set, so the
    /// oracle is blind to any dirty-tracking mistake. Either way the root
    /// is the canonical SMT root of the current leaf set.
    pub(crate) fn commit(
        &mut self,
        changed: Vec<(Digest, Option<Digest>)>,
        full: impl FnOnce() -> Vec<(Digest, Digest)>,
    ) -> (Digest, u64) {
        let hashed = if self.committed && self.kind == BackendKind::Smt {
            self.tree.commit(changed)
        } else {
            let (tree, hashed) = SmtTree::from_leaves(full());
            self.tree = tree;
            hashed
        };
        self.committed = true;
        (self.tree.root_hash(), hashed)
    }

    /// Whether the tree holds a commit yet. Until it does, the first
    /// commit builds it from the whole leaf set, so no change needs to be
    /// recorded.
    pub(crate) fn committed(&self) -> bool {
        self.committed
    }

    /// Number of leaves in the tree.
    pub(crate) fn len(&self) -> usize {
        self.tree.len()
    }

    /// Root of the last commit (`None` before the first).
    pub(crate) fn root(&self) -> Option<Digest> {
        self.committed.then(|| self.tree.root_hash())
    }

    /// Merkle (non-)inclusion proof for a tree key, against the last
    /// committed root.
    pub(crate) fn prove(&self, key: &Digest) -> SmtProof {
        self.tree.prove(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds2_crypto::sha256;
    use std::collections::BTreeMap;

    #[test]
    fn leaf_keys_are_distinct() {
        let addr = Address(sha256(b"a"));
        let keys = [
            LeafKey::Account(addr),
            LeafKey::Erc20Meta(TokenId(0)),
            LeafKey::Erc20Bal(TokenId(0), addr),
            LeafKey::Erc20Next,
            LeafKey::Erc721Token(NftId(0)),
            LeafKey::Erc721Next,
            LeafKey::Contract(addr),
            LeafKey::Burned,
        ];
        let digests: std::collections::BTreeSet<Digest> = keys.iter().map(|k| k.digest()).collect();
        assert_eq!(digests.len(), keys.len());
    }

    #[test]
    fn leaf_key_preimage_is_the_canonical_encoding() {
        use pds2_crypto::codec::{Encode, Encoder};
        let (a, b) = (Address(sha256(b"a")), Address(sha256(b"b")));
        let (t, n) = (TokenId(0x0102_0304_0506_0708), NftId(u64::MAX - 1));
        let encoded = |tag: u8, fields: &[&dyn Encode]| {
            let mut enc = Encoder::new();
            enc.put_raw(KEY_DOMAIN);
            enc.put_u8(tag);
            for f in fields {
                f.encode(&mut enc);
            }
            sha256(&enc.finish())
        };
        assert_eq!(LeafKey::Account(a).digest(), encoded(0, &[&a]));
        assert_eq!(LeafKey::Erc20Meta(t).digest(), encoded(1, &[&t]));
        assert_eq!(LeafKey::Erc20Bal(t, a).digest(), encoded(2, &[&t, &a]));
        assert_eq!(LeafKey::Erc20Next.digest(), encoded(4, &[]));
        assert_eq!(LeafKey::Erc721Token(n).digest(), encoded(5, &[&n]));
        assert_eq!(LeafKey::Erc721Next.digest(), encoded(6, &[]));
        assert_eq!(LeafKey::Contract(b).digest(), encoded(7, &[&b]));
        assert_eq!(LeafKey::Burned.digest(), encoded(8, &[]));
    }

    #[test]
    fn backends_agree_under_incremental_changes() {
        let mut smt = BackendKind::Smt.make();
        let mut oracle = BackendKind::FullRehash.make();
        let mut map: BTreeMap<Digest, Digest> = BTreeMap::new();
        for round in 0..8u64 {
            let mut changed = Vec::new();
            for i in 0..12u64 {
                let k = sha256(&(round * 5 + i).to_le_bytes());
                if (round + i) % 4 == 0 && map.contains_key(&k) {
                    map.remove(&k);
                    changed.push((k, None));
                } else {
                    let v = sha256(&(round * 1000 + i).to_le_bytes());
                    map.insert(k, v);
                    changed.push((k, Some(v)));
                }
            }
            let full = || map.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>();
            let (r1, _) = smt.commit(changed.clone(), full);
            let (r2, _) = oracle.commit(changed, full);
            assert_eq!(r1, r2, "round {round}");
            assert_eq!(smt.tree.len(), oracle.tree.len());
        }
    }

    #[test]
    fn env_knob_selects_backend() {
        assert_eq!(BackendKind::from_env(), BackendKind::Smt);
        assert_eq!(BackendKind::Smt.make().name(), "smt");
        assert_eq!(BackendKind::FullRehash.make().name(), "rehash");
    }
}
