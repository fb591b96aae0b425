//! Pluggable state-commitment backends.
//!
//! [`crate::state::WorldState`] flattens every piece of consensus state
//! into `(LeafKey, value bytes)` pairs and delegates root computation to
//! a [`StateBackend`]. Two deterministic implementations exist:
//!
//! - [`SmtBackend`] (default) — an incremental sparse Merkle tree
//!   updated in place in two flat node arrays ([`crate::smt`]). Each
//!   block's commit costs O(touched keys · depth) hashes, independent
//!   of total state size.
//! - [`FullRehashBackend`] — the reference oracle. It ignores the dirty
//!   set entirely and rebuilds the tree from a fresh enumeration of
//!   *every* leaf in the live maps, mirroring the schoolbook-oracle
//!   pattern used for the crypto fast paths. Any dirty-tracking bug in
//!   the incremental path shows up as a root divergence against this
//!   backend.
//!
//! Both produce **bit-identical roots** for identical logical state —
//! the root is a pure function of the canonical leaf set. Selection is
//! via [`BackendKind::from_env`] (`PDS2_STATE_BACKEND=smt|rehash`) or
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
    /// ERC-20 allowance entry `(owner, spender)`.
    Erc20Allow(TokenId, Address, Address),
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
    /// a variant tag, the token or NFT id (if any) and the addresses (if
    /// any) in canonical-codec form. At most 15 + 1 + 8 + 32 + 32 bytes,
    /// laid out on the stack and hashed in one call.
    pub fn digest(&self) -> Digest {
        let (tag, id, addrs): (u8, Option<u64>, [Option<&Address>; 2]) = match self {
            LeafKey::Account(a) => (0, None, [Some(a), None]),
            LeafKey::Erc20Meta(t) => (1, Some(t.0), [None, None]),
            LeafKey::Erc20Bal(t, a) => (2, Some(t.0), [Some(a), None]),
            LeafKey::Erc20Allow(t, o, s) => (3, Some(t.0), [Some(o), Some(s)]),
            LeafKey::Erc20Next => (4, None, [None, None]),
            LeafKey::Erc721Token(id) => (5, Some(id.0), [None, None]),
            LeafKey::Erc721Next => (6, None, [None, None]),
            LeafKey::Contract(a) => (7, None, [Some(a), None]),
            LeafKey::Burned => (8, None, [None, None]),
        };
        let mut buf = [0u8; 88];
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
        for addr in addrs.into_iter().flatten() {
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
    /// Reads `PDS2_STATE_BACKEND` (`smt` default; `rehash`, `memory` or
    /// `full` select the oracle). Unknown values fall back to the SMT.
    pub fn from_env() -> BackendKind {
        match std::env::var("PDS2_STATE_BACKEND").as_deref() {
            Ok("rehash") | Ok("memory") | Ok("full") => BackendKind::FullRehash,
            _ => BackendKind::Smt,
        }
    }

    /// Instantiates an empty backend of this kind.
    pub fn make(self) -> Box<dyn StateBackend> {
        match self {
            BackendKind::Smt => Box::new(SmtBackend::default()),
            BackendKind::FullRehash => Box::new(FullRehashBackend::default()),
        }
    }
}

/// State-commitment strategy. `commit` receives both the changed-key
/// delta and a thunk enumerating the full canonical leaf set; an
/// incremental backend uses the delta, an oracle uses the enumeration.
/// Either way the returned root must be the canonical SMT root of the
/// current leaf set.
pub trait StateBackend {
    /// Backend name for diagnostics and bench output.
    fn name(&self) -> &'static str;

    /// Applies a batch of leaf changes (`None` = delete) and returns
    /// `(new root, node hashes computed)`.
    fn commit(
        &mut self,
        changed: Vec<(Digest, Option<Digest>)>,
        full: &mut dyn FnMut() -> Vec<(Digest, Digest)>,
    ) -> (Digest, u64);

    /// Root of the last commit (`None` before the first).
    fn root(&self) -> Option<Digest>;

    /// Merkle (non-)inclusion proof for a tree key, against the last
    /// committed root.
    fn prove(&self, key: &Digest) -> SmtProof;

    /// Leaves currently present.
    fn leaf_count(&self) -> usize;
}

/// Incremental sparse-Merkle backend (see [`crate::smt`]).
#[derive(Default)]
pub struct SmtBackend {
    tree: SmtTree,
    committed: bool,
}

impl StateBackend for SmtBackend {
    fn name(&self) -> &'static str {
        "smt"
    }

    fn commit(
        &mut self,
        changed: Vec<(Digest, Option<Digest>)>,
        _full: &mut dyn FnMut() -> Vec<(Digest, Digest)>,
    ) -> (Digest, u64) {
        let hashed = self.tree.commit(changed);
        self.committed = true;
        (self.tree.root_hash(), hashed)
    }

    fn root(&self) -> Option<Digest> {
        self.committed.then(|| self.tree.root_hash())
    }

    fn prove(&self, key: &Digest) -> SmtProof {
        self.tree.prove(key)
    }

    fn leaf_count(&self) -> usize {
        self.tree.len()
    }
}

/// Reference oracle: rebuilds the whole tree from a fresh full-state
/// enumeration on every commit, ignoring the delta. O(total state) per
/// block — correct by construction, and deliberately blind to any
/// dirty-tracking mistake the incremental path could make.
#[derive(Default)]
pub struct FullRehashBackend {
    tree: SmtTree,
    committed: bool,
}

impl StateBackend for FullRehashBackend {
    fn name(&self) -> &'static str {
        "rehash"
    }

    fn commit(
        &mut self,
        _changed: Vec<(Digest, Option<Digest>)>,
        full: &mut dyn FnMut() -> Vec<(Digest, Digest)>,
    ) -> (Digest, u64) {
        let (tree, hashed) = SmtTree::from_leaves(full());
        self.tree = tree;
        self.committed = true;
        (self.tree.root_hash(), hashed)
    }

    fn root(&self) -> Option<Digest> {
        self.committed.then(|| self.tree.root_hash())
    }

    fn prove(&self, key: &Digest) -> SmtProof {
        self.tree.prove(key)
    }

    fn leaf_count(&self) -> usize {
        self.tree.len()
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
            LeafKey::Erc20Allow(TokenId(0), addr, addr),
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
        assert_eq!(
            LeafKey::Erc20Allow(t, a, b).digest(),
            encoded(3, &[&t, &a, &b])
        );
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
            let mut full = || map.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>();
            let (r1, _) = smt.commit(changed.clone(), &mut full);
            let (r2, _) = oracle.commit(changed, &mut full);
            assert_eq!(r1, r2, "round {round}");
            assert_eq!(smt.leaf_count(), oracle.leaf_count());
        }
    }

    #[test]
    fn env_knob_selects_backend() {
        assert_eq!(BackendKind::Smt.make().name(), "smt");
        assert_eq!(BackendKind::FullRehash.make().name(), "rehash");
    }
}
