//! The state commitment's leaf keys.
//!
//! [`crate::state::WorldState`] flattens every piece of consensus state
//! into `(LeafKey, value bytes)` pairs and keeps one commitment over them:
//! a sparse Merkle tree ([`crate::smt`]) into which each commit folds the
//! changed leaves in place, O(touched keys · depth) hashes whatever the
//! state size (`state/commit.rs`). The root is a pure function of the
//! canonical leaf set. The test oracle is
//! [`crate::state::WorldState::rehash_root`]: it ignores the changed set
//! and rebuilds the tree from a fresh enumeration of *every* leaf in the
//! live maps, like the schoolbook oracles of the crypto fast paths, so a
//! dirty-tracking bug shows up as a root that differs from the
//! committed one.

use crate::address::Address;
use crate::erc20::TokenId;
use crate::erc721::NftId;
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

/// A name kept for one caller: the state has one commitment, and
/// [`crate::state::WorldState::rehash_root`] is the test oracle.
/// `benchmark/src/adapter.rs:10,77-79` names this type to print its
/// `runtime.state_backend` fingerprint, and the benchmark is not edited
/// alongside library changes; ROADMAP item 8(a) deletes it along with
/// the other `from_env` shims.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    Smt,
    FullRehash,
}

impl BackendKind {
    pub fn from_env() -> Self {
        Self::Smt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::WorldState;
    use pds2_crypto::sha256;

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

    /// The incremental commit and the rehash oracle agree after every
    /// round of inserts, updates and deletes. A round credits twelve
    /// accounts, some new and some not, under a savepoint and commits;
    /// every other round is then rolled back, which deletes its new
    /// accounts from the committed tree and puts the old balances back.
    #[test]
    fn backends_agree_under_incremental_changes() {
        let mut state = WorldState::new();
        for round in 0..8u64 {
            let savepoint = state.savepoint();
            for i in 0..12u64 {
                let addr = Address(sha256(&(round * 5 + i).to_le_bytes()));
                state.genesis_credit(addr, u128::from(round * 1000 + i + 1));
            }
            assert_eq!(state.state_root(), state.rehash_root(), "round {round}");
            if round % 2 == 1 {
                state.rollback(savepoint);
            } else {
                state.release(savepoint);
            }
            assert_eq!(
                state.state_root(),
                state.rehash_root(),
                "after round {round}"
            );
        }
    }

    #[test]
    fn env_knob_selects_backend() {
        assert_eq!(BackendKind::from_env(), BackendKind::Smt);
    }
}
