//! Non-fungible tokens — the ERC-721 analogue.
//!
//! §III-A: NFTs "can be particularly useful to model data and workload code
//! in PDS²". The marketplace mints one NFT per registered dataset (the
//! token's content hash commits to the data without revealing it) and one
//! per workload-code package.

use crate::address::Address;
use crate::backend::LeafKey;
use crate::event::{Event, EventSink};
use crate::state::Old;
use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use pds2_crypto::Digest;
use std::collections::BTreeMap;

/// Identifier of an NFT.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NftId(pub u64);

impl Encode for NftId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.0);
    }
}

impl Decode for NftId {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(NftId(dec.get_u64()?))
    }
}

/// What kind of marketplace asset an NFT represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AssetKind {
    /// A registered dataset (content hash of the provider's data).
    Dataset,
    /// A workload-code package (content hash of the enclave binary).
    WorkloadCode,
}

impl Encode for AssetKind {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            AssetKind::Dataset => 0,
            AssetKind::WorkloadCode => 1,
        });
    }
}

impl Decode for AssetKind {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(AssetKind::Dataset),
            1 => Ok(AssetKind::WorkloadCode),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// Operations accepted by the ERC-721 module. An NFT stays with the
/// provider or consumer that minted it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Erc721Op {
    /// Mints an NFT to the sender.
    Mint {
        /// Asset class.
        kind: AssetKind,
        /// Content hash the token commits to.
        content: Digest,
        /// Optional display label.
        label: String,
    },
}

// Tags 1–4 stay unassigned, so a mint keeps the bytes (and the transaction
// hash) it always had; an unassigned tag is `InvalidTag`.
const N_MINT: u8 = 0;

impl Encode for Erc721Op {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Erc721Op::Mint {
                kind,
                content,
                label,
            } => {
                enc.put_u8(N_MINT);
                kind.encode(enc);
                enc.put_digest(content);
                enc.put_str(label);
            }
        }
    }
}

impl Decode for Erc721Op {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            N_MINT => Ok(Erc721Op::Mint {
                kind: AssetKind::decode(dec)?,
                content: dec.get_digest()?,
                label: dec.get_str()?,
            }),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// Errors from NFT operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NftError {
    /// The same content hash was already minted for this asset kind.
    DuplicateContent,
}

impl std::fmt::Display for NftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NftError::DuplicateContent => write!(f, "content hash already minted"),
        }
    }
}

impl std::error::Error for NftError {}

/// Metadata stored for one NFT.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NftInfo {
    /// Owner: the account that minted it.
    pub owner: Address,
    /// Asset class.
    pub kind: AssetKind,
    /// Committed content hash.
    pub content: Digest,
    /// Display label.
    pub label: String,
}

/// The ERC-721 module holding every NFT on the chain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Erc721Module {
    tokens: BTreeMap<NftId, NftInfo>,
    /// Duplicate-prevention index: (kind, content) -> id.
    by_content: BTreeMap<(AssetKind, Digest), NftId>,
    next_id: u64,
}

impl Erc721Module {
    /// Applies an operation on behalf of `sender`, passing `record` every
    /// leaf it writes, with the value it holds: a mint writes the id
    /// counter and its new token, a refused one nothing.
    pub(crate) fn apply(
        &mut self,
        sender: Address,
        op: &Erc721Op,
        events: &mut EventSink,
        mut record: impl FnMut(LeafKey, Old),
    ) -> Result<NftId, NftError> {
        match op {
            Erc721Op::Mint {
                kind,
                content,
                label,
            } => {
                let key = (*kind, *content);
                if self.by_content.contains_key(&key) {
                    return Err(NftError::DuplicateContent);
                }
                let id = NftId(self.next_id);
                record(LeafKey::Erc721Next, Old::Count(self.next_id));
                self.next_id += 1;
                record(LeafKey::Erc721Token(id), Old::Absent);
                self.tokens.insert(
                    id,
                    NftInfo {
                        owner: sender,
                        kind: *kind,
                        content: *content,
                        label: label.clone(),
                    },
                );
                self.by_content.insert(key, id);
                events.emit(Event::token(
                    "erc721.mint",
                    format!("id={} owner={sender} content={}", id.0, content.short()),
                ));
                Ok(id)
            }
        }
    }

    /// Owner query.
    pub fn owner_of(&self, id: NftId) -> Option<Address> {
        self.tokens.get(&id).map(|t| t.owner)
    }

    /// Full metadata query.
    pub fn info(&self, id: NftId) -> Option<&NftInfo> {
        self.tokens.get(&id)
    }

    /// Looks up an NFT by its committed content hash.
    pub fn find_by_content(&self, kind: AssetKind, content: &Digest) -> Option<NftId> {
        self.by_content.get(&(kind, *content)).copied()
    }

    /// Number of minted tokens.
    pub fn count(&self) -> usize {
        self.tokens.len()
    }

    /// The leaves this ledger has: the id counter once anything was
    /// minted, and one per live token.
    pub(crate) fn leaf_keys(&self) -> impl Iterator<Item = LeafKey> + '_ {
        let next = (self.next_id != 0).then_some(LeafKey::Erc721Next);
        next.into_iter()
            .chain(self.tokens.keys().map(|id| LeafKey::Erc721Token(*id)))
    }

    /// Puts back `old`, the value one of this ledger's leaves held before
    /// a write (the state's undo list). A token is written only when it is
    /// minted, so undoing it removes the token and its content entry.
    pub(crate) fn undo(&mut self, key: LeafKey, old: Old) {
        match (key, old) {
            (LeafKey::Erc721Next, Old::Count(next_id)) => self.next_id = next_id,
            (LeafKey::Erc721Token(id), _) => {
                if let Some(info) = self.tokens.remove(&id) {
                    self.by_content.remove(&(info.kind, info.content));
                }
            }
            _ => {}
        }
    }

    /// Canonical value bytes of one of this ledger's leaves; `None` when
    /// the token is absent or the key is not an ERC-721 one.
    pub(crate) fn leaf_value(&self, key: &LeafKey) -> Option<Vec<u8>> {
        match key {
            LeafKey::Erc721Token(id) => self.tokens.get(id).map(|info| info.to_bytes()),
            LeafKey::Erc721Next if self.next_id != 0 => Some(self.next_id.to_bytes()),
            _ => None,
        }
    }
}

impl Encode for NftInfo {
    fn encode(&self, enc: &mut Encoder) {
        self.owner.encode(enc);
        self.kind.encode(enc);
        enc.put_digest(&self.content);
        enc.put_str(&self.label);
    }
}

impl Decode for NftInfo {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(NftInfo {
            owner: Address::decode(dec)?,
            kind: AssetKind::decode(dec)?,
            content: dec.get_digest()?,
            label: dec.get_str()?,
        })
    }
}

// Snapshot codec (crash recovery). The `by_content` index is derived
// from the tokens on decode rather than serialized.
impl Encode for Erc721Module {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.next_id);
        enc.put_u64(self.tokens.len() as u64);
        for (id, t) in &self.tokens {
            id.encode(enc);
            t.encode(enc);
        }
    }
}

impl Decode for Erc721Module {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let next_id = dec.get_u64()?;
        let n = dec.get_u64()? as usize;
        let mut tokens = BTreeMap::new();
        let mut by_content = BTreeMap::new();
        for _ in 0..n {
            let id = NftId::decode(dec)?;
            let info = NftInfo::decode(dec)?;
            by_content.insert((info.kind, info.content), id);
            tokens.insert(id, info);
        }
        Ok(Erc721Module {
            tokens,
            by_content,
            next_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds2_crypto::{sha256, KeyPair};

    fn addr(seed: u64) -> Address {
        Address::of(&KeyPair::from_seed(seed).public)
    }

    fn mint(m: &mut Erc721Module, owner: Address, label: &str) -> NftId {
        let mut ev = EventSink::new();
        m.apply(
            owner,
            &Erc721Op::Mint {
                kind: AssetKind::Dataset,
                content: sha256(label.as_bytes()),
                label: label.into(),
            },
            &mut ev,
            |_, _| {},
        )
        .unwrap()
    }

    #[test]
    fn mint_and_query() {
        let mut m = Erc721Module::default();
        let alice = addr(1);
        let id = mint(&mut m, alice, "sensor-data-1");
        assert_eq!(m.owner_of(id), Some(alice));
        assert_eq!(m.count(), 1);
        assert_eq!(
            m.find_by_content(AssetKind::Dataset, &sha256(b"sensor-data-1")),
            Some(id)
        );
    }

    #[test]
    fn duplicate_content_rejected() {
        let mut m = Erc721Module::default();
        let alice = addr(1);
        mint(&mut m, alice, "data");
        let mut ev = EventSink::new();
        // Even a different sender cannot re-mint the same content: this is
        // the §IV-B "prevent the user from creating multiple copies and
        // reselling them" defence at the governance layer.
        assert_eq!(
            m.apply(
                addr(2),
                &Erc721Op::Mint {
                    kind: AssetKind::Dataset,
                    content: sha256(b"data"),
                    label: "copy".into()
                },
                &mut ev,
                |_, _| {}
            )
            .unwrap_err(),
            NftError::DuplicateContent
        );
    }

    #[test]
    fn a_mint_marks_the_counter_and_its_token_and_a_refused_one_nothing() {
        let mut m = Erc721Module::default();
        let op = Erc721Op::Mint {
            kind: AssetKind::Dataset,
            content: sha256(b"data"),
            label: "data".into(),
        };
        for expected in [Ok(NftId(0)), Err(NftError::DuplicateContent)] {
            let mut marked = Vec::new();
            let result = m.apply(addr(1), &op, &mut EventSink::new(), |k, _| marked.push(k));
            let wrote = result
                .iter()
                .flat_map(|&id| [LeafKey::Erc721Next, LeafKey::Erc721Token(id)]);
            assert_eq!(marked, wrote.collect::<Vec<_>>());
            assert_eq!(result, expected);
        }
    }

    #[test]
    fn same_content_different_kind_allowed() {
        let mut m = Erc721Module::default();
        let mut ev = EventSink::new();
        let content = sha256(b"bytes");
        m.apply(
            addr(1),
            &Erc721Op::Mint {
                kind: AssetKind::Dataset,
                content,
                label: "d".into(),
            },
            &mut ev,
            |_, _| {},
        )
        .unwrap();
        m.apply(
            addr(1),
            &Erc721Op::Mint {
                kind: AssetKind::WorkloadCode,
                content,
                label: "w".into(),
            },
            &mut ev,
            |_, _| {},
        )
        .unwrap();
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn op_codec_roundtrip() {
        let ops = [AssetKind::Dataset, AssetKind::WorkloadCode].map(|kind| Erc721Op::Mint {
            kind,
            content: sha256(b"x"),
            label: "l".into(),
        });
        for op in &ops {
            assert_eq!(&Erc721Op::from_bytes(&op.to_bytes()).unwrap(), op);
        }
        // The retired Transfer, Approve, TransferFrom and Burn tags, and
        // the retired catch-all asset kind, are refused whatever follows;
        // 41 bytes would have held the longest body.
        for tag in 1..=4 {
            let mut bytes = [0; 42];
            bytes[0] = tag;
            assert_eq!(
                Erc721Op::from_bytes(&bytes),
                Err(DecodeError::InvalidTag(tag))
            );
        }
        let mut other = ops[0].to_bytes();
        other[1] = 2;
        assert_eq!(
            Erc721Op::from_bytes(&other),
            Err(DecodeError::InvalidTag(2))
        );
        assert_eq!(AssetKind::from_bytes(&[2]), Err(DecodeError::InvalidTag(2)));
    }
}
