//! Non-fungible tokens — the ERC-721 analogue.
//!
//! §III-A: NFTs "can be particularly useful to model data and workload code
//! in PDS²". The marketplace mints one NFT per registered dataset (the
//! token's content hash commits to the data without revealing it) and one
//! per workload-code package.

use crate::address::Address;
use crate::backend::LeafKey;
use crate::event::{Event, EventSink};
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AssetKind {
    /// A registered dataset (content hash of the provider's data).
    Dataset,
    /// A workload-code package (content hash of the enclave binary).
    WorkloadCode,
    /// Anything else.
    Other,
}

impl Encode for AssetKind {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            AssetKind::Dataset => 0,
            AssetKind::WorkloadCode => 1,
            AssetKind::Other => 2,
        });
    }
}

impl Decode for AssetKind {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(AssetKind::Dataset),
            1 => Ok(AssetKind::WorkloadCode),
            2 => Ok(AssetKind::Other),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// Operations accepted by the ERC-721 module.
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
    /// Transfers an owned NFT.
    Transfer {
        /// Token to transfer.
        id: NftId,
        /// Recipient.
        to: Address,
    },
    /// Approves one address to take the token.
    Approve {
        /// Token.
        id: NftId,
        /// Approved taker (or None to clear).
        approved: Option<Address>,
    },
    /// Transfers using an approval.
    TransferFrom {
        /// Token.
        id: NftId,
        /// Recipient.
        to: Address,
    },
    /// Burns an owned NFT.
    Burn {
        /// Token to burn.
        id: NftId,
    },
}

const N_MINT: u8 = 0;
const N_TRANSFER: u8 = 1;
const N_APPROVE: u8 = 2;
const N_TRANSFER_FROM: u8 = 3;
const N_BURN: u8 = 4;

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
            Erc721Op::Transfer { id, to } => {
                enc.put_u8(N_TRANSFER);
                id.encode(enc);
                to.encode(enc);
            }
            Erc721Op::Approve { id, approved } => {
                enc.put_u8(N_APPROVE);
                id.encode(enc);
                enc.put_option(approved);
            }
            Erc721Op::TransferFrom { id, to } => {
                enc.put_u8(N_TRANSFER_FROM);
                id.encode(enc);
                to.encode(enc);
            }
            Erc721Op::Burn { id } => {
                enc.put_u8(N_BURN);
                id.encode(enc);
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
            N_TRANSFER => Ok(Erc721Op::Transfer {
                id: NftId::decode(dec)?,
                to: Address::decode(dec)?,
            }),
            N_APPROVE => Ok(Erc721Op::Approve {
                id: NftId::decode(dec)?,
                approved: dec.get_option()?,
            }),
            N_TRANSFER_FROM => Ok(Erc721Op::TransferFrom {
                id: NftId::decode(dec)?,
                to: Address::decode(dec)?,
            }),
            N_BURN => Ok(Erc721Op::Burn {
                id: NftId::decode(dec)?,
            }),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// Errors from NFT operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NftError {
    /// Token does not exist.
    UnknownToken,
    /// Caller is neither owner nor approved.
    NotAuthorized,
    /// The same content hash was already minted for this asset kind.
    DuplicateContent,
}

impl std::fmt::Display for NftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NftError::UnknownToken => write!(f, "unknown NFT"),
            NftError::NotAuthorized => write!(f, "caller not owner or approved"),
            NftError::DuplicateContent => write!(f, "content hash already minted"),
        }
    }
}

impl std::error::Error for NftError {}

/// Metadata stored for one NFT.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NftInfo {
    /// Current owner.
    pub owner: Address,
    /// Asset class.
    pub kind: AssetKind,
    /// Committed content hash.
    pub content: Digest,
    /// Display label.
    pub label: String,
    /// Approved taker, if any.
    pub approved: Option<Address>,
}

/// The ERC-721 module holding every NFT on the chain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Erc721Module {
    tokens: BTreeMap<NftId, NftInfo>,
    /// Duplicate-prevention index: (kind tag, content) -> id.
    by_content: BTreeMap<(u8, Digest), NftId>,
    next_id: u64,
}

fn kind_tag(kind: AssetKind) -> u8 {
    match kind {
        AssetKind::Dataset => 0,
        AssetKind::WorkloadCode => 1,
        AssetKind::Other => 2,
    }
}

impl Erc721Module {
    /// Applies an operation on behalf of `sender`.
    pub fn apply(
        &mut self,
        sender: Address,
        op: &Erc721Op,
        events: &mut EventSink,
    ) -> Result<Option<NftId>, NftError> {
        match op {
            Erc721Op::Mint {
                kind,
                content,
                label,
            } => {
                let key = (kind_tag(*kind), *content);
                if self.by_content.contains_key(&key) {
                    return Err(NftError::DuplicateContent);
                }
                let id = NftId(self.next_id);
                self.next_id += 1;
                self.tokens.insert(
                    id,
                    NftInfo {
                        owner: sender,
                        kind: *kind,
                        content: *content,
                        label: label.clone(),
                        approved: None,
                    },
                );
                self.by_content.insert(key, id);
                events.emit(Event::token(
                    "erc721.mint",
                    format!("id={} owner={sender} content={}", id.0, content.short()),
                ));
                Ok(Some(id))
            }
            Erc721Op::Transfer { id, to } => {
                let info = self.tokens.get_mut(id).ok_or(NftError::UnknownToken)?;
                if info.owner != sender {
                    return Err(NftError::NotAuthorized);
                }
                info.owner = *to;
                info.approved = None;
                events.emit(Event::token(
                    "erc721.transfer",
                    format!("id={} from={sender} to={to}", id.0),
                ));
                Ok(None)
            }
            Erc721Op::Approve { id, approved } => {
                let info = self.tokens.get_mut(id).ok_or(NftError::UnknownToken)?;
                if info.owner != sender {
                    return Err(NftError::NotAuthorized);
                }
                info.approved = *approved;
                Ok(None)
            }
            Erc721Op::TransferFrom { id, to } => {
                let info = self.tokens.get_mut(id).ok_or(NftError::UnknownToken)?;
                if info.approved != Some(sender) {
                    return Err(NftError::NotAuthorized);
                }
                let from = info.owner;
                info.owner = *to;
                info.approved = None;
                events.emit(Event::token(
                    "erc721.transfer_from",
                    format!("id={} from={from} to={to} by={sender}", id.0),
                ));
                Ok(None)
            }
            Erc721Op::Burn { id } => {
                let info = self.tokens.get(id).ok_or(NftError::UnknownToken)?;
                if info.owner != sender {
                    return Err(NftError::NotAuthorized);
                }
                let key = (kind_tag(info.kind), info.content);
                self.tokens.remove(id);
                self.by_content.remove(&key);
                events.emit(Event::token("erc721.burn", format!("id={}", id.0)));
                Ok(None)
            }
        }
    }

    /// The leaves `op` can have written, `created` being the id
    /// [`Self::apply`] returned. Failed NFT ops do not mutate, but the
    /// token is named either way: recomputing an untouched leaf is a no-op.
    pub(crate) fn touched_leaves(op: &Erc721Op, created: Option<NftId>) -> Vec<LeafKey> {
        match *op {
            Erc721Op::Mint { .. } => created.map_or(Vec::new(), |id| {
                vec![LeafKey::Erc721Next, LeafKey::Erc721Token(id)]
            }),
            Erc721Op::Transfer { id, .. }
            | Erc721Op::Approve { id, .. }
            | Erc721Op::TransferFrom { id, .. }
            | Erc721Op::Burn { id } => vec![LeafKey::Erc721Token(id)],
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
        self.by_content.get(&(kind_tag(kind), *content)).copied()
    }

    /// Number of live tokens.
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
        enc.put_option(&self.approved);
    }
}

impl Decode for NftInfo {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(NftInfo {
            owner: Address::decode(dec)?,
            kind: AssetKind::decode(dec)?,
            content: dec.get_digest()?,
            label: dec.get_str()?,
            approved: dec.get_option()?,
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
            by_content.insert((kind_tag(info.kind), info.content), id);
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
        )
        .unwrap()
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
                &mut ev
            )
            .unwrap_err(),
            NftError::DuplicateContent
        );
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
        )
        .unwrap();
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn transfer_requires_ownership() {
        let mut m = Erc721Module::default();
        let (alice, bob) = (addr(1), addr(2));
        let id = mint(&mut m, alice, "data");
        let mut ev = EventSink::new();
        assert_eq!(
            m.apply(bob, &Erc721Op::Transfer { id, to: bob }, &mut ev)
                .unwrap_err(),
            NftError::NotAuthorized
        );
        m.apply(alice, &Erc721Op::Transfer { id, to: bob }, &mut ev)
            .unwrap();
        assert_eq!(m.owner_of(id), Some(bob));
    }

    #[test]
    fn approval_workflow() {
        let mut m = Erc721Module::default();
        let (alice, bob, carol) = (addr(1), addr(2), addr(3));
        let id = mint(&mut m, alice, "data");
        let mut ev = EventSink::new();
        m.apply(
            alice,
            &Erc721Op::Approve {
                id,
                approved: Some(bob),
            },
            &mut ev,
        )
        .unwrap();
        // Carol is not approved.
        assert_eq!(
            m.apply(carol, &Erc721Op::TransferFrom { id, to: carol }, &mut ev)
                .unwrap_err(),
            NftError::NotAuthorized
        );
        m.apply(bob, &Erc721Op::TransferFrom { id, to: carol }, &mut ev)
            .unwrap();
        assert_eq!(m.owner_of(id), Some(carol));
        // Approval cleared on transfer.
        assert_eq!(
            m.apply(bob, &Erc721Op::TransferFrom { id, to: bob }, &mut ev)
                .unwrap_err(),
            NftError::NotAuthorized
        );
    }

    #[test]
    fn burn_frees_content() {
        let mut m = Erc721Module::default();
        let alice = addr(1);
        let id = mint(&mut m, alice, "data");
        let mut ev = EventSink::new();
        m.apply(alice, &Erc721Op::Burn { id }, &mut ev).unwrap();
        assert_eq!(m.owner_of(id), None);
        assert_eq!(m.count(), 0);
        // Content can be minted again after burn.
        let id2 = mint(&mut m, alice, "data");
        assert_ne!(id, id2, "ids are never reused");
    }

    #[test]
    fn op_codec_roundtrip() {
        let ops = vec![
            Erc721Op::Mint {
                kind: AssetKind::WorkloadCode,
                content: sha256(b"x"),
                label: "l".into(),
            },
            Erc721Op::Transfer {
                id: NftId(3),
                to: addr(1),
            },
            Erc721Op::Approve {
                id: NftId(3),
                approved: None,
            },
            Erc721Op::TransferFrom {
                id: NftId(3),
                to: addr(2),
            },
            Erc721Op::Burn { id: NftId(9) },
        ];
        for op in ops {
            assert_eq!(Erc721Op::from_bytes(&op.to_bytes()).unwrap(), op);
        }
    }
}
