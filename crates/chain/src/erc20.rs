//! Fungible tokens — the ERC-20 analogue.
//!
//! §III-A: ERC-20 tokens "could be used to handle any kind of rewards
//! offered by the consumers, which would be split among the providers."
//! The module holds any number of independent tokens. A token is created
//! with its whole supply in the creator's balance and afterwards only
//! moves: a signed `Transfer` (the consumer escrowing a reward) or
//! [`Erc20Module::module_transfer`] from a native contract (the workload
//! contract paying it out).

use crate::address::Address;
use crate::backend::LeafKey;
use crate::event::{Event, EventSink};
use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use std::collections::BTreeMap;

/// Identifier of a fungible token.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TokenId(pub u64);

impl Encode for TokenId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.0);
    }
}

impl Decode for TokenId {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TokenId(dec.get_u64()?))
    }
}

/// Operations accepted by the ERC-20 module (carried inside transactions).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Erc20Op {
    /// Creates a new token with its whole supply in the sender's balance;
    /// the sender is recorded as its minter.
    Create {
        /// Token symbol for display.
        symbol: String,
        /// Initial supply minted to the sender.
        initial_supply: u128,
    },
    /// Transfers tokens from the sender.
    Transfer {
        /// Token to move.
        token: TokenId,
        /// Recipient.
        to: Address,
        /// Amount.
        amount: u128,
    },
}

// Tags 1 and 3–5 stay unassigned, so the two ops keep the bytes (and the
// transaction hashes) they always had; an unassigned tag is `InvalidTag`.
const T_CREATE: u8 = 0;
const T_TRANSFER: u8 = 2;

impl Encode for Erc20Op {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Erc20Op::Create {
                symbol,
                initial_supply,
            } => {
                enc.put_u8(T_CREATE);
                enc.put_str(symbol);
                enc.put_u128(*initial_supply);
            }
            Erc20Op::Transfer { token, to, amount } => {
                enc.put_u8(T_TRANSFER);
                token.encode(enc);
                to.encode(enc);
                enc.put_u128(*amount);
            }
        }
    }
}

impl Decode for Erc20Op {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            T_CREATE => Ok(Erc20Op::Create {
                symbol: dec.get_str()?,
                initial_supply: dec.get_u128()?,
            }),
            T_TRANSFER => Ok(Erc20Op::Transfer {
                token: TokenId::decode(dec)?,
                to: Address::decode(dec)?,
                amount: dec.get_u128()?,
            }),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// Errors from token operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenError {
    /// Token id does not exist.
    UnknownToken,
    /// Balance too low.
    InsufficientBalance,
}

impl std::fmt::Display for TokenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TokenError::UnknownToken => write!(f, "unknown token"),
            TokenError::InsufficientBalance => write!(f, "insufficient token balance"),
        }
    }
}

impl std::error::Error for TokenError {}

/// One fungible token's state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct TokenState {
    symbol: String,
    minter: Option<Address>,
    total_supply: u128,
    balances: BTreeMap<Address, u128>,
}

/// The ERC-20 module holding every fungible token on the chain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Erc20Module {
    tokens: BTreeMap<TokenId, TokenState>,
    next_id: u64,
}

impl Erc20Module {
    /// Applies an operation on behalf of `sender`, emitting events.
    pub fn apply(
        &mut self,
        sender: Address,
        op: &Erc20Op,
        events: &mut EventSink,
    ) -> Result<Option<TokenId>, TokenError> {
        match op {
            Erc20Op::Create {
                symbol,
                initial_supply,
            } => {
                let id = TokenId(self.next_id);
                self.next_id += 1;
                let mut state = TokenState {
                    symbol: symbol.clone(),
                    minter: Some(sender),
                    total_supply: *initial_supply,
                    ..Default::default()
                };
                if *initial_supply > 0 {
                    state.balances.insert(sender, *initial_supply);
                }
                self.tokens.insert(id, state);
                events.emit(Event::token(
                    "erc20.create",
                    format!("token={} symbol={symbol} supply={initial_supply}", id.0),
                ));
                Ok(Some(id))
            }
            Erc20Op::Transfer { token, to, amount } => {
                self.module_transfer(*token, sender, *to, *amount)?;
                events.emit(Event::token(
                    "erc20.transfer",
                    format!("token={} from={sender} to={to} amount={amount}", token.0),
                ));
                Ok(None)
            }
        }
    }

    /// The leaves `op` from `sender` can have written, `created` being the
    /// id [`Self::apply`] returned. To be marked on success AND failure: a
    /// failed `Transfer` still creates a zero balance entry for the sender
    /// (`entry().or_default()` precedes the check), and missing it would
    /// silently fork the root. Every marked leaf is recomputed from the
    /// live maps, so naming one that did not change is harmless.
    pub(crate) fn touched_leaves(
        sender: Address,
        op: &Erc20Op,
        created: Option<TokenId>,
    ) -> Vec<LeafKey> {
        use LeafKey::{Erc20Bal as Bal, Erc20Meta as Meta};
        match *op {
            Erc20Op::Create { .. } => created.map_or(Vec::new(), |id| {
                vec![LeafKey::Erc20Next, Meta(id), Bal(id, sender)]
            }),
            Erc20Op::Transfer { token, to, .. } => vec![Bal(token, sender), Bal(token, to)],
        }
    }

    /// Moves `amount` of `token` from one balance to another. Besides
    /// `Transfer` it serves, without a signed op, the trusted native
    /// contracts (e.g. the workload contract paying rewards from escrow).
    pub fn module_transfer(
        &mut self,
        token: TokenId,
        from: Address,
        to: Address,
        amount: u128,
    ) -> Result<(), TokenError> {
        let state = self
            .tokens
            .get_mut(&token)
            .ok_or(TokenError::UnknownToken)?;
        let from_bal = state.balances.entry(from).or_default();
        if *from_bal < amount {
            return Err(TokenError::InsufficientBalance);
        }
        *from_bal -= amount;
        *state.balances.entry(to).or_default() += amount;
        Ok(())
    }

    /// Balance query.
    pub fn balance_of(&self, token: TokenId, owner: &Address) -> u128 {
        self.tokens
            .get(&token)
            .and_then(|t| t.balances.get(owner).copied())
            .unwrap_or(0)
    }

    /// Total supply query.
    pub fn total_supply(&self, token: TokenId) -> Option<u128> {
        self.tokens.get(&token).map(|t| t.total_supply)
    }

    /// Token symbol query.
    pub fn symbol(&self, token: TokenId) -> Option<&str> {
        self.tokens.get(&token).map(|t| t.symbol.as_str())
    }

    /// The leaves this ledger has: the id counter once a token was
    /// created, and per token its metadata and every balance entry.
    /// Explicit zeros are entries: a failed transfer leaves one behind, and
    /// it must hash identically on every node.
    pub(crate) fn leaf_keys(&self) -> impl Iterator<Item = LeafKey> + '_ {
        let next = (self.next_id != 0).then_some(LeafKey::Erc20Next);
        next.into_iter()
            .chain(self.tokens.iter().flat_map(|(&id, t)| {
                let balances = t.balances.keys().map(move |a| LeafKey::Erc20Bal(id, *a));
                std::iter::once(LeafKey::Erc20Meta(id)).chain(balances)
            }))
    }

    /// Canonical value bytes of one of this ledger's leaves; `None` when
    /// the entry is absent or the key is not an ERC-20 one.
    pub(crate) fn leaf_value(&self, key: &LeafKey) -> Option<Vec<u8>> {
        let mut enc = Encoder::new();
        match key {
            LeafKey::Erc20Meta(t) => {
                let t = self.tokens.get(t)?;
                enc.put_str(&t.symbol);
                enc.put_option(&t.minter);
                enc.put_u128(t.total_supply);
            }
            LeafKey::Erc20Bal(t, a) => enc.put_u128(*self.tokens.get(t)?.balances.get(a)?),
            LeafKey::Erc20Next if self.next_id != 0 => enc.put_u64(self.next_id),
            _ => return None,
        }
        Some(enc.finish())
    }
}

// Snapshot codec (crash recovery).
impl Encode for Erc20Module {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.next_id);
        enc.put_u64(self.tokens.len() as u64);
        for (id, t) in &self.tokens {
            id.encode(enc);
            enc.put_str(&t.symbol);
            enc.put_option(&t.minter);
            enc.put_u128(t.total_supply);
            enc.put_u64(t.balances.len() as u64);
            for (addr, bal) in &t.balances {
                addr.encode(enc);
                enc.put_u128(*bal);
            }
        }
    }
}

impl Decode for Erc20Module {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let next_id = dec.get_u64()?;
        let n_tokens = dec.get_u64()? as usize;
        let mut tokens = BTreeMap::new();
        for _ in 0..n_tokens {
            let id = TokenId::decode(dec)?;
            let symbol = dec.get_str()?;
            let minter = dec.get_option()?;
            let total_supply = dec.get_u128()?;
            let mut balances = BTreeMap::new();
            for _ in 0..dec.get_u64()? {
                let addr = Address::decode(dec)?;
                balances.insert(addr, dec.get_u128()?);
            }
            tokens.insert(
                id,
                TokenState {
                    symbol,
                    minter,
                    total_supply,
                    balances,
                },
            );
        }
        Ok(Erc20Module { tokens, next_id })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds2_crypto::KeyPair;

    fn addr(seed: u64) -> Address {
        Address::of(&KeyPair::from_seed(seed).public)
    }

    fn create_token(m: &mut Erc20Module, minter: Address, supply: u128) -> TokenId {
        let mut events = EventSink::new();
        m.apply(
            minter,
            &Erc20Op::Create {
                symbol: "PDS".into(),
                initial_supply: supply,
            },
            &mut events,
        )
        .unwrap()
        .unwrap()
    }

    #[test]
    fn create_assigns_supply_to_creator() {
        let mut m = Erc20Module::default();
        let alice = addr(1);
        let id = create_token(&mut m, alice, 1000);
        assert_eq!(m.balance_of(id, &alice), 1000);
        assert_eq!(m.total_supply(id), Some(1000));
        assert_eq!(m.symbol(id), Some("PDS"));
    }

    #[test]
    fn transfer_moves_balance() {
        let mut m = Erc20Module::default();
        let (alice, bob) = (addr(1), addr(2));
        let id = create_token(&mut m, alice, 100);
        let mut ev = EventSink::new();
        m.apply(
            alice,
            &Erc20Op::Transfer {
                token: id,
                to: bob,
                amount: 30,
            },
            &mut ev,
        )
        .unwrap();
        assert_eq!(m.balance_of(id, &alice), 70);
        assert_eq!(m.balance_of(id, &bob), 30);
        assert_eq!(ev.events().len(), 1);
    }

    #[test]
    fn transfer_rejects_overdraft() {
        let mut m = Erc20Module::default();
        let (alice, bob) = (addr(1), addr(2));
        let id = create_token(&mut m, alice, 10);
        let mut ev = EventSink::new();
        let err = m
            .apply(
                alice,
                &Erc20Op::Transfer {
                    token: id,
                    to: bob,
                    amount: 11,
                },
                &mut ev,
            )
            .unwrap_err();
        assert_eq!(err, TokenError::InsufficientBalance);
        assert_eq!(m.balance_of(id, &alice), 10, "no partial effects");
    }

    #[test]
    fn unknown_token_rejected() {
        let mut m = Erc20Module::default();
        let mut ev = EventSink::new();
        assert_eq!(
            m.apply(
                addr(1),
                &Erc20Op::Transfer {
                    token: TokenId(42),
                    to: addr(2),
                    amount: 1
                },
                &mut ev
            )
            .unwrap_err(),
            TokenError::UnknownToken
        );
        // The retired Mint, Approve, TransferFrom and Burn tags are refused
        // whatever follows; 88 bytes would have held the longest body.
        for tag in [1, 3, 4, 5] {
            let mut bytes = [0; 89];
            bytes[0] = tag;
            assert_eq!(
                Erc20Op::from_bytes(&bytes),
                Err(DecodeError::InvalidTag(tag))
            );
        }
    }

    #[test]
    fn balance_conservation_under_transfers() {
        let mut m = Erc20Module::default();
        let holders: Vec<Address> = (1..=5).map(addr).collect();
        let id = create_token(&mut m, holders[0], 10_000);
        let mut ev = EventSink::new();
        // Shuffle tokens around.
        for i in 0..20 {
            let from = holders[i % 5];
            let to = holders[(i + 2) % 5];
            let _ = m.apply(
                from,
                &Erc20Op::Transfer {
                    token: id,
                    to,
                    amount: 100,
                },
                &mut ev,
            );
        }
        let total: u128 = holders.iter().map(|h| m.balance_of(id, h)).sum();
        assert_eq!(total, 10_000, "transfers must conserve supply");
    }
}
