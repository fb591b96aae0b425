//! Transactions: payload kinds, signing and verification.

use crate::address::Address;
use crate::erc20::Erc20Op;
use crate::erc721::Erc721Op;
use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use pds2_crypto::schnorr::{KeyPair, PublicKey, Signature};
use pds2_crypto::sha256::{sha256, Digest};
use std::sync::OnceLock;

/// What a transaction does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxKind {
    /// Native-token transfer.
    Transfer {
        /// Recipient.
        to: Address,
        /// Amount in smallest units.
        amount: u128,
    },
    /// Deploys an instance of a registered contract type.
    Deploy {
        /// Name of the registered contract type.
        code_id: String,
        /// Constructor input (contract-defined encoding).
        init: Vec<u8>,
    },
    /// Calls a deployed contract.
    Call {
        /// Contract instance address.
        contract: Address,
        /// Call input (contract-defined encoding).
        input: Vec<u8>,
        /// Native tokens attached to the call (escrowed to the contract).
        value: u128,
    },
    /// Fungible-token module operation (ERC-20 analogue).
    Erc20(Erc20Op),
    /// Non-fungible-token module operation (ERC-721 analogue).
    Erc721(Erc721Op),
}

const TAG_TRANSFER: u8 = 0;
const TAG_DEPLOY: u8 = 1;
const TAG_CALL: u8 = 2;
const TAG_ERC20: u8 = 3;
const TAG_ERC721: u8 = 4;

impl Encode for TxKind {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            TxKind::Transfer { to, amount } => {
                enc.put_u8(TAG_TRANSFER);
                to.encode(enc);
                enc.put_u128(*amount);
            }
            TxKind::Deploy { code_id, init } => {
                enc.put_u8(TAG_DEPLOY);
                enc.put_str(code_id);
                enc.put_bytes(init);
            }
            TxKind::Call {
                contract,
                input,
                value,
            } => {
                enc.put_u8(TAG_CALL);
                contract.encode(enc);
                enc.put_bytes(input);
                enc.put_u128(*value);
            }
            TxKind::Erc20(op) => {
                enc.put_u8(TAG_ERC20);
                op.encode(enc);
            }
            TxKind::Erc721(op) => {
                enc.put_u8(TAG_ERC721);
                op.encode(enc);
            }
        }
    }
}

impl Decode for TxKind {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            TAG_TRANSFER => Ok(TxKind::Transfer {
                to: Address::decode(dec)?,
                amount: dec.get_u128()?,
            }),
            TAG_DEPLOY => Ok(TxKind::Deploy {
                code_id: dec.get_str()?,
                init: dec.get_bytes()?,
            }),
            TAG_CALL => Ok(TxKind::Call {
                contract: Address::decode(dec)?,
                input: dec.get_bytes()?,
                value: dec.get_u128()?,
            }),
            TAG_ERC20 => Ok(TxKind::Erc20(Erc20Op::decode(dec)?)),
            TAG_ERC721 => Ok(TxKind::Erc721(Erc721Op::decode(dec)?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// An unsigned transaction body.
///
/// Fees follow the EIP-1559 two-dimensional model: the sender commits to
/// an absolute ceiling (`max_fee_per_gas`) and a tip for the proposer
/// (`priority_fee_per_gas`). At a block base fee `b` the transaction is
/// includable iff `max_fee_per_gas >= b`, and then pays
/// `min(max_fee_per_gas, b + priority_fee_per_gas)` per unit of gas: the
/// `b` portion is burned, the remainder goes to the proposer. Both fields
/// zero reproduces the legacy free-transaction behaviour as long as the
/// base fee is zero (the default chain configuration).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// Sender's public key (the address is derived from it).
    pub from: PublicKey,
    /// Sender's account nonce at submission.
    pub nonce: u64,
    /// The operation.
    pub kind: TxKind,
    /// Gas budget for execution.
    pub gas_limit: u64,
    /// Absolute ceiling on the per-gas price the sender will pay
    /// (base fee + tip combined).
    pub max_fee_per_gas: u64,
    /// Per-gas tip offered to the block proposer on top of the base fee.
    pub priority_fee_per_gas: u64,
}

impl Transaction {
    /// Sender address.
    pub fn sender(&self) -> Address {
        Address::of(&self.from)
    }

    /// The per-gas price this transaction pays at `base_fee`, or `None`
    /// if its fee ceiling is below the base fee (not includable).
    pub fn effective_gas_price(&self, base_fee: u64) -> Option<u64> {
        if self.max_fee_per_gas < base_fee {
            return None;
        }
        Some(
            self.max_fee_per_gas
                .min(base_fee.saturating_add(self.priority_fee_per_gas)),
        )
    }

    /// The per-gas proposer tip at `base_fee` (`None` if not includable).
    pub fn effective_tip(&self, base_fee: u64) -> Option<u64> {
        self.effective_gas_price(base_fee).map(|p| p - base_fee)
    }

    /// Canonical hash of the unsigned body (what gets signed).
    pub fn hash(&self) -> Digest {
        self.content_hash()
    }

    /// Signs with `keys` (whose public key must equal `self.from`).
    pub fn sign(self, keys: &KeyPair) -> SignedTransaction {
        assert_eq!(
            keys.public, self.from,
            "signing key does not match tx sender"
        );
        let sig = keys.sign(self.hash().as_bytes());
        SignedTransaction::new(self, sig)
    }
}

impl Encode for Transaction {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(b"pds2-tx-v2");
        self.from.encode(enc);
        enc.put_u64(self.nonce);
        self.kind.encode(enc);
        enc.put_u64(self.gas_limit);
        enc.put_u64(self.max_fee_per_gas);
        enc.put_u64(self.priority_fee_per_gas);
    }
}

impl Decode for Transaction {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let magic = dec.get_raw(10)?;
        if magic != b"pds2-tx-v2" {
            return Err(DecodeError::Invalid("bad tx magic"));
        }
        Ok(Transaction {
            from: PublicKey::decode(dec)?,
            nonce: dec.get_u64()?,
            kind: TxKind::decode(dec)?,
            gas_limit: dec.get_u64()?,
            max_fee_per_gas: dec.get_u64()?,
            priority_fee_per_gas: dec.get_u64()?,
        })
    }
}

/// A signed transaction ready for submission.
///
/// The body digest and the sender address are computed lazily and
/// cached: admission, the mempool, signature verification, execution and
/// Merkle-root construction all need them, so a transaction's body and
/// its sender key are each hashed exactly once per copy. The caches are
/// write-once — mutating `tx` after either has been observed (possible
/// because the fields are public) leaves a stale cache and is unsupported
/// outside tamper-style tests that mutate before the first `hash()` /
/// `sender()` call.
#[derive(Clone, Debug)]
pub struct SignedTransaction {
    /// The signed body.
    pub tx: Transaction,
    /// Schnorr signature over the body hash.
    pub signature: Signature,
    /// Lazily-computed digest and encoded length of `tx` (excluded from
    /// equality). The length is held in 32 bits, saturating, because every
    /// copy of a transaction in a block, a pool or a journal replay
    /// carries this cell.
    cached_body: OnceLock<(Digest, u32)>,
    /// Lazily-computed `Address::of(&tx.from)` (excluded from equality).
    cached_sender: OnceLock<Address>,
}

impl PartialEq for SignedTransaction {
    fn eq(&self, other: &Self) -> bool {
        self.tx == other.tx && self.signature == other.signature
    }
}

impl Eq for SignedTransaction {}

impl SignedTransaction {
    /// Wraps a body and its signature (digest computed on first use).
    pub fn new(tx: Transaction, signature: Signature) -> SignedTransaction {
        SignedTransaction {
            tx,
            signature,
            cached_body: OnceLock::new(),
            cached_sender: OnceLock::new(),
        }
    }

    fn body(&self) -> (Digest, u32) {
        *self.cached_body.get_or_init(|| {
            let bytes = self.tx.to_bytes();
            let len = u32::try_from(bytes.len()).unwrap_or(u32::MAX);
            (sha256(&bytes), len)
        })
    }

    /// The transaction hash (identifier), cached after the first call.
    pub fn hash(&self) -> Digest {
        self.body().0
    }

    /// Length of the canonical encoding of the unsigned body, which
    /// intrinsic gas is priced on; learnt when the body was hashed.
    pub(crate) fn body_len(&self) -> usize {
        match self.body().1 {
            // Saturated: a body of 4 GiB or more is measured again.
            u32::MAX => self.tx.to_bytes().len(),
            len => len as usize,
        }
    }

    /// Sender address, cached after the first call.
    pub fn sender(&self) -> Address {
        *self.cached_sender.get_or_init(|| self.tx.sender())
    }

    /// Verifies the signature against the embedded sender key.
    ///
    /// Routed through [`crate::sigcache`]: a triple this process already
    /// accepted (e.g. during sync replay or fork choice) short-circuits;
    /// everything else runs the full Schnorr check.
    pub fn verify_signature(&self) -> bool {
        crate::sigcache::verify_cached(self.hash().as_bytes(), &self.tx.from, &self.signature)
    }
}

impl Encode for SignedTransaction {
    fn encode(&self, enc: &mut Encoder) {
        self.tx.encode(enc);
        self.signature.encode(enc);
    }
}

impl Decode for SignedTransaction {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(SignedTransaction::new(
            Transaction::decode(dec)?,
            Signature::decode(dec)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erc20::TokenId;

    fn sample_tx(seed: u64, nonce: u64) -> Transaction {
        let kp = KeyPair::from_seed(seed);
        Transaction {
            from: kp.public.clone(),
            nonce,
            kind: TxKind::Transfer {
                to: Address::of(&KeyPair::from_seed(99).public),
                amount: 1000,
            },
            gas_limit: 50_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(1);
        let signed = sample_tx(1, 0).sign(&kp);
        assert!(signed.verify_signature());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn signing_with_wrong_key_panics() {
        let other = KeyPair::from_seed(2);
        let _ = sample_tx(1, 0).sign(&other);
    }

    #[test]
    fn tampered_tx_fails_verification() {
        let kp = KeyPair::from_seed(1);
        let mut signed = sample_tx(1, 0).sign(&kp);
        signed.tx.nonce = 5;
        assert!(!signed.verify_signature());
    }

    #[test]
    fn tampered_amount_fails_verification() {
        let kp = KeyPair::from_seed(1);
        let mut signed = sample_tx(1, 0).sign(&kp);
        if let TxKind::Transfer { amount, .. } = &mut signed.tx.kind {
            *amount = u128::MAX;
        }
        assert!(!signed.verify_signature());
    }

    #[test]
    fn all_kinds_roundtrip_codec() {
        let kp = KeyPair::from_seed(3);
        let to = Address::of(&KeyPair::from_seed(4).public);
        let kinds = vec![
            TxKind::Transfer { to, amount: 5 },
            TxKind::Deploy {
                code_id: "workload".into(),
                init: vec![1, 2, 3],
            },
            TxKind::Call {
                contract: Address::contract(&to, 0),
                input: vec![9, 9],
                value: 77,
            },
            TxKind::Erc20(Erc20Op::Transfer {
                token: TokenId(7),
                to,
                amount: 3,
            }),
        ];
        for kind in kinds {
            let tx = Transaction {
                from: kp.public.clone(),
                nonce: 1,
                kind,
                gas_limit: 10,
                max_fee_per_gas: 7,
                priority_fee_per_gas: 2,
            };
            let signed = tx.clone().sign(&kp);
            let bytes = signed.to_bytes();
            let back = SignedTransaction::from_bytes(&bytes).unwrap();
            assert_eq!(back, signed);
            assert!(back.verify_signature());
        }
    }

    #[test]
    fn hash_distinguishes_transactions() {
        assert_ne!(sample_tx(1, 0).hash(), sample_tx(1, 1).hash());
        assert_ne!(sample_tx(1, 0).hash(), sample_tx(2, 0).hash());
        // Fee fields are part of the signed body.
        let mut bumped = sample_tx(1, 0);
        bumped.max_fee_per_gas = 9;
        assert_ne!(bumped.hash(), sample_tx(1, 0).hash());
    }

    #[test]
    fn effective_gas_price_follows_eip1559() {
        let mut tx = sample_tx(1, 0);
        tx.max_fee_per_gas = 100;
        tx.priority_fee_per_gas = 10;
        // Below the cap: base + tip.
        assert_eq!(tx.effective_gas_price(50), Some(60));
        assert_eq!(tx.effective_tip(50), Some(10));
        // Tip squeezed by the cap.
        assert_eq!(tx.effective_gas_price(95), Some(100));
        assert_eq!(tx.effective_tip(95), Some(5));
        // At the cap exactly: tip fully squeezed out.
        assert_eq!(tx.effective_gas_price(100), Some(100));
        assert_eq!(tx.effective_tip(100), Some(0));
        // Cap below the base fee: not includable.
        assert_eq!(tx.effective_gas_price(101), None);
        assert_eq!(tx.effective_tip(101), None);
        // Legacy zero-fee transaction at zero base fee stays free.
        let free = sample_tx(1, 0);
        assert_eq!(free.effective_gas_price(0), Some(0));
        assert_eq!(free.effective_gas_price(1), None);
    }

    #[test]
    fn bad_magic_rejected() {
        let kp = KeyPair::from_seed(1);
        let signed = sample_tx(1, 0).sign(&kp);
        let mut bytes = signed.to_bytes();
        bytes[0] ^= 0xff;
        assert!(SignedTransaction::from_bytes(&bytes).is_err());
    }
}
