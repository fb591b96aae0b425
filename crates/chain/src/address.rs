//! Chain addresses and account primitives.
//!
//! An address is the SHA-256 digest of a Schnorr public key, mirroring
//! Ethereum's keccak(pubkey) derivation. Contract instances get synthetic
//! addresses derived from (deployer, nonce).

use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use pds2_crypto::schnorr::PublicKey;
use pds2_crypto::sha256::{sha256, Digest, Sha256};

/// A chain address (hash of a public key, or synthetic for contracts).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Address(pub Digest);

impl Address {
    /// Derives the address of an externally-owned account.
    pub fn of(pk: &PublicKey) -> Address {
        Address(sha256(&pk.to_bytes()))
    }

    /// Derives a contract address from its deployer and the deployer's
    /// transaction nonce.
    pub fn contract(deployer: &Address, nonce: u64) -> Address {
        let mut h = Sha256::new();
        h.update(b"pds2-contract-address");
        h.update(deployer.0.as_bytes());
        h.update(&nonce.to_le_bytes());
        Address(h.finalize())
    }

    /// Short display form.
    pub fn short(&self) -> String {
        format!("0x{}", self.0.short())
    }
}

impl std::fmt::Debug for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Address({})", self.short())
    }
}

impl std::fmt::Display for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("0x")?;
        f.write_str(&self.0.short())
    }
}

impl Encode for Address {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_digest(&self.0);
    }
}

impl Decode for Address {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Address(dec.get_digest()?))
    }
}

/// The balance/nonce state of one account.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Account {
    /// Native-token balance (smallest unit).
    pub balance: u128,
    /// Number of transactions sent from this account.
    pub nonce: u64,
}

impl Encode for Account {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u128(self.balance);
        enc.put_u64(self.nonce);
    }
}

impl Decode for Account {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Account {
            balance: dec.get_u128()?,
            nonce: dec.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds2_crypto::KeyPair;

    #[test]
    fn address_is_deterministic() {
        let kp = KeyPair::from_seed(1);
        assert_eq!(Address::of(&kp.public), Address::of(&kp.public));
    }

    #[test]
    fn distinct_keys_distinct_addresses() {
        let a = Address::of(&KeyPair::from_seed(1).public);
        let b = Address::of(&KeyPair::from_seed(2).public);
        assert_ne!(a, b);
    }

    #[test]
    fn contract_addresses_depend_on_deployer_and_nonce() {
        let deployer = Address::of(&KeyPair::from_seed(1).public);
        let other = Address::of(&KeyPair::from_seed(2).public);
        assert_ne!(
            Address::contract(&deployer, 0),
            Address::contract(&deployer, 1)
        );
        assert_ne!(
            Address::contract(&deployer, 0),
            Address::contract(&other, 0)
        );
    }

    #[test]
    fn codec_roundtrip() {
        let a = Address::of(&KeyPair::from_seed(3).public);
        assert_eq!(Address::from_bytes(&a.to_bytes()).unwrap(), a);
        let acct = Account {
            balance: 12345,
            nonce: 7,
        };
        assert_eq!(Account::from_bytes(&acct.to_bytes()).unwrap(), acct);
    }
}
