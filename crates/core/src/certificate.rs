//! Participation certificates (Fig. 2).
//!
//! "Once providers accept, they have to identify available executors and
//! submit their data to them, along with certificates confirming that they
//! have indeed accepted to participate in the workload. … the governance
//! layer uses this information to track the contributions of different
//! providers, for the purpose of rewarding them."

use pds2_chain::address::Address;
use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use pds2_crypto::schnorr::{KeyPair, PublicKey, Signature};
use pds2_crypto::sha256::{Digest, DIGEST_LEN};
use pds2_storage::store::RecordId;

/// A provider's signed consent to participate in one workload through one
/// executor, covering a specific set of records.
#[derive(Clone, Debug, PartialEq)]
pub struct ParticipationCertificate {
    /// Consenting provider.
    pub provider: PublicKey,
    /// Marketplace workload id.
    pub workload_id: u64,
    /// On-chain workload contract address (binds the cert to the chain).
    pub contract: Address,
    /// The records the provider submits.
    pub records: Vec<RecordId>,
    /// Total readings contained in those records.
    pub n_readings: u64,
    /// The executor entrusted with the data.
    pub executor: Address,
    /// Logical expiry.
    pub expires_at: u64,
    /// Provider signature over all fields above.
    pub signature: Signature,
}

impl ParticipationCertificate {
    fn payload(
        provider: &PublicKey,
        workload_id: u64,
        contract: &Address,
        records: &[RecordId],
        n_readings: u64,
        executor: &Address,
        expires_at: u64,
    ) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_raw(b"pds2-cert-v1");
        provider.encode(&mut enc);
        enc.put_u64(workload_id);
        contract.encode(&mut enc);
        enc.put_u64(records.len() as u64);
        for r in records {
            enc.put_digest(&r.0);
        }
        enc.put_u64(n_readings);
        executor.encode(&mut enc);
        enc.put_u64(expires_at);
        enc.finish()
    }

    /// Issues a signed certificate.
    #[allow(clippy::too_many_arguments)]
    pub fn issue(
        provider: &KeyPair,
        workload_id: u64,
        contract: Address,
        records: Vec<RecordId>,
        n_readings: u64,
        executor: Address,
        expires_at: u64,
    ) -> ParticipationCertificate {
        let payload = Self::payload(
            &provider.public,
            workload_id,
            &contract,
            &records,
            n_readings,
            &executor,
            expires_at,
        );
        ParticipationCertificate {
            provider: provider.public.clone(),
            workload_id,
            contract,
            records,
            n_readings,
            executor,
            expires_at,
            signature: provider.sign(&payload),
        }
    }

    /// Verifies the signature and the binding to a workload/executor.
    pub fn verify(&self, workload_id: u64, contract: Address, executor: Address, now: u64) -> bool {
        if self.workload_id != workload_id
            || self.contract != contract
            || self.executor != executor
            || now > self.expires_at
        {
            return false;
        }
        let payload = Self::payload(
            &self.provider,
            self.workload_id,
            &self.contract,
            &self.records,
            self.n_readings,
            &self.executor,
            self.expires_at,
        );
        self.provider.verify(&payload, &self.signature)
    }

    /// The hash recorded on-chain for audit.
    pub fn certificate_hash(&self) -> Digest {
        self.content_hash()
    }
}

impl Encode for ParticipationCertificate {
    fn encode(&self, enc: &mut Encoder) {
        self.provider.encode(enc);
        enc.put_u64(self.workload_id);
        self.contract.encode(enc);
        enc.put_u64(self.records.len() as u64);
        for r in &self.records {
            enc.put_digest(&r.0);
        }
        enc.put_u64(self.n_readings);
        self.executor.encode(enc);
        enc.put_u64(self.expires_at);
        self.signature.encode(enc);
    }
}

impl Decode for ParticipationCertificate {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let provider = PublicKey::decode(dec)?;
        let workload_id = dec.get_u64()?;
        let contract = Address::decode(dec)?;
        let n = dec.get_u64()?;
        let n = dec.bounded_count(n, DIGEST_LEN)?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push(RecordId(dec.get_digest()?));
        }
        Ok(ParticipationCertificate {
            provider,
            workload_id,
            contract,
            records,
            n_readings: dec.get_u64()?,
            executor: Address::decode(dec)?,
            expires_at: dec.get_u64()?,
            signature: Signature::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds2_crypto::sha256::sha256;

    fn sample() -> (KeyPair, ParticipationCertificate, Address, Address) {
        let provider = KeyPair::from_seed(1);
        let executor = Address::of(&KeyPair::from_seed(2).public);
        let contract = Address::contract(&executor, 0);
        let cert = ParticipationCertificate::issue(
            &provider,
            7,
            contract,
            vec![RecordId(sha256(b"r1")), RecordId(sha256(b"r2"))],
            120,
            executor,
            1000,
        );
        (provider, cert, contract, executor)
    }

    #[test]
    fn valid_certificate_verifies() {
        let (_, cert, contract, executor) = sample();
        assert!(cert.verify(7, contract, executor, 500));
    }

    #[test]
    fn wrong_scope_rejected() {
        let (_, cert, contract, executor) = sample();
        assert!(!cert.verify(8, contract, executor, 500), "wrong workload");
        let other = Address::contract(&executor, 9);
        assert!(!cert.verify(7, other, executor, 500), "wrong contract");
        assert!(!cert.verify(7, contract, Address::contract(&executor, 1), 500));
        assert!(!cert.verify(7, contract, executor, 2000), "expired");
    }

    #[test]
    fn tampered_records_rejected() {
        let (_, mut cert, contract, executor) = sample();
        cert.records.push(RecordId(sha256(b"injected")));
        assert!(!cert.verify(7, contract, executor, 500));
    }

    #[test]
    fn tampered_reading_count_rejected() {
        let (_, mut cert, contract, executor) = sample();
        cert.n_readings = 10_000; // inflate contribution for more reward
        assert!(!cert.verify(7, contract, executor, 500));
    }

    #[test]
    fn codec_roundtrip() {
        let (_, cert, contract, executor) = sample();
        let back = ParticipationCertificate::from_bytes(&cert.to_bytes()).unwrap();
        assert_eq!(back, cert);
        assert!(back.verify(7, contract, executor, 500));
        assert_eq!(back.certificate_hash(), cert.certificate_hash());
    }
}
