//! Remote attestation for simulated enclaves.
//!
//! Each [`Platform`](crate::platform::Platform) owns a hardware root key
//! (the analogue of the SGX attestation key provisioned by Intel). A
//! [`Quote`] binds an enclave measurement and caller-chosen report data to
//! that key. Verifiers check the signature against the platform vendor's
//! registry and consult a revocation list — the PDS² governance layer
//! rejects executors whose platforms have been revoked.

use crate::measurement::Measurement;
use pds2_crypto::codec::Encoder;
use pds2_crypto::schnorr::{KeyPair, PublicKey, Signature};
use pds2_crypto::sha256::Digest;
use std::collections::{HashMap, HashSet};

/// Identifier of a hardware platform (hash of its attestation public key).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PlatformId(pub Digest);

impl std::fmt::Display for PlatformId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "platform:{}", self.0.short())
    }
}

impl PlatformId {
    /// Derives the platform id from its attestation public key.
    pub fn of(pk: &PublicKey) -> PlatformId {
        PlatformId(pds2_crypto::sha256::sha256(&pk.to_bytes()))
    }
}

/// An attestation quote: proof that `measurement` runs on `platform` and
/// asserted `report_data` from inside the enclave.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Quote {
    /// The quoted enclave's measurement.
    pub measurement: Measurement,
    /// Issuing platform.
    pub platform: PlatformId,
    /// 32 bytes of caller data (e.g. a key-exchange commitment).
    pub report_data: Digest,
    /// Signature by the platform's hardware key.
    pub signature: Signature,
}

impl Quote {
    fn signing_payload(
        measurement: &Measurement,
        platform: &PlatformId,
        report_data: &Digest,
    ) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_raw(b"pds2-quote-v1");
        enc.put_digest(&measurement.0);
        enc.put_digest(&platform.0);
        enc.put_digest(report_data);
        enc.finish()
    }

    /// Issues a quote with the platform's hardware key (crate-internal:
    /// only `Platform` can sign).
    pub(crate) fn issue(hw_key: &KeyPair, measurement: Measurement, report_data: Digest) -> Quote {
        let platform = PlatformId::of(&hw_key.public);
        let payload = Self::signing_payload(&measurement, &platform, &report_data);
        Quote {
            measurement,
            platform,
            report_data,
            signature: hw_key.sign(&payload),
        }
    }
}

/// Why quote verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttestationError {
    /// The platform is not registered with the verifier.
    UnknownPlatform,
    /// The platform appears on the revocation list.
    RevokedPlatform,
    /// The quote signature does not verify.
    BadSignature,
    /// The measurement does not match the expected workload code.
    MeasurementMismatch {
        /// What the verifier expected.
        expected: Measurement,
        /// What the quote carried.
        got: Measurement,
    },
}

impl std::fmt::Display for AttestationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttestationError::UnknownPlatform => write!(f, "unknown platform"),
            AttestationError::RevokedPlatform => write!(f, "revoked platform"),
            AttestationError::BadSignature => write!(f, "invalid quote signature"),
            AttestationError::MeasurementMismatch { expected, got } => {
                write!(f, "measurement mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for AttestationError {}

/// The attestation verifier: knows registered platforms and revocations
/// (the analogue of Intel's attestation service and TCB recovery lists).
#[derive(Default, Clone, Debug)]
pub struct AttestationService {
    platforms: HashMap<PlatformId, PublicKey>,
    revoked: HashSet<PlatformId>,
}

impl AttestationService {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a platform's attestation public key.
    pub fn register_platform(&mut self, pk: PublicKey) -> PlatformId {
        let id = PlatformId::of(&pk);
        self.platforms.insert(id, pk);
        id
    }

    /// Puts a platform on the revocation list (e.g. after a disclosed
    /// side-channel compromise).
    pub fn revoke(&mut self, id: PlatformId) {
        self.revoked.insert(id);
    }

    /// Verifies a quote's signature and platform status.
    pub fn verify(&self, quote: &Quote) -> Result<(), AttestationError> {
        if self.revoked.contains(&quote.platform) {
            return Err(AttestationError::RevokedPlatform);
        }
        let pk = self
            .platforms
            .get(&quote.platform)
            .ok_or(AttestationError::UnknownPlatform)?;
        let payload =
            Quote::signing_payload(&quote.measurement, &quote.platform, &quote.report_data);
        if !pk.verify(&payload, &quote.signature) {
            return Err(AttestationError::BadSignature);
        }
        Ok(())
    }

    /// Verifies a quote *and* that it attests the expected code.
    pub fn verify_expecting(
        &self,
        quote: &Quote,
        expected: Measurement,
    ) -> Result<(), AttestationError> {
        self.verify(quote)?;
        if quote.measurement != expected {
            return Err(AttestationError::MeasurementMismatch {
                expected,
                got: quote.measurement,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds2_crypto::sha256::sha256;

    fn setup() -> (AttestationService, KeyPair, PlatformId) {
        let hw = KeyPair::from_seed(100);
        let mut svc = AttestationService::new();
        let id = svc.register_platform(hw.public.clone());
        (svc, hw, id)
    }

    #[test]
    fn valid_quote_verifies() {
        let (svc, hw, _) = setup();
        let m = Measurement::of(b"code", 1);
        let q = Quote::issue(&hw, m, sha256(b"report"));
        assert!(svc.verify(&q).is_ok());
        assert!(svc.verify_expecting(&q, m).is_ok());
    }

    #[test]
    fn unknown_platform_rejected() {
        let (svc, _, _) = setup();
        let rogue = KeyPair::from_seed(999);
        let q = Quote::issue(&rogue, Measurement::of(b"c", 1), sha256(b"r"));
        assert_eq!(svc.verify(&q), Err(AttestationError::UnknownPlatform));
    }

    #[test]
    fn revoked_platform_rejected() {
        let (mut svc, hw, id) = setup();
        svc.revoke(id);
        let q = Quote::issue(&hw, Measurement::of(b"c", 1), sha256(b"r"));
        assert_eq!(svc.verify(&q), Err(AttestationError::RevokedPlatform));
    }

    #[test]
    fn tampered_measurement_rejected() {
        let (svc, hw, _) = setup();
        let mut q = Quote::issue(&hw, Measurement::of(b"good", 1), sha256(b"r"));
        q.measurement = Measurement::of(b"evil", 1);
        assert_eq!(svc.verify(&q), Err(AttestationError::BadSignature));
    }

    #[test]
    fn tampered_report_data_rejected() {
        let (svc, hw, _) = setup();
        let mut q = Quote::issue(&hw, Measurement::of(b"c", 1), sha256(b"honest"));
        q.report_data = sha256(b"forged");
        assert_eq!(svc.verify(&q), Err(AttestationError::BadSignature));
    }

    #[test]
    fn measurement_mismatch_detected() {
        let (svc, hw, _) = setup();
        let actual = Measurement::of(b"running-code", 1);
        let expected = Measurement::of(b"approved-code", 1);
        let q = Quote::issue(&hw, actual, sha256(b"r"));
        match svc.verify_expecting(&q, expected) {
            Err(AttestationError::MeasurementMismatch { expected: e, got }) => {
                assert_eq!(e, expected);
                assert_eq!(got, actual);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn quote_from_one_platform_not_valid_as_another() {
        let (mut svc, hw1, _) = setup();
        let hw2 = KeyPair::from_seed(101);
        let id2 = svc.register_platform(hw2.public.clone());
        let mut q = Quote::issue(&hw1, Measurement::of(b"c", 1), sha256(b"r"));
        q.platform = id2; // claim it came from platform 2
        assert_eq!(svc.verify(&q), Err(AttestationError::BadSignature));
    }
}
