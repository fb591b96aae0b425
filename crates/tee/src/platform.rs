//! The simulated hardware platform and its enclaves.
//!
//! A [`Platform`] models one SGX-capable machine: it owns a hardware
//! attestation key and a fused seal secret, launches [`Enclave`]s from
//! measured code, and charges every enclave call to the platform's
//! [`crate::cost::CostModel`].
//!
//! Sealing policy is MRENCLAVE-like: the sealing key is derived from the
//! platform secret *and* the enclave measurement, so data sealed by one
//! enclave version cannot be opened by different code — and never by the
//! (potentially hostile) platform owner, which is the property PDS² relies
//! on so that "trust in \[executors\] becomes unnecessary" (§II-E).

use crate::attestation::{PlatformId, Quote};
use crate::cost::{CostMeter, CostModel};
use crate::measurement::{EnclaveCode, Measurement};
use pds2_crypto::chacha20::{open as aead_open, seal as aead_seal, SealedBlob, KEY_LEN, NONCE_LEN};
use pds2_crypto::hmac::hkdf;
use pds2_crypto::schnorr::KeyPair;
use pds2_crypto::sha256::Digest;
use std::sync::Arc;

/// A simulated SGX-capable machine.
pub struct Platform {
    hw_key: KeyPair,
    seal_secret: [u8; KEY_LEN],
    /// Performance model used to charge enclave work.
    pub cost_model: CostModel,
}

impl Platform {
    /// Creates a platform with keys derived deterministically from `seed`.
    pub fn new(seed: u64, cost_model: CostModel) -> Arc<Platform> {
        let hw_key = KeyPair::from_seed(seed ^ 0x7ee_5eed);
        let secret = hkdf(b"pds2-platform-seal", &seed.to_le_bytes(), b"fuse", KEY_LEN);
        Arc::new(Platform {
            hw_key,
            seal_secret: secret.try_into().unwrap(),
            cost_model,
        })
    }

    /// The platform's identity (hash of its attestation public key).
    pub fn id(&self) -> PlatformId {
        PlatformId::of(&self.hw_key.public)
    }

    /// The attestation public key to register with an
    /// [`AttestationService`](crate::attestation::AttestationService).
    pub fn attestation_key(&self) -> pds2_crypto::schnorr::PublicKey {
        self.hw_key.public.clone()
    }

    /// Launches an enclave from measured code.
    pub fn launch(self: &Arc<Self>, code: &EnclaveCode) -> Enclave {
        Enclave {
            platform: Arc::clone(self),
            measurement: code.measurement(),
            name: code.name.clone(),
            meter: CostMeter::default(),
            seal_counter: 0,
        }
    }

    /// Derives the sealing key for a given measurement (platform-internal).
    fn sealing_key(&self, measurement: &Measurement) -> [u8; KEY_LEN] {
        hkdf(
            b"pds2-seal-key",
            &self.seal_secret,
            measurement.0.as_bytes(),
            KEY_LEN,
        )
        .try_into()
        .unwrap()
    }
}

/// A running enclave instance.
pub struct Enclave {
    platform: Arc<Platform>,
    measurement: Measurement,
    name: String,
    meter: CostMeter,
    seal_counter: u64,
}

impl Enclave {
    /// The enclave's measured identity.
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Accumulated simulated cost of this enclave's work.
    pub fn meter(&self) -> CostMeter {
        self.meter
    }

    /// Produces an attestation quote over `report_data`.
    ///
    /// Charges one enclave transition (the quote ecall).
    pub fn attest(&mut self, report_data: Digest) -> Quote {
        self.meter.charge(&self.platform.cost_model, 0, 0, 1);
        Quote::issue(&self.platform.hw_key, self.measurement, report_data)
    }

    /// Runs `f` "inside" the enclave, charging `plain_compute_ns` of work
    /// over `working_set_bytes` of enclave memory plus one transition.
    pub fn execute<T>(
        &mut self,
        plain_compute_ns: u64,
        working_set_bytes: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.meter.charge(
            &self.platform.cost_model,
            plain_compute_ns,
            working_set_bytes,
            1,
        );
        f()
    }

    /// Seals data to this enclave's identity on this platform.
    pub fn seal(&mut self, plaintext: &[u8]) -> SealedBlob {
        let key = self.platform.sealing_key(&self.measurement);
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..8].copy_from_slice(&self.seal_counter.to_le_bytes());
        self.seal_counter += 1;
        self.meter
            .charge(&self.platform.cost_model, 0, plaintext.len() as u64, 1);
        aead_seal(&key, nonce, plaintext)
    }

    /// Unseals data previously sealed by the *same code on the same
    /// platform*. Returns `None` on any mismatch or tampering.
    pub fn unseal(&mut self, blob: &SealedBlob) -> Option<Vec<u8>> {
        let key = self.platform.sealing_key(&self.measurement);
        self.meter.charge(
            &self.platform.cost_model,
            0,
            blob.ciphertext.len() as u64,
            1,
        );
        aead_open(&key, blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attestation::AttestationService;
    use pds2_crypto::sha256::sha256;

    fn platform(seed: u64) -> Arc<Platform> {
        Platform::new(seed, CostModel::default())
    }

    fn code(name: &str, v: u32) -> EnclaveCode {
        EnclaveCode::new(name, v, format!("binary-of-{name}-v{v}").into_bytes())
    }

    #[test]
    fn launch_records_measurement() {
        let p = platform(1);
        let c = code("trainer", 1);
        let e = p.launch(&c);
        assert_eq!(e.measurement(), c.measurement());
        assert_eq!(e.name(), "trainer");
    }

    #[test]
    fn attest_and_verify_end_to_end() {
        let p = platform(2);
        let mut svc = AttestationService::new();
        svc.register_platform(p.attestation_key());
        let c = code("trainer", 1);
        let mut e = p.launch(&c);
        let q = e.attest(sha256(b"session-key-commitment"));
        svc.verify_expecting(&q, c.measurement()).unwrap();
        assert_eq!(e.meter().transitions, 1);
    }

    #[test]
    fn seal_unseal_same_enclave() {
        let p = platform(3);
        let mut e = p.launch(&code("store", 1));
        let blob = e.seal(b"model weights");
        assert_eq!(e.unseal(&blob).unwrap(), b"model weights");
    }

    #[test]
    fn different_code_cannot_unseal() {
        let p = platform(4);
        let mut e1 = p.launch(&code("honest", 1));
        let blob = e1.seal(b"secret");
        let mut e2 = p.launch(&code("evil", 1));
        assert!(e2.unseal(&blob).is_none());
    }

    #[test]
    fn different_version_cannot_unseal() {
        // MRENCLAVE policy: even an upgrade loses access (by design here).
        let p = platform(5);
        let mut v1 = p.launch(&code("app", 1));
        let blob = v1.seal(b"state");
        let mut v2 = p.launch(&code("app", 2));
        assert!(v2.unseal(&blob).is_none());
    }

    #[test]
    fn different_platform_cannot_unseal() {
        let c = code("app", 1);
        let p1 = platform(6);
        let p2 = platform(7);
        let mut e1 = p1.launch(&c);
        let blob = e1.seal(b"state");
        let mut e2 = p2.launch(&c);
        assert!(e2.unseal(&blob).is_none());
    }

    #[test]
    fn tampered_blob_rejected() {
        let p = platform(8);
        let mut e = p.launch(&code("app", 1));
        let mut blob = e.seal(b"state");
        blob.ciphertext[0] ^= 0xff;
        assert!(e.unseal(&blob).is_none());
    }

    #[test]
    fn seal_nonces_are_unique() {
        let p = platform(9);
        let mut e = p.launch(&code("app", 1));
        let b1 = e.seal(b"same");
        let b2 = e.seal(b"same");
        assert_ne!(b1.nonce, b2.nonce);
        assert_ne!(b1.ciphertext, b2.ciphertext);
    }

    #[test]
    fn execute_charges_meter() {
        let p = Platform::new(
            10,
            CostModel {
                transition_ns: 100,
                compute_factor: 2.0,
                ..CostModel::default()
            },
        );
        let mut e = p.launch(&code("app", 1));
        let result = e.execute(1000, 0, || 21 * 2);
        assert_eq!(result, 42);
        // 1000 plain + 1000 factor overhead + 100 transition.
        assert_eq!(e.meter().charged_ns, 2100);
    }

    #[test]
    fn two_platforms_have_distinct_ids() {
        assert_ne!(platform(11).id(), platform(12).id());
    }
}
