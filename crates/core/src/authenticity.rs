//! Data authenticity (§IV-B).
//!
//! "Data should be signed directly by the device to minimize the risk of
//! forgery, and include timestamps to prevent the user from creating
//! multiple copies and reselling them. The signature is verified by
//! executors … the signature also serves as a 'seal of quality'."
//!
//! - [`Device`] — an IoT device with an embedded key, producing signed,
//!   timestamped, monotonically-sequenced readings;
//! - [`ManufacturerRegistry`] — manufacturers endorse device keys, the
//!   "seal of quality" buyers price in;
//! - [`ReadingVerifier`] — the executor-side checks: signature validity,
//!   manufacturer endorsement, per-device timestamp monotonicity and
//!   global duplicate rejection.

use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use pds2_crypto::schnorr::{KeyPair, PublicKey, Signature};
use pds2_crypto::sha256::{sha256, Digest};
use std::collections::{HashMap, HashSet};

/// A device identifier (hash of the device public key).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct DeviceId(pub Digest);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "device:{}", self.0.short())
    }
}

/// One signed sensor reading: the §IV-B unit of authentic data.
#[derive(Clone, Debug, PartialEq)]
pub struct SignedReading {
    /// Producing device.
    pub device: DeviceId,
    /// Device public key (carried for verification).
    pub device_key: PublicKey,
    /// Per-device monotone sequence number.
    pub sequence: u64,
    /// Device clock timestamp.
    pub timestamp: u64,
    /// Feature vector.
    pub features: Vec<f64>,
    /// Target/label value.
    pub target: f64,
    /// Device signature over everything above.
    pub signature: Signature,
}

impl SignedReading {
    fn payload_bytes(
        device: &DeviceId,
        sequence: u64,
        timestamp: u64,
        features: &[f64],
        target: f64,
    ) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_raw(b"pds2-reading-v1");
        enc.put_digest(&device.0);
        enc.put_u64(sequence);
        enc.put_u64(timestamp);
        enc.put_u64(features.len() as u64);
        for f in features {
            enc.put_f64(*f);
        }
        enc.put_f64(target);
        enc.finish()
    }

    /// Content hash (duplicate detection key).
    pub fn reading_hash(&self) -> Digest {
        sha256(&Self::payload_bytes(
            &self.device,
            self.sequence,
            self.timestamp,
            &self.features,
            self.target,
        ))
    }

    /// Checks only the cryptographic signature (see [`ReadingVerifier`]
    /// for the full §IV-B pipeline).
    pub fn signature_valid(&self) -> bool {
        if DeviceId(sha256(&self.device_key.to_bytes())) != self.device {
            return false;
        }
        let payload = Self::payload_bytes(
            &self.device,
            self.sequence,
            self.timestamp,
            &self.features,
            self.target,
        );
        self.device_key.verify(&payload, &self.signature)
    }
}

impl Encode for SignedReading {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_digest(&self.device.0);
        self.device_key.encode(enc);
        enc.put_u64(self.sequence);
        enc.put_u64(self.timestamp);
        enc.put_seq(&self.features);
        enc.put_f64(self.target);
        self.signature.encode(enc);
    }
}

impl Decode for SignedReading {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let device = DeviceId(dec.get_digest()?);
        let device_key = PublicKey::decode(dec)?;
        let sequence = dec.get_u64()?;
        let timestamp = dec.get_u64()?;
        let features = dec.get_seq()?;
        let target = dec.get_f64()?;
        let signature = Signature::decode(dec)?;
        Ok(SignedReading {
            device,
            device_key,
            sequence,
            timestamp,
            features,
            target,
            signature,
        })
    }
}

/// A simulated IoT device with an embedded signing key.
pub struct Device {
    keys: KeyPair,
    id: DeviceId,
    next_sequence: u64,
    last_timestamp: u64,
}

impl Device {
    /// Provisions a device with a deterministic key.
    pub fn new(seed: u64) -> Device {
        let keys = KeyPair::from_seed(seed ^ 0xdef_1ce);
        let id = DeviceId(sha256(&keys.public.to_bytes()));
        Device {
            keys,
            id,
            next_sequence: 0,
            last_timestamp: 0,
        }
    }

    /// The device id.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The device public key (for manufacturer endorsement).
    pub fn public_key(&self) -> &PublicKey {
        &self.keys.public
    }

    /// Produces one signed reading. Timestamps must be non-decreasing;
    /// the device firmware enforces this.
    pub fn sign_reading(
        &mut self,
        timestamp: u64,
        features: Vec<f64>,
        target: f64,
    ) -> SignedReading {
        assert!(
            timestamp >= self.last_timestamp,
            "device clock must not run backwards"
        );
        self.last_timestamp = timestamp;
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        let payload =
            SignedReading::payload_bytes(&self.id, sequence, timestamp, &features, target);
        SignedReading {
            device: self.id,
            device_key: self.keys.public.clone(),
            sequence,
            timestamp,
            features,
            target,
            signature: self.keys.sign(&payload),
        }
    }
}

/// A manufacturer endorsement of a device key — the "seal of quality".
#[derive(Clone, Debug)]
pub struct DeviceCertificate {
    /// Endorsed device.
    pub device: DeviceId,
    /// Endorsing manufacturer key.
    pub manufacturer: PublicKey,
    /// Manufacturer signature over the device key.
    pub signature: Signature,
}

/// Registry of trusted manufacturers and their endorsed devices.
#[derive(Default)]
pub struct ManufacturerRegistry {
    manufacturers: HashMap<Digest, PublicKey>,
    endorsements: HashMap<DeviceId, Digest>,
}

impl ManufacturerRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a trusted manufacturer, returning its id.
    pub fn register_manufacturer(&mut self, key: PublicKey) -> Digest {
        let id = sha256(&key.to_bytes());
        self.manufacturers.insert(id, key);
        id
    }

    /// Manufacturer endorses a device (issues and records a certificate).
    pub fn endorse(
        &mut self,
        manufacturer: &KeyPair,
        device: &Device,
    ) -> Option<DeviceCertificate> {
        let mid = sha256(&manufacturer.public.to_bytes());
        if !self.manufacturers.contains_key(&mid) {
            return None;
        }
        let payload = endorsement_payload(&device.id(), device.public_key());
        let cert = DeviceCertificate {
            device: device.id(),
            manufacturer: manufacturer.public.clone(),
            signature: manufacturer.sign(&payload),
        };
        self.endorsements.insert(device.id(), mid);
        Some(cert)
    }

    /// Whether a device carries a valid endorsement from a trusted
    /// manufacturer.
    pub fn is_endorsed(&self, device: DeviceId) -> bool {
        self.endorsements.contains_key(&device)
    }

    /// Verifies a presented certificate against the trusted set.
    pub fn verify_certificate(&self, cert: &DeviceCertificate, device_key: &PublicKey) -> bool {
        let mid = sha256(&cert.manufacturer.to_bytes());
        if !self.manufacturers.contains_key(&mid) {
            return false;
        }
        let payload = endorsement_payload(&cert.device, device_key);
        cert.manufacturer.verify(&payload, &cert.signature)
    }
}

fn endorsement_payload(device: &DeviceId, device_key: &PublicKey) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_raw(b"pds2-device-endorsement-v1");
    enc.put_digest(&device.0);
    device_key.encode(&mut enc);
    enc.finish()
}

/// Why a reading was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadingRejection {
    /// Cryptographic signature invalid (forgery).
    BadSignature,
    /// Device not endorsed by a trusted manufacturer.
    UntrustedDevice,
    /// The same reading was seen before (resale/replay).
    Duplicate,
    /// Timestamp older than an already-accepted reading from the device.
    StaleTimestamp,
    /// Sequence number reused or rewound.
    SequenceReplay,
}

impl std::fmt::Display for ReadingRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadingRejection::BadSignature => write!(f, "invalid device signature"),
            ReadingRejection::UntrustedDevice => write!(f, "device not endorsed"),
            ReadingRejection::Duplicate => write!(f, "duplicate reading"),
            ReadingRejection::StaleTimestamp => write!(f, "timestamp regression"),
            ReadingRejection::SequenceReplay => write!(f, "sequence number replay"),
        }
    }
}

/// The executor-side verification pipeline (§IV-B: "The signature is
/// verified by executors, as buyers do not have access to the data").
pub struct ReadingVerifier<'a> {
    registry: &'a ManufacturerRegistry,
    seen: HashSet<Digest>,
    device_high_water: HashMap<DeviceId, (u64, u64)>, // (sequence, timestamp)
    /// Readings accepted.
    pub accepted: u64,
    /// Readings rejected, by count.
    pub rejected: u64,
}

impl<'a> ReadingVerifier<'a> {
    /// Creates a verifier trusting `registry`.
    pub fn new(registry: &'a ManufacturerRegistry) -> Self {
        ReadingVerifier {
            registry,
            seen: HashSet::new(),
            device_high_water: HashMap::new(),
            accepted: 0,
            rejected: 0,
        }
    }

    /// Verifies one reading, updating replay state on acceptance.
    pub fn verify(&mut self, reading: &SignedReading) -> Result<(), ReadingRejection> {
        let result = self.verify_inner(reading);
        match result {
            Ok(()) => self.accepted += 1,
            Err(_) => self.rejected += 1,
        }
        result
    }

    fn verify_inner(&mut self, reading: &SignedReading) -> Result<(), ReadingRejection> {
        if !reading.signature_valid() {
            return Err(ReadingRejection::BadSignature);
        }
        if !self.registry.is_endorsed(reading.device) {
            return Err(ReadingRejection::UntrustedDevice);
        }
        let hash = reading.reading_hash();
        if self.seen.contains(&hash) {
            return Err(ReadingRejection::Duplicate);
        }
        if let Some(&(seq, ts)) = self.device_high_water.get(&reading.device) {
            if reading.sequence <= seq {
                return Err(ReadingRejection::SequenceReplay);
            }
            if reading.timestamp < ts {
                return Err(ReadingRejection::StaleTimestamp);
            }
        }
        self.seen.insert(hash);
        self.device_high_water
            .insert(reading.device, (reading.sequence, reading.timestamp));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ManufacturerRegistry, KeyPair, Device) {
        let mut registry = ManufacturerRegistry::new();
        let manufacturer = KeyPair::from_seed(50);
        registry.register_manufacturer(manufacturer.public.clone());
        let device = Device::new(1);
        (registry, manufacturer, device)
    }

    #[test]
    fn endorsed_device_readings_accepted() {
        let (mut registry, manufacturer, mut device) = setup();
        let cert = registry.endorse(&manufacturer, &device).unwrap();
        assert!(registry.verify_certificate(&cert, device.public_key()));
        let mut verifier = ReadingVerifier::new(&registry);
        for t in 0..10 {
            let r = device.sign_reading(t, vec![1.0, 2.0], 0.5);
            assert_eq!(verifier.verify(&r), Ok(()), "t={t}");
        }
        assert_eq!(verifier.accepted, 10);
        assert_eq!(verifier.rejected, 0);
    }

    #[test]
    fn forged_payload_rejected() {
        let (mut registry, manufacturer, mut device) = setup();
        registry.endorse(&manufacturer, &device).unwrap();
        let mut verifier = ReadingVerifier::new(&registry);
        let mut r = device.sign_reading(1, vec![1.0], 0.0);
        r.target = 999.0; // tamper after signing
        assert_eq!(verifier.verify(&r), Err(ReadingRejection::BadSignature));
    }

    #[test]
    fn key_substitution_rejected() {
        // Attacker swaps in their own key but keeps the claimed device id.
        let (mut registry, manufacturer, mut device) = setup();
        registry.endorse(&manufacturer, &device).unwrap();
        let attacker = KeyPair::from_seed(666);
        let mut r = device.sign_reading(1, vec![1.0], 0.0);
        r.device_key = attacker.public.clone();
        let mut verifier = ReadingVerifier::new(&registry);
        assert_eq!(verifier.verify(&r), Err(ReadingRejection::BadSignature));
    }

    #[test]
    fn unendorsed_device_rejected() {
        let (registry, _, mut rogue_device) = {
            let (r, m, _) = setup();
            (r, m, Device::new(99))
        };
        let mut verifier = ReadingVerifier::new(&registry);
        let r = rogue_device.sign_reading(1, vec![1.0], 0.0);
        assert_eq!(verifier.verify(&r), Err(ReadingRejection::UntrustedDevice));
    }

    #[test]
    fn duplicate_resale_rejected() {
        let (mut registry, manufacturer, mut device) = setup();
        registry.endorse(&manufacturer, &device).unwrap();
        let mut verifier = ReadingVerifier::new(&registry);
        let r = device.sign_reading(5, vec![1.0], 0.0);
        assert_eq!(verifier.verify(&r), Ok(()));
        // Selling the same reading twice (§IV-B's "multiple copies").
        assert_eq!(verifier.verify(&r), Err(ReadingRejection::Duplicate));
        assert_eq!(verifier.rejected, 1);
    }

    #[test]
    fn sequence_replay_rejected() {
        let (mut registry, manufacturer, mut device) = setup();
        registry.endorse(&manufacturer, &device).unwrap();
        let mut verifier = ReadingVerifier::new(&registry);
        let r1 = device.sign_reading(1, vec![1.0], 0.0);
        let r2 = device.sign_reading(2, vec![2.0], 0.0);
        assert_eq!(verifier.verify(&r2), Ok(()));
        // r1 has an older sequence than the accepted high-water mark.
        assert_eq!(verifier.verify(&r1), Err(ReadingRejection::SequenceReplay));
    }

    #[test]
    fn untrusted_manufacturer_certificate_rejected() {
        let (registry, _, device) = setup();
        let fake_manufacturer = KeyPair::from_seed(777);
        let payload = endorsement_payload(&device.id(), device.public_key());
        let cert = DeviceCertificate {
            device: device.id(),
            manufacturer: fake_manufacturer.public.clone(),
            signature: fake_manufacturer.sign(&payload),
        };
        assert!(!registry.verify_certificate(&cert, device.public_key()));
    }

    #[test]
    fn endorse_requires_registered_manufacturer() {
        let mut registry = ManufacturerRegistry::new();
        let unregistered = KeyPair::from_seed(51);
        let device = Device::new(2);
        assert!(registry.endorse(&unregistered, &device).is_none());
    }

    #[test]
    #[should_panic(expected = "clock must not run backwards")]
    fn device_clock_monotonicity_enforced() {
        let mut device = Device::new(3);
        device.sign_reading(10, vec![], 0.0);
        device.sign_reading(5, vec![], 0.0);
    }

    #[test]
    fn reading_codec_roundtrip() {
        let mut device = Device::new(4);
        let r = device.sign_reading(7, vec![0.25, -1.5], 3.0);
        let bytes = r.to_bytes();
        let back = SignedReading::from_bytes(&bytes).unwrap();
        assert_eq!(back, r);
        assert!(back.signature_valid());
    }

    #[test]
    fn distinct_devices_distinct_ids() {
        assert_ne!(Device::new(1).id(), Device::new(2).id());
    }
}
