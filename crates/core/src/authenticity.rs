//! Data authenticity (§IV-B).
//!
//! "Data should be signed directly by the device to minimize the risk of
//! forgery, and include timestamps to prevent the user from creating
//! multiple copies and reselling them. The signature is verified by
//! executors … the signature also serves as a 'seal of quality'."
//!
//! - [`Device`] — an IoT device with an embedded key, producing signed,
//!   timestamped, monotonically-sequenced readings. The device signs the
//!   Merkle root of a batch of readings once; each reading carries that
//!   signature and its inclusion path, so it still verifies on its own
//!   and a provider can disclose any subset of a batch. A single reading
//!   is a batch of one;
//! - [`ManufacturerRegistry`] — manufacturers endorse device keys, the
//!   "seal of quality" buyers price in;
//! - [`ReadingVerifier`] — the executor-side checks: signature validity,
//!   manufacturer endorsement, per-device timestamp monotonicity and
//!   global duplicate rejection, each decided per reading. It checks one
//!   signature per batch root and the path of every reading.

use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use pds2_crypto::merkle::{MerkleProof, MerkleTree, ProofStep};
use pds2_crypto::schnorr::{KeyPair, PublicKey, Signature};
use pds2_crypto::sha256::{sha256, Digest, Sha256};
use std::collections::hash_map::Entry;
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
    /// Device signature over the Merkle root of the batch this reading
    /// was signed in. The leaves are the batch's [`Self::reading_hash`]es,
    /// which bind everything above.
    pub signature: Signature,
    /// Inclusion path from this reading's hash to the signed root; empty
    /// for a batch of one.
    pub path: MerkleProof,
}

impl SignedReading {
    /// The hash of a reading's signed fields, streamed into the hasher:
    /// the tag, the device, sequence, timestamp, the feature count and
    /// values and the target, integers and floats little-endian (the
    /// bytes the canonical encoder writes).
    fn payload_hash(
        device: &DeviceId,
        sequence: u64,
        timestamp: u64,
        features: &[f64],
        target: f64,
    ) -> Digest {
        let mut h = Sha256::new();
        h.update(b"pds2-reading-v1")
            .update(device.0.as_bytes())
            .update(&sequence.to_le_bytes())
            .update(&timestamp.to_le_bytes())
            .update(&(features.len() as u64).to_le_bytes());
        for f in features {
            h.update(&f.to_bits().to_le_bytes());
        }
        h.update(&target.to_bits().to_le_bytes());
        h.finalize()
    }

    /// Content hash (duplicate detection key).
    pub fn reading_hash(&self) -> Digest {
        Self::payload_hash(
            &self.device,
            self.sequence,
            self.timestamp,
            &self.features,
            self.target,
        )
    }

    /// Checks only the cryptography, with nothing remembered: the key is
    /// the claimed device's, the path leads from this reading to a root,
    /// and the device signed that root (see [`ReadingVerifier`] for the
    /// full §IV-B pipeline).
    pub fn signature_valid(&self) -> bool {
        self.key_matches_device() && self.root_signed(&self.path.root_from(self.reading_hash()))
    }

    fn key_matches_device(&self) -> bool {
        DeviceId(sha256(&self.device_key.to_bytes())) == self.device
    }

    /// The one exponentiation: whether the carried signature is the
    /// device key's over `root`.
    fn root_signed(&self, root: &Digest) -> bool {
        self.device_key
            .verify(&batch_root_payload(&self.device, root), &self.signature)
    }
}

/// What a device signs for a batch. The tag is not the per-reading one, so
/// a root signature is never a signature over a reading's own bytes.
fn batch_root_payload(device: &DeviceId, root: &Digest) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_raw(b"pds2-reading-batch-v1");
    enc.put_digest(&device.0);
    enc.put_digest(root);
    enc.finish()
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
        self.path.encode(enc);
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
        let path = MerkleProof::decode(dec)?;
        Ok(SignedReading {
            device,
            device_key,
            sequence,
            timestamp,
            features,
            target,
            signature,
            path,
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

    /// Produces one signed reading: a batch of one. Timestamps must be
    /// non-decreasing; the device firmware enforces this.
    pub fn sign_reading(
        &mut self,
        timestamp: u64,
        features: Vec<f64>,
        target: f64,
    ) -> SignedReading {
        // `sign_batch` returns one reading per row, and this is one row.
        self.sign_batch([(timestamp, features, target)])
            .pop()
            .expect("one row in, one reading out")
    }

    /// Signs `(timestamp, features, target)` rows as one batch: one
    /// signature over the Merkle root of the readings' hashes, carried by
    /// every reading with its own inclusion path. Sequence numbers follow
    /// row order; timestamps must be non-decreasing along it. No rows, no
    /// signature.
    pub fn sign_batch(
        &mut self,
        rows: impl IntoIterator<Item = (u64, Vec<f64>, f64)>,
    ) -> Vec<SignedReading> {
        let rows: Vec<(u64, u64, Vec<f64>, f64)> = rows
            .into_iter()
            .map(|(timestamp, features, target)| {
                assert!(
                    timestamp >= self.last_timestamp,
                    "device clock must not run backwards"
                );
                self.last_timestamp = timestamp;
                let sequence = self.next_sequence;
                self.next_sequence += 1;
                (sequence, timestamp, features, target)
            })
            .collect();
        if rows.is_empty() {
            return Vec::new();
        }
        let tree = MerkleTree::from_leaf_hashes(
            rows.iter()
                .map(|(sequence, timestamp, features, target)| {
                    SignedReading::payload_hash(&self.id, *sequence, *timestamp, features, *target)
                })
                .collect(),
        );
        let signature = self.keys.sign(&batch_root_payload(&self.id, &tree.root()));
        rows.into_iter()
            .enumerate()
            .map(
                |(i, (sequence, timestamp, features, target))| SignedReading {
                    device: self.id,
                    device_key: self.keys.public.clone(),
                    sequence,
                    timestamp,
                    features,
                    target,
                    signature: signature.clone(),
                    // The tree has one leaf per row, so row `i` has one.
                    path: tree.prove(i).expect("one leaf per row"),
                },
            )
            .collect()
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

/// The last inclusion path a [`ReadingVerifier`] walked: its steps and the
/// node each step produced (the last one is the root). Readings of one
/// batch arrive in order and share the upper part of their paths, so the
/// next walk usually meets a remembered node after a step or two.
#[derive(Default)]
struct PathMemo {
    steps: Vec<ProofStep>,
    nodes: Vec<Digest>,
}

impl PathMemo {
    /// `path.root_from(leaf)`, the same value: once a step produces the
    /// node the remembered walk produced at that step and the steps above
    /// it are the remembered ones, the rest of the walk is the remembered
    /// one. The memo then holds this walk.
    fn root_from(&mut self, path: &MerkleProof, leaf: Digest) -> Digest {
        let steps = &path.steps;
        let comparable = self.steps.len() == steps.len();
        if !comparable {
            self.steps.clear();
            self.steps.extend_from_slice(steps);
            self.nodes.clear();
            self.nodes.resize(steps.len(), leaf);
        }
        let mut node = leaf;
        for (i, step) in steps.iter().enumerate() {
            node = step.parent(&node);
            if comparable && self.nodes[i] == node && self.steps[i + 1..] == steps[i + 1..] {
                self.steps[..=i].copy_from_slice(&steps[..=i]);
                return self.nodes[steps.len() - 1];
            }
            self.nodes[i] = node;
        }
        self.steps.copy_from_slice(steps);
        node
    }
}

/// The executor-side verification pipeline (§IV-B: "The signature is
/// verified by executors, as buyers do not have access to the data").
pub struct ReadingVerifier<'a> {
    registry: &'a ManufacturerRegistry,
    seen: HashSet<Digest>,
    device_high_water: HashMap<DeviceId, (u64, u64)>, // (sequence, timestamp)
    /// The signature and key each verified batch root was verified
    /// under. Only a reading carrying the same signature bytes and the
    /// same key for the same device and root skips the key's hash and
    /// the exponentiation; a failed check leaves no entry.
    verified_roots: HashMap<(DeviceId, Digest), (Signature, PublicKey)>,
    /// The last path walked, so a reading pays only for the part of its
    /// path the previous one did not share.
    path_memo: PathMemo,
    /// Readings accepted.
    pub accepted: u64,
    /// Readings rejected, by count.
    pub rejected: u64,
    /// Signature verifications run (exponentiations paid): one per batch
    /// when every reading of it is honest.
    pub signatures_checked: u64,
}

impl<'a> ReadingVerifier<'a> {
    /// Creates a verifier trusting `registry`.
    pub fn new(registry: &'a ManufacturerRegistry) -> Self {
        ReadingVerifier {
            registry,
            seen: HashSet::new(),
            device_high_water: HashMap::new(),
            verified_roots: HashMap::new(),
            path_memo: PathMemo::default(),
            accepted: 0,
            rejected: 0,
            signatures_checked: 0,
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
        let hash = reading.reading_hash();
        if !self.signature_valid(reading, hash) {
            return Err(ReadingRejection::BadSignature);
        }
        if !self.registry.is_endorsed(reading.device) {
            return Err(ReadingRejection::UntrustedDevice);
        }
        if self.seen.contains(&hash) {
            return Err(ReadingRejection::Duplicate);
        }
        let high_water = self.device_high_water.entry(reading.device);
        if let Entry::Occupied(ref mark) = high_water {
            let &(seq, ts) = mark.get();
            if reading.sequence <= seq {
                return Err(ReadingRejection::SequenceReplay);
            }
            if reading.timestamp < ts {
                return Err(ReadingRejection::StaleTimestamp);
            }
        }
        self.seen.insert(hash);
        high_water.insert_entry((reading.sequence, reading.timestamp));
        Ok(())
    }

    /// [`SignedReading::signature_valid`], paying the key's hash and the
    /// exponentiation once per batch root. Every reading's path is walked
    /// to its root (through the memo of the last walk), and a reading
    /// whose key or signature differs from the ones its root was verified
    /// under is checked in full.
    fn signature_valid(&mut self, reading: &SignedReading, hash: Digest) -> bool {
        let root = self.path_memo.root_from(&reading.path, hash);
        let batch = (reading.device, root);
        if let Some((signature, key)) = self.verified_roots.get(&batch) {
            if *signature == reading.signature && *key == reading.device_key {
                return true;
            }
        }
        if !reading.key_matches_device() {
            return false;
        }
        self.signatures_checked += 1;
        let valid = reading.root_signed(&root);
        if valid {
            self.verified_roots
                .entry(batch)
                .or_insert_with(|| (reading.signature.clone(), reading.device_key.clone()));
        }
        valid
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
        // 33 readings: the last one is promoted past every level but the
        // top and carries the shortest path.
        for r in batch(&mut device, 33, 8) {
            let back = SignedReading::from_bytes(&r.to_bytes()).unwrap();
            assert_eq!(back, r);
            assert!(back.signature_valid());
        }
    }

    #[test]
    fn distinct_devices_distinct_ids() {
        assert_ne!(Device::new(1).id(), Device::new(2).id());
    }

    /// `n` readings signed as one batch, timestamps from `t0`.
    fn batch(device: &mut Device, n: usize, t0: u64) -> Vec<SignedReading> {
        device.sign_batch((0..n).map(|i| (t0 + i as u64, vec![i as f64, 0.5], 1.0)))
    }

    fn endorsed() -> (ManufacturerRegistry, Device) {
        let (mut registry, manufacturer, device) = setup();
        registry.endorse(&manufacturer, &device).unwrap();
        (registry, device)
    }

    /// The same signature with `R` and `s` moved up by `dr` and `ds`.
    fn bumped(sig: &Signature, dr: u64, ds: u64) -> Signature {
        use pds2_crypto::BigUint;
        let (r, s) = (
            sig.r().add(&BigUint::from_u64(dr)),
            sig.s().add(&BigUint::from_u64(ds)),
        );
        Signature::new(r, s).expect("still in range")
    }

    /// The same signature with its response scalar off by one.
    fn other_signature_bytes(sig: &Signature) -> Signature {
        bumped(sig, 0, 1)
    }

    #[test]
    fn every_reading_of_a_batch_verifies_alone_and_through_the_verifier() {
        // 3, 5, 33 and 70 leave odd nodes to promote at different levels.
        for n in [1, 2, 3, 5, 32, 33, 70] {
            let (registry, mut device) = endorsed();
            let readings = batch(&mut device, n, 0);
            assert_eq!(readings.len(), n);
            let mut verifier = ReadingVerifier::new(&registry);
            for (i, r) in readings.iter().enumerate() {
                assert_eq!(r.sequence, i as u64);
                assert_eq!(r.path.leaf_index, i);
                assert_eq!(r.signature, readings[0].signature, "one signature, n={n}");
                assert!(r.signature_valid(), "alone, n={n} i={i}");
                assert_eq!(verifier.verify(r), Ok(()), "verifier, n={n} i={i}");
            }
            assert_eq!(verifier.accepted, n as u64);
            assert_eq!(verifier.signatures_checked, 1, "n={n}");
        }
    }

    #[test]
    fn a_single_reading_is_a_batch_of_one() {
        let mut device = Device::new(5);
        let r = device.sign_reading(3, vec![1.0], 2.0);
        assert!(r.path.steps.is_empty());
        assert_eq!(r.path.root_from(r.reading_hash()), r.reading_hash());
        let mut same = Device::new(5);
        assert_eq!(same.sign_batch([(3, vec![1.0], 2.0)]), vec![r]);
        // No rows: no signature, no sequence number spent.
        assert!(same.sign_batch([]).is_empty());
        assert_eq!(same.sign_reading(3, vec![], 0.0).sequence, 1);
    }

    #[test]
    fn signatures_checked_counts_batches_not_readings() {
        let (registry, mut device) = endorsed();
        let mut verifier = ReadingVerifier::new(&registry);
        for r in batch(&mut device, 32, 0) {
            assert_eq!(verifier.verify(&r), Ok(()));
        }
        assert_eq!(verifier.signatures_checked, 1);
        for r in batch(&mut device, 7, 32) {
            assert_eq!(verifier.verify(&r), Ok(()));
        }
        assert_eq!(
            verifier.signatures_checked, 2,
            "a second batch, same device"
        );
        for t in 0..5 {
            let r = device.sign_reading(100 + t, vec![t as f64], 0.0);
            assert_eq!(verifier.verify(&r), Ok(()));
        }
        assert_eq!(
            verifier.signatures_checked, 7,
            "n single readings, n checks"
        );
        assert_eq!((verifier.accepted, verifier.rejected), (44, 0));
    }

    /// Every way to alter reading 2 of a batch of 6 (path: sibling on the
    /// left, pair on the left, pair of the odd tail on the right).
    fn tampered_copies(honest: &SignedReading) -> Vec<(&'static str, SignedReading)> {
        let mut out = Vec::new();
        let mut push = |what, edit: &dyn Fn(&mut SignedReading)| {
            let mut r = honest.clone();
            edit(&mut r);
            out.push((what, r));
        };
        push("sequence", &|r| r.sequence += 1);
        push("timestamp", &|r| r.timestamp += 1);
        push("feature", &|r| r.features[0] += 1.0);
        push("feature count", &|r| r.features.push(0.0));
        push("target", &|r| r.target = -r.target);
        push("sibling", &|r| r.path.steps[1].sibling.0[31] ^= 1);
        push("side bit", &|r| {
            r.path.steps[0].sibling_on_right = !r.path.steps[0].sibling_on_right
        });
        push("dropped first step", &|r| {
            r.path.steps.remove(0);
        });
        push("dropped last step", &|r| {
            r.path.steps.pop();
        });
        push("added step", &|r| {
            let step = r.path.steps[0];
            r.path.steps.push(step)
        });
        push("no path", &|r| r.path.steps.clear());
        push("signature s", &|r| r.signature = bumped(&r.signature, 0, 1));
        push("signature R", &|r| r.signature = bumped(&r.signature, 1, 0));
        out
    }

    #[test]
    fn any_tamper_is_a_bad_signature_with_the_batch_root_cached_or_not() {
        let (registry, mut device) = endorsed();
        let readings = batch(&mut device, 6, 0);
        assert_eq!(readings[2].path.steps.len(), 3);
        for (what, forged) in tampered_copies(&readings[2]) {
            assert!(!forged.signature_valid(), "alone: {what}");
            // Cold: the forgery is the first thing the verifier sees.
            let mut cold = ReadingVerifier::new(&registry);
            assert_eq!(
                cold.verify(&forged),
                Err(ReadingRejection::BadSignature),
                "cold: {what}"
            );
            // Warm: the honest root is already remembered.
            let mut warm = ReadingVerifier::new(&registry);
            assert_eq!(warm.verify(&readings[0]), Ok(()));
            assert_eq!(
                warm.verify(&forged),
                Err(ReadingRejection::BadSignature),
                "warm: {what}"
            );
            // Neither remembers anything of it: the honest reading it was
            // made from passes after it, on the remembered root if any.
            assert_eq!(cold.verify(&readings[2]), Ok(()), "after cold: {what}");
            assert_eq!(warm.verify(&readings[2]), Ok(()), "after warm: {what}");
            assert_eq!(cold.signatures_checked, 2, "{what}");
            assert_eq!(warm.signatures_checked, 2, "{what}");
        }
    }

    #[test]
    fn a_reading_under_another_batchs_signature_and_path_is_refused() {
        let (registry, mut device) = endorsed();
        let a = batch(&mut device, 4, 0);
        let b = batch(&mut device, 4, 4);
        let mut verifier = ReadingVerifier::new(&registry);
        assert_eq!(verifier.verify(&b[0]), Ok(()));
        // Batch A's reading dressed in the proof of batch B's leaf 1, whose
        // root and signature the verifier has just accepted.
        let mut grafted = a[1].clone();
        grafted.signature = b[1].signature.clone();
        grafted.path = b[1].path.clone();
        assert!(!grafted.signature_valid());
        assert_eq!(
            verifier.verify(&grafted),
            Err(ReadingRejection::BadSignature)
        );
        // Its own path under the other batch's signature: a root the device
        // did sign, but not with these bytes.
        let mut resigned = a[1].clone();
        resigned.signature = b[1].signature.clone();
        assert_eq!(
            verifier.verify(&resigned),
            Err(ReadingRejection::BadSignature)
        );
        assert_eq!(verifier.verify(&b[1]), Ok(()));
    }

    #[test]
    fn other_signature_bytes_for_a_verified_root_are_refused_and_evict_nothing() {
        let (registry, mut device) = endorsed();
        let readings = batch(&mut device, 8, 0);
        let mut verifier = ReadingVerifier::new(&registry);
        assert_eq!(verifier.verify(&readings[0]), Ok(()));
        assert_eq!(verifier.signatures_checked, 1);
        // Same device, same root, a valid path: only the signature differs,
        // so the remembered root must not vouch for it.
        let mut forged = readings[1].clone();
        forged.signature = other_signature_bytes(&forged.signature);
        assert_eq!(
            verifier.verify(&forged),
            Err(ReadingRejection::BadSignature)
        );
        assert_eq!(verifier.signatures_checked, 2, "a miss runs the full check");
        // The remembered signature is still the honest one.
        for r in &readings[1..] {
            assert_eq!(verifier.verify(r), Ok(()));
        }
        assert_eq!(verifier.signatures_checked, 2, "hits all the way");
        assert_eq!((verifier.accepted, verifier.rejected), (8, 1));
    }

    #[test]
    fn a_forged_reading_first_does_not_poison_the_honest_ones_after_it() {
        let (registry, mut device) = endorsed();
        let readings = batch(&mut device, 8, 0);
        let mut forged = readings[0].clone();
        forged.signature = other_signature_bytes(&forged.signature);
        let mut verifier = ReadingVerifier::new(&registry);
        for _ in 0..2 {
            assert_eq!(
                verifier.verify(&forged),
                Err(ReadingRejection::BadSignature)
            );
        }
        assert_eq!(verifier.signatures_checked, 2, "a failure is not cached");
        for r in &readings {
            assert_eq!(verifier.verify(r), Ok(()));
        }
        assert_eq!(verifier.signatures_checked, 3);
        // And the forgery still fails against the remembered root.
        assert_eq!(
            verifier.verify(&forged),
            Err(ReadingRejection::BadSignature)
        );
    }

    #[test]
    fn a_disclosed_in_order_subset_of_a_batch_is_accepted() {
        let (registry, mut device) = endorsed();
        let readings = batch(&mut device, 10, 0);
        let mut verifier = ReadingVerifier::new(&registry);
        for i in [1, 4, 5, 9] {
            assert_eq!(verifier.verify(&readings[i]), Ok(()), "i={i}");
        }
        assert_eq!(verifier.signatures_checked, 1);
        // Replay rules are still per reading, inside a verified batch too.
        assert_eq!(
            verifier.verify(&readings[9]),
            Err(ReadingRejection::Duplicate)
        );
        assert_eq!(
            verifier.verify(&readings[7]),
            Err(ReadingRejection::SequenceReplay)
        );
    }

    #[test]
    fn a_remembered_root_does_not_vouch_for_another_key_or_an_unendorsed_device() {
        let (registry, mut device) = endorsed();
        let readings = batch(&mut device, 4, 0);
        let mut verifier = ReadingVerifier::new(&registry);
        assert_eq!(verifier.verify(&readings[0]), Ok(()));
        let mut swapped = readings[1].clone();
        swapped.device_key = KeyPair::from_seed(666).public;
        assert_eq!(
            verifier.verify(&swapped),
            Err(ReadingRejection::BadSignature)
        );
        let mut rogue = Device::new(99);
        for r in batch(&mut rogue, 3, 0) {
            assert_eq!(verifier.verify(&r), Err(ReadingRejection::UntrustedDevice));
        }
    }

    /// A reading's signed fields through the canonical encoder: the bytes
    /// [`SignedReading::reading_hash`] streams into its hasher.
    fn encoded_payload(r: &SignedReading) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_raw(b"pds2-reading-v1");
        enc.put_digest(&r.device.0);
        enc.put_u64(r.sequence);
        enc.put_u64(r.timestamp);
        enc.put_u64(r.features.len() as u64);
        for f in &r.features {
            enc.put_f64(*f);
        }
        enc.put_f64(r.target);
        enc.finish()
    }

    #[test]
    fn the_path_memo_gives_every_root_the_walk_gives() {
        let mut device = Device::new(9);
        let mut other = Device::new(10);
        let mut walks = Vec::new();
        for n in [1usize, 2, 3, 5, 8, 13, 32] {
            walks.extend(batch(&mut device, n, 100 * n as u64));
        }
        // Another device's batches interleaved, and paths with one sibling
        // or one direction changed.
        let interleaved: Vec<_> = batch(&mut other, 16, 0)
            .into_iter()
            .zip(batch(&mut device, 16, 10_000))
            .flat_map(|(a, b)| [a, b])
            .collect();
        walks.extend(interleaved);
        let mut bent = Vec::new();
        for r in walks.iter().filter(|r| r.path.steps.len() >= 3) {
            for level in [0, 1, r.path.steps.len() - 1] {
                let mut sibling = r.clone();
                sibling.path.steps[level].sibling = sha256(b"not the sibling");
                let mut turned = r.clone();
                turned.path.steps[level].sibling_on_right ^= true;
                bent.extend([sibling, turned, r.clone()]);
            }
        }
        walks.extend(bent);
        let mut memo = PathMemo::default();
        for r in &walks {
            let leaf = r.reading_hash();
            assert_eq!(memo.root_from(&r.path, leaf), r.path.root_from(leaf));
        }
    }

    #[test]
    fn the_reading_hash_is_the_hash_of_the_encoded_fields() {
        let mut device = Device::new(8);
        let rows = [
            (0, vec![], 0.0),
            (1, vec![1.5], -2.0),
            (
                7,
                vec![f64::MAX, -0.0, 1e-300, 3.25, 9.0, 11.0, 12.5, 13.0],
                0.5,
            ),
        ];
        for r in device.sign_batch(rows) {
            assert_eq!(r.reading_hash(), sha256(&encoded_payload(&r)));
        }
    }

    #[test]
    fn a_swapped_key_under_a_verified_root_and_signature_is_refused() {
        let (registry, mut device) = endorsed();
        let readings = batch(&mut device, 4, 0);
        let mut verifier = ReadingVerifier::new(&registry);
        assert_eq!(verifier.verify(&readings[0]), Ok(()));
        assert_eq!(verifier.signatures_checked, 1);
        // Same root, same signature bytes, another key: the remembered
        // root does not vouch for it, and its key is not the device's.
        for key in [KeyPair::from_seed(666).public, Device::new(2).keys.public] {
            let mut swapped = readings[1].clone();
            swapped.device_key = key;
            assert_eq!(
                verifier.verify(&swapped),
                Err(ReadingRejection::BadSignature)
            );
        }
        assert_eq!(verifier.signatures_checked, 1);
        // The honest reading still passes on the remembered root.
        assert_eq!(verifier.verify(&readings[1]), Ok(()));
        assert_eq!(verifier.signatures_checked, 1);
    }

    #[test]
    fn root_and_reading_signatures_are_different_domains() {
        let mut device = Device::new(6);
        let r = device.sign_reading(1, vec![1.0], 0.0);
        let own_bytes = encoded_payload(&r);
        // The signature a device used to put on a reading's own bytes is
        // not a root signature...
        let mut old_form = r.clone();
        old_form.signature = device.keys.sign(&own_bytes);
        assert!(device.keys.public.verify(&own_bytes, &old_form.signature));
        assert!(!old_form.signature_valid());
        // ...and a root signature is not one over the reading's bytes, nor
        // over the bare root.
        assert!(r.signature_valid());
        assert!(!r.device_key.verify(&own_bytes, &r.signature));
        assert!(!r
            .device_key
            .verify(r.reading_hash().as_bytes(), &r.signature));
    }
}
