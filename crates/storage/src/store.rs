//! The storage subsystem role (§II-C).
//!
//! "The storage subsystem is responsible for permanently storing the
//! providers' data. It then matches data against available workloads and
//! gives the executors access to them, when authorized by the providers."
//!
//! Two backends implement the same trait (the §II-F API-compatibility
//! point): [`LocalStore`] keeps plaintext on provider-owned hardware,
//! while [`ThirdPartyStore`] — outsourced storage per Fig. 3 — holds only
//! sealed ciphertext and *published* (redacted) metadata, so the storage
//! operator never sees raw data.
//!
//! Access is mediated by provider-signed [`AccessGrant`]s. A store is
//! created for one owner and releases a record only to a grant that its
//! owner signed, that names the asking executor and that has not expired
//! (`check_grant`). What a [`ThirdPartyStore`] releases is the sealed
//! record in a wire layout only this module knows:
//! [`ThirdPartyStore::open_wire`] is its reader.

use crate::semantic::{Metadata, Ontology, Requirement};
use pds2_crypto::chacha20::{open as seal_open, seal, SealedBlob, KEY_LEN, NONCE_LEN};
use pds2_crypto::codec::{Decoder, Encode, Encoder};
use pds2_crypto::merkle::MerkleTree;
use pds2_crypto::schnorr::{KeyPair, PublicKey, Signature};
use pds2_crypto::sha256::{sha256, Digest};
use std::collections::BTreeMap;

/// Content-derived identifier of a stored record.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RecordId(pub Digest);

impl RecordId {
    /// The id of a payload.
    pub fn of(payload: &[u8]) -> RecordId {
        RecordId(sha256(payload))
    }
}

/// A stored record: payload plus semantic annotations.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Raw payload bytes.
    pub payload: Vec<u8>,
    /// Full (unredacted) metadata.
    pub metadata: Metadata,
    /// Logical creation timestamp (provider clock).
    pub timestamp: u64,
}

/// Errors from storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// No record under that id.
    NotFound,
    /// Grant signature or fields invalid.
    InvalidGrant(&'static str),
    /// Sealed payload failed authentication.
    CorruptCiphertext,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::NotFound => write!(f, "record not found"),
            StorageError::InvalidGrant(why) => write!(f, "invalid access grant: {why}"),
            StorageError::CorruptCiphertext => write!(f, "sealed payload failed to open"),
        }
    }
}

impl std::error::Error for StorageError {}

/// A provider-signed authorization for one executor to read one record for
/// one workload — the certificate flow in Fig. 2 of the paper.
#[derive(Clone, Debug, PartialEq)]
pub struct AccessGrant {
    /// The authorizing provider.
    pub provider: PublicKey,
    /// The record being shared.
    pub record: RecordId,
    /// The workload this grant is scoped to.
    pub workload_id: u64,
    /// Identity digest of the executor allowed to read (e.g. hash of its
    /// attestation public key).
    pub executor: Digest,
    /// Logical expiry time.
    pub expires_at: u64,
    /// Provider signature over all fields above.
    pub signature: Signature,
}

impl AccessGrant {
    fn payload_bytes(
        provider: &PublicKey,
        record: &RecordId,
        workload_id: u64,
        executor: &Digest,
        expires_at: u64,
    ) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_raw(b"pds2-grant-v1");
        provider.encode(&mut enc);
        enc.put_digest(&record.0);
        enc.put_u64(workload_id);
        enc.put_digest(executor);
        enc.put_u64(expires_at);
        enc.finish()
    }

    /// Issues a signed grant.
    pub fn issue(
        provider: &KeyPair,
        record: RecordId,
        workload_id: u64,
        executor: Digest,
        expires_at: u64,
    ) -> AccessGrant {
        let payload = Self::payload_bytes(
            &provider.public,
            &record,
            workload_id,
            &executor,
            expires_at,
        );
        AccessGrant {
            provider: provider.public.clone(),
            record,
            workload_id,
            executor,
            expires_at,
            signature: provider.sign(&payload),
        }
    }

    /// Verifies signature and scoping for a given access attempt.
    pub fn verify(
        &self,
        record: RecordId,
        workload_id: u64,
        executor: &Digest,
        now: u64,
    ) -> Result<(), StorageError> {
        if self.record != record {
            return Err(StorageError::InvalidGrant("record mismatch"));
        }
        if self.workload_id != workload_id {
            return Err(StorageError::InvalidGrant("workload mismatch"));
        }
        if &self.executor != executor {
            return Err(StorageError::InvalidGrant("executor mismatch"));
        }
        if now > self.expires_at {
            return Err(StorageError::InvalidGrant("expired"));
        }
        let payload = Self::payload_bytes(
            &self.provider,
            &self.record,
            self.workload_id,
            &self.executor,
            self.expires_at,
        );
        if !self.provider.verify(&payload, &self.signature) {
            return Err(StorageError::InvalidGrant("bad signature"));
        }
        Ok(())
    }
}

/// What either store checks before it releases a record. The signature
/// alone proves nothing, since the grant carries the key it verifies
/// against: the store has to know whose records it holds.
fn check_grant(
    owner: &PublicKey,
    grant: &AccessGrant,
    executor: &Digest,
    now: u64,
) -> Result<(), StorageError> {
    if &grant.provider != owner {
        return Err(StorageError::InvalidGrant("not the record owner"));
    }
    grant.verify(grant.record, grant.workload_id, executor, now)
}

/// The storage-subsystem interface shared by all backends.
pub trait StorageBackend {
    /// Stores a record, returning its content id.
    fn put(&mut self, record: Record) -> RecordId;

    /// Published metadata of one record (what the matcher may see).
    fn published_metadata(&self, id: RecordId) -> Option<Metadata>;

    /// All record ids.
    fn record_ids(&self) -> Vec<RecordId>;

    /// Number of records.
    fn len(&self) -> usize;

    /// True when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finds records whose *published* metadata satisfies a requirement —
    /// the §II-C matching duty, performed without payload access.
    fn match_workload(&self, req: &Requirement, ontology: &Ontology) -> Vec<RecordId> {
        self.record_ids()
            .into_iter()
            .filter(|id| {
                self.published_metadata(*id)
                    .map(|m| req.matches(&m, ontology))
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Releases a payload to an executor carrying a valid grant.
    fn fetch_with_grant(
        &self,
        grant: &AccessGrant,
        executor: &Digest,
        now: u64,
    ) -> Result<Vec<u8>, StorageError>;

    /// Merkle root over all payloads (for on-chain dataset registration).
    fn content_root(&self) -> Digest;
}

/// Provider-owned storage: full plaintext, full metadata (Fig. 3 left).
pub struct LocalStore {
    owner: PublicKey,
    records: BTreeMap<RecordId, Record>,
}

impl LocalStore {
    /// Creates an empty store for the provider whose grants it will honour.
    pub fn new(owner: PublicKey) -> Self {
        LocalStore {
            owner,
            records: BTreeMap::new(),
        }
    }

    /// Direct record access (owner only — not part of the backend trait).
    pub fn get(&self, id: RecordId) -> Option<&Record> {
        self.records.get(&id)
    }
}

impl StorageBackend for LocalStore {
    fn put(&mut self, record: Record) -> RecordId {
        let id = RecordId::of(&record.payload);
        self.records.insert(id, record);
        id
    }

    fn published_metadata(&self, id: RecordId) -> Option<Metadata> {
        self.records.get(&id).map(|r| r.metadata.clone())
    }

    fn record_ids(&self) -> Vec<RecordId> {
        self.records.keys().copied().collect()
    }

    fn len(&self) -> usize {
        self.records.len()
    }

    fn fetch_with_grant(
        &self,
        grant: &AccessGrant,
        executor: &Digest,
        now: u64,
    ) -> Result<Vec<u8>, StorageError> {
        let record = self
            .records
            .get(&grant.record)
            .ok_or(StorageError::NotFound)?;
        check_grant(&self.owner, grant, executor, now)?;
        Ok(record.payload.clone())
    }

    fn content_root(&self) -> Digest {
        let leaves: Vec<&[u8]> = self
            .records
            .values()
            .map(|r| r.payload.as_slice())
            .collect();
        MerkleTree::from_leaves(&leaves).root()
    }
}

/// Outsourced storage (Fig. 3 right): the operator holds sealed payloads
/// and only the provider-chosen *published* view of the metadata.
pub struct ThirdPartyStore {
    owner: PublicKey,
    sealed: BTreeMap<RecordId, (SealedBlob, Metadata)>,
    provider_key: [u8; KEY_LEN],
    publish_level: u8,
    seal_counter: u64,
}

impl ThirdPartyStore {
    /// Creates a store for the provider `owner`, whose grants it will
    /// honour. `publish_level` is the metadata detail level the provider is
    /// willing to reveal to the operator (the E10 leakage knob).
    pub fn new(owner: PublicKey, provider_key: [u8; KEY_LEN], publish_level: u8) -> Self {
        ThirdPartyStore {
            owner,
            sealed: BTreeMap::new(),
            provider_key,
            publish_level,
            seal_counter: 0,
        }
    }

    /// Decrypts a fetched payload (provider/executor side, with the key
    /// conveyed out-of-band through the TEE session).
    pub fn unseal_payload(key: &[u8; KEY_LEN], blob: &SealedBlob) -> Result<Vec<u8>, StorageError> {
        seal_open(key, blob).ok_or(StorageError::CorruptCiphertext)
    }

    /// Opens a sealed record as [`StorageBackend::fetch_with_grant`]
    /// releases it (`nonce ‖ ciphertext ‖ tag`), with the key the provider
    /// conveys to an attested enclave. Bytes that do not parse are a
    /// corrupt ciphertext like any other.
    pub fn open_wire(key: &[u8; KEY_LEN], wire: &[u8]) -> Result<Vec<u8>, StorageError> {
        let corrupt = |_| StorageError::CorruptCiphertext;
        let mut dec = Decoder::new(wire);
        let nonce = dec.get_raw(NONCE_LEN).map_err(corrupt)?;
        let blob = SealedBlob {
            nonce: nonce.try_into().expect("NONCE_LEN bytes were read"),
            ciphertext: dec.get_bytes().map_err(corrupt)?,
            tag: dec.get_digest().map_err(corrupt)?,
        };
        Self::unseal_payload(key, &blob)
    }
}

impl StorageBackend for ThirdPartyStore {
    fn put(&mut self, record: Record) -> RecordId {
        let id = RecordId::of(&record.payload);
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..8].copy_from_slice(&self.seal_counter.to_le_bytes());
        self.seal_counter += 1;
        let blob = seal(&self.provider_key, nonce, &record.payload);
        let published = record.metadata.redact(self.publish_level);
        self.sealed.insert(id, (blob, published));
        id
    }

    fn published_metadata(&self, id: RecordId) -> Option<Metadata> {
        self.sealed.get(&id).map(|(_, m)| m.clone())
    }

    fn record_ids(&self) -> Vec<RecordId> {
        self.sealed.keys().copied().collect()
    }

    fn len(&self) -> usize {
        self.sealed.len()
    }

    fn fetch_with_grant(
        &self,
        grant: &AccessGrant,
        executor: &Digest,
        now: u64,
    ) -> Result<Vec<u8>, StorageError> {
        let (blob, _) = self
            .sealed
            .get(&grant.record)
            .ok_or(StorageError::NotFound)?;
        check_grant(&self.owner, grant, executor, now)?;
        // The operator releases ciphertext only; decryption happens at the
        // executor with the provider-shared key ([`Self::open_wire`]).
        let mut enc = Encoder::new();
        enc.put_raw(&blob.nonce);
        enc.put_bytes(&blob.ciphertext);
        enc.put_digest(&blob.tag);
        Ok(enc.finish())
    }

    fn content_root(&self) -> Digest {
        // Commitment over ciphertexts: the operator cannot be asked to
        // commit to plaintext it cannot see.
        let leaves: Vec<&[u8]> = self
            .sealed
            .values()
            .map(|(b, _)| b.ciphertext.as_slice())
            .collect();
        MerkleTree::from_leaves(&leaves).root()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::MetaValue;

    fn sample_record(i: u64) -> Record {
        Record {
            payload: format!("reading-{i}").into_bytes(),
            metadata: Metadata::new()
                .with(
                    "type",
                    MetaValue::Class("sensor/environment/temperature".into()),
                    0,
                )
                .with("sample-rate-hz", MetaValue::Num(1.0), 1)
                .with("owner-email", MetaValue::Str("x@example.com".into()), 5),
            timestamp: 100 + i,
        }
    }

    /// The provider every store in these tests belongs to.
    fn owner() -> KeyPair {
        KeyPair::from_seed(1)
    }

    fn ontology() -> Ontology {
        let mut o = Ontology::new();
        o.declare("sensor/environment/temperature");
        o
    }

    #[test]
    fn local_store_roundtrip() {
        let mut s = LocalStore::new(owner().public);
        let id = s.put(sample_record(1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(id).unwrap().payload, b"reading-1");
        assert_eq!(id, RecordId::of(b"reading-1"));
    }

    #[test]
    fn matching_on_published_metadata() {
        let mut s = LocalStore::new(owner().public);
        s.put(sample_record(1));
        s.put(sample_record(2));
        let o = ontology();
        let req = Requirement::HasClass {
            attr: "type".into(),
            class: "sensor/environment".into(),
        };
        assert_eq!(s.match_workload(&req, &o).len(), 2);
        let no_match = Requirement::HasClass {
            attr: "type".into(),
            class: "sensor/motion".into(),
        };
        assert!(s.match_workload(&no_match, &o).is_empty());
    }

    #[test]
    fn grant_flow_local() {
        let provider = owner();
        let executor_id = sha256(b"executor-1");
        let mut s = LocalStore::new(owner().public);
        let id = s.put(sample_record(1));
        let grant = AccessGrant::issue(&provider, id, 7, executor_id, 1000);
        let payload = s.fetch_with_grant(&grant, &executor_id, 500).unwrap();
        assert_eq!(payload, b"reading-1");
    }

    #[test]
    fn grant_rejections() {
        let provider = owner();
        let executor_id = sha256(b"executor-1");
        let other_executor = sha256(b"executor-2");
        let mut s = LocalStore::new(owner().public);
        let id = s.put(sample_record(1));
        let grant = AccessGrant::issue(&provider, id, 7, executor_id, 1000);

        // Wrong executor.
        assert_eq!(
            s.fetch_with_grant(&grant, &other_executor, 500)
                .unwrap_err(),
            StorageError::InvalidGrant("executor mismatch")
        );
        // Expired.
        assert_eq!(
            s.fetch_with_grant(&grant, &executor_id, 2000).unwrap_err(),
            StorageError::InvalidGrant("expired")
        );
        // Tampered scope.
        let mut forged = grant.clone();
        forged.workload_id = 8;
        assert_eq!(
            forged.verify(id, 8, &executor_id, 500).unwrap_err(),
            StorageError::InvalidGrant("bad signature")
        );
        // Signed by someone other than the store's owner, for themselves.
        let stranger = AccessGrant::issue(&KeyPair::from_seed(0xbad), id, 7, executor_id, 1000);
        assert_eq!(
            s.fetch_with_grant(&stranger, &executor_id, 500)
                .unwrap_err(),
            StorageError::InvalidGrant("not the record owner")
        );
        // Missing record.
        let ghost = AccessGrant::issue(&provider, RecordId::of(b"ghost"), 7, executor_id, 1000);
        assert_eq!(
            s.fetch_with_grant(&ghost, &executor_id, 500).unwrap_err(),
            StorageError::NotFound
        );
    }

    #[test]
    fn third_party_store_never_sees_plaintext() {
        let key = [9u8; KEY_LEN];
        let mut s = ThirdPartyStore::new(owner().public, key, 1);
        let record = sample_record(1);
        let id = s.put(record.clone());
        // Fetch returns ciphertext bytes, not the payload.
        let provider = owner();
        let executor_id = sha256(b"executor-1");
        let grant = AccessGrant::issue(&provider, id, 7, executor_id, 1000);
        let wire = s.fetch_with_grant(&grant, &executor_id, 500).unwrap();
        assert!(
            !wire
                .windows(record.payload.len())
                .any(|w| w == record.payload),
            "plaintext must not appear in the operator's response"
        );
    }

    #[test]
    fn third_party_metadata_is_redacted() {
        let mut s = ThirdPartyStore::new(owner().public, [0u8; KEY_LEN], 1);
        let id = s.put(sample_record(1));
        let published = s.published_metadata(id).unwrap();
        assert!(published.get("type").is_some());
        assert!(published.get("sample-rate-hz").is_some());
        assert!(
            published.get("owner-email").is_none(),
            "rank-5 attribute must not be published at level 1"
        );
    }

    #[test]
    fn sealed_payload_roundtrip_via_wire_format() {
        let key = [7u8; KEY_LEN];
        let mut s = ThirdPartyStore::new(owner().public, key, 0);
        let id = s.put(sample_record(3));
        let provider = owner();
        let executor_id = sha256(b"ex");
        let grant = AccessGrant::issue(&provider, id, 1, executor_id, 10);
        let wire = s.fetch_with_grant(&grant, &executor_id, 5).unwrap();
        let plain = ThirdPartyStore::open_wire(&key, &wire).unwrap();
        assert_eq!(plain, b"reading-3");
        // A wrong key, a flipped byte and a short read all fail alike.
        let mut flipped = wire.clone();
        *flipped.last_mut().unwrap() ^= 1;
        for (key, wire) in [
            (&[0u8; KEY_LEN], &wire[..]),
            (&key, &flipped[..]),
            (&key, &wire[..wire.len() - 1]),
            (&key, &wire[..NONCE_LEN - 1]),
        ] {
            assert_eq!(
                ThirdPartyStore::open_wire(key, wire).unwrap_err(),
                StorageError::CorruptCiphertext
            );
        }
    }

    #[test]
    fn a_grant_its_holder_signed_for_itself_opens_nothing() {
        // Anyone can mint a well-signed grant naming themselves as provider.
        let me = sha256(b"me");
        let mut local = LocalStore::new(owner().public);
        let mut third = ThirdPartyStore::new(owner().public, [7u8; KEY_LEN], 0);
        let id = local.put(sample_record(1));
        assert_eq!(third.put(sample_record(1)), id);
        let forged = AccessGrant::issue(&KeyPair::from_seed(0xbad), id, 1, me, 10);
        forged.verify(id, 1, &me, 0).expect("the signature is fine");
        let refused = Err(StorageError::InvalidGrant("not the record owner"));
        assert_eq!(local.fetch_with_grant(&forged, &me, 0), refused);
        assert_eq!(third.fetch_with_grant(&forged, &me, 0), refused);
        // The owner's grant for the same record still opens both.
        let granted = AccessGrant::issue(&owner(), id, 1, me, 10);
        assert_eq!(
            local.fetch_with_grant(&granted, &me, 0).unwrap(),
            b"reading-1"
        );
        assert!(third.fetch_with_grant(&granted, &me, 0).is_ok());
    }

    #[test]
    fn content_roots_commit_to_contents() {
        let mut s1 = LocalStore::new(owner().public);
        s1.put(sample_record(1));
        let r1 = s1.content_root();
        s1.put(sample_record(2));
        assert_ne!(s1.content_root(), r1);
        // Empty store commits to the zero sentinel.
        assert_eq!(LocalStore::new(owner().public).content_root(), Digest::ZERO);
    }

    #[test]
    fn matching_respects_publish_level() {
        // At level 0 the rate attribute is hidden; a requirement on it
        // cannot match (the E10 precision/leakage trade-off in miniature).
        let o = ontology();
        let req = Requirement::NumInRange {
            attr: "sample-rate-hz".into(),
            min: 0.5,
            max: 2.0,
        };
        let mut hidden = ThirdPartyStore::new(owner().public, [0u8; KEY_LEN], 0);
        hidden.put(sample_record(1));
        assert!(hidden.match_workload(&req, &o).is_empty());
        let mut open = ThirdPartyStore::new(owner().public, [0u8; KEY_LEN], 1);
        open.put(sample_record(1));
        assert_eq!(open.match_workload(&req, &o).len(), 1);
    }
}
