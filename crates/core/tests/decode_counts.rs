//! An element count read from untrusted bytes is bounded by the bytes that
//! follow it before anything is allocated for it. Random bytes never get
//! this far (a `PublicKey` or a fixed prefix precedes each count), so each
//! test forges the count inside an otherwise valid encoding.

use pds2_chain::address::Address;
use pds2_core::authenticity::{Device, SignedReading};
use pds2_core::certificate::ParticipationCertificate;
use pds2_core::contract::{Init, Phase, WorkloadState};
use pds2_core::workload::{decode_dataset, encode_dataset};
use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use pds2_crypto::merkle::MerkleProof;
use pds2_crypto::sha256::sha256;
use pds2_crypto::KeyPair;
use pds2_storage::store::RecordId;
use std::num::NonZeroU32;

/// `bytes` decodes; with the `u64` count at `count_at` replaced by 2⁶⁰, or
/// by one more than the bytes that follow it, it is a `LengthOverflow`.
fn assert_count_bounded<T>(
    bytes: &[u8],
    count_at: usize,
    decode: impl Fn(&[u8]) -> Result<T, DecodeError>,
) {
    assert!(decode(bytes).is_ok(), "the unforged encoding decodes");
    let remaining = (bytes.len() - count_at - 8) as u64;
    for count in [1 << 60, remaining + 1] {
        let mut forged = bytes.to_vec();
        forged[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
        assert_eq!(
            decode(&forged).err(),
            Some(DecodeError::LengthOverflow),
            "count {count}"
        );
    }
}

#[test]
fn signed_reading_feature_count() {
    let reading = Device::new(1).sign_reading(0, vec![1.0, 2.0], 0.5);
    // device ‖ device key ‖ sequence ‖ timestamp ‖ count
    let count_at = 32 + reading.device_key.to_bytes().len() + 16;
    assert_count_bounded(&reading.to_bytes(), count_at, SignedReading::from_bytes);
}

#[test]
fn signed_reading_path_step_count() {
    let mut device = Device::new(1);
    let batch = device.sign_batch((0..33).map(|i| (i, vec![1.0, 2.0], 0.5)));
    for reading in [&batch[0], &batch[32]] {
        let bytes = reading.to_bytes();
        // The path is the last field: leaf index ‖ count ‖ 33-byte steps.
        let count_at = bytes.len() - 33 * reading.path.steps.len() - 8;
        assert_count_bounded(&bytes, count_at, SignedReading::from_bytes);
    }
    // The steps are there, and still no path is longer than a tree a
    // `usize` can index.
    let mut long = batch[0].clone();
    long.path.steps = vec![long.path.steps[0]; MerkleProof::MAX_STEPS + 1];
    assert_eq!(
        SignedReading::from_bytes(&long.to_bytes()).err(),
        Some(DecodeError::LengthOverflow)
    );
    long.path.steps.pop();
    assert!(SignedReading::from_bytes(&long.to_bytes()).is_ok());
}

#[test]
fn participation_certificate_record_count() {
    let provider = KeyPair::from_seed(1);
    let executor = Address::of(&KeyPair::from_seed(2).public);
    let cert = ParticipationCertificate::issue(
        &provider,
        7,
        Address::contract(&executor, 0),
        vec![RecordId(sha256(b"r1")), RecordId(sha256(b"r2"))],
        120,
        executor,
        1000,
    );
    // provider key ‖ workload id ‖ contract ‖ count
    let count_at = provider.public.to_bytes().len() + 8 + 32;
    assert_count_bounded(
        &cert.to_bytes(),
        count_at,
        ParticipationCertificate::from_bytes,
    );
}

fn dataset_from_bytes(bytes: &[u8]) -> Result<pds2_ml::data::Dataset, DecodeError> {
    decode_dataset(&mut Decoder::new(bytes))
}

#[test]
fn dataset_row_count() {
    let mut enc = Encoder::new();
    encode_dataset(&pds2_ml::data::gaussian_blobs(5, 3, 1.0, 2), &mut enc);
    assert_count_bounded(&enc.finish(), 0, dataset_from_bytes);
}

#[test]
fn dataset_row_width() {
    let mut enc = Encoder::new();
    encode_dataset(&pds2_ml::data::gaussian_blobs(5, 3, 1.0, 2), &mut enc);
    let bytes = enc.finish();
    // rows ‖ width: a width whose first row alone outruns the input, up to
    // the 32 GiB per row a `u32` can ask for.
    for width in [5 * 4, u32::MAX] {
        let mut forged = bytes.clone();
        forged[8..12].copy_from_slice(&width.to_le_bytes());
        assert_eq!(
            dataset_from_bytes(&forged).err(),
            Some(DecodeError::LengthOverflow),
            "width {width}"
        );
    }
}

#[test]
fn workload_state_slashed_count() {
    let state = WorkloadState {
        consumer: Address::of(&KeyPair::from_seed(1).public),
        init: Init {
            spec_hash: sha256(b"spec"),
            code_measurement: sha256(b"code"),
            provider_reward: 10,
            executor_fee: 1,
            min_providers: 1,
            min_records: 1,
            deadline_height: 0,
            exec_timeout_blocks: NonZeroU32::MIN,
            reward_token: None,
        },
        funded: 11,
        phase: Phase::Open,
        started_height: 0,
        executors: Default::default(),
        contributions: Default::default(),
        result: None,
        slashed: Vec::new(),
    };
    // The slashed list is the last field, and empty here: its count is the
    // last eight bytes.
    let bytes = state.to_bytes();
    assert_count_bounded(&bytes, bytes.len() - 8, WorkloadState::from_bytes);
}
