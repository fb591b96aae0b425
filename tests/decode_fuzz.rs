//! Decode-robustness: every parser that faces bytes from the network or
//! the chain must reject hostile input with an error — never panic, never
//! over-allocate — and what does decode must not pass for something it is
//! not.
//!
//! The decodable types are listed once, in [`build_table`]: a name, one
//! valid encoding, and how to decode it and ask whether the value would be
//! believed (its signature, root or digest holds). Four drivers run over
//! the list: every strict prefix of a sample is an error; every single-bit
//! flip of a sample is an error, the sample again, or a value its own check
//! refuses; arbitrary bytes, alone and spliced into a sample, never panic;
//! a sample re-encodes to its own bytes. `every_decodable_type_has_a_row`
//! greps the workspace for `impl Decode for` and fails when a type has no
//! row, so a new wire type cannot skip any of this.

use pds2::market::authenticity::Device;
use pds2::market::certificate::ParticipationCertificate;
use pds2::market::contract::{Call, Contribution, Init, Phase, WorkloadState};
use pds2::market::workload::{RewardScheme, TaskKind, WorkloadSpec};
use pds2::ml::data::Dataset;
use pds2::storage::semantic::{MetaValue, Requirement};
use pds2::storage::store::RecordId;
use pds2::tee::measurement::Measurement;
use pds2_chain::address::{Account, Address};
use pds2_chain::block::Block;
use pds2_chain::chain::Blockchain;
use pds2_chain::contract::ContractRegistry;
use pds2_chain::erc20::{Erc20Op, TokenId};
use pds2_chain::erc721::{AssetKind, Erc721Op, NftId};
use pds2_chain::smt::{verify_proof, SmtProof, SmtTree};
use pds2_chain::sync::SyncMsg;
use pds2_chain::tx::{SignedTransaction, Transaction, TxKind};
use pds2_crypto::codec::{Decode, DecodeError, Encode};
use pds2_crypto::{sha256, Digest, KeyPair, MerkleTree};
use pds2_learning::gossip::GossipMsg;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::num::NonZeroU32;
use std::sync::OnceLock;

/// What decoding some bytes as a row's type gave: an error, or the value's
/// own encoding and whether the value would be believed. `None` for plain
/// data, which carries nothing to believe it by.
type Decoded = Result<(Vec<u8>, Option<bool>), DecodeError>;

/// Shared by the tests' threads through [`table`].
type DecodeFn = dyn Fn(&[u8]) -> Decoded + Send + Sync;

struct Row {
    /// The type as `impl Decode for` names it, then `/` and which sample
    /// when a type has several.
    name: &'static str,
    sample: Vec<u8>,
    decode: Box<DecodeFn>,
}

/// A row for plain data: any value of the type is as good as another.
fn plain<T: Decode + Encode>(name: &'static str, sample: T) -> Row {
    Row {
        name,
        sample: sample.to_bytes(),
        decode: Box::new(|bytes| T::from_bytes(bytes).map(|v| (v.to_bytes(), None))),
    }
}

/// A row for a value that vouches for itself: `believed` is the check its
/// consumer runs before acting on it.
fn checked<T: Decode + Encode>(
    name: &'static str,
    sample: T,
    believed: impl Fn(&T) -> bool + Send + Sync + 'static,
) -> Row {
    Row {
        name,
        sample: sample.to_bytes(),
        decode: Box::new(move |bytes| {
            T::from_bytes(bytes).map(|v| (v.to_bytes(), Some(believed(&v))))
        }),
    }
}

fn address(seed: u64) -> Address {
    Address::of(&KeyPair::from_seed(seed).public)
}

fn transfer(from: &KeyPair, nonce: u64, amount: u128) -> SignedTransaction {
    Transaction {
        from: from.public.clone(),
        nonce,
        kind: TxKind::Transfer {
            to: address(2),
            amount,
        },
        gas_limit: 90_000,
        max_fee_per_gas: 0,
        priority_fee_per_gas: 0,
    }
    .sign(from)
}

/// Proposer signature over the header, tx-root commitment over the body,
/// sender signature on every transaction.
fn block_intact(block: &Block) -> bool {
    block.header.verify_signature()
        && block.header.tx_root == Block::compute_tx_root(&block.transactions)
        && block.transactions.iter().all(|t| t.verify_signature())
}

/// The 64-leaf tree of the sparse-Merkle-proof tests: keys 0..64 are
/// present, everything else absent.
mod smt_fixture {
    use super::*;

    pub fn key(i: u64) -> Digest {
        sha256(&i.to_le_bytes())
    }

    pub fn value_bytes(i: u64) -> Vec<u8> {
        format!("leaf-value-{i}").into_bytes()
    }

    /// The value a verifier would check for probe key `i`.
    pub fn expected_value(i: u64) -> Option<Vec<u8>> {
        (i < 64).then(|| value_bytes(i))
    }

    /// Row name and probe key: two present keys, then two absent ones whose
    /// paths end at another key's leaf and at an empty subtree, the three
    /// shapes `SmtProof::found` has on the wire.
    pub const PROBES: [(&str, u64); 4] = [
        ("SmtProof/inclusion_3", 3),
        ("SmtProof/inclusion_41", 41),
        ("SmtProof/absence_130", 130),
        ("SmtProof/absence_9999", 9_999),
    ];

    pub fn tree() -> (SmtTree, Digest) {
        let leaves = (0..64).map(|i| (key(i), sha256(&value_bytes(i))));
        let (tree, _) = SmtTree::from_leaves(leaves.collect());
        let root = tree.root_hash();
        (tree, root)
    }
}

fn build_table() -> Vec<Row> {
    let alice = KeyPair::from_seed(1);
    let (a, b) = (address(1), address(2));
    let tx = transfer(&alice, 9, 1_234);

    // One chain: a block of one transfer, an empty block, then some token
    // and NFT traffic for the two module snapshots.
    let mut chain = Blockchain::single_validator(55, &[(a, 10_000_000)], ContractRegistry::new());
    chain.submit(transfer(&alice, 0, 5)).unwrap();
    let block = chain.produce_block();
    let empty_block = chain.produce_block();
    let mint = Erc721Op::Mint {
        kind: AssetKind::Dataset,
        content: sha256(b"dataset"),
        label: "readings".into(),
    };
    let token_traffic = [
        TxKind::Erc20(Erc20Op::Create {
            symbol: "RWD".into(),
            initial_supply: 1_000,
        }),
        TxKind::Erc20(Erc20Op::Transfer {
            token: TokenId(0),
            to: b,
            amount: 10,
        }),
        TxKind::Erc721(mint.clone()),
    ];
    for (nonce, kind) in (1..).zip(token_traffic) {
        let tx = Transaction {
            from: alice.public.clone(),
            nonce,
            kind,
            gas_limit: 200_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        };
        let hash = chain.submit(tx.sign(&alice)).unwrap();
        chain.produce_block();
        assert!(chain.receipt(&hash).unwrap().success);
    }

    let msg = b"decode_fuzz";
    let signature = alice.sign(msg);
    // Both verification paths answer alike on whatever decodes.
    let both_paths = |key: &pds2_crypto::PublicKey, sig: &pds2_crypto::Signature| {
        let fast = key.verify(msg, sig);
        assert_eq!(fast, key.verify_reference(msg, sig), "paths split");
        fast
    };

    let leaves: Vec<Vec<u8>> = (0..11u8).map(|i| vec![i; 3]).collect();
    let merkle = MerkleTree::from_leaves(&leaves);
    let merkle_root = merkle.root();

    let (smt, smt_root) = smt_fixture::tree();
    let smt_row = |(name, i): (&'static str, u64)| {
        checked(
            name,
            smt.prove(&smt_fixture::key(i)),
            move |p: &SmtProof| {
                let value = smt_fixture::expected_value(i);
                verify_proof(&smt_root, &smt_fixture::key(i), value.as_deref(), p)
            },
        )
    };

    let reading = Device::new(1)
        .sign_batch((0..5).map(|i| (i, vec![1.0, -2.5], 0.5)))
        .swap_remove(3);
    let reading_index = reading.path.leaf_index;

    let provider = KeyPair::from_seed(3);
    let contract = Address::contract(&b, 0);
    let records = vec![RecordId(sha256(b"r1")), RecordId(sha256(b"r2"))];
    let certificate =
        ParticipationCertificate::issue(&provider, 7, contract, records, 120, b, 1_000);

    let precondition = Requirement::All(vec![
        Requirement::HasClass {
            attr: "type".into(),
            class: "sensor/temperature".into(),
        },
        Requirement::Not(Box::new(Requirement::NumInRange {
            attr: "rate".into(),
            min: 0.5,
            max: 2.0,
        })),
        Requirement::Any(vec![
            Requirement::Exists {
                attr: "unit".into(),
            },
            Requirement::StrEquals {
                attr: "unit".into(),
                value: "K".into(),
            },
        ]),
    ]);
    let init = Init {
        spec_hash: sha256(b"spec"),
        code_measurement: sha256(b"code"),
        provider_reward: 10_000,
        executor_fee: 500,
        min_providers: 2,
        min_records: 10,
        deadline_height: 30,
        exec_timeout_blocks: NonZeroU32::new(2).unwrap(),
        reward_token: Some(TokenId(3)),
    };
    let spec = WorkloadSpec {
        title: "fuzz".into(),
        precondition: precondition.clone(),
        task: TaskKind::Regression,
        feature_dim: 2,
        provider_reward: 10_000,
        executor_fee: 500,
        reward_scheme: RewardScheme::ShapleyMonteCarlo { permutations: 7 },
        min_providers: 2,
        min_records: 10,
        code_measurement: Measurement::of(b"code", 1),
        validation: Dataset::new(vec![vec![0.5, -1.0], vec![2.0, 3.0]], vec![0.0, 1.0]),
        local_epochs: 3,
        aggregation_rounds: 1,
        dp_noise_multiplier: Some(1.5),
        reward_token: Some(TokenId(3)),
        data_bounds: None,
    };
    let contribution = Contribution {
        records: 20,
        certificate_hash: sha256(b"cert"),
        executor: b,
    };
    let state = WorkloadState {
        consumer: a,
        init: init.clone(),
        funded: 11_000,
        phase: Phase::Completed,
        started_height: 9,
        executors: [(b, Some(sha256(b"model"))), (address(4), None)].into(),
        contributions: [(address(5), contribution)].into(),
        result: Some(sha256(b"model")),
        slashed: vec![address(6)],
    };

    let (committee, nonces, partial) = {
        use pds2_gov::dkg::{run_dkg, ThresholdParams};
        use pds2_gov::sign::{nonce_commitment, partial_sign, NonceGuard};
        let params = ThresholdParams::new(3, 4).unwrap();
        let (committee, shares) = run_dkg(0xF122, params).unwrap();
        let nonces: Vec<(u64, _)> = shares[..3]
            .iter()
            .map(|s| (s.index, nonce_commitment(s, msg, 0)))
            .collect();
        let mut guard = NonceGuard::new();
        let partial = partial_sign(&shares[0], &committee, msg, 0, &nonces, &mut guard).unwrap();
        (committee, nonces, partial)
    };

    let mut rows = vec![
        // pds2-crypto
        checked("PublicKey", alice.public.clone(), {
            let signature = signature.clone();
            move |key| both_paths(key, &signature)
        }),
        checked("Signature", signature, {
            let key = alice.public.clone();
            move |sig| both_paths(&key, sig)
        }),
        // `leaf_index` is not bound by the root (`MerkleProof::root_from`
        // says so): the check pins it, as a verifier that cares where the
        // leaf sat would.
        checked("MerkleProof", merkle.prove(6).unwrap(), move |p| {
            p.leaf_index == 6 && p.verify(&leaves[6], &merkle_root)
        }),
        // pds2-chain
        plain("Address", a),
        plain(
            "Account",
            Account {
                balance: 77,
                nonce: 3,
            },
        ),
        plain("TokenId", TokenId(9)),
        plain("NftId", NftId(9)),
        plain("AssetKind", AssetKind::WorkloadCode),
        plain(
            "Erc20Op",
            Erc20Op::Transfer {
                token: TokenId(1),
                to: b,
                amount: 5,
            },
        ),
        plain("Erc721Op", mint),
        plain(
            "NftInfo",
            chain.state.erc721.info(NftId(0)).unwrap().clone(),
        ),
        plain("Erc20Module", chain.state.erc20.clone()),
        plain("Erc721Module", chain.state.erc721.clone()),
        plain("Event", chain.events_by_topic("erc20.transfer")[0].clone()),
        plain("TxKind", tx.tx.kind.clone()),
        plain("Transaction", tx.tx.clone()),
        checked("SignedTransaction", tx, SignedTransaction::verify_signature),
        checked("BlockHeader", block.header.clone(), |h| {
            h.verify_signature()
        }),
        checked("Block", block.clone(), block_intact),
        checked(
            "SyncMsg/new_block",
            SyncMsg::NewBlock(empty_block),
            |m| match m {
                SyncMsg::NewBlock(block) => block_intact(block),
                SyncMsg::Blocks(blocks) => blocks.iter().all(block_intact),
                SyncMsg::Request { .. } | SyncMsg::Announce { .. } => false,
            },
        ),
        plain("SyncMsg/request", SyncMsg::Request { from_height: 17 }),
        // pds2-storage
        plain("MetaValue", MetaValue::Num(36.6)),
        plain("Requirement", precondition),
        // pds2-core
        plain("RewardScheme", spec.reward_scheme),
        plain("TaskKind", spec.task),
        plain("WorkloadSpec", spec),
        // As for `MerkleProof`, the position in the batch is pinned.
        checked("SignedReading", reading, move |r| {
            r.path.leaf_index == reading_index && r.signature_valid()
        }),
        checked("ParticipationCertificate", certificate, move |c| {
            c.verify(7, contract, b, 500)
        }),
        plain("Init", init),
        plain("Call/start", Call::Start),
        plain(
            "Call/submit_participation",
            Call::SubmitParticipation(vec![(a, 20, sha256(b"c0")), (b, 30, sha256(b"c1"))]),
        ),
        plain("Call/submit_result", Call::SubmitResult(sha256(b"model"))),
        plain(
            "Call/finalize",
            Call::Finalize(vec![(a, 3_000), (b, 0), (address(4), u128::MAX)]),
        ),
        plain("WorkloadState", state),
        // pds2-gov: the aggregator's dual-exponentiation check.
        checked("PartialSig", partial, move |p| {
            let mut session =
                pds2_gov::SigningSession::new(&committee, msg, 0, nonces.clone()).unwrap();
            session.offer(&committee, p).is_ok()
        }),
        // pds2-learning
        checked(
            "GossipMsg",
            GossipMsg::new(vec![0.25, -1.5, 3.75, 0.0], 17, true),
            GossipMsg::verify,
        ),
    ];
    rows.extend(smt_fixture::PROBES.map(smt_row));
    rows
}

fn table() -> &'static [Row] {
    static TABLE: OnceLock<Vec<Row>> = OnceLock::new();
    TABLE.get_or_init(build_table)
}

/// The rows of one type.
fn rows_of(ty: &str) -> Vec<&'static Row> {
    let rows: Vec<_> = table()
        .iter()
        .filter(|r| r.name.split('/').next() == Some(ty))
        .collect();
    assert!(!rows.is_empty(), "no row for {ty}");
    rows
}

// ---------------------------------------------------------------------------
// The drivers.
// ---------------------------------------------------------------------------

/// A sample decodes to itself, and is believed if anything of its type is.
fn assert_samples_reencode<'a>(rows: impl IntoIterator<Item = &'a Row>) {
    for row in rows {
        let (bytes, believed) = (row.decode)(&row.sample).expect(row.name);
        assert_eq!(bytes, row.sample, "{}: re-encoding differs", row.name);
        assert_ne!(believed, Some(false), "{}: sample refused", row.name);
    }
}

/// Truncation in flight never yields a value, let alone a panic.
fn assert_prefixes_rejected<'a>(rows: impl IntoIterator<Item = &'a Row>) {
    for row in rows {
        for len in 0..row.sample.len() {
            assert!(
                (row.decode)(&row.sample[..len]).is_err(),
                "{}: truncation to {len}/{} bytes decoded",
                row.name,
                row.sample.len()
            );
        }
    }
}

/// A bit flipped in flight is an error, or the same value, or a value its
/// own check catches.
fn assert_bit_flips_caught<'a>(rows: impl IntoIterator<Item = &'a Row>) {
    for row in rows {
        for idx in 0..row.sample.len() {
            for bit in 0..8 {
                let mut bytes = row.sample.clone();
                bytes[idx] ^= 1 << bit;
                if let Ok((reencoded, Some(true))) = (row.decode)(&bytes) {
                    assert!(
                        reencoded == row.sample,
                        "{}: flip at byte {idx} bit {bit} is another value and believed",
                        row.name
                    );
                }
            }
        }
    }
}

/// Decoding `bytes`, and a sample with `bytes` written over it from `at`
/// (which gets random bytes past a sample's first fields), returns.
fn assert_no_panic<'a>(rows: impl IntoIterator<Item = &'a Row>, bytes: &[u8], at: usize) {
    for row in rows {
        let _ = (row.decode)(bytes);
        let mut spliced = row.sample.clone();
        let at = at % spliced.len();
        let n = bytes.len().min(spliced.len() - at);
        spliced[at..at + n].copy_from_slice(&bytes[..n]);
        let _ = (row.decode)(&spliced);
    }
}

fn arbitrary_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..512)
}

#[test]
fn every_sample_reencodes_to_its_own_bytes() {
    assert_samples_reencode(table());
}

#[test]
fn every_strict_prefix_is_an_error() {
    assert_prefixes_rejected(table());
}

#[test]
fn every_bit_flip_is_an_error_or_the_sample_or_refused() {
    assert_bit_flips_caught(table());
}

/// The `Signature` row's sample is 65 bytes with no prefix to truncate
/// into, so what the table's drivers cannot reach is the range of the two
/// fields: `R = 0`, `R ≥ p` and `s ≥ q` are refused where the bytes
/// enter, before any verifier sees them.
#[test]
fn non_canonical_signature_fields_fail_at_decode() {
    use pds2_crypto::schnorr::Group;
    use pds2_crypto::{BigUint, Signature};
    let group = Group::standard();
    let sample = rows_of("Signature")[0].sample.clone();
    assert_eq!(sample.len(), Signature::LEN);
    let with = |r: Option<&BigUint>, s: Option<&BigUint>| {
        let mut bytes = sample.clone();
        if let Some(r) = r {
            r.write_bytes_be(&mut bytes[..33]);
        }
        if let Some(s) = s {
            s.write_bytes_be(&mut bytes[33..]);
        }
        Signature::from_bytes(&bytes)
    };
    let refused = Err(DecodeError::Invalid("signature out of range"));
    let one = BigUint::one();
    assert_eq!(with(Some(&BigUint::zero()), None), refused);
    assert_eq!(with(Some(&group.p), None), refused);
    assert_eq!(with(Some(&one.shl(264).sub(&one)), None), refused);
    assert_eq!(with(None, Some(&group.q)), refused);
    assert_eq!(with(None, Some(&one.shl(256).sub(&one))), refused);
    // The largest values in range decode, to themselves.
    let top = with(Some(&group.p.sub(&one)), Some(&group.q.sub(&one))).unwrap();
    assert_eq!((top.r(), top.s()), (&group.p.sub(&one), &group.q.sub(&one)));
    let mut longer = sample.clone();
    longer.push(0);
    assert_eq!(
        Signature::from_bytes(&longer),
        Err(DecodeError::TrailingBytes)
    );
}

/// What the table's generic checks cannot say of `Init`: a workload with
/// no execution timeout would hold its escrow forever once Executing, so
/// the row's sample with the timeout written as zero is refused where the
/// bytes enter, as a deploy input and inside a contract snapshot.
#[test]
fn init_row_refuses_a_zero_timeout() {
    // The timeout follows two digests, two `u128`s, a `u32` and two `u64`s;
    // a snapshot puts the consumer's address first.
    let refused = Err(DecodeError::Invalid("zero execution timeout"));
    for (ty, at) in [("Init", 116), ("WorkloadState", 32 + 116)] {
        let row = rows_of(ty)[0];
        let mut bytes = row.sample.clone();
        assert_eq!(bytes[at..at + 4], 2u32.to_le_bytes(), "{ty}");
        bytes[at..at + 4].fill(0);
        assert_eq!((row.decode)(&bytes), refused, "{ty}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in arbitrary_bytes(), at in any::<usize>()) {
        assert_no_panic(table(), &bytes, at);
    }
}

/// `impl Decode for T` under `crates/*/src`, the codec's own primitives
/// aside.
fn decodable_types() -> BTreeSet<String> {
    fn visit(dir: &std::path::Path, out: &mut BTreeSet<String>) {
        for entry in std::fs::read_dir(dir).expect("readable dir").flatten() {
            let path = entry.path();
            if path.is_dir() {
                visit(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs")
                && !path.ends_with("crypto/src/codec.rs")
            {
                let body = std::fs::read_to_string(&path).unwrap_or_default();
                for (at, opener) in body.match_indices("impl Decode for ") {
                    let rest = &body[at + opener.len()..];
                    let end = rest.find(|c: char| !c.is_alphanumeric() && c != '_');
                    out.insert(rest[..end.unwrap_or(rest.len())].to_string());
                }
            }
        }
    }
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut types = BTreeSet::new();
    for entry in std::fs::read_dir(crates).expect("crates dir").flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            visit(&src, &mut types);
        }
    }
    types
}

#[test]
fn every_decodable_type_has_a_row() {
    let declared = decodable_types();
    assert!(declared.len() > 30, "sanity: found only {declared:?}");
    let rows: BTreeSet<String> = table()
        .iter()
        .map(|r| r.name.split('/').next().unwrap().to_string())
        .collect();
    let missing: Vec<_> = declared.difference(&rows).collect();
    let stale: Vec<_> = rows.difference(&declared).collect();
    assert!(
        missing.is_empty(),
        "`impl Decode for` types with no row in tests/decode_fuzz.rs: {missing:?}\n\
         (add one to `build_table`: `plain(..)`, or `checked(..)` with the check \
         its consumer runs)"
    );
    assert!(
        stale.is_empty(),
        "rows for types nothing implements `Decode` for: {stale:?}"
    );
}

// ---------------------------------------------------------------------------
// What the table cannot say about a sparse-Merkle proof: it round-trips for
// present and absent keys alike without proving the opposite claim, and no
// two of its sibling hashes can be swapped.
// ---------------------------------------------------------------------------

mod smt_proof_mutations {
    use super::smt_fixture::{expected_value, key, tree, value_bytes, PROBES};
    use super::*;

    #[test]
    fn smt_proof_roundtrip_covers_inclusion_and_absence() {
        let (tree, root) = tree();
        let found = |i| match tree.prove(&key(i)).found {
            Some((k, _)) if k == key(i) => "own leaf",
            Some(_) => "witness leaf",
            None => "empty subtree",
        };
        assert_eq!(
            PROBES.map(|(_, i)| found(i)),
            ["own leaf", "own leaf", "witness leaf", "empty subtree"]
        );
        for i in (0..64).chain(100..164) {
            let proof = tree.prove(&key(i));
            let back = SmtProof::from_bytes(&proof.to_bytes()).expect("roundtrip decodes");
            assert_eq!(back, proof);
            let value = expected_value(i);
            assert!(
                verify_proof(&root, &key(i), value.as_deref(), &back),
                "round-tripped proof must verify for key {i}"
            );
            // The same proof must not prove the opposite claim.
            let opposite = match value {
                Some(_) => None,
                None => Some(value_bytes(i)),
            };
            assert!(
                !verify_proof(&root, &key(i), opposite.as_deref(), &back),
                "proof proved the opposite claim for key {i}"
            );
        }
    }

    #[test]
    fn sibling_swapped_smt_proof_never_verifies() {
        let (tree, root) = tree();
        for (_, i) in PROBES {
            let proof = tree.prove(&key(i));
            let value = expected_value(i);
            let n = proof.siblings.len();
            assert!(n > 1, "key {i}: proof too shallow to swap");
            for a in 0..n {
                for b in a + 1..n {
                    if proof.siblings[a] == proof.siblings[b] {
                        // Swapping identical digests (e.g. two empty
                        // subtrees) is byte-identical — not a mutation.
                        continue;
                    }
                    let mut mutated = proof.clone();
                    mutated.siblings.swap(a, b);
                    assert!(
                        !verify_proof(&root, &key(i), value.as_deref(), &mutated),
                        "key {i}: swapping siblings {a}<->{b} still verifies"
                    );
                }
            }
        }
    }
}
