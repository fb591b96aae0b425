//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary inputs across the PDS² stack.

use pds2::market::authenticity::{
    Device, ManufacturerRegistry, ReadingRejection, ReadingVerifier, SignedReading,
};
use pds2::market::certificate::ParticipationCertificate;
use pds2::market::workload::{RewardScheme, TaskKind, WorkloadSpec};
use pds2::ml::data::Dataset;
use pds2::mpc::Fp;
use pds2::storage::semantic::{MetaValue, Metadata, Ontology, Requirement};
use pds2::storage::store::RecordId;
use pds2::tee::measurement::Measurement;
use pds2_chain::address::Address;
use pds2_crypto::codec::{Decode, Encode};
use pds2_crypto::{sha256, KeyPair};
use proptest::prelude::*;
use std::num::NonZeroU32;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Workload specifications round-trip through the canonical codec for
    /// arbitrary field values.
    #[test]
    fn workload_spec_codec_roundtrip(
        title in "[a-z]{1,20}",
        reward in 0u128..1_000_000_000,
        fee in 0u128..1_000_000,
        min_providers in 1u32..100,
        min_records in 1u64..100_000,
        epochs in 1u32..50,
        dp in proptest::option::of(0.01f64..10.0),
        n_rows in 0usize..10,
    ) {
        let validation = Dataset::new(
            (0..n_rows).map(|i| vec![i as f64, -(i as f64)]).collect(),
            (0..n_rows).map(|i| (i % 2) as f64).collect(),
        );
        let spec = WorkloadSpec {
            title,
            precondition: Requirement::Exists { attr: "type".into() },
            task: TaskKind::BinaryClassification,
            feature_dim: 2,
            provider_reward: reward,
            executor_fee: fee,
            reward_scheme: RewardScheme::ShapleyMonteCarlo { permutations: 7 },
            min_providers,
            min_records,
            code_measurement: Measurement::of(b"code", 1),
            validation,
            local_epochs: epochs,
            aggregation_rounds: 1,
            dp_noise_multiplier: dp,
            reward_token: None,
            data_bounds: None,
        };
        let back = WorkloadSpec::from_bytes(&spec.to_bytes()).unwrap();
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.spec_hash(), spec.spec_hash());
    }

    /// Participation certificates verify after a codec round trip and
    /// reject any scope change, for arbitrary contents.
    #[test]
    fn certificate_scope_binding(
        workload_id in any::<u64>(),
        n_records in 1usize..10,
        n_readings in 1u64..10_000,
        expiry in 1u64..u64::MAX,
        provider_seed in 0u64..1_000,
    ) {
        let provider = KeyPair::from_seed(provider_seed);
        let executor = Address::of(&KeyPair::from_seed(provider_seed + 1).public);
        let contract = Address::contract(&executor, 3);
        let records: Vec<RecordId> = (0..n_records)
            .map(|i| RecordId(sha256(&[i as u8])))
            .collect();
        let cert = ParticipationCertificate::issue(
            &provider, workload_id, contract, records, n_readings, executor, expiry,
        );
        let back = ParticipationCertificate::from_bytes(&cert.to_bytes()).unwrap();
        prop_assert!(back.verify(workload_id, contract, executor, 0));
        prop_assert!(!back.verify(workload_id.wrapping_add(1), contract, executor, 0));
        prop_assert!(!back.verify(workload_id, contract, Address::contract(&executor, 9), 0));
    }

    /// Device readings always verify when untampered and never verify
    /// after any single-field tamper.
    #[test]
    fn reading_tamper_detection(
        seed in 0u64..500,
        ts in 0u64..1_000_000,
        features in proptest::collection::vec(-1e6f64..1e6, 0..8),
        target in -1e6f64..1e6,
        tamper_field in 0usize..3,
    ) {
        let mut device = Device::new(seed);
        let reading = device.sign_reading(ts, features.clone(), target);
        prop_assert!(reading.signature_valid());
        let mut tampered = reading.clone();
        match tamper_field {
            0 => tampered.target += 1.0,
            1 => tampered.timestamp = tampered.timestamp.wrapping_add(1),
            _ => tampered.sequence = tampered.sequence.wrapping_add(1),
        }
        prop_assert!(!tampered.signature_valid());
    }

    /// A device signs a batch once. Whatever the batch size (1…70, so odd
    /// nodes are promoted at every level), every reading verifies alone,
    /// any in-order subset verifies through one verifier for one signature
    /// check, and one tamper on one reading is a bad signature whether the
    /// verifier has already accepted the batch's root or not.
    #[test]
    fn batch_readings_verify_and_any_tamper_is_refused(
        seed in 0u64..500,
        n in 1usize..=70,
        disclosed in any::<u128>(),
        victim in any::<usize>(),
        tamper in 0usize..9,
        at in any::<usize>(),
        warm in any::<bool>(),
    ) {
        let mut registry = ManufacturerRegistry::new();
        let manufacturer = KeyPair::from_seed(50);
        registry.register_manufacturer(manufacturer.public.clone());
        let mut device = Device::new(seed);
        registry.endorse(&manufacturer, &device).unwrap();
        let readings =
            device.sign_batch((0..n).map(|i| (seed + i as u64, vec![i as f64, 0.5], 1.0)));
        prop_assert_eq!(readings.len(), n);
        for r in &readings {
            prop_assert!(r.signature_valid());
            prop_assert!(SignedReading::from_bytes(&r.to_bytes()).unwrap().signature_valid());
        }

        let mut verifier = ReadingVerifier::new(&registry);
        let subset: Vec<&SignedReading> = readings
            .iter()
            .enumerate()
            .filter(|(i, _)| disclosed >> i & 1 == 1)
            .map(|(_, r)| r)
            .collect();
        for r in &subset {
            prop_assert_eq!(verifier.verify(r), Ok(()));
        }
        prop_assert_eq!(verifier.accepted, subset.len() as u64);
        prop_assert_eq!(verifier.signatures_checked, subset.len().min(1) as u64);

        let victim = victim % n;
        let honest = &readings[victim];
        let mut forged = honest.clone();
        let steps = forged.path.steps.len();
        let extra_step = pds2_crypto::merkle::ProofStep {
            sibling: sha256(b"sibling"),
            sibling_on_right: at & 1 == 0,
        };
        match tamper {
            0 => forged.target += 1.0,
            1 => forged.timestamp = forged.timestamp.wrapping_add(1),
            2 => forged.sequence = forged.sequence.wrapping_add(1),
            3 => forged.features[at % 2] -= 1.0,
            4 => {
                let sig = &forged.signature;
                let s = sig.s().add(&pds2_crypto::BigUint::one());
                forged.signature = pds2_crypto::Signature::new(sig.r().clone(), s).expect("s + 1 < q");
            }
            // A batch of one has no path to alter: it gets a step instead.
            5..=7 if steps == 0 => forged.path.steps.push(extra_step),
            5 => forged.path.steps[at % steps].sibling.0[at % 32] ^= 1 << (at % 8),
            6 => {
                let step = &mut forged.path.steps[at % steps];
                step.sibling_on_right = !step.sibling_on_right;
            }
            7 => {
                forged.path.steps.remove(at % steps);
            }
            _ => forged.path.steps.insert(at % (steps + 1), extra_step),
        }
        prop_assert!(!forged.signature_valid());
        let mut verifier = ReadingVerifier::new(&registry);
        if warm {
            prop_assert_eq!(verifier.verify(&readings[0]), Ok(()));
        }
        prop_assert_eq!(verifier.verify(&forged), Err(ReadingRejection::BadSignature));
        // The forgery taught the verifier nothing: the honest reading it
        // was made from passes after it (unless it was the warm-up).
        if !(warm && victim == 0) {
            prop_assert_eq!(verifier.verify(honest), Ok(()));
        }
        prop_assert_eq!(verifier.signatures_checked, 2);
    }

    /// Field axioms for the SMC prime field under arbitrary u64 inputs.
    #[test]
    fn fp_field_axioms(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (x, y, z) = (Fp::new(a), Fp::new(b), Fp::new(c));
        prop_assert_eq!(x.add(y), y.add(x));
        prop_assert_eq!(x.mul(y), y.mul(x));
        prop_assert_eq!(x.mul(y.add(z)), x.mul(y).add(x.mul(z)));
        prop_assert_eq!(x.add(Fp::ZERO.sub(x)), Fp::ZERO);
        if x != Fp::ZERO {
            prop_assert_eq!(x.mul(x.inv().unwrap()), Fp::ONE);
        }
    }

    /// Shamir reconstruct∘split is the identity for any (t, n) and secret.
    #[test]
    fn shamir_roundtrip(secret in any::<u64>(), t in 1usize..6, extra in 0usize..4) {
        use pds2::mpc::shamir::{reconstruct, split};
        let n = t + extra;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(secret);
        let shares = split(&mut rng, Fp::new(secret), t, n).unwrap();
        prop_assert_eq!(reconstruct(&shares[..t], t).unwrap(), Fp::new(secret));
        prop_assert_eq!(reconstruct(&shares[extra..], t).unwrap(), Fp::new(secret));
    }

    /// Reward shares never exceed the pool and always sum to it (after
    /// integer conversion) for arbitrary valuations.
    #[test]
    fn reward_shares_are_a_partition(
        valuations in proptest::collection::vec(-100.0f64..100.0, 1..20),
        total in 1u128..1_000_000,
    ) {
        use pds2::rewards::shapley::to_reward_shares;
        let shares = to_reward_shares(&valuations, total as f64);
        let sum: f64 = shares.iter().sum();
        prop_assert!(shares.iter().all(|&s| s >= 0.0));
        prop_assert!((sum - total as f64).abs() < 1e-6 * total as f64 + 1e-6);
    }

    /// Metadata redaction is monotone: raising the level never hides an
    /// attribute that a lower level exposed, and leakage is monotone too.
    #[test]
    fn redaction_monotonicity(
        ranks in proptest::collection::vec(0u8..6, 1..10),
    ) {
        let mut meta = Metadata::new();
        for (i, &rank) in ranks.iter().enumerate() {
            meta = meta.with(&format!("attr{i}"), MetaValue::Num(i as f64), rank);
        }
        let ontology = Ontology::new();
        let mut previous_len = 0;
        let mut previous_leak = 0.0;
        for level in 0u8..6 {
            let view = meta.redact(level);
            prop_assert!(view.len() >= previous_len);
            let leak = view.leakage_bits(&ontology);
            prop_assert!(leak >= previous_leak - 1e-9);
            previous_len = view.len();
            previous_leak = leak;
        }
        prop_assert_eq!(meta.redact(5).len(), ranks.len());
    }

    /// Chain transfers conserve total native supply for arbitrary
    /// transfer sequences (failed ones included).
    #[test]
    fn chain_conserves_supply(
        amounts in proptest::collection::vec(0u128..2_000, 1..20),
    ) {
        use pds2_chain::chain::Blockchain;
        use pds2_chain::contract::ContractRegistry;
        use pds2_chain::tx::{Transaction, TxKind};
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let initial = 10_000u128;
        let mut chain = Blockchain::single_validator(
            77,
            &[(Address::of(&alice.public), initial)],
            ContractRegistry::new(),
        );
        for (nonce, &amount) in amounts.iter().enumerate() {
            let tx = Transaction {
                from: alice.public.clone(),
                nonce: nonce as u64,
                kind: TxKind::Transfer { to: bob, amount },
                gas_limit: 100_000,
                max_fee_per_gas: 0,
                priority_fee_per_gas: 0,
            }
            .sign(&alice);
            chain.submit(tx).unwrap();
        }
        chain.produce_until_empty(100);
        prop_assert_eq!(chain.state.total_native_supply(), initial);
    }
}

// ---------------------------------------------------------------------------
// Differential test for the pluggable state-commitment backends: the same
// random transaction workload runs on two chains — one committing through
// the incremental sparse Merkle tree (dirty-key tracking), one through
// the full-rehash reference oracle that rebuilds the tree from every leaf
// on every commit. The roots must agree after EVERY block: any missed or
// spurious dirty mark in the execution layer splits them immediately.
// ---------------------------------------------------------------------------

mod state_backend_props {
    use super::*;
    use pds2_chain::backend::BackendKind;
    use pds2_chain::chain::{Blockchain, ChainConfig};
    use pds2_chain::contract::ContractRegistry;
    use pds2_chain::erc20::Erc20Op;
    use pds2_chain::erc721::{AssetKind, Erc721Op};
    use pds2_chain::tx::{Transaction, TxKind};
    use pds2_chain::TokenId;
    use pds2_core::contract::{Call, Init, WorkloadContract, WORKLOAD_CODE_ID};
    use proptest::prop_oneof;

    const N_ACCOUNTS: usize = 3;
    const TOKEN: TokenId = TokenId(0);

    /// What one random transaction does; accounts are named by index.
    /// Native transfers (some overdrawn, so they fail), both ERC-20 ops
    /// (some transfers overdrawn — a failed transfer still creates a
    /// zero-balance entry, the classic dirty-tracking trap), NFT mints
    /// (some duplicates), and the steps of a token-denominated workload
    /// contract: deploy it, send it tokens, FUND it (with native value
    /// attached it reverts and the escrow is refunded), CANCEL it (the
    /// escrow comes back as a token payout; from anyone but the deployer
    /// it reverts and the contract is rolled back). `which` picks one of the workloads deployed so far.
    /// The base fee is 1, so whatever runs burns half of what it pays for
    /// gas and tips the proposer the other half.
    #[derive(Clone, Debug)]
    enum WorkOp {
        Native { to: usize, amount: u128 },
        Erc20Create,
        Erc20Transfer { to: usize, amount: u128 },
        NftMint { content: u8 },
        WorkloadDeploy,
        WorkloadEscrow { which: usize, amount: u128 },
        WorkloadFund { which: usize, value: u128 },
        WorkloadCancel { which: usize },
    }

    /// A sender and what it sends.
    fn op_strategy() -> impl Strategy<Value = (usize, WorkOp)> {
        let who = || 0usize..N_ACCOUNTS;
        let op = prop_oneof![
            (who(), 0u128..200_000).prop_map(|(to, amount)| WorkOp::Native { to, amount }),
            Just(WorkOp::Erc20Create),
            (who(), 0u128..500).prop_map(|(to, amount)| WorkOp::Erc20Transfer { to, amount }),
            (0u8..6).prop_map(|content| WorkOp::NftMint { content }),
            Just(WorkOp::WorkloadDeploy),
            (0usize..4, 0u128..400)
                .prop_map(|(which, amount)| WorkOp::WorkloadEscrow { which, amount }),
            (0usize..4, 0u128..2).prop_map(|(which, value)| WorkOp::WorkloadFund { which, value }),
            (0usize..4).prop_map(|which| WorkOp::WorkloadCancel { which }),
        ];
        (who(), op)
    }

    /// Every case starts with these from account 0, so that token 0, NFT 0
    /// and a funded workload exist for the random operations to hit; the
    /// test also checks that these five succeeded, which it cannot know of
    /// a random one.
    const PROLOGUE: [WorkOp; 5] = [
        WorkOp::Erc20Create,
        WorkOp::NftMint { content: 0 },
        WorkOp::WorkloadDeploy,
        WorkOp::WorkloadEscrow {
            which: 0,
            amount: 300,
        },
        WorkOp::WorkloadFund { which: 0, value: 0 },
    ];

    /// The payload of `op`; `workloads` are the addresses deployed to so far.
    fn payload(op: &WorkOp, addrs: &[Address], workloads: &[Address]) -> TxKind {
        let workload = |which: usize| match workloads {
            [] => Address::contract(&addrs[0], u64::MAX), // no contract there
            list => list[which % list.len()],
        };
        let call = |which, input, value| TxKind::Call {
            contract: workload(which),
            input,
            value,
        };
        let token = TOKEN;
        match *op {
            WorkOp::Native { to, amount } => TxKind::Transfer {
                to: addrs[to],
                amount,
            },
            WorkOp::Erc20Create => TxKind::Erc20(Erc20Op::Create {
                symbol: "TOK".into(),
                initial_supply: 1_000,
            }),
            WorkOp::Erc20Transfer { to, amount } => TxKind::Erc20(Erc20Op::Transfer {
                token,
                to: addrs[to],
                amount,
            }),
            WorkOp::NftMint { content } => TxKind::Erc721(Erc721Op::Mint {
                kind: AssetKind::Dataset,
                content: sha256(&[content]),
                label: "d".into(),
            }),
            WorkOp::WorkloadDeploy => TxKind::Deploy {
                code_id: WORKLOAD_CODE_ID.into(),
                init: Init {
                    spec_hash: sha256(b"spec"),
                    code_measurement: sha256(b"code"),
                    provider_reward: 100,
                    executor_fee: 10,
                    min_providers: 1,
                    min_records: 1,
                    deadline_height: 0,
                    exec_timeout_blocks: NonZeroU32::MIN,
                    reward_token: Some(token),
                }
                .to_bytes(),
            },
            WorkOp::WorkloadEscrow { which, amount } => TxKind::Erc20(Erc20Op::Transfer {
                token,
                to: workload(which),
                amount,
            }),
            WorkOp::WorkloadFund { which, value } => call(which, Call::Fund.to_bytes(), value),
            WorkOp::WorkloadCancel { which } => call(which, Call::Cancel.to_bytes(), 0),
        }
    }

    fn build_chain(kind: BackendKind) -> Blockchain {
        let mut registry = ContractRegistry::new();
        registry.register(WORKLOAD_CODE_ID, WorkloadContract::construct);
        // Every transaction escrows 400 000 for gas: the third account can
        // pay for one and then depends on what the others send it.
        let mut chain = Blockchain::new(
            vec![KeyPair::from_seed(77)],
            &[
                (Address::of(&KeyPair::from_seed(100).public), 100_000_000),
                (Address::of(&KeyPair::from_seed(101).public), 50_000_000),
                (Address::of(&KeyPair::from_seed(102).public), 600_000),
            ],
            registry,
            ChainConfig {
                initial_base_fee: 1,
                ..ChainConfig::default()
            },
        );
        chain.state.set_backend(kind);
        chain
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn backends_agree_on_random_workloads(
            ops in proptest::collection::vec(op_strategy(), 1..40),
        ) {
            let keys: Vec<KeyPair> =
                (0..N_ACCOUNTS as u64).map(|i| KeyPair::from_seed(100 + i)).collect();
            let addrs: Vec<Address> = keys.iter().map(|k| Address::of(&k.public)).collect();
            let mut smt = build_chain(BackendKind::Smt);
            let mut oracle = build_chain(BackendKind::FullRehash);
            prop_assert_eq!(smt.state.backend_name(), "smt");
            prop_assert_eq!(oracle.state.backend_name(), "rehash");
            prop_assert_eq!(smt.state.state_root(), oracle.state.state_root());

            let ops: Vec<(usize, WorkOp)> =
                PROLOGUE.iter().map(|op| (0, op.clone())).chain(ops).collect();
            let mut workloads = Vec::new();
            let mut submitted = Vec::new();
            for batch in ops.chunks(4) {
                // A transaction that cannot pay for its gas is included
                // without consuming its nonce: start from the state's.
                let mut nonces: Vec<u64> = addrs.iter().map(|a| smt.state.nonce(a)).collect();
                for (from, op) in batch {
                    let from = *from;
                    let tx = Transaction {
                        from: keys[from].public.clone(),
                        nonce: nonces[from],
                        kind: payload(op, &addrs, &workloads),
                        gas_limit: 200_000,
                        max_fee_per_gas: 2,
                        priority_fee_per_gas: 1,
                    }
                    .sign(&keys[from]);
                    submitted.push(tx.hash());
                    // Admission can fail (the same transaction again, after
                    // it could not pay for its gas): identically on both.
                    let a = smt.submit(tx.clone());
                    let b = oracle.submit(tx);
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "admission diverged");
                    if a.is_ok() {
                        if matches!(op, WorkOp::WorkloadDeploy) {
                            workloads.push(Address::contract(&addrs[from], nonces[from]));
                        }
                        nonces[from] += 1;
                    }
                }
                let b1 = smt.produce_block();
                let b2 = oracle.produce_block();
                // Bit-identical blocks, and therefore bit-identical roots,
                // after every block — not just at the end.
                prop_assert_eq!(&b1.header.state_root, &b2.header.state_root,
                    "state roots diverged at height {}", b1.header.height);
                prop_assert_eq!(b1.header.hash(), b2.header.hash());
                prop_assert_eq!(
                    smt.state.total_native_supply(),
                    smt.state.recompute_native_supply(),
                    "O(1) supply counter drifted from the ground truth"
                );
            }
            for hash in &submitted[..PROLOGUE.len()] {
                let receipt = smt.receipt(hash).expect("included");
                prop_assert!(receipt.success, "prologue: {:?}", receipt.error);
            }
            // Cross-check the proof path against the oracle root: an
            // account proof taken from the SMT chain verifies against the
            // root the full-rehash oracle computed independently.
            let proof = smt.prove_account(&addrs[0]);
            prop_assert!(pds2_chain::verify_account_proof(
                &oracle.state.state_root(),
                &addrs[0],
                &proof,
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Model-based state machine for the sparse Merkle tree itself: random
// insert/update/delete sequences run against the real tree while a
// HashMap mirror tracks the exact leaf set. After every commit the tree
// root must equal a from-scratch build of the mirror, lookups must agree,
// and (non-)inclusion proofs must verify for present and absent keys.
// ---------------------------------------------------------------------------

mod smt_model {
    use super::*;
    use pds2_chain::smt::{SmtTree, MAX_DEPTH};
    use proptest::prop_oneof;
    use std::collections::HashMap;

    #[derive(Clone, Debug)]
    enum SmtOp {
        Insert(u16, u64),
        Delete(u16),
    }

    fn op_strategy() -> impl Strategy<Value = SmtOp> {
        prop_oneof![
            // Inserts listed three times so they dominate the mix.
            (0u16..64, any::<u64>()).prop_map(|(k, v)| SmtOp::Insert(k, v)),
            (0u16..64, any::<u64>()).prop_map(|(k, v)| SmtOp::Insert(k, v)),
            (0u16..64, any::<u64>()).prop_map(|(k, v)| SmtOp::Insert(k, v)),
            (0u16..64).prop_map(SmtOp::Delete),
        ]
    }

    fn key(k: u16) -> pds2_crypto::Digest {
        sha256(&k.to_le_bytes())
    }

    fn value(v: u64) -> pds2_crypto::Digest {
        sha256(&v.to_le_bytes())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn smt_matches_hashmap_mirror(
            batches in proptest::collection::vec(
                proptest::collection::vec(op_strategy(), 1..12),
                1..10,
            ),
        ) {
            prop_assert_eq!(MAX_DEPTH, 256);
            let mut tree = SmtTree::new();
            let mut mirror: HashMap<u16, u64> = HashMap::new();
            for batch in &batches {
                let updates: Vec<(pds2_crypto::Digest, Option<pds2_crypto::Digest>)> = batch
                    .iter()
                    .map(|op| match *op {
                        SmtOp::Insert(k, v) => (key(k), Some(value(v))),
                        SmtOp::Delete(k) => (key(k), None),
                    })
                    .collect();
                for op in batch {
                    match *op {
                        SmtOp::Insert(k, v) => {
                            mirror.insert(k, v);
                        }
                        SmtOp::Delete(k) => {
                            mirror.remove(&k);
                        }
                    }
                }
                tree.commit(updates);

                // Root equals a from-scratch build over the mirror.
                let leaves: Vec<(pds2_crypto::Digest, pds2_crypto::Digest)> =
                    mirror.iter().map(|(&k, &v)| (key(k), value(v))).collect();
                let (scratch, _) = SmtTree::from_leaves(leaves);
                prop_assert_eq!(tree.root_hash(), scratch.root_hash(),
                    "incremental and from-scratch roots diverged");
                prop_assert_eq!(tree.len(), mirror.len());

                // Lookups and proofs agree with the mirror on every probed
                // key, present or absent.
                let root = tree.root_hash();
                for k in 0u16..64 {
                    let got = tree.get(&key(k));
                    let want = mirror.get(&k).map(|&v| value(v));
                    prop_assert_eq!(got, want, "lookup diverged for key {}", k);
                    let proof = tree.prove(&key(k));
                    match mirror.get(&k) {
                        Some(&v) => prop_assert!(
                            proof.verify_inclusion(&root, &key(k), &value(v)),
                            "inclusion proof failed for key {}", k
                        ),
                        None => prop_assert!(
                            proof.verify_absence(&root, &key(k)),
                            "absence proof failed for key {}", k
                        ),
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Model-based state machine for the fee-market mempool.
//
// Random op sequences (insert / remove / prune / select) run against the
// real pool with a small capacity (so eviction actually fires) while a
// shadow mirror tracks what must be pending. The invariants under test:
//   * the pool's secondary indexes stay consistent (`check_invariants`)
//     and the size bound holds after every op;
//   * eviction only ever removes an account's *tail* nonce (so it can
//     never orphan a cheaper transaction that later nonces depend on)
//     and never the submitting account's own chain;
//   * selections are per-account gapless runs starting exactly at the
//     account's state nonce, within the gas and count budgets;
//   * the same insert sequence drains in the same order on every rerun.
// ---------------------------------------------------------------------------

mod mempool_props {
    use super::*;
    use pds2_chain::mempool::{InsertOutcome, Mempool, SelectionStats, SubmitError};
    use pds2_chain::tx::{SignedTransaction, Transaction, TxKind};
    use pds2_crypto::{Digest, Signature};
    use proptest::prop_oneof;
    use std::collections::BTreeMap;

    const N_ACCOUNTS: usize = 4;
    const CAPACITY: usize = 8;
    const TX_GAS: u64 = 50_000;
    const BLOCK_GAS: u64 = 1_000_000;

    #[derive(Clone, Debug)]
    enum Op {
        /// Insert at `state_nonce + offset` (the chain never hands the
        /// pool a stale nonce, so neither does the generator).
        Insert {
            account: usize,
            offset: u64,
            max_fee: u64,
            prio: u64,
        },
        /// Remove the i-th pending hash (mod population), as block
        /// inclusion does.
        RemoveNth(usize),
        /// An external block consumed `advance` nonces the pool never
        /// saw: prune below the new state nonce.
        Prune { account: usize, advance: u64 },
        /// Build a block: select under a gas/count budget.
        Select {
            base_fee: u64,
            max_txs: usize,
            gas_blocks: u64,
        },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Inserts listed twice: admission (and thus eviction) should
        // dominate the mix.
        prop_oneof![
            (0usize..N_ACCOUNTS, 0u64..4, 1u64..60, 0u64..60).prop_map(
                |(account, offset, max_fee, prio)| Op::Insert {
                    account,
                    offset,
                    max_fee,
                    prio,
                }
            ),
            (0usize..N_ACCOUNTS, 0u64..2, 30u64..90, 0u64..90).prop_map(
                |(account, offset, max_fee, prio)| Op::Insert {
                    account,
                    offset,
                    max_fee,
                    prio,
                }
            ),
            (0usize..16).prop_map(Op::RemoveNth),
            (0usize..N_ACCOUNTS, 1u64..3)
                .prop_map(|(account, advance)| Op::Prune { account, advance }),
            (0u64..20, 1usize..5, 1u64..5).prop_map(|(base_fee, max_txs, gas_blocks)| {
                Op::Select {
                    base_fee,
                    max_txs,
                    gas_blocks,
                }
            }),
        ]
    }

    /// A transaction the mempool will accept. The signature is a shared
    /// donor: admission never verifies signatures (the chain does, before
    /// the pool ever sees the transaction), and skipping per-tx signing
    /// keeps the generators cheap.
    fn ptx(
        keys: &[KeyPair],
        donor: &Signature,
        account: usize,
        nonce: u64,
        max_fee: u64,
        prio: u64,
    ) -> SignedTransaction {
        SignedTransaction::new(
            Transaction {
                from: keys[account].public.clone(),
                nonce,
                kind: TxKind::Transfer {
                    to: Address::of(&KeyPair::from_seed(999).public),
                    amount: 1,
                },
                gas_limit: TX_GAS,
                max_fee_per_gas: max_fee,
                priority_fee_per_gas: prio,
            },
            donor.clone(),
        )
    }

    fn test_keys() -> (Vec<KeyPair>, Signature) {
        let keys: Vec<KeyPair> = (0..N_ACCOUNTS as u64)
            .map(|i| KeyPair::from_seed(3_000 + i))
            .collect();
        let donor = KeyPair::from_seed(2_999).sign(b"mempool-proptest-donor");
        (keys, donor)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn mempool_state_machine(ops in proptest::collection::vec(op_strategy(), 1..60)) {
            let (keys, donor) = test_keys();
            let addrs: Vec<Address> =
                keys.iter().map(|k| Address::of(&k.public)).collect();
            let mut pool = Mempool::new(CAPACITY);
            // Shadow mirror: address → nonce → pending hash, plus each
            // account's state nonce.
            let mut mirror: BTreeMap<Address, BTreeMap<u64, Digest>> = BTreeMap::new();
            let mut nonces: BTreeMap<Address, u64> =
                addrs.iter().map(|a| (*a, 0)).collect();

            for op in &ops {
                match *op {
                    Op::Insert { account, offset, max_fee, prio } => {
                        let sender = addrs[account];
                        let nonce = nonces[&sender] + offset;
                        let t = ptx(&keys, &donor, account, nonce, max_fee, prio);
                        let hash = t.hash();
                        let was_full = pool.len() == CAPACITY;
                        let mut evicted = Vec::new();
                        match pool.insert(t, nonces[&sender], BLOCK_GAS, &mut evicted) {
                            Ok(outcome) => {
                                // Evictions (applied before the insert)
                                // may only take other accounts' tails.
                                for h in &evicted {
                                    let victim = mirror
                                        .iter_mut()
                                        .find(|(_, chain)| chain.values().any(|v| v == h))
                                        .map(|(a, chain)| (*a, chain));
                                    let (addr, chain) =
                                        victim.expect("evicted hash must be mirrored");
                                    prop_assert_ne!(addr, sender, "evicted the submitter");
                                    let (&tail, _) = chain.iter().next_back().unwrap();
                                    prop_assert_eq!(
                                        chain.get(&tail), Some(h),
                                        "eviction took a non-tail nonce"
                                    );
                                    chain.remove(&tail);
                                    if chain.is_empty() {
                                        mirror.remove(&addr);
                                    }
                                }
                                if let InsertOutcome::Replaced(old) = outcome {
                                    let slot = mirror
                                        .get_mut(&sender)
                                        .and_then(|c| c.remove(&nonce));
                                    prop_assert_eq!(slot, Some(old), "replaced wrong slot");
                                }
                                mirror.entry(sender).or_default().insert(nonce, hash);
                                prop_assert!(pool.contains(&hash));
                            }
                            Err(SubmitError::ReplacementUnderpriced { .. }) => {
                                prop_assert!(
                                    mirror.get(&sender).is_some_and(|c| c.contains_key(&nonce)),
                                    "replacement error without a pending slot"
                                );
                                prop_assert!(evicted.is_empty());
                            }
                            Err(SubmitError::Underpriced { .. } | SubmitError::PoolFull { .. }) => {
                                prop_assert!(was_full, "refusal from a non-full pool");
                                prop_assert!(evicted.is_empty());
                            }
                            Err(e @ SubmitError::GasLimitTooHigh { .. }) => {
                                prop_assert!(false, "unexpected {}", e);
                            }
                        }
                    }
                    Op::RemoveNth(i) => {
                        let pending: Vec<(Address, u64, Digest)> = mirror
                            .iter()
                            .flat_map(|(a, c)| c.iter().map(|(n, h)| (*a, *n, *h)))
                            .collect();
                        if pending.is_empty() {
                            prop_assert!(!pool.remove_by_hash(&pds2_crypto::sha256(b"absent")));
                        } else {
                            let (addr, nonce, hash) = pending[i % pending.len()];
                            prop_assert!(pool.remove_by_hash(&hash));
                            prop_assert!(!pool.remove_by_hash(&hash), "double remove");
                            let chain = mirror.get_mut(&addr).unwrap();
                            chain.remove(&nonce);
                            if chain.is_empty() {
                                mirror.remove(&addr);
                            }
                        }
                    }
                    Op::Prune { account, advance } => {
                        let sender = addrs[account];
                        let new_nonce = nonces[&sender] + advance;
                        let expect = mirror
                            .get(&sender)
                            .map_or(0, |c| c.range(..new_nonce).count());
                        prop_assert_eq!(pool.prune_stale(sender, new_nonce), expect);
                        if let Some(chain) = mirror.get_mut(&sender) {
                            *chain = chain.split_off(&new_nonce);
                            if chain.is_empty() {
                                mirror.remove(&sender);
                            }
                        }
                        nonces.insert(sender, new_nonce);
                    }
                    Op::Select { base_fee, max_txs, gas_blocks } => {
                        let gas_limit = gas_blocks * TX_GAS;
                        let mut stats = SelectionStats::default();
                        let sel = {
                            let lookup = &nonces;
                            pool.select(base_fee, gas_limit, max_txs, |a| lookup[a], &mut stats)
                        };
                        prop_assert!(sel.len() <= max_txs);
                        let gas: u64 = sel.iter().map(|t| t.tx.gas_limit).sum();
                        prop_assert!(gas <= gas_limit, "selection blew the gas budget");
                        prop_assert_eq!(stats.stale_dropped, 0, "mirror never goes stale");
                        let mut per: BTreeMap<Address, Vec<u64>> = BTreeMap::new();
                        for t in &sel {
                            prop_assert!(
                                t.tx.effective_tip(base_fee).is_some(),
                                "selected an unaffordable transaction"
                            );
                            prop_assert!(!pool.contains(&t.hash()), "selected but still pending");
                            per.entry(t.tx.sender()).or_default().push(t.tx.nonce);
                        }
                        for (addr, got) in per {
                            let start = nonces[&addr];
                            let want: Vec<u64> =
                                (start..start + got.len() as u64).collect();
                            prop_assert_eq!(
                                &got, &want,
                                "selection for {} is not a gapless run from its state nonce",
                                addr
                            );
                            let chain = mirror.get_mut(&addr).unwrap();
                            for n in &want {
                                prop_assert!(chain.remove(n).is_some(), "selected unmirrored tx");
                            }
                            if chain.is_empty() {
                                mirror.remove(&addr);
                            }
                            nonces.insert(addr, start + want.len() as u64);
                        }
                    }
                }
                // After every op: indexes consistent, bound held, mirror agreed.
                pool.check_invariants();
                prop_assert!(pool.len() <= CAPACITY);
                let mirrored: usize = mirror.values().map(|c| c.len()).sum();
                prop_assert_eq!(pool.len(), mirrored, "pool and mirror disagree on size");
            }
            // Final census: the pool holds exactly the mirrored transactions.
            let left: Vec<(Address, u64)> = pool
                .all()
                .iter()
                .map(|t| (t.tx.sender(), t.tx.nonce))
                .collect();
            let want: Vec<(Address, u64)> = mirror
                .iter()
                .flat_map(|(a, c)| c.keys().map(|n| (*a, *n)))
                .collect();
            prop_assert_eq!(left, want);
        }

        /// Draining the same insert sequence selects the same transactions
        /// in the same order on a rerun.
        #[test]
        fn mempool_selection_is_deterministic(
            txs in proptest::collection::vec(
                (0usize..N_ACCOUNTS, 0u64..6, 1u64..60, 0u64..60),
                1..40,
            ),
            base_fee in 0u64..20,
        ) {
            let (keys, donor) = test_keys();
            let drain = || {
                let mut pool = Mempool::new(64);
                let mut evicted = Vec::new();
                for &(account, nonce, max_fee, prio) in &txs {
                    let _ = pool.insert(
                        ptx(&keys, &donor, account, nonce, max_fee, prio),
                        0,
                        BLOCK_GAS,
                        &mut evicted,
                    );
                }
                let mut nonces: BTreeMap<Address, u64> = keys
                    .iter()
                    .map(|k| (Address::of(&k.public), 0))
                    .collect();
                let mut order = Vec::new();
                loop {
                    let mut stats = SelectionStats::default();
                    let sel = {
                        let lookup = &nonces;
                        pool.select(base_fee, 3 * TX_GAS, 2, |a| lookup[a], &mut stats)
                    };
                    if sel.is_empty() {
                        break; // drained, or only gap/fee-blocked txs remain
                    }
                    for t in sel {
                        nonces.insert(t.tx.sender(), t.tx.nonce + 1);
                        order.push(t.hash());
                    }
                }
                (order, pool.len())
            };
            let base = drain();
            prop_assert_eq!(&drain(), &base, "rerun diverged");
        }
    }
}

// ---------------------------------------------------------------------------
// Model-based state machine for the workload contract lifecycle.
//
// Random call sequences run against the real chain while a shadow model
// predicts, for every call, whether it must succeed and what every balance
// must be afterwards. The invariants under test:
//   * escrow is never double-spent (contract balance matches the model
//     exactly, and native supply is conserved);
//   * refund XOR payout: the escrow leaves the contract exactly once —
//     either entirely back to the consumer (cancel/expire/abort) or as
//     payouts + remainder-refund (finalize);
//   * only the consumer moves its escrow by choice: FINALIZE and CANCEL
//     from anyone else fail (EXPIRE and ABORT are public, and refund it);
//   * terminal phases are absorbing: after Completed/Cancelled every
//     further call fails and no balance moves;
//   * every funded escrow has an exit: whatever the walk left, the
//     consumer's CANCEL ends an Open workload, and a stranger's ABORT past
//     the drawn execution timeout ends an Executing one.
//
// Every transaction's input is a `Call` value, and the model predicts and
// applies by matching on `Call` with no `_` arm: a tenth call does not
// compile until the model says what it does. The model knows the contract's
// rules from the paper and the module doc, not from its code.
// ---------------------------------------------------------------------------

mod workload_lifecycle {
    use super::*;
    use pds2_chain::chain::Blockchain;
    use pds2_chain::contract::ContractRegistry;
    use pds2_chain::tx::{Transaction, TxKind};
    use pds2_core::contract::{Call, Init, WorkloadContract, WORKLOAD_CODE_ID};
    use proptest::prop_oneof;
    use std::collections::{BTreeMap, BTreeSet};

    const PROVIDER_REWARD: u128 = 1_000;
    const EXECUTOR_FEE: u128 = 50;
    const MIN_PROVIDERS: u32 = 1;
    const MIN_RECORDS: u64 = 10;
    const DEADLINE_HEIGHT: u64 = 6;

    /// Who signs: an index into the test's keys.
    const CONSUMER: usize = 0;
    const EXECUTORS: [usize; 2] = [1, 2];
    const STRANGER: usize = 3;

    #[derive(Clone, Debug)]
    pub enum Op {
        Fund(u128),
        Register(usize),
        Participate {
            executor: usize,
            provider: usize,
            records: u64,
        },
        Start,
        SubmitResult {
            executor: usize,
        },
        Finalize {
            sender: usize,
            share: u128,
        },
        Cancel {
            sender: usize,
        },
        Expire,
        Abort,
        Mine,
    }

    /// The consumer as often as not, else an executor or a stranger.
    fn sender_strategy() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(CONSUMER),
            Just(CONSUMER),
            Just(EXECUTORS[0]),
            Just(STRANGER),
        ]
    }

    pub fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u128..3_000).prop_map(Op::Fund),
            (0usize..2).prop_map(Op::Register),
            (0usize..2, 0usize..2, 1u64..40).prop_map(|(executor, provider, records)| {
                Op::Participate {
                    executor,
                    provider,
                    records,
                }
            }),
            Just(Op::Start),
            (0usize..2).prop_map(|executor| Op::SubmitResult { executor }),
            (sender_strategy(), 0u128..1_200)
                .prop_map(|(sender, share)| Op::Finalize { sender, share }),
            sender_strategy().prop_map(|sender| Op::Cancel { sender }),
            Just(Op::Expire),
            Just(Op::Abort),
            Just(Op::Mine),
        ]
    }

    /// A random walk rarely gets a workload started, let alone to where a
    /// FINALIZE would pay: each case first takes a drawn number of these
    /// steps.
    const HAPPY_PATH: [Op; 5] = [
        Op::Fund(1_100),
        Op::Register(0),
        Op::Participate {
            executor: 0,
            provider: 0,
            records: 20,
        },
        Op::Start,
        Op::SubmitResult { executor: 0 },
    ];

    #[derive(Clone, Copy, PartialEq, Debug)]
    pub enum ModelPhase {
        Open,
        Executing,
        Terminal,
    }

    /// Shadow model of the on-chain contract: enough state to predict the
    /// outcome of every call and the exact post-state of every balance.
    pub struct Model {
        pub phase: ModelPhase,
        pub consumer: Address,
        pub contract: Address,
        pub escrow: u128,
        pub started_height: u64,
        /// The execution timeout the workload was deployed with.
        pub timeout: u64,
        pub registered: BTreeSet<Address>,
        pub voted: BTreeSet<Address>,
        /// provider → (records, executor)
        pub contributions: BTreeMap<Address, (u64, Address)>,
        /// Every balance the calls can move.
        pub balances: BTreeMap<Address, u128>,
    }

    impl Model {
        /// Predicts whether `call` from `sender` must succeed at
        /// `exec_height`.
        pub fn predict(&self, sender: Address, call: &Call, exec_height: u64) -> bool {
            use ModelPhase::*;
            match call {
                Call::Fund => self.phase == Open,
                Call::RegisterExecutor => self.phase == Open && !self.registered.contains(&sender),
                Call::SubmitParticipation(rows) => {
                    self.phase == Open
                        && self.registered.contains(&sender)
                        && rows
                            .iter()
                            .all(|(p, _, _)| !self.contributions.contains_key(p))
                }
                Call::Start => {
                    let records: u64 = self.contributions.values().map(|(r, _)| r).sum();
                    self.phase == Open
                        && self.contributions.len() as u32 >= MIN_PROVIDERS
                        && records >= MIN_RECORDS
                        && self.escrow
                            >= PROVIDER_REWARD + EXECUTOR_FEE * self.registered.len() as u128
                }
                Call::SubmitResult(_) => {
                    self.phase == Executing
                        && self.registered.contains(&sender)
                        && !self.voted.contains(&sender)
                }
                Call::Finalize(shares) => {
                    self.phase == Executing
                        && sender == self.consumer
                        && self
                            .contributions
                            .values()
                            .all(|(_, e)| self.voted.contains(e))
                        && shares.iter().map(|(_, amount)| amount).sum::<u128>() <= PROVIDER_REWARD
                }
                Call::Cancel => self.phase == Open && sender == self.consumer,
                Call::Expire => self.phase == Open && exec_height > DEADLINE_HEIGHT,
                Call::Abort => {
                    self.phase == Executing && exec_height > self.started_height + self.timeout
                }
            }
        }

        fn credit(&mut self, to: Address, amount: u128) {
            *self.balances.get_mut(&to).unwrap() += amount;
            *self.balances.get_mut(&self.contract).unwrap() -= amount;
        }

        /// Applies a call that succeeded, carrying `value`, at `exec_height`.
        pub fn apply(&mut self, sender: Address, call: &Call, value: u128, exec_height: u64) {
            match call {
                Call::Fund => {
                    self.escrow += value;
                    *self.balances.get_mut(&sender).unwrap() -= value;
                    *self.balances.get_mut(&self.contract).unwrap() += value;
                }
                Call::RegisterExecutor => {
                    self.registered.insert(sender);
                }
                Call::SubmitParticipation(rows) => {
                    for (provider, records, _) in rows {
                        self.contributions.insert(*provider, (*records, sender));
                    }
                }
                Call::Start => {
                    self.phase = ModelPhase::Executing;
                    self.started_height = exec_height;
                }
                Call::SubmitResult(_) => {
                    self.voted.insert(sender);
                }
                Call::Finalize(shares) => {
                    // Unanimous result: the shares go to the providers they
                    // name, every voter earns the fee, the consumer gets
                    // what is left (`credit` panics if they paid more).
                    for (provider, amount) in shares {
                        self.credit(*provider, *amount);
                    }
                    for voter in self.voted.clone() {
                        self.credit(voter, EXECUTOR_FEE);
                    }
                    self.credit(self.consumer, self.balances[&self.contract]);
                    self.escrow = 0;
                    self.phase = ModelPhase::Terminal;
                }
                Call::Cancel | Call::Expire | Call::Abort => {
                    // Full refund, exactly once.
                    self.credit(self.consumer, self.escrow);
                    self.escrow = 0;
                    self.phase = ModelPhase::Terminal;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn contract_lifecycle_state_machine(
            head_start in 0usize..=HAPPY_PATH.len(),
            timeout in 1u32..=4,
            ops in proptest::collection::vec(op_strategy(), 1..30),
        ) {
            // The consumer, two executors and a stranger hold keys; the
            // providers are only paid.
            let keys = [1, 10, 11, 12].map(KeyPair::from_seed);
            let addrs = keys.clone().map(|k| Address::of(&k.public));
            let providers = [20, 21].map(|s| Address::of(&KeyPair::from_seed(s).public));
            let genesis = [1_000_000, 1_000, 1_000, 0];
            let alloc: Vec<(Address, u128)> = addrs.iter().copied().zip(genesis).collect();
            let mut registry = ContractRegistry::new();
            registry.register(WORKLOAD_CODE_ID, WorkloadContract::construct);
            let mut chain = Blockchain::single_validator(77, &alloc, registry);
            let initial_supply = chain.state.total_native_supply();
            let send = |chain: &mut Blockchain, who: usize, kind: TxKind| {
                let tx = Transaction {
                    from: keys[who].public.clone(),
                    nonce: chain.state.nonce(&addrs[who]),
                    kind,
                    gas_limit: 1_000_000,
                    max_fee_per_gas: 0,
                    priority_fee_per_gas: 0,
                }
                .sign(&keys[who]);
                let hash = chain.submit(tx).unwrap();
                chain.produce_block();
                chain.receipt(&hash).expect("receipt recorded").clone()
            };

            // Deploy the workload with a short deadline and a drawn
            // execution timeout so the sequence can actually reach both.
            let init = Init {
                spec_hash: sha256(b"spec"),
                code_measurement: sha256(b"code"),
                provider_reward: PROVIDER_REWARD,
                executor_fee: EXECUTOR_FEE,
                min_providers: MIN_PROVIDERS,
                min_records: MIN_RECORDS,
                deadline_height: DEADLINE_HEIGHT,
                exec_timeout_blocks: NonZeroU32::new(timeout).unwrap(),
                reward_token: None,
            };
            let deploy = TxKind::Deploy {
                code_id: WORKLOAD_CODE_ID.into(),
                init: init.to_bytes(),
            };
            let contract = send(&mut chain, CONSUMER, deploy)
                .deployed
                .expect("deploy succeeds");

            let mut balances: BTreeMap<Address, u128> = alloc.into_iter().collect();
            balances.extend(providers.map(|p| (p, 0)));
            balances.insert(contract, 0);
            let mut model = Model {
                phase: ModelPhase::Open,
                consumer: addrs[CONSUMER],
                contract,
                escrow: 0,
                started_height: 0,
                timeout: u64::from(timeout),
                registered: BTreeSet::new(),
                voted: BTreeSet::new(),
                contributions: BTreeMap::new(),
                balances,
            };

            // One call: the model predicts it, the chain runs it in its own
            // block, and every invariant is checked. Returns its success.
            let call_and_check = |chain: &mut Blockchain,
                                  model: &mut Model,
                                  who: usize,
                                  call: Call,
                                  value: u128|
             -> bool {
                // `produce_block` executes at the pre-production height.
                let exec_height = chain.height();
                let predicted = model.predict(addrs[who], &call, exec_height);
                let was_terminal = model.phase == ModelPhase::Terminal;
                let kind = TxKind::Call {
                    contract,
                    input: call.to_bytes(),
                    value,
                };
                let success = send(chain, who, kind).success;

                prop_assert_eq!(
                    success, predicted,
                    "model disagreed on {:?} from key {} at height {} (phase {:?})",
                    call, who, exec_height, model.phase
                );
                // Terminal phases absorb every call.
                prop_assert!(!(was_terminal && success), "{call:?} succeeded after terminal phase");
                if success {
                    model.apply(addrs[who], &call, value, exec_height);
                }

                // Invariants, every step.
                prop_assert_eq!(
                    chain.state.total_native_supply(),
                    initial_supply,
                    "supply not conserved after {:?}",
                    call
                );
                for (addr, want) in &model.balances {
                    prop_assert_eq!(
                        chain.state.balance(addr),
                        *want,
                        "balance of {} wrong after {:?} (phase {:?})",
                        addr, call, model.phase
                    );
                }
                if model.phase == ModelPhase::Terminal {
                    prop_assert_eq!(
                        chain.state.balance(&contract),
                        0,
                        "terminal contract still holds escrow"
                    );
                }
                success
            };

            for op in HAPPY_PATH[..head_start].iter().chain(&ops) {
                // Who sends which call with how much; `None` mines an empty
                // block. EXPIRE and ABORT are public: executors send them.
                let step = match *op {
                    Op::Fund(value) => Some((CONSUMER, Call::Fund, value)),
                    Op::Register(e) => Some((EXECUTORS[e], Call::RegisterExecutor, 0)),
                    Op::Participate { executor, provider, records } => {
                        let rows = vec![(providers[provider], records, sha256(b"cert"))];
                        Some((EXECUTORS[executor], Call::SubmitParticipation(rows), 0))
                    }
                    Op::Start => Some((CONSUMER, Call::Start, 0)),
                    Op::SubmitResult { executor } => {
                        Some((EXECUTORS[executor], Call::SubmitResult(sha256(b"result")), 0))
                    }
                    Op::Finalize { sender, share } => {
                        // The whole share to the first contributor, if any.
                        let first = model.contributions.keys().next();
                        let shares = first.map(|p| (*p, share)).into_iter().collect();
                        Some((sender, Call::Finalize(shares), 0))
                    }
                    Op::Cancel { sender } => Some((sender, Call::Cancel, 0)),
                    Op::Expire => Some((EXECUTORS[0], Call::Expire, 0)),
                    Op::Abort => Some((EXECUTORS[1], Call::Abort, 0)),
                    Op::Mine => None,
                };
                let Some((who, call, value)) = step else {
                    chain.produce_block();
                    continue;
                };
                call_and_check(&mut chain, &mut model, who, call, value);
            }

            // The exit, from wherever the walk stopped.
            let exit = match model.phase {
                ModelPhase::Open => Some((CONSUMER, Call::Cancel)),
                ModelPhase::Executing => {
                    while chain.height() <= model.started_height + model.timeout {
                        chain.produce_block();
                    }
                    Some((STRANGER, Call::Abort))
                }
                ModelPhase::Terminal => None,
            };
            if let Some((who, call)) = exit {
                let success = call_and_check(&mut chain, &mut model, who, call.clone(), 0);
                prop_assert!(success, "{call:?} from key {who} is no exit");
            }
            prop_assert_eq!(model.phase, ModelPhase::Terminal);
            prop_assert_eq!(chain.state.balance(&contract), 0);
        }
    }
}

/// The link model's fixed-point slowdown (1/1024ths) against the old
/// f64 formula: for any multiplier, the integer delay matches the f64
/// delay computed from the *quantized* multiplier to within 1 tick
/// (the quantization itself is the intended platform-independence fix,
/// so the comparison holds it fixed).
mod link_fixed_point {
    use pds2::net::link::{apply_slowdown, quantize_slowdown};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fixed_point_slowdown_matches_f64_within_one_tick(
            raw_us in 0u64..100_000_000,
            slowdown in 0.5f64..1_000.0,
        ) {
            let q = quantize_slowdown(slowdown);
            let fixed = apply_slowdown(raw_us, q);
            let float = (raw_us as f64 * (q as f64 / 1024.0)) as u64;
            prop_assert!(
                fixed.abs_diff(float) <= 1,
                "raw={raw_us} s={slowdown} q={q}: fixed={fixed} float={float}"
            );
            // Exact multiples of 1/1024 reproduce the f64 product exactly.
            let exact = (q as f64) / 1024.0;
            let q2 = quantize_slowdown(exact);
            prop_assert_eq!(q2, q);
            prop_assert_eq!(apply_slowdown(raw_us, q2), (raw_us as f64 * exact) as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Threshold governance (DESIGN.md §5i). Three invariants the protocol
// stands on: any t-of-n quorum reconstructs the same group secret (and
// signs validly under the one group key), proactive refresh re-randomizes
// every share without moving the group key, and t−1 shares reconstruct
// garbage — the whole point of the threshold.
// ---------------------------------------------------------------------------

mod threshold_gov_props {
    use super::*;
    use pds2_crypto::bigint::BigUint;
    use pds2_crypto::schnorr::{Group, PublicKey};
    use pds2_gov::dkg::{
        lagrange_at, refresh_committee, refresh_share, run_dkg, ThresholdParams, ValidatorShare,
    };
    use pds2_gov::sign::sign_with_quorum;

    /// Interpolates `f(0)` (the group secret) from a share subset.
    fn interpolate(shares: &[&ValidatorShare], q: &BigUint) -> BigUint {
        let signers: Vec<u64> = shares.iter().map(|s| s.index).collect();
        let mut x = BigUint::zero();
        for s in shares {
            let lambda = lagrange_at(&signers, s.index, 0, q).unwrap();
            x = x.add_mod(&s.scalar.mul_mod(&lambda, q), q);
        }
        x
    }

    /// A rotated size-`k` subset of the share vector starting at `start`.
    fn subset(shares: &[ValidatorShare], k: usize, start: usize) -> Vec<&ValidatorShare> {
        (0..k)
            .map(|i| &shares[(start + i) % shares.len()])
            .collect()
    }

    proptest! {
        // DKG + modexp per case is much heavier than the other modules'
        // subjects; 16 cases still sweeps (seed, n, subset) thoroughly.
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn any_t_subset_reconstructs_the_same_secret_and_signs(
            seed in any::<u64>(),
            n in 3usize..7,
            start in 0usize..8,
        ) {
            let params = ThresholdParams::majority(n);
            let (committee, shares) = run_dkg(seed, params).unwrap();
            let group = Group::standard();
            let a = subset(&shares, params.t, start % n);
            let b = subset(&shares, params.t, (start + 1) % n);
            let xa = interpolate(&a, &group.q);
            prop_assert_eq!(
                &xa, &interpolate(&b, &group.q),
                "two different quorums disagree on the group secret"
            );
            prop_assert_eq!(
                &PublicKey::from_element(group.pow_g(&xa)),
                committee.group_public(),
                "interpolated secret does not open the group commitment"
            );
            // Both quorums' aggregates verify under the single group key.
            let sig_a = sign_with_quorum(&committee, &a, b"gov-prop").unwrap();
            prop_assert!(committee.group_public().verify(b"gov-prop", &sig_a));
            let sig_b = sign_with_quorum(&committee, &b, b"gov-prop").unwrap();
            prop_assert!(committee.group_public().verify(b"gov-prop", &sig_b));
        }

        #[test]
        fn refresh_preserves_group_key_and_changes_every_share(
            seed in any::<u64>(),
            n in 3usize..7,
        ) {
            let params = ThresholdParams::majority(n);
            let (mut committee, mut shares) = run_dkg(seed, params).unwrap();
            let key_before = committee.group_public().clone();
            let old: Vec<BigUint> = shares.iter().map(|s| s.scalar.clone()).collect();
            refresh_committee(&mut committee);
            for share in &mut shares {
                refresh_share(params, seed, share);
            }
            prop_assert_eq!(
                committee.group_public(), &key_before,
                "proactive refresh moved the group public key"
            );
            for (share, old_scalar) in shares.iter().zip(&old) {
                prop_assert_ne!(
                    &share.scalar, old_scalar,
                    "share {} survived the refresh unchanged", share.index
                );
                prop_assert_eq!(share.epoch, 1);
            }
            // Refreshed quorums still reconstruct the ORIGINAL secret and
            // sign under the unchanged key.
            let group = Group::standard();
            let q = subset(&shares, params.t, 1 % n);
            prop_assert_eq!(
                &PublicKey::from_element(group.pow_g(&interpolate(&q, &group.q))),
                &key_before
            );
            let sig = sign_with_quorum(&committee, &q, b"post-refresh").unwrap();
            prop_assert!(key_before.verify(b"post-refresh", &sig));
        }

        #[test]
        fn t_minus_one_shares_reconstruct_the_wrong_secret(
            seed in any::<u64>(),
            n in 3usize..7,
            start in 0usize..8,
        ) {
            let params = ThresholdParams::majority(n);
            let (committee, shares) = run_dkg(seed, params).unwrap();
            // majority(n≥3) always has t ≥ 2, so t−1 ≥ 1 shares exist.
            prop_assert!(params.t >= 2);
            let group = Group::standard();
            let short = subset(&shares, params.t - 1, start % n);
            let x = interpolate(&short, &group.q);
            prop_assert_ne!(
                &PublicKey::from_element(group.pow_g(&x)),
                committee.group_public(),
                "t−1 shares must NOT reconstruct the group secret"
            );
        }
    }
}
