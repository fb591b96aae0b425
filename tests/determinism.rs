//! Serial-vs-parallel equivalence: every result produced through the
//! `pds2-par` execution layer must be byte-identical at any worker count.
//!
//! Each test runs the same computation under `pds2_par::with_threads` at
//! 1, 4 and 8 threads (the worker count, `with_threads`)
//! and compares exact bytes/bits, not approximate values. A test that
//! runs traced code takes `pds2_obs::test_lock()`: one of them compares
//! capture digests, and the collector is process-global.

use pds2_chain::address::Address;
use pds2_chain::chain::{Blockchain, ChainConfig};
use pds2_chain::contract::ContractRegistry;
use pds2_chain::tx::{SignedTransaction, Transaction, TxKind};
use pds2_crypto::merkle::MerkleTree;
use pds2_crypto::{Digest, KeyPair};
use pds2_ml::linalg::{axpy, dot, dot_naive};
use pds2_rewards::shapley::{monte_carlo_shapley, FnUtility, McConfig};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

fn make_chain() -> Blockchain {
    let alice = KeyPair::from_seed(1);
    Blockchain::new(
        vec![KeyPair::from_seed(9000)],
        &[(Address::of(&alice.public), 1_000_000_000)],
        ContractRegistry::new(),
        ChainConfig {
            max_txs_per_block: usize::MAX,
            ..Default::default()
        },
    )
}

fn make_block() -> pds2_chain::block::Block {
    let alice = KeyPair::from_seed(1);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut producer = make_chain();
    for nonce in 0..64u64 {
        let tx = Transaction {
            from: alice.public.clone(),
            nonce,
            kind: TxKind::Transfer {
                to: bob,
                amount: 1 + nonce as u128,
            },
            gas_limit: 50_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(&alice);
        producer.submit(tx).expect("admission");
    }
    producer.produce_block()
}

/// A copy of the block whose per-tx digest caches are cold, so each run
/// re-does the hashing work under its own thread count.
fn cold_copy(block: &pds2_chain::block::Block) -> pds2_chain::block::Block {
    pds2_chain::block::Block {
        header: block.header.clone(),
        transactions: block
            .transactions
            .iter()
            .map(|t| SignedTransaction::new(t.tx.clone(), t.signature.clone()))
            .collect(),
    }
}

#[test]
fn chain_state_root_is_thread_count_invariant() {
    let _obs = pds2_obs::test_lock();
    let block = make_block();
    let results: Vec<(Digest, Digest)> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            pds2_par::with_threads(threads, || {
                let mut verifier = make_chain();
                verifier
                    .apply_external_block(&cold_copy(&block))
                    .expect("valid block");
                (verifier.state.state_root(), verifier.head_hash())
            })
        })
        .collect();
    for pair in &results[1..] {
        assert_eq!(
            pair, &results[0],
            "state root / head hash changed with thread count"
        );
    }
}

/// The Montgomery/Shamir fast verification path (DESIGN.md §5d) must make
/// the same accept/reject decision as the schoolbook reference path on
/// every signature, and the chain must reach bit-identical state roots at
/// every thread count whether the verified-signature cache is cold or warm.
#[test]
fn verification_fast_path_is_thread_and_cache_invariant() {
    let _obs = pds2_obs::test_lock();
    let block = make_block();
    // Tampered variant: corrupt one signature scalar. The tx bodies (and
    // therefore the tx root) stay valid, so rejection must come from the
    // signature check itself.
    let q = &pds2_crypto::schnorr::Group::standard().q;
    let mut tampered = cold_copy(&block);
    let sig = &tampered.transactions[3].signature;
    let s = sig.s().add_mod(&pds2_crypto::BigUint::one(), q);
    tampered.transactions[3].signature =
        pds2_crypto::Signature::new(sig.r().clone(), s).expect("in range");

    // Signature level: fast and reference verifiers agree on every tx of
    // both blocks.
    for b in [&block, &tampered] {
        for t in &b.transactions {
            let msg = t.tx.hash();
            assert_eq!(
                t.tx.from.verify(msg.as_bytes(), &t.signature),
                t.tx.from.verify_reference(msg.as_bytes(), &t.signature),
                "verification paths disagree"
            );
        }
    }

    // Chain level: decisions and resulting state are invariant under the
    // thread count, and under cache temperature (the second validation of
    // the valid block hits the verified-signature cache).
    let results: Vec<(Digest, Digest)> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            pds2_par::with_threads(threads, || {
                pds2_chain::sigcache::clear();
                let mut verifier = make_chain();
                assert!(
                    verifier
                        .validate_external_block(&cold_copy(&tampered))
                        .is_err(),
                    "tampered block accepted at {threads} threads"
                );
                verifier
                    .validate_external_block(&cold_copy(&block))
                    .expect("valid block, cold cache");
                verifier
                    .validate_external_block(&cold_copy(&block))
                    .expect("valid block, warm cache");
                assert!(
                    verifier
                        .validate_external_block(&cold_copy(&tampered))
                        .is_err(),
                    "tampered block accepted with a warm cache"
                );
                verifier
                    .apply_external_block(&cold_copy(&block))
                    .expect("valid block");
                (verifier.state.state_root(), verifier.head_hash())
            })
        })
        .collect();
    for pair in &results[1..] {
        assert_eq!(
            pair, &results[0],
            "state root / head hash changed with thread count"
        );
    }
}

/// The fee market (DESIGN.md §5f) is deterministic integer arithmetic:
/// drive the base fee up through congested blocks and back down through
/// idle ones, and require the whole trajectory — per-block base fee, gas
/// used, transaction order, and the final state root (which commits to
/// the burned total) — to be bit-identical at every worker count.
#[test]
fn base_fee_trajectory_is_thread_count_invariant() {
    let _obs = pds2_obs::test_lock();
    let run = || {
        pds2_chain::sigcache::clear();
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = Blockchain::new(
            vec![KeyPair::from_seed(9000)],
            &[(Address::of(&alice.public), 1_000_000_000)],
            ContractRegistry::new(),
            ChainConfig {
                // Two 30k-gas transfers fill a block to twice the
                // elastic target, so every full block raises the fee.
                block_gas_limit: 60_000,
                initial_base_fee: 100,
                max_txs_per_block: usize::MAX,
                ..Default::default()
            },
        );
        for nonce in 0..40u64 {
            let tx = Transaction {
                from: alice.public.clone(),
                nonce,
                kind: TxKind::Transfer {
                    to: bob,
                    amount: 1 + nonce as u128,
                },
                gas_limit: 30_000,
                max_fee_per_gas: 1_000_000,
                priority_fee_per_gas: nonce % 7,
            }
            .sign(&alice);
            chain.submit(tx).expect("admission");
        }
        // 20 congested blocks drain the pool, then 6 idle blocks decay
        // the fee back down.
        let mut fees = Vec::new();
        let mut gas = Vec::new();
        let mut order: Vec<Digest> = Vec::new();
        for _ in 0..26 {
            let block = chain.produce_block();
            fees.push(block.header.base_fee);
            gas.push(block.header.gas_used);
            order.extend(block.transactions.iter().map(|t| t.hash()));
        }
        (
            fees,
            gas,
            order,
            chain.state.state_root(),
            chain.head_hash(),
        )
    };
    let base = run();
    let (fees, gas, order, ..) = &base;
    assert_eq!(order.len(), 40, "every transfer must land");
    // Blocks pack two transfers by gas *limit*; what they actually meter
    // is the intrinsic cost, which must still exceed the elastic target
    // (30 000) for the fee to climb.
    assert!(
        gas[..20].iter().all(|&g| g == gas[0] && g > 30_000),
        "congested blocks must run above target: {gas:?}"
    );
    assert!(
        fees[19] > fees[0],
        "congestion must raise the base fee: {fees:?}"
    );
    assert!(
        fees[25] < fees[19],
        "idle blocks must decay the base fee: {fees:?}"
    );
    assert_eq!(run(), base, "rerun diverged");
    for threads in THREAD_COUNTS {
        let r = pds2_par::with_threads(threads, run);
        assert_eq!(r, base, "fee trajectory diverged at {threads} threads");
    }
}

/// Both state-commitment backends — the incremental SMT and the
/// full-rehash oracle — must produce bit-identical roots to each other
/// and to themselves at every worker count, including the
/// `state.smt.nodes_hashed` obs counter (a commit is one serial descent,
/// so the count is a function of the tree and the batch alone).
#[test]
fn state_backends_agree_at_every_thread_count() {
    use pds2_chain::backend::BackendKind;
    let _obs = pds2_obs::test_lock();
    let block = make_block();
    let run = |kind: BackendKind| {
        let before = pds2_obs::snapshot();
        let mut verifier = make_chain();
        verifier.state.set_backend(kind);
        verifier
            .apply_external_block(&cold_copy(&block))
            .expect("valid block");
        let root = verifier.state.state_root();
        let d = pds2_obs::snapshot().counter_deltas(&before);
        let hashed = d.get("state.smt.nodes_hashed").copied().unwrap_or(0);
        (root, verifier.head_hash(), hashed)
    };
    let base_smt = run(BackendKind::Smt);
    let base_oracle = run(BackendKind::FullRehash);
    assert_eq!(base_smt.0, base_oracle.0, "backends disagree on the root");
    assert_eq!(base_smt.1, base_oracle.1, "backends disagree on the head");
    for threads in THREAD_COUNTS {
        let smt = pds2_par::with_threads(threads, || run(BackendKind::Smt));
        let oracle = pds2_par::with_threads(threads, || run(BackendKind::FullRehash));
        assert_eq!(smt, base_smt, "SMT backend diverged at {threads} threads");
        assert_eq!(
            oracle, base_oracle,
            "full-rehash backend diverged at {threads} threads"
        );
    }
}

#[test]
fn merkle_root_is_thread_count_invariant() {
    // Enough leaves to cross the parallel-level threshold in
    // `from_leaf_hashes` (512 pairs) so inner levels also fan out.
    let leaves: Vec<Vec<u8>> = (0..2048u64).map(|i| i.to_le_bytes().repeat(5)).collect();
    let roots: Vec<Digest> = THREAD_COUNTS
        .iter()
        .map(|&threads| pds2_par::with_threads(threads, || MerkleTree::from_leaves(&leaves).root()))
        .collect();
    assert!(
        roots.iter().all(|r| r == &roots[0]),
        "merkle root changed with thread count: {roots:?}"
    );
}

#[test]
fn shapley_estimate_is_bit_identical_across_thread_counts() {
    let cfg = McConfig {
        permutations: 80,
        truncation_tolerance: 1e-9,
        seed: 7,
    };
    let make_utility = || {
        FnUtility::new(32, |s: &[usize]| {
            s.iter().map(|&i| (i as f64 + 1.0).ln() * 2.5).sum::<f64>() + (s.len() as f64).sqrt()
        })
    };
    // SHA-256 over the estimate's bit patterns from the serial estimator,
    // recorded at 1f942f9 (where a parallel twin was checked against it).
    const SERIAL_BITS_SHA: &str =
        "36c4ff07d5ff2ce29f901a8fa1a2daed4ccb2ef0dffbe6a87b9adc1b313ff192";
    for threads in THREAD_COUNTS {
        let phi =
            pds2_par::with_threads(threads, || monte_carlo_shapley(&mut make_utility(), &cfg));
        let bits: Vec<u8> = phi.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        assert_eq!(
            pds2_crypto::sha256::sha256(&bits).to_hex(),
            SERIAL_BITS_SHA,
            "Shapley estimate not bit-identical at {threads} threads"
        );
    }
}

#[test]
fn par_map_preserves_input_order_at_every_thread_count() {
    let items: Vec<u64> = (0..1000).collect();
    for threads in THREAD_COUNTS {
        let out = pds2_par::with_threads(threads, || {
            pds2_par::par_map_indexed(&items, |i, &x| x * 2 + i as u64)
        });
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x * 2 + i as u64)
            .collect();
        assert_eq!(out, expected, "order broken at {threads} threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The 4-way unrolled dot product may associate differently from the
    /// strict left-to-right sum, but must stay within float summation
    /// error of it (a few ULPs, scaled by the magnitude of the terms).
    #[test]
    fn unrolled_dot_matches_naive(
        a in proptest::collection::vec(-1000.0f64..1000.0, 0..64),
        b_seed in 0u64..1_000,
    ) {
        let b: Vec<f64> = a
            .iter()
            .enumerate()
            .map(|(i, _)| ((i as u64 * 37 + b_seed) as f64 * 0.013).sin() * 500.0)
            .collect();
        let fast = dot(&a, &b);
        let slow = dot_naive(&a, &b);
        let scale = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x * y).abs())
            .sum::<f64>()
            .max(1.0);
        prop_assert!(
            (fast - slow).abs() <= scale * 1e-14,
            "dot diverged: {} vs {} (scale {})", fast, slow, scale
        );
    }

    /// The unrolled axpy updates each element independently, so it must be
    /// exactly (bit-for-bit) the naive elementwise loop.
    #[test]
    fn unrolled_axpy_is_exact(
        x in proptest::collection::vec(-100.0f64..100.0, 0..64),
        alpha in -10.0f64..10.0,
    ) {
        let mut fast: Vec<f64> = x.iter().map(|v| v * 0.5 - 1.0).collect();
        let mut slow = fast.clone();
        axpy(alpha, &x, &mut fast);
        for (yi, xi) in slow.iter_mut().zip(&x) {
            *yi += alpha * xi;
        }
        let fast_bits: Vec<u64> = fast.iter().map(|v| v.to_bits()).collect();
        let slow_bits: Vec<u64> = slow.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(fast_bits, slow_bits);
    }
}

/// The event scheduler (timing wheel vs retained heap oracle) is an
/// implementation detail: a gossip-learning run over a generator-backed
/// topology with churn must produce bit-identical trace digests for
/// every (scheduler, thread count) combination.
#[test]
fn scheduler_and_thread_count_never_change_gossip_results() {
    use pds2::learning::gossip::{run_gossip_experiment_at_scale, GossipConfig, ScaleGossipOpts};
    use pds2::ml::model::LogisticRegression;
    use pds2::net::{ChurnModel, LinkModel, SchedulerKind, Topology};

    let _obs = pds2_obs::test_lock();
    let data = pds2::ml::data::gaussian_blobs(400, 3, 0.7, 1);
    let (train, test) = data.split(0.25, 2);
    let run = |scheduler, threads| {
        pds2::par::with_threads(threads, || {
            let opts = ScaleGossipOpts {
                n_nodes: 300,
                data_holders: 10,
                eval_sample: 25,
                seed: 21,
                eval_at_us: vec![1_500_000, 3_000_000],
                cfg: GossipConfig {
                    period_us: 300_000,
                    ..Default::default()
                },
                link: LinkModel::regional(
                    Topology::five_continents(21).with_slowdown_spread(1024, 4096),
                ),
                churn: Some(ChurnModel {
                    horizon_us: 3_000_000,
                    mean_uptime_us: 1_500_000,
                    mean_downtime_us: 400_000,
                    churn_fraction_x1024: 128,
                }),
                scheduler,
            };
            let cap = pds2_obs::capture(pds2_obs::SinkKind::Null);
            let out =
                run_gossip_experiment_at_scale(&train, &test, &opts, || LogisticRegression::new(3));
            (
                cap.finish().digest,
                out.models_transferred,
                out.online_nodes,
                out.accuracy_curve
                    .iter()
                    .map(|a| a.to_bits())
                    .collect::<Vec<u64>>(),
            )
        })
    };
    let baseline = run(SchedulerKind::Wheel, 1);
    for scheduler in [SchedulerKind::Wheel, SchedulerKind::Heap] {
        for threads in THREAD_COUNTS {
            assert_eq!(
                run(scheduler, threads),
                baseline,
                "{scheduler:?} at {threads} threads diverged"
            );
        }
    }
}
