//! Replay equivalence: every result here is byte-identical on a rerun,
//! and the Merkle roots, proofs and Shapley bits equal values pinned
//! before the program ran on one thread.
//!
//! Tests compare exact bytes/bits, not approximate values. A test that
//! runs traced code takes `pds2_obs::test_lock()`: one of them compares
//! capture digests, and the collector is process-global.

use pds2_chain::address::Address;
use pds2_chain::chain::{Blockchain, ChainConfig};
use pds2_chain::contract::ContractRegistry;
use pds2_chain::tx::{SignedTransaction, Transaction, TxKind};
use pds2_crypto::merkle::MerkleTree;
use pds2_crypto::{Digest, Encode, KeyPair};
use pds2_ml::linalg::{axpy, dot, dot_naive};
use pds2_rewards::shapley::{monte_carlo_shapley, FnUtility, McConfig};
use proptest::prelude::*;

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
/// re-does the hashing work.
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

/// Two cold-cache applications of the same block reach the same state
/// root and head.
#[test]
fn chain_state_root_is_thread_count_invariant() {
    let _obs = pds2_obs::test_lock();
    let block = make_block();
    let run = || {
        let mut verifier = make_chain();
        verifier
            .apply_external_block(&cold_copy(&block))
            .expect("valid block");
        (verifier.state.state_root(), verifier.head_hash())
    };
    assert_eq!(run(), run(), "state root / head hash changed on a rerun");
}

/// The Montgomery/Shamir fast verification path (DESIGN.md §5d) must make
/// the same accept/reject decision as the schoolbook reference path on
/// every signature, and the chain must reach bit-identical state roots on
/// a rerun whether the verified-signature cache is cold or warm.
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

    // Chain level: decisions and resulting state repeat on a rerun, and
    // do not depend on cache temperature (the second validation of the
    // valid block hits the verified-signature cache).
    let run = || {
        pds2_chain::sigcache::clear();
        let mut verifier = make_chain();
        assert!(
            verifier
                .validate_external_block(&cold_copy(&tampered))
                .is_err(),
            "tampered block accepted with a cold cache"
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
    };
    assert_eq!(run(), run(), "state root / head hash changed on a rerun");
}

/// The fee market (DESIGN.md §5f) is deterministic integer arithmetic:
/// drive the base fee up through congested blocks and back down through
/// idle ones, and require the whole trajectory — per-block base fee, gas
/// used, transaction order, and the final state root (which commits to
/// the burned total) — to be bit-identical on a rerun.
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
}

/// A follower's incremental state root equals the rebuild of its leaves,
/// and a rerun repeats the root, the head and the `state.smt.nodes_hashed`
/// obs counter (a commit is one serial descent, so the count is a
/// function of the tree and the batch alone).
#[test]
fn state_root_equals_its_rehash_and_repeats() {
    let _obs = pds2_obs::test_lock();
    let block = make_block();
    let run = || {
        let before = pds2_obs::snapshot();
        let mut verifier = make_chain();
        verifier
            .apply_external_block(&cold_copy(&block))
            .expect("valid block");
        let root = verifier.state.state_root();
        let d = pds2_obs::snapshot().counter_deltas(&before);
        let hashed = d.get("state.smt.nodes_hashed").copied().unwrap_or(0);
        assert_eq!(
            root,
            verifier.state.rehash_root(),
            "root against its rehash"
        );
        (root, verifier.head_hash(), hashed)
    };
    let base = run();
    assert_eq!(run(), base, "rerun diverged");
}

/// `(leaves, root, SHA-256 over the encoded first- and last-leaf
/// proofs)` of `MerkleTree::from_leaves` over `i.to_le_bytes().repeat(5)`,
/// recorded at 713c6fd, where wide trees hashed on a worker pool.
const MERKLE_KNOWN_ANSWERS: [(usize, &str, &str); 9] = [
    (
        0,
        "0000000000000000000000000000000000000000000000000000000000000000",
        "",
    ),
    (
        1,
        "9e1736c43d19118e6ce4302118af337109491ecc52757dfb949bad6a7940b0c2",
        "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
    ),
    (
        2,
        "fc43e299064fc2a2efc2eb0f9c61cad5d6ce71106b2576a39d4d936d9eaadc09",
        "bf09e05faf972c23ef449be3c4dab0f2c78142646660b37fbc1a6ecbd98fe2be",
    ),
    (
        3,
        "2352adc1aa4c36df4ceb672dae02e7aa27374ab2b5feaa435c4e70cc0ce7b21a",
        "56c11f990279fb1877b1f1ac733bc9a107cd1f77fac1bcffc39c909653db6963",
    ),
    (
        5,
        "2e560612ad9785232704b3da39be205f758a69fa7f7f4c2ffe2bd0869406e8b8",
        "a2e58243113ca3c1a8329e6cb93a92a1a84fca1a0bb551e6e92514b5903346a7",
    ),
    (
        16,
        "f684ea33e748ca0802c515d3844b5a82900e5c354c51d49e0cabcae1e6c0d21b",
        "61d5570d7a9dd42840b2a1eb204e423e86d05020f104eb9505c5b65d8c2bcef3",
    ),
    (
        17,
        "9c9f6bfc57044f031164b83a5353cb22ca27327d8207b03e641ab3bfb6cfc523",
        "ca7c72c0fc963141d1287150991f9d7abc94ad552b002fa396e98bffaec3e904",
    ),
    (
        2_047,
        "e8cf4ba7b45a7321bb2e5a27537033cb13a01fa08abc1436871a931a6eead3f3",
        "928393884e37cde28e77450159704ff77d40460bff87f44e8448a9dd1fc35c7c",
    ),
    (
        2_048,
        "c52ce40661bb00adca2fb9544fd1c099711815c0854ce3def4f0ed7a77637efc",
        "7697347d12f3bf305fd2d8f4d493e5dc20e8a741a4e9fd62f7ee3db6500ffe69",
    ),
];

/// `Block::compute_tx_root` of [`make_block`]'s 64 transfers, recorded at
/// the same commit.
const TX_ROOT_64: &str = "48e7c1422c2af968e87261d8f192e98d4eb26bfef183cb6ff1f1f4a74aed45ec";

/// Merkle roots and proofs equal the values the worker-pool build gave:
/// odd sizes promote their last node, and 2 047 / 2 048 leaves span the
/// widths the pool used to split.
#[test]
fn merkle_root_is_thread_count_invariant() {
    let _obs = pds2_obs::test_lock();
    for (n, root, proofs) in MERKLE_KNOWN_ANSWERS {
        let leaves: Vec<Vec<u8>> = (0..n as u64).map(|i| i.to_le_bytes().repeat(5)).collect();
        let tree = MerkleTree::from_leaves(&leaves);
        assert_eq!(tree.root().to_hex(), root, "root of {n} leaves");
        if n == 0 {
            assert!(tree.prove(0).is_none());
            continue;
        }
        let mut bytes = tree.prove(0).expect("first leaf").to_bytes();
        bytes.extend(tree.prove(n - 1).expect("last leaf").to_bytes());
        assert_eq!(
            pds2_crypto::sha256(&bytes).to_hex(),
            proofs,
            "first and last proofs of {n} leaves"
        );
    }
    let block = make_block();
    assert_eq!(
        pds2_chain::block::Block::compute_tx_root(&cold_copy(&block).transactions).to_hex(),
        TX_ROOT_64
    );
    assert_eq!(block.header.tx_root.to_hex(), TX_ROOT_64);
}

#[test]
fn shapley_estimate_is_bit_identical_across_thread_counts() {
    let cfg = McConfig {
        permutations: 80,
        truncation_tolerance: 1e-9,
        seed: 7,
    };
    let mut utility = FnUtility::new(32, |s: &[usize]| {
        s.iter().map(|&i| (i as f64 + 1.0).ln() * 2.5).sum::<f64>() + (s.len() as f64).sqrt()
    });
    // SHA-256 over the estimate's bit patterns from the serial estimator,
    // recorded at 1f942f9 (where a parallel twin was checked against it).
    const SERIAL_BITS_SHA: &str =
        "36c4ff07d5ff2ce29f901a8fa1a2daed4ccb2ef0dffbe6a87b9adc1b313ff192";
    let phi = monte_carlo_shapley(&mut utility, &cfg);
    let bits: Vec<u8> = phi.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    assert_eq!(
        pds2_crypto::sha256::sha256(&bits).to_hex(),
        SERIAL_BITS_SHA,
        "Shapley estimate is not the pinned one"
    );
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
/// topology with churn must produce bit-identical trace digests on a
/// rerun and under either scheduler.
#[test]
fn scheduler_and_thread_count_never_change_gossip_results() {
    use pds2::learning::gossip::{run_gossip_experiment, sparse_shards, GossipConfig, GossipRun};
    use pds2::ml::model::LogisticRegression;
    use pds2::net::{ChurnModel, FaultPlan, LinkModel, SchedulerKind, Topology};

    let _obs = pds2_obs::test_lock();
    let data = pds2::ml::data::gaussian_blobs(400, 3, 0.7, 1);
    let (train, test) = data.split(0.25, 2);
    let churn = ChurnModel {
        horizon_us: 3_000_000,
        mean_uptime_us: 1_500_000,
        mean_downtime_us: 400_000,
        churn_fraction_x1024: 128,
    };
    let run = |scheduler| {
        let cfg = GossipConfig {
            period_us: 300_000,
            ..Default::default()
        };
        let link =
            LinkModel::regional(Topology::five_continents(21).with_slowdown_spread(1024, 4096));
        let run = GossipRun {
            eval_sample: 25,
            faults: FaultPlan::new(21).churn(&churn, 300),
            scheduler,
            ..GossipRun::new(cfg, link, 21, &[1_500_000, 3_000_000])
        };
        let cap = pds2_obs::capture(pds2_obs::SinkKind::Null);
        let shards = sparse_shards(&train, 300, 10, 21);
        let out = run_gossip_experiment(shards, &test, &run, || LogisticRegression::new(3));
        (
            cap.finish().digest,
            out.models_transferred,
            out.online_nodes,
            out.accuracy_curve
                .iter()
                .map(|a| a.to_bits())
                .collect::<Vec<u64>>(),
        )
    };
    let baseline = run(SchedulerKind::Wheel);
    for scheduler in [SchedulerKind::Wheel, SchedulerKind::Heap] {
        assert_eq!(run(scheduler), baseline, "{scheduler:?} diverged");
    }
}
