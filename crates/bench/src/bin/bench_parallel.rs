//! Before/after throughput for the `pds2-par` deterministic parallel
//! execution layer: 500-tx block validation, Merkle tree construction and
//! Monte-Carlo Shapley, each at `PDS2_THREADS=1` (the serial baseline)
//! and at the parallel worker count.
//!
//! Also re-checks the determinism contract on every run: the parallel
//! results must be byte-identical to the serial ones before any timing is
//! reported.
//!
//! Writes `BENCH_parallel.json` in the working directory. Numbers are
//! wall-clock best-of-3; the `cores` field records how many hardware
//! threads the machine actually has — on a single-core host the parallel
//! figures show scheduling overhead rather than speedup, by design (the
//! runtime guarantees identical *results*, not free parallelism without
//! cores).
//!
//! `cargo run --release -p pds2-bench --bin bench_parallel`

use pds2_chain::address::Address;
use pds2_chain::block::Block;
use pds2_chain::chain::{Blockchain, ChainConfig};
use pds2_chain::contract::ContractRegistry;
use pds2_chain::tx::{SignedTransaction, Transaction, TxKind};
use pds2_crypto::merkle::MerkleTree;
use pds2_crypto::KeyPair;
use pds2_rewards::shapley::{monte_carlo_shapley, monte_carlo_shapley_par, FnUtility, McConfig};
use std::time::Instant;

const BLOCK_TXS: usize = 500;
const MERKLE_LEAVES: usize = 4096;
const SHAPLEY_PLAYERS: usize = 32;
const SHAPLEY_PERMS: usize = 64;

/// Best-of-3 wall-clock milliseconds.
fn time_ms(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

struct Row {
    name: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
}

fn block_validation_bench(threads: usize) -> Row {
    let alice = KeyPair::from_seed(1);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut chain = Blockchain::new(
        vec![KeyPair::from_seed(9000)],
        &[(Address::of(&alice.public), u128::MAX / 2)],
        ContractRegistry::new(),
        ChainConfig {
            block_gas_limit: u64::MAX,
            max_txs_per_block: usize::MAX,
            ..Default::default()
        },
    );
    for nonce in 0..BLOCK_TXS as u64 {
        let tx = Transaction {
            from: alice.public.clone(),
            nonce,
            kind: TxKind::Transfer { to: bob, amount: 1 },
            gas_limit: 50_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(&alice);
        chain.submit(tx).expect("admission");
    }
    let verifier = Blockchain::new(
        vec![KeyPair::from_seed(9000)],
        &[(Address::of(&alice.public), u128::MAX / 2)],
        ContractRegistry::new(),
        ChainConfig::default(),
    );
    let block = chain.produce_block();
    assert_eq!(block.transactions.len(), BLOCK_TXS);
    // Rebuilding each SignedTransaction gives cold digest caches, so every
    // timed validation re-hashes each tx. The verified-signature cache
    // stays warm from `submit` above (hence the row's `_warm` suffix): a
    // signature costs one hash here, not a Schnorr check. `bench_crypto`
    // and `bench_obs` time the cold-cache variants.
    let cold = || Block {
        header: block.header.clone(),
        transactions: block
            .transactions
            .iter()
            .map(|t| SignedTransaction::new(t.tx.clone(), t.signature.clone()))
            .collect(),
    };
    let serial_ms = time_ms(|| {
        let b = cold();
        pds2_par::with_threads(1, || verifier.validate_external_block(&b).expect("valid"));
    });
    let parallel_ms = time_ms(|| {
        let b = cold();
        pds2_par::with_threads(threads, || {
            verifier.validate_external_block(&b).expect("valid")
        });
    });
    Row {
        name: "block_validation_500tx_warm",
        serial_ms,
        parallel_ms,
    }
}

fn merkle_bench(threads: usize) -> Row {
    let leaves: Vec<Vec<u8>> = (0..MERKLE_LEAVES)
        .map(|i| {
            let mut leaf = vec![0u8; 256];
            leaf[..8].copy_from_slice(&(i as u64).to_le_bytes());
            leaf
        })
        .collect();
    let root_serial = pds2_par::with_threads(1, || MerkleTree::from_leaves(&leaves).root());
    let root_parallel = pds2_par::with_threads(threads, || MerkleTree::from_leaves(&leaves).root());
    assert_eq!(root_serial, root_parallel, "thread count changed the root");
    let serial_ms = time_ms(|| {
        pds2_par::with_threads(1, || {
            std::hint::black_box(MerkleTree::from_leaves(&leaves).root());
        })
    });
    let parallel_ms = time_ms(|| {
        pds2_par::with_threads(threads, || {
            std::hint::black_box(MerkleTree::from_leaves(&leaves).root());
        })
    });
    Row {
        name: "merkle_4096_leaves",
        serial_ms,
        parallel_ms,
    }
}

fn shapley_utility() -> FnUtility<impl FnMut(&[usize]) -> f64 + Clone + Send + Sync> {
    // Superadditive synthetic game with per-evaluation compute cost, so
    // the utility dominates the runtime the way model training does.
    FnUtility::new(SHAPLEY_PLAYERS, |s: &[usize]| {
        let mut acc = 0.0f64;
        for &i in s {
            for k in 0..200 {
                acc += ((i * 31 + k) as f64).sqrt().sin();
            }
        }
        acc + (s.len() as f64).powf(1.3)
    })
}

fn shapley_bench(threads: usize) -> Row {
    let cfg = McConfig {
        permutations: SHAPLEY_PERMS,
        truncation_tolerance: -1.0, // never truncate: fixed work per perm
        seed: 42,
    };
    let serial_phi = monte_carlo_shapley(&mut shapley_utility(), &cfg);
    let parallel_phi = pds2_par::with_threads(threads, || {
        monte_carlo_shapley_par(&shapley_utility(), &cfg)
    });
    assert_eq!(
        serial_phi.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        parallel_phi.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "thread count changed the Shapley estimate"
    );
    let serial_ms = time_ms(|| {
        std::hint::black_box(monte_carlo_shapley(&mut shapley_utility(), &cfg));
    });
    let parallel_ms = time_ms(|| {
        pds2_par::with_threads(threads, || {
            std::hint::black_box(monte_carlo_shapley_par(&shapley_utility(), &cfg));
        })
    });
    Row {
        name: "monte_carlo_shapley_n32",
        serial_ms,
        parallel_ms,
    }
}

fn main() {
    let cores = pds2_par::hardware_cores();
    let requested = std::env::var("PDS2_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| cores.max(4));
    // The serial-fallback cutoff: worker counts beyond the hardware only
    // add scheduling overhead, so the parallel runs use the capped count
    // exactly as the env-driven resolution path would.
    let threads = pds2_par::effective_workers(requested);

    println!(
        "pds2-par throughput: serial (1 thread) vs parallel \
         ({requested} requested -> {threads} effective workers), {cores} core(s)\n"
    );
    let rows = [
        block_validation_bench(threads),
        merkle_bench(threads),
        shapley_bench(threads),
    ];

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"requested_threads\": {requested},\n"));
    json.push_str(&format!("  \"parallel_threads\": {threads},\n"));
    json.push_str("  \"note\": \"best-of-3 wall clock; requested workers are capped at the hardware core count (serial-fallback cutoff) — results are bit-identical at every thread count regardless\",\n");
    json.push_str("  \"benches\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let speedup = row.serial_ms / row.parallel_ms;
        println!(
            "{:<26} serial {:>9.3} ms   parallel {:>9.3} ms   speedup {:>5.2}x",
            row.name, row.serial_ms, row.parallel_ms, speedup
        );
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \"speedup\": {:.3}}}{}\n",
            row.name,
            row.serial_ms,
            row.parallel_ms,
            speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("\nwrote BENCH_parallel.json");
}
