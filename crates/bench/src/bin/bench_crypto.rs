//! Before/after throughput for the Montgomery signature-verification
//! fast path (DESIGN.md §5d): single Schnorr verification, 500-tx block
//! validation and chain sync replay, each against the schoolbook
//! baseline that shipped before the fast path existed.
//!
//! Before any timing is reported the two paths are checked for
//! *agreement* on a fixed-seed corpus — valid signatures, tampered
//! scalars, wrong messages, wrong keys — and the chain state root is
//! checked for bit-equality across `PDS2_THREADS ∈ {1, 4, 8}` on both
//! paths. A disagreement aborts the run.
//!
//! The `hash` rows time the SHA-256 compression kernel (DESIGN.md §5d
//! "hash kernel"): the portable loop, whatever kernel this CPU
//! dispatches to (named in the fingerprint as `sha256_backend`), one
//! sparse-Merkle node hash and one `Digest::short`. The dispatched
//! kernel is checked against the portable one before timing; on a CPU
//! without SHA extensions both are the same loop and the check is
//! trivially true.
//!
//! Writes `BENCH_crypto.json` in the working directory.
//!
//! `cargo run --release -p pds2-bench --bin bench_crypto`
//! `cargo run --release -p pds2-bench --bin bench_crypto -- --smoke`
//!   (CI mode: smaller corpus, single rep, same agreement assertions)

use pds2_chain::address::Address;
use pds2_chain::block::Block;
use pds2_chain::chain::{Blockchain, ChainConfig};
use pds2_chain::contract::ContractRegistry;
use pds2_chain::sigcache;
use pds2_chain::tx::{SignedTransaction, Transaction, TxKind};
use pds2_crypto::schnorr::Group;
use pds2_crypto::sha256::{self, sha256, Sha256};
use pds2_crypto::{BigUint, KeyPair};
use std::hint::black_box;
use std::time::Instant;

const BLOCK_TXS: usize = 500;
const REPLAY_BLOCKS: usize = 20;
const REPLAY_TXS_PER_BLOCK: usize = 25;

/// Best-of-`reps` wall-clock milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Best-of-`reps` nanoseconds per call over `iters` back-to-back calls.
fn time_ns(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    time_ms(reps, || (0..iters).for_each(|_| f())) * 1e6 / iters as f64
}

/// The SHA-256 rows: `(name, ns)`. Asserts dispatched == portable on a
/// 64-block message before timing anything.
fn hash_rows(reps: usize, iters: usize) -> Vec<(&'static str, f64)> {
    const BLOCKS: usize = 64;
    const LEN: usize = BLOCKS * 64;
    let mut padded = [0u8; LEN + 64];
    for (i, b) in padded[..LEN].iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(31);
    }
    padded[LEN] = 0x80;
    padded[LEN + 56..].copy_from_slice(&(LEN as u64 * 8).to_be_bytes());
    let msg = &padded[..LEN];

    let mut state = [
        0x6a09e667u32,
        0xbb67ae85,
        0x3c6ef372,
        0xa54ff53a,
        0x510e527f,
        0x9b05688c,
        0x1f83d9ab,
        0x5be0cd19,
    ];
    sha256::compress_portable(&mut state, &padded);
    let portable: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();
    assert_eq!(
        sha256(msg).as_bytes()[..],
        portable[..],
        "{} kernel disagrees with the portable compression",
        sha256::backend()
    );

    let compress_portable = time_ns(reps, iters / BLOCKS + 1, || {
        sha256::compress_portable(black_box(&mut state), black_box(msg));
    }) / BLOCKS as f64;
    let mut hasher = Sha256::new();
    let compress = time_ns(reps, iters / BLOCKS + 1, || {
        hasher.update(black_box(msg));
    }) / BLOCKS as f64;
    black_box(hasher.finalize());
    let (left, right) = (sha256(b"left"), sha256(b"right"));
    let smt_node = time_ns(reps, iters, || {
        black_box(pds2_chain::smt::node_hash(
            black_box(&left),
            black_box(&right),
        ));
    });
    let short = time_ns(reps, iters, || {
        black_box(black_box(&left).short());
    });
    vec![
        ("sha256_compress_ns_portable", compress_portable),
        ("sha256_compress_ns", compress),
        ("smt_node_hash_ns", smt_node),
        ("digest_short_ns", short),
    ]
}

struct Row {
    name: String,
    baseline: &'static str,
    before_ms: f64,
    after_ms: f64,
}

/// Fixed-seed corpus agreement: the fast and schoolbook paths must reach
/// the same accept/reject decision on every case. Returns the corpus size.
fn assert_paths_agree(corpus: usize) -> usize {
    let q = &Group::standard().q;
    let mut checked = 0;
    for seed in 0..corpus as u64 {
        let kp = KeyPair::from_seed(40_000 + seed);
        let other = KeyPair::from_seed(50_000 + seed);
        let msg = seed.to_le_bytes();
        let sig = kp.sign(&msg);
        let mut tampered_s = sig.clone();
        tampered_s.s = tampered_s.s.add_mod(&BigUint::one(), q);
        let mut tampered_e = sig.clone();
        tampered_e.e = tampered_e.e.add_mod(&BigUint::one(), q);
        let mut out_of_range = sig.clone();
        out_of_range.e = q.clone();
        let cases: [(&pds2_crypto::PublicKey, &[u8], &pds2_crypto::Signature); 5] = [
            (&kp.public, &msg, &sig),        // valid
            (&kp.public, b"wrong", &sig),    // wrong message
            (&other.public, &msg, &sig),     // wrong key
            (&kp.public, &msg, &tampered_s), // tampered response
            (&kp.public, &msg, &tampered_e), // tampered challenge
        ];
        for (pk, m, s) in cases {
            let fast = pk.verify(m, s);
            let reference = pk.verify_reference(m, s);
            assert_eq!(fast, reference, "verification paths disagree (seed {seed})");
            checked += 1;
        }
        // Out-of-range scalar: both reject before any arithmetic.
        assert!(!kp.public.verify(&msg, &out_of_range));
        assert!(!kp.public.verify_reference(&msg, &out_of_range));
        checked += 1;
    }
    checked
}

/// Chain state roots must be bit-identical across thread counts with the
/// fast path engaged (the schoolbook path fed the same blocks produces
/// the same roots by the agreement check above).
fn assert_state_roots_thread_invariant() -> [usize; 3] {
    let block = build_block(64);
    let threads = [1usize, 4, 8];
    let roots: Vec<_> = threads
        .iter()
        .map(|&t| {
            pds2_par::with_threads(t, || {
                sigcache::clear();
                let mut verifier = verifier_chain();
                verifier
                    .apply_external_block(&cold_copy(&block))
                    .expect("valid block");
                (verifier.state.state_root(), verifier.head_hash())
            })
        })
        .collect();
    assert!(
        roots.iter().all(|r| r == &roots[0]),
        "state root changed with thread count: {roots:?}"
    );
    threads
}

fn producer_chain() -> Blockchain {
    let alice = KeyPair::from_seed(1);
    Blockchain::new(
        vec![KeyPair::from_seed(9000)],
        &[(Address::of(&alice.public), u128::MAX / 2)],
        ContractRegistry::new(),
        ChainConfig {
            block_gas_limit: u64::MAX,
            max_txs_per_block: usize::MAX,
            ..Default::default()
        },
    )
}

fn verifier_chain() -> Blockchain {
    producer_chain()
}

fn build_block(n_txs: usize) -> Block {
    let alice = KeyPair::from_seed(1);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut chain = producer_chain();
    for nonce in 0..n_txs as u64 {
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
    let block = chain.produce_block();
    assert_eq!(block.transactions.len(), n_txs);
    block
}

/// A copy with cold per-tx digest caches so every timed run re-hashes.
fn cold_copy(block: &Block) -> Block {
    Block {
        header: block.header.clone(),
        transactions: block
            .transactions
            .iter()
            .map(|t| SignedTransaction::new(t.tx.clone(), t.signature.clone()))
            .collect(),
    }
}

/// Single verification: schoolbook double-modpow vs Shamir fast path.
fn verify_single_bench(reps: usize, n_msgs: usize) -> Row {
    let kp = KeyPair::from_seed(7);
    let signed: Vec<(Vec<u8>, pds2_crypto::Signature)> = (0..n_msgs as u64)
        .map(|i| {
            let msg = i.to_le_bytes().to_vec();
            let sig = kp.sign(&msg);
            (msg, sig)
        })
        .collect();
    let before_ms = time_ms(reps, || {
        for (msg, sig) in &signed {
            assert!(kp.public.verify_reference(msg, sig));
        }
    }) / n_msgs as f64;
    let after_ms = time_ms(reps, || {
        for (msg, sig) in &signed {
            assert!(kp.public.verify(msg, sig));
        }
    }) / n_msgs as f64;
    Row {
        name: "verify_single".into(),
        baseline: "schoolbook double modpow (divrem reduction)",
        before_ms,
        after_ms,
    }
}

/// Full-block validation at one thread: schoolbook per-signature checks
/// (the pre-fast-path structure) vs `validate_external_block` with a
/// cold signature cache.
fn block_validation_bench(reps: usize, n_txs: usize) -> Row {
    let block = build_block(n_txs);
    let verifier = verifier_chain();
    let before_ms = time_ms(reps, || {
        pds2_par::with_threads(1, || {
            let b = cold_copy(&block);
            assert!(b.tx_root_matches());
            for tx in &b.transactions {
                assert!(tx
                    .tx
                    .from
                    .verify_reference(tx.hash().as_bytes(), &tx.signature));
            }
        })
    });
    let after_ms = time_ms(reps, || {
        sigcache::clear(); // cold cache: every signature pays the real check
        pds2_par::with_threads(1, || {
            let b = cold_copy(&block);
            verifier.validate_external_block(&b).expect("valid");
        })
    });
    Row {
        name: format!("block_validation_{n_txs}tx_cold_best"),
        baseline: "schoolbook per-tx verification, single thread",
        before_ms,
        after_ms,
    }
}

/// Sync replay: applying a canonical chain from genesis (what
/// `ChainReplica::adopt_if_longer` and crash recovery do). Cold = first
/// sync (empty signature cache, Montgomery path); warm = re-validation of
/// a chain whose signatures this process already accepted.
fn sync_replay_bench(reps: usize, n_blocks: usize, txs_per_block: usize) -> Row {
    let alice = KeyPair::from_seed(1);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut canonical = producer_chain();
    let mut nonce = 0u64;
    for _ in 0..n_blocks {
        for _ in 0..txs_per_block {
            let tx = Transaction {
                from: alice.public.clone(),
                nonce,
                kind: TxKind::Transfer { to: bob, amount: 1 },
                gas_limit: 50_000,
                max_fee_per_gas: 0,
                priority_fee_per_gas: 0,
            }
            .sign(&alice);
            canonical.submit(tx).expect("admission");
            nonce += 1;
        }
        canonical.produce_block();
    }
    let blocks: Vec<Block> = canonical.blocks().iter().map(cold_copy).collect();
    let replay = |label: &str| {
        let mut replica = verifier_chain();
        for b in blocks.iter().map(cold_copy) {
            replica.apply_external_block(&b).expect(label);
        }
        assert_eq!(replica.head_hash(), canonical.head_hash());
    };
    let before_ms = time_ms(reps, || {
        pds2_par::with_threads(1, || {
            sigcache::clear();
            replay("cold sync");
        })
    });
    // Warm the cache once, then time re-validation (fork choice replay).
    sigcache::clear();
    pds2_par::with_threads(1, || replay("warm-up"));
    let after_ms = time_ms(reps, || {
        pds2_par::with_threads(1, || replay("warm replay"));
    });
    let (hits, _) = sigcache::stats();
    assert!(hits > 0, "warm replay produced no cache hits");
    Row {
        name: format!("sync_replay_{n_blocks}x{txs_per_block}"),
        baseline: "cold first sync (empty verified-signature cache)",
        before_ms,
        after_ms,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (reps, corpus, n_msgs, block_txs, replay_blocks) = if smoke {
        (1, 16, 8, 64, 4)
    } else {
        (3, 64, 32, BLOCK_TXS, REPLAY_BLOCKS)
    };
    let cores = pds2_par::hardware_cores();
    let backend = sha256::backend();

    println!("crypto fast path: agreement corpus ...");
    let checked = assert_paths_agree(corpus);
    println!("  {checked} cases, fast == schoolbook on every decision");
    let threads_checked = assert_state_roots_thread_invariant();
    println!("  state roots bit-identical across threads {threads_checked:?}\n");

    let hash = hash_rows(reps, if smoke { 10_000 } else { 1_000_000 });
    let rows = [
        verify_single_bench(reps, n_msgs),
        block_validation_bench(reps, block_txs),
        sync_replay_bench(reps, replay_blocks, REPLAY_TXS_PER_BLOCK),
    ];

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"sha256_backend\": \"{backend}\",\n"));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(
        "  \"note\": \"best-of-N wall clock at a single thread; before = the named baseline, \
         after = fixed-width Montgomery kernel + Shamir dual exponentiation + bounded \
         signature cache; \
         agreement with the schoolbook path is asserted on a fixed-seed corpus before timing\",\n",
    );
    json.push_str(&format!(
        "  \"determinism\": {{\"corpus_cases\": {checked}, \"agreement\": true, \
         \"threads_checked\": [1, 4, 8]}},\n"
    ));
    json.push_str("  \"benches\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let speedup = row.before_ms / row.after_ms;
        println!(
            "{:<24} before {:>9.3} ms   after {:>9.3} ms   speedup {:>6.2}x   ({})",
            row.name, row.before_ms, row.after_ms, speedup, row.baseline
        );
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline\": \"{}\", \"before_ms\": {:.3}, \
             \"after_ms\": {:.3}, \"speedup\": {:.3}}}{}\n",
            row.name,
            row.baseline,
            row.before_ms,
            row.after_ms,
            speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"hash\": [\n");
    println!();
    for (i, (name, ns)) in hash.iter().enumerate() {
        println!("{name:<28} {ns:>8.1} ns   ({backend})");
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"ns\": {ns:.1}}}{}\n",
            if i + 1 < hash.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_crypto.json", &json).expect("write BENCH_crypto.json");
    println!("\nwrote BENCH_crypto.json");
}
