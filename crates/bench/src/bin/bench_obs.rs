//! E15: cost of the deterministic observability layer (`pds2-obs`).
//!
//! Two questions, answered on `block_validation_500tx_cold_median` (the
//! hottest instrumented path in the repo: a cold signature cache, median
//! of reps):
//!
//! 1. **What does the no-op sink cost?** Times the disabled
//!    instrumentation directly — 10⁶ rounds of the sites
//!    `validate_external_block` executes with no capture active (a
//!    `span_traced` open and drop, a counter increment, an `enabled()`
//!    gate) — charges one such round per signature check plus one for
//!    the validation span, and divides by the measured validation time.
//!    Asserts < 1% overhead (< 5% in `--smoke` mode, where the block is
//!    small): "off" must mean off.
//! 2. **Is the trace digest deterministic?** Captures the validation
//!    trace under `PDS2_THREADS ∈ {1, 4, 8}` and with ring vs JSONL vs
//!    null sinks; all digests must be bit-identical.
//!
//! Writes `BENCH_obs.json` in the working directory.
//!
//! `cargo run --release -p pds2-bench --bin bench_obs`
//! `cargo run --release -p pds2-bench --bin bench_obs -- --smoke`
//!   (CI mode: smaller block, single-digit reps, same assertions)

use pds2_chain::address::Address;
use pds2_chain::block::Block;
use pds2_chain::chain::{Blockchain, ChainConfig};
use pds2_chain::contract::ContractRegistry;
use pds2_chain::sigcache;
use pds2_chain::tx::{SignedTransaction, Transaction, TxKind};
use pds2_crypto::KeyPair;
use pds2_obs as obs;
use std::time::Instant;

const BLOCK_TXS: usize = 500;

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

/// Median wall-clock ms of the instrumented validation (cold signature
/// cache, single thread) with no capture active — the production default.
fn noop_validation_ms(reps: usize, block: &Block, verifier: &Blockchain) -> f64 {
    assert!(
        !obs::enabled(),
        "no-op measurement requires tracing disabled"
    );
    let run_noop = || {
        sigcache::clear();
        let t = Instant::now();
        pds2_par::with_threads(1, || {
            let b = cold_copy(block);
            verifier.validate_external_block(&b).expect("valid");
        });
        t.elapsed().as_secs_f64() * 1e3
    };
    // Untimed warmup: fault in code and touch the caches once.
    run_noop();
    let mut samples: Vec<f64> = (0..reps).map(|_| run_noop()).collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[reps / 2]
}

/// Wall-clock ms of one round of disabled instrumentation: the sites
/// `validate_external_block` wraps its checks in. Timed over 10⁶ rounds
/// because a single round is a few nanoseconds.
fn disabled_site_round_ms() -> f64 {
    const ROUNDS: u64 = 1_000_000;
    assert!(!obs::enabled(), "site timing requires tracing disabled");
    let t = Instant::now();
    for i in 0..ROUNDS {
        let span = obs::span_traced(
            "bench",
            "disabled_site",
            obs::Stamp::Block(std::hint::black_box(i)),
            obs::TraceCtx::NONE,
            Vec::new(),
        );
        obs::counter!("test.bench_obs.disabled_site").inc();
        if obs::enabled() {
            span.finish(obs::Stamp::Block(i), Vec::new());
        }
    }
    t.elapsed().as_secs_f64() * 1e3 / ROUNDS as f64
}

/// Validates the block under a capture and returns (digest, events, ms).
fn traced_validation(
    kind: obs::SinkKind,
    threads: usize,
    block: &Block,
    verifier: &Blockchain,
) -> (String, u64, f64) {
    sigcache::clear();
    let cap = obs::capture(kind);
    let t = Instant::now();
    pds2_par::with_threads(threads, || {
        let b = cold_copy(block);
        verifier.validate_external_block(&b).expect("valid");
    });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let report = cap.finish();
    assert!(report.events > 0, "validation span must be recorded");
    (report.digest, report.events, ms)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (reps, block_txs, budget_pct) = if smoke {
        (25, 64, 5.0)
    } else {
        (201, BLOCK_TXS, 1.0)
    };
    let cores = pds2_par::hardware_cores();

    let block = build_block(block_txs);
    let verifier = producer_chain();

    println!("obs overhead: block_validation_{block_txs}tx_cold_median, median of {reps} reps ...");
    let noop_ms = noop_validation_ms(reps, &block, &verifier);
    // One round per signature check (each bumps a sigcache counter; a
    // whole round over-charges it) plus one for the validation span.
    let site_rounds = block_txs + 2;
    let sites_ms = disabled_site_round_ms() * site_rounds as f64;
    let baseline_ms = noop_ms - sites_ms;
    let overhead_pct = sites_ms / noop_ms * 100.0;
    println!(
        "  noop-sink {noop_ms:>9.3} ms   {site_rounds} disabled site rounds {sites_ms:>9.6} ms   \
         overhead {overhead_pct:>+6.4}%  (budget {budget_pct}%)"
    );
    assert!(
        overhead_pct < budget_pct,
        "no-op sink overhead {overhead_pct:.4}% exceeds the {budget_pct}% budget"
    );

    // Digest determinism: threads x sinks. All digests must agree.
    let jsonl_path = std::env::temp_dir().join("bench_obs_trace.jsonl");
    let (ring_digest, events, ring_ms) =
        traced_validation(obs::SinkKind::Ring(usize::MAX), 1, &block, &verifier);
    let (jsonl_digest, _, jsonl_ms) = traced_validation(
        obs::SinkKind::Jsonl(jsonl_path.clone()),
        1,
        &block,
        &verifier,
    );
    let (null_digest, _, null_ms) = traced_validation(obs::SinkKind::Null, 1, &block, &verifier);
    std::fs::remove_file(&jsonl_path).ok();
    assert_eq!(ring_digest, jsonl_digest, "sink choice changed the digest");
    assert_eq!(ring_digest, null_digest, "sink choice changed the digest");

    let threads = [1usize, 4, 8];
    for &t in &threads {
        let (d, _, _) = traced_validation(obs::SinkKind::Null, t, &block, &verifier);
        assert_eq!(d, ring_digest, "trace digest changed at PDS2_THREADS={t}");
    }
    println!(
        "  trace digest {}… bit-identical across threads {threads:?} and ring/jsonl/null sinks \
         ({events} events)\n",
        &ring_digest[..16]
    );

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"block_txs\": {block_txs},\n"));
    json.push_str(
        "  \"note\": \"noop_sink_ms = median wall-clock of validate_external_block at a single thread, \
         cold signature cache, no capture active (production default); overhead_pct = measured cost \
         of the disabled instrumentation sites one validation executes (10^6 timed rounds of \
         span_traced + counter inc + enabled(), one round charged per signature check plus one for \
         the validation span) over noop_sink_ms; baseline_ms = noop_sink_ms minus that cost; digest \
         checked across threads and sinks before reporting\",\n",
    );
    json.push_str(&format!("  \"baseline_ms\": {baseline_ms:.4},\n"));
    json.push_str(&format!("  \"noop_sink_ms\": {noop_ms:.4},\n"));
    json.push_str(&format!("  \"overhead_pct\": {overhead_pct:.4},\n"));
    json.push_str(&format!("  \"overhead_budget_pct\": {budget_pct},\n"));
    json.push_str(&format!(
        "  \"overhead_ok\": {},\n",
        overhead_pct < budget_pct
    ));
    json.push_str(&format!(
        "  \"active_sink_ms\": {{\"null\": {null_ms:.4}, \"ring\": {ring_ms:.4}, \
         \"jsonl\": {jsonl_ms:.4}}},\n"
    ));
    json.push_str(&format!(
        "  \"trace\": {{\"events\": {events}, \"digest\": \"{ring_digest}\", \
         \"threads_checked\": [1, 4, 8], \"thread_invariant\": true, \
         \"sink_invariant\": true}}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");
}
