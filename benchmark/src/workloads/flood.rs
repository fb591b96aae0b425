//! `mempool_flood`: the only workload with a deep standing pool.
//!
//! Each round floods the producer with more pre-signed transfers than the
//! pool holds, all through `Blockchain::submit`, then drains the pool
//! with `produce_block` until it is empty. Accounts carry different fee
//! levels, so once the pool is full the cheapest tails are evicted and
//! cheaper arrivals are refused; about 5 % of submissions are same-nonce
//! fee bumps, half of them valid (replace-by-fee) and half below the
//! replacement threshold (refused). Evictions, replacements and refusals
//! are the fee market working as designed: they are layer counts, not
//! failures. A transaction fails only if it was admitted, never evicted
//! or replaced, and still not in a block when the pool is empty.
//!
//! The base fee stays 0 here (512-transfer blocks are under the gas
//! target), so the ISSUE's "capped below base fee" class cannot occur;
//! the underpriced replacement is the refusal class used instead.

use crate::adapter::{self, Hash, Reject, Tx};
use crate::clock::{us_since, Stamp};
use crate::common::{self, Accounts, Checkpoint, Prober, Registries, RunCfg};
use crate::replay::LayerReplay;
use crate::report::Report;
use crate::stats::{quiet_rate, Rng};
use crate::trace::Stages;
use std::collections::HashMap;

/// Submits per admission segment: `admit_tx_per_s` is taken over these.
const ADMIT_SEGMENT: usize = 2_048;
const MAX_TXS_PER_BLOCK: usize = 512;
/// Full blocks per drain segment: `drain_tx_per_s` is taken over these.
const DRAIN_SEGMENT_BLOCKS: u64 = 4;
const SNAPSHOT_EVERY: u64 = 24;

struct Sizes {
    accounts: usize,
    txs_per_account: u64,
    pool_capacity: usize,
}

fn sizes(cfg: &RunCfg) -> Sizes {
    Sizes {
        accounts: cfg.size(2_000, 200),
        txs_per_account: 12,
        pool_capacity: cfg.size(16_000, 1_600),
    }
}

/// One round's submission stream, in arrival order.
fn sign_round(accounts: &Accounts, nonces: &[u64], per_account: u64, rng: &mut Rng) -> Vec<Tx> {
    let fees: Vec<u64> = accounts
        .senders
        .iter()
        .map(|_| 100 + rng.below(900))
        .collect();
    let mut stream = Vec::with_capacity(accounts.senders.len() * per_account as usize * 11 / 10);
    // Bumps arrive this many submissions after the transfer they target.
    const BUMP_DELAY: usize = 200;
    let mut delayed: std::collections::VecDeque<(usize, Tx)> = Default::default();
    for k in 0..per_account {
        for (a, keys) in accounts.senders.iter().enumerate() {
            let to = accounts.recipients[rng.below(accounts.recipients.len() as u64) as usize];
            let (fee, nonce) = (fees[a], nonces[a] + k);
            stream.push(adapter::sign_transfer(keys, nonce, to, 1, fee, fee / 10));
            // Only an account's first transfer of the round is bumped: if
            // it was evicted, so was everything after it, and a late bump
            // cannot leave a nonce gap behind.
            let bump = match (k, rng.below(10)) {
                (0, 0..=2) => Some(125), // valid replacement: +25 % on both fee fields
                (0, 3..=5) => Some(105), // below the +10 % threshold: refused
                _ => None,
            };
            if let Some(pct) = bump {
                let fee = fee * pct / 100;
                let tx = adapter::sign_transfer(keys, nonce, to, 2, fee, fee / 10 * pct / 100 + 1);
                delayed.push_back((stream.len() + BUMP_DELAY, tx));
            }
            while delayed.front().is_some_and(|(at, _)| *at <= stream.len()) {
                stream.extend(delayed.pop_front().map(|(_, tx)| tx));
            }
        }
    }
    stream.extend(delayed.into_iter().map(|(_, tx)| tx));
    stream
}

pub fn run(cfg: &RunCfg, stages: &mut Stages, report: &mut Report) {
    let sz = sizes(cfg);
    let validator = [cfg.seed ^ 0x7a11];

    let (accounts, mut producer, store, mut rng, first) = common::repeat_setup(report, || {
        let accounts = Accounts::generate(cfg.seed, sz.accounts, 1_000);
        let mut producer = adapter::new_chain(
            &validator,
            &accounts.alloc,
            MAX_TXS_PER_BLOCK,
            sz.pool_capacity,
        );
        adapter::state_root(&producer);
        let store = adapter::new_store();
        adapter::attach_store(&mut producer, &store, SNAPSHOT_EVERY);
        let mut rng = Rng::new(cfg.seed ^ 0x51);
        let first = sign_round(
            &accounts,
            &vec![0; sz.accounts],
            sz.txs_per_account,
            &mut rng,
        );
        (accounts, producer, store, rng, first)
    });
    let genesis = || {
        adapter::new_chain(
            &validator,
            &accounts.alloc,
            MAX_TXS_PER_BLOCK,
            sz.pool_capacity,
        )
    };
    let genesis_supply = accounts.genesis_supply();

    let mut replay = stages
        .traced()
        .then(|| LayerReplay::new(&accounts.alloc, false, sz.pool_capacity, MAX_TXS_PER_BLOCK));
    let registries = Registries::read();

    let mut timed_us = 0.0;
    let mut round_rates = Vec::new();
    let mut round_us_per_tx = Vec::new();
    let mut admit_rates = Vec::new();
    let mut drain_rates = Vec::new();
    let mut latencies_ms: Vec<Vec<f64>> = Vec::new();
    let mut committed = 0u64;
    let mut admitted = 0u64;
    let mut refused = 0u64;
    let mut sign_us = 0.0;
    let mut signed = 0u64;
    let mut prober: Option<Prober> = None;
    let mut stream = first;
    let mut round = 0u64;

    while !cfg.spent(timed_us) {
        stages.set_recording(round.is_multiple_of(2));
        let parent = stages.open_batch("round", round);
        let replay_before = replay.as_ref().map_or(0.0, |r| r.spent_us());
        let round_start = Stamp::now();
        let mut submitted_at: HashMap<Hash, Stamp> = HashMap::with_capacity(stream.len());
        let mut round_admitted = 0u64;
        latencies_ms.push(Vec::new());

        // Flood: everything through `submit`, in arrival order.
        report.attempted += stream.len() as u64;
        for segment in stream.chunks(ADMIT_SEGMENT) {
            if let Some(r) = replay.as_mut() {
                segment.iter().for_each(|tx| r.on_submit(tx));
            }
            let mut stamps = Vec::with_capacity(segment.len());
            let (outcomes, us) = stages.time("chain.submit", parent, round, || {
                segment
                    .iter()
                    .map(|tx| {
                        stamps.push((adapter::tx_hash(tx), Stamp::now()));
                        adapter::submit(&mut producer, tx.clone())
                    })
                    .collect::<Vec<_>>()
            });
            let mut ok = 0u64;
            for outcome in outcomes {
                match outcome {
                    Ok(()) => ok += 1,
                    Err(Reject::Other(e)) => report.fail(format!("submit failed: {e}")),
                    Err(_) => refused += 1,
                }
            }
            round_admitted += ok;
            admit_rates.push(ok as f64 / (us / 1e6));
            submitted_at.extend(stamps);
        }

        // Drain: produce until the pool is empty.
        let mut round_committed = 0u64;
        let (mut drain_txs, mut drain_us) = (0u64, 0.0);
        while adapter::mempool_len(&producer) > 0 {
            let (block, us) = stages.time("chain.produce", parent, round, || {
                adapter::produce(&mut producer)
            });
            let done = Stamp::now();
            let txs = adapter::block_txs(&block);
            if txs.is_empty() {
                break; // no progress: whatever is left is stuck
            }
            for tx in txs {
                if let Some(at) = submitted_at.get(&adapter::tx_hash(tx)) {
                    latencies_ms
                        .last_mut()
                        .expect("pushed at round start")
                        .push(done.us_after(*at) / 1e3);
                }
            }
            round_committed += txs.len() as u64;
            drain_txs += txs.len() as u64;
            drain_us += us;
            if drain_txs >= DRAIN_SEGMENT_BLOCKS * MAX_TXS_PER_BLOCK as u64 {
                drain_rates.push(drain_txs as f64 / (drain_us / 1e6));
                (drain_txs, drain_us) = (0, 0.0);
            }
            if let Some(r) = replay.as_mut() {
                r.on_block(&block);
            }
        }
        stages.close_batch(parent);
        let replay_us = replay.as_ref().map_or(0.0, |r| r.spent_us()) - replay_before;
        let round_us = us_since(round_start) - replay_us;

        let stuck = adapter::mempool_len(&producer) as u64;
        if stuck > 0 {
            report.failed += stuck;
            report.violations.push(format!(
                "round {round}: {stuck} admitted transactions never left the pool"
            ));
        }
        admitted += round_admitted;
        committed += round_committed;
        timed_us += round_us;
        round_rates.push(round_committed as f64 / (round_us / 1e6));
        round_us_per_tx.push(round_us / round_committed.max(1) as f64);
        match prober.as_mut() {
            None => {
                let cp = Checkpoint::take(&producer, &store);
                prober = Some(Prober::new(
                    &genesis,
                    cp,
                    SNAPSHOT_EVERY,
                    common::SYNC_BATCH,
                    4,
                ));
            }
            Some(p) => p.probe(2, stages, report),
        }
        round += 1;

        // The clients read their nonces and sign the next round.
        let t = Stamp::now();
        let nonces: Vec<u64> = accounts
            .sender_addrs
            .iter()
            .map(|a| adapter::account_nonce(&producer, a))
            .collect();
        stream = sign_round(&accounts, &nonces, sz.txs_per_account, &mut rng);
        sign_us += us_since(t);
        signed += stream.len() as u64;
    }
    stages.set_recording(true);

    report.e2e("tx_per_s", quiet_rate(&round_rates), round_rates.len());
    common::report_commit_latency(report, &latencies_ms);
    report.check_supply("producer", &producer, genesis_supply);
    report.info("rounds", round);
    report.info("accounts", sz.accounts);
    report.info("pool_capacity", sz.pool_capacity);
    report.info("submitted_per_round", report.attempted / round.max(1));
    report.info("committed_txs", committed);
    report.info("refused_by_fee_market", refused);

    report.layer("chain.mempool.admit_tx_per_s", quiet_rate(&admit_rates));
    report.layer("chain.mempool.drain_tx_per_s", quiet_rate(&drain_rates));
    report.layer(
        "chain.chain.submit_us",
        stages.total("chain.submit").us / report.attempted.max(1) as f64,
    );
    report.layer(
        "chain.chain.produce_ms",
        stages.mean_us("chain.produce") / 1e3,
    );
    report.layer("crypto.schnorr.sign_us", sign_us / signed.max(1) as f64);
    report.layer(
        "bench.trace.stage_coverage",
        stages.coverage(&["chain.submit", "chain.produce"], timed_us),
    );
    report.layer(
        "bench.trace.overhead_pct",
        super::overhead_pct(&round_us_per_tx),
    );
    let probes = prober
        .expect("at least one round ran")
        .finish(stages, report);
    common::report_registry_layers(report, &registries, &probes, committed);
    // Every admitted transaction must be accounted for: in a block,
    // evicted, or replaced.
    let evicted = report.layers["chain.mempool.evicted"] as u64;
    let replaced = report.layers["chain.mempool.rbf_replaced"] as u64;
    if admitted != committed + evicted + replaced {
        report.fail(format!(
            "admitted {admitted} != committed {committed} + evicted {evicted} + replaced {replaced}"
        ));
    }
    if let Some(r) = replay.as_mut() {
        let blocks = stages.total("chain.produce").calls.max(1) as f64;
        super::report_unattributed(
            report,
            stages,
            r,
            committed as f64 / blocks,
            report.attempted as f64,
        );
        r.finish(report);
    }
}
