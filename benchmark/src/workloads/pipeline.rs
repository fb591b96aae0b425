//! `pipeline_transfer`: the backbone path at steady state.
//!
//! Funded senders over a large genesis; every block is `TXS` pre-signed,
//! fee-jittered transfers. Per block: `submit` each on the producer
//! (journal attached), `produce_block`, empty the signature cache, then
//! `apply_external_block` on the follower. The mempool is a pass-through;
//! signature checks, state apply, SMT commit and the journal are all on
//! the blocking path.

use crate::adapter::{self, Tx};
use crate::clock::{us_since, Stamp};
use crate::common::{self, Accounts, Checkpoint, Prober, Registries, RunCfg};
use crate::replay::LayerReplay;
use crate::report::Report;
use crate::stats::{quiet_rate, Rng};
use crate::trace::Stages;

/// Blocks the client signs at a time, between timed segments.
const SEGMENT_BLOCKS: usize = 16;

struct Sizes {
    senders: usize,
    accounts: usize,
    snapshot_every: u64,
    /// The checkpoint is taken when the chain reaches this height.
    checkpoint_height: u64,
}

fn sizes(cfg: &RunCfg) -> Sizes {
    Sizes {
        senders: cfg.size(256, 64),
        accounts: cfg.size(100_000, 5_000),
        snapshot_every: cfg.size(32, 16) as u64,
        checkpoint_height: cfg.size(48, 24) as u64,
    }
}

/// One block's transfers: each sender's next nonce, to a seeded recipient,
/// with a jittered tip.
fn sign_block(accounts: &Accounts, rng: &mut Rng, nonce: u64) -> Vec<Tx> {
    accounts
        .senders
        .iter()
        .map(|keys| {
            let to = accounts.recipients[rng.below(accounts.recipients.len() as u64) as usize];
            let tip = rng.below(8);
            adapter::sign_transfer(
                keys,
                nonce,
                to,
                1 + rng.below(100) as u128,
                1_000 + tip,
                tip,
            )
        })
        .collect()
}

pub fn run(cfg: &RunCfg, stages: &mut Stages, report: &mut Report) {
    let sz = sizes(cfg);
    let validator = [cfg.seed ^ 0x7a11];

    let (accounts, mut producer, store, mut follower, mut rng, first) =
        common::repeat_setup(report, || {
            let accounts = Accounts::generate(cfg.seed, sz.senders, sz.accounts);
            let mut producer = adapter::new_chain(&validator, &accounts.alloc, 1024, 1 << 20);
            adapter::state_root(&producer);
            let store = adapter::new_store();
            adapter::attach_store(&mut producer, &store, sz.snapshot_every);
            let follower = adapter::new_chain(&validator, &accounts.alloc, 1024, 1 << 20);
            adapter::state_root(&follower);
            let mut rng = Rng::new(cfg.seed ^ 0x51);
            let first: Vec<Vec<Tx>> = (0..SEGMENT_BLOCKS as u64)
                .map(|n| sign_block(&accounts, &mut rng, n))
                .collect();
            (accounts, producer, store, follower, rng, first)
        });
    let genesis = || adapter::new_chain(&validator, &accounts.alloc, 1024, 1 << 20);
    let genesis_supply = accounts.genesis_supply();

    let mut replay = stages
        .traced()
        .then(|| LayerReplay::new(&accounts.alloc, false, 1 << 20, 1024));
    let registries = Registries::read();

    let mut timed_us = 0.0;
    let mut block_rates = Vec::new();
    let mut segment_us_per_tx = Vec::new();
    // Latencies grouped by snapshot period, so every group holds one
    // snapshot block.
    let mut latencies_ms: Vec<Vec<f64>> = Vec::new();
    let mut committed = 0u64;
    let mut sign_us = 0.0;
    let mut signed = 0u64;
    let mut prober: Option<Prober> = None;
    let mut next_blocks = first;
    let mut nonce = SEGMENT_BLOCKS as u64;
    let mut segment = 0u64;

    while !cfg.spent(timed_us) || prober.is_none() {
        // A traced run records spans on even segments only, so the odd
        // ones give the untraced cost of the same work.
        stages.set_recording(segment.is_multiple_of(2));
        let mut seg_us = 0.0;
        let mut seg_txs = 0u64;
        for txs in std::mem::take(&mut next_blocks) {
            let batch = adapter::height(&producer);
            report.attempted += txs.len() as u64;
            if let Some(r) = replay.as_mut() {
                txs.iter().for_each(|tx| r.on_submit(tx));
            }
            let started = Stamp::now();
            let parent = stages.open_batch("block", batch);
            let mut submitted_at = Vec::with_capacity(txs.len());
            let n = txs.len();
            let (rejects, _) = stages.time("chain.submit", parent, batch, || {
                let mut rejects = Vec::new();
                for tx in txs {
                    submitted_at.push(Stamp::now());
                    if let Err(e) = adapter::submit(&mut producer, tx) {
                        rejects.push(e);
                    }
                }
                rejects
            });
            for e in rejects {
                report.fail(format!("submit rejected a transfer: {e:?}"));
            }
            let (block, _) = stages.time("chain.produce", parent, batch, || {
                adapter::produce(&mut producer)
            });
            adapter::sigcache_clear();
            let (applied, _) = stages.time("chain.apply_block", parent, batch, || {
                adapter::apply(&mut follower, &block)
            });
            let done = Stamp::now();
            stages.close_batch(parent);
            if let Err(e) = applied {
                report.fail(format!("follower rejected block {batch}: {e}"));
            }
            let included = adapter::block_txs(&block).len();
            if included != n {
                report.failed += (n - included.min(n)) as u64;
                report
                    .violations
                    .push(format!("block {batch} holds {included} of {n} submitted"));
            }
            if batch.is_multiple_of(sz.snapshot_every) {
                latencies_ms.push(Vec::new());
            }
            latencies_ms
                .last_mut()
                .expect("pushed at height 0")
                .extend(submitted_at.iter().map(|t| done.us_after(*t) / 1e3));
            let block_us = done.us_after(started);
            block_rates.push(included as f64 / (block_us / 1e6));
            committed += included as u64;
            seg_txs += included as u64;
            seg_us += block_us;
            if let Some(r) = replay.as_mut() {
                r.on_block(&block);
            }
            if adapter::height(&producer) == sz.checkpoint_height {
                let cp = Checkpoint::take(&producer, &store);
                prober = Some(Prober::new(
                    &genesis,
                    cp,
                    sz.snapshot_every,
                    common::SYNC_BATCH,
                    5,
                ));
            }
        }
        timed_us += seg_us;
        segment_us_per_tx.push(seg_us / seg_txs.max(1) as f64);
        segment += 1;

        if let Some(p) = prober.as_mut() {
            p.probe(2, stages, report);
        }

        // The client signs the next segment between timed segments.
        let t = Stamp::now();
        next_blocks = (0..SEGMENT_BLOCKS as u64)
            .map(|i| sign_block(&accounts, &mut rng, nonce + i))
            .collect();
        nonce += SEGMENT_BLOCKS as u64;
        sign_us += us_since(t);
        signed += (SEGMENT_BLOCKS * sz.senders) as u64;
    }
    stages.set_recording(true);

    report.e2e("tx_per_s", quiet_rate(&block_rates), block_rates.len());
    common::report_commit_latency(report, &latencies_ms);
    report.check_same_tip(
        "follower vs producer",
        adapter::tip(&follower),
        adapter::tip(&producer),
    );
    report.check_supply("producer", &producer, genesis_supply);
    report.check_supply("follower", &follower, genesis_supply);
    report.info("blocks", adapter::height(&producer));
    report.info("committed_txs", committed);
    report.info("txs_per_block", sz.senders);
    report.info("accounts", sz.accounts + sz.senders);

    let blocks = adapter::height(&producer) as f64;
    report.layer(
        "chain.chain.submit_us",
        stages.total("chain.submit").us / committed.max(1) as f64,
    );
    report.layer(
        "chain.chain.produce_ms",
        stages.mean_us("chain.produce") / 1e3,
    );
    report.layer(
        "chain.chain.apply_block_ms",
        stages.mean_us("chain.apply_block") / 1e3,
    );
    report.layer("crypto.schnorr.sign_us", sign_us / signed.max(1) as f64);
    report.layer(
        "bench.trace.stage_coverage",
        stages.coverage(
            &["chain.submit", "chain.produce", "chain.apply_block"],
            timed_us,
        ),
    );
    report.layer(
        "bench.trace.overhead_pct",
        super::overhead_pct(&segment_us_per_tx),
    );
    drop(follower);
    let probes = prober
        .expect("loop runs until the checkpoint exists")
        .finish(stages, report);
    common::report_registry_layers(report, &registries, &probes, committed);
    let t = Stamp::now();
    let snapshot_len = adapter::snapshot_bytes(&producer);
    report.layer("chain.chain.snapshot_ms", us_since(t) / 1e3);
    report.layer("chain.chain.snapshot_bytes", snapshot_len as f64);
    if let Some(r) = replay.as_mut() {
        super::report_unattributed(
            report,
            stages,
            r,
            committed as f64 / blocks,
            committed as f64,
        );
        r.finish(report);
    }
}
