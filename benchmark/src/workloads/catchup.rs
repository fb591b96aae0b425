//! `node_catchup`: bulk replay and restore, with no admission, selection
//! or sealing in the timed loop.
//!
//! Set-up builds and journals a chain of full blocks. Each timed cycle, a
//! fresh node joins and bulk-replays the whole chain with
//! `apply_external_blocks_pipelined` in sync batches (cold signature
//! cache, journaling as it goes); then a crashed node recovers from the
//! producer's journal (snapshot + tail replay + journaled transactions)
//! several times. A change that speeds production by pushing cost onto
//! validators or recovery shows up here.
//!
//! There is no `submit` in the timed loop, so `commit_ms_*` here is the
//! time from a sync batch being handed to the joining node until it is
//! applied.

use crate::adapter::{self, Tx};
use crate::clock::{us_since, Stamp};
use crate::common::{self, Accounts, Checkpoint, Joining, Registries, RunCfg};
use crate::replay::LayerReplay;
use crate::report::Report;
use crate::stats::{quiet_rate, quiet_time, Rng};
use crate::trace::Stages;

const RECOVERIES_PER_CYCLE: usize = 2;

struct Sizes {
    senders: usize,
    accounts: usize,
    blocks: u64,
    snapshot_every: u64,
}

fn sizes(cfg: &RunCfg) -> Sizes {
    Sizes {
        senders: cfg.size(256, 32),
        accounts: cfg.size(20_000, 2_000),
        blocks: cfg.size(32, 12) as u64,
        snapshot_every: cfg.size(24, 8) as u64,
    }
}

pub fn run(cfg: &RunCfg, stages: &mut Stages, report: &mut Report) {
    let sz = sizes(cfg);
    let validator = [cfg.seed ^ 0x7a11];

    let (accounts, producer, store) = common::repeat_setup(report, || {
        let accounts = Accounts::generate(cfg.seed, sz.senders, sz.accounts);
        let mut producer = adapter::new_chain(&validator, &accounts.alloc, 1024, 1 << 20);
        adapter::state_root(&producer);
        let store = adapter::new_store();
        adapter::attach_store(&mut producer, &store, sz.snapshot_every);
        let mut rng = Rng::new(cfg.seed ^ 0x51);
        for nonce in 0..sz.blocks {
            for keys in &accounts.senders {
                let to = accounts.recipients[rng.below(accounts.recipients.len() as u64) as usize];
                let tip = rng.below(8);
                let tx: Tx = adapter::sign_transfer(keys, nonce, to, 1, 1_000 + tip, tip);
                adapter::submit(&mut producer, tx).expect("set-up chain admits its transfers");
            }
            adapter::produce(&mut producer);
        }
        (accounts, producer, store)
    });
    let genesis = || adapter::new_chain(&validator, &accounts.alloc, 1024, 1 << 20);
    let genesis_supply = accounts.genesis_supply();
    let cp = Checkpoint::take(&producer, &store);
    let chain_txs = cp.txs;
    drop(producer);

    let mut replay = stages
        .traced()
        .then(|| LayerReplay::new(&accounts.alloc, false, 1 << 20, 1024));
    if let Some(r) = replay.as_mut() {
        cp.blocks.iter().for_each(|b| r.on_block(b));
    }
    let registries = Registries::read();

    let mut timed_us = 0.0;
    let mut cycle_rates = Vec::new();
    let mut cycle_us_per_tx = Vec::new();
    let mut catchup_rates = Vec::new();
    let mut batch_ms: Vec<Vec<f64>> = Vec::new();
    let mut recover_ms = Vec::new();
    let mut applied_txs = 0u64;
    let mut journal = None;
    let mut cycle = 0u64;
    let tail_blocks = cp.tip.0 - adapter::store_snapshot_height(&cp.store);
    let tail_txs = tail_blocks * sz.senders as u64;

    while !cfg.spent(timed_us) {
        stages.set_recording(cycle.is_multiple_of(2));
        let mut joined = Joining::new(&genesis, sz.snapshot_every);
        let started = Stamp::now();
        let parent = stages.open_batch("catch_up", cycle);
        while !joined.done(&cp.blocks) {
            joined.step(
                &cp.blocks,
                common::SYNC_BATCH,
                stages,
                parent,
                cycle,
                report,
            );
        }
        stages.close_batch(parent);
        let mut cycle_us = us_since(started);
        report.check_same_tip(
            "joined node vs producer",
            adapter::tip(&joined.node),
            cp.tip,
        );
        report.check_supply("joined node", &joined.node, genesis_supply);
        catchup_rates.extend(&joined.rates);
        batch_ms.push(joined.batch_ms.clone());
        if journal.is_none() {
            // Fixed work: the first joined node's journal and this
            // process's memory after one full replay.
            journal = Some((
                adapter::store_log_bytes(&joined.store),
                crate::stats::peak_rss_mb(),
            ));
        }
        drop(joined);

        for i in 0..RECOVERIES_PER_CYCLE {
            let id = cycle * RECOVERIES_PER_CYCLE as u64 + i as u64;
            let ms = common::recover_once(
                &genesis,
                &cp.store,
                cp.tip,
                sz.snapshot_every,
                stages,
                id,
                report,
            );
            recover_ms.push(ms);
            cycle_us += ms * 1e3;
        }
        let cycle_txs = chain_txs + RECOVERIES_PER_CYCLE as u64 * tail_txs;
        timed_us += cycle_us;
        applied_txs += cycle_txs;
        cycle_rates.push(cycle_txs as f64 / (cycle_us / 1e6));
        cycle_us_per_tx.push(cycle_us / cycle_txs as f64);
        cycle += 1;
    }
    stages.set_recording(true);

    report.e2e("tx_per_s", quiet_rate(&cycle_rates), cycle_rates.len());
    common::report_commit_latency(report, &batch_ms);
    report.e2e(
        "catchup_tx_per_s",
        quiet_rate(&catchup_rates),
        catchup_rates.len(),
    );
    report.e2e("recover_ms", quiet_time(&recover_ms), recover_ms.len());
    let (journal_bytes, rss) = journal.expect("at least one cycle ran");
    report.e2e(
        "journal_bytes_per_tx",
        journal_bytes as f64 / chain_txs as f64,
        chain_txs as usize,
    );
    report.e2e("peak_rss_mb", rss, 1);
    report.info("chain_blocks", sz.blocks);
    report.info("chain_txs", chain_txs);
    report.info("cycles", cycle);
    report.info("accounts", sz.accounts + sz.senders);
    report.info("sync_batch_blocks", common::SYNC_BATCH);

    report.layer("chain.chain.recover_replayed_blocks", tail_blocks as f64);
    report.layer(
        "chain.chain.apply_block_ms",
        stages.total("chain.apply_pipelined").us / 1e3 / (cycle * sz.blocks) as f64,
    );
    report.layer(
        "bench.trace.stage_coverage",
        stages.coverage(&["chain.apply_pipelined", "chain.recover"], timed_us),
    );
    report.layer(
        "bench.trace.overhead_pct",
        super::overhead_pct(&cycle_us_per_tx),
    );
    common::report_registry_layers(report, &registries, &Registries::default(), applied_txs);
    if let Some(r) = replay.as_mut() {
        let threads = adapter::threads() as f64;
        let per_block = sz.senders as f64;
        let layers = r.apply_block_layers_us(per_block, threads);
        let stage = stages.total("chain.apply_pipelined").us / (cycle * sz.blocks) as f64;
        report.layer("chain.chain.apply_block_unattributed_us", stage - layers);
        report.layer("bench.trace.layer_coverage", layers / stage);
        r.finish(report);
    }
}
