//! `market_lifecycle`: the paper's Fig. 2 flow, back to back.
//!
//! One marketplace; providers, readings and executors are registered and
//! ingested once in set-up. Each lifecycle is `submit_workload` (escrow) →
//! `executor_join` per executor (attest) → `provider_accept` per provider
//! → `try_start` → `execute` → `finalize` (payout), with the reward scheme
//! alternating between proportional and Monte-Carlo Shapley. The
//! marketplace chain journals, and a cold follower replays every new
//! block after every call. One transaction per block: per-block fixed
//! cost, reading and quote verification dominate; batch and mempool
//! effects are nearly absent.
//!
//! The request a user waits for here is the whole lifecycle, so
//! `commit_ms_*` is the time from `submit_workload` to `finalize` paid
//! and replicated.

use crate::adapter::{self, Chain, Market};
use crate::clock::{us_since, Stamp};
use crate::common::{self, Checkpoint, Prober, Registries, RunCfg};
use crate::replay::LayerReplay;
use crate::report::Report;
use crate::stats::quiet_rate;
use crate::trace::Stages;

/// Lifecycles per segment: latency percentiles are taken per segment, and
/// tracing alternates by segment.
const SEGMENT_LIFECYCLES: u64 = 10;
const SNAPSHOT_EVERY: u64 = 64;
/// One-transaction blocks handed to a joining node per sync batch.
const SYNC_BATCH: usize = 64;

struct Sizes {
    providers: usize,
    readings: usize,
    executors: usize,
    /// The checkpoint is taken after this many lifecycles.
    checkpoint_lifecycles: u64,
}

fn sizes(cfg: &RunCfg) -> Sizes {
    Sizes {
        providers: cfg.size(16, 4),
        readings: cfg.size(40, 20),
        executors: 2,
        checkpoint_lifecycles: cfg.size(20, 2) as u64,
    }
}

/// The marketplace, its follower and everything a Fig. 2 step reports to.
struct Flow<'a> {
    market: Market,
    follower: Chain,
    replay: Option<LayerReplay>,
    stages: &'a mut Stages,
    report: &'a mut Report,
}

impl Flow<'_> {
    /// One Fig. 2 step: the marketplace call, then the follower replays,
    /// cold, whatever the marketplace chain appended.
    fn step(
        &mut self,
        name: &'static str,
        parent: u32,
        lifecycle: u64,
        call: impl FnOnce(&mut Market) -> Result<u64, String>,
    ) -> u64 {
        self.report.attempted += 1;
        let market = &mut self.market;
        let (res, _) = self.stages.time(name, parent, lifecycle, || call(market));
        let chain = adapter::market_chain_ref(&self.market);
        for block in &adapter::blocks(chain)[adapter::height(&self.follower) as usize..] {
            adapter::sigcache_clear();
            let follower = &mut self.follower;
            let (applied, _) = self
                .stages
                .time("chain.apply_block", parent, lifecycle, || {
                    adapter::apply(follower, block)
                });
            if let Err(e) = applied {
                self.report
                    .fail(format!("follower rejected a marketplace block: {e}"));
            }
            if let Some(r) = self.replay.as_mut() {
                r.on_block(block);
            }
        }
        res.unwrap_or_else(|e| {
            self.report
                .fail(format!("{name} failed in lifecycle {lifecycle}: {e}"));
            0
        })
    }

    /// One whole lifecycle; returns the readings its executors accepted.
    fn lifecycle(&mut self, index: u64, sz: &Sizes) -> u64 {
        let parent = self.stages.open_batch("lifecycle", index);
        let shapley = index % 2 == 1;
        let id = self.step("market.submit_workload", parent, index, |m| {
            adapter::market_submit_workload(m, index, shapley)
        });
        for e in 0..sz.executors {
            self.step("market.executor_join", parent, index, |m| {
                adapter::market_executor_join(m, id, e).map(|()| 0)
            });
        }
        for p in 0..sz.providers {
            self.step("market.provider_accept", parent, index, |m| {
                adapter::market_provider_accept(m, id, p).map(|()| 0)
            });
        }
        self.step("market.try_start", parent, index, |m| {
            adapter::market_try_start(m, id).map(|()| 0)
        });
        let readings = self.step("market.execute", parent, index, |m| {
            adapter::market_execute(m, id)
        });
        self.step("market.finalize", parent, index, |m| {
            adapter::market_finalize(m, id).map(|()| 0)
        });
        self.stages.close_batch(parent);
        readings
    }

    fn replay_spent_us(&self) -> f64 {
        self.replay.as_ref().map_or(0.0, LayerReplay::spent_us)
    }
}

pub fn run(cfg: &RunCfg, stages: &mut Stages, report: &mut Report) {
    let sz = sizes(cfg);
    let genesis = || adapter::market_genesis(cfg.seed);

    let (market, store, follower) = common::repeat_setup(report, || {
        let mut market = adapter::market_setup(cfg.seed, sz.providers, sz.readings, sz.executors);
        let store = adapter::new_store();
        adapter::attach_store(adapter::market_chain(&mut market), &store, SNAPSHOT_EVERY);
        let mut follower = adapter::market_genesis(cfg.seed);
        for block in adapter::blocks(adapter::market_chain_ref(&market)) {
            adapter::apply(&mut follower, block).expect("follower replays the ingest blocks");
        }
        (market, store, follower)
    });
    let mut replay = stages
        .traced()
        .then(|| LayerReplay::new(&adapter::market_alloc(), true, 1 << 20, 1024));
    if let Some(r) = replay.as_mut() {
        for block in adapter::blocks(adapter::market_chain_ref(&market)) {
            r.on_block(block);
        }
    }
    let genesis_supply = adapter::supply_plus_burned(adapter::market_chain_ref(&market));
    let setup_txs = adapter::height(&follower);
    let registries = Registries::read();
    let mut flow = Flow {
        market,
        follower,
        replay,
        stages,
        report,
    };

    let mut timed_us = 0.0;
    let mut lifecycle_ms: Vec<Vec<f64>> = Vec::new();
    let mut tx_rates = Vec::new();
    let mut lifecycle_rates = Vec::new();
    let mut pair = (0.0, 0u64);
    let mut segment_ms_per_lifecycle = Vec::new();
    let mut readings_accepted = 0u64;
    let mut prober: Option<Prober> = None;
    let mut done = 0u64;

    while !cfg.spent(timed_us) || prober.is_none() {
        let segment = done / SEGMENT_LIFECYCLES;
        flow.stages.set_recording(segment.is_multiple_of(2));
        let mut seg_us = 0.0;
        lifecycle_ms.push(Vec::new());
        for _ in 0..SEGMENT_LIFECYCLES {
            let replay_before = flow.replay_spent_us();
            let height_before = adapter::height(&flow.follower);
            let start = Stamp::now();
            readings_accepted += flow.lifecycle(done, &sz);
            let us = us_since(start) - (flow.replay_spent_us() - replay_before);
            let txs = adapter::height(&flow.follower) - height_before;
            lifecycle_ms
                .last_mut()
                .expect("pushed above")
                .push(us / 1e3);
            // The two reward schemes cost differently, so the unit of a
            // rate is a pair of lifecycles, one of each.
            pair = (pair.0 + us, pair.1 + txs);
            if done % 2 == 1 {
                tx_rates.push(pair.1 as f64 / (pair.0 / 1e6));
                lifecycle_rates.push(2e6 / pair.0);
                pair = (0.0, 0);
            }
            seg_us += us;
            done += 1;
            if done == sz.checkpoint_lifecycles {
                let cp = Checkpoint::take(adapter::market_chain_ref(&flow.market), &store);
                prober = Some(Prober::new(&genesis, cp, SNAPSHOT_EVERY, SYNC_BATCH, 2));
            }
        }
        timed_us += seg_us;
        if let Some(p) = prober.as_mut() {
            p.probe(2, flow.stages, flow.report);
        }
        segment_ms_per_lifecycle.push(seg_us / 1e3 / SEGMENT_LIFECYCLES as f64);
    }
    let Flow {
        market,
        follower,
        mut replay,
        stages,
        report,
    } = flow;
    stages.set_recording(true);

    let chain = adapter::market_chain_ref(&market);
    report.e2e("tx_per_s", quiet_rate(&tx_rates), tx_rates.len());
    common::report_commit_latency(report, &lifecycle_ms);
    report.check_same_tip(
        "follower vs marketplace chain",
        adapter::tip(&follower),
        adapter::tip(chain),
    );
    report.check_supply("marketplace chain", chain, genesis_supply);
    report.check_supply("follower", &follower, genesis_supply);
    let lifecycle_txs = adapter::height(chain) - setup_txs;
    report.info("lifecycles", done);
    report.info("providers", sz.providers);
    report.info("readings_per_provider", sz.readings);
    report.info("committed_txs", lifecycle_txs);

    let per_lifecycle = lifecycle_txs as f64 / done as f64;
    report.layer(
        "core.marketplace.lifecycles_per_s",
        quiet_rate(&lifecycle_rates),
    );
    for (stage, metric) in [
        (
            "market.submit_workload",
            "core.marketplace.submit_workload_ms",
        ),
        ("market.executor_join", "core.marketplace.executor_join_ms"),
        (
            "market.provider_accept",
            "core.marketplace.provider_accept_ms",
        ),
        ("market.execute", "core.marketplace.execute_ms"),
        ("market.finalize", "core.marketplace.finalize_ms"),
    ] {
        report.layer(metric, stages.mean_us(stage) / 1e3);
    }
    // One transaction per block on this chain.
    report.layer("core.marketplace.blocks_per_lifecycle", per_lifecycle);
    report.layer("core.marketplace.txs_per_lifecycle", per_lifecycle);
    report.layer(
        "core.authenticity.readings_per_lifecycle",
        readings_accepted as f64 / done as f64,
    );
    report.layer(
        "chain.chain.apply_block_ms",
        stages.mean_us("chain.apply_block") / 1e3,
    );
    report.layer(
        "bench.trace.stage_coverage",
        stages.coverage(
            &[
                "market.submit_workload",
                "market.executor_join",
                "market.provider_accept",
                "market.try_start",
                "market.execute",
                "market.finalize",
                "chain.apply_block",
            ],
            timed_us,
        ),
    );
    report.layer(
        "bench.trace.overhead_pct",
        super::overhead_pct(&segment_ms_per_lifecycle),
    );
    let probes = prober
        .expect("loop runs until the checkpoint exists")
        .finish(stages, report);
    common::report_registry_layers(report, &registries, &probes, lifecycle_txs);

    if let Some(r) = replay.as_mut() {
        // Layers this workload adds on top of the chain's: device-reading
        // and attestation-quote verification, on fixtures of the same shape.
        let readings = adapter::reading_fixture(cfg.seed, 64, 4);
        let t = Stamp::now();
        let accepted = adapter::layer_verify_readings(&readings);
        let reading_us = us_since(t) / accepted.max(1) as f64;
        let quote = adapter::quote_fixture(cfg.seed);
        let t = Stamp::now();
        for _ in 0..16 {
            std::hint::black_box(adapter::layer_verify_quote(&quote));
        }
        let quote_us = us_since(t) / 16.0;
        report.layer("core.authenticity.reading_verify_us", reading_us);
        report.layer("tee.attestation.quote_verify_us", quote_us);

        // Per lifecycle: every transaction is admitted and sealed into its
        // own block inside a marketplace call; each accept verifies the
        // provider's readings and one quote, each join one quote.
        let chain_us = per_lifecycle * (r.submit_layers_us() + r.produce_layers_us(1.0));
        let verify_us = readings_accepted as f64 / done as f64 * reading_us
            + (sz.providers + sz.executors) as f64 * quote_us;
        let follower_us = stages.total("chain.apply_block").us / done as f64;
        let lifecycle_us = timed_us / done as f64;
        report.layer(
            "core.marketplace.lifecycle_unattributed_us",
            lifecycle_us - chain_us - verify_us - follower_us,
        );
        report.layer(
            "bench.trace.layer_coverage",
            (chain_us + verify_us + follower_us) / lifecycle_us,
        );
        r.finish(report);
    }
    drop(follower);
}
