//! `fleet_chaos`: sync, fork choice, message encoding and the event
//! scheduler, with faults.
//!
//! Validators and observers are persistent `ChainReplica`s on the
//! discrete-event simulator with a regional link model. Every block
//! interval one transfer per sender is injected through
//! `chain_mut().submit`, each sender always at the same validator. A
//! seeded fault plan repeats one cycle: a 2|2 validator partition, heal,
//! then a crash and recovery of one validator. Each timed segment is one
//! fleet's life from genesis over `SEGMENT_CYCLES` such cycles. The
//! replicas share this process's signature cache, so signature cost is
//! deliberately near zero: this is the bypass workload for any signature
//! optimisation and the exercising workload for sync and the network.
//!
//! A client never submits to a node that is down; its senders wait.

use crate::adapter::{self, Fault, Fleet, FleetStats, Hash, Reject, Tx};
use crate::clock::{us_since, Stamp};
use crate::common::{self, Accounts, Checkpoint, Prober, Registries, RunCfg};
use crate::replay::LayerReplay;
use crate::report::Report;
use crate::stats::{median, quiet_rate, Rng};
use crate::trace::Stages;
use std::collections::HashMap;

const VALIDATORS: usize = 4;
const OBSERVERS: usize = 3;
const INTERVAL_US: u64 = 500_000;
const ANNOUNCE_US: u64 = 400_000;
const SNAPSHOT_EVERY: u64 = 24;
/// Steps (block intervals) per fault cycle.
const CYCLE: u64 = 40;
const PARTITION: (u64, u64) = (8, 14);
const CRASH: (u64, u64) = (24, 28);
const CRASHED_VALIDATOR: usize = 2;
/// Fault cycles one fleet lives for. A fleet's cost per cycle grows with
/// its chain (crash recovery replays the journal from genesis, fork choice
/// re-validates full-chain offers: 0.5 s for the first cycle, 1.0 s for
/// the thirteenth), so only segments that start at the same height do
/// equal work. Every timed segment therefore starts a fresh fleet at
/// genesis, runs this many cycles and then lets everything commit.
const SEGMENT_CYCLES: u64 = 2;
/// Convergence is probed at this simulated granularity after a fault ends.
const PROBE_US: u64 = 10_000;
/// Catch-up and recovery probes between two segments.
const PROBES_PER_SEGMENT: usize = 6;

fn fault_plan() -> Vec<Fault> {
    let mut faults = Vec::with_capacity(2 * SEGMENT_CYCLES as usize);
    for cycle in 0..SEGMENT_CYCLES {
        let at = |step: u64| (cycle * CYCLE + step) * INTERVAL_US;
        faults.push(Fault::Partition {
            at: at(PARTITION.0),
            heal_at: at(PARTITION.1),
            groups: vec![vec![0, 1, 4, 5], vec![2, 3, 6]],
        });
        faults.push(Fault::Crash {
            node: CRASHED_VALIDATOR,
            at: at(CRASH.0),
            recover_at: at(CRASH.1),
        });
    }
    faults
}

/// One fleet's life: a timed segment.
struct Run<'a> {
    fleet: Fleet,
    stages: &'a mut Stages,
    replay: Option<&'a mut LayerReplay>,
    submitted_at: HashMap<Hash, Stamp>,
    /// Blocks below this height are on every online replica and counted.
    accounted: u64,
    committed: u64,
    latencies_ms: Vec<f64>,
    events: u64,
    lag_max: u64,
    /// Simulated time a fault ended, while replicas have not reconverged.
    probing: Option<u64>,
    reconverge_ms: Vec<f64>,
}

impl Run<'_> {
    /// Advances one block interval, probing convergence finely while a
    /// fault's aftermath is open.
    fn advance(&mut self, step: u64, parent: u32) {
        let end = (step + 1) * INTERVAL_US;
        let in_cycle = step % CYCLE;
        if step < SEGMENT_CYCLES * CYCLE && (in_cycle == PARTITION.1 || in_cycle == CRASH.1) {
            self.probing = Some(step * INTERVAL_US);
        }
        let mut now = step * INTERVAL_US;
        while now < end {
            let next = if self.probing.is_some() {
                (now + PROBE_US).min(end)
            } else {
                end
            };
            let fleet = &mut self.fleet;
            let (events, _) = self.stages.time("net.run_until", parent, step, || {
                adapter::fleet_run_until(fleet, next)
            });
            self.events += events;
            now = next;
            if let Some(since) = self.probing {
                if adapter::fleet_converged(&self.fleet) {
                    self.reconverge_ms.push((now - since) as f64 / 1e3);
                    self.probing = None;
                }
            }
        }
    }

    /// Counts blocks that reached every online replica since last time.
    fn account(&mut self) {
        let done = Stamp::now();
        let (lo, hi) = adapter::fleet_height_range(&self.fleet);
        self.lag_max = self.lag_max.max(hi - lo);
        // A replica that just recovered from its journal can sit below
        // blocks already counted; they stay counted.
        let lo = lo.max(self.accounted);
        let chain = adapter::fleet_chain(&self.fleet, 0);
        for block in &adapter::blocks(chain)[self.accounted as usize..lo as usize] {
            for tx in adapter::block_txs(block) {
                if let Some(at) = self.submitted_at.remove(&adapter::tx_hash(tx)) {
                    self.latencies_ms.push(done.us_after(at) / 1e3);
                }
                self.committed += 1;
            }
            if let Some(r) = self.replay.as_mut() {
                r.on_block(block);
            }
        }
        self.accounted = lo;
    }

    fn replay_spent_us(&self) -> f64 {
        self.replay.as_ref().map_or(0.0, |r| r.spent_us())
    }
}

pub fn run(cfg: &RunCfg, stages: &mut Stages, report: &mut Report) {
    let senders = cfg.size(64, 16);
    let validators: Vec<u64> = (0..VALIDATORS as u64)
        .map(|i| cfg.seed ^ (0x7a11 + i))
        .collect();
    let faults = fault_plan();
    let new_fleet = |accounts: &Accounts| {
        adapter::fleet_new(
            cfg.seed,
            validators.clone(),
            OBSERVERS,
            accounts.alloc.clone(),
            INTERVAL_US,
            ANNOUNCE_US,
            SNAPSHOT_EVERY,
            &faults,
        )
    };

    let (accounts, first_fleet) = common::repeat_setup(report, || {
        let accounts = Accounts::generate(cfg.seed, senders, 1_000);
        let fleet = new_fleet(&accounts);
        (accounts, fleet)
    });
    let genesis = || adapter::new_chain(&validators, &accounts.alloc, 1024, 1 << 20);
    let genesis_supply = accounts.genesis_supply();
    let registries = Registries::read();

    let mut replay = stages
        .traced()
        .then(|| LayerReplay::new(&accounts.alloc, false, 1 << 20, 1024));
    let mut rng = Rng::new(cfg.seed ^ 0x51);
    let mut timed_us = 0.0;
    let mut segment_rates = Vec::new();
    let mut segment_us_per_step = Vec::new();
    let mut latencies_ms: Vec<Vec<f64>> = Vec::new();
    let mut reconverge_ms = Vec::new();
    let mut net = FleetStats::default();
    let (mut events, mut lag_max, mut blocks, mut intervals) = (0u64, 0u64, 0u64, 0u64);
    let (mut submitted_total, mut committed_total) = (0u64, 0u64);
    let mut sign_us = 0.0;
    let mut prober: Option<Prober> = None;
    let mut next_fleet = Some(first_fleet);
    let mut segment = 0u64;

    while !cfg.spent(timed_us) {
        let fleet = next_fleet.take().unwrap_or_else(|| new_fleet(&accounts));
        // Every fleet starts as a fresh set of processes would: with an
        // empty signature cache (the replicas then share it).
        adapter::sigcache_clear();
        if let Some(r) = replay.as_mut().filter(|_| segment > 0) {
            r.restart(&accounts.alloc);
        }
        stages.set_recording(segment.is_multiple_of(2));
        let mut run = Run {
            fleet,
            stages: &mut *stages,
            replay: replay.as_mut(),
            submitted_at: HashMap::new(),
            accounted: 0,
            committed: 0,
            latencies_ms: Vec::new(),
            events: 0,
            lag_max: 0,
            probing: None,
            reconverge_ms: Vec::new(),
        };
        let mut nonces = vec![0u64; senders];
        let mut submitted = 0u64;
        let mut segment_us = 0.0;
        let mut step = 0u64;
        // After the last fault cycle, the fault-free head of the next one:
        // no more injections, every validator gets its turn, and
        // everything in flight commits.
        while step < SEGMENT_CYCLES * CYCLE + PARTITION.0 {
            let injecting = step < SEGMENT_CYCLES * CYCLE;
            if !injecting && run.committed == submitted && adapter::fleet_converged(&run.fleet) {
                break;
            }
            // The clients sign this interval's transfers (untimed), one
            // per sender whose validator is up.
            let t = Stamp::now();
            let txs: Vec<(usize, Tx)> = (0..senders)
                .filter(|s| injecting && adapter::fleet_online(&run.fleet, s % VALIDATORS))
                .map(|s| {
                    let to =
                        accounts.recipients[rng.below(accounts.recipients.len() as u64) as usize];
                    let tx =
                        adapter::sign_transfer(&accounts.senders[s], nonces[s], to, 1, 1_000, 1);
                    nonces[s] += 1;
                    (s % VALIDATORS, tx)
                })
                .collect();
            sign_us += us_since(t);
            if let Some(r) = run.replay.as_mut() {
                txs.iter().for_each(|(_, tx)| r.on_submit(tx));
            }

            let replay_before = run.replay_spent_us();
            let start = Stamp::now();
            let parent = run.stages.open_batch("interval", step);
            report.attempted += txs.len() as u64;
            submitted += txs.len() as u64;
            let fleet = &mut run.fleet;
            let submitted_at = &mut run.submitted_at;
            let (rejects, _) = run.stages.time("chain.submit", parent, step, || {
                let mut rejects: Vec<Reject> = Vec::new();
                for (node, tx) in txs {
                    submitted_at.insert(adapter::tx_hash(&tx), Stamp::now());
                    if let Err(e) = adapter::fleet_submit(fleet, node, tx) {
                        rejects.push(e);
                    }
                }
                rejects
            });
            for e in rejects {
                report.fail(format!("a validator refused a transfer: {e:?}"));
            }
            run.advance(step, parent);
            run.account();
            run.stages.close_batch(parent);
            segment_us += us_since(start) - (run.replay_spent_us() - replay_before);
            step += 1;
        }
        let Run {
            fleet,
            committed,
            latencies_ms: segment_latencies,
            events: segment_events,
            lag_max: segment_lag,
            reconverge_ms: mut segment_reconverge,
            ..
        } = run;

        if committed != submitted {
            report.failed += submitted - committed.min(submitted);
            report.violations.push(format!(
                "segment {segment}: {committed} of {submitted} submitted transfers were committed"
            ));
        }
        if let Some(h) = adapter::fleet_first_divergent_height(&fleet) {
            report.fail(format!(
                "replicas diverge at height {h} after the last heal"
            ));
        }
        let reference = adapter::tip(adapter::fleet_chain(&fleet, 0));
        for node in 1..adapter::fleet_len(&fleet) {
            let chain = adapter::fleet_chain(&fleet, node);
            report.check_same_tip(
                &format!("replica {node} vs replica 0"),
                adapter::tip(chain),
                reference,
            );
            report.check_supply(&format!("replica {node}"), chain, genesis_supply);
        }

        timed_us += segment_us;
        segment_rates.push(committed as f64 / (segment_us / 1e6));
        segment_us_per_step.push(segment_us / step as f64);
        latencies_ms.push(segment_latencies);
        reconverge_ms.append(&mut segment_reconverge);
        net.add(&adapter::fleet_stats(&fleet));
        events += segment_events;
        lag_max = lag_max.max(segment_lag);
        blocks += reference.0;
        intervals += step;
        submitted_total += submitted;
        committed_total += committed;
        segment += 1;

        // The probes empty the shared signature cache; no fleet is running.
        let p = prober.get_or_insert_with(|| {
            let cp = Checkpoint::take(
                adapter::fleet_chain(&fleet, 0),
                adapter::fleet_store(&fleet, 0),
            );
            Prober::new(&genesis, cp, SNAPSHOT_EVERY, common::SYNC_BATCH, 3)
        });
        drop(fleet);
        p.probe(PROBES_PER_SEGMENT, stages, report);
    }
    stages.set_recording(true);

    report.e2e("tx_per_s", quiet_rate(&segment_rates), segment_rates.len());
    common::report_commit_latency(report, &latencies_ms);
    report.info("segments", segment);
    report.info("cycles_per_segment", SEGMENT_CYCLES);
    report.info("blocks", blocks);
    report.info("intervals", intervals);
    report.info("committed_txs", committed_total);
    report.info("replicas", VALIDATORS + OBSERVERS);
    report.info("fault_events", reconverge_ms.len());

    let blocks = blocks.max(1) as f64;
    report.layer("chain.sync.reconverge_ms_sim", median(&reconverge_ms));
    report.layer("chain.sync.msgs_per_block", net.delivered as f64 / blocks);
    report.layer(
        "chain.sync.bytes_per_block",
        net.bytes_delivered as f64 / blocks,
    );
    report.layer("chain.sync.catchup_requests", net.catchup_requests as f64);
    report.layer("chain.sync.forks_adopted", net.forks_adopted as f64);
    report.layer("chain.sync.blocks_rejected", net.blocks_rejected as f64);
    report.layer("chain.sync.txs_reinstated", net.txs_reinstated as f64);
    report.layer("chain.sync.lag_blocks_max", lag_max as f64);
    report.layer("net.sim.events", events as f64);
    report.layer(
        "net.sim.events_per_s",
        events as f64 / (stages.total("net.run_until").us / 1e6),
    );
    report.layer("net.sim.delivered", net.delivered as f64);
    report.layer("net.sim.dropped", net.dropped as f64);
    report.layer(
        "chain.chain.submit_us",
        stages.total("chain.submit").us / submitted_total.max(1) as f64,
    );
    report.layer(
        "crypto.schnorr.sign_us",
        sign_us / submitted_total.max(1) as f64,
    );
    report.layer(
        "bench.trace.stage_coverage",
        stages.coverage(&["chain.submit", "net.run_until"], timed_us),
    );
    report.layer(
        "bench.trace.overhead_pct",
        super::overhead_pct(&segment_us_per_step),
    );
    let probes = prober
        .expect("at least one segment ran")
        .finish(stages, report);
    common::report_registry_layers(report, &registries, &probes, committed_total);
    if let Some(r) = replay.as_mut() {
        r.finish(report);
    }
}
