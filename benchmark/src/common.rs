//! Pieces every workload shares: the run configuration, seeded account
//! sets, the fixed-height checkpoint and the catch-up / recovery epilogue
//! that turns it into `catchup_tx_per_s`, `recover_ms` and the
//! "recovered chain ≡ live chain" check.

use crate::adapter::{self, Addr, Blk, Chain, Hash, Keys, Store};
use crate::clock::{self, us_since, Stamp};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, percentile, quiet_rate, quiet_time, tail_pct, Rng};
use crate::trace::{Stages, ROOT};
use std::collections::BTreeMap;

pub struct RunCfg {
    pub seed: u64,
    /// Timed seconds of the main loop.
    pub seconds: f64,
    /// `--smoke`: every size at about a twentieth.
    pub smoke: bool,
}

impl RunCfg {
    /// Whether a timed loop that has measured `timed_us` calibrated
    /// microseconds has used up its `--seconds` of wall time.
    pub fn spent(&self, timed_us: f64) -> bool {
        timed_us * clock::wall_per_calibrated() >= self.seconds * 1e6
    }

    /// `full` at full size, `smoke` in a smoke run.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// `setup_s` is the median of at least this many set-ups in one run...
const SETUP_REPEATS_MIN: usize = 5;
/// ...and of more, up to this many, while they fit in this many seconds,
/// so that a set-up of milliseconds is not summarised by three samples.
const SETUP_REPEATS_MAX: usize = 25;
const SETUP_SECONDS: f64 = 1.5;

/// Runs a workload's set-up several times, keeping the last instance, and
/// reports the median set-up time as `setup_s`.
pub fn repeat_setup<T>(report: &mut Report, mut setup: impl FnMut() -> T) -> T {
    let started = std::time::Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPEATS_MIN
        || (times.len() < SETUP_REPEATS_MAX && started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        // Drop the previous instance first so two never coexist.
        drop(last.take());
        let t = Stamp::now();
        last = Some(setup());
        times.push(us_since(t) / 1e6);
    }
    report.e2e("setup_s", median(&times), times.len());
    last.expect("at least one set-up ran")
}

/// Funded signing accounts plus key-less recipient accounts.
pub struct Accounts {
    pub senders: Vec<Keys>,
    pub sender_addrs: Vec<Addr>,
    pub recipients: Vec<Addr>,
    pub alloc: Vec<(Addr, u128)>,
}

pub const SENDER_FUNDS: u128 = 1 << 80;

impl Accounts {
    pub fn generate(seed: u64, senders: usize, recipients: usize) -> Accounts {
        let mut rng = Rng::new(seed);
        let senders: Vec<Keys> = (0..senders)
            .map(|_| adapter::keypair(rng.next_u64()))
            .collect();
        let sender_addrs: Vec<Addr> = senders.iter().map(adapter::address).collect();
        let tag = rng.next_u64();
        let recipients: Vec<Addr> = (0..recipients as u64)
            .map(|i| adapter::synthetic_address(tag, i))
            .collect();
        let mut alloc: Vec<(Addr, u128)> =
            sender_addrs.iter().map(|a| (*a, SENDER_FUNDS)).collect();
        alloc.extend(recipients.iter().map(|a| (*a, 1_000)));
        Accounts {
            senders,
            sender_addrs,
            recipients,
            alloc,
        }
    }

    pub fn genesis_supply(&self) -> u128 {
        self.alloc.iter().map(|(_, v)| *v).sum()
    }
}

/// What a node's disk and chain held when the chain reached a fixed
/// height. Taken at the same height on every run, so everything derived
/// from it measures the same amount of work however fast the run was.
pub struct Checkpoint {
    pub tip: (u64, Hash, Hash),
    pub store: Store,
    pub blocks: Vec<Blk>,
    pub txs: u64,
    pub journal_bytes: u64,
    pub peak_rss_mb: f64,
}

impl Checkpoint {
    pub fn take(chain: &Chain, store: &Store) -> Checkpoint {
        let blocks = adapter::blocks(chain).to_vec();
        Checkpoint {
            tip: adapter::tip(chain),
            store: adapter::store_copy(store),
            txs: blocks
                .iter()
                .map(|b| adapter::block_txs(b).len() as u64)
                .sum(),
            blocks,
            journal_bytes: adapter::store_log_bytes(store),
            peak_rss_mb: peak_rss_mb(),
        }
    }

    /// Records the two fixed-work metrics read straight off the checkpoint.
    pub fn report_fixed(&self, report: &mut Report) {
        report.e2e(
            "journal_bytes_per_tx",
            self.journal_bytes as f64 / self.txs.max(1) as f64,
            self.txs as usize,
        );
        report.e2e("peak_rss_mb", self.peak_rss_mb, 1);
        report.info("checkpoint_height", self.tip.0);
        report.info("checkpoint_txs", self.txs);
    }
}

/// Blocks handed to a joining node per sync batch (transfer chains).
pub const SYNC_BATCH: usize = 4;

/// A fresh node bulk-replaying a chain with a cold signature cache,
/// journaling as it goes, one sync batch at a time.
pub struct Joining {
    pub node: Chain,
    pub store: Store,
    next: usize,
    /// One tx/s sample and one latency sample (ms) per sync batch.
    pub rates: Vec<f64>,
    pub batch_ms: Vec<f64>,
}

impl Joining {
    pub fn new(genesis: &dyn Fn() -> Chain, snapshot_every: u64) -> Joining {
        let mut node = genesis();
        adapter::state_root(&node);
        let store = adapter::new_store();
        adapter::attach_store(&mut node, &store, snapshot_every);
        Joining {
            node,
            store,
            next: 0,
            rates: Vec::new(),
            batch_ms: Vec::new(),
        }
    }

    pub fn done(&self, blocks: &[Blk]) -> bool {
        self.next >= blocks.len()
    }

    /// Applies the next `batch` blocks; returns the call's wall time in µs.
    pub fn step(
        &mut self,
        blocks: &[Blk],
        batch: usize,
        stages: &mut Stages,
        parent: u32,
        batch_id: u64,
        report: &mut Report,
    ) -> f64 {
        let chunk = &blocks[self.next..(self.next + batch).min(blocks.len())];
        self.next += chunk.len();
        let txs: usize = chunk.iter().map(|b| adapter::block_txs(b).len()).sum();
        adapter::sigcache_clear();
        let node = &mut self.node;
        let (res, us) = stages.time("chain.apply_pipelined", parent, batch_id, || {
            adapter::apply_pipelined(node, chunk)
        });
        report.attempted += 1;
        if let Err(e) = res {
            report.fail(format!("catch-up replay rejected a block: {e}"));
            self.next = blocks.len();
        }
        if txs > 0 {
            self.rates.push(txs as f64 / (us / 1e6));
        }
        self.batch_ms.push(us / 1e3);
        us
    }
}

/// One cold `recover_from_store` from a copy of `disk`; must land on `tip`.
/// Returns the wall time in ms.
pub fn recover_once(
    genesis: &dyn Fn() -> Chain,
    disk: &Store,
    tip: (u64, Hash, Hash),
    snapshot_every: u64,
    stages: &mut Stages,
    id: u64,
    report: &mut Report,
) -> f64 {
    // Each recovery gets its own copy of the disk image: a recovered
    // chain re-arms journaling on the store it is given.
    let disk = adapter::store_copy(disk);
    let fresh = genesis();
    adapter::sigcache_clear();
    let (recovered, us) = stages.time("chain.recover", ROOT, id, || {
        adapter::recover(fresh, &disk, snapshot_every)
    });
    report.attempted += 1;
    report.check_same_tip(
        "recovered chain vs live chain",
        adapter::tip(&recovered),
        tip,
    );
    us / 1e3
}

/// `recover_ms` rests on at least this many recoveries.
const MIN_RECOVERIES: usize = 5;

/// Catch-up and recovery probes against a [`Checkpoint`], run between the
/// timed segments of a workload so that their samples are spread over the
/// whole run rather than bunched into one (possibly noisy) second at the
/// end. A probe is one sync batch of a joining node, or, every
/// `recover_every`-th probe, one crash recovery. Both must land exactly on
/// the checkpoint: this is the "recovered chain ≡ live chain" and
/// "replica ≡ producer" check of every journaled workload.
pub struct Prober<'a> {
    genesis: &'a dyn Fn() -> Chain,
    cp: Checkpoint,
    snapshot_every: u64,
    sync_batch: usize,
    recover_every: u64,
    joining: Option<Joining>,
    replays: u64,
    probes: u64,
    rates: Vec<f64>,
    recover_ms: Vec<f64>,
    /// Signature-cache lookups and registry counters the probes caused,
    /// so the workload can leave them out of its own layer metrics.
    cost: Registries,
}

impl<'a> Prober<'a> {
    pub fn new(
        genesis: &'a dyn Fn() -> Chain,
        cp: Checkpoint,
        snapshot_every: u64,
        sync_batch: usize,
        recover_every: u64,
    ) -> Prober<'a> {
        Prober {
            genesis,
            cp,
            snapshot_every,
            sync_batch,
            recover_every,
            joining: None,
            replays: 0,
            probes: 0,
            rates: Vec::new(),
            recover_ms: Vec::new(),
            cost: Registries::default(),
        }
    }

    /// Runs `probes` probes.
    pub fn probe(&mut self, probes: usize, stages: &mut Stages, report: &mut Report) {
        for _ in 0..probes {
            self.probes += 1;
            let recovery = self.probes.is_multiple_of(self.recover_every);
            self.one(recovery, stages, report);
        }
    }

    /// One recovery or one sync batch, with what it cost the registries.
    fn one(&mut self, recovery: bool, stages: &mut Stages, report: &mut Report) {
        let before = Registries::read();
        if recovery {
            self.recover(stages, report);
        } else {
            self.sync(stages, report);
        }
        let now = Registries::read();
        self.cost.sigcache.0 += now.sigcache.0 - before.sigcache.0;
        self.cost.sigcache.1 += now.sigcache.1 - before.sigcache.1;
        for (name, value) in now.counters {
            let was = before.counters.get(&name).copied().unwrap_or(0);
            *self.cost.counters.entry(name).or_default() += value.saturating_sub(was);
        }
    }

    fn recover(&mut self, stages: &mut Stages, report: &mut Report) {
        let ms = recover_once(
            self.genesis,
            &self.cp.store,
            self.cp.tip,
            self.snapshot_every,
            stages,
            self.probes,
            report,
        );
        self.recover_ms.push(ms);
    }

    fn sync(&mut self, stages: &mut Stages, report: &mut Report) {
        let joining = self
            .joining
            .get_or_insert_with(|| Joining::new(self.genesis, self.snapshot_every));
        joining.step(
            &self.cp.blocks,
            self.sync_batch,
            stages,
            ROOT,
            self.probes,
            report,
        );
        if joining.done(&self.cp.blocks) {
            report.check_same_tip(
                "catch-up replica vs producer",
                adapter::tip(&joining.node),
                self.cp.tip,
            );
            self.rates.append(&mut joining.rates);
            self.replays += 1;
            self.joining = None;
        }
    }

    /// Finishes the replay in progress (at least one must complete), makes
    /// up any missing recoveries, and reports the checkpoint's metrics.
    /// Returns what the probes cost the process-global registries.
    pub fn finish(mut self, stages: &mut Stages, report: &mut Report) -> Registries {
        while self.replays == 0 || self.joining.is_some() {
            self.one(false, stages, report);
        }
        while self.recover_ms.len() < MIN_RECOVERIES {
            self.one(true, stages, report);
        }
        self.cp.report_fixed(report);
        report.e2e(
            "catchup_tx_per_s",
            quiet_rate(&self.rates),
            self.rates.len(),
        );
        report.e2e(
            "recover_ms",
            quiet_time(&self.recover_ms),
            self.recover_ms.len(),
        );
        report.layer(
            "chain.chain.recover_replayed_blocks",
            (self.cp.tip.0 - adapter::store_snapshot_height(&self.cp.store)) as f64,
        );
        report.info("catchup_replays", self.replays);
        self.cost
    }
}

/// Reports `commit_ms_p50` and `commit_ms_p99` from per-request latencies
/// in milliseconds, grouped by segment. The median and the tail (the
/// highest percentile with ten samples beyond it, capped at p99) are taken
/// inside each segment, so a segment's own slow requests count; the quiet
/// quartile across segments is reported.
pub fn report_commit_latency(report: &mut Report, segments: &[Vec<f64>]) {
    let requests: usize = segments.iter().map(Vec::len).sum();
    let per_segment = requests / segments.len().max(1);
    let tail = tail_pct(per_segment);
    let p50s: Vec<f64> = segments.iter().map(|s| median(s)).collect();
    let tails: Vec<f64> = segments.iter().map(|s| percentile(s, tail)).collect();
    report.e2e("commit_ms_p50", quiet_time(&p50s), requests);
    report.e2e("commit_ms_p99", quiet_time(&tails), requests);
    report.info("commit_latency_segments", segments.len());
    report.info("commit_tail_percentile", format!("{tail:.2}"));
}

/// The process-global registries as they stood at some moment (before a
/// timed loop), or how far a piece of work moved them; `default()` is "not
/// at all".
#[derive(Default)]
pub struct Registries {
    sigcache: (u64, u64),
    counters: BTreeMap<String, u64>,
}

impl Registries {
    pub fn read() -> Registries {
        Registries {
            sigcache: adapter::sigcache_stats(),
            counters: adapter::counters(),
        }
    }
}

/// Layer metrics every chain workload reads off the process-global
/// registries after its timed loop: signature-cache behaviour and the
/// mempool's own counters.
pub fn report_registry_layers(
    report: &mut Report,
    before: &Registries,
    probes: &Registries,
    committed_txs: u64,
) {
    let (hits, misses) = adapter::sigcache_stats();
    let hits = hits - before.sigcache.0 - probes.sigcache.0;
    let misses = misses - before.sigcache.1 - probes.sigcache.1;
    let lookups = (hits + misses).max(1);
    report.layer("chain.sigcache.hit_ratio", hits as f64 / lookups as f64);
    report.layer(
        "crypto.schnorr.cold_verifies_per_tx",
        misses as f64 / committed_txs.max(1) as f64,
    );
    let now = adapter::counters();
    let delta = |name: &str| {
        let read = |m: &BTreeMap<String, u64>| m.get(name).copied().unwrap_or(0);
        read(&now).saturating_sub(read(&before.counters) + read(&probes.counters)) as f64
    };
    report.layer("chain.mempool.evicted", delta("chain.mempool.evicted"));
    report.layer(
        "chain.mempool.rbf_replaced",
        delta("chain.mempool.rbf_replaced"),
    );
    report.layer("chain.mempool.rejected", delta("chain.mempool.rejected"));
    report.layer(
        "chain.mempool.stale_dropped",
        delta("chain.mempool_stale_dropped"),
    );
    report.layer(
        "chain.mempool.depth_max",
        adapter::gauge_high_water("chain.mempool_size"),
    );
}
