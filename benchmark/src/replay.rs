//! Layer replay for traced runs.
//!
//! Between timed batches, a traced run feeds the same inputs the chain
//! just saw to each layer's public function on a shadow instance and
//! times it from outside. The shadow mempool and world state mirror every
//! transaction and block so they are as deep and as large as the real
//! ones; the expensive layers (signature verification, sealing, journal,
//! gossip encoding, SMT commit) are replayed on every `EVERY`-th block.

use crate::adapter::{self, Addr, Blk, Hash, Keys, Tx};
use crate::clock::{us_since, Stamp};
use crate::report::Report;
use std::collections::{BTreeMap, HashSet};

/// Replay the expensive layers on every this-many-th block.
const EVERY: u64 = 8;

#[derive(Default, Clone, Copy)]
struct Acc {
    us: f64,
    n: u64,
}

impl Acc {
    fn add(&mut self, us: f64, n: u64) {
        self.us += us;
        self.n += n;
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.us / self.n as f64
        }
    }
}

pub struct LayerReplay {
    pool: adapter::ShadowPool,
    pool_capacity: usize,
    with_workload_contract: bool,
    mirrored: HashSet<Hash>,
    nonces: BTreeMap<Addr, u64>,
    max_txs_per_block: usize,
    state: adapter::ShadowState,
    smt: adapter::ShadowSmt,
    log: adapter::ShadowLog,
    seal_keys: Keys,
    blocks: u64,
    txs: u64,
    smt_build_ms: f64,
    nodes_hashed: u64,
    smt_commits: u64,
    encoded_bytes: u64,
    encoded_txs: u64,
    log_bytes: u64,
    diverged: bool,
    /// Wall time spent inside this replay, so a workload can subtract it
    /// from a window that contains replay calls.
    spent_us: f64,
    verify: Acc,
    insert: Acc,
    select: Acc,
    apply_transfer: Acc,
    apply_call: Acc,
    state_root: Acc,
    smt_commit: Acc,
    tx_root: Acc,
    seal: Acc,
    header_verify: Acc,
    append: Acc,
    sync_encode: Acc,
}

impl LayerReplay {
    pub fn new(
        alloc: &[(Addr, u128)],
        with_workload_contract: bool,
        pool_capacity: usize,
        max_txs_per_block: usize,
    ) -> LayerReplay {
        let state = adapter::shadow_state(alloc, with_workload_contract);
        adapter::shadow_state_root(&state);
        let t = Stamp::now();
        let (smt, _) = adapter::shadow_smt_build(alloc.iter().map(|(a, _)| *a));
        let smt_build_ms = us_since(t) / 1e3;
        LayerReplay {
            pool: adapter::shadow_pool(pool_capacity),
            pool_capacity,
            with_workload_contract,
            mirrored: HashSet::new(),
            nonces: BTreeMap::new(),
            max_txs_per_block,
            state,
            smt,
            log: adapter::shadow_log(),
            seal_keys: adapter::keypair(0x5ea1),
            blocks: 0,
            txs: 0,
            smt_build_ms,
            nodes_hashed: 0,
            smt_commits: 0,
            encoded_bytes: 0,
            encoded_txs: 0,
            log_bytes: 0,
            diverged: false,
            spent_us: 0.0,
            verify: Acc::default(),
            insert: Acc::default(),
            select: Acc::default(),
            apply_transfer: Acc::default(),
            apply_call: Acc::default(),
            state_root: Acc::default(),
            smt_commit: Acc::default(),
            tx_root: Acc::default(),
            seal: Acc::default(),
            header_verify: Acc::default(),
            append: Acc::default(),
            sync_encode: Acc::default(),
        }
    }

    /// Points the mirror at a new chain starting from `alloc`: an empty
    /// pool and a genesis state. Timings gathered so far are kept.
    pub fn restart(&mut self, alloc: &[(Addr, u128)]) {
        self.pool = adapter::shadow_pool(self.pool_capacity);
        self.mirrored.clear();
        self.nonces.clear();
        self.state = adapter::shadow_state(alloc, self.with_workload_contract);
        adapter::shadow_state_root(&self.state);
    }

    fn insert(&mut self, tx: &Tx) {
        let sender = adapter::tx_touches(tx).0;
        let nonce = self.nonces.get(&sender).copied().unwrap_or(0);
        let copy = tx.clone();
        let t = Stamp::now();
        adapter::shadow_pool_insert(&mut self.pool, copy, nonce);
        self.insert.add(us_since(t), 1);
    }

    pub fn spent_us(&self) -> f64 {
        self.spent_us
    }

    /// Mirrors a transaction the benchmark submitted itself.
    pub fn on_submit(&mut self, tx: &Tx) {
        let t = Stamp::now();
        self.mirrored.insert(adapter::tx_hash(tx));
        self.insert(tx);
        self.spent_us += us_since(t);
    }

    /// Mirrors a block the chain produced or applied.
    pub fn on_block(&mut self, block: &Blk) {
        let t = Stamp::now();
        self.mirror_block(block);
        self.spent_us += us_since(t);
    }

    fn mirror_block(&mut self, block: &Blk) {
        let txs = adapter::block_txs(block);
        // Transactions the program submitted internally (the marketplace)
        // reach the shadow pool here.
        for tx in txs {
            if !self.mirrored.remove(&adapter::tx_hash(tx)) {
                self.insert(tx);
            }
        }
        let t = Stamp::now();
        adapter::shadow_pool_select(&mut self.pool, self.max_txs_per_block, &self.nonces);
        self.select.add(us_since(t), 1);

        for (i, tx) in txs.iter().enumerate() {
            let t = Stamp::now();
            adapter::shadow_apply(&mut self.state, block, i);
            let us = us_since(t);
            if adapter::tx_is_transfer(tx) {
                self.apply_transfer.add(us, 1);
            } else {
                self.apply_call.add(us, 1);
            }
            let (sender, _) = adapter::tx_touches(tx);
            self.nonces.insert(sender, adapter::tx_nonce(tx) + 1);
        }
        let t = Stamp::now();
        let root = adapter::shadow_state_root(&self.state);
        self.state_root.add(us_since(t), 1);
        self.diverged |= root != adapter::block_state_root(block);

        if self.blocks.is_multiple_of(EVERY) {
            self.replay_expensive(block);
        }
        self.blocks += 1;
        self.txs += txs.len() as u64;
    }

    fn replay_expensive(&mut self, block: &Blk) {
        let txs = adapter::block_txs(block);
        let height = adapter::block_height(block);
        for tx in txs {
            let t = Stamp::now();
            std::hint::black_box(adapter::layer_verify(tx));
            self.verify.add(us_since(t), 1);
        }

        let mut touched: Vec<Addr> = Vec::with_capacity(txs.len() * 2);
        for tx in txs {
            let (sender, other) = adapter::tx_touches(tx);
            touched.push(sender);
            touched.extend(other);
        }
        let t = Stamp::now();
        self.nodes_hashed += adapter::shadow_smt_commit(&mut self.smt, &touched, height + 1);
        self.smt_commit.add(us_since(t), 1);
        self.smt_commits += 1;

        let t = Stamp::now();
        std::hint::black_box(adapter::layer_tx_root(txs));
        self.tx_root.add(us_since(t), 1);

        let t = Stamp::now();
        let header = adapter::layer_seal(&self.seal_keys, block);
        self.seal.add(us_since(t), 1);
        let t = Stamp::now();
        std::hint::black_box(adapter::layer_header_verify(&header));
        self.header_verify.add(us_since(t), 1);

        // Journal: one frame per admitted transaction plus the block frame,
        // encoding included, as `submit` and `persist_block` pay it.
        let t = Stamp::now();
        for tx in txs {
            let frame = adapter::tx_frame(tx);
            self.log_bytes += frame.len() as u64;
            adapter::shadow_log_append_tx(&mut self.log, height, &frame);
        }
        let frame = adapter::block_frame(block);
        self.log_bytes += frame.len() as u64;
        self.encoded_bytes += frame.len() as u64;
        self.encoded_txs += txs.len() as u64;
        adapter::shadow_log_append_block(&mut self.log, height, &frame);
        self.append.add(us_since(t), txs.len() as u64 + 1);

        let t = Stamp::now();
        std::hint::black_box(adapter::layer_sync_encode(block));
        self.sync_encode.add(us_since(t), 1);
    }

    /// Estimated layer time inside one `submit` call, in µs.
    pub fn submit_layers_us(&self) -> f64 {
        self.verify.mean() + self.insert.mean() + self.append.mean()
    }

    /// Estimated layer time inside one `produce_block` call of
    /// `txs_per_block` transactions, in µs.
    pub fn produce_layers_us(&self, txs_per_block: f64) -> f64 {
        self.select.mean()
            + txs_per_block * self.apply_mean()
            + self.state_root.mean()
            + self.tx_root.mean()
            + self.seal.mean()
            + self.append.mean()
    }

    /// Estimated layer time inside one cold `apply_external_block` call.
    /// Signature checks fan out over the worker pool, so their wall share
    /// is the serial sum divided by the worker count.
    pub fn apply_block_layers_us(&self, txs_per_block: f64, threads: f64) -> f64 {
        self.header_verify.mean()
            + self.tx_root.mean()
            + txs_per_block * self.verify.mean() / threads.max(1.0)
            + txs_per_block * self.apply_mean()
            + self.state_root.mean()
            + self.append.mean()
    }

    fn apply_mean(&self) -> f64 {
        let n = self.apply_transfer.n + self.apply_call.n;
        if n == 0 {
            0.0
        } else {
            (self.apply_transfer.us + self.apply_call.us) / n as f64
        }
    }

    pub fn finish(&mut self, report: &mut Report) {
        let t = Stamp::now();
        let frames = adapter::shadow_log_scan(&self.log);
        let scan_ms = us_since(t) / 1e3;
        if self.diverged {
            report
                .violations
                .push("layer replay: shadow state root differs from a block header's".to_string());
        }
        let per = |total: u64, n: u64| if n == 0 { 0.0 } else { total as f64 / n as f64 };
        report.layer("crypto.schnorr.verify_us", self.verify.mean());
        report.layer("chain.mempool.insert_us", self.insert.mean());
        report.layer("chain.mempool.select_us_per_block", self.select.mean());
        report.layer("chain.state.apply_transfer_us", self.apply_transfer.mean());
        report.layer("chain.state.apply_call_us", self.apply_call.mean());
        report.layer("chain.state.state_root_ms", self.state_root.mean() / 1e3);
        report.layer(
            "chain.smt.commit_ms_per_block",
            self.smt_commit.mean() / 1e3,
        );
        report.layer(
            "chain.smt.nodes_hashed_per_block",
            per(self.nodes_hashed, self.smt_commits),
        );
        report.layer("chain.smt.build_ms", self.smt_build_ms);
        report.layer(
            "chain.smt.leaves",
            adapter::shadow_smt_len(&self.smt) as f64,
        );
        report.layer("chain.block.tx_root_us", self.tx_root.mean());
        report.layer("chain.block.seal_us", self.seal.mean());
        report.layer("chain.block.header_verify_us", self.header_verify.mean());
        report.layer(
            "chain.block.encoded_bytes_per_tx",
            per(self.encoded_bytes, self.encoded_txs),
        );
        report.layer("storage.chainlog.append_us", self.append.mean());
        report.layer(
            "storage.chainlog.bytes_per_tx",
            per(self.log_bytes, self.encoded_txs),
        );
        report.layer("storage.chainlog.frames", frames as f64);
        report.layer("storage.chainlog.scan_ms", scan_ms);
        report.layer("chain.sync.encode_us_per_msg", self.sync_encode.mean());
        report.info("replayed_blocks", self.blocks.div_ceil(EVERY));
        report.info("mirrored_blocks", self.blocks);
        report.info("mirrored_txs", self.txs);
    }
}
