//! The benchmark's contract: workloads, metric names, units, directions
//! and regression bounds. `--spec` prints it as `BENCHMARK.json`; a run
//! emits exactly these metrics.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "pipeline_transfer",
        why: "backbone path at steady state: submit, produce, cold follower apply of 256-transfer blocks over 100k accounts; signatures, state apply, SMT commit and journal all block",
    },
    Workload {
        name: "market_lifecycle",
        why: "the paper's Fig. 2 flow back to back, one tx per block: reading and quote checks and per-block fixed cost dominate, so a transfer-path gain should not move it",
    },
    Workload {
        name: "node_catchup",
        why: "bulk replay and crash recovery of a journaled chain with no admission, selection or sealing: cost pushed from production onto validators or recovery shows here",
    },
    Workload {
        name: "mempool_flood",
        why: "the only deep standing pool: floods past capacity with eviction, replace-by-fee and refusals, then drains; admission and selection at depth show here",
    },
    Workload {
        name: "fleet_chaos",
        why: "7 replicas on the simulated network under partition and crash cycles with a shared warm signature cache: exercises sync and net, bypasses signature cost",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload reports every one of these (see README.md for what
/// each means on each workload).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "tx_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "commit_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "commit_ms_p99",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "catchup_tx_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "recover_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "journal_bytes_per_tx",
        unit: "bytes",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Reported by `--trace 1` runs; 0 on a workload that does not exercise
/// the layer.
pub const PER_LAYER: &[PerLayer] = &[
    layer("chain.chain.submit_us", "us", "lower"),
    layer("chain.chain.produce_ms", "ms", "lower"),
    layer("chain.chain.apply_block_ms", "ms", "lower"),
    layer("chain.chain.validate_cold_us_per_tx", "us", "lower"),
    layer("chain.chain.validate_warm_us_per_tx", "us", "lower"),
    layer("chain.chain.validate_capture_us_per_tx", "us", "lower"),
    layer("chain.chain.snapshot_ms", "ms", "lower"),
    layer("chain.chain.snapshot_bytes", "bytes", "lower"),
    layer("chain.chain.recover_replayed_blocks", "count", "lower"),
    layer("chain.chain.submit_unattributed_us", "us", "lower"),
    layer("chain.chain.produce_unattributed_us", "us", "lower"),
    layer("chain.chain.apply_block_unattributed_us", "us", "lower"),
    layer("crypto.schnorr.verify_us", "us", "lower"),
    layer("crypto.schnorr.sign_us", "us", "lower"),
    layer("crypto.schnorr.cold_verifies_per_tx", "count", "lower"),
    layer("chain.sigcache.hit_ratio", "ratio", "higher"),
    layer("chain.mempool.insert_us", "us", "lower"),
    layer("chain.mempool.select_us_per_block", "us", "lower"),
    layer("chain.mempool.admit_tx_per_s", "1/s", "higher"),
    layer("chain.mempool.drain_tx_per_s", "1/s", "higher"),
    layer("chain.mempool.depth_max", "count", "lower"),
    layer("chain.mempool.evicted", "count", "lower"),
    layer("chain.mempool.rbf_replaced", "count", "lower"),
    layer("chain.mempool.rejected", "count", "lower"),
    layer("chain.mempool.stale_dropped", "count", "lower"),
    layer("chain.state.apply_transfer_us", "us", "lower"),
    layer("chain.state.apply_call_us", "us", "lower"),
    layer("chain.state.state_root_ms", "ms", "lower"),
    layer("chain.smt.commit_ms_per_block", "ms", "lower"),
    layer("chain.smt.nodes_hashed_per_block", "count", "lower"),
    layer("chain.smt.build_ms", "ms", "lower"),
    layer("chain.smt.leaves", "count", "lower"),
    layer("chain.block.tx_root_us", "us", "lower"),
    layer("chain.block.seal_us", "us", "lower"),
    layer("chain.block.header_verify_us", "us", "lower"),
    layer("chain.block.encoded_bytes_per_tx", "bytes", "lower"),
    layer("storage.chainlog.append_us", "us", "lower"),
    layer("storage.chainlog.bytes_per_tx", "bytes", "lower"),
    layer("storage.chainlog.frames", "count", "lower"),
    layer("storage.chainlog.scan_ms", "ms", "lower"),
    layer("chain.sync.msgs_per_block", "count", "lower"),
    layer("chain.sync.bytes_per_block", "bytes", "lower"),
    layer("chain.sync.encode_us_per_msg", "us", "lower"),
    layer("chain.sync.catchup_requests", "count", "lower"),
    layer("chain.sync.forks_adopted", "count", "lower"),
    layer("chain.sync.blocks_rejected", "count", "lower"),
    layer("chain.sync.txs_reinstated", "count", "lower"),
    layer("chain.sync.lag_blocks_max", "count", "lower"),
    layer("chain.sync.reconverge_ms_sim", "ms", "lower"),
    layer("net.sim.events", "count", "lower"),
    layer("net.sim.events_per_s", "1/s", "higher"),
    layer("net.sim.delivered", "count", "lower"),
    layer("net.sim.dropped", "count", "lower"),
    layer("core.marketplace.lifecycles_per_s", "1/s", "higher"),
    layer("core.marketplace.submit_workload_ms", "ms", "lower"),
    layer("core.marketplace.executor_join_ms", "ms", "lower"),
    layer("core.marketplace.provider_accept_ms", "ms", "lower"),
    layer("core.marketplace.execute_ms", "ms", "lower"),
    layer("core.marketplace.finalize_ms", "ms", "lower"),
    layer("core.marketplace.blocks_per_lifecycle", "count", "lower"),
    layer("core.marketplace.txs_per_lifecycle", "count", "lower"),
    layer("core.marketplace.lifecycle_unattributed_us", "us", "lower"),
    layer("core.authenticity.reading_verify_us", "us", "lower"),
    layer("core.authenticity.readings_per_lifecycle", "count", "lower"),
    layer("tee.attestation.quote_verify_us", "us", "lower"),
    layer("bench.trace.overhead_pct", "%", "lower"),
    layer("bench.trace.stage_coverage", "ratio", "higher"),
    layer("bench.trace.layer_coverage", "ratio", "higher"),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, exactly as committed at the root of the repository.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_fits_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
