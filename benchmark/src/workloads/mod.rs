//! The five workloads and what they share in reporting.

pub mod catchup;
pub mod fleet;
pub mod flood;
pub mod market;
pub mod pipeline;

use crate::adapter;
use crate::clock::{us_since, Stamp};
use crate::common::RunCfg;
use crate::replay::LayerReplay;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Stages;

/// Runs the named workload; `None` if there is no such workload.
pub fn run(name: &str, cfg: &RunCfg, stages: &mut Stages) -> Option<Report> {
    let mut report = Report::default();
    let workload: fn(&RunCfg, &mut Stages, &mut Report) = match name {
        "pipeline_transfer" => pipeline::run,
        "market_lifecycle" => market::run,
        "node_catchup" => catchup::run,
        "mempool_flood" => flood::run,
        "fleet_chaos" => fleet::run,
        _ => return None,
    };
    // The program's worker pool is held to one thread. On the 2-vCPU
    // reference host its parallel sections need both vCPUs at once, and a
    // neighbour on either one stalls them: at the default (2 workers)
    // `pipeline_transfer` read 4 875-6 437 tx/s over ten runs, at one
    // worker 5 744-6 576, with no lower median (README.md, "Steadiness").
    adapter::with_one_thread(|| workload(cfg, stages, &mut report));
    if stages.traced() {
        reconcile(&mut report);
    }
    Some(report)
}

/// Tracing overhead in percent. `costs` is the cost per unit of work of
/// each segment in order; even segments recorded spans, odd ones did not.
/// Each traced segment is compared with the mean of its two untraced
/// neighbours, so a cost that drifts over the run cancels out.
pub fn overhead_pct(costs: &[f64]) -> f64 {
    let ratios: Vec<f64> = (2..costs.len().saturating_sub(1))
        .step_by(2)
        .map(|i| costs[i] / ((costs[i - 1] + costs[i + 1]) / 2.0))
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    (median(&ratios) - 1.0) * 100.0
}

/// Stage self time: each chain stage's mean span minus the replayed
/// layers inside it, and the share of stage time the layers explain.
pub fn report_unattributed(
    report: &mut Report,
    stages: &Stages,
    replay: &LayerReplay,
    txs_per_block: f64,
    submitted_txs: f64,
) {
    let threads = adapter::threads() as f64;
    let submit = stages.total("chain.submit");
    let produce = stages.total("chain.produce");
    let apply = stages.total("chain.apply_block");
    let submit_layers = replay.submit_layers_us();
    let produce_layers = replay.produce_layers_us(txs_per_block);
    let apply_layers = replay.apply_block_layers_us(txs_per_block, threads);
    report.layer(
        "chain.chain.submit_unattributed_us",
        submit.us / submitted_txs.max(1.0) - submit_layers,
    );
    report.layer(
        "chain.chain.produce_unattributed_us",
        stages.mean_us("chain.produce") - produce_layers,
    );
    if apply.calls > 0 {
        report.layer(
            "chain.chain.apply_block_unattributed_us",
            stages.mean_us("chain.apply_block") - apply_layers,
        );
    }
    let attributed = submit_layers * submitted_txs
        + produce_layers * produce.calls as f64
        + apply_layers * apply.calls as f64;
    let stage_us = submit.us + produce.us + apply.us;
    if stage_us > 0.0 {
        report.layer("bench.trace.layer_coverage", attributed / stage_us);
    }
}

/// The reconciliation row: one 500-transaction block validated with a
/// warm signature cache, a cold one, and a cold one under an active obs
/// capture, on one worker thread as the committed rows were. All three
/// committed rows are called "block_validation_500tx":
///
/// * BENCH_parallel 2.1 ms never clears the signature cache, so after the
///   first repetition every check is one hash: that is the **warm** figure.
/// * BENCH_crypto 23.3 ms clears the cache before each repetition and
///   reports the best of N: the **cold** figure, at its minimum.
/// * BENCH_obs 48.7 ms is also cold with no capture active, but reports
///   the median of 201 paired repetitions recorded on a busier host;
///   its capture-active figure is the 65.5 ms it lists beside it.
///
/// So the names below are split by cache state, and the best and the
/// median of the cold figure are both printed.
fn reconcile(report: &mut Report) {
    const TXS: u64 = 500;
    const REPS: usize = 7;
    let keys = adapter::keypair(0x2ec0);
    let to = adapter::synthetic_address(0x2ec0, 0);
    let alloc = [(adapter::address(&keys), 1u128 << 80)];
    let mut producer = adapter::new_chain(&[0x2ec1], &alloc, TXS as usize, 1 << 20);
    for nonce in 0..TXS {
        let tx = adapter::sign_transfer(&keys, nonce, to, 1, 0, 0);
        adapter::submit(&mut producer, tx).expect("reconciliation block admits its transfers");
    }
    let block = adapter::produce(&mut producer);
    let verifier = adapter::new_chain(&[0x2ec1], &alloc, TXS as usize, 1 << 20);
    // Per-transaction µs of each repetition.
    let time = |cold: bool, capture: bool| -> Vec<f64> {
        (0..REPS)
            .map(|_| {
                if cold {
                    adapter::sigcache_clear();
                }
                let t = Stamp::now();
                let ok = adapter::with_one_thread(|| {
                    if capture {
                        adapter::with_obs_capture(|| adapter::validate(&verifier, &block))
                    } else {
                        adapter::validate(&verifier, &block)
                    }
                });
                let us = us_since(t);
                ok.expect("reconciliation block is valid");
                us / TXS as f64
            })
            .collect()
    };
    let cold = time(true, false);
    let warm = time(false, false);
    let capture = time(true, true);
    report.layer("chain.chain.validate_cold_us_per_tx", median(&cold));
    report.layer("chain.chain.validate_warm_us_per_tx", median(&warm));
    report.layer("chain.chain.validate_capture_us_per_tx", median(&capture));
    let block_ms = |per_tx: f64| per_tx * TXS as f64 / 1e3;
    let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    report.info(
        "reconciliation",
        format!(
            "500-tx block validation on one thread, this run: warm {:.2} ms (what BENCH_parallel's \
             2.1 ms measured); cold best {:.2} ms, median {:.2} ms (what BENCH_crypto's 23.3 ms \
             best-of-N and BENCH_obs's 48.7 ms median-of-201 both measured); cold with an obs \
             capture active {:.2} ms (BENCH_obs lists 65.5 ms for it)",
            block_ms(median(&warm)),
            block_ms(best(&cold)),
            block_ms(median(&cold)),
            block_ms(median(&capture)),
        ),
    );
}
