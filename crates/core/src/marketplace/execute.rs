//! Fig. 2 step 5: the governance layer starts execution, executors train
//! inside their enclaves and aggregate, and the agreed result hash goes
//! on-chain. With the retry discipline that waits for crashed executors.

use super::{actor, call, send, send_raw, workload, MarketError, Marketplace};
use crate::contract::{Call, Phase, WorkloadState};
use crate::workload::{TaskKind, WorkloadSpec};
use pds2_chain::address::Address;
use pds2_chain::state::TxReceipt;
use pds2_crypto::codec::Encoder;
use pds2_crypto::sha256::{sha256, Digest};
use pds2_learning::dp;
use pds2_ml::data::Dataset;
use pds2_ml::linalg::weighted_mean;
use pds2_ml::metrics::classifier_accuracy;
use pds2_ml::model::{LinearRegression, LogisticRegression, Model};
use pds2_ml::sgd::{draw_batch, train, SgdConfig};
use pds2_tee::cost::CostMeter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Outcome of the execution phase.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// Hash submitted on-chain by every honest executor.
    pub result_hash: Digest,
    /// Validation accuracy (classification) or negative MSE (regression)
    /// of the aggregated model on the consumer's validation set.
    pub validation_score: f64,
    /// Per-executor simulated enclave cost.
    pub enclave_costs: HashMap<Address, CostMeter>,
    /// Readings accepted / rejected across executors (§IV-B pipeline).
    pub readings_accepted: u64,
    /// Readings rejected.
    pub readings_rejected: u64,
    /// Readings discarded by §IV-C executor-side data verification
    /// (authentic but outside the workload's declared value bounds).
    pub readings_out_of_bounds: u64,
    /// Device signatures the executors checked for those readings: one per
    /// signed batch, however many readings it holds.
    pub signatures_checked: u64,
}

/// Retry discipline for [`Marketplace::execute_with_retry`]: how often to
/// re-attempt a failed execution and how long to back off between
/// attempts (backoff is expressed in mined governance blocks and doubles
/// after every failure, so crashed executors with a scheduled recovery
/// height come back within a bounded number of attempts).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum execution attempts (≥ 1).
    pub max_attempts: u32,
    /// Empty blocks mined after the first failure; doubles per attempt.
    pub backoff_blocks: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_blocks: 2,
        }
    }
}

impl Marketplace {
    /// Step 5 precursor: asks the governance layer to start execution.
    /// Returns `true` when the contract's quorum conditions were met.
    pub fn try_start(&mut self, workload_id: u64) -> Result<bool, MarketError> {
        self.enter_workload_trace(workload_id);
        let runtime = workload(&self.workloads, workload_id)?;
        let receipt = send_raw(
            &mut self.chain,
            self.current_trace,
            &actor(&self.consumers, &runtime.consumer, "consumer")?.keys,
            call(runtime.contract, Call::Start),
        );
        self.tick();
        Ok(receipt.success)
    }

    /// Step 5: executors train inside enclaves and aggregate peer-to-peer;
    /// every honest executor submits the agreed result hash on-chain.
    pub fn execute(&mut self, workload_id: u64) -> Result<ExecutionReport, MarketError> {
        self.enter_workload_trace(workload_id);
        let span = pds2_obs::span(
            "market",
            "execute",
            pds2_obs::Stamp::Block(self.chain.height()),
            self.current_trace,
            Vec::new(),
        );
        // Chain traffic during the attempt nests under the execute span.
        let outer = self.current_trace;
        if span.id() != 0 {
            self.current_trace = span.ctx();
        }
        let res = self.execute_attempt(workload_id);
        self.current_trace = outer;
        match &res {
            Ok(_) => pds2_obs::counter!("market.executions").inc(),
            Err(_) => pds2_obs::counter!("market.execution_failures").inc(),
        }
        if pds2_obs::enabled() {
            let mut fields = vec![
                ("workload", pds2_obs::Value::from(workload_id)),
                ("ok", pds2_obs::Value::from(res.is_ok() as u64)),
            ];
            if let Ok(report) = &res {
                let score = pds2_obs::Value::from(report.validation_score);
                fields.push(("validation_score", score));
            }
            span.finish(pds2_obs::Stamp::Block(self.chain.height()), fields);
        }
        res
    }

    /// [`Marketplace::workload_state`] of a workload that has to be
    /// Executing for the caller to go on: an execution attempt, or the
    /// abort that gives up on one.
    pub(super) fn executing_state(&self, workload_id: u64) -> Result<WorkloadState, MarketError> {
        let state = self.workload_state(workload_id)?;
        if state.phase != Phase::Executing {
            return Err(MarketError::BadPhase(format!(
                "expected Executing, contract is {:?}",
                state.phase
            )));
        }
        Ok(state)
    }

    /// [`Marketplace::execute`] minus the observability wrapper.
    fn execute_attempt(&mut self, workload_id: u64) -> Result<ExecutionReport, MarketError> {
        self.executing_state(workload_id)?;
        // Crash-recovery: executors whose scheduled recovery height has
        // passed come back (with freshly attested enclaves) before the
        // live set is computed.
        self.recover_due_executors()?;
        let runtime = workload(&self.workloads, workload_id)?;
        let spec = &runtime.spec;
        let executors_with_data: Vec<Address> = runtime
            .executors
            .iter()
            .copied()
            .filter(|e| {
                runtime.executor_data.contains_key(e)
                    && self.executors.get(e).is_some_and(|a| !a.crashed)
            })
            .collect();
        if executors_with_data.is_empty() {
            return Err(MarketError::BadPhase("no live executor holds data".into()));
        }

        // Local training inside each executor's enclave.
        let mut local_params: Vec<Vec<f64>> = Vec::new();
        let mut local_weights: Vec<f64> = Vec::new();
        let mut enclave_costs = HashMap::new();
        for &executor in &executors_with_data {
            let parts: Vec<Dataset> = runtime.executor_data[&executor]
                .iter()
                .map(|(_, d)| d.clone())
                .collect();
            let pooled = Dataset::concat(&parts);
            let n = pooled.len() as u64;
            let enclave = self
                .executors
                .get_mut(&executor)
                .ok_or(MarketError::UnknownActor("executor"))?
                .enclaves
                .get_mut(&workload_id)
                .ok_or(MarketError::Attestation("enclave not launched".into()))?;
            // Cost model: ~200ns per sample-epoch of plain compute over
            // the pooled working set.
            let compute_ns = 200 * n * spec.local_epochs as u64;
            let working_set = n * (spec.feature_dim as u64 + 1) * 8;
            let params = enclave.execute(compute_ns, working_set, || {
                train_local(spec, &pooled, workload_id)
            });
            enclave_costs.insert(executor, enclave.meter());
            local_params.push(params);
            local_weights.push(n as f64);
        }

        // Decentralized aggregation: iterative peer averaging converging to
        // the record-weighted mean (identical on every executor, so all
        // honest executors submit the same hash), taken here in one step:
        // nothing reads `aggregation_rounds`, not even a cost model.
        let aggregated = weighted_mean(&local_params, &local_weights);
        let result_hash = hash_params(&aggregated);

        // Validation score on the consumer's public validation set.
        let validation_score = score_params(spec, &aggregated);

        // Every executor submits the result on-chain.
        for executor in &executors_with_data {
            send(
                &mut self.chain,
                self.current_trace,
                &self.executors[executor].keys,
                call(runtime.contract, Call::SubmitResult(result_hash)),
            )?;
        }

        let (readings_accepted, readings_rejected, readings_out_of_bounds, signatures_checked) =
            runtime.verifier_stats;
        // `workload` found it at the top, and nothing since removes one.
        self.workloads
            .get_mut(&workload_id)
            .expect("looked up above")
            .result_params = Some(aggregated);
        self.tick();
        Ok(ExecutionReport {
            result_hash,
            validation_score,
            enclave_costs,
            readings_accepted,
            readings_rejected,
            readings_out_of_bounds,
            signatures_checked,
        })
    }

    /// Runs [`Marketplace::execute`] under a retry discipline: after each
    /// failed attempt the marketplace mines empty governance blocks
    /// (doubling the backoff, and waking any executor whose scheduled
    /// recovery height passes) and tries again. Returns the report plus
    /// the number of attempts used; the last error if all attempts fail.
    pub fn execute_with_retry(
        &mut self,
        workload_id: u64,
        policy: RetryPolicy,
    ) -> Result<(ExecutionReport, u32), MarketError> {
        self.enter_workload_trace(workload_id);
        let max_attempts = policy.max_attempts.max(1);
        let mut backoff = policy.backoff_blocks.max(1);
        let mut attempt = 1u32;
        loop {
            match self.execute(workload_id) {
                Ok(report) => return Ok((report, attempt)),
                Err(e) if attempt >= max_attempts => return Err(e),
                Err(_) => {
                    pds2_obs::counter!("market.retries").inc();
                    pds2_obs::event!(
                        "market",
                        "execute.retry",
                        pds2_obs::Stamp::Block(self.chain.height()),
                        self.current_trace,
                        "workload" => workload_id,
                        "attempt" => attempt as u64,
                        "backoff_blocks" => backoff,
                    );
                    self.mine_empty_blocks(backoff);
                    backoff *= 2;
                    attempt += 1;
                }
            }
        }
    }

    /// An adversarial executor submits a forged result hash (E12 hook).
    pub fn executor_submit_forged_result(
        &mut self,
        executor: Address,
        workload_id: u64,
        forged: Digest,
    ) -> Result<TxReceipt, MarketError> {
        self.enter_workload_trace(workload_id);
        let contract = workload(&self.workloads, workload_id)?.contract;
        Ok(send_raw(
            &mut self.chain,
            self.current_trace,
            &actor(&self.executors, &executor, "executor")?.keys,
            call(contract, Call::SubmitResult(forged)),
        ))
    }
}

/// Deterministic local training for one executor.
fn train_local(spec: &WorkloadSpec, data: &Dataset, workload_id: u64) -> Vec<f64> {
    let cfg = SgdConfig {
        learning_rate: 0.1,
        lr_decay: 0.98,
        batch_size: 16,
        epochs: spec.local_epochs as usize,
        clip: None,
        seed: workload_id,
    };
    match spec.task {
        TaskKind::BinaryClassification => {
            let mut m = LogisticRegression::new(spec.feature_dim as usize);
            match spec.dp_noise_multiplier {
                None => {
                    train(&mut m, data, &cfg);
                }
                // Like `train`, nothing to learn from an empty set.
                Some(_) if data.is_empty() => {}
                Some(multiplier) => {
                    // DP-SGD: one clipped, noised step per epoch on a drawn
                    // batch, seeded from the workload id so every executor
                    // converges to the same aggregate and the run replays.
                    let clip = 1.0;
                    let mut rng = StdRng::seed_from_u64(workload_id ^ 0xd9);
                    let mut lr = cfg.learning_rate;
                    for _ in 0..cfg.epochs {
                        let batch = draw_batch(&mut rng, data.len(), cfg.batch_size);
                        let sigma = multiplier * clip / batch.len() as f64;
                        dp::sgd_step(&mut m, data, &batch, lr, clip, sigma, &mut rng);
                        lr *= cfg.lr_decay;
                    }
                }
            }
            m.params()
        }
        TaskKind::Regression => {
            // Closed-form ridge: deterministic and robust to raw sensor
            // scales (naive SGD on unscaled temperature units diverges).
            let m = pds2_ml::solve::ridge_fit(data, 1e-6);
            m.params()
        }
    }
}

/// Scores aggregated parameters on the validation set.
fn score_params(spec: &WorkloadSpec, params: &[f64]) -> f64 {
    match spec.task {
        TaskKind::BinaryClassification => {
            let mut m = LogisticRegression::new(spec.feature_dim as usize);
            m.set_params(params);
            classifier_accuracy(&m, &spec.validation)
        }
        TaskKind::Regression => {
            let mut m = LinearRegression::new(spec.feature_dim as usize);
            m.set_params(params);
            let preds: Vec<f64> = spec.validation.x.iter().map(|x| m.predict(x)).collect();
            -pds2_ml::metrics::mse(&preds, &spec.validation.y)
        }
    }
}

/// Canonical hash of model parameters (the on-chain result commitment).
pub fn hash_params(params: &[f64]) -> Digest {
    let mut enc = Encoder::new();
    enc.put_seq(params);
    sha256(&enc.finish())
}
