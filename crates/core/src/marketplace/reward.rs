//! Fig. 2 step 6: the reward split (per the spec's scheme) and its payout
//! through the workload contract; then what either side can ask for once
//! it is paid, the trained model and a proof of participation.

use super::{actor, call, hash_params, send, workload, MarketError, Marketplace};
use crate::contract::calls;
use crate::workload::{RewardScheme, WorkloadSpec};
use pds2_chain::address::Address;
use pds2_ml::data::Dataset;
use pds2_ml::sgd::SgdConfig;
use pds2_rewards::shapley::{
    exact_shapley, monte_carlo_shapley_par, proportional, to_reward_shares, McConfig,
};
use pds2_rewards::utility::MlUtility;

/// Outcome of finalization.
#[derive(Clone, Debug)]
pub struct FinalizeReport {
    /// Reward paid per provider.
    pub provider_shares: Vec<(Address, u128)>,
    /// Executors that received fees.
    pub paid_executors: Vec<Address>,
    /// Executors slashed for disagreement.
    pub slashed: Vec<Address>,
}

impl Marketplace {
    /// Step 6: reward computation (per the spec's scheme) and on-chain
    /// payout through the workload contract.
    pub fn finalize(&mut self, workload_id: u64) -> Result<FinalizeReport, MarketError> {
        self.enter_workload_trace(workload_id);
        let runtime = workload(&self.workloads, workload_id)?;
        let mut provider_data: Vec<(Address, &Dataset)> = runtime
            .executor_data
            .values()
            .flatten()
            .map(|(provider, data)| (*provider, data))
            .collect();
        provider_data.sort_by_key(|(a, _)| *a);
        let shares = compute_shares(&runtime.spec, &provider_data, workload_id);
        send(
            &mut self.chain,
            self.current_trace,
            &actor(&self.consumers, &runtime.consumer, "consumer")?.keys,
            call(runtime.contract, calls::finalize(&shares)),
        )?;
        let state = self.workload_state(workload_id)?;
        // Fees go only to executors whose submitted result matches the
        // agreed one; abstainers and slashed executors earn nothing.
        let paid_executors: Vec<Address> = state
            .executors
            .iter()
            .filter(|(_, r)| **r == state.result)
            .map(|(e, _)| *e)
            .collect();
        self.tick();
        pds2_obs::trace_event!(
            "market",
            "workload.payout",
            pds2_obs::Stamp::Block(self.chain.height()),
            self.current_trace,
            "workload" => workload_id,
            "providers_paid" => shares.len(),
            "executors_paid" => paid_executors.len(),
        );
        Ok(FinalizeReport {
            provider_shares: shares,
            paid_executors,
            slashed: state.slashed,
        })
    }

    /// The consumer retrieves the trained model parameters.
    pub fn consumer_retrieve_result(&self, workload_id: u64) -> Result<Vec<f64>, MarketError> {
        let runtime = workload(&self.workloads, workload_id)?;
        let state = self.workload_state(workload_id)?;
        let params = runtime
            .result_params
            .clone()
            .ok_or_else(|| MarketError::BadPhase("no result yet".into()))?;
        // Integrity: the off-chain parameters must hash to the on-chain
        // agreed result.
        match state.result {
            Some(onchain) if onchain == hash_params(&params) => Ok(params),
            Some(_) => Err(MarketError::ChainFailure(
                "result does not match on-chain hash".into(),
            )),
            None => Err(MarketError::BadPhase("not finalized".into())),
        }
    }

    /// Produces a light-client proof that a provider's participation in a
    /// workload is recorded on-chain: the participation transaction's
    /// Merkle inclusion proof plus the signed header it verifies against.
    /// Providers use this in §IV-A reward disputes without trusting the
    /// marketplace operator.
    pub fn prove_participation(
        &self,
        workload_id: u64,
        provider: Address,
    ) -> Result<
        (
            pds2_chain::chain::InclusionProof,
            pds2_chain::block::BlockHeader,
        ),
        MarketError,
    > {
        let tx_hash = workload(&self.workloads, workload_id)?
            .participation_tx
            .get(&provider)
            .ok_or(MarketError::UnknownActor("provider (no participation)"))?;
        let proof = self
            .chain
            .prove_inclusion(tx_hash)
            .ok_or_else(|| MarketError::ChainFailure("participation tx not on-chain".into()))?;
        let header = self
            .chain
            .block(proof.block_height)
            .expect("proof references an existing block")
            .header
            .clone();
        Ok((proof, header))
    }
}

/// Computes reward shares per the spec's scheme. Deterministic: MC Shapley
/// seeds from the workload id.
fn compute_shares(
    spec: &WorkloadSpec,
    provider_data: &[(Address, &Dataset)],
    workload_id: u64,
) -> Vec<(Address, u128)> {
    if provider_data.is_empty() {
        return Vec::new();
    }
    let total = spec.provider_reward;
    let raw: Vec<f64> = match spec.reward_scheme {
        RewardScheme::ProportionalToRecords => {
            let weights: Vec<f64> = provider_data.iter().map(|(_, d)| d.len() as f64).collect();
            proportional(&weights, total as f64)
        }
        RewardScheme::ShapleyExact | RewardScheme::ShapleyMonteCarlo { .. } => {
            // The utility owns its shards: the one copy of provider data
            // finalization makes.
            let shards: Vec<Dataset> = provider_data.iter().map(|(_, d)| (*d).clone()).collect();
            let mut utility = MlUtility::new(
                shards,
                spec.validation.clone(),
                SgdConfig {
                    epochs: (spec.local_epochs as usize).max(1),
                    seed: workload_id,
                    ..Default::default()
                },
            );
            let phi = match spec.reward_scheme {
                RewardScheme::ShapleyExact => exact_shapley(&mut utility),
                // Parallel estimator: bit-identical to the serial one for
                // any PDS2_THREADS, so reward splits stay reproducible.
                RewardScheme::ShapleyMonteCarlo { permutations } => monte_carlo_shapley_par(
                    &utility,
                    &McConfig {
                        permutations: permutations as usize,
                        truncation_tolerance: 1e-3,
                        seed: workload_id,
                    },
                ),
                RewardScheme::ProportionalToRecords => unreachable!(),
            };
            to_reward_shares(&phi, total as f64)
        }
    };
    // Integer conversion with remainder to the largest share.
    let mut shares: Vec<(Address, u128)> = provider_data
        .iter()
        .zip(&raw)
        .map(|((addr, _), v)| (*addr, v.floor().max(0.0) as u128))
        .collect();
    let assigned: u128 = shares.iter().map(|(_, v)| v).sum();
    if assigned < total {
        if let Some(max_entry) = shares.iter_mut().max_by_key(|(_, v)| *v) {
            max_entry.1 += total - assigned;
        }
    }
    shares
}
