//! Fig. 2 step 6: the reward split (per the spec's scheme) and its payout
//! through the workload contract; then what either side can ask for once
//! it is paid, the trained model and a proof of participation.

use super::{actor, call, hash_params, send, workload, MarketError, Marketplace};
use crate::contract::Call;
use crate::workload::{RewardScheme, WorkloadSpec};
use pds2_chain::address::Address;
use pds2_ml::data::Dataset;
use pds2_ml::sgd::SgdConfig;
use pds2_rewards::shapley::{
    exact_shapley, monte_carlo_shapley, proportional, to_reward_shares, McConfig,
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
            call(runtime.contract, Call::Finalize(shares.clone())),
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
        pds2_obs::event!(
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
                RewardScheme::ShapleyMonteCarlo { permutations } => monte_carlo_shapley(
                    &mut utility,
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
    provider_data
        .iter()
        .map(|(addr, _)| *addr)
        .zip(integer_shares(&raw, total))
        .collect()
}

/// The float → integer step: each share floored, then the largest share
/// takes the difference so that the shares sum to `total` exactly. The
/// floors can fall short of the pool (fractions dropped) or overshoot it
/// (`total * w / sum` in `f64` is only good to 2^-53 of a pool that may
/// be 10^18 and more, and FINALIZE reverts on a unit too many). Either
/// way the difference is at most a few units per share, far below the
/// largest share, which is at least the mean.
fn integer_shares(raw: &[f64], total: u128) -> Vec<u128> {
    let mut shares: Vec<u128> = raw.iter().map(|v| v.floor().max(0.0) as u128).collect();
    let assigned = shares.iter().fold(0u128, |sum, v| sum.saturating_add(*v));
    if let Some(largest) = shares.iter_mut().max() {
        *largest = if assigned < total {
            *largest + (total - assigned)
        } else {
            largest.saturating_sub(assigned - total)
        };
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::integer_shares;
    use pds2_rewards::shapley::proportional;
    use proptest::prelude::*;

    /// Equal splits of one token and of a hundred at 18 decimals: with
    /// the floors alone, 27 of the provider counts 2…64 overshoot the
    /// first pool and 22 the second.
    #[test]
    fn equal_splits_of_token_sized_pools_sum_to_the_pool() {
        for pool in [10u128.pow(18), 10u128.pow(20)] {
            for n in 1..=64 {
                let shares = integer_shares(&proportional(&vec![64.0; n], pool as f64), pool);
                assert_eq!(shares.iter().sum::<u128>(), pool, "{n} providers");
            }
        }
    }

    proptest! {
        /// Pools of every magnitude up to `u128::MAX / 4`, 1…64
        /// providers, weights equal, skewed or zero.
        #[test]
        fn integer_shares_sum_to_the_pool_exactly(
            pool in (any::<u128>(), 0u32..126).prop_map(|(x, shift)| (x >> 2) >> shift),
            weights in proptest::collection::vec(
                prop_oneof![Just(0u32), Just(1u32), 1u32..1000, any::<u32>()],
                1..65,
            ),
            equal in any::<bool>(),
        ) {
            let weights: Vec<f64> = weights
                .iter()
                .map(|w| if equal { weights[0] } else { *w } as f64)
                .collect();
            let shares = integer_shares(&proportional(&weights, pool as f64), pool);
            prop_assert_eq!(shares.len(), weights.len());
            let paid = shares.iter().try_fold(0u128, |sum, v| sum.checked_add(*v));
            prop_assert_eq!(paid, Some(pool));
        }
    }
}
