//! Fig. 2 steps 2–4: storage subsystems match provider data against the
//! precondition, and a provider hands its data to an attested executor.

use super::{actor, call, send, workload, MarketError, Marketplace};
use crate::authenticity::{ReadingVerifier, SignedReading};
use crate::certificate::ParticipationCertificate;
use crate::contract::Call;
use crate::workload::RewardScheme;
use pds2_chain::address::Address;
use pds2_crypto::codec::{DecodeError, Decoder};
use pds2_crypto::sha256::sha256;
use pds2_ml::data::Dataset;
use pds2_rewards::shapley::MAX_EXACT_PLAYERS;
use pds2_storage::store::{AccessGrant, ThirdPartyStore};

impl Marketplace {
    /// Step 2: storage subsystems match the precondition; returns the
    /// providers with at least one eligible record.
    pub fn eligible_providers(&self, workload_id: u64) -> Result<Vec<Address>, MarketError> {
        let precondition = &workload(&self.workloads, workload_id)?.spec.precondition;
        let mut eligible: Vec<Address> = self
            .providers
            .iter()
            .filter(|(_, account)| {
                !account
                    .store
                    .match_workload(precondition, &self.ontology)
                    .is_empty()
            })
            .map(|(addr, _)| *addr)
            .collect();
        eligible.sort();
        Ok(eligible)
    }

    /// Steps 3–4: a provider accepts a workload through a chosen executor.
    ///
    /// The provider first verifies the executor's enclave attestation,
    /// then issues access grants and a participation certificate; the
    /// executor fetches the data, verifies every reading (one signature
    /// check per signed batch, one inclusion path per reading) and
    /// registers the contribution on-chain.
    pub fn provider_accept(
        &mut self,
        provider: Address,
        workload_id: u64,
        executor: Address,
    ) -> Result<(), MarketError> {
        self.enter_workload_trace(workload_id);
        // Held to the end: the contribution is recorded where it was
        // looked up.
        let runtime = self
            .workloads
            .get_mut(&workload_id)
            .ok_or(MarketError::UnknownWorkload(workload_id))?;
        let spec = &runtime.spec;
        if !runtime.executors.contains(&executor) {
            return Err(MarketError::UnknownActor("executor (not joined)"));
        }
        // Exact Shapley values every coalition at finalize: refuse the
        // provider it could not pay before any grant or escrowed payout
        // depends on it.
        let accepted: usize = runtime.executor_data.values().map(Vec::len).sum();
        if spec.reward_scheme == RewardScheme::ShapleyExact && accepted >= MAX_EXACT_PLAYERS {
            return Err(MarketError::BadPhase(format!(
                "exact Shapley pays at most {MAX_EXACT_PLAYERS} providers"
            )));
        }
        // Provider-side attestation check (§II-E: no trust in executors).
        // A crashed executor has no quote: its enclave is gone.
        let quote = runtime
            .quotes
            .get(&executor)
            .ok_or(MarketError::Attestation("no quote from executor".into()))?;
        self.attestation
            .verify_expecting(quote, spec.code_measurement)
            .map_err(|e| MarketError::Attestation(e.to_string()))?;

        // The provider signs one grant per matching record, and a
        // certificate over the lot.
        let now = self.now;
        let executor_digest = sha256(&executor.0 .0);
        let account = actor(&self.providers, &provider, "provider")?;
        let matching = account
            .store
            .match_workload(&spec.precondition, &self.ontology);
        if matching.is_empty() {
            return Err(MarketError::BadPhase("no eligible records".into()));
        }
        let n_readings: u64 = matching
            .iter()
            .filter_map(|id| account.reading_counts.get(id))
            .sum();
        let grants: Vec<AccessGrant> = matching
            .iter()
            .map(|&id| {
                AccessGrant::issue(
                    &account.keys,
                    id,
                    workload_id,
                    executor_digest,
                    now + 10_000,
                )
            })
            .collect();
        let cert_hash = ParticipationCertificate::issue(
            &account.keys,
            workload_id,
            runtime.contract,
            matching,
            n_readings,
            executor,
            now + 10_000,
        )
        .certificate_hash();

        // Executor fetches and verifies the data.
        let feature_dim = spec.feature_dim as usize;
        let mut dataset_rows: Vec<Vec<f64>> = Vec::new();
        let mut dataset_targets: Vec<f64> = Vec::new();
        let mut out_of_bounds = 0u64;
        let mut verifier = ReadingVerifier::new(&self.manufacturers);
        for grant in &grants {
            let released = account
                .store
                .fetch_with_grant(grant, &executor_digest, now)?;
            // An outsourced store releases the sealed record. The provider
            // conveys its key to the *attested* enclave only; we already
            // verified the quote.
            let payload = match &account.sealing_key {
                None => released,
                Some(key) => ThirdPartyStore::open_wire(key, &released)?,
            };
            let readings = decode_readings(&payload)
                .map_err(|e| MarketError::Authenticity(format!("payload decode: {e}")))?;
            for reading in readings {
                if let Ok(()) = verifier.verify(&reading) {
                    if reading.features.len() != feature_dim {
                        return Err(MarketError::ShapeMismatch(format!(
                            "reading has {} features, workload expects {feature_dim}",
                            reading.features.len()
                        )));
                    }
                    // §IV-C complementary check: verify the requirement
                    // directly on the data. Costs executor compute on
                    // irrelevant readings (counted), but leaks nothing
                    // via metadata.
                    if let Some((lo, hi)) = spec.data_bounds {
                        if reading.features.iter().any(|v| *v < lo || *v > hi) {
                            out_of_bounds += 1;
                            continue;
                        }
                    }
                    dataset_targets.push(reading.target);
                    dataset_rows.push(reading.features);
                }
            }
        }
        let (accepted, rejected, signatures_checked) = (
            verifier.accepted,
            verifier.rejected,
            verifier.signatures_checked,
        );
        if dataset_rows.is_empty() {
            return Err(MarketError::Authenticity(
                "no readings survived verification".into(),
            ));
        }
        let verified_data = Dataset::new(dataset_rows, dataset_targets);

        // Executor registers the contribution on-chain with the cert hash.
        let n_verified = verified_data.len() as u64;
        let receipt = send(
            &mut self.chain,
            self.current_trace,
            &actor(&self.executors, &executor, "executor")?.keys,
            call(
                runtime.contract,
                Call::SubmitParticipation(vec![(provider, n_verified, cert_hash)]),
            ),
        )?;

        runtime
            .executor_data
            .entry(executor)
            .or_default()
            .push((provider, verified_data));
        runtime.participation_tx.insert(provider, receipt.tx_hash);
        runtime.verifier_stats.0 += accepted;
        runtime.verifier_stats.1 += rejected;
        runtime.verifier_stats.2 += out_of_bounds;
        runtime.verifier_stats.3 += signatures_checked;
        self.tick();
        pds2_obs::event!(
            "market",
            "provider.accept",
            pds2_obs::Stamp::Block(self.chain.height()),
            self.current_trace,
            "workload" => workload_id,
            "accepted" => accepted,
            "rejected" => rejected,
        );
        Ok(())
    }
}

/// Decodes a reading batch written by `provider_ingest`.
pub fn decode_readings(bytes: &[u8]) -> Result<Vec<SignedReading>, DecodeError> {
    let mut dec = Decoder::new(bytes);
    let readings: Vec<SignedReading> = dec.get_seq()?;
    dec.expect_end()?;
    Ok(readings)
}
