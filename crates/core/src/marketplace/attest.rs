//! Executors and their enclaves: joining a workload under attestation,
//! and the crash / recover / relaunch cycle the chaos harness drives. A
//! quote stands for a live enclave: it is recorded when the enclave is
//! launched and dropped when the executor crashes.

use super::{actor_mut, call, send, workload, MarketError, Marketplace};
use crate::contract::Call;
use pds2_chain::address::Address;
use pds2_crypto::sha256::sha256;
use pds2_tee::attestation::Quote;

impl Marketplace {
    /// An executor joins a workload: launches the enclave, produces an
    /// attestation quote (verified against the approved measurement) and
    /// registers on-chain.
    pub fn executor_join(
        &mut self,
        executor: Address,
        workload_id: u64,
    ) -> Result<(), MarketError> {
        self.enter_workload_trace(workload_id);
        let quote = self.launch_attested(executor, workload_id)?;
        let runtime = self
            .workloads
            .get_mut(&workload_id)
            .expect("an enclave was launched for it");
        send(
            &mut self.chain,
            self.current_trace,
            &self.executors[&executor].keys,
            call(runtime.contract, Call::RegisterExecutor),
        )?;
        runtime.executors.push(executor);
        runtime.quotes.insert(executor, quote);
        self.tick();
        pds2_obs::event!(
            "market",
            "executor.join",
            pds2_obs::Stamp::Block(self.chain.height()),
            self.current_trace,
            "workload" => workload_id,
        );
        Ok(())
    }

    /// Launches the workload's code in an enclave on the executor's
    /// platform, attests it over `sha256(executor)` and checks the quote
    /// against the measurement the spec approves. The enclave is then the
    /// executor's for this workload; where the quote goes is the caller's
    /// decision.
    fn launch_attested(
        &mut self,
        executor: Address,
        workload_id: u64,
    ) -> Result<Quote, MarketError> {
        let runtime = workload(&self.workloads, workload_id)?;
        let account = actor_mut(&mut self.executors, &executor, "executor")?;
        let mut enclave = account.platform.launch(&runtime.code);
        let quote = enclave.attest(sha256(&executor.0 .0));
        self.attestation
            .verify_expecting(&quote, runtime.spec.code_measurement)
            .map_err(|e| MarketError::Attestation(e.to_string()))?;
        account.enclaves.insert(workload_id, enclave);
        Ok(quote)
    }

    /// Simulates a crash-stop failure of an executor: all volatile enclave
    /// state is lost, the quotes that vouched for it with it, and the
    /// executor is skipped by [`Marketplace::execute`] and refused by
    /// [`Marketplace::provider_accept`] until it recovers.
    /// `recover_at_height` optionally schedules an automatic recovery once
    /// the governance chain reaches that height (the hook
    /// [`Marketplace::execute_with_retry`] backoff relies on).
    pub fn executor_crash(
        &mut self,
        executor: Address,
        recover_at_height: Option<u64>,
    ) -> Result<(), MarketError> {
        let account = actor_mut(&mut self.executors, &executor, "executor")?;
        account.crashed = true;
        account.recover_at_height = recover_at_height;
        account.enclaves.clear();
        for runtime in self.workloads.values_mut() {
            runtime.quotes.remove(&executor);
        }
        Ok(())
    }

    /// Recovers a crashed executor: clears the crash flag and relaunches
    /// (and re-attests) an enclave for every workload the executor had
    /// joined — the original enclaves died with the crash.
    pub fn executor_recover(&mut self, executor: Address) -> Result<(), MarketError> {
        let account = actor_mut(&mut self.executors, &executor, "executor")?;
        account.crashed = false;
        account.recover_at_height = None;
        let mut joined: Vec<u64> = self
            .workloads
            .iter()
            .filter(|(_, rt)| rt.executors.contains(&executor))
            .map(|(id, _)| *id)
            .collect();
        joined.sort_unstable();
        for workload_id in joined {
            self.executor_relaunch(executor, workload_id)?;
        }
        Ok(())
    }

    /// Relaunches and re-attests the enclave for one workload, refreshing
    /// the quote providers verify against. The executor stays registered
    /// on-chain; only the off-chain enclave is replaced.
    pub fn executor_relaunch(
        &mut self,
        executor: Address,
        workload_id: u64,
    ) -> Result<(), MarketError> {
        let quote = self.launch_attested(executor, workload_id)?;
        self.workloads
            .get_mut(&workload_id)
            .expect("an enclave was launched for it")
            .quotes
            .insert(executor, quote);
        Ok(())
    }

    /// Wakes up crashed executors whose scheduled recovery height has
    /// been reached by the governance chain.
    pub(super) fn recover_due_executors(&mut self) -> Result<(), MarketError> {
        let height = self.chain.height();
        let mut due: Vec<Address> = self
            .executors
            .iter()
            .filter(|(_, a)| a.crashed && a.recover_at_height.is_some_and(|h| height >= h))
            .map(|(addr, _)| *addr)
            .collect();
        due.sort();
        for executor in due {
            self.executor_recover(executor)?;
        }
        Ok(())
    }
}
