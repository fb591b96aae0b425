//! Fig. 2 step 1: the consumer submits a workload. The workload-code NFT,
//! the contract and its escrow go on-chain, and the marketplace starts
//! tracking the off-chain half.

use super::{actor, send, MarketError, Marketplace, WorkloadRuntime};
use crate::contract::{Call, Init, WORKLOAD_CODE_ID};
use crate::workload::WorkloadSpec;
use pds2_chain::address::Address;
use pds2_chain::erc20::Erc20Op;
use pds2_chain::erc721::{AssetKind, Erc721Op};
use pds2_chain::tx::TxKind;
use pds2_crypto::codec::Encode;
use pds2_crypto::sha256::sha256;
use pds2_tee::measurement::EnclaveCode;
use std::collections::HashMap;
use std::num::NonZeroU32;

/// The execution timeout [`Marketplace::submit_workload`] arms. It is far
/// longer than any Executing span the marketplace drives: START, one
/// SUBMIT_RESULT per executor, and [`super::RetryPolicy::default`]'s
/// backoff of 2 + 4 empty blocks.
pub const DEFAULT_EXEC_TIMEOUT_BLOCKS: NonZeroU32 = NonZeroU32::new(64).expect("64 is not zero");

impl Marketplace {
    /// Step 1: the consumer submits a workload. Deploys the contract with
    /// [`DEFAULT_EXEC_TIMEOUT_BLOCKS`], funds the escrow for up to
    /// `max_executors` executors and mints the workload-code NFT.
    pub fn submit_workload(
        &mut self,
        consumer: Address,
        spec: WorkloadSpec,
        code: EnclaveCode,
        max_executors: u32,
    ) -> Result<u64, MarketError> {
        self.submit_workload_with_timeout(
            consumer,
            spec,
            code,
            max_executors,
            DEFAULT_EXEC_TIMEOUT_BLOCKS,
        )
    }

    /// Like [`Marketplace::submit_workload`], with the contract's execution
    /// timeout chosen: once Executing, anyone may abort the workload after
    /// `exec_timeout_blocks` governance blocks and refund the consumer —
    /// the way out when every executor holding data crashes mid-workload.
    pub fn submit_workload_with_timeout(
        &mut self,
        consumer: Address,
        spec: WorkloadSpec,
        code: EnclaveCode,
        max_executors: u32,
        exec_timeout_blocks: NonZeroU32,
    ) -> Result<u64, MarketError> {
        if code.measurement() != spec.code_measurement {
            return Err(MarketError::Attestation(
                "spec measurement does not match supplied code".into(),
            ));
        }
        let escrow = spec
            .required_escrow(max_executors)
            .ok_or(MarketError::EscrowOverflow)?;
        let keys = &actor(&self.consumers, &consumer, "consumer")?.keys;
        // A workload entering the system is the root of a new trace: every
        // later phase (join, accept, start, execute, payout) re-enters this
        // context, and the chain/net layers inherit it for the workload's
        // transactions and gossip.
        let root = pds2_obs::new_trace(
            "market",
            "workload.submit",
            pds2_obs::Stamp::Block(self.chain.height()),
            vec![
                ("max_executors", pds2_obs::Value::from(max_executors as u64)),
                (
                    "timeout_blocks",
                    pds2_obs::Value::from(exec_timeout_blocks.get()),
                ),
            ],
        );
        let trace = root.ctx();
        self.current_trace = trace;
        // Mint the workload-code NFT (§III-A: code as a non-fungible asset).
        send(
            &mut self.chain,
            trace,
            keys,
            TxKind::Erc721(Erc721Op::Mint {
                kind: AssetKind::WorkloadCode,
                content: sha256(&code.code),
                label: code.name.clone(),
            }),
        )?;
        // Deploy the workload contract.
        let init = Init {
            spec_hash: spec.spec_hash(),
            code_measurement: spec.code_measurement.0,
            provider_reward: spec.provider_reward,
            executor_fee: spec.executor_fee,
            min_providers: spec.min_providers,
            min_records: spec.min_records,
            // Marketplace workloads carry no on-chain deadline by default.
            deadline_height: 0,
            exec_timeout_blocks,
            reward_token: spec.reward_token,
        };
        let deploy = TxKind::Deploy {
            code_id: WORKLOAD_CODE_ID.into(),
            init: init.to_bytes(),
        };
        let contract = send(&mut self.chain, trace, keys, deploy)?
            .deployed
            .expect("deploy receipt carries address");
        // Fund the escrow. Native currency rides on the FUND call; an
        // ERC-20 escrow is transferred first and FUND, carrying no value,
        // acknowledges the balance (§III-A token rewards).
        if let Some(token) = spec.reward_token {
            let transfer = Erc20Op::Transfer {
                token,
                to: contract,
                amount: escrow,
            };
            send(&mut self.chain, trace, keys, TxKind::Erc20(transfer))?;
        }
        let fund = TxKind::Call {
            contract,
            input: Call::Fund.to_bytes(),
            value: if spec.reward_token.is_some() {
                0
            } else {
                escrow
            },
        };
        send(&mut self.chain, trace, keys, fund)?;
        let id = self.next_workload_id;
        self.next_workload_id += 1;
        self.workloads.insert(
            id,
            WorkloadRuntime {
                spec,
                code,
                contract,
                consumer,
                executors: Vec::new(),
                quotes: HashMap::new(),
                executor_data: HashMap::new(),
                participation_tx: HashMap::new(),
                result_params: None,
                verifier_stats: (0, 0, 0, 0),
                trace,
            },
        );
        self.tick();
        root.finish(
            pds2_obs::Stamp::Block(self.chain.height()),
            vec![("workload", pds2_obs::Value::from(id))],
        );
        Ok(id)
    }
}
