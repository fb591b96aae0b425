use super::*;
use crate::contract::Phase;
use crate::workload::tests_support::sample_spec_with;
use crate::workload::RewardScheme;
use pds2_crypto::sha256::sha256;
use pds2_ml::data::gaussian_blobs;
use pds2_storage::semantic::{MetaValue, Metadata};
use std::num::NonZeroU32;

fn temperature_metadata() -> Metadata {
    Metadata::new()
        .with(
            "type",
            MetaValue::Class("sensor/environment/temperature".into()),
            0,
        )
        .with("sample-rate-hz", MetaValue::Num(1.0), 1)
}

struct World {
    market: Marketplace,
    consumer: Address,
    providers: Vec<Address>,
    executors: Vec<Address>,
    workload: u64,
    full_data: Dataset,
}

fn build_world(n_providers: usize, n_executors: usize, scheme: RewardScheme) -> World {
    let timeout = DEFAULT_EXEC_TIMEOUT_BLOCKS.get();
    build_world_with_timeout(n_providers, n_executors, scheme, timeout)
}

fn build_world_with_timeout(
    n_providers: usize,
    n_executors: usize,
    scheme: RewardScheme,
    exec_timeout_blocks: u32,
) -> World {
    let mut market = Marketplace::new(42);
    let consumer = market.register_consumer(1, 1_000_000);
    let data = gaussian_blobs(60 * n_providers, 3, 0.7, 7);
    let (train, validation) = data.split(0.2, 8);
    let shards = train.partition_iid(n_providers, 9);
    let mut providers = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        let storage = if i % 2 == 0 {
            StorageChoice::Local
        } else {
            StorageChoice::ThirdParty { publish_level: 1 }
        };
        let p = market.register_provider(1000 + i as u64, storage);
        market.provider_add_device(p).unwrap();
        market
            .provider_ingest(p, 0, shard, temperature_metadata())
            .unwrap();
        providers.push(p);
    }
    let executors: Vec<Address> = (0..n_executors)
        .map(|i| market.register_executor(2000 + i as u64))
        .collect();

    let code = EnclaveCode::new("logistic-trainer", 1, b"trainer-binary-v1".to_vec());
    let spec = sample_spec_with(code.measurement(), validation, scheme, n_providers as u32);
    let workload = market
        .submit_workload_with_timeout(
            consumer,
            spec,
            code,
            n_executors as u32,
            NonZeroU32::new(exec_timeout_blocks).unwrap(),
        )
        .unwrap();
    for &e in &executors {
        market.executor_join(e, workload).unwrap();
    }
    World {
        market,
        consumer,
        providers,
        executors,
        workload,
        full_data: train,
    }
}

/// The escrow formula is checked before anything reaches the chain: a
/// spec whose fees overflow it used to panic (debug) or wrap (release)
/// after the code NFT was minted and the contract deployed.
#[test]
fn a_spec_whose_escrow_overflows_is_refused_before_any_transaction() {
    let mut market = Marketplace::new(42);
    let consumer = market.register_consumer(1, 1_000_000);
    let code = EnclaveCode::new("logistic-trainer", 1, b"trainer-binary-v1".to_vec());
    let validation = gaussian_blobs(20, 3, 0.7, 7);
    let mut spec = sample_spec_with(
        code.measurement(),
        validation,
        RewardScheme::ProportionalToRecords,
        1,
    );
    spec.executor_fee = u128::MAX / 2;
    assert!(spec.required_escrow(1).is_some());
    assert_eq!(spec.required_escrow(3), None);
    let height = market.chain.height();
    let err = market.submit_workload(consumer, spec, code, 3).unwrap_err();
    assert!(matches!(err, MarketError::EscrowOverflow), "{err}");
    assert_eq!(market.chain.height(), height, "nothing was mined");
    assert!(market.chain.events_by_topic("erc721.mint").is_empty());
}

#[test]
fn full_lifecycle_proportional() {
    let mut w = build_world(4, 2, RewardScheme::ProportionalToRecords);
    let assignments: Vec<(Address, Address)> = w
        .providers
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, w.executors[i % 2]))
        .collect();
    let (exec, fin) = w
        .market
        .run_full_lifecycle(w.workload, &assignments)
        .unwrap();
    assert!(
        exec.validation_score > 0.85,
        "score {}",
        exec.validation_score
    );
    assert_eq!(exec.readings_rejected, 0);
    assert!(exec.readings_accepted as usize >= w.full_data.len());
    assert!(fin.slashed.is_empty());
    assert_eq!(fin.paid_executors.len(), 2);
    // All provider rewards disbursed.
    let total: u128 = fin.provider_shares.iter().map(|(_, v)| v).sum();
    let st = w.market.workload_state(w.workload).unwrap();
    assert_eq!(total, st.init.provider_reward);
    // Providers actually hold their balances on-chain.
    for (p, v) in &fin.provider_shares {
        assert_eq!(w.market.chain.state.balance(p), *v);
    }
    // Consumer can retrieve the verified model.
    let params = w.market.consumer_retrieve_result(w.workload).unwrap();
    assert_eq!(params.len(), 4);
    // Full audit trail on-chain.
    assert!(!w
        .market
        .chain
        .events_by_topic("workload.completed")
        .is_empty());
    assert!(!w.market.chain.events_by_topic("erc721.mint").is_empty());
}

/// The benchmark's lifecycle shape. Each provider's record is one signed
/// batch, so the executors pay one signature check per provider and a path
/// per reading; a record that came back as 32 batches of one would cost 512.
#[test]
fn sixteen_providers_of_32_readings_cost_sixteen_signature_checks() {
    let mut market = Marketplace::new(42);
    let consumer = market.register_consumer(1, 1_000_000);
    let providers: Vec<Address> = (0..16)
        .map(|i| {
            let storage = if i % 2 == 0 {
                StorageChoice::Local
            } else {
                StorageChoice::ThirdParty { publish_level: 1 }
            };
            let p = market.register_provider(1000 + i, storage);
            market.provider_add_device(p).unwrap();
            let shard = gaussian_blobs(32, 3, 0.7, 100 + i);
            market
                .provider_ingest(p, 0, &shard, temperature_metadata())
                .unwrap();
            p
        })
        .collect();
    let executors = [
        market.register_executor(2000),
        market.register_executor(2001),
    ];
    let code = EnclaveCode::new("logistic-trainer", 1, b"trainer-binary-v1".to_vec());
    let spec = sample_spec_with(
        code.measurement(),
        gaussian_blobs(40, 3, 0.7, 7),
        RewardScheme::ProportionalToRecords,
        16,
    );
    let workload = market.submit_workload(consumer, spec, code, 2).unwrap();
    for e in executors {
        market.executor_join(e, workload).unwrap();
    }
    let assignments: Vec<(Address, Address)> = providers
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, executors[i % 2]))
        .collect();
    let (exec, _) = market.run_full_lifecycle(workload, &assignments).unwrap();
    assert_eq!(exec.readings_accepted, 16 * 32);
    assert_eq!(exec.readings_rejected, 0);
    assert_eq!(exec.signatures_checked, 16);
}

#[test]
fn full_lifecycle_shapley() {
    let mut w = build_world(3, 1, RewardScheme::ShapleyExact);
    let assignments: Vec<(Address, Address)> =
        w.providers.iter().map(|&p| (p, w.executors[0])).collect();
    let (_, fin) = w
        .market
        .run_full_lifecycle(w.workload, &assignments)
        .unwrap();
    assert_eq!(fin.provider_shares.len(), 3);
    let total: u128 = fin.provider_shares.iter().map(|(_, v)| v).sum();
    assert_eq!(total, 10_000);
}

/// Exact Shapley panics above its bound, so the 21st provider of an
/// exact-Shapley workload used to be accepted and then panic `finalize`
/// with the escrow funded and the data handed over. It is refused at
/// accept instead, before a grant or a participation transaction.
#[test]
fn exact_shapley_refuses_the_provider_past_its_bound() {
    let mut w = build_world(21, 1, RewardScheme::ShapleyExact);
    let (last, first) = w.providers.split_last().unwrap();
    for &p in first {
        w.market
            .provider_accept(p, w.workload, w.executors[0])
            .unwrap();
    }
    let height = w.market.chain.height();
    let err = w
        .market
        .provider_accept(*last, w.workload, w.executors[0])
        .unwrap_err();
    assert!(err.to_string().contains("at most 20 providers"), "{err}");
    assert_eq!(w.market.chain.height(), height, "nothing was mined");
    assert!(w.market.prove_participation(w.workload, *last).is_err());
}

#[test]
fn eligible_providers_respect_precondition() {
    let mut w = build_world(2, 1, RewardScheme::ProportionalToRecords);
    let eligible = w.market.eligible_providers(w.workload).unwrap();
    assert_eq!(eligible.len(), 2);
    // A provider with non-matching data is not eligible.
    let other = w.market.register_provider(5000, StorageChoice::Local);
    w.market.provider_add_device(other).unwrap();
    let shard = gaussian_blobs(10, 3, 1.0, 1);
    let meta = Metadata::new().with(
        "type",
        MetaValue::Class("sensor/motion/accelerometer".into()),
        0,
    );
    w.market.provider_ingest(other, 0, &shard, meta).unwrap();
    let eligible = w.market.eligible_providers(w.workload).unwrap();
    assert!(!eligible.contains(&other));
}

#[test]
fn start_blocked_below_quorum() {
    let mut w = build_world(3, 1, RewardScheme::ProportionalToRecords);
    // Only one provider accepts; min_providers is 3.
    w.market
        .provider_accept(w.providers[0], w.workload, w.executors[0])
        .unwrap();
    assert!(!w.market.try_start(w.workload).unwrap());
    let st = w.market.workload_state(w.workload).unwrap();
    assert_eq!(st.phase, Phase::Open);
}

#[test]
fn wrong_code_executor_rejected_at_join() {
    let mut w = build_world(2, 1, RewardScheme::ProportionalToRecords);
    // Build a second workload whose spec demands different code than
    // what the executor runs.
    let honest_code = EnclaveCode::new("trainer", 1, b"trainer-binary-v1".to_vec());
    let evil_code = EnclaveCode::new("trainer", 1, b"evil-binary".to_vec());
    let spec = sample_spec_with(
        honest_code.measurement(),
        gaussian_blobs(10, 3, 1.0, 1),
        RewardScheme::ProportionalToRecords,
        1,
    );
    // submit_workload itself rejects mismatched code.
    let err = w
        .market
        .submit_workload(w.consumer, spec, evil_code, 1)
        .unwrap_err();
    assert!(matches!(err, MarketError::Attestation(_)));
}

#[test]
fn forged_result_executor_gets_slashed() {
    let mut w = build_world(4, 3, RewardScheme::ProportionalToRecords);
    for (i, &p) in w.providers.iter().enumerate() {
        // Give data to executors 0 and 1 only; executor 2 joins with
        // no data but still registered on-chain... must hold data to
        // submit a forged result? No: registered executors may submit.
        w.market
            .provider_accept(p, w.workload, w.executors[i % 2])
            .unwrap();
    }
    assert!(w.market.try_start(w.workload).unwrap());
    let exec = w.market.execute(w.workload).unwrap();
    // Executor 2 (no data, did not auto-submit) now submits a forgery.
    let forged = sha256(b"forged-model");
    let receipt = w
        .market
        .executor_submit_forged_result(w.executors[2], w.workload, forged)
        .unwrap();
    assert!(receipt.success);
    let fin = w.market.finalize(w.workload).unwrap();
    assert_eq!(fin.slashed, vec![w.executors[2]]);
    assert!(!fin.paid_executors.contains(&w.executors[2]));
    // The honest result stands.
    let st = w.market.workload_state(w.workload).unwrap();
    assert_eq!(st.result, Some(exec.result_hash));
}

#[test]
fn provider_cannot_double_participate() {
    let mut w = build_world(3, 2, RewardScheme::ProportionalToRecords);
    w.market
        .provider_accept(w.providers[0], w.workload, w.executors[0])
        .unwrap();
    // Accepting again through another executor fails on-chain.
    let err = w
        .market
        .provider_accept(w.providers[0], w.workload, w.executors[1])
        .unwrap_err();
    assert!(matches!(err, MarketError::ChainFailure(_)), "{err}");
}

#[test]
fn execute_requires_started_contract() {
    let mut w = build_world(2, 1, RewardScheme::ProportionalToRecords);
    let err = w.market.execute(w.workload).unwrap_err();
    assert!(matches!(err, MarketError::BadPhase(_)));
}

#[test]
fn third_party_storage_works_end_to_end() {
    // build_world already mixes Local and ThirdParty providers; this
    // asserts a pure third-party world also completes.
    let mut market = Marketplace::new(7);
    let consumer = market.register_consumer(1, 1_000_000);
    let data = gaussian_blobs(120, 3, 0.7, 7);
    let (train, validation) = data.split(0.2, 8);
    let shards = train.partition_iid(2, 9);
    let mut providers = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        let p = market.register_provider(
            1000 + i as u64,
            StorageChoice::ThirdParty { publish_level: 1 },
        );
        market.provider_add_device(p).unwrap();
        market
            .provider_ingest(p, 0, shard, temperature_metadata())
            .unwrap();
        providers.push(p);
    }
    let executor = market.register_executor(2000);
    let code = EnclaveCode::new("trainer", 1, b"bin".to_vec());
    let spec = sample_spec_with(
        code.measurement(),
        validation,
        RewardScheme::ProportionalToRecords,
        2,
    );
    let workload = market.submit_workload(consumer, spec, code, 1).unwrap();
    market.executor_join(executor, workload).unwrap();
    let assignments: Vec<(Address, Address)> = providers.iter().map(|&p| (p, executor)).collect();
    let (exec, _) = market.run_full_lifecycle(workload, &assignments).unwrap();
    assert!(exec.validation_score > 0.8, "{}", exec.validation_score);
}

#[test]
fn crashed_executor_aborts_with_refund() {
    let mut w = build_world_with_timeout(2, 1, RewardScheme::ProportionalToRecords, 3);
    for &p in &w.providers.clone() {
        w.market
            .provider_accept(p, w.workload, w.executors[0])
            .unwrap();
    }
    assert!(w.market.try_start(w.workload).unwrap());
    // The only executor holding data crashes with no recovery in sight.
    w.market.executor_crash(w.executors[0], None).unwrap();
    assert!(w.market.executor_is_crashed(w.executors[0]));
    let err = w.market.execute(w.workload).unwrap_err();
    assert!(matches!(err, MarketError::BadPhase(_)), "{err}");
    // Graceful abort: timeout elapses, consumer gets the escrow back.
    let escrow = w.market.workload_state(w.workload).unwrap().funded;
    assert!(escrow > 0);
    let before = w.market.chain.state.balance(&w.consumer);
    let refund = w.market.abort_workload(w.workload).unwrap();
    assert_eq!(refund, escrow);
    assert_eq!(w.market.chain.state.balance(&w.consumer), before + escrow);
    let st = w.market.workload_state(w.workload).unwrap();
    assert_eq!(st.phase, Phase::Cancelled);
    assert_eq!(st.funded, 0);
    assert!(!w
        .market
        .chain
        .events_by_topic("workload.aborted")
        .is_empty());
    // Refund XOR payout: a second abort cannot double-refund.
    assert!(w.market.abort_workload(w.workload).is_err());
}

#[test]
fn abort_requires_timeout_and_executing_phase() {
    // Open phase: abort is premature whatever the timeout.
    let mut w = build_world_with_timeout(2, 1, RewardScheme::ProportionalToRecords, 3);
    let err = w.market.abort_workload(w.workload).unwrap_err();
    assert!(matches!(err, MarketError::BadPhase(_)), "{err}");
    // `submit_workload` arms the default timeout, and the abort waits it out.
    let mut w = build_world(2, 1, RewardScheme::ProportionalToRecords);
    for &p in &w.providers.clone() {
        w.market
            .provider_accept(p, w.workload, w.executors[0])
            .unwrap();
    }
    assert!(w.market.try_start(w.workload).unwrap());
    let started = w.market.workload_state(w.workload).unwrap().started_height;
    w.market.abort_workload(w.workload).unwrap();
    let timeout = u64::from(DEFAULT_EXEC_TIMEOUT_BLOCKS.get());
    assert!(w.market.chain.height() > started + timeout);
    let st = w.market.workload_state(w.workload).unwrap();
    assert_eq!((st.phase, st.funded), (Phase::Cancelled, 0));
}

#[test]
fn executor_recovery_retries_to_success() {
    let mut w = build_world_with_timeout(2, 1, RewardScheme::ProportionalToRecords, 100);
    for &p in &w.providers.clone() {
        w.market
            .provider_accept(p, w.workload, w.executors[0])
            .unwrap();
    }
    assert!(w.market.try_start(w.workload).unwrap());
    // Crash with a scheduled recovery a few blocks out: the retry
    // backoff mines the chain forward until the executor comes back.
    let recover_at = w.market.chain.height() + 4;
    w.market
        .executor_crash(w.executors[0], Some(recover_at))
        .unwrap();
    let (report, attempts) = w
        .market
        .execute_with_retry(w.workload, RetryPolicy::default())
        .unwrap();
    assert!(attempts > 1, "first attempt must fail while crashed");
    assert!(!w.market.executor_is_crashed(w.executors[0]));
    assert!(report.validation_score > 0.8, "{}", report.validation_score);
    // The relaunched enclave carries a fresh verified quote and the
    // lifecycle completes normally after recovery.
    let fin = w.market.finalize(w.workload).unwrap();
    assert_eq!(fin.paid_executors, vec![w.executors[0]]);
    assert!(fin.slashed.is_empty());
}

#[test]
fn execute_skips_crashed_executor_when_another_is_live() {
    let mut w = build_world(4, 2, RewardScheme::ProportionalToRecords);
    let assignments: Vec<(Address, Address)> = w
        .providers
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, w.executors[i % 2]))
        .collect();
    for (p, e) in &assignments {
        w.market.provider_accept(*p, w.workload, *e).unwrap();
    }
    assert!(w.market.try_start(w.workload).unwrap());
    w.market.executor_crash(w.executors[1], None).unwrap();
    // Execution proceeds on the surviving executor alone.
    let report = w.market.execute(w.workload).unwrap();
    assert!(report.enclave_costs.contains_key(&w.executors[0]));
    assert!(!report.enclave_costs.contains_key(&w.executors[1]));
}

#[test]
fn crashed_executor_is_handed_no_data_until_it_recovers() {
    let mut w = build_world(2, 1, RewardScheme::ProportionalToRecords);
    let (provider, executor) = (w.providers[0], w.executors[0]);
    w.market.executor_crash(executor, None).unwrap();
    // The enclave the quote vouched for is gone: no grant is issued, no
    // participation is signed on the dead executor's behalf.
    let blocks = w.market.chain.height();
    let err = w
        .market
        .provider_accept(provider, w.workload, executor)
        .unwrap_err();
    assert!(matches!(err, MarketError::Attestation(_)), "{err}");
    assert_eq!(w.market.chain.height(), blocks);
    let st = w.market.workload_state(w.workload).unwrap();
    assert!(st.contributions.is_empty());
    // Recovery relaunches and re-attests; the same provider is accepted.
    w.market.executor_recover(executor).unwrap();
    w.market
        .provider_accept(provider, w.workload, executor)
        .unwrap();
    let st = w.market.workload_state(w.workload).unwrap();
    assert_eq!(st.contributions[&provider].executor, executor);
}

#[test]
fn dp_workload_completes_and_is_deterministic() {
    let run = || {
        let mut w = build_world(3, 1, RewardScheme::ProportionalToRecords);
        // Rebuild the workload with DP enabled.
        let code = EnclaveCode::new("dp-trainer", 1, b"dp-bin".to_vec());
        let mut spec = crate::workload::tests_support::sample_spec_with(
            code.measurement(),
            gaussian_blobs(30, 3, 0.7, 5),
            RewardScheme::ProportionalToRecords,
            3,
        );
        spec.dp_noise_multiplier = Some(0.5);
        spec.local_epochs = 30;
        let workload = w.market.submit_workload(w.consumer, spec, code, 1).unwrap();
        w.market.executor_join(w.executors[0], workload).unwrap();
        let assignments: Vec<(Address, Address)> =
            w.providers.iter().map(|&p| (p, w.executors[0])).collect();
        let (exec, _) = w.market.run_full_lifecycle(workload, &assignments).unwrap();
        exec
    };
    let a = run();
    let b = run();
    assert_eq!(a.result_hash, b.result_hash, "DP noise must be seeded");
    // DP training still learns something on an easy task.
    assert!(a.validation_score > 0.6, "{}", a.validation_score);
}
