//! Integration tests: the full Fig. 2 lifecycle across every crate.

use pds2::market::marketplace::{Marketplace, StorageChoice};
use pds2::market::workload::{RewardScheme, TaskKind, WorkloadSpec};
use pds2::market::Phase;
use pds2::ml::data::{gaussian_blobs, Dataset};
use pds2::storage::semantic::{MetaValue, Metadata, Requirement};
use pds2::tee::measurement::EnclaveCode;
use pds2_chain::address::Address;

fn temperature_meta() -> Metadata {
    Metadata::new()
        .with(
            "type",
            MetaValue::Class("sensor/environment/temperature".into()),
            0,
        )
        .with("sample-rate-hz", MetaValue::Num(1.0), 1)
}

fn classification_spec(
    code: &EnclaveCode,
    validation: Dataset,
    scheme: RewardScheme,
    min_providers: u32,
) -> WorkloadSpec {
    WorkloadSpec {
        title: "integration".into(),
        precondition: Requirement::HasClass {
            attr: "type".into(),
            class: "sensor/environment".into(),
        },
        task: TaskKind::BinaryClassification,
        feature_dim: validation.dim() as u32,
        provider_reward: 30_000,
        executor_fee: 1_000,
        reward_scheme: scheme,
        min_providers,
        min_records: 20,
        code_measurement: code.measurement(),
        validation,
        local_epochs: 8,
        aggregation_rounds: 3,
        dp_noise_multiplier: None,
        reward_token: None,
        data_bounds: None,
    }
}

/// Builds a marketplace world and returns everything needed to drive it.
fn build(
    seed: u64,
    n_providers: usize,
    n_executors: usize,
    scheme: RewardScheme,
) -> (Marketplace, Address, Vec<Address>, Vec<Address>, u64) {
    build_with_reward(seed, n_providers, n_executors, scheme, 10_000_000, 30_000)
}

/// [`build`] with the consumer's grant and the provider reward chosen.
fn build_with_reward(
    seed: u64,
    n_providers: usize,
    n_executors: usize,
    scheme: RewardScheme,
    consumer_funds: u128,
    provider_reward: u128,
) -> (Marketplace, Address, Vec<Address>, Vec<Address>, u64) {
    let mut market = Marketplace::new(seed);
    let consumer = market.register_consumer(1, consumer_funds);
    let data = gaussian_blobs(80 * n_providers, 4, 0.7, seed ^ 7);
    let (train, validation) = data.split(0.2, seed ^ 8);
    let shards = train.partition_iid(n_providers, seed ^ 9);
    let mut providers = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        let p = market.register_provider(1000 + i as u64, StorageChoice::Local);
        market.provider_add_device(p).unwrap();
        market
            .provider_ingest(p, 0, shard, temperature_meta())
            .unwrap();
        providers.push(p);
    }
    let executors: Vec<Address> = (0..n_executors)
        .map(|i| market.register_executor(2000 + i as u64))
        .collect();
    let code = EnclaveCode::new("trainer", 1, b"trainer-v1".to_vec());
    let mut spec = classification_spec(&code, validation, scheme, n_providers as u32);
    spec.provider_reward = provider_reward;
    let workload = market
        .submit_workload(consumer, spec, code, n_executors as u32)
        .unwrap();
    for &e in &executors {
        market.executor_join(e, workload).unwrap();
    }
    (market, consumer, providers, executors, workload)
}

#[test]
fn end_to_end_lifecycle_with_two_executors() {
    let (mut market, _consumer, providers, executors, workload) =
        build(11, 6, 2, RewardScheme::ProportionalToRecords);
    let assignments: Vec<_> = providers
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, executors[i % 2]))
        .collect();
    let (exec, fin) = market.run_full_lifecycle(workload, &assignments).unwrap();
    assert!(exec.validation_score > 0.85, "{}", exec.validation_score);
    assert_eq!(fin.provider_shares.len(), 6);
    assert!(fin.slashed.is_empty());
    let st = market.workload_state(workload).unwrap();
    assert_eq!(st.phase, Phase::Completed);
    assert_eq!(st.result, Some(exec.result_hash));
    // Event trail covers every lifecycle step.
    for topic in [
        "workload.funded",
        "workload.executor_registered",
        "workload.participation",
        "workload.started",
        "workload.result_submitted",
        "workload.completed",
    ] {
        assert!(
            !market.chain.events_by_topic(topic).is_empty(),
            "missing {topic} events"
        );
    }
}

#[test]
fn lifecycle_is_deterministic_across_runs() {
    let run = || {
        let (mut market, _, providers, executors, workload) = build(
            42,
            4,
            2,
            RewardScheme::ShapleyMonteCarlo { permutations: 10 },
        );
        let assignments: Vec<_> = providers
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, executors[i % 2]))
            .collect();
        let (exec, fin) = market.run_full_lifecycle(workload, &assignments).unwrap();
        (exec.result_hash, fin.provider_shares)
    };
    let (h1, s1) = run();
    let (h2, s2) = run();
    assert_eq!(h1, h2, "same seeds must reproduce the same on-chain result");
    assert_eq!(s1, s2, "reward shares must be replayable");
}

#[test]
fn rewards_conserve_escrow_exactly() {
    let (mut market, consumer, providers, executors, workload) = build(
        13,
        5,
        2,
        RewardScheme::ShapleyMonteCarlo { permutations: 15 },
    );
    // Escrow was already paid at submission inside `build`; compare the
    // final balance against the consumer's initial grant.
    let initial_funds: u128 = 10_000_000;
    let assignments: Vec<_> = providers.iter().map(|&p| (p, executors[0])).collect();
    let (_, fin) = market.run_full_lifecycle(workload, &assignments).unwrap();
    let st = market.workload_state(workload).unwrap();
    let provider_total: u128 = fin.provider_shares.iter().map(|(_, v)| v).sum();
    assert_eq!(provider_total, st.init.provider_reward);
    // Native supply is globally conserved: the consumer ends up having
    // paid exactly the provider rewards plus honest-executor fees, with
    // the unused escrow refunded at finalization.
    let paid_fees = fin.paid_executors.len() as u128 * st.init.executor_fee;
    let consumer_after = market.chain.state.balance(&consumer);
    assert_eq!(
        initial_funds - consumer_after,
        provider_total + paid_fees,
        "consumer paid exactly rewards plus honest-executor fees (refund received)"
    );
    // Contract is fully drained.
    let contract = market.workload_contract(workload).unwrap();
    assert_eq!(market.chain.state.balance(&contract), 0);
}

/// One token at the ERC-20 norm of 18 decimals (the paper's §III-A
/// fungible-token reward) split between seven equal providers. In `f64`
/// the seven floored shares add up to 48 units more than the pool, which
/// FINALIZE refuses; a workload without an execution timeout has no
/// ABORT either, so the escrow stayed locked.
#[test]
fn seven_equal_providers_split_a_pool_of_ten_to_the_eighteen_exactly() {
    const POOL: u128 = 1_000_000_000_000_000_000;
    let (mut market, _consumer, providers, executors, workload) = build_with_reward(
        17,
        7,
        1,
        RewardScheme::ProportionalToRecords,
        2 * POOL,
        POOL,
    );
    let assignments: Vec<_> = providers.iter().map(|&p| (p, executors[0])).collect();
    let (_, fin) = market
        .run_full_lifecycle(workload, &assignments)
        .expect("the workload finalizes");
    assert_eq!(fin.provider_shares.len(), 7);
    let paid: u128 = fin.provider_shares.iter().map(|(_, v)| v).sum();
    assert_eq!(paid, POOL, "the shares are the pool, to the unit");
    let amounts = fin.provider_shares.iter().map(|(_, v)| *v);
    let (least, most) = (amounts.clone().min().unwrap(), amounts.max().unwrap());
    assert!(
        most - least <= 64,
        "equal providers, equal shares but for the rounding: {least}..{most}"
    );
    for (p, share) in &fin.provider_shares {
        assert_eq!(market.chain.state.balance(p), *share);
    }
    assert_eq!(
        market.workload_state(workload).unwrap().phase,
        Phase::Completed
    );
}

#[test]
fn two_sequential_workloads_share_infrastructure() {
    let (mut market, consumer, providers, executors, w1) =
        build(17, 3, 1, RewardScheme::ProportionalToRecords);
    let assignments: Vec<_> = providers.iter().map(|&p| (p, executors[0])).collect();
    market.run_full_lifecycle(w1, &assignments).unwrap();

    // Same consumer posts a second workload over the same provider pool.
    let code = EnclaveCode::new("trainer", 2, b"trainer-v2".to_vec());
    let validation = gaussian_blobs(30, 4, 0.7, 99);
    let spec = classification_spec(&code, validation, RewardScheme::ShapleyExact, 3);
    let w2 = market.submit_workload(consumer, spec, code, 1).unwrap();
    market.executor_join(executors[0], w2).unwrap();
    let (exec2, fin2) = market.run_full_lifecycle(w2, &assignments).unwrap();
    assert!(exec2.validation_score > 0.8);
    assert_eq!(fin2.provider_shares.len(), 3);
    // Providers accumulated rewards from both workloads.
    for &p in &providers {
        assert!(market.chain.state.balance(&p) > 0);
    }
    assert_ne!(w1, w2);
}

#[test]
fn regression_workload_end_to_end() {
    use pds2::ml::data::iot_sensor_series;
    let mut market = Marketplace::new(23);
    let consumer = market.register_consumer(1, 10_000_000);
    let mut providers = Vec::new();
    for i in 0..4u64 {
        let p = market.register_provider(100 + i, StorageChoice::Local);
        market.provider_add_device(p).unwrap();
        let series = iot_sensor_series(72, i as f64 * 0.5, 0.2, 40 + i);
        market
            .provider_ingest(p, 0, &series, temperature_meta())
            .unwrap();
        providers.push(p);
    }
    let executor = market.register_executor(500);
    let code = EnclaveCode::new("forecaster", 1, b"forecaster-v1".to_vec());
    let validation = iot_sensor_series(48, 2.0, 0.2, 99);
    let spec = WorkloadSpec {
        title: "forecast".into(),
        precondition: Requirement::HasClass {
            attr: "type".into(),
            class: "sensor/environment".into(),
        },
        task: TaskKind::Regression,
        feature_dim: 4,
        provider_reward: 10_000,
        executor_fee: 500,
        reward_scheme: RewardScheme::ProportionalToRecords,
        min_providers: 3,
        min_records: 100,
        code_measurement: code.measurement(),
        validation,
        local_epochs: 1,
        aggregation_rounds: 2,
        dp_noise_multiplier: None,
        reward_token: None,
        data_bounds: None,
    };
    let workload = market.submit_workload(consumer, spec, code, 1).unwrap();
    market.executor_join(executor, workload).unwrap();
    let assignments: Vec<_> = providers.iter().map(|&p| (p, executor)).collect();
    let (exec, _) = market.run_full_lifecycle(workload, &assignments).unwrap();
    // -MSE close to the noise floor (sigma = 0.2 -> MSE ~ 0.04..0.5).
    assert!(
        exec.validation_score > -1.0 && exec.validation_score <= 0.0,
        "score {}",
        exec.validation_score
    );
}

#[test]
fn enclave_costs_are_reported() {
    let (mut market, _, providers, executors, workload) =
        build(29, 3, 2, RewardScheme::ProportionalToRecords);
    let assignments: Vec<_> = providers
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, executors[i % 2]))
        .collect();
    let (exec, _) = market.run_full_lifecycle(workload, &assignments).unwrap();
    assert_eq!(exec.enclave_costs.len(), 2);
    for meter in exec.enclave_costs.values() {
        assert!(meter.charged_ns > 0, "enclave work must be charged");
        assert!(meter.transitions >= 1);
    }
}

#[test]
fn participation_proofs_verify_against_chain_headers() {
    let (mut market, _, providers, executors, workload) =
        build(31, 3, 1, RewardScheme::ProportionalToRecords);
    let assignments: Vec<_> = providers.iter().map(|&p| (p, executors[0])).collect();
    market.run_full_lifecycle(workload, &assignments).unwrap();
    for &p in &providers {
        let (proof, header) = market.prove_participation(workload, p).unwrap();
        assert!(header.verify_signature(), "header signed by a validator");
        assert!(proof.verify(&header), "inclusion proof for {p}");
    }
    // A non-participant has no proof.
    let outsider = Address::of(&pds2_crypto::KeyPair::from_seed(9_999).public);
    assert!(market.prove_participation(workload, outsider).is_err());
}

#[test]
fn token_denominated_workload_pays_in_erc20() {
    use pds2_chain::erc20::TokenId;
    let mut market = Marketplace::new(37);
    let consumer = market.register_consumer(1, 1_000_000);
    // Consumer issues the reward token (e.g. a stable research-credit).
    let token: TokenId = market
        .consumer_create_reward_token(consumer, "RWD", 1_000_000)
        .unwrap();

    let data = gaussian_blobs(180, 3, 0.7, 7);
    let (train, validation) = data.split(0.2, 8);
    let shards = train.partition_iid(3, 9);
    let mut providers = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        let p = market.register_provider(100 + i as u64, StorageChoice::Local);
        market.provider_add_device(p).unwrap();
        market
            .provider_ingest(p, 0, shard, temperature_meta())
            .unwrap();
        providers.push(p);
    }
    let executor = market.register_executor(500);
    let code = EnclaveCode::new("trainer", 1, b"bin".to_vec());
    let mut spec = classification_spec(&code, validation, RewardScheme::ProportionalToRecords, 3);
    spec.reward_token = Some(token);
    let workload = market.submit_workload(consumer, spec, code, 1).unwrap();
    market.executor_join(executor, workload).unwrap();
    let assignments: Vec<_> = providers.iter().map(|&p| (p, executor)).collect();
    let (_, fin) = market.run_full_lifecycle(workload, &assignments).unwrap();

    // Rewards arrived as ERC-20 balances, not native currency.
    let mut provider_tokens = 0u128;
    for (p, share) in &fin.provider_shares {
        assert_eq!(market.chain.state.erc20.balance_of(token, p), *share);
        assert_eq!(market.chain.state.balance(p), 0, "no native payout");
        provider_tokens += share;
    }
    assert_eq!(provider_tokens, 30_000);
    // Executor fee in tokens too.
    assert_eq!(market.chain.state.erc20.balance_of(token, &executor), 1_000);
    // Escrow fully drained from the contract's token account; the refund
    // returned to the consumer.
    let contract = market.workload_contract(workload).unwrap();
    assert_eq!(market.chain.state.erc20.balance_of(token, &contract), 0);
    assert_eq!(
        market.chain.state.erc20.balance_of(token, &consumer),
        1_000_000 - 30_000 - 1_000
    );
    // Total token supply conserved.
    assert_eq!(
        market.chain.state.erc20.total_supply(token),
        Some(1_000_000)
    );
    // On-chain audit includes the token payouts.
    assert!(!market
        .chain
        .events_by_topic("erc20.contract_payout")
        .is_empty());
}

#[test]
fn executor_side_data_bounds_filter_out_of_range_readings() {
    // §IV-C complementary verification: a workload declares feature value
    // bounds; authentic-but-out-of-range readings are discarded by the
    // executor, and the provider is only credited for in-range rows.
    let mut market = Marketplace::new(41);
    let consumer = market.register_consumer(1, 1_000_000);
    let p = market.register_provider(100, StorageChoice::Local);
    market.provider_add_device(p).unwrap();
    // Mix in extreme outliers (sensor glitches / spam).
    let mut data = gaussian_blobs(80, 3, 0.7, 7);
    for row in data.x.iter_mut().take(20) {
        row[0] = 1e6;
    }
    market
        .provider_ingest(p, 0, &data, temperature_meta())
        .unwrap();
    let executor = market.register_executor(500);
    let code = EnclaveCode::new("trainer", 1, b"bin".to_vec());
    let mut spec = classification_spec(
        &code,
        gaussian_blobs(30, 3, 0.7, 8),
        RewardScheme::ProportionalToRecords,
        1,
    );
    spec.data_bounds = Some((-100.0, 100.0));
    let workload = market.submit_workload(consumer, spec, code, 1).unwrap();
    market.executor_join(executor, workload).unwrap();
    let (exec, _) = market
        .run_full_lifecycle(workload, &[(p, executor)])
        .unwrap();
    assert_eq!(exec.readings_out_of_bounds, 20, "outliers discarded");
    assert_eq!(exec.readings_accepted, 80, "all readings were authentic");
    // On-chain contribution reflects only the in-range rows.
    let st = market.workload_state(workload).unwrap();
    assert_eq!(st.total_records(), 60);
}
