//! Shared E16 scenario: a faulty marketplace lifecycle plus cross-node
//! chain sync and gossip learning, all under chaos fault plans, emitting
//! one multi-trace causal capture.
//!
//! Both the `exp_trace_lifecycle` binary and the `obs_determinism`
//! integration test drive this exact workload, so the digest and
//! critical-path assertions compare the same event stream. Everything in
//! here is a pure function of `seed`: logical stamps only, deterministic
//! fault schedules, no wall clock.

use crate::{round_robin_assignments, temperature_metadata, BenchWorld};
use pds2_chain::address::Address;
use pds2_chain::chain::{Blockchain, ChainConfig};
use pds2_chain::contract::ContractRegistry;
use pds2_chain::sync::{ChainReplica, GenesisFactory};
use pds2_core::marketplace::{Marketplace, RetryPolicy, StorageChoice};
use pds2_core::workload::RewardScheme;
use pds2_crypto::KeyPair;
use pds2_learning::gossip::{run_gossip_experiment_with_faults, GossipConfig};
use pds2_ml::data::gaussian_blobs;
use pds2_ml::model::LogisticRegression;
use pds2_net::{FaultPlan, LinkEffect, LinkModel, LinkScope, SchedulerKind, Simulator};
use std::num::NonZeroU32;
use std::sync::Arc;

const N_REPLICAS: usize = 4;

/// Marketplace leg: one workload that completes only after a full
/// executor crash is healed by retry backoff, and a second that is
/// aborted (timeout refund) when its executors crash without recovery.
fn faulty_marketplace(seed: u64) {
    let mut market = Marketplace::new(seed);
    let consumer = market.register_consumer(1, u128::MAX / 4);
    let data = gaussian_blobs(240, 4, 0.7, seed ^ 5);
    let (train, validation) = data.split(0.2, seed ^ 6);
    let shards = train.partition_iid(3, seed ^ 7);
    let mut providers = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        let p = market.register_provider(1000 + i as u64, StorageChoice::Local);
        market.provider_add_device(p).expect("registered");
        market
            .provider_ingest(p, 0, shard, temperature_metadata())
            .expect("ingest");
        providers.push(p);
    }
    let executors: Vec<Address> = (0..2).map(|i| market.register_executor(5000 + i)).collect();
    let code = pds2_tee::measurement::EnclaveCode::new("trace-trainer", 1, b"trace-v1".to_vec());
    let spec = crate::classification_spec(
        &code,
        validation.clone(),
        RewardScheme::ProportionalToRecords,
        3,
    );

    // Workload A: crash every executor after start; execute_with_retry
    // mines backoff blocks until the scheduled recovery heals them.
    let wl_a = market
        .submit_workload(consumer, spec, code, 2)
        .expect("submit A");
    for &e in &executors {
        market.executor_join(e, wl_a).expect("join A");
    }
    let world = BenchWorld {
        market,
        consumer,
        providers: providers.clone(),
        executors: executors.clone(),
        workload: wl_a,
    };
    let assignments = round_robin_assignments(&world);
    let mut market = world.market;
    for (p, e) in &assignments {
        market.provider_accept(*p, wl_a, *e).expect("accept A");
    }
    assert!(market.try_start(wl_a).expect("start A"), "quorum met");
    let recover_at = market.chain.height() + 3;
    for &e in &executors {
        market.executor_crash(e, Some(recover_at)).expect("crash A");
    }
    let (_, attempts) = market
        .execute_with_retry(
            wl_a,
            RetryPolicy {
                max_attempts: 4,
                backoff_blocks: 2,
            },
        )
        .expect("retry heals the crash");
    assert!(attempts > 1, "first attempt must fail (all crashed)");
    market.finalize(wl_a).expect("finalize A");

    // Workload B: same providers, executors crash for good — the
    // execution-timeout abort refunds the consumer. Distinct code: the
    // workload-code NFT content hash must be fresh.
    let code_b = pds2_tee::measurement::EnclaveCode::new("trace-trainer", 2, b"trace-v2".to_vec());
    let spec_b =
        crate::classification_spec(&code_b, validation, RewardScheme::ProportionalToRecords, 3);
    let wl_b = market
        .submit_workload_with_timeout(consumer, spec_b, code_b, 2, NonZeroU32::new(4).unwrap())
        .expect("submit B");
    for &e in &executors {
        market.executor_join(e, wl_b).expect("join B");
    }
    for (i, &p) in providers.iter().enumerate() {
        market
            .provider_accept(p, wl_b, executors[i % executors.len()])
            .expect("accept B");
    }
    assert!(market.try_start(wl_b).expect("start B"));
    for &e in &executors {
        market.executor_crash(e, None).expect("crash B");
    }
    let refund = market.abort_workload(wl_b).expect("abort B");
    assert!(refund > 0, "abort refunds remaining escrow");
}

/// Chain-sync leg: four replicas gossip blocks under partition, crash
/// and byzantine corruption; every delivery descends from one root, so
/// the trace has real cross-node hops.
fn chaos_chain_sync(seed: u64, until_us: u64) {
    let plan = FaultPlan::new(0x0E16)
        .partition(1_200_000, 2_800_000, vec![vec![0, 1], vec![2, 3]])
        .crash(2, 3_200_000, Some(4_400_000))
        .byzantine(
            400_000,
            2_000_000,
            LinkScope::from_node(3),
            LinkEffect::Corrupt { probability: 0.25 },
        );
    let factory: GenesisFactory = Arc::new(|| {
        Blockchain::new(
            (0..N_REPLICAS as u64)
                .map(|i| KeyPair::from_seed(9_000 + i))
                .collect(),
            &[(Address::of(&KeyPair::from_seed(1).public), 1_000_000)],
            ContractRegistry::new(),
            ChainConfig::default(),
        )
    });
    let replicas: Vec<ChainReplica> = (0..N_REPLICAS)
        .map(|i| ChainReplica::new(factory.clone(), Some(i), 200_000, 150_000))
        .collect();
    let link = LinkModel {
        base_latency_us: 5_000,
        jitter_us: 2_000,
        bandwidth_bytes_per_sec: 12_500_000,
        drop_probability: 0.0,
        node_slowdown: Vec::new(),
        topology: None,
    };
    let mut sim = Simulator::new(replicas, link, seed);
    sim.install_fault_plan(plan);
    let root = pds2_obs::new_trace(
        "chain",
        "sync.experiment",
        pds2_obs::Stamp::Sim(0),
        vec![("replicas", pds2_obs::Value::from(N_REPLICAS as u64))],
    );
    if root.id() != 0 {
        sim.set_root_ctx(root.ctx());
    }
    sim.run_until(until_us);
    root.finish(pds2_obs::Stamp::Sim(sim.now()), Vec::new());
}

/// Gossip leg: byzantine corruption over an 8-node mesh; the experiment
/// mints its own `learning/gossip.experiment` root internally.
fn chaos_gossip(seed: u64) {
    let data = gaussian_blobs(320, 3, 0.7, seed ^ 0x60);
    let (train, test) = data.split(0.25, seed ^ 0x61);
    let shards = train.partition_iid(8, seed ^ 0x62);
    let plan = FaultPlan::new(0xC0FF ^ seed).byzantine(
        200_000,
        1_600_000,
        LinkScope::any(),
        LinkEffect::Corrupt { probability: 0.3 },
    );
    run_gossip_experiment_with_faults(
        shards,
        &test,
        GossipConfig {
            period_us: 100_000,
            ..Default::default()
        },
        LinkModel::instant(),
        seed,
        &[1_000_000, 2_400_000],
        None,
        Some(plan),
        SchedulerKind::Wheel,
        || LogisticRegression::new(3),
    );
}

/// Runs the full E16 workload. The caller owns the capture: wrap this in
/// [`pds2_obs::capture`] (any sink); the resulting event stream is
/// bit-identical for a given `seed`.
pub fn run(seed: u64) {
    faulty_marketplace(seed);
    chaos_chain_sync(seed, 5_000_000);
    chaos_gossip(seed);
}
