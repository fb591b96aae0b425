//! One marketplace, four workloads, every byte it leaves behind pinned.
//!
//! The scenario drives each Fig. 2 phase over both storage configurations,
//! both escrow denominations and both crash outcomes, once plain and once
//! under an obs capture, and compares what it leaves on the chain, in the
//! reports and in the trace against constants. A change to `marketplace/`
//! that alters a transaction, a contract or obs event, a reward split or
//! the logical clock fails here. This is to `marketplace/` what
//! `crates/chain/tests/pipeline.rs` is to `chain/`.
//!
//! One test per process: captures are process-global.

use pds2_chain::address::Address;
use pds2_core::marketplace::{Marketplace, RetryPolicy, StorageChoice};
use pds2_core::workload::{RewardScheme, TaskKind, WorkloadSpec};
use pds2_core::Phase;
use pds2_crypto::sha256::sha256;
use pds2_ml::data::{gaussian_blobs, Dataset};
use pds2_obs as obs;
use pds2_storage::semantic::{MetaValue, Metadata, Requirement};
use pds2_tee::measurement::EnclaveCode;
use std::num::NonZeroU32;

// Generated at d0065fe, the commit before `marketplace.rs` was cut along
// the lifecycle. `TRACE_DIGEST`, `head`, `state_root` and `events_sha` were
// regenerated once by the PR on top of 4f10d0c that made a device sign a
// batch: a record id is the hash of its readings' bytes, which now hold a
// root signature and a path, and the dataset NFTs carry the record ids.
// The same four moved once more when the signature went from `(e, s)` to
// the 65-byte `(R, s)` (PR 23), for the same reason: the readings' bytes
// hold a signature, so the record ids, the NFT leaves and the events that
// name them move with it. Every other field, and the event count, held
// both times. `TRACE_DIGEST` alone moved once more when the `state/commit`
// span stopped carrying `nodes_hashed`, a count that follows the backend
// (PR 25).
// `head`, `state_root` and `TRACE_DIGEST` moved once more when the
// execution timeout became a non-zero `u32`: A and B, submitted with the
// default, now carry 64 blocks where they carried 0, and every contract's
// init is four bytes shorter. The heights, the event log, the shares and
// the refunds held.
// `head` and `state_root` alone moved once more when the NFT approval went:
// each dataset and code NFT leaf lost its trailing approval byte. The values
// were recorded on the parent with only that edit; the trace does not carry
// leaf bytes and held.
// `head` and `state_root` alone moved again when the state tree's leaf and
// node hashes became one compression from a tagged IV. They were
// `5e30237b430ab7cfec2a77725108defc014bd2c4105e9a033090d5072eceaa6e` and
// `dae6611d2eb17cbd450ce63f5ebc9f24b72495a29176afaabced37f1d4d7fd3d`.
const TRACE_DIGEST: &str = "47c040e73866864af9b804fca8358fc1f1c4ba6be367f8f05bebead8d6e66ae5";
const TRACE_EVENTS: u64 = 370;

fn pinned() -> Outcome {
    let hex = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
    Outcome {
        height: 57,
        head: "1f6d1910a13baa2e3993c107af0088393d40c6dc17b5e0ec4357be28ab587741".into(),
        state_root: "fcedfd66c8c06da650da3d7cff3cd0d7e7082173055caa8e39d7e9c0cf700d6c".into(),
        events_sha: "8df6079a84c123d91d74e900532510b44e18158c018e496af7d6bd2efb21c6f5".into(),
        result_hashes: hex(&[
            "806f5f916bb3e00514366c3d33be6489eadc8cacf1ac3b8d88d002eeecc5d174",
            "849107174f50a04b5d0a5953b1869184e96ad56eca18df84aa747af907b034eb",
            "6f374b9381cf973adbc45341a0613ef48a129909819a50c58e05087319a4f070",
        ]),
        shares: vec![
            vec![7_500, 7_500, 7_500, 7_500],
            vec![6_111, 10_555, 13_334],
            vec![15_000, 15_000],
        ],
        paid_executors: vec![2, 1, 2],
        readings: vec![(96, 0, 0), (72, 0, 3), (48, 0, 0)],
        proof_block: 24,
        retry_attempts: 3,
        abort_refund: 31_000,
        now: 128,
    }
}

/// Everything the scenario leaves behind that a caller can observe.
#[derive(Debug, PartialEq)]
struct Outcome {
    height: u64,
    head: String,
    state_root: String,
    /// SHA-256 over the `Debug` form of the whole contract event log.
    events_sha: String,
    /// Workloads A, B, C (D is aborted and has none).
    result_hashes: Vec<String>,
    shares: Vec<Vec<u128>>,
    paid_executors: Vec<usize>,
    /// `(accepted, rejected, out_of_bounds)` per executed workload.
    readings: Vec<(u64, u64, u64)>,
    proof_block: u64,
    retry_attempts: u32,
    abort_refund: u128,
    now: u64,
}

fn temperature_meta() -> Metadata {
    Metadata::new()
        .with(
            "type",
            MetaValue::Class("sensor/environment/temperature".into()),
            0,
        )
        .with("sample-rate-hz", MetaValue::Num(1.0), 1)
}

fn blocks(n: u32) -> NonZeroU32 {
    NonZeroU32::new(n).unwrap()
}

fn spec(code: &EnclaveCode, validation: &Dataset, min_providers: u32) -> WorkloadSpec {
    WorkloadSpec {
        title: "pin".into(),
        precondition: Requirement::HasClass {
            attr: "type".into(),
            class: "sensor/environment".into(),
        },
        task: TaskKind::BinaryClassification,
        feature_dim: validation.dim() as u32,
        provider_reward: 30_000,
        executor_fee: 1_000,
        reward_scheme: RewardScheme::ProportionalToRecords,
        min_providers,
        min_records: 20,
        code_measurement: code.measurement(),
        validation: validation.clone(),
        local_epochs: 8,
        aggregation_rounds: 3,
        dp_noise_multiplier: None,
        reward_token: None,
        data_bounds: None,
    }
}

fn scenario() -> Outcome {
    let mut market = Marketplace::new(17);
    let consumer = market.register_consumer(1, 1_000_000);
    let token = market
        .consumer_create_reward_token(consumer, "RWD", 500_000)
        .unwrap();

    // Four providers, alternating provider-owned and outsourced storage.
    let (train, validation) = gaussian_blobs(120, 3, 0.7, 7).split(0.2, 8);
    let mut providers = Vec::new();
    for (i, shard) in train.partition_iid(4, 9).iter().enumerate() {
        let storage = if i % 2 == 0 {
            StorageChoice::Local
        } else {
            StorageChoice::ThirdParty { publish_level: 1 }
        };
        let p = market.register_provider(1_000 + i as u64, storage);
        market.provider_add_device(p).unwrap();
        market
            .provider_ingest(p, 0, shard, temperature_meta())
            .unwrap();
        providers.push(p);
    }
    let executors: Vec<Address> = (0..3)
        .map(|i| market.register_executor(2_000 + i))
        .collect();
    // The workload-code NFT is unique per content hash: one binary each.
    let code = |tag: &str| EnclaveCode::new("trainer", 1, format!("trainer-{tag}").into_bytes());

    let mut result_hashes = Vec::new();
    let mut shares = Vec::new();
    let mut paid_executors = Vec::new();
    let mut readings = Vec::new();
    let mut record = |exec: &pds2_core::ExecutionReport, fin: &pds2_core::FinalizeReport| {
        result_hashes.push(exec.result_hash.to_hex());
        shares.push(fin.provider_shares.iter().map(|(_, v)| *v).collect());
        paid_executors.push(fin.paid_executors.len());
        readings.push((
            exec.readings_accepted,
            exec.readings_rejected,
            exec.readings_out_of_bounds,
        ));
        assert!(fin.slashed.is_empty());
    };

    // A: proportional rewards in native currency, two executors, all four
    // providers (so both storage configurations release data).
    let code_a = code("a");
    let a = market
        .submit_workload(consumer, spec(&code_a, &validation, 4), code_a, 2)
        .unwrap();
    market.executor_join(executors[0], a).unwrap();
    market.executor_join(executors[1], a).unwrap();
    assert_eq!(market.eligible_providers(a).unwrap().len(), 4);
    let assignments: Vec<_> = providers
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, executors[i % 2]))
        .collect();
    let (exec, fin) = market.run_full_lifecycle(a, &assignments).unwrap();
    assert_eq!(market.consumer_retrieve_result(a).unwrap().len(), 4);
    record(&exec, &fin);

    // B: Monte-Carlo Shapley paid from ERC-20 escrow, DP-SGD training, and
    // data bounds tight enough to discard some authentic readings.
    let code_b = code("b");
    let mut spec_b = spec(&code_b, &validation, 3);
    spec_b.reward_scheme = RewardScheme::ShapleyMonteCarlo { permutations: 6 };
    spec_b.reward_token = Some(token);
    spec_b.dp_noise_multiplier = Some(0.5);
    spec_b.local_epochs = 12;
    spec_b.data_bounds = Some((-2.5, 2.5));
    let b = market.submit_workload(consumer, spec_b, code_b, 1).unwrap();
    market.executor_join(executors[2], b).unwrap();
    let assignments: Vec<_> = providers[1..].iter().map(|&p| (p, executors[2])).collect();
    let (exec, fin) = market.run_full_lifecycle(b, &assignments).unwrap();
    assert!(exec.readings_out_of_bounds > 0, "bounds filter something");
    let (proof, header) = market.prove_participation(b, providers[2]).unwrap();
    assert!(header.verify_signature() && proof.verify(&header));
    let proof_block = proof.block_height;
    record(&exec, &fin);

    // C: every executor holding data crashes after START; the retry
    // backoff mines until their scheduled recovery and execution succeeds.
    let code_c = code("c");
    let c = market
        .submit_workload_with_timeout(
            consumer,
            spec(&code_c, &validation, 2),
            code_c,
            2,
            blocks(100),
        )
        .unwrap();
    market.executor_join(executors[0], c).unwrap();
    market.executor_join(executors[1], c).unwrap();
    market
        .provider_accept(providers[0], c, executors[0])
        .unwrap();
    market
        .provider_accept(providers[3], c, executors[1])
        .unwrap();
    assert!(market.try_start(c).unwrap());
    let height = market.chain.height();
    market
        .executor_crash(executors[0], Some(height + 3))
        .unwrap();
    market
        .executor_crash(executors[1], Some(height + 5))
        .unwrap();
    let (exec, retry_attempts) = market
        .execute_with_retry(c, RetryPolicy::default())
        .unwrap();
    let fin = market.finalize(c).unwrap();
    record(&exec, &fin);

    // D: the only executor crashes for good; the consumer is refunded once
    // the execution timeout has passed.
    let code_d = code("d");
    let d = market
        .submit_workload_with_timeout(
            consumer,
            spec(&code_d, &validation, 2),
            code_d,
            1,
            blocks(3),
        )
        .unwrap();
    market.executor_join(executors[2], d).unwrap();
    market
        .provider_accept(providers[1], d, executors[2])
        .unwrap();
    market
        .provider_accept(providers[2], d, executors[2])
        .unwrap();
    assert!(market.try_start(d).unwrap());
    market.executor_crash(executors[2], None).unwrap();
    assert!(market.execute(d).is_err());
    let abort_refund = market.abort_workload(d).unwrap();
    assert_eq!(market.workload_state(d).unwrap().phase, Phase::Cancelled);

    Outcome {
        height: market.chain.height(),
        head: market.chain.head_hash().to_hex(),
        state_root: market.chain.state.state_root().to_hex(),
        events_sha: sha256(format!("{:?}", market.chain.events()).as_bytes()).to_hex(),
        result_hashes,
        shares,
        paid_executors,
        readings,
        proof_block,
        retry_attempts,
        abort_refund,
        now: market.now(),
    }
}

#[test]
fn four_workload_scenario_repeats_byte_for_byte() {
    let _guard = obs::test_lock();
    let plain = scenario();
    let cap = obs::capture(obs::SinkKind::Null);
    let traced = scenario();
    let report = cap.finish();
    assert_eq!(plain, traced, "a capture must not change behaviour");
    assert_eq!(plain, pinned());
    assert_eq!(
        (report.digest.as_str(), report.events),
        (TRACE_DIGEST, TRACE_EVENTS)
    );
}
