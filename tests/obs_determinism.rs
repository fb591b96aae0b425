//! Observability determinism: the `pds2-obs` trace digest must be a
//! pure function of (seed, fault plan, workload) — bit-identical across
//! reruns and sink choices — and counter
//! snapshots must mirror the simulator's own accounting.
//!
//! Every test takes `obs::test_lock()`: the registry and collector are
//! process-global, so concurrent tests in this binary would interleave
//! captures and increments.

use pds2::market::marketplace::{Marketplace, StorageChoice};
use pds2::market::workload::{RewardScheme, TaskKind, WorkloadSpec};
use pds2::storage::semantic::{MetaValue, Metadata, Requirement};
use pds2::tee::measurement::EnclaveCode;
use pds2_bench::fleet::Fleet;
use pds2_bench::trace_scenario;
use pds2_chain::address::Address;
use pds2_chain::chain::{Blockchain, ChainConfig};
use pds2_chain::contract::ContractRegistry;
use pds2_chain::tx::{Transaction, TxKind};
use pds2_crypto::sha256::{sha256, Sha256};
use pds2_crypto::{Digest, KeyPair};
use pds2_learning::gossip::{run_gossip_experiment, GossipConfig, GossipRun};
use pds2_ml::data::gaussian_blobs;
use pds2_ml::model::LogisticRegression;
use pds2_net::{FaultPlan, LinkEffect, LinkModel, LinkScope};
use pds2_obs as obs;
use pds2_obs::jsonl::RawEvent;
use pds2_obs::report::TraceAnalysis;

mod common;

fn chaos_plan() -> FaultPlan {
    FaultPlan::new(0x0B5)
        .partition(1_500_000, 3_500_000, vec![vec![0, 1], vec![2, 3]])
        .crash(2, 4_000_000, Some(5_500_000))
        .byzantine(
            500_000,
            2_500_000,
            LinkScope::from_node(3),
            LinkEffect::Corrupt { probability: 0.3 },
        )
}

fn chaos_chain_run(seed: u64, until_us: u64) -> pds2_net::NetStats {
    let mut sim = Fleet::lan().build(seed, chaos_plan());
    sim.run_until(until_us);
    sim.stats()
}

/// Same (seed, plan, workload) ⇒ identical trace digest on a rerun and
/// with ring-buffer vs JSONL vs null sinks — the tentpole acceptance
/// criterion, on the full chaos stack.
#[test]
fn chain_chaos_trace_digest_is_thread_and_sink_invariant() {
    let _g = obs::test_lock();
    let digest_with = |kind: obs::SinkKind| {
        let cap = obs::capture(kind);
        chaos_chain_run(77, 9_000_000);
        cap.finish().digest
    };

    let ring = digest_with(obs::SinkKind::Ring(4096));

    let path = std::env::temp_dir().join("pds2_obs_determinism.jsonl");
    let jsonl = digest_with(obs::SinkKind::Jsonl(path.clone()));
    let lines = std::fs::read_to_string(&path).expect("jsonl trace written");
    std::fs::remove_file(&path).ok();
    assert!(!lines.is_empty(), "jsonl sink must record events");
    assert_eq!(ring, jsonl, "ring vs JSONL sink changed the digest");

    let null = digest_with(obs::SinkKind::Null);
    assert_eq!(null, ring, "null-sink rerun changed the digest");
}

/// The fee market (DESIGN.md §5f) under observation: a congestion ramp
/// that drives the base fee up and back down must produce the same
/// per-block base-fee trajectory, the same selection order, the same
/// state root *and* the same trace digest across ring/JSONL/null sinks
/// and reruns.
#[test]
fn fee_market_trajectory_is_thread_and_sink_invariant() {
    let _g = obs::test_lock();
    let scenario = || {
        pds2_chain::sigcache::clear();
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut chain = Blockchain::new(
            vec![KeyPair::from_seed(9000)],
            &[(Address::of(&alice.public), 1_000_000_000)],
            ContractRegistry::new(),
            ChainConfig {
                block_gas_limit: 60_000,
                initial_base_fee: 100,
                max_txs_per_block: usize::MAX,
                ..Default::default()
            },
        );
        for nonce in 0..24u64 {
            let tx = Transaction {
                from: alice.public.clone(),
                nonce,
                kind: TxKind::Transfer {
                    to: bob,
                    amount: 1 + nonce as u128,
                },
                gas_limit: 30_000,
                max_fee_per_gas: 1_000_000,
                priority_fee_per_gas: nonce % 5,
            }
            .sign(&alice);
            chain.submit(tx).expect("admission");
        }
        let mut fees = Vec::new();
        let mut order: Vec<Digest> = Vec::new();
        for _ in 0..16 {
            let block = chain.produce_block();
            fees.push(block.header.base_fee);
            order.extend(block.transactions.iter().map(|t| t.hash()));
        }
        (fees, order, chain.state.state_root())
    };
    let run_with = |kind: obs::SinkKind| {
        let cap = obs::capture(kind);
        let out = scenario();
        (cap.finish(), out)
    };

    let (ring, base) = run_with(obs::SinkKind::Ring(usize::MAX));
    assert!(ring.events > 0, "block production must emit trace events");
    let fees = &base.0;
    assert!(
        fees[11] > fees[0],
        "congestion must raise the fee: {fees:?}"
    );
    assert!(
        fees[15] < fees[11],
        "idle blocks must decay the fee: {fees:?}"
    );
    assert_eq!(base.1.len(), 24, "every transfer must land");

    let path = std::env::temp_dir().join("pds2_obs_fee_market.jsonl");
    let (jsonl, jsonl_out) = run_with(obs::SinkKind::Jsonl(path.clone()));
    let body = std::fs::read_to_string(&path).expect("jsonl trace written");
    std::fs::remove_file(&path).ok();
    assert!(!body.is_empty(), "jsonl sink must record events");
    assert_eq!(ring.digest, jsonl.digest, "ring vs JSONL digest");
    assert_eq!(jsonl_out, base, "ring vs JSONL fee trajectory");

    let (null, null_out) = run_with(obs::SinkKind::Null);
    assert_eq!(
        null.digest, ring.digest,
        "fee-market trace diverged on a rerun"
    );
    assert_eq!(null_out, base, "fee trajectory diverged on a rerun");
}

/// Counter deltas around one serial run mirror the simulator's own
/// `NetStats` exactly, and repeat exactly on a rerun (the sigcache
/// counters and the admission checks of its misses are excluded: warmth
/// legitimately shifts hit/miss splits).
#[test]
fn chain_counters_mirror_net_stats_and_replay() {
    let _g = obs::test_lock();
    let run_with_deltas = || {
        let before = obs::snapshot();
        let stats = chaos_chain_run(78, 8_000_000);
        let deltas = obs::snapshot().counter_deltas(&before);
        (stats, deltas)
    };
    let (stats, deltas) = run_with_deltas();
    common::assert_net_counters_mirror(&deltas, &[stats]);
    assert!(deltas["chain.blocks_produced"] > 0, "{deltas:?}");
    assert!(deltas["chain.blocks_validated"] > 0, "{deltas:?}");

    let (stats2, deltas2) = run_with_deltas();
    assert_eq!(stats2, stats, "chaos run must replay bit-identically");
    let strip_sigcache = |d: &std::collections::BTreeMap<String, u64>| {
        d.iter()
            .filter(|(k, _)| !k.starts_with("chain.sigcache") && !k.starts_with("chain.admit_"))
            .map(|(k, v)| (k.clone(), *v))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        strip_sigcache(&deltas2),
        strip_sigcache(&deltas),
        "counter deltas must replay exactly for a serial workload"
    );
}

/// The counters are published from each simulator's own tally, so two
/// simulators stepped alternately in one process add up: the deltas are
/// the sum of both `stats()`, field by field.
#[test]
fn two_interleaved_simulators_sum_into_the_counters() {
    let _g = obs::test_lock();
    let before = obs::snapshot();
    let mut a = Fleet::lan().build(81, chaos_plan());
    let mut b = Fleet::lan().build(82, common::golden_plan());
    for step in 1..=6u64 {
        a.run_until(step * 1_000_000);
        b.run_until(step * 1_100_000);
    }
    let deltas = obs::snapshot().counter_deltas(&before);
    assert_ne!(a.stats(), b.stats(), "the two runs must differ");
    assert!(a.stats().crashes + b.stats().crashes == 2);
    common::assert_net_counters_mirror(&deltas, &[a.stats(), b.stats()]);
}

// Generated at `607a187`, when `sim.rs` wrote each fate's row inline
// beside its `NetStats` field and its counter.
const NET_ROWS: usize = 1893;
const NET_ROWS_SHA256: &str = "e26fd9399651fed1962ac7683fab9b901539a17fe1b35f181adb88a82a7d79df";

/// Every row the simulator writes, byte for byte: the golden all-faults
/// scenario (every fate but loss, duplication and reordering), then a
/// lossy two-node run under duplication and reordering, both under a
/// minted root context so the rows' trace and parent ids are pinned too.
#[test]
fn net_rows_match_the_pin_generated_at_the_parent() {
    let _g = obs::test_lock();
    let cap = obs::capture(obs::SinkKind::Ring(usize::MAX));
    let root = obs::new_trace("test", "net_pin", obs::Stamp::Sim(0), Vec::new());
    let mut golden = Fleet::lan().build(0x601D, common::golden_plan());
    golden.set_root_ctx(root.ctx());
    golden.run_until(10_050_000);
    let lan = Fleet::lan();
    let lossy_link = LinkModel {
        drop_probability: 0.2,
        ..lan.link
    };
    let lossy_plan = FaultPlan::new(0x1055)
        .byzantine(
            0,
            2_000_000,
            LinkScope::any(),
            LinkEffect::Duplicate {
                probability: 0.3,
                extra_delay_us: 700,
            },
        )
        .byzantine(
            500_000,
            3_000_000,
            LinkScope::any(),
            LinkEffect::Reorder {
                probability: 0.3,
                max_extra_delay_us: 40_000,
            },
        );
    let lossy = Fleet {
        replicas: 2,
        link: lossy_link,
        ..Fleet::lan()
    };
    let mut lossy = lossy.build(0x1055, lossy_plan);
    lossy.set_root_ctx(root.ctx());
    lossy.run_until(3_000_000);
    drop(root);
    let report = cap.finish();

    let rows: Vec<String> = report
        .entries
        .iter()
        .filter(|e| e.domain == "net")
        .map(|e| e.to_json())
        .collect();
    for name in [
        "run",
        "deliver",
        "drop.partition",
        "drop.censor",
        "drop.offline",
        "drop.loss",
        "corrupt",
        "duplicate",
        "reorder",
        "crash",
        "recover",
    ] {
        let needle = format!("\"name\":\"{name}\"");
        assert!(
            rows.iter().any(|r| r.contains(&needle)),
            "the scenario must write a {name} row"
        );
    }
    let mut h = Sha256::new();
    for row in &rows {
        h.update(row.as_bytes());
        h.update(b"\n");
    }
    assert_eq!(
        (rows.len(), h.finalize().to_hex().as_str()),
        (NET_ROWS, NET_ROWS_SHA256),
        "the simulator's rows moved"
    );
}

/// The marketplace lifecycle trace — contract phase transitions, escrow
/// funding, block production spans — is deterministic across reruns,
/// and the lifecycle counters move as the contract walks
/// Open → Executing → Completed.
#[test]
fn marketplace_lifecycle_trace_is_deterministic() {
    let _g = obs::test_lock();
    let lifecycle = || {
        let mut market = Marketplace::new(5);
        let consumer = market.register_consumer(1, 10_000_000);
        let data = gaussian_blobs(240, 4, 0.7, 3);
        let (train, validation) = data.split(0.2, 4);
        let shards = train.partition_iid(3, 5);
        let mut providers = Vec::new();
        for (i, shard) in shards.iter().enumerate() {
            let p = market.register_provider(1000 + i as u64, StorageChoice::Local);
            market.provider_add_device(p).unwrap();
            let meta = Metadata::new().with(
                "type",
                MetaValue::Class("sensor/environment/temperature".into()),
                0,
            );
            market.provider_ingest(p, 0, shard, meta).unwrap();
            providers.push(p);
        }
        let executors: Vec<Address> = (0..2).map(|i| market.register_executor(2000 + i)).collect();
        let code = EnclaveCode::new("trainer", 1, b"trainer-v1".to_vec());
        let spec = WorkloadSpec {
            title: "obs".into(),
            precondition: Requirement::HasClass {
                attr: "type".into(),
                class: "sensor/environment".into(),
            },
            task: TaskKind::BinaryClassification,
            feature_dim: validation.dim() as u32,
            provider_reward: 30_000,
            executor_fee: 1_000,
            reward_scheme: RewardScheme::ProportionalToRecords,
            min_providers: 3,
            min_records: 20,
            code_measurement: code.measurement(),
            validation,
            local_epochs: 4,
            aggregation_rounds: 2,
            dp_noise_multiplier: None,
            reward_token: None,
            data_bounds: None,
        };
        let workload = market.submit_workload(consumer, spec, code, 2).unwrap();
        for &e in &executors {
            market.executor_join(e, workload).unwrap();
        }
        let assignments: Vec<_> = providers
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, executors[i % 2]))
            .collect();
        market.run_full_lifecycle(workload, &assignments).unwrap();
    };

    let before = obs::snapshot();
    let cap = obs::capture(obs::SinkKind::Ring(usize::MAX));
    lifecycle();
    let report = cap.finish();
    let deltas = obs::snapshot().counter_deltas(&before);
    assert!(report.events > 0);
    assert_eq!(deltas["market.contracts_created"], 1);
    assert_eq!(deltas["market.contracts_started"], 1);
    assert_eq!(deltas["market.contracts_completed"], 1);
    assert_eq!(deltas["market.executions"], 1);
    assert!(deltas["market.fund_calls"] >= 1);
    assert!(deltas["chain.blocks_produced"] > 0);
    assert!(
        report
            .entries
            .iter()
            .any(|e| e.domain == "market" && e.name == "contract.phase"),
        "phase-transition events must be traced"
    );

    let cap = obs::capture(obs::SinkKind::Null);
    lifecycle();
    let again = cap.finish();
    assert_eq!(
        again.digest, report.digest,
        "lifecycle trace diverged on a rerun"
    );
    assert_eq!(again.events, report.events);
}

/// E16 acceptance: the shared trace-lifecycle scenario (faulty
/// marketplace lifecycle + chaos chain sync + gossip under corruption)
/// produces a causal DAG whose critical-path report — text and digest —
/// is bit-identical across reruns and across the ring, JSONL and null
/// sinks, and every trace has a non-empty critical path.
#[test]
fn trace_lifecycle_critical_path_is_thread_and_sink_invariant() {
    let _g = obs::test_lock();
    const SEED: u64 = 0xE16;

    // Reference: ring capture analysed from in-memory events.
    let cap = obs::capture(obs::SinkKind::Ring(usize::MAX));
    trace_scenario::run(SEED);
    let ring = cap.finish();
    let raw: Vec<RawEvent> = ring.entries.iter().map(RawEvent::from).collect();
    let ring_analysis = TraceAnalysis::from_events(&raw);
    let ring_text = ring_analysis.render_text();
    assert!(!ring_analysis.traces.is_empty(), "scenario mints traces");
    for t in &ring_analysis.traces {
        assert!(
            !t.critical_path.is_empty(),
            "trace {} has an empty critical path",
            t.root_label
        );
    }
    // The lifecycle spans the whole submit→payout story: at least one
    // workload trace pairs a submit root with a payout, and the chaos
    // plan forces at least one retry event into the DAG.
    assert!(
        !ring_analysis.submit_to_payout_us.is_empty(),
        "completed workload must yield a submit→payout sample"
    );
    assert!(
        !ring_analysis.hop_latencies_us.is_empty(),
        "cross-node deliveries must yield hop latencies"
    );
    assert!(
        !ring_analysis.blocks_to_inclusion.is_empty(),
        "included txs must yield blocks-to-inclusion samples"
    );

    // JSONL capture: re-parse the file and require the identical report.
    let path = std::env::temp_dir().join("pds2_trace_e16_test.jsonl");
    let cap = obs::capture(obs::SinkKind::Jsonl(path.clone()));
    trace_scenario::run(SEED);
    let jsonl = cap.finish();
    let body = std::fs::read_to_string(&path).expect("jsonl written");
    std::fs::remove_file(&path).ok();
    let jsonl_analysis = TraceAnalysis::from_jsonl(&body);
    assert_eq!(ring.digest, jsonl.digest, "capture digest: ring vs jsonl");
    assert_eq!(
        ring_text,
        jsonl_analysis.render_text(),
        "critical-path report: ring vs jsonl reconstruction"
    );
    assert_eq!(
        ring_analysis.report_digest(),
        jsonl_analysis.report_digest()
    );

    // Null-sink rerun: the capture digest is a pure function of the seed.
    let cap = obs::capture(obs::SinkKind::Null);
    trace_scenario::run(SEED);
    assert_eq!(
        cap.finish().digest,
        ring.digest,
        "E16 digest diverged on a rerun"
    );
}

/// Gossip learning under byzantine corruption: eval events are digested
/// deterministically on a rerun, and the migrated
/// `learning.corrupted_dropped` registry counter agrees with the
/// per-node totals summed into `GossipOutcome`.
#[test]
fn gossip_trace_and_corruption_counter_are_deterministic() {
    let _g = obs::test_lock();
    let run = || {
        let data = gaussian_blobs(400, 3, 0.7, 1);
        let (train, test) = data.split(0.25, 2);
        let shards = train.partition_iid(8, 3);
        let plan = FaultPlan::new(0xC0FF).byzantine(
            200_000,
            2_000_000,
            LinkScope::any(),
            LinkEffect::Corrupt { probability: 0.3 },
        );
        let cfg = GossipConfig {
            period_us: 100_000,
            ..Default::default()
        };
        let run = GossipRun {
            faults: plan,
            ..GossipRun::new(cfg, LinkModel::instant(), 7, &[1_500_000, 4_000_000])
        };
        run_gossip_experiment(shards, &test, &run, || LogisticRegression::new(3))
    };

    let before = obs::snapshot();
    let cap = obs::capture(obs::SinkKind::Ring(usize::MAX));
    let out = run();
    let report = cap.finish();
    let deltas = obs::snapshot().counter_deltas(&before);
    assert!(out.corrupted_dropped > 0, "corruption must be observed");
    assert_eq!(
        deltas["learning.corrupted_dropped"], out.corrupted_dropped,
        "registry counter must agree with the bespoke per-node totals"
    );
    assert_eq!(deltas["learning.gossip_evals"], 2);
    let evals: Vec<_> = report
        .entries
        .iter()
        .filter(|e| e.domain == "learning" && e.name == "gossip.eval")
        .collect();
    assert_eq!(evals.len(), 2, "one eval event per evaluation point");

    let cap = obs::capture(obs::SinkKind::Null);
    let again = run();
    assert_eq!(
        cap.finish().digest,
        report.digest,
        "gossip trace diverged on a rerun"
    );
    assert_eq!(again.models_transferred, out.models_transferred);
}

/// PR 10 tentpole acceptance: segment checkpoints (samples of the
/// running trace digest) and burn-rate alert events are part of the
/// deterministic surface — bit-identical across reruns and ring/JSONL/null
/// sinks, with the JSONL sink's interleaved checkpoint rows exactly
/// mirroring the report's.
#[test]
fn segment_checkpoints_and_alert_events_are_thread_and_sink_invariant() {
    let _g = obs::test_lock();
    let rule = pds2_obs::window::SloRule {
        name: "chaos.inclusion_latency",
        threshold: 1_000,
        budget_bp: 100,
        short_window_us: 500_000,
        long_window_us: 2_000_000,
        fire_burn_x100: 1000,
        min_count: 20,
    };
    // Chaos chain sync (multi-segment event volume) followed by a
    // serial latency stream that drives one fire → resolve alert cycle.
    let workload = move || {
        chaos_chain_run(79, 9_000_000);
        chaos_chain_run(80, 9_000_000);
        let mut mon = pds2_obs::window::SloMonitor::new(rule);
        for i in 0..600u64 {
            let v = if (200..300).contains(&i) && i % 2 == 0 {
                5_000
            } else {
                100
            };
            mon.observe(9_000_000 + i * 10_000, v);
        }
        assert_eq!(mon.fired_count(), 1, "the breach phase must fire once");
        assert!(!mon.firing(), "the recovery phase must resolve");
    };
    let run_with = |kind: obs::SinkKind| {
        let cap = obs::capture(kind);
        workload();
        cap.finish()
    };

    let ring = run_with(obs::SinkKind::Ring(usize::MAX));
    assert!(
        ring.events > 2 * obs::SEGMENT_EVENTS,
        "workload must span multiple segments, got {} events",
        ring.events
    );
    assert!(ring.segments.len() >= 2);
    // The running digest after each event, from a fold written out below.
    let running: Vec<Digest> = (ring.entries.iter())
        .scan(sha256(b"pds2-obs-trace-v1"), |d, e| {
            *d = fold(*d, e);
            Some(*d)
        })
        .collect();
    for (i, cp) in ring.segments.iter().enumerate() {
        assert_eq!(cp.index, i as u64, "checkpoint indices are dense");
        assert_eq!(cp.chained, running[cp.end_seq as usize], "checkpoint {i}");
    }
    let last = ring.segments.last().map(|cp| cp.chained.to_hex());
    assert_eq!(
        last,
        Some(ring.digest.clone()),
        "the last checkpoint is the digest"
    );
    assert!(
        ring.entries
            .iter()
            .any(|e| e.domain == "slo" && e.name == "alert.fire"),
        "the alert transition must be a digested trace event"
    );

    // JSONL: digest, checkpoint rows and trailer all agree with ring.
    let path = std::env::temp_dir().join("pds2_obs_segments.jsonl");
    let jsonl = run_with(obs::SinkKind::Jsonl(path.clone()));
    let body = std::fs::read_to_string(&path).expect("jsonl trace written");
    std::fs::remove_file(&path).ok();
    assert_eq!(ring.digest, jsonl.digest, "ring vs JSONL digest");
    assert_eq!(ring.segments, jsonl.segments, "ring vs JSONL checkpoints");
    let checkpoint_rows: Vec<&str> = body
        .lines()
        .filter(|l| l.starts_with("{\"checkpoint\""))
        .collect();
    assert_eq!(
        checkpoint_rows.len(),
        jsonl.segments.len(),
        "one interleaved checkpoint row per segment"
    );
    for (row, cp) in checkpoint_rows.iter().zip(jsonl.segments.iter()) {
        assert_eq!(**row, cp.to_json(), "sink row mirrors the report");
    }
    assert!(
        body.lines()
            .last()
            .is_some_and(|l| l.starts_with("{\"segments\"") && l.contains(&jsonl.digest)),
        "the trailer row must carry the trace digest"
    );

    let null = run_with(obs::SinkKind::Null);
    assert_eq!(null.digest, ring.digest, "digest diverged on a rerun");
    assert_eq!(
        null.segments, ring.segments,
        "segment checkpoints diverged on a rerun"
    );
}

/// The collector's fold, `d' = H(d ‖ encode(event))`, with `Event::encode`'s
/// layout (length-prefixed, little-endian, a tag byte per variant) written
/// out again, so the checkpoints are checked against a copy that shares no
/// code with the collector.
fn fold(digest: Digest, e: &obs::Event) -> Digest {
    let mut b = e.seq.to_le_bytes().to_vec();
    b.push(e.kind as u8);
    for name in [e.domain, e.name] {
        b.push(name.len() as u8);
        b.extend(name.as_bytes());
    }
    for id in [e.span, e.trace, e.parent] {
        b.extend(id.to_le_bytes());
    }
    let (tag, t) = match e.stamp {
        obs::Stamp::None => (0u8, 0),
        obs::Stamp::Sim(t) => (1, t),
        obs::Stamp::Block(h) => (2, h),
        obs::Stamp::Round(r) => (3, r),
    };
    b.push(tag);
    b.extend(t.to_le_bytes());
    b.push(e.fields.len() as u8);
    for (key, value) in &e.fields {
        b.push(key.len() as u8);
        b.extend(key.as_bytes());
        match value {
            obs::Value::U64(v) => b.extend([&[0][..], &v.to_le_bytes()].concat()),
            obs::Value::U128(v) => b.extend([&[1][..], &v.to_le_bytes()].concat()),
            obs::Value::I64(v) => b.extend([&[2][..], &v.to_le_bytes()].concat()),
            obs::Value::F64(v) => b.extend([&[3][..], &v.to_bits().to_le_bytes()].concat()),
            obs::Value::Str(v) => {
                b.push(4);
                b.extend((v.len() as u32).to_le_bytes());
                b.extend(v.as_bytes());
            }
        }
    }
    let mut h = Sha256::new();
    h.update(digest.as_bytes());
    h.update(&b);
    h.finalize()
}
