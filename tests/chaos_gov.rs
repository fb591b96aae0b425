//! Chaos harness for threshold-federated governance (DESIGN.md §5i):
//! the t-of-n signing committee under byzantine shareholders, quorum
//! partitions and crash-recovery races during proactive refresh — plus
//! chain replicas under the golden chaos plan, their chains built with
//! `SigMode::Threshold` sealing.
//!
//! Mirrors `tests/chaos.rs`: every scenario asserts the *protocol*
//! property (t-of-n signs, t−1 cannot, recovery restores the share) and
//! the *harness* property (bit-identical replay from the seed at any
//! worker count (`with_threads`), pinned by golden fixtures —
//! `fixtures/gov_golden.txt` for the committee protocol,
//! `fixtures/chaos_golden_threshold.txt` for threshold-sealed sync).

use pds2_chain::address::Address;
use pds2_chain::chain::{Blockchain, ChainConfig};
use pds2_chain::contract::ContractRegistry;
use pds2_chain::sync::{kind, ChainReplica, GenesisFactory};
use pds2_chain::threshold::SigMode;
use pds2_crypto::sha256::Sha256;
use pds2_crypto::{Digest, KeyPair};
use pds2_gov::dkg::{run_dkg_quiet, ThresholdParams};
use pds2_gov::net::{GovConfig, GovMsg, GovNode};
use pds2_net::{FaultPlan, LinkEffect, LinkModel, LinkScope, NetStats, Simulator};
use pds2_obs as obs;
use std::collections::BTreeSet;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

// ---------------------------------------------------------------------
// Committee protocol scenarios (GovNode over the network simulator).
// ---------------------------------------------------------------------

fn digests(n: usize) -> Vec<[u8; 32]> {
    (0..n as u8)
        .map(|i| {
            let mut d = [0u8; 32];
            d[0] = i + 1;
            d[31] = 0xA5;
            d
        })
        .collect()
}

fn gov_cfg(t: usize, n: usize, n_digests: usize) -> GovConfig {
    GovConfig {
        seed: 0x90F,
        params: ThresholdParams::new(t, n).unwrap(),
        refresh_at: None,
        digests: digests(n_digests),
        byzantine: BTreeSet::new(),
    }
}

fn gov_link() -> LinkModel {
    LinkModel {
        base_latency_us: 2_000,
        jitter_us: 500,
        bandwidth_bytes_per_sec: 12_500_000,
        drop_probability: 0.0,
        node_slowdown: Vec::new(),
        topology: None,
    }
}

/// Everything comparable about one committee run.
#[derive(Clone, Debug, PartialEq)]
struct GovRun {
    /// The obs trace digest of the run.
    trace: String,
    /// Digest over the aggregator's completed `(seq, R, s)` signatures.
    sigs: Digest,
    /// The aggregator's completed signatures, by sequence number.
    completed: Vec<(u64, pds2_crypto::schnorr::Signature)>,
    /// Final share epoch per node (u64::MAX = share still lost).
    epochs: Vec<u64>,
    stats: NetStats,
}

fn run_gov(cfg: &GovConfig, sim_seed: u64, plan: Option<FaultPlan>, until: u64) -> GovRun {
    let mut sim = Simulator::new(GovNode::build(cfg), gov_link(), sim_seed);
    if let Some(p) = plan {
        sim.install_fault_plan(p);
    }
    let cap = obs::capture(obs::SinkKind::Null);
    sim.run_until(until);
    let trace = cap.finish().digest;
    let agg: &GovNode = sim.node(0);
    let mut h = Sha256::new();
    for (seq, sig) in &agg.completed {
        h.update(&seq.to_le_bytes());
        h.update(&sig.to_wire());
    }
    GovRun {
        trace,
        sigs: h.finalize(),
        completed: agg
            .completed
            .iter()
            .map(|(seq, sig)| (*seq, sig.clone()))
            .collect(),
        epochs: sim
            .nodes()
            .map(|n: &GovNode| n.share_epoch().unwrap_or(u64::MAX))
            .collect(),
        stats: sim.stats(),
    }
}

/// All digests signed, and every aggregate verifies under the single
/// group public key — proactive refresh must never invalidate one.
fn assert_sigs_verify(cfg: &GovConfig, run: &GovRun) {
    assert_eq!(run.completed.len(), cfg.digests.len(), "{run:?}");
    let (committee, _) = run_dkg_quiet(cfg.seed, cfg.params).unwrap();
    for (seq, sig) in &run.completed {
        assert!(
            committee
                .group_public()
                .verify(&cfg.digests[*seq as usize], sig),
            "aggregate for seq {seq} must verify under the group key"
        );
    }
}

fn assert_gov_replays(
    cfg: &GovConfig,
    sim_seed: u64,
    plan: impl Fn() -> Option<FaultPlan>,
    until: u64,
    base: &GovRun,
) {
    let again = run_gov(cfg, sim_seed, plan(), until);
    assert_eq!(&again, base, "re-run of the same seed diverged");
    for threads in THREAD_COUNTS {
        let r = pds2_par::with_threads(threads, || run_gov(cfg, sim_seed, plan(), until));
        assert_eq!(&r, base, "run diverged at {threads} threads");
    }
}

/// One `"<trace> <sig-digest>"` pair per line: line 1 byzantine
/// shareholder, line 2 partitioned sub-quorum, line 3 crash-recovery
/// across refresh.
fn gov_fixture_line(n: usize) -> (&'static str, &'static str) {
    let fixture = include_str!("fixtures/gov_golden.txt");
    let line = fixture
        .lines()
        .nth(n)
        .unwrap_or_else(|| panic!("fixture line {} missing", n + 1));
    let mut fields = line.split_whitespace();
    (
        fields.next().expect("fixture: trace digest"),
        fields.next().expect("fixture: sig digest"),
    )
}

fn assert_gov_fixture(line: usize, run: &GovRun) {
    let (want_trace, want_sigs) = gov_fixture_line(line);
    assert_eq!(
        run.trace,
        want_trace,
        "gov trace changed; if this is an intended protocol change, \
         update line {} of tests/fixtures/gov_golden.txt to:\n{} {}",
        line + 1,
        run.trace,
        run.sigs.to_hex()
    );
    assert_eq!(
        run.sigs.to_hex(),
        want_sigs,
        "aggregate signatures changed; if intended, update line {} of \
         tests/fixtures/gov_golden.txt to:\n{} {}",
        line + 1,
        run.trace,
        run.sigs.to_hex()
    );
}

#[test]
fn byzantine_shareholder_is_blacklisted_and_quorum_signs() {
    let _obs = obs::test_lock();
    let mut cfg = gov_cfg(3, 5, 3);
    cfg.byzantine.insert(2); // validator 3 sends corrupt partials
    let before = obs::snapshot();
    let run = run_gov(&cfg, 0xB1, None, 5_000_000);
    let d = obs::snapshot().counter_deltas(&before);
    assert!(
        d.get("gov.partials_rejected").copied().unwrap_or(0) > 0,
        "the byzantine partial must be caught by the dual-exp check: {d:?}"
    );
    assert!(
        d.get("gov.aggregations").copied().unwrap_or(0) >= 3,
        "{d:?}"
    );
    assert_sigs_verify(&cfg, &run);
    assert_gov_replays(&cfg, 0xB1, || None, 5_000_000, &run);
    assert_gov_fixture(0, &run);
}

#[test]
fn partitioned_subquorum_stalls_then_heals() {
    let _obs = obs::test_lock();
    let cfg = gov_cfg(3, 5, 3);
    // Aggregator's island holds only 2 shares (< t): signing must stall
    // for the whole partition and complete after the heal via retries.
    // (The partition starts at t=1µs — before any round-trip can land —
    // so this is also the t−1 liveness bound: a sub-threshold island
    // retries forever and never produces a signature.)
    let plan =
        || Some(FaultPlan::new(0x9A27).partition(1, 1_500_000, vec![vec![0, 1], vec![2, 3, 4]]));
    let mid = run_gov(&cfg, 0x5E, plan(), 1_400_000);
    assert!(
        mid.completed.is_empty(),
        "a sub-quorum island must not produce any signature: {mid:?}"
    );
    let run = run_gov(&cfg, 0x5E, plan(), 6_000_000);
    assert!(
        run.stats.dropped_partition > 0,
        "partition must sever committee traffic: {:?}",
        run.stats
    );
    assert_sigs_verify(&cfg, &run);
    assert_gov_replays(&cfg, 0x5E, plan, 6_000_000, &run);
    assert_gov_fixture(1, &run);
}

#[test]
fn crash_recovery_race_across_refresh_rebuilds_share() {
    let _obs = obs::test_lock();
    let mut cfg = gov_cfg(3, 5, 4);
    cfg.refresh_at = Some(500_000);
    // Node 3 crashes before the refresh and recovers after it: its
    // share is gone, the epoch moved on underneath it, and break-glass
    // recovery must rebuild the *epoch-1* share from t helpers.
    let plan = || Some(FaultPlan::new(0xC3A5).crash(3, 400_000, Some(700_000)));
    let before = obs::snapshot();
    let run = run_gov(&cfg, 0x7C, plan(), 8_000_000);
    let d = obs::snapshot().counter_deltas(&before);
    assert!(
        d.get("gov.share_recoveries").copied().unwrap_or(0) > 0,
        "recovery must run: {d:?}"
    );
    assert!(
        d.get("gov.share_refreshes").copied().unwrap_or(0) > 0,
        "refresh must run: {d:?}"
    );
    assert_eq!(run.stats.crashes, 1);
    assert_eq!(run.stats.recoveries, 1);
    // Everyone — including the recovered node — ends at epoch 1 with a
    // live share, and every digest got signed despite the churn.
    assert_eq!(run.epochs, vec![1, 1, 1, 1, 1], "{run:?}");
    assert_sigs_verify(&cfg, &run);
    assert_gov_replays(&cfg, 0x7C, plan, 8_000_000, &run);
    assert_gov_fixture(2, &run);
}

// ---------------------------------------------------------------------
// Threshold-sealed chain replicas under the golden chaos plan.
// ---------------------------------------------------------------------

const N_REPLICAS: usize = 4;

fn threshold_factory() -> GenesisFactory {
    Arc::new(|| {
        Blockchain::new(
            (0..N_REPLICAS as u64)
                .map(|i| KeyPair::from_seed(9_000 + i))
                .collect(),
            &[(Address::of(&KeyPair::from_seed(1).public), 1_000_000)],
            ContractRegistry::new(),
            ChainConfig {
                sig_mode: SigMode::Threshold,
                ..ChainConfig::default()
            },
        )
    })
}

fn fast_link() -> LinkModel {
    LinkModel {
        base_latency_us: 5_000,
        jitter_us: 2_000,
        bandwidth_bytes_per_sec: 12_500_000,
        drop_probability: 0.0,
        node_slowdown: Vec::new(),
        topology: None,
    }
}

#[derive(Clone, Debug, PartialEq)]
struct ChainRun {
    trace: String,
    heads: Vec<Digest>,
    roots: Vec<Digest>,
    heights: Vec<u64>,
    stats: NetStats,
}

fn run_threshold_chain(sink: obs::SinkKind, seed: u64, plan: FaultPlan, until_us: u64) -> ChainRun {
    let f = threshold_factory();
    let replicas: Vec<ChainReplica> = (0..N_REPLICAS)
        .map(|i| ChainReplica::new(f.clone(), Some(i), 200_000, 150_000))
        .collect();
    let mut sim = Simulator::new(replicas, fast_link(), seed);
    sim.install_fault_plan(plan);
    let cap = obs::capture(sink);
    sim.run_until(until_us);
    ChainRun {
        trace: cap.finish().digest,
        heads: sim.nodes().map(|r| r.chain().head_hash()).collect(),
        roots: sim.nodes().map(|r| r.chain().state.state_root()).collect(),
        heights: sim.nodes().map(|r| r.chain().height()).collect(),
        stats: sim.stats(),
    }
}

/// The same all-faults plan as `chaos.rs::golden_plan` — the point is
/// that threshold sealing survives the identical gauntlet.
fn golden_plan() -> FaultPlan {
    FaultPlan::new(0x601D)
        .partition(1_500_000, 3_500_000, vec![vec![0, 3], vec![1, 2]])
        .crash(1, 4_000_000, Some(5_500_000))
        .byzantine(
            500_000,
            2_500_000,
            LinkScope::from_node(3),
            LinkEffect::Corrupt { probability: 0.3 },
        )
        .drop_kind(6_000_000, 7_000_000, LinkScope::any(), kind::NEW_BLOCK, 1.0)
}

#[test]
fn threshold_sealed_chain_survives_golden_chaos() {
    let _obs = obs::test_lock();
    let chaos = || run_threshold_chain(obs::SinkKind::Null, 0x601D, golden_plan(), 10_050_000);
    let run = chaos();
    for i in 1..N_REPLICAS {
        assert_eq!(run.heads[i], run.heads[0], "replica {i} head diverged");
        assert_eq!(run.roots[i], run.roots[0], "replica {i} root diverged");
    }
    assert!(run.heights[0] >= 10, "{:?}", run.heights);
    // Bit-identical replay at every worker count.
    assert_eq!(chaos(), run, "re-run of the same seed diverged");
    for threads in THREAD_COUNTS {
        let r = pds2_par::with_threads(threads, chaos);
        assert_eq!(r, run, "run diverged at {threads} threads");
    }
    // Pinned fixture (line 1 of chaos_golden_threshold.txt).
    let fixture = include_str!("fixtures/chaos_golden_threshold.txt");
    let mut fields = fixture
        .lines()
        .next()
        .expect("fixture line 1 missing")
        .split_whitespace();
    let want_trace = fields.next().expect("fixture: trace digest");
    let want_root = fields.next().expect("fixture: state root");
    assert_eq!(
        run.trace,
        want_trace,
        "threshold chaos trace changed; if this is an intended protocol \
         change, update line 1 of tests/fixtures/chaos_golden_threshold.txt to:\n{} {}",
        run.trace,
        run.roots[0].to_hex()
    );
    assert_eq!(
        run.roots[0].to_hex(),
        want_root,
        "threshold chaos state root changed; if intended, update line 1 \
         of tests/fixtures/chaos_golden_threshold.txt to:\n{} {}",
        run.trace,
        run.roots[0].to_hex()
    );
}

/// The obs trace digest of a threshold-sealed chaos run is sink- and
/// thread-invariant — `gov/sign` spans and the committee cache must not
/// leak nondeterminism into the digest.
#[test]
fn threshold_chain_obs_digest_is_thread_and_sink_invariant() {
    let _obs = obs::test_lock();
    let digest_with = |kind: obs::SinkKind, threads: usize| {
        pds2_par::with_threads(threads, || {
            run_threshold_chain(kind, 0x601D, golden_plan(), 6_000_000)
        })
        .trace
    };
    let ring = digest_with(obs::SinkKind::Ring(usize::MAX), 1);
    let path = std::env::temp_dir().join("pds2_chaos_gov_obs.jsonl");
    let jsonl = digest_with(obs::SinkKind::Jsonl(path.clone()), 1);
    std::fs::remove_file(&path).ok();
    assert_eq!(ring, jsonl, "ring vs JSONL sink changed the digest");
    for threads in THREAD_COUNTS {
        let d = digest_with(obs::SinkKind::Null, threads);
        assert_eq!(d, ring, "obs digest diverged at {threads} threads");
    }
}

/// Drive one GovMsg through the trace to make sure the enum stays
/// object-safe for the simulator's tracing (kind/size sanity).
#[test]
fn gov_msg_kinds_and_sizes_are_stable() {
    use pds2_net::sim::Node;
    let req = GovMsg::RecoverReq { epoch: 0 };
    assert_eq!(<GovNode as Node>::msg_kind(&req), 4);
    assert_eq!(<GovNode as Node>::msg_size(&req), 8);
}
