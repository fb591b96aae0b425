//! Chaos harness for threshold-federated governance (DESIGN.md §5i):
//! the t-of-n signing committee under byzantine shareholders, quorum
//! partitions and an aggregator crash between signing rounds.
//!
//! Mirrors `tests/chaos.rs`: every scenario asserts the *protocol*
//! property (t-of-n signs, t−1 cannot, a restarted aggregator resumes
//! where it stopped) and the *harness* property (bit-identical replay
//! from the seed, pinned by `fixtures/gov_golden.txt`).

use pds2_crypto::sha256::Sha256;
use pds2_crypto::BigUint;
use pds2_crypto::Digest;
use pds2_gov::dkg::{run_dkg, ThresholdParams};
use pds2_gov::net::{GovConfig, GovMsg, GovNode};
use pds2_net::{FaultPlan, LinkModel, NetStats, Simulator};
use pds2_obs as obs;
use std::collections::BTreeSet;

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
    stats: NetStats,
}

fn run_gov(cfg: &GovConfig, sim_seed: u64, plan: Option<FaultPlan>, until: u64) -> GovRun {
    let mut sim = Simulator::new(GovNode::build(cfg).unwrap(), gov_link(), sim_seed);
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
        stats: sim.stats(),
    }
}

/// All digests signed, and every aggregate verifies under the single
/// group public key — no fault may leave an unverifiable one behind.
fn assert_sigs_verify(cfg: &GovConfig, run: &GovRun) {
    assert_eq!(run.completed.len(), cfg.digests.len(), "{run:?}");
    let (committee, _) = run_dkg(cfg.seed, cfg.params).unwrap();
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
}

/// One `"<trace> <sig-digest>"` pair per line: line 1 byzantine
/// shareholder, line 2 partitioned sub-quorum, line 3 aggregator crash
/// between rounds.
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
fn aggregator_crash_between_rounds_resumes_at_next_seq() {
    let _obs = obs::test_lock();
    let cfg = gov_cfg(3, 5, 4);
    // The aggregator (node 0) crashes after fixing seq 1's signer set and
    // before its partials land (round 2 in flight), and stays down past
    // three retry periods. Its in-flight state is lost; its completed
    // signatures and every member's share and nonce guard survive. On
    // recovery it resumes at its next unsigned sequence.
    let (crash_at, recover_at) = (15_000, 200_000);
    let plan = || Some(FaultPlan::new(0xC3A5).crash(0, crash_at, Some(recover_at)));
    let down = run_gov(&cfg, 0x7C, plan(), recover_at - 1);
    assert!(
        (1..cfg.digests.len()).contains(&down.completed.len()),
        "the crash must land mid-run: {down:?}"
    );
    let run = run_gov(&cfg, 0x7C, plan(), 8_000_000);
    assert_eq!(run.stats.crashes, 1);
    assert_eq!(run.stats.recoveries, 1);
    assert_eq!(
        run.completed[..down.completed.len()],
        down.completed[..],
        "signatures completed before the crash must survive it"
    );
    assert_sigs_verify(&cfg, &run);
    assert_gov_replays(&cfg, 0x7C, plan, 8_000_000, &run);
    assert_gov_fixture(2, &run);
}

/// Every `GovMsg` variant keeps its kind tag and wire size.
#[test]
fn gov_msg_kinds_and_sizes_are_stable() {
    use pds2_gov::NonceCommitment;
    use pds2_gov::PartialSig;
    use pds2_net::sim::Node;
    let commit = || NonceCommitment {
        hiding: BigUint::from_u64(2),
        binding: BigUint::from_u64(3),
    };
    let table: [(GovMsg, u8, u64); 4] = [
        (
            GovMsg::NonceReq {
                seq: 0,
                attempt: 0,
                digest: [0; 32],
            },
            0,
            44,
        ),
        (
            GovMsg::Nonce {
                seq: 0,
                attempt: 0,
                signer: 1,
                commit: commit(),
            },
            1,
            84,
        ),
        (
            GovMsg::SignReq {
                seq: 0,
                attempt: 0,
                digest: [0; 32],
                nonces: vec![(1, commit()), (2, commit()), (3, commit())],
            },
            2,
            44 + 72 * 3,
        ),
        (
            GovMsg::Partial {
                seq: 0,
                partial: PartialSig {
                    signer: 1,
                    attempt: 0,
                    r: BigUint::from_u64(5),
                    s: BigUint::from_u64(7),
                },
            },
            3,
            84,
        ),
    ];
    for (msg, kind, size) in &table {
        assert_eq!(<GovNode as Node>::msg_kind(msg), *kind, "{msg:?}");
        assert_eq!(<GovNode as Node>::msg_size(msg), *size, "{msg:?}");
    }
}
