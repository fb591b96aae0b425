//! Chaos harness: seeded fault plans — partitions, byzantine links,
//! crash-recovery, typed censorship — driven through the deterministic
//! network simulator against the real consumers (PoA block sync and
//! gossip learning).
//!
//! Every scenario asserts two things: the *protocol* property (the
//! cluster converges / recovers / rejects corruption) and the *harness*
//! property (the run replays bit-identically from its seed). Each runs
//! twice, on the timing wheel
//! and on the binary-heap oracle, with the same assertions and the same
//! pinned fixture lines.

use pds2_chain::address::Address;
use pds2_chain::chain::{Blockchain, ChainConfig};
use pds2_chain::contract::ContractRegistry;
use pds2_chain::sync::{kind, ChainReplica, GenesisFactory};
use pds2_chain::tx::{Transaction, TxKind};
use pds2_crypto::{Digest, KeyPair};
use pds2_learning::gossip::{run_gossip_experiment_with_faults, GossipConfig};
use pds2_ml::data::gaussian_blobs;
use pds2_ml::model::LogisticRegression;
use pds2_net::{FaultPlan, LinkEffect, LinkModel, LinkScope, NetStats, SchedulerKind, Simulator};
use pds2_obs as obs;
use std::sync::Arc;

mod common;

const N_REPLICAS: usize = 4;

/// Runs `scenario` on the timing wheel, then on the binary-heap oracle,
/// holding [`obs::test_lock`] throughout (counters and captures are
/// process-global). The scheduler is printed first, so a failure's
/// captured output names it.
fn on_both_schedulers(scenario: impl Fn(SchedulerKind)) {
    let _obs = obs::test_lock();
    for sched in [SchedulerKind::Wheel, SchedulerKind::Heap] {
        eprintln!("scheduler: {sched:?}");
        scenario(sched);
    }
}

fn factory() -> GenesisFactory {
    Arc::new(|| {
        Blockchain::new(
            (0..N_REPLICAS as u64)
                .map(|i| KeyPair::from_seed(9_000 + i))
                .collect(),
            &[(Address::of(&KeyPair::from_seed(1).public), 1_000_000)],
            ContractRegistry::new(),
            ChainConfig::default(),
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

/// Everything comparable about one chaos run, for replay assertions.
#[derive(Clone, Debug, PartialEq)]
struct ChainRun {
    /// The obs trace digest of the run.
    trace: String,
    heads: Vec<Digest>,
    roots: Vec<Digest>,
    heights: Vec<u64>,
    applied: Vec<u64>,
    rejected: Vec<u64>,
    forks: Vec<u64>,
    syncing: Vec<bool>,
    stats: NetStats,
}

impl ChainRun {
    fn of(sim: &Simulator<ChainReplica>, trace: String) -> ChainRun {
        ChainRun {
            trace,
            heads: sim.nodes().map(|r| r.chain().head_hash()).collect(),
            roots: sim.nodes().map(|r| r.chain().state.state_root()).collect(),
            heights: sim.nodes().map(|r| r.chain().height()).collect(),
            applied: sim.nodes().map(|r| r.blocks_applied).collect(),
            rejected: sim.nodes().map(|r| r.blocks_rejected).collect(),
            forks: sim.nodes().map(|r| r.forks_adopted).collect(),
            syncing: sim.nodes().map(|r| r.is_syncing()).collect(),
            stats: sim.stats(),
        }
    }
}

/// `N_REPLICAS` volatile replicas of [`factory`]'s chain on `sched`.
fn replica_sim(sched: SchedulerKind, seed: u64) -> Simulator<ChainReplica> {
    let f = factory();
    let replicas: Vec<ChainReplica> = (0..N_REPLICAS)
        .map(|i| ChainReplica::new(f.clone(), Some(i), 200_000, 150_000))
        .collect();
    Simulator::with_scheduler(replicas, fast_link(), seed, sched)
}

fn run_chain(sched: SchedulerKind, seed: u64, plan: FaultPlan, until_us: u64) -> ChainRun {
    let mut sim = replica_sim(sched, seed);
    sim.install_fault_plan(plan);
    let cap = obs::capture(obs::SinkKind::Null);
    sim.run_until(until_us);
    ChainRun::of(&sim, cap.finish().digest)
}

/// Runs the scenario once and cross-checks the `pds2-obs` counter
/// deltas against the simulator's own `NetStats` accounting. Callers
/// hold [`obs::test_lock`]: counters are process-global, so a
/// concurrently running test would pollute the deltas.
fn run_chain_counted(sched: SchedulerKind, seed: u64, plan: FaultPlan, until_us: u64) -> ChainRun {
    let before = obs::snapshot();
    let run = run_chain(sched, seed, plan, until_us);
    let d = obs::snapshot().counter_deltas(&before);
    common::assert_net_counters_mirror(&d, &[run.stats]);
    let delta = |name: &str| d.get(name).copied().unwrap_or(0);
    assert!(delta("chain.blocks_produced") > 0, "{d:?}");
    // `>=`: failed fork-choice candidates apply (and count) blocks the
    // replica's own accounting never credits.
    assert!(
        delta("chain.blocks_applied") >= run.applied.iter().sum::<u64>(),
        "{d:?} vs {:?}",
        run.applied
    );
    run
}

fn assert_converged(run: &ChainRun) {
    for i in 1..N_REPLICAS {
        assert_eq!(
            run.heads[i], run.heads[0],
            "replica {i} head diverged: heights {:?}",
            run.heights
        );
        assert_eq!(
            run.roots[i], run.roots[0],
            "replica {i} state root diverged"
        );
    }
}

fn assert_replays_identically(
    sched: SchedulerKind,
    seed: u64,
    plan: impl Fn() -> FaultPlan,
    until_us: u64,
) {
    let base = run_chain(sched, seed, plan(), until_us);
    // Same seed, same plan: the whole run is bit-identical.
    let again = run_chain(sched, seed, plan(), until_us);
    assert_eq!(again, base, "re-run of the same seed diverged");
}

#[test]
fn partition_then_heal_chain_converges() {
    on_both_schedulers(|sched| {
        let plan =
            || FaultPlan::new(0xC4A0).partition(2_000_000, 5_000_000, vec![vec![0, 1], vec![2, 3]]);
        let run = run_chain_counted(sched, 11, plan(), 15_000_000);
        assert!(
            run.stats.dropped_partition > 0,
            "the partition must actually sever traffic: {:?}",
            run.stats
        );
        // PoA round-robin means each island stalls once the scheduled
        // proposer is on the far side; after healing, announce-driven
        // catch-up repairs both sides to one canonical chain.
        assert_converged(&run);
        assert!(
            run.heights[0] >= 10,
            "chain must keep growing after the heal: {:?}",
            run.heights
        );
        assert!(
            run.applied.iter().sum::<u64>() > 0,
            "catch-up must apply external blocks"
        );
        assert_replays_identically(sched, 11, plan, 15_000_000);
    });
}

#[test]
fn crash_recovery_resyncs_to_canonical_chain() {
    on_both_schedulers(|sched| {
        let plan = || FaultPlan::new(0xDEAD).crash(2, 3_000_000, Some(6_000_000));
        let run = run_chain_counted(sched, 23, plan(), 15_000_000);
        assert_eq!(run.stats.crashes, 1);
        assert_eq!(run.stats.recoveries, 1);
        // The crashed replica lost everything volatile; it must have
        // pulled the canonical chain back from its peers before the
        // deadline.
        assert_converged(&run);
        assert!(
            !run.syncing[2],
            "recovered replica still stuck in syncing mode"
        );
        assert!(
            run.applied[2] > 0 || run.forks[2] > 0,
            "recovery must resync via catch-up or fork choice: {run:?}"
        );
        assert!(
            run.heights[0] >= 20,
            "production must resume after recovery: {:?}",
            run.heights
        );
        assert_replays_identically(sched, 23, plan, 15_000_000);
    });
}

#[test]
fn byzantine_corruption_is_detected_and_dropped() {
    on_both_schedulers(|sched| {
        let plan = || {
            FaultPlan::new(0xB12A).byzantine(
                500_000,
                4_000_000,
                LinkScope::any(),
                LinkEffect::Corrupt { probability: 0.25 },
            )
        };
        let run = run_chain_counted(sched, 37, plan(), 12_000_000);
        assert!(
            run.stats.corrupted + run.stats.dropped_fault > 0,
            "byzantine window must corrupt traffic: {:?}",
            run.stats
        );
        // Corrupted frames either fail to decode (destroyed in flight) or
        // decode to blocks/batches that fail validation — state never
        // absorbs them, and the cluster still converges once the window
        // closes.
        assert_converged(&run);
        assert!(run.heights[0] >= 10, "{:?}", run.heights);
        assert_replays_identically(sched, 37, plan, 12_000_000);
    });
}

#[test]
fn typed_block_censorship_is_repaired_by_catchup() {
    // Censor every NewBlock broadcast for a while: proposals vanish, but
    // announce/request/blocks still flow, so replicas stay in sync purely
    // through the catch-up path.
    on_both_schedulers(|sched| {
        let plan = || {
            FaultPlan::new(0x7D0).drop_kind(
                500_000,
                6_000_000,
                LinkScope::any(),
                kind::NEW_BLOCK,
                1.0,
            )
        };
        let run = run_chain_counted(sched, 41, plan(), 12_000_000);
        assert!(
            run.stats.dropped_fault > 0,
            "censorship must drop NewBlock frames: {:?}",
            run.stats
        );
        assert_converged(&run);
        assert!(
            run.applied.iter().sum::<u64>() > 0,
            "catch-up batches must carry the censored blocks"
        );
        assert_replays_identically(sched, 41, plan, 12_000_000);
    });
}

/// A fork/reorg run: everything in [`ChainRun`] plus the reorg-specific
/// accounting (reinstated transactions and the contested balance).
#[derive(Clone, Debug, PartialEq)]
struct ReorgRun {
    base: ChainRun,
    reinstated: Vec<u64>,
    bob_balances: Vec<u128>,
}

/// Forces a *genuine* fork in round-robin PoA. Partitions alone cannot:
/// the island missing the scheduled proposer just stalls. Instead the
/// plan makes proposer 1 sign height 1 twice with different contents:
///
/// 1. Replica 1 produces `B1` carrying the alice→bob transfer (seeded
///    only into replica 1's mempool). Directed drops on links 1→2 and
///    1→3 mean only replica 0 receives it.
/// 2. Replica 1 crashes, forgetting `B1` and its mempool, and recovers
///    by resyncing from replicas 2/3 — which never saw `B1`. Replica 0
///    is mute (all its outbound traffic dropped) so it cannot leak the
///    orphan branch back.
/// 3. At its next turn replica 1 re-signs height 1 as an *empty* `B1'`.
///    Replicas 2/3 extend that branch while replica 0 sits on the
///    `B1` fork.
/// 4. When replica 0 is unmuted it hears announcements for the longer
///    branch, fails suffix catch-up (mismatched parent), falls back to
///    a full-chain fetch, and adopts via fork choice — reinstating the
///    orphaned transfer into its mempool. At replica 0's next proposal
///    turn the transfer finally lands on the canonical chain.
fn reorg_plan() -> FaultPlan {
    let mute = LinkEffect::Drop { probability: 1.0 };
    FaultPlan::new(0xF02C)
        .byzantine(390_000, 600_000, LinkScope::link(1, 2), mute)
        .byzantine(390_000, 600_000, LinkScope::link(1, 3), mute)
        .byzantine(390_000, 1_600_000, LinkScope::from_node(0), mute)
        .crash(1, 460_000, Some(800_000))
}

/// [`replica_sim`] with the contested transfer seeded into replica 1's
/// mempool only, so it rides the block [`reorg_plan`] orphans.
fn reorg_sim(sched: SchedulerKind) -> Simulator<ChainReplica> {
    let mut sim = replica_sim(sched, 0xF02C);
    let alice = KeyPair::from_seed(1);
    let tx = Transaction {
        from: alice.public.clone(),
        nonce: 0,
        kind: TxKind::Transfer {
            to: Address::of(&KeyPair::from_seed(2).public),
            amount: 42,
        },
        gas_limit: 100_000,
        max_fee_per_gas: 0,
        priority_fee_per_gas: 0,
    }
    .sign(&alice);
    sim.node_mut(1)
        .chain_mut()
        .submit(tx)
        .expect("seed transfer");
    sim.install_fault_plan(reorg_plan());
    sim
}

fn run_reorg(sched: SchedulerKind, until_us: u64) -> ReorgRun {
    let mut sim = reorg_sim(sched);
    let cap = obs::capture(obs::SinkKind::Null);
    sim.run_until(until_us);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    ReorgRun {
        base: ChainRun::of(&sim, cap.finish().digest),
        reinstated: sim.nodes().map(|r| r.txs_reinstated).collect(),
        bob_balances: sim.nodes().map(|r| r.chain().state.balance(&bob)).collect(),
    }
}

#[test]
fn fork_reorg_reinstates_orphaned_transactions() {
    on_both_schedulers(|sched| {
        let run = run_reorg(sched, 4_000_000);
        assert_eq!(run.base.stats.crashes, 1, "{:?}", run.base.stats);
        assert_eq!(run.base.stats.recoveries, 1);
        assert!(
            run.base.stats.dropped_fault > 0,
            "the directed drops must sever traffic: {:?}",
            run.base.stats
        );
        // The protocol property: the cluster converges on one chain, the
        // orphaned branch's transfer was reinstated (not lost) somewhere,
        // and it ultimately executed — bob's balance agrees everywhere.
        assert_converged(&run.base);
        assert!(
            run.reinstated.iter().sum::<u64>() > 0,
            "fork choice must reinstate the orphaned transfer: {run:?}"
        );
        assert!(
            run.base.forks.iter().sum::<u64>() > 0,
            "at least one replica must adopt a competing branch: {run:?}"
        );
        for (i, bal) in run.bob_balances.iter().enumerate() {
            assert_eq!(
                *bal, 42,
                "replica {i}: the reinstated transfer must land on the \
                 canonical chain: {run:?}"
            );
        }
        // The harness property: bit-identical replay.
        let again = run_reorg(sched, 4_000_000);
        assert_eq!(again, run, "re-run of the same seed diverged");
        // Pinned trace + root (fixture line 2; line 1 is the golden run).
        let (want_trace, want_root) = fixture_line(1);
        assert_eq!(
            run.base.trace,
            want_trace,
            "reorg trace changed; if this is an intended protocol change, \
             update line 2 of tests/fixtures/chaos_golden.txt to:\n{} {}",
            run.base.trace,
            run.base.roots[0].to_hex()
        );
        assert_eq!(
            run.base.roots[0].to_hex(),
            want_root,
            "reorg state root changed; if intended, update line 2 of \
             tests/fixtures/chaos_golden.txt to:\n{} {}",
            run.base.trace,
            run.base.roots[0].to_hex()
        );
    });
}

/// A persistent-crash run: everything in [`ChainRun`] plus each
/// replica's final mempool population (the journal must preserve
/// pending transactions across the crash).
#[derive(Clone, Debug, PartialEq)]
struct PersistRun {
    base: ChainRun,
    pools: Vec<usize>,
}

/// Like [`run_chain`], but replica 2 (the one the fault plans crash)
/// optionally journals into a durable [`ChainLog`] that survives the
/// crash, snapshotting every 4 blocks.
fn run_persistent_crash(
    sched: SchedulerKind,
    seed: u64,
    plan: FaultPlan,
    until_us: u64,
    persistent: bool,
) -> PersistRun {
    use pds2_storage::chainlog::ChainLog;
    let f = factory();
    let store = Arc::new(parking_lot::Mutex::new(ChainLog::new()));
    let replicas: Vec<ChainReplica> = (0..N_REPLICAS)
        .map(|i| {
            if persistent && i == 2 {
                ChainReplica::new_persistent(f.clone(), Some(i), 200_000, 150_000, store.clone(), 4)
            } else {
                ChainReplica::new(f.clone(), Some(i), 200_000, 150_000)
            }
        })
        .collect();
    let mut sim = Simulator::with_scheduler(replicas, fast_link(), seed, sched);
    // A nonce-gapped transfer seeded only into replica 2's mempool: the
    // gap (nonce 1 with state nonce 0) keeps it pending forever, so
    // whether it survives the crash depends entirely on the journal.
    let alice = KeyPair::from_seed(1);
    let tx = Transaction {
        from: alice.public.clone(),
        nonce: 1,
        kind: TxKind::Transfer {
            to: Address::of(&KeyPair::from_seed(2).public),
            amount: 5,
        },
        gas_limit: 100_000,
        max_fee_per_gas: 0,
        priority_fee_per_gas: 0,
    }
    .sign(&alice);
    sim.node_mut(2)
        .chain_mut()
        .submit(tx)
        .expect("seed pending tx");
    sim.install_fault_plan(plan);
    let cap = obs::capture(obs::SinkKind::Null);
    sim.run_until(until_us);
    PersistRun {
        base: ChainRun::of(&sim, cap.finish().digest),
        pools: sim.nodes().map(|r| r.chain().mempool_len()).collect(),
    }
}

#[test]
fn persistent_crash_recovers_from_snapshot_and_log() {
    on_both_schedulers(|sched| {
        let plan = || FaultPlan::new(0x5707).crash(2, 3_000_000, Some(6_000_000));
        let before = obs::snapshot();
        let run = run_persistent_crash(sched, 29, plan(), 15_000_000, true);
        let d = obs::snapshot().counter_deltas(&before);
        let delta = |name: &str| d.get(name).copied().unwrap_or(0);
        assert_eq!(run.base.stats.crashes, 1);
        assert_eq!(run.base.stats.recoveries, 1);
        assert_eq!(delta("chain.recoveries"), 1, "{d:?}");
        assert!(delta("chain.snapshots_written") > 0, "{d:?}");
        assert!(delta("chain.txs_reinstated") > 0, "{d:?}");
        // The recovered replica rejoins the canonical chain bit-for-bit:
        // same head, same state root as the replicas that never crashed.
        assert_converged(&run.base);
        assert!(!run.base.syncing[2], "recovered replica still syncing");
        assert_eq!(
            run.pools[2], 1,
            "the journaled pending transaction must survive the crash: {run:?}"
        );
        // Volatile baseline under the same plan: the crash wipes the
        // mempool, so the pending transaction is gone — the journal is
        // what preserved it above.
        let volatile = run_persistent_crash(sched, 29, plan(), 15_000_000, false);
        assert_converged(&volatile.base);
        assert_eq!(
            volatile.pools[2], 0,
            "a volatile replica must forget the pending transaction: {volatile:?}"
        );
        // Harness property: bit-identical replay.
        let again = run_persistent_crash(sched, 29, plan(), 15_000_000, true);
        assert_eq!(again, run, "re-run of the same seed diverged");
        // Pinned trace + recovered root (fixture line 3).
        let (want_trace, want_root) = fixture_line(2);
        assert_eq!(
            run.base.trace,
            want_trace,
            "persistent-recovery trace changed; if this is an intended \
             protocol change, update line 3 of tests/fixtures/chaos_golden.txt to:\n{} {}",
            run.base.trace,
            run.base.roots[2].to_hex()
        );
        assert_eq!(
            run.base.roots[2].to_hex(),
            want_root,
            "recovered state root changed; if intended, update line 3 of \
             tests/fixtures/chaos_golden.txt to:\n{} {}",
            run.base.trace,
            run.base.roots[2].to_hex()
        );
    });
}

/// One `"<trace> <state_root>"` pair per fixture line: line 0 pins the
/// golden all-faults scenario, line 1 the fork/reorg scenario, line 2
/// the persistent crash-recovery scenario.
fn fixture_line(n: usize) -> (&'static str, &'static str) {
    let fixture = include_str!("fixtures/chaos_golden.txt");
    let line = fixture
        .lines()
        .nth(n)
        .unwrap_or_else(|| panic!("fixture line {} missing", n + 1));
    let mut fields = line.split_whitespace();
    (
        fields.next().expect("fixture: trace digest"),
        fields.next().expect("fixture: state root"),
    )
}

#[test]
fn golden_trace_regression() {
    on_both_schedulers(|sched| {
        let run = run_chain_counted(sched, 0x601D, common::golden_plan(), 10_050_000);
        assert_converged(&run);
        let (want_trace, want_root) = fixture_line(0);
        assert_eq!(
            run.trace,
            want_trace,
            "trace digest changed; if this is an intended protocol \
             change, update line 1 of tests/fixtures/chaos_golden.txt to:\n{} {}",
            run.trace,
            run.roots[0].to_hex()
        );
        assert_eq!(
            run.roots[0].to_hex(),
            want_root,
            "final state root changed; if intended, update line 1 of \
             tests/fixtures/chaos_golden.txt to:\n{} {}",
            run.trace,
            run.roots[0].to_hex()
        );
    });
}

#[test]
fn gossip_partition_heals_and_accuracy_recovers() {
    on_both_schedulers(|sched| {
        let run = || {
            let cap = obs::capture(obs::SinkKind::Null);
            let data = gaussian_blobs(600, 3, 0.7, 1);
            let (train, test) = data.split(0.25, 2);
            let shards = train.partition_iid(10, 3);
            let plan = FaultPlan::new(0x9055).partition(
                1_000_000,
                4_000_000,
                vec![(0..5).collect(), (5..10).collect()],
            );
            let out = run_gossip_experiment_with_faults(
                shards,
                &test,
                GossipConfig {
                    period_us: 100_000,
                    ..Default::default()
                },
                LinkModel::instant(),
                7,
                &[3_000_000, 10_000_000],
                None,
                Some(plan),
                sched,
                || LogisticRegression::new(3),
            );
            (cap.finish().digest, out)
        };
        let before = obs::snapshot();
        let (trace, out) = run();
        let deltas = obs::snapshot().counter_deltas(&before);
        assert_eq!(
            deltas.get("learning.gossip_evals").copied().unwrap_or(0),
            2,
            "one gossip_evals tick per evaluation point"
        );
        // Mid-run the halves learn separately; after healing, models mix
        // across the former boundary and the final accuracy recovers.
        assert!(
            out.accuracy_curve[1] > 0.9,
            "post-heal accuracy {:?}",
            out.accuracy_curve
        );
        assert_eq!(out.online_nodes, 10, "partitions must not kill nodes");
        let bits: Vec<u64> = out.accuracy_curve.iter().map(|a| a.to_bits()).collect();
        // Bit-identical replay.
        let (again_trace, again) = run();
        assert_eq!(again_trace, trace, "gossip trace diverged on a rerun");
        let again_bits: Vec<u64> = again.accuracy_curve.iter().map(|a| a.to_bits()).collect();
        assert_eq!(
            again_bits, bits,
            "accuracy curve not bit-identical on a rerun"
        );
    });
}

/// Divergence forensics on the live fork: while the reorg scenario's
/// competing branches coexist, the per-block digest checkpoints must
/// localize the disagreement to the exact forking height — bisection
/// over `(height, hash)` pairs, no block bodies — and must agree with
/// a linear ground-truth scan of the full chains. Once fork choice
/// repairs the cluster the divergence report goes away.
#[test]
fn replica_divergence_localizes_to_forking_height() {
    // Ground truth: linear scan over full block bodies.
    let scan = |a: &ChainReplica, b: &ChainReplica| -> Option<u64> {
        let (ba, bb) = (a.chain().blocks(), b.chain().blocks());
        for (x, y) in ba.iter().zip(bb.iter()) {
            if x.header.hash() != y.header.hash() {
                return Some(x.header.height);
            }
        }
        match ba.len().cmp(&bb.len()) {
            std::cmp::Ordering::Equal => None,
            std::cmp::Ordering::Less => Some(bb[ba.len()].header.height),
            std::cmp::Ordering::Greater => Some(ba[bb.len()].header.height),
        }
    };
    on_both_schedulers(|sched| {
        let mut sim = reorg_sim(sched);

        // Mid-run: replica 0 sits on the orphaned B1 branch while 2/3
        // extend B1', and replica 0 is still muted.
        sim.run_until(1_200_000);
        {
            let a = sim.node(0);
            let c = sim.node(2);
            assert_ne!(
                a.chain().head_hash(),
                c.chain().head_hash(),
                "the fork must be live at the probe instant"
            );
            assert_eq!(
                scan(a, c),
                Some(1),
                "the scenario forges height 1 twice; ground truth must say so"
            );
            assert_eq!(
                a.first_divergent_height(c),
                Some(1),
                "checkpoint bisection must localize the fork to height 1"
            );
            // The checkpoint list is the held chain, block for block, on
            // every replica.
            for id in 0..N_REPLICAS {
                let r = sim.node(id);
                let blocks = r.chain().blocks();
                assert_eq!(r.block_checkpoints().len(), blocks.len());
                for (cp, b) in r.block_checkpoints().iter().zip(blocks.iter()) {
                    assert_eq!(*cp, (b.header.height, b.header.hash()));
                }
            }
            // Same-branch replicas: bisection agrees with the body scan
            // (equal chains or a pure extension, never a fake fork).
            assert_eq!(
                sim.node(2).first_divergent_height(sim.node(3)),
                scan(sim.node(2), sim.node(3))
            );
        }

        // After heal + fork choice the cluster converges and the
        // divergence report clears.
        sim.run_until(4_000_000);
        for i in 0..N_REPLICAS {
            for j in i + 1..N_REPLICAS {
                let (a, b) = (sim.node(i), sim.node(j));
                assert_eq!(
                    a.first_divergent_height(b),
                    scan(a, b),
                    "bisection vs ground truth, replicas {i}/{j}"
                );
            }
        }
        assert_eq!(
            sim.node(0).first_divergent_height(sim.node(2)),
            None,
            "converged replicas must report no divergence"
        );
    });
}
