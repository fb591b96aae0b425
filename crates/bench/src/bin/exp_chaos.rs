//! E14 — chaos engineering: consensus and learning under injected faults.
//!
//! Part 1 drives a 4-validator PoA cluster through fault plans of rising
//! severity (clean, partition, crash-recovery, byzantine corruption, all
//! combined) and reports chain height, convergence and fault counters.
//! Part 2 sweeps byzantine corruption probability on the gossip overlay
//! and shows the digest check holding final accuracy flat while the
//! corrupted-drop counter climbs.
//! Part 3 replays one chaotic run twice to demonstrate bit-identical
//! trace digests — the property the chaos harness rests on.
//!
//! `cargo run --release -p pds2-bench --bin exp_chaos`

use pds2_bench::print_table;
use pds2_chain::address::Address;
use pds2_chain::chain::{Blockchain, ChainConfig};
use pds2_chain::contract::ContractRegistry;
use pds2_chain::sync::{ChainReplica, GenesisFactory};
use pds2_crypto::KeyPair;
use pds2_learning::gossip::{run_gossip_experiment_with_faults, GossipConfig};
use pds2_ml::data::gaussian_blobs;
use pds2_ml::model::LogisticRegression;
use pds2_net::{FaultPlan, LinkEffect, LinkModel, LinkScope, SchedulerKind, Simulator};
use std::sync::Arc;

const N_VALIDATORS: usize = 4;

fn factory() -> GenesisFactory {
    Arc::new(|| {
        Blockchain::new(
            (0..N_VALIDATORS as u64)
                .map(|i| KeyPair::from_seed(9_000 + i))
                .collect(),
            &[(Address::of(&KeyPair::from_seed(1).public), 1_000_000)],
            ContractRegistry::new(),
            ChainConfig::default(),
        )
    })
}

fn link() -> LinkModel {
    LinkModel {
        base_latency_us: 5_000,
        jitter_us: 2_000,
        bandwidth_bytes_per_sec: 12_500_000,
        drop_probability: 0.0,
        node_slowdown: Vec::new(),
        topology: None,
    }
}

struct ChaosResult {
    height: u64,
    converged: bool,
    trace: String,
    dropped: u64,
    corrupted: u64,
    crashes: u64,
}

fn run_chain_chaos(seed: u64, plan: FaultPlan, until_us: u64) -> ChaosResult {
    let f = factory();
    let replicas: Vec<ChainReplica> = (0..N_VALIDATORS)
        .map(|i| ChainReplica::new(f.clone(), Some(i), 200_000, 150_000))
        .collect();
    let mut sim = Simulator::new(replicas, link(), seed);
    sim.install_fault_plan(plan);
    let cap = pds2_obs::capture(pds2_obs::SinkKind::Null);
    sim.run_until(until_us);
    let trace = cap.finish().digest;
    let heads: Vec<_> = sim.nodes().map(|r| r.chain().head_hash()).collect();
    let stats = sim.stats();
    ChaosResult {
        height: sim.node(0).chain().height(),
        converged: heads.iter().all(|h| *h == heads[0]),
        trace: trace[..8].to_string(),
        dropped: stats.dropped_partition + stats.dropped_fault,
        corrupted: stats.corrupted,
        crashes: stats.crashes,
    }
}

fn main() {
    println!("E14 part 1: 4-validator PoA cluster, 15 s under escalating fault plans\n");
    let scenarios: Vec<(&str, FaultPlan)> = vec![
        ("clean", FaultPlan::new(1)),
        (
            "partition 2-5s",
            FaultPlan::new(2).partition(2_000_000, 5_000_000, vec![vec![0, 1], vec![2, 3]]),
        ),
        (
            "crash n2 3-6s",
            FaultPlan::new(3).crash(2, 3_000_000, Some(6_000_000)),
        ),
        (
            "byzantine 25%",
            FaultPlan::new(4).byzantine(
                500_000,
                4_000_000,
                LinkScope::any(),
                LinkEffect::Corrupt { probability: 0.25 },
            ),
        ),
        (
            "all combined",
            FaultPlan::new(5)
                .partition(1_500_000, 3_500_000, vec![vec![0, 3], vec![1, 2]])
                .crash(1, 4_000_000, Some(5_500_000))
                .byzantine(
                    500_000,
                    2_500_000,
                    LinkScope::from_node(3),
                    LinkEffect::Corrupt { probability: 0.3 },
                ),
        ),
    ];
    let mut rows = Vec::new();
    for (name, plan) in scenarios {
        let r = run_chain_chaos(42, plan, 15_000_000);
        rows.push(vec![
            name.to_string(),
            r.height.to_string(),
            if r.converged { "yes" } else { "NO" }.to_string(),
            r.dropped.to_string(),
            r.corrupted.to_string(),
            r.crashes.to_string(),
            r.trace,
        ]);
    }
    print_table(
        &[
            "scenario",
            "height",
            "converged",
            "dropped",
            "corrupted",
            "crashes",
            "trace",
        ],
        &rows,
    );

    println!(
        "\nE14 part 2: gossip accuracy vs byzantine corruption probability (10 nodes, 10 s)\n"
    );
    let data = gaussian_blobs(1_000, 3, 0.7, 1);
    let (train, test) = data.split(0.25, 2);
    let mut rows = Vec::new();
    for &p in &[0.0f64, 0.1, 0.25, 0.5] {
        let plan = FaultPlan::new(6).byzantine(
            0,
            10_000_000,
            LinkScope::any(),
            LinkEffect::Corrupt { probability: p },
        );
        let out = run_gossip_experiment_with_faults(
            train.partition_iid(10, 3),
            &test,
            GossipConfig {
                period_us: 200_000,
                ..Default::default()
            },
            LinkModel::instant(),
            7,
            &[10_000_000],
            None,
            Some(plan),
            SchedulerKind::Wheel,
            || LogisticRegression::new(3),
        );
        rows.push(vec![
            format!("{:.0}%", p * 100.0),
            format!("{:.3}", out.accuracy_curve[0]),
            out.corrupted_dropped.to_string(),
            out.models_transferred.to_string(),
        ]);
    }
    print_table(
        &["corrupt prob", "final_acc", "dropped_by_digest", "merged"],
        &rows,
    );

    println!("\nE14 part 3: bit-identical replay of the combined scenario\n");
    let plan = || {
        FaultPlan::new(5)
            .partition(1_500_000, 3_500_000, vec![vec![0, 3], vec![1, 2]])
            .crash(1, 4_000_000, Some(5_500_000))
    };
    let a = run_chain_chaos(42, plan(), 15_000_000);
    let b = run_chain_chaos(42, plan(), 15_000_000);
    let identical = if a.trace == b.trace { "yes" } else { "NO" };
    print_table(
        &["run A trace", "run B trace", "identical"],
        &[vec![a.trace, b.trace, identical.to_string()]],
    );
    println!(
        "\nshape: the cluster converges to one head under every plan, the \
         gossip digest check keeps accuracy flat as corruption rises, and \
         every seeded run replays to the same trace digest."
    );
}
