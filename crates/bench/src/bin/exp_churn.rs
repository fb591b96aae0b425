//! E6 — §III-C: robustness to churn and the coordinator bottleneck.
//!
//! Part 1 sweeps permanent-failure rates 0–50% and compares gossip's final
//! accuracy against FedAvg with equally unavailable clients.
//! Part 2 kills the FedAvg coordinator mid-training (gossip has none).
//! Part 3 shows aggregator load: FedAvg's coordinator handles O(N)
//! transfers per round while the max per-gossip-node load stays flat.
//!
//! `cargo run --release -p pds2-bench --bin exp_churn`

use pds2_bench::print_table;
use pds2_learning::federated::{run_fedavg, FedConfig};
use pds2_learning::gossip::{run_gossip_experiment, GossipConfig, GossipRun};
use pds2_ml::data::gaussian_blobs;
use pds2_ml::model::LogisticRegression;
use pds2_net::{FaultPlan, LinkModel};

fn main() {
    let n_nodes = 20;
    let data = gaussian_blobs(2000, 5, 0.8, 1);
    let (train, test) = data.split(0.25, 2);
    let shards = train.partition_iid(n_nodes, 3);
    // Harsh setting for the churn sweep: label-skewed shards, so losing a
    // node can remove most of a class, and failures strike immediately.
    let skewed = train.partition_noniid(n_nodes, 3);

    println!("E6 part 1: final accuracy vs permanent-failure rate ({n_nodes} nodes, non-IID, failures from t=0)\n");
    let mut rows = Vec::new();
    let cfg = GossipConfig {
        period_us: 500_000,
        ..Default::default()
    };
    for &fail in &[0.0f64, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let run = GossipRun {
            // Nodes die within the first second.
            faults: FaultPlan::new(7).random_failures(n_nodes, fail, 1_000_000),
            ..GossipRun::new(cfg.clone(), LinkModel::default(), 7, &[30_000_000])
        };
        let gossip =
            run_gossip_experiment(skewed.clone(), &test, &run, || LogisticRegression::new(5));
        // FedAvg: the same fraction of clients is dead from round 0.
        let fed = run_fedavg(
            &skewed,
            &test,
            &FedConfig {
                rounds: 60,
                client_fraction: 0.3,
                ..Default::default()
            },
            || LogisticRegression::new(5),
            &move |_round, client| (client as f64 / n_nodes as f64) >= fail,
            usize::MAX,
        );
        rows.push(vec![
            format!("{:.0}%", fail * 100.0),
            format!("{:.3}", gossip.accuracy_curve[0]),
            gossip.online_nodes.to_string(),
            format!("{:.3}", fed.accuracy_curve.last().unwrap()),
            fed.stats.wasted_rounds.to_string(),
        ]);
    }
    print_table(
        &[
            "failure rate",
            "gossip_acc",
            "alive",
            "fedavg_acc",
            "fed_wasted_rounds",
        ],
        &rows,
    );

    println!(
        "\nE6 part 2: coordinator failure at round 5 (FedAvg only — gossip has no coordinator)"
    );
    let fed_dead = run_fedavg(
        &shards,
        &test,
        &FedConfig {
            rounds: 40,
            ..Default::default()
        },
        || LogisticRegression::new(5),
        &|_, _| true,
        5,
    );
    println!(
        "fedavg accuracy: round 4 = {:.3}, round 5 = {:.3}, round 40 = {:.3}  (frozen)",
        fed_dead.accuracy_curve[4],
        fed_dead.accuracy_curve[5],
        fed_dead.accuracy_curve.last().unwrap()
    );

    println!("\nE6 part 3: aggregator load vs network size");
    let mut rows = Vec::new();
    for &n in &[10usize, 20, 40, 80] {
        let shards_n = train.partition_iid(n, 3);
        let fed = run_fedavg(
            &shards_n,
            &test,
            &FedConfig {
                rounds: 10,
                client_fraction: 0.5,
                ..Default::default()
            },
            || LogisticRegression::new(5),
            &|_, _| true,
            usize::MAX,
        );
        let run = GossipRun::new(cfg.clone(), LinkModel::default(), 7, &[10_000_000]);
        let gossip = run_gossip_experiment(shards_n, &test, &run, || LogisticRegression::new(5));
        // Gossip per-node load: each node receives ~1 model per period.
        let per_node = gossip.models_transferred as f64 / n as f64;
        rows.push(vec![
            n.to_string(),
            (fed.stats.coordinator_transfers / 10).to_string(),
            format!("{:.1}", per_node / 20.0), // per period (20 periods in 10s)
        ]);
    }
    print_table(
        &[
            "nodes",
            "coordinator transfers/round",
            "gossip models/node/period",
        ],
        &rows,
    );
    println!(
        "\nshape: gossip degrades gracefully with churn and keeps per-node \
         load constant; FedAvg's coordinator load grows with N and its \
         failure halts training entirely."
    );
}
