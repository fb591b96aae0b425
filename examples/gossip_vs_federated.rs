//! Decentralized aggregation shoot-out (§III-C): gossip learning vs
//! federated learning on the same partitioned data, with and without
//! churn, including a coordinator failure.
//!
//! Run with: `cargo run --release --example gossip_vs_federated`

use pds2::learning::federated::{run_fedavg, FedConfig};
use pds2::learning::gossip::{run_gossip_experiment, GossipConfig, GossipRun, MergeRule};
use pds2::ml::data::gaussian_blobs;
use pds2::ml::model::LogisticRegression;
use pds2::net::{FaultPlan, LinkModel};

fn main() {
    let n_nodes = 20;
    let data = gaussian_blobs(2000, 5, 0.8, 1);
    let (train, test) = data.split(0.25, 2);
    let shards_iid = train.partition_iid(n_nodes, 3);
    let shards_skew = train.partition_noniid(n_nodes, 3);

    println!(
        "nodes: {n_nodes}, train: {}, test: {}\n",
        train.len(),
        test.len()
    );

    for (label, shards) in [("IID", &shards_iid), ("non-IID", &shards_skew)] {
        // Gossip learning: fully decentralized.
        let cfg = GossipConfig {
            period_us: 500_000,
            merge: MergeRule::AgeWeighted,
            ..Default::default()
        };
        // 30 simulated seconds.
        let run = GossipRun::new(cfg, LinkModel::default(), 7, &[30_000_000]);
        let gossip =
            run_gossip_experiment(shards.clone(), &test, &run, || LogisticRegression::new(5));

        // FedAvg: same communication budget, central coordinator.
        let fed = run_fedavg(
            shards,
            &test,
            &FedConfig {
                rounds: 30,
                client_fraction: 0.3,
                ..Default::default()
            },
            || LogisticRegression::new(5),
            &|_, _| true,
            usize::MAX,
        );

        println!("== {label} partition ==");
        println!(
            "gossip   : accuracy {:.3}, {} models moved, no coordinator",
            gossip.accuracy_curve[0], gossip.models_transferred
        );
        println!(
            "federated: accuracy {:.3}, {} models moved, {} through ONE coordinator",
            fed.accuracy_curve.last().unwrap(),
            fed.stats.models_transferred,
            fed.stats.coordinator_transfers
        );
        println!();
    }

    // Churn: 30% of nodes die permanently partway through.
    let cfg = GossipConfig {
        period_us: 500_000,
        ..Default::default()
    };
    let run = GossipRun {
        faults: FaultPlan::new(7).random_failures(n_nodes, 0.3, 15_000_000),
        ..GossipRun::new(cfg, LinkModel::default(), 7, &[30_000_000])
    };
    let gossip_churn = run_gossip_experiment(shards_iid.clone(), &test, &run, || {
        LogisticRegression::new(5)
    });
    println!("== 30% permanent churn ==");
    println!(
        "gossip survives: accuracy {:.3} with {} nodes left",
        gossip_churn.accuracy_curve[0], gossip_churn.online_nodes
    );

    // Coordinator failure kills FedAvg outright.
    let fed_dead = run_fedavg(
        &shards_iid,
        &test,
        &FedConfig {
            rounds: 30,
            ..Default::default()
        },
        || LogisticRegression::new(5),
        &|_, _| true,
        5, // coordinator dies after round 5
    );
    println!(
        "federated with coordinator death at round 5: accuracy frozen at {:.3} (round 5) .. {:.3} (round 30)",
        fed_dead.accuracy_curve[5],
        fed_dead.accuracy_curve.last().unwrap()
    );
    assert_eq!(
        fed_dead.accuracy_curve[5],
        *fed_dead.accuracy_curve.last().unwrap(),
        "no coordinator, no progress"
    );
}
