//! §III-C: gossip learning in "constrained and highly heterogeneous
//! environments" (the Giaretta & Girdzijauskas setting the paper cites).
//!
//! Nodes differ in speed by an order of magnitude, links are lossy, and
//! bandwidth is tight — the protocol must still converge, and slow nodes
//! must not stall fast ones (no synchronization barrier exists).

use pds2::learning::gossip::{run_gossip_experiment, GossipConfig, GossipRun, MergeRule};
use pds2::ml::data::gaussian_blobs;
use pds2::ml::model::LogisticRegression;
use pds2::net::{LinkModel, NetStats, Node, NodeId, Simulator};

#[test]
fn gossip_converges_on_heterogeneous_lossy_network() {
    let n = 16;
    let data = gaussian_blobs(1600, 4, 0.8, 1);
    let (train, test) = data.split(0.25, 2);
    let shards = train.partition_noniid(n, 3);
    // Half the fleet is 10x slower; links drop 10% of messages; bandwidth
    // is constrained enough that model size matters.
    let slowdown: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { 1.0 } else { 10.0 })
        .collect();
    let link = LinkModel {
        base_latency_us: 50_000,
        jitter_us: 20_000,
        bandwidth_bytes_per_sec: 50_000,
        drop_probability: 0.1,
        node_slowdown: slowdown,
        topology: None,
    };
    let out = run_gossip_experiment(
        shards,
        &test,
        &GossipRun::new(
            GossipConfig {
                period_us: 500_000,
                merge: MergeRule::AgeWeighted,
                ..Default::default()
            },
            link,
            7,
            &[40_000_000],
        ),
        || LogisticRegression::new(4),
    );
    assert!(
        out.accuracy_curve[0] > 0.9,
        "heterogeneous fleet must still converge: {:?}",
        out.accuracy_curve
    );
    assert!(out.models_transferred > 100);
}

#[test]
fn slow_nodes_do_not_block_fast_nodes() {
    // A two-node microbenchmark of the no-barrier property: the fast node
    // keeps gossiping at its own cadence even when the peer is 50x slower.
    struct Counter {
        sent: u64,
    }
    impl Node for Counter {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut pds2::net::Ctx<'_, ()>) {
            ctx.set_timer(1_000, 0);
        }
        fn on_message(&mut self, _: &mut pds2::net::Ctx<'_, ()>, _: NodeId, _: ()) {}
        fn on_timer(&mut self, ctx: &mut pds2::net::Ctx<'_, ()>, _: u64) {
            if let Some(p) = ctx.random_peer() {
                ctx.send(p, ());
                self.sent += 1;
            }
            ctx.set_timer(1_000, 0);
        }
    }
    let link = LinkModel {
        base_latency_us: 100,
        jitter_us: 0,
        bandwidth_bytes_per_sec: u64::MAX,
        drop_probability: 0.0,
        node_slowdown: vec![1.0, 50.0],
        topology: None,
    };
    let mut sim = Simulator::new(vec![Counter { sent: 0 }, Counter { sent: 0 }], link, 1);
    sim.run_until(1_000_000);
    // Timers are local: both nodes fire ~1000 times regardless of link
    // slowness — the protocol has no round barrier to stall on.
    assert!(
        sim.node(0).sent >= 990,
        "fast node sent {}",
        sim.node(0).sent
    );
    assert!(
        sim.node(1).sent >= 990,
        "slow node sent {}",
        sim.node(1).sent
    );
    let stats: NetStats = sim.stats();
    assert_eq!(stats.dropped_loss, 0);
}

#[test]
fn bandwidth_constrains_large_models() {
    // The same gossip run with a 100x larger model moves 100x the bytes;
    // on a tight link that shows up as delivery delay, not loss.
    let n = 6;
    let data = gaussian_blobs(300, 4, 0.8, 5);
    let (train, test) = data.split(0.3, 6);
    let shards = train.partition_iid(n, 7);
    let tight = LinkModel {
        base_latency_us: 1_000,
        jitter_us: 0,
        bandwidth_bytes_per_sec: 10_000, // 10 kB/s
        drop_probability: 0.0,
        node_slowdown: Vec::new(),
        topology: None,
    };
    let out = run_gossip_experiment(
        shards,
        &test,
        &GossipRun::new(
            GossipConfig {
                period_us: 200_000,
                ..Default::default()
            },
            tight,
            8,
            &[20_000_000],
        ),
        || LogisticRegression::new(4),
    );
    // 5 params * 8B + 16B header = 56B per model, ~5.6ms serialization on
    // a 10kB/s link; gossip still converges.
    assert!(out.accuracy_curve[0] > 0.9, "{:?}", out.accuracy_curve);
    assert!(out.bytes_transferred > 0);
}
