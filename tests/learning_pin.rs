//! The learning primitives' numbers, pinned bit for bit.
//!
//! `lifecycle_pin` covers the marketplace's path through training, noise,
//! aggregation and Shapley; this file covers the same primitives where the
//! learning, pricing and reward crates call them directly: the synthetic
//! generators, a DP gossip run, a priced model sale, the Gaussian
//! mechanism, FedAvg and a Monte-Carlo Shapley split over real training
//! runs. Every constant was recorded at `1f942f9`, before the private
//! copies of the Gaussian sampler, the DP-SGD step, the classifier
//! accuracy and the parallel Shapley estimator were folded into one each.

use pds2::learning::dp::{gaussian_mechanism_vec, gaussian_sigma};
use pds2::learning::federated::{run_fedavg, FedConfig};
use pds2::learning::gossip::{
    run_gossip_experiment, DpConfig, GossipConfig, GossipNode, GossipRun,
};
use pds2::ml::data::{gaussian_blobs, noisy_linear, Dataset};
use pds2::ml::model::{LogisticRegression, Model};
use pds2::ml::sgd::{train, SgdConfig};
use pds2::net::{LinkModel, Simulator};
use pds2::rewards::pricing::{PricedModel, PricingConfig};
use pds2::rewards::shapley::{monte_carlo_shapley, McConfig};
use pds2::rewards::utility::MlUtility;
use pds2_crypto::sha256::sha256;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SHA-256 over the little-endian bit patterns of `values`, in order.
fn bits_sha<'a>(values: impl IntoIterator<Item = &'a f64>) -> String {
    let bytes: Vec<u8> = values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    sha256(&bytes).to_hex()
}

fn dataset_sha(d: &Dataset) -> String {
    bits_sha(d.x.iter().flatten().chain(&d.y))
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn generators_are_pinned() {
    assert_eq!(
        dataset_sha(&gaussian_blobs(200, 5, 0.7, 3)),
        "f07ad3a91c477a4a4dba6a377a3063b36e71650893b64f4502376cf707a943c7"
    );
    assert_eq!(
        dataset_sha(&noisy_linear(200, 4, 0.3, 3)),
        "6e7d1b293cba3bb9621113380c8e48aef2c4636075f8364ef0149c93e4963efb"
    );
}

/// The `tests/privacy.rs` setup: DP gossip over four member shards. The
/// curve is read on heavily overlapping fresh data, where it is not 1.0.
fn dp_gossip_setup() -> (Vec<Dataset>, Dataset, GossipConfig) {
    let (members, _) = gaussian_blobs(80, 16, 2.0, 7).split(0.5, 8);
    let cfg = GossipConfig {
        period_us: 100_000,
        local_steps: 6,
        learning_rate: 0.4,
        dp: Some(DpConfig {
            clip: 1.0,
            noise_multiplier: 0.5,
        }),
        ..Default::default()
    };
    (
        members.partition_iid(4, 9),
        gaussian_blobs(400, 16, 4.0, 9),
        cfg,
    )
}

#[test]
fn dp_gossip_run_is_pinned() {
    let (shards, eval, cfg) = dp_gossip_setup();
    let out = run_gossip_experiment(
        shards.clone(),
        &eval,
        &GossipRun::new(
            cfg.clone(),
            LinkModel::instant(),
            11,
            &[300_000, 1_000_000, 20_000_000],
        ),
        || LogisticRegression::new(16),
    );
    assert_eq!(
        bits(&out.accuracy_curve),
        [
            4605769414416929914,
            4605769414416929916,
            4605549863935095603
        ]
    );
    // The curve is coarse (a mean of k/40 fractions); the nodes' final
    // parameters catch a change in the last bit of one noisy step.
    let nodes: Vec<GossipNode<LogisticRegression>> = shards
        .into_iter()
        .map(|s| GossipNode::new(LogisticRegression::new(16), s, cfg.clone()))
        .collect();
    let mut sim = Simulator::new(nodes, LinkModel::instant(), 11);
    sim.run_until(5_000_000);
    let params: Vec<f64> = sim.nodes().flat_map(|n| n.model.params()).collect();
    assert_eq!(
        bits_sha(&params),
        "8033a970340071ba781b58b9572a3230fbdcedc894f0bbbb366b8373f702958e"
    );
}

#[test]
fn priced_model_sales_are_pinned() {
    let (tr, te) = gaussian_blobs(600, 3, 0.7, 1).split(0.3, 2);
    let mut m = LogisticRegression::new(3);
    train(&mut m, &tr, &SgdConfig::default());
    let priced = PricedModel::new(m, PricingConfig::default());
    let sold: Vec<f64> = [(0u128, 3u64), (250, 9), (999, 4)]
        .iter()
        .flat_map(|&(budget, seed)| priced.instance_for_budget(budget, seed).params())
        .collect();
    assert_eq!(
        bits_sha(&sold),
        "fb38047426cb53976ad1b3674fba31a85c1eef60e3c52bf9a7bb128a61d44e4a"
    );
    let curve: Vec<f64> = priced
        .accuracy_curve(&te, &[0, 500, 1_000], 4, 7)
        .into_iter()
        .map(|(_, acc)| acc)
        .collect();
    assert_eq!(
        bits(&curve),
        [
            4602891489155050519,
            4605656198926297407,
            4607082338808298064
        ]
    );
}

/// The parent drew `(σ·a)·b` and the shared sampler gives `σ·(a·b)`,
/// which round apart in the last bit for most σ. An ε chosen so that σ is
/// exactly 2 makes both products exact, so the noise stream itself is
/// pinned across that change.
#[test]
fn gaussian_mechanism_is_pinned() {
    let epsilon = gaussian_sigma(1.0, 1.0, 1e-5);
    assert_eq!(gaussian_sigma(2.0, epsilon, 1e-5), 2.0);
    let mut rng = StdRng::seed_from_u64(6);
    let mut v: Vec<f64> = (0..16).map(|i| i as f64 * 0.25).collect();
    gaussian_mechanism_vec(&mut rng, &mut v, 2.0, epsilon, 1e-5);
    assert_eq!(
        bits_sha(&v),
        "8c39f6aa8116893957e152ee1eebef10417a4be83b149d6b0942d16a7b1c0449"
    );
}

#[test]
fn fedavg_run_is_pinned() {
    let (train_set, test) = gaussian_blobs(600, 3, 2.0, 1).split(0.25, 2);
    let shards = train_set.partition_iid(10, 3);
    let out = run_fedavg(
        &shards,
        &test,
        &FedConfig {
            rounds: 6,
            ..Default::default()
        },
        || LogisticRegression::new(3),
        &|_, _| true,
        usize::MAX,
    );
    assert_eq!(
        bits(&out.accuracy_curve),
        [
            4605861362909322063,
            4605861362909322063,
            4605861362909322063,
            4605801314914290456,
            4605861362909322063,
            4605861362909322063
        ]
    );
    assert_eq!(
        bits_sha(&out.model.params()),
        "d006461fd305d35df3735e1df25bb21f23a654048be883a2fbc5ff1b98e07fa4"
    );
}

/// The marketplace's Shapley split at the benchmark's shape: 16 providers,
/// 32 permutations, the finalize path's SGD and truncation settings.
#[test]
fn monte_carlo_shapley_split_is_pinned() {
    let (train_set, test) = gaussian_blobs(16 * 24, 3, 0.7, 21).split(0.2, 22);
    let mut utility = MlUtility::new(
        train_set.partition_iid(16, 23),
        test,
        SgdConfig {
            epochs: 2,
            seed: 5,
            ..Default::default()
        },
    );
    let phi = monte_carlo_shapley(
        &mut utility,
        &McConfig {
            permutations: 32,
            truncation_tolerance: 1e-3,
            seed: 5,
        },
    );
    assert_eq!(
        bits_sha(&phi),
        "26e58828c1e621a18b19ebe61eb94d5456e3bf6b79cfdc9476372474b4abc024"
    );
    assert_eq!(utility.training_runs, 36);
}
