//! Federated learning (FedAvg) — the centralized baseline of §III-C.
//!
//! A coordinator samples a fraction of clients each round; sampled clients
//! train locally from the global model and return their parameters, which
//! the server averages weighted by shard size. The implementation exposes
//! exactly the failure modes the paper attributes to the central
//! coordinator: aggregator load scaling with participation, stalling when
//! the coordinator fails, and wasted rounds when sampled clients are
//! offline.

use pds2_ml::data::Dataset;
use pds2_ml::linalg::weighted_mean;
use pds2_ml::metrics::classifier_accuracy;
use pds2_ml::model::Model;
use pds2_ml::sgd::{self, SgdConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FedAvg hyperparameters.
#[derive(Clone, Debug)]
pub struct FedConfig {
    /// Fraction of clients sampled per round.
    pub client_fraction: f64,
    /// Local epochs per sampled client per round.
    pub local_epochs: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Local learning rate.
    pub learning_rate: f64,
    /// Number of federated rounds.
    pub rounds: usize,
    /// RNG seed (client sampling).
    pub seed: u64,
}

impl Default for FedConfig {
    fn default() -> Self {
        FedConfig {
            client_fraction: 0.3,
            local_epochs: 1,
            batch_size: 16,
            learning_rate: 0.1,
            rounds: 50,
            seed: 0,
        }
    }
}

/// Per-round telemetry from a FedAvg run.
#[derive(Clone, Debug, Default)]
pub struct FedStats {
    /// Model transfers (down + up) over the whole run.
    pub models_transferred: u64,
    /// Bytes moved (param vectors, 8 bytes per element + overhead).
    pub bytes_transferred: u64,
    /// Model transfers handled by the coordinator alone (its load).
    pub coordinator_transfers: u64,
    /// Rounds in which no sampled client was available.
    pub wasted_rounds: u64,
}

/// Outcome of a FedAvg run.
#[derive(Clone, Debug)]
pub struct FedOutcome<M: Model> {
    /// Final global model.
    pub model: M,
    /// Test accuracy after each round (if a test set was supplied).
    pub accuracy_curve: Vec<f64>,
    /// Telemetry.
    pub stats: FedStats,
}

/// Availability oracle: maps `(round, client)` to online status.
pub type Availability<'a> = &'a dyn Fn(usize, usize) -> bool;

/// Runs FedAvg over `shards`, evaluating on `test` after every round.
///
/// * `availability` — client availability per round (models churn);
/// * `coordinator_alive_until` — round after which the coordinator is
///   dead; aggregation stops and the model freezes (E6's coordinator-
///   failure scenario). Use `usize::MAX` for no failure.
pub fn run_fedavg<M, F>(
    shards: &[Dataset],
    test: &Dataset,
    cfg: &FedConfig,
    make_model: F,
    availability: Availability<'_>,
    coordinator_alive_until: usize,
) -> FedOutcome<M>
where
    M: Model,
    F: Fn() -> M,
{
    assert!(!shards.is_empty(), "need at least one client");
    assert!(
        (0.0..=1.0).contains(&cfg.client_fraction) && cfg.client_fraction > 0.0,
        "client fraction must be in (0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut global = make_model();
    let n_params = global.n_params() as u64;
    let model_bytes = n_params * 8 + 16;
    let mut stats = FedStats::default();
    let mut accuracy_curve = Vec::with_capacity(cfg.rounds);
    let sample_size = ((shards.len() as f64 * cfg.client_fraction).round() as usize).max(1);

    // One causal trace per experiment; each round is a child span.
    let root = pds2_obs::new_trace(
        "learning",
        "fed.experiment",
        pds2_obs::Stamp::Round(0),
        vec![
            ("clients", pds2_obs::Value::from(shards.len() as u64)),
            ("rounds", pds2_obs::Value::from(cfg.rounds as u64)),
        ],
    );
    for round in 0..cfg.rounds {
        if round >= coordinator_alive_until {
            // Coordinator dead: nothing aggregates; model frozen.
            accuracy_curve.push(classifier_accuracy(&global, test));
            continue;
        }
        // Sample distinct clients.
        let mut pool: Vec<usize> = (0..shards.len()).collect();
        for i in (1..pool.len()).rev() {
            let j = rng.random_range(0..=i);
            pool.swap(i, j);
        }
        let sampled = &pool[..sample_size];
        let mut updates: Vec<Vec<f64>> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        for &client in sampled {
            if !availability(round, client) || shards[client].is_empty() {
                continue;
            }
            // Download global, train locally, upload.
            stats.models_transferred += 2;
            stats.bytes_transferred += 2 * model_bytes;
            stats.coordinator_transfers += 2;
            let mut local = global.clone();
            sgd::train(
                &mut local,
                &shards[client],
                &SgdConfig {
                    learning_rate: cfg.learning_rate,
                    lr_decay: 1.0,
                    batch_size: cfg.batch_size,
                    epochs: cfg.local_epochs,
                    clip: None,
                    seed: cfg.seed ^ (round as u64) << 20 ^ client as u64,
                },
            );
            updates.push(local.params());
            weights.push(shards[client].len() as f64);
        }
        if updates.is_empty() {
            stats.wasted_rounds += 1;
            pds2_obs::counter!("learning.fed_wasted_rounds").inc();
        } else {
            let averaged = weighted_mean(&updates, &weights);
            global.set_params(&averaged);
        }
        let acc = classifier_accuracy(&global, test);
        pds2_obs::counter!("learning.fed_rounds").inc();
        pds2_obs::event!(
            "learning",
            "fed.round",
            pds2_obs::Stamp::Round(round as u64),
            root.ctx(),
            "participants" => updates.len(),
            "accuracy" => acc,
        );
        accuracy_curve.push(acc);
    }
    root.finish(
        pds2_obs::Stamp::Round(cfg.rounds as u64),
        vec![("wasted_rounds", pds2_obs::Value::from(stats.wasted_rounds))],
    );
    FedOutcome {
        model: global,
        accuracy_curve,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds2_ml::data::gaussian_blobs;
    use pds2_ml::model::LogisticRegression;

    fn setup() -> (Vec<Dataset>, Dataset) {
        let data = gaussian_blobs(600, 3, 0.7, 1);
        let (train, test) = data.split(0.25, 2);
        (train.partition_iid(10, 3), test)
    }

    const ALWAYS: fn(usize, usize) -> bool = |_, _| true;

    #[test]
    fn fedavg_converges_on_blobs() {
        let _obs = pds2_obs::test_lock();
        let (shards, test) = setup();
        let out = run_fedavg(
            &shards,
            &test,
            &FedConfig::default(),
            || LogisticRegression::new(3),
            &ALWAYS,
            usize::MAX,
        );
        assert!(
            *out.accuracy_curve.last().unwrap() > 0.9,
            "{:?}",
            out.accuracy_curve.last()
        );
        assert_eq!(out.stats.wasted_rounds, 0);
        assert!(out.stats.models_transferred > 0);
    }

    #[test]
    fn coordinator_load_equals_all_transfers() {
        let _obs = pds2_obs::test_lock();
        // Every model transfer passes through the coordinator — the
        // bottleneck claim of §III-C.
        let (shards, test) = setup();
        let out = run_fedavg(
            &shards,
            &test,
            &FedConfig::default(),
            || LogisticRegression::new(3),
            &ALWAYS,
            usize::MAX,
        );
        assert_eq!(
            out.stats.coordinator_transfers,
            out.stats.models_transferred
        );
    }

    #[test]
    fn coordinator_failure_freezes_model() {
        let _obs = pds2_obs::test_lock();
        let (shards, test) = setup();
        let out = run_fedavg(
            &shards,
            &test,
            &FedConfig {
                rounds: 30,
                ..Default::default()
            },
            || LogisticRegression::new(3),
            &ALWAYS,
            5, // coordinator dies after round 5
        );
        // Accuracy is constant after the failure round.
        let frozen = &out.accuracy_curve[5..];
        assert!(
            frozen.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12),
            "model must freeze after coordinator failure"
        );
    }

    #[test]
    fn offline_clients_waste_rounds() {
        let _obs = pds2_obs::test_lock();
        let (shards, test) = setup();
        let nobody: fn(usize, usize) -> bool = |_, _| false;
        let out = run_fedavg(
            &shards,
            &test,
            &FedConfig {
                rounds: 10,
                ..Default::default()
            },
            || LogisticRegression::new(3),
            &nobody,
            usize::MAX,
        );
        assert_eq!(out.stats.wasted_rounds, 10);
        assert_eq!(out.stats.models_transferred, 0);
        // Untrained model: blob accuracy ~0.5.
        assert!(*out.accuracy_curve.last().unwrap() < 0.7);
    }

    #[test]
    fn partial_availability_still_learns() {
        let _obs = pds2_obs::test_lock();
        let (shards, test) = setup();
        let flaky: fn(usize, usize) -> bool = |round, client| (round + client) % 2 == 0;
        let out = run_fedavg(
            &shards,
            &test,
            &FedConfig::default(),
            || LogisticRegression::new(3),
            &flaky,
            usize::MAX,
        );
        assert!(*out.accuracy_curve.last().unwrap() > 0.85);
    }

    #[test]
    fn deterministic_given_seed() {
        let _obs = pds2_obs::test_lock();
        let (shards, test) = setup();
        let run = || {
            run_fedavg(
                &shards,
                &test,
                &FedConfig::default(),
                || LogisticRegression::new(3),
                &ALWAYS,
                usize::MAX,
            )
        };
        assert_eq!(run().model.params(), run().model.params());
    }

    #[test]
    #[should_panic(expected = "client fraction")]
    fn zero_fraction_rejected() {
        let (shards, test) = setup();
        let _ = run_fedavg(
            &shards,
            &test,
            &FedConfig {
                client_fraction: 0.0,
                ..Default::default()
            },
            || LogisticRegression::new(3),
            &ALWAYS,
            usize::MAX,
        );
    }
}
