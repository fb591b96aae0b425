//! ML coalition utilities: valuing provider datasets by the accuracy of a
//! model trained on the coalition's pooled data (§IV-A's "marginal
//! improvement when adding a dataset").

use crate::shapley::Utility;
use pds2_ml::data::Dataset;
use pds2_ml::metrics::classifier_accuracy;
use pds2_ml::model::LogisticRegression;
use pds2_ml::sgd::{train, SgdConfig};
use std::collections::HashMap;

/// Coalition utility = test accuracy of a logistic-regression model
/// trained on the union of the coalition's shards. Evaluations are
/// memoized — a requirement in practice because each one is a full
/// training run (the "time needed to train" cost the paper flags), and
/// the one memo serves every permutation of a Monte-Carlo split, so each
/// coalition trains at most once.
pub struct MlUtility {
    shards: Vec<Dataset>,
    test: Dataset,
    sgd: SgdConfig,
    cache: HashMap<Vec<usize>, f64>,
    /// Training runs actually executed (cache misses).
    pub training_runs: u64,
}

impl MlUtility {
    /// Creates a utility over provider shards with a held-out test set.
    pub fn new(shards: Vec<Dataset>, test: Dataset, sgd: SgdConfig) -> Self {
        MlUtility {
            shards,
            test,
            sgd,
            cache: HashMap::new(),
            training_runs: 0,
        }
    }

    fn accuracy_of(&mut self, coalition: &[usize]) -> f64 {
        if coalition.is_empty() || self.test.is_empty() {
            // Empty coalition: majority-class guess.
            let pos = self.test.positive_fraction();
            return pos.max(1.0 - pos);
        }
        let parts: Vec<Dataset> = coalition.iter().map(|&i| self.shards[i].clone()).collect();
        let pooled = Dataset::concat(&parts);
        if pooled.is_empty() {
            let pos = self.test.positive_fraction();
            return pos.max(1.0 - pos);
        }
        let mut model = LogisticRegression::new(pooled.dim());
        train(&mut model, &pooled, &self.sgd);
        self.training_runs += 1;
        pds2_obs::counter!("rewards.training_runs").inc();
        classifier_accuracy(&model, &self.test)
    }
}

impl Utility for MlUtility {
    fn value(&mut self, coalition: &[usize]) -> f64 {
        // Counters only (no trace events): a Monte-Carlo split makes
        // hundreds of these calls, one trace event each would swamp a
        // lifecycle's trace.
        pds2_obs::counter!("rewards.shapley_evals").inc();
        let key = coalition.to_vec();
        if let Some(&v) = self.cache.get(&key) {
            pds2_obs::counter!("rewards.utility_cache_hits").inc();
            return v;
        }
        pds2_obs::counter!("rewards.utility_cache_misses").inc();
        let v = self.accuracy_of(coalition);
        self.cache.insert(key, v);
        v
    }

    fn n_players(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapley::{exact_shapley, monte_carlo_shapley, McConfig};
    use pds2_ml::data::gaussian_blobs;

    fn quick_sgd() -> SgdConfig {
        SgdConfig {
            epochs: 5,
            ..Default::default()
        }
    }

    #[test]
    fn utility_is_cached() {
        let data = gaussian_blobs(200, 2, 0.8, 1);
        let (train_set, test_set) = data.split(0.3, 2);
        let shards = train_set.partition_iid(4, 3);
        let mut u = MlUtility::new(shards, test_set, quick_sgd());
        let v1 = u.value(&[0, 1]);
        let runs = u.training_runs;
        let v2 = u.value(&[0, 1]);
        assert_eq!(v1, v2);
        assert_eq!(u.training_runs, runs, "second call must hit the cache");
    }

    #[test]
    fn empty_coalition_is_majority_baseline() {
        let data = gaussian_blobs(100, 2, 0.8, 1);
        let (tr, te) = data.split(0.3, 2);
        let mut u = MlUtility::new(tr.partition_iid(3, 1), te, quick_sgd());
        let v = u.value(&[]);
        assert!((0.4..=0.7).contains(&v), "baseline accuracy {v}");
    }

    #[test]
    fn junk_data_provider_earns_less() {
        // Three providers with real data, one with pure label noise: the
        // noisy provider's Shapley value must be the smallest — the §IV-A
        // "each data provider does not equally contribute" point.
        let good = gaussian_blobs(300, 2, 0.6, 5);
        let (tr, te) = good.split(0.3, 6);
        let mut shards = tr.partition_iid(3, 7);
        // Junk shard: shuffled labels.
        let mut junk = shards[0].clone();
        junk.y.reverse();
        let half = junk.y.len() / 2;
        for y in junk.y.iter_mut().take(half) {
            *y = 1.0 - *y;
        }
        shards.push(junk);
        let mut u = MlUtility::new(shards, te, quick_sgd());
        let phi = exact_shapley(&mut u);
        let junk_value = phi[3];
        assert!(
            phi[..3].iter().all(|&v| v > junk_value),
            "junk provider should be valued least: {phi:?}"
        );
    }

    #[test]
    fn monte_carlo_works_on_ml_utility() {
        let data = gaussian_blobs(200, 2, 0.8, 8);
        let (tr, te) = data.split(0.3, 9);
        let shards = tr.partition_iid(5, 10);
        let mut u = MlUtility::new(shards, te, quick_sgd());
        let phi = monte_carlo_shapley(
            &mut u,
            &McConfig {
                permutations: 20,
                truncation_tolerance: 0.005,
                seed: 11,
            },
        );
        assert_eq!(phi.len(), 5);
        // Values are marginal accuracies: bounded by 1 in magnitude.
        assert!(phi.iter().all(|v| v.abs() <= 1.0));
    }
}
