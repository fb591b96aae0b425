//! Mini-batch stochastic gradient descent.

use crate::data::Dataset;
use crate::linalg::clip_norm;
use crate::model::Model;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SGD hyperparameters.
#[derive(Clone, Debug)]
pub struct SgdConfig {
    /// Initial learning rate.
    pub learning_rate: f64,
    /// Multiplicative decay applied after each epoch.
    pub lr_decay: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of passes over the data.
    pub epochs: usize,
    /// Optional gradient-norm clip (used by DP-SGD).
    pub clip: Option<f64>,
    /// RNG seed for batch shuffling.
    pub seed: u64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            learning_rate: 0.1,
            lr_decay: 0.99,
            batch_size: 32,
            epochs: 10,
            clip: None,
            seed: 0,
        }
    }
}

/// Trains `model` in place on `data`; returns the per-epoch training loss.
pub fn train<M: Model>(model: &mut M, data: &Dataset, cfg: &SgdConfig) -> Vec<f64> {
    assert!(cfg.batch_size > 0, "batch size must be positive");
    if data.is_empty() {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut lr = cfg.learning_rate;
    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut order: Vec<usize> = (0..data.len()).collect();
    for _ in 0..cfg.epochs {
        // Fisher–Yates shuffle.
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        for batch in order.chunks(cfg.batch_size) {
            let mut grad = model.gradient(data, batch);
            if let Some(c) = cfg.clip {
                clip_norm(&mut grad, c);
            }
            step(model, &grad, lr);
        }
        losses.push(model.loss(data));
        lr *= cfg.lr_decay;
    }
    losses
}

/// One descent step along a gradient the caller computed: `p -= lr·g`.
/// Exposed for the decentralized protocols, which interleave local steps
/// with merges, and for DP-SGD, which clips and noises the gradient first.
pub fn step<M: Model>(model: &mut M, grad: &[f64], lr: f64) {
    let mut params = model.params();
    for (p, g) in params.iter_mut().zip(grad) {
        *p -= lr * g;
    }
    model.set_params(&params);
}

/// `min(size, n)` row indices drawn uniformly with replacement: the
/// mini-batch of one local step when there are no epochs to shuffle.
pub fn draw_batch<R: Rng + ?Sized>(rng: &mut R, n: usize, size: usize) -> Vec<usize> {
    (0..size.min(n)).map(|_| rng.random_range(0..n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{gaussian_blobs, noisy_linear};
    use crate::metrics::accuracy;
    use crate::model::{LinearRegression, LogisticRegression};

    #[test]
    fn linreg_fits_linear_data() {
        let data = noisy_linear(500, 4, 0.05, 1);
        let mut m = LinearRegression::new(4);
        let losses = train(
            &mut m,
            &data,
            &SgdConfig {
                learning_rate: 0.05,
                epochs: 50,
                ..Default::default()
            },
        );
        assert!(losses.last().unwrap() < &0.05, "final loss {losses:?}");
        assert!(losses.first().unwrap() > losses.last().unwrap());
    }

    #[test]
    fn logreg_separates_blobs() {
        let data = gaussian_blobs(400, 3, 0.6, 2);
        let (train_set, test_set) = data.split(0.25, 3);
        let mut m = LogisticRegression::new(3);
        train(
            &mut m,
            &train_set,
            &SgdConfig {
                epochs: 30,
                ..Default::default()
            },
        );
        let preds: Vec<f64> = test_set.x.iter().map(|x| m.classify(x)).collect();
        let acc = accuracy(&preds, &test_set.y);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let data = noisy_linear(100, 3, 10.0, 6); // noisy -> big gradients
        let mut clipped = LinearRegression::new(3);
        let before = clipped.params();
        // One full-batch step.
        train(
            &mut clipped,
            &data,
            &SgdConfig {
                learning_rate: 1.0,
                batch_size: 100,
                epochs: 1,
                clip: Some(0.001),
                ..Default::default()
            },
        );
        let after = clipped.params();
        let delta: f64 = before
            .iter()
            .zip(&after)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(delta <= 0.001 + 1e-9, "clipped update too large: {delta}");
    }

    #[test]
    fn training_is_deterministic() {
        let data = gaussian_blobs(100, 2, 1.0, 7);
        let cfg = SgdConfig::default();
        let mut m1 = LogisticRegression::new(2);
        let mut m2 = LogisticRegression::new(2);
        train(&mut m1, &data, &cfg);
        train(&mut m2, &data, &cfg);
        assert_eq!(m1.params(), m2.params());
    }

    #[test]
    fn empty_dataset_is_noop() {
        let data = Dataset::new(Vec::new(), Vec::new());
        let mut m = LinearRegression::new(2);
        let losses = train(&mut m, &data, &SgdConfig::default());
        assert!(losses.is_empty());
        assert_eq!(m.params(), vec![0.0, 0.0, 0.0]);
    }
}
