//! The DP-SGD step (§IV-D) and its Gaussian sampler.
//!
//! The paper proposes that "executors could statically or dynamically
//! analyze each workload to assess the risk of privacy leaks and apply the
//! most suitable measures to limit it", citing differential privacy. The
//! measure here is one DP-SGD step, which DP workloads, gossip learning
//! and experiment E11 use to trade attack advantage against model
//! accuracy.

use pds2_ml::data::{standard_normal, Dataset};
use pds2_ml::linalg::clip_norm;
use pds2_ml::model::Model;
use pds2_ml::sgd;
use rand::Rng;

/// Samples Gaussian(0, sigma²) noise.
pub fn gaussian_noise<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    assert!(sigma >= 0.0, "sigma must be non-negative");
    sigma * standard_normal(rng)
}

/// One DP-SGD step on `batch`: the gradient is clipped to L2 norm `clip`,
/// each coordinate gets `sigma · N(0, 1)` noise, then the model descends
/// along it at rate `lr`. Callers keep their own loops (epochs, local
/// steps, full batch) and their own choice of `sigma`.
pub fn sgd_step<M: Model, R: Rng + ?Sized>(
    model: &mut M,
    data: &Dataset,
    batch: &[usize],
    lr: f64,
    clip: f64,
    sigma: f64,
    rng: &mut R,
) {
    let mut grad = model.gradient(data, batch);
    clip_norm(&mut grad, clip);
    for g in &mut grad {
        *g += gaussian_noise(rng, sigma);
    }
    sgd::step(model, &grad, lr);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_noise_statistics() {
        let mut rng = StdRng::seed_from_u64(2);
        let sigma = 3.0;
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian_noise(&mut rng, sigma)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }
}
