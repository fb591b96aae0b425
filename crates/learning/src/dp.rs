//! Differential-privacy mechanisms and the DP-SGD step (§IV-D).
//!
//! The paper proposes that "executors could statically or dynamically
//! analyze each workload to assess the risk of privacy leaks and apply the
//! most suitable measures to limit it", citing differential privacy. This
//! module provides the Laplace and Gaussian mechanisms, their calibration,
//! and the DP-SGD step that DP workloads, gossip learning and experiment
//! E11 use to trade attack advantage against model accuracy.

use pds2_ml::data::{standard_normal, Dataset};
use pds2_ml::linalg::clip_norm;
use pds2_ml::model::Model;
use pds2_ml::sgd;
use rand::Rng;

/// Samples Laplace(0, b) noise.
pub fn laplace_noise<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    assert!(scale > 0.0, "scale must be positive");
    // Inverse CDF: u uniform in (-0.5, 0.5].
    let u: f64 = rng.random::<f64>() - 0.5;
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).max(1e-300).ln()
}

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

/// The Laplace mechanism: releases `value + Lap(sensitivity / epsilon)`,
/// which is ε-differentially private for the given L1 sensitivity.
pub fn laplace_mechanism<R: Rng + ?Sized>(
    rng: &mut R,
    value: f64,
    sensitivity: f64,
    epsilon: f64,
) -> f64 {
    assert!(epsilon > 0.0, "epsilon must be positive");
    value + laplace_noise(rng, sensitivity / epsilon)
}

/// Gaussian-mechanism noise stddev for (ε, δ)-DP with L2 sensitivity
/// `sensitivity` (the classic analytic bound, valid for ε ≤ 1).
pub fn gaussian_sigma(sensitivity: f64, epsilon: f64, delta: f64) -> f64 {
    assert!(epsilon > 0.0 && delta > 0.0 && delta < 1.0, "bad (ε, δ)");
    sensitivity * (2.0 * (1.25 / delta).ln()).sqrt() / epsilon
}

/// The Gaussian mechanism on a vector (adds iid noise per coordinate).
pub fn gaussian_mechanism_vec<R: Rng + ?Sized>(
    rng: &mut R,
    values: &mut [f64],
    sensitivity: f64,
    epsilon: f64,
    delta: f64,
) {
    let sigma = gaussian_sigma(sensitivity, epsilon, delta);
    for v in values {
        *v += gaussian_noise(rng, sigma);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn laplace_noise_statistics() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = 2.0;
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| laplace_noise(&mut rng, b)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        // Laplace variance = 2b².
        assert!((var - 8.0).abs() < 0.5, "var {var}");
    }

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

    #[test]
    fn smaller_epsilon_means_more_noise() {
        let mut rng = StdRng::seed_from_u64(3);
        let spread = |eps: f64| {
            let mut rng2 = StdRng::seed_from_u64(4);
            (0..2000)
                .map(|_| (laplace_mechanism(&mut rng2, 0.0, 1.0, eps)).abs())
                .sum::<f64>()
                / 2000.0
        };
        let _ = &mut rng;
        assert!(spread(0.1) > spread(1.0) * 5.0);
    }

    #[test]
    fn gaussian_sigma_calibration() {
        // Known closed form: σ = Δ√(2 ln(1.25/δ)) / ε.
        let s = gaussian_sigma(1.0, 1.0, 1e-5);
        assert!((s - (2.0f64 * (1.25f64 / 1e-5).ln()).sqrt()).abs() < 1e-9);
        // Tighter ε or δ → more noise.
        assert!(gaussian_sigma(1.0, 0.5, 1e-5) > s);
        assert!(gaussian_sigma(1.0, 1.0, 1e-9) > s);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = laplace_mechanism(&mut rng, 0.0, 1.0, 0.0);
    }

    #[test]
    fn mechanism_vec_perturbs_in_place() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut v = vec![1.0; 100];
        gaussian_mechanism_vec(&mut rng, &mut v, 1.0, 1.0, 1e-5);
        assert!(v.iter().any(|&x| (x - 1.0).abs() > 1e-6));
    }
}
