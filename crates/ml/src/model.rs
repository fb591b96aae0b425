//! Models: linear regression and binary logistic regression, the two
//! kinds of task a workload can ask for.
//!
//! All models expose a flat parameter vector ([`Model::params`] /
//! [`Model::set_params`]) so the decentralized aggregation protocols
//! (gossip merge, FedAvg) can average them generically.

use crate::data::Dataset;
use crate::linalg::{dot, sigmoid};

/// A trainable supervised model with a flat parameter view.
pub trait Model: Clone {
    /// Raw prediction (regression value, or logit for classifiers).
    fn raw_predict(&self, x: &[f64]) -> f64;

    /// Task-level prediction (class probability for classifiers,
    /// value for regressors).
    fn predict(&self, x: &[f64]) -> f64;

    /// Mean loss over a dataset.
    fn loss(&self, data: &Dataset) -> f64;

    /// Gradient of the mean loss over a batch of row indices,
    /// flattened to match [`Model::params`].
    fn gradient(&self, data: &Dataset, batch: &[usize]) -> Vec<f64>;

    /// Flat parameter vector (weights then bias).
    fn params(&self) -> Vec<f64>;

    /// Overwrites parameters from a flat vector.
    fn set_params(&mut self, params: &[f64]);

    /// Number of parameters.
    fn n_params(&self) -> usize {
        self.params().len()
    }
}

/// Linear regression under squared error.
#[derive(Clone, Debug, PartialEq)]
pub struct LinearRegression {
    /// Feature weights.
    pub weights: Vec<f64>,
    /// Intercept.
    pub bias: f64,
}

impl LinearRegression {
    /// Zero-initialized model of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        LinearRegression {
            weights: vec![0.0; dim],
            bias: 0.0,
        }
    }
}

impl Model for LinearRegression {
    fn raw_predict(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x) + self.bias
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.raw_predict(x)
    }

    fn loss(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        data.x
            .iter()
            .zip(&data.y)
            .map(|(x, y)| {
                let e = self.raw_predict(x) - y;
                e * e
            })
            .sum::<f64>()
            / data.len() as f64
    }

    #[allow(clippy::needless_range_loop)] // grad/x lockstep indexing
    fn gradient(&self, data: &Dataset, batch: &[usize]) -> Vec<f64> {
        assert!(!batch.is_empty(), "empty gradient batch");
        let d = self.weights.len();
        let mut grad = vec![0.0; d + 1];
        for &i in batch {
            let x = &data.x[i];
            let err = self.raw_predict(x) - data.y[i];
            for j in 0..d {
                grad[j] += 2.0 * err * x[j];
            }
            grad[d] += 2.0 * err;
        }
        let scale = 1.0 / batch.len() as f64;
        for g in &mut grad {
            *g *= scale;
        }
        grad
    }

    fn params(&self) -> Vec<f64> {
        let mut p = self.weights.clone();
        p.push(self.bias);
        p
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.weights.len() + 1, "param size mismatch");
        self.weights.copy_from_slice(&params[..params.len() - 1]);
        self.bias = params[params.len() - 1];
    }
}

/// Binary logistic regression under log loss.
#[derive(Clone, Debug, PartialEq)]
pub struct LogisticRegression {
    /// Feature weights.
    pub weights: Vec<f64>,
    /// Intercept.
    pub bias: f64,
}

impl LogisticRegression {
    /// Zero-initialized model of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        LogisticRegression {
            weights: vec![0.0; dim],
            bias: 0.0,
        }
    }

    /// Hard class decision at threshold 0.5.
    pub fn classify(&self, x: &[f64]) -> f64 {
        if self.predict(x) >= 0.5 {
            1.0
        } else {
            0.0
        }
    }
}

impl Model for LogisticRegression {
    fn raw_predict(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x) + self.bias
    }

    fn predict(&self, x: &[f64]) -> f64 {
        sigmoid(self.raw_predict(x))
    }

    fn loss(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let eps = 1e-12;
        data.x
            .iter()
            .zip(&data.y)
            .map(|(x, y)| {
                let p = self.predict(x).clamp(eps, 1.0 - eps);
                -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
            })
            .sum::<f64>()
            / data.len() as f64
    }

    #[allow(clippy::needless_range_loop)] // grad/x lockstep indexing
    fn gradient(&self, data: &Dataset, batch: &[usize]) -> Vec<f64> {
        assert!(!batch.is_empty(), "empty gradient batch");
        let d = self.weights.len();
        let mut grad = vec![0.0; d + 1];
        for &i in batch {
            let x = &data.x[i];
            let err = self.predict(x) - data.y[i];
            for j in 0..d {
                grad[j] += err * x[j];
            }
            grad[d] += err;
        }
        let scale = 1.0 / batch.len() as f64;
        for g in &mut grad {
            *g *= scale;
        }
        grad
    }

    fn params(&self) -> Vec<f64> {
        let mut p = self.weights.clone();
        p.push(self.bias);
        p
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.weights.len() + 1, "param size mismatch");
        self.weights.copy_from_slice(&params[..params.len() - 1]);
        self.bias = params[params.len() - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{gaussian_blobs, noisy_linear};

    #[test]
    fn linreg_params_roundtrip() {
        let mut m = LinearRegression::new(3);
        m.set_params(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.weights, vec![1.0, 2.0, 3.0]);
        assert_eq!(m.bias, 4.0);
        assert_eq!(m.params(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.n_params(), 4);
    }

    #[test]
    fn linreg_gradient_points_downhill() {
        let data = noisy_linear(100, 3, 0.1, 1);
        let mut m = LinearRegression::new(3);
        let batch: Vec<usize> = (0..100).collect();
        let l0 = m.loss(&data);
        let g = m.gradient(&data, &batch);
        let mut p = m.params();
        for (pi, gi) in p.iter_mut().zip(&g) {
            *pi -= 0.01 * gi;
        }
        m.set_params(&p);
        assert!(m.loss(&data) < l0, "one gradient step must reduce loss");
    }

    #[test]
    fn linreg_gradient_matches_finite_difference() {
        let data = noisy_linear(20, 2, 0.1, 2);
        let mut m = LinearRegression::new(2);
        m.set_params(&[0.3, -0.2, 0.1]);
        let batch: Vec<usize> = (0..20).collect();
        let g = m.gradient(&data, &batch);
        let eps = 1e-6;
        for k in 0..3 {
            let mut p = m.params();
            p[k] += eps;
            let mut m_plus = m.clone();
            m_plus.set_params(&p);
            p[k] -= 2.0 * eps;
            let mut m_minus = m.clone();
            m_minus.set_params(&p);
            let fd = (m_plus.loss(&data) - m_minus.loss(&data)) / (2.0 * eps);
            assert!((g[k] - fd).abs() < 1e-4, "param {k}: {} vs {}", g[k], fd);
        }
    }

    #[test]
    fn logreg_gradient_matches_finite_difference() {
        let data = gaussian_blobs(30, 2, 1.0, 3);
        let mut m = LogisticRegression::new(2);
        m.set_params(&[0.5, -0.3, 0.2]);
        let batch: Vec<usize> = (0..30).collect();
        let g = m.gradient(&data, &batch);
        let eps = 1e-6;
        for k in 0..3 {
            let mut p = m.params();
            p[k] += eps;
            let mut m_plus = m.clone();
            m_plus.set_params(&p);
            p[k] -= 2.0 * eps;
            let mut m_minus = m.clone();
            m_minus.set_params(&p);
            let fd = (m_plus.loss(&data) - m_minus.loss(&data)) / (2.0 * eps);
            assert!((g[k] - fd).abs() < 1e-4, "param {k}: {} vs {}", g[k], fd);
        }
    }

    #[test]
    fn logreg_probability_range() {
        let m = LogisticRegression::new(2);
        let p = m.predict(&[100.0, -100.0]);
        assert!((0.0..=1.0).contains(&p));
        assert_eq!(m.classify(&[0.0, 0.0]), 1.0, "p=0.5 classifies as 1");
    }

    #[test]
    #[should_panic(expected = "param size mismatch")]
    fn wrong_param_size_panics() {
        let mut m = LinearRegression::new(3);
        m.set_params(&[1.0]);
    }
}
