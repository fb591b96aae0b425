//! Models: linear regression, binary logistic regression and multiclass
//! softmax regression.
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

/// Multiclass softmax regression under cross-entropy loss.
///
/// Targets are class indices encoded as `f64` (0.0, 1.0, …). The flat
/// parameter layout is `[weights row-major (k×d), biases (k)]`, so
/// decentralized averaging works unchanged.
#[derive(Clone, Debug, PartialEq)]
pub struct SoftmaxRegression {
    classes: usize,
    dim: usize,
    /// Row-major `[classes × dim]` weights.
    pub weights: Vec<f64>,
    /// Per-class biases.
    pub biases: Vec<f64>,
}

impl SoftmaxRegression {
    /// Zero-initialized model for `classes` classes over `dim` features.
    pub fn new(dim: usize, classes: usize) -> Self {
        assert!(classes >= 2, "need at least two classes");
        SoftmaxRegression {
            classes,
            dim,
            weights: vec![0.0; classes * dim],
            biases: vec![0.0; classes],
        }
    }

    /// Per-class logits.
    pub fn logits(&self, x: &[f64]) -> Vec<f64> {
        (0..self.classes)
            .map(|k| dot(&self.weights[k * self.dim..(k + 1) * self.dim], x) + self.biases[k])
            .collect()
    }

    /// Class-probability vector (numerically stable softmax).
    pub fn probabilities(&self, x: &[f64]) -> Vec<f64> {
        let logits = self.logits(x);
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|z| (z - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    /// Hard class decision (argmax).
    pub fn classify(&self, x: &[f64]) -> f64 {
        let probs = self.probabilities(x);
        probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(k, _)| k as f64)
            .unwrap_or(0.0)
    }
}

impl Model for SoftmaxRegression {
    fn raw_predict(&self, x: &[f64]) -> f64 {
        // The argmax logit (rarely useful directly for multiclass).
        self.logits(x).into_iter().fold(f64::NEG_INFINITY, f64::max)
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.classify(x)
    }

    fn loss(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let eps = 1e-12;
        data.x
            .iter()
            .zip(&data.y)
            .map(|(x, &y)| {
                let probs = self.probabilities(x);
                let class = (y as usize).min(self.classes - 1);
                -probs[class].max(eps).ln()
            })
            .sum::<f64>()
            / data.len() as f64
    }

    fn gradient(&self, data: &Dataset, batch: &[usize]) -> Vec<f64> {
        assert!(!batch.is_empty(), "empty gradient batch");
        let (d, k) = (self.dim, self.classes);
        let mut g_w = vec![0.0; k * d];
        let mut g_b = vec![0.0; k];
        for &i in batch {
            let x = &data.x[i];
            let class = (data.y[i] as usize).min(k - 1);
            let probs = self.probabilities(x);
            for (c, &p) in probs.iter().enumerate() {
                let err = p - if c == class { 1.0 } else { 0.0 };
                for (j, &xj) in x.iter().enumerate() {
                    g_w[c * d + j] += err * xj;
                }
                g_b[c] += err;
            }
        }
        let scale = 1.0 / batch.len() as f64;
        let mut grad = Vec::with_capacity(k * d + k);
        grad.extend(g_w.into_iter().map(|v| v * scale));
        grad.extend(g_b.into_iter().map(|v| v * scale));
        grad
    }

    fn params(&self) -> Vec<f64> {
        let mut p = Vec::with_capacity(self.weights.len() + self.biases.len());
        p.extend_from_slice(&self.weights);
        p.extend_from_slice(&self.biases);
        p
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(
            params.len(),
            self.weights.len() + self.biases.len(),
            "param size mismatch"
        );
        let (w, b) = params.split_at(self.weights.len());
        self.weights.copy_from_slice(w);
        self.biases.copy_from_slice(b);
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
    fn softmax_probabilities_sum_to_one() {
        let m = SoftmaxRegression::new(3, 4);
        let p = m.probabilities(&[0.5, -0.5, 2.0]);
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Zero model: uniform.
        assert!(p.iter().all(|&v| (v - 0.25).abs() < 1e-12));
    }

    #[test]
    fn softmax_gradient_matches_finite_difference() {
        use crate::data::Dataset;
        // Three classes around three centers.
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let c = i % 3;
                vec![c as f64 + 0.1 * (i as f64 / 30.0), -(c as f64)]
            })
            .collect();
        let y: Vec<f64> = (0..30).map(|i| (i % 3) as f64).collect();
        let data = Dataset::new(x, y);
        let mut m = SoftmaxRegression::new(2, 3);
        let mut p0 = m.params();
        for (i, p) in p0.iter_mut().enumerate() {
            *p = ((i * 7 % 5) as f64 - 2.0) / 10.0;
        }
        m.set_params(&p0);
        let batch: Vec<usize> = (0..30).collect();
        let g = m.gradient(&data, &batch);
        let eps = 1e-6;
        for k in (0..g.len()).step_by(2) {
            let mut p = m.params();
            p[k] += eps;
            let mut plus = m.clone();
            plus.set_params(&p);
            p[k] -= 2.0 * eps;
            let mut minus = m.clone();
            minus.set_params(&p);
            let fd = (plus.loss(&data) - minus.loss(&data)) / (2.0 * eps);
            assert!((g[k] - fd).abs() < 1e-5, "param {k}: {} vs {}", g[k], fd);
        }
    }

    #[test]
    fn softmax_learns_three_classes() {
        use crate::data::Dataset;
        use crate::sgd::{train, SgdConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let centers = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..600 {
            let c = i % 3;
            let (cx, cy) = centers[c];
            x.push(vec![
                cx + rng.random::<f64>() - 0.5,
                cy + rng.random::<f64>() - 0.5,
            ]);
            y.push(c as f64);
        }
        let data = Dataset::new(x, y);
        let (tr, te) = data.split(0.25, 2);
        let mut m = SoftmaxRegression::new(2, 3);
        train(
            &mut m,
            &tr,
            &SgdConfig {
                epochs: 40,
                ..Default::default()
            },
        );
        let preds: Vec<f64> = te.x.iter().map(|x| m.classify(x)).collect();
        let acc = crate::metrics::accuracy(&preds, &te.y);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn softmax_params_roundtrip() {
        let m = SoftmaxRegression::new(3, 4);
        assert_eq!(m.n_params(), 3 * 4 + 4);
        let mut m2 = SoftmaxRegression::new(3, 4);
        let mut p = m.params();
        p[5] = 1.5;
        m2.set_params(&p);
        assert_eq!(m2.params()[5], 1.5);
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn softmax_rejects_single_class() {
        let _ = SoftmaxRegression::new(3, 1);
    }

    #[test]
    #[should_panic(expected = "param size mismatch")]
    fn wrong_param_size_panics() {
        let mut m = LinearRegression::new(3);
        m.set_params(&[1.0]);
    }
}
