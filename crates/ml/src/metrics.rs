//! Evaluation metrics.

use crate::data::Dataset;
use crate::model::Model;

/// Test accuracy of a binary classifier: each prediction thresholded at
/// 0.5, scored against the labels (0 on an empty set).
pub fn classifier_accuracy<M: Model>(model: &M, test: &Dataset) -> f64 {
    let preds: Vec<f64> = test
        .x
        .iter()
        .map(|x| if model.predict(x) >= 0.5 { 1.0 } else { 0.0 })
        .collect();
    accuracy(&preds, &test.y)
}

/// Fraction of predictions exactly matching targets (use on hard labels).
pub fn accuracy(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(predictions.len(), targets.len(), "length mismatch");
    if predictions.is_empty() {
        return 0.0;
    }
    let hits = predictions
        .iter()
        .zip(targets)
        .filter(|(p, t)| (*p - *t).abs() < 0.5)
        .count();
    hits as f64 / predictions.len() as f64
}

/// Mean squared error.
pub fn mse(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(predictions.len(), targets.len(), "length mismatch");
    if predictions.is_empty() {
        return 0.0;
    }
    predictions
        .iter()
        .zip(targets)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / predictions.len() as f64
}

/// Binary log loss on probability predictions.
pub fn log_loss(probabilities: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(probabilities.len(), targets.len(), "length mismatch");
    if probabilities.is_empty() {
        return 0.0;
    }
    let eps = 1e-12;
    probabilities
        .iter()
        .zip(targets)
        .map(|(p, y)| {
            let p = p.clamp(eps, 1.0 - eps);
            -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
        })
        .sum::<f64>()
        / probabilities.len() as f64
}

/// Area under the ROC curve (rank-based, ties handled by midrank).
pub fn auc(scores: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(scores.len(), targets.len(), "length mismatch");
    let n_pos = targets.iter().filter(|&&t| t > 0.5).count();
    let n_neg = targets.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Midranks.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap());
    let mut ranks = vec![0.0; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[k] = midrank;
        }
        i = j + 1;
    }
    let pos_rank_sum: f64 = targets
        .iter()
        .zip(&ranks)
        .filter(|(t, _)| **t > 0.5)
        .map(|(_, r)| r)
        .sum();
    (pos_rank_sum - n_pos as f64 * (n_pos as f64 + 1.0) / 2.0) / (n_pos as f64 * n_neg as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[1.0, 0.0, 1.0], &[1.0, 0.0, 0.0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn mse_basic() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 4.0]), 2.0);
        assert_eq!(mse(&[], &[]), 0.0);
    }

    #[test]
    fn log_loss_rewards_confidence() {
        let confident = log_loss(&[0.99, 0.01], &[1.0, 0.0]);
        let unsure = log_loss(&[0.6, 0.4], &[1.0, 0.0]);
        assert!(confident < unsure);
        // Extreme wrongness is heavily penalized but finite.
        let wrong = log_loss(&[0.0], &[1.0]);
        assert!(wrong.is_finite() && wrong > 10.0);
    }

    #[test]
    fn auc_perfect_and_random() {
        // Perfect separation.
        assert_eq!(auc(&[0.1, 0.2, 0.8, 0.9], &[0.0, 0.0, 1.0, 1.0]), 1.0);
        // Perfectly inverted.
        assert_eq!(auc(&[0.9, 0.8, 0.2, 0.1], &[0.0, 0.0, 1.0, 1.0]), 0.0);
        // All ties -> 0.5.
        assert_eq!(auc(&[0.5, 0.5, 0.5, 0.5], &[0.0, 1.0, 0.0, 1.0]), 0.5);
        // Degenerate class: convention 0.5.
        assert_eq!(auc(&[0.1, 0.9], &[1.0, 1.0]), 0.5);
    }

    #[test]
    fn auc_with_partial_overlap() {
        // Positives score {0.4, 0.8}, negatives {0.1, 0.5}: 3 of 4
        // positive-negative pairs are ranked correctly.
        let a = auc(&[0.1, 0.4, 0.5, 0.8], &[0.0, 1.0, 0.0, 1.0]);
        assert!((a - 0.75).abs() < 1e-9, "{a}");
    }
}
