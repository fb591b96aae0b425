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
}
