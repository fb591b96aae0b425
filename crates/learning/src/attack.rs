//! Membership-inference attack harness (§IV-D "Privacy Leaks").
//!
//! The paper warns that information "may still leak … through the results
//! that \[consumers\] download from the platform", citing the white-box
//! membership-inference literature. This module implements the standard
//! loss-threshold attack: training members tend to have lower per-sample
//! loss than non-members, so an attacker thresholds the loss to guess
//! membership. Experiment E11 reports the attack *advantage* (max over
//! thresholds of TPR − FPR) with and without differential privacy.

use pds2_ml::data::Dataset;
use pds2_ml::model::Model;

/// Per-sample loss of a model on one example (log loss for classifiers
/// via predicted probability; squared error for regressors would use raw
/// output — this harness targets binary classifiers).
pub fn sample_loss<M: Model>(model: &M, x: &[f64], y: f64) -> f64 {
    let eps = 1e-12;
    let p = model.predict(x).clamp(eps, 1.0 - eps);
    -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
}

/// Result of a membership-inference evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct AttackResult {
    /// Best achievable TPR − FPR over all loss thresholds.
    pub advantage: f64,
    /// The loss threshold achieving it.
    pub best_threshold: f64,
    /// Attack accuracy at the best threshold (balanced).
    pub accuracy: f64,
}

/// Runs the loss-threshold membership-inference attack.
///
/// `members` are training examples, `non_members` held-out examples.
/// Advantage 0 = no leakage (attacker no better than chance);
/// advantage 1 = total leakage.
pub fn loss_threshold_attack<M: Model>(
    model: &M,
    members: &Dataset,
    non_members: &Dataset,
) -> AttackResult {
    assert!(!members.is_empty() && !non_members.is_empty(), "empty sets");
    let member_losses: Vec<f64> = members
        .x
        .iter()
        .zip(&members.y)
        .map(|(x, &y)| sample_loss(model, x, y))
        .collect();
    let non_member_losses: Vec<f64> = non_members
        .x
        .iter()
        .zip(&non_members.y)
        .map(|(x, &y)| sample_loss(model, x, y))
        .collect();

    // Sweep every observed loss as a candidate threshold:
    // predict "member" iff loss <= threshold.
    let mut candidates: Vec<f64> = member_losses
        .iter()
        .chain(&non_member_losses)
        .copied()
        .collect();
    candidates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    candidates.dedup();

    let mut best = AttackResult {
        advantage: 0.0,
        best_threshold: 0.0,
        accuracy: 0.5,
    };
    for &t in &candidates {
        let tpr =
            member_losses.iter().filter(|&&l| l <= t).count() as f64 / member_losses.len() as f64;
        let fpr = non_member_losses.iter().filter(|&&l| l <= t).count() as f64
            / non_member_losses.len() as f64;
        let adv = tpr - fpr;
        if adv > best.advantage {
            best = AttackResult {
                advantage: adv,
                best_threshold: t,
                accuracy: 0.5 * (tpr + (1.0 - fpr)),
            };
        }
    }
    best
}

/// Mean-loss gap diagnostic: `mean(non_member_loss) - mean(member_loss)`.
/// A large positive gap indicates memorization.
pub fn generalization_gap<M: Model>(model: &M, members: &Dataset, non_members: &Dataset) -> f64 {
    let mean = |d: &Dataset| {
        if d.is_empty() {
            return 0.0;
        }
        d.x.iter()
            .zip(&d.y)
            .map(|(x, &y)| sample_loss(model, x, y))
            .sum::<f64>()
            / d.len() as f64
    };
    mean(non_members) - mean(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds2_ml::data::gaussian_blobs;
    use pds2_ml::model::LogisticRegression;
    use pds2_ml::sgd::{train, SgdConfig};

    #[test]
    fn overfit_model_leaks_membership() {
        // Tiny training set + many epochs + high-dim features -> the model
        // memorizes; the attack should gain real advantage.
        let data = gaussian_blobs(60, 20, 2.5, 1);
        let (train_set, test_set) = data.split(0.5, 2);
        let mut m = LogisticRegression::new(20);
        train(
            &mut m,
            &train_set,
            &SgdConfig {
                learning_rate: 0.5,
                epochs: 400,
                lr_decay: 1.0,
                ..Default::default()
            },
        );
        let result = loss_threshold_attack(&m, &train_set, &test_set);
        assert!(
            result.advantage > 0.15,
            "expected leakage on overfit model, got {result:?}"
        );
        assert!(generalization_gap(&m, &train_set, &test_set) > 0.0);
    }

    #[test]
    fn well_generalizing_model_leaks_little() {
        // Plenty of easy data -> train/test losses match -> low advantage.
        let data = gaussian_blobs(2000, 3, 0.6, 3);
        let (train_set, test_set) = data.split(0.5, 4);
        let mut m = LogisticRegression::new(3);
        train(&mut m, &train_set, &SgdConfig::default());
        let result = loss_threshold_attack(&m, &train_set, &test_set);
        assert!(
            result.advantage < 0.1,
            "expected little leakage, got {result:?}"
        );
    }

    #[test]
    fn untrained_model_has_no_signal() {
        let data = gaussian_blobs(200, 3, 1.0, 5);
        let (a, b) = data.split(0.5, 6);
        let m = LogisticRegression::new(3);
        let result = loss_threshold_attack(&m, &a, &b);
        assert!(result.advantage < 0.15, "{result:?}");
    }

    #[test]
    fn advantage_bounds() {
        let data = gaussian_blobs(100, 2, 1.0, 7);
        let (a, b) = data.split(0.5, 8);
        let mut m = LogisticRegression::new(2);
        train(&mut m, &a, &SgdConfig::default());
        let r = loss_threshold_attack(&m, &a, &b);
        assert!((0.0..=1.0).contains(&r.advantage));
        assert!((0.0..=1.0).contains(&r.accuracy));
        assert!(r.accuracy >= 0.5, "best threshold is at least chance");
    }

    #[test]
    #[should_panic(expected = "empty sets")]
    fn empty_inputs_rejected() {
        let m = LogisticRegression::new(2);
        let empty = Dataset::new(Vec::new(), Vec::new());
        let _ = loss_threshold_attack(&m, &empty, &empty);
    }
}
