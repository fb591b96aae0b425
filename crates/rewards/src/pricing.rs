//! Model-based pricing (§IV-A, after Chen, Koutris & Kumar).
//!
//! "Given an ML model, an optimal instance is trained. Then based on the
//! budget available to the potential buyer, Gaussian noise is injected
//! into the model to reduce its accuracy. The larger the buyer's budget,
//! the smaller the injected noise variance and the greater the accuracy."
//!
//! [`PricedModel`] implements exactly that: a full-price buyer receives
//! the optimal parameters; a fraction-of-price buyer receives a noised
//! version whose expected quality degrades smoothly as the budget shrinks.

use pds2_ml::data::{standard_normal, Dataset};
use pds2_ml::metrics::classifier_accuracy;
use pds2_ml::model::Model;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pricing curve parameters.
#[derive(Clone, Copy, Debug)]
pub struct PricingConfig {
    /// Full price of the optimal model (marketplace currency units).
    pub full_price: u128,
    /// Noise stddev handed to a zero-budget buyer, as a multiple of the
    /// parameter-vector RMS (the curve anchor).
    pub max_noise_factor: f64,
}

impl Default for PricingConfig {
    fn default() -> Self {
        PricingConfig {
            full_price: 1_000,
            max_noise_factor: 4.0,
        }
    }
}

/// A trained model offered for sale at budget-dependent quality.
pub struct PricedModel<M: Model> {
    optimal: M,
    cfg: PricingConfig,
    param_rms: f64,
}

impl<M: Model> PricedModel<M> {
    /// Wraps an already-trained optimal model.
    pub fn new(optimal: M, cfg: PricingConfig) -> Self {
        let params = optimal.params();
        let rms = (params.iter().map(|p| p * p).sum::<f64>() / params.len().max(1) as f64).sqrt();
        PricedModel {
            optimal,
            cfg,
            param_rms: rms.max(1e-9),
        }
    }

    /// The noise stddev applied for a given budget.
    pub fn noise_sigma(&self, budget: u128) -> f64 {
        let b = (budget.min(self.cfg.full_price)) as f64 / self.cfg.full_price as f64;
        // Linear interpolation from max noise (b = 0) to zero noise (b = 1).
        self.cfg.max_noise_factor * self.param_rms * (1.0 - b)
    }

    /// Produces the version of the model a buyer with `budget` receives.
    /// The same `(budget, sale_seed)` always yields the same instance —
    /// the governance layer records the seed so the sale is auditable.
    pub fn instance_for_budget(&self, budget: u128, sale_seed: u64) -> M {
        let sigma = self.noise_sigma(budget);
        let mut model = self.optimal.clone();
        if sigma == 0.0 {
            return model;
        }
        let mut rng = StdRng::seed_from_u64(sale_seed);
        let mut params = model.params();
        for p in &mut params {
            *p += sigma * standard_normal(&mut rng);
        }
        model.set_params(&params);
        model
    }

    /// Evaluates the accuracy a buyer at each budget would get (averaged
    /// over `samples` noise draws) — the price/quality curve of E8.
    pub fn accuracy_curve(
        &self,
        test: &Dataset,
        budgets: &[u128],
        samples: u32,
        seed: u64,
    ) -> Vec<(u128, f64)> {
        budgets
            .iter()
            .map(|&b| {
                let mut acc_sum = 0.0;
                for s in 0..samples {
                    let m = self.instance_for_budget(b, seed ^ (s as u64) << 32 ^ b as u64);
                    acc_sum += classifier_accuracy(&m, test);
                }
                (b, acc_sum / samples as f64)
            })
            .collect()
    }

    /// The underlying optimal model (seller side).
    pub fn optimal(&self) -> &M {
        &self.optimal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds2_ml::data::gaussian_blobs;
    use pds2_ml::model::LogisticRegression;
    use pds2_ml::sgd::{train, SgdConfig};

    fn trained_model() -> (PricedModel<LogisticRegression>, Dataset) {
        let data = gaussian_blobs(600, 3, 0.7, 1);
        let (tr, te) = data.split(0.3, 2);
        let mut m = LogisticRegression::new(3);
        train(&mut m, &tr, &SgdConfig::default());
        (PricedModel::new(m, PricingConfig::default()), te)
    }

    #[test]
    fn full_budget_gets_optimal_model() {
        let (priced, te) = trained_model();
        let bought = priced.instance_for_budget(1_000, 42);
        assert_eq!(bought.params(), priced.optimal().params());
        assert!(classifier_accuracy(&bought, &te) > 0.9);
    }

    #[test]
    fn noise_decreases_with_budget() {
        let (priced, _) = trained_model();
        assert!(priced.noise_sigma(0) > priced.noise_sigma(500));
        assert!(priced.noise_sigma(500) > priced.noise_sigma(999));
        assert_eq!(priced.noise_sigma(1_000), 0.0);
        // Over-budget clamps.
        assert_eq!(priced.noise_sigma(5_000), 0.0);
    }

    #[test]
    fn accuracy_curve_is_broadly_monotone() {
        let (priced, te) = trained_model();
        let curve = priced.accuracy_curve(&te, &[0, 250, 500, 750, 1_000], 8, 7);
        assert_eq!(curve.len(), 5);
        let first = curve.first().unwrap().1;
        let last = curve.last().unwrap().1;
        assert!(
            last > first + 0.1,
            "full-budget accuracy should clearly beat zero-budget: {curve:?}"
        );
        // Top of the curve equals the optimal-model accuracy.
        assert!((last - classifier_accuracy(priced.optimal(), &te)).abs() < 1e-12);
    }

    #[test]
    fn sales_are_reproducible() {
        let (priced, _) = trained_model();
        let a = priced.instance_for_budget(300, 9);
        let b = priced.instance_for_budget(300, 9);
        assert_eq!(a.params(), b.params());
        let c = priced.instance_for_budget(300, 10);
        assert_ne!(
            a.params(),
            c.params(),
            "different sale seed, different noise"
        );
    }
}
