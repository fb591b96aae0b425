//! # pds2-rewards
//!
//! Reward schemes for PDS² — the open challenge of §IV-A.
//!
//! - [`shapley`] — exact (exponential) Shapley values, truncated
//!   Monte-Carlo approximation, leave-one-out and proportional baselines,
//!   and axiom checks (efficiency, symmetry, dummy);
//! - [`utility`] — the ML coalition utility: a provider coalition is worth
//!   the test accuracy of a model trained on its pooled shards, memoized
//!   because every evaluation is a training run;
//! - [`pricing`] — model-based pricing: buyers with smaller budgets
//!   receive noisier versions of the optimal model (Chen et al., cited by
//!   the paper as the §IV-A pricing answer).

#![forbid(unsafe_code)]

pub mod pricing;
pub mod shapley;
pub mod utility;

pub use pricing::{PricedModel, PricingConfig};
pub use shapley::{
    check_efficiency, exact_shapley, leave_one_out, monte_carlo_shapley, proportional,
    to_reward_shares, FnUtility, McConfig, Utility,
};
pub use utility::MlUtility;
