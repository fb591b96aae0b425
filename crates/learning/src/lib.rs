//! # pds2-learning
//!
//! Decentralized machine learning for PDS² — §III-C of the paper.
//!
//! - [`gossip`] — gossip learning (the paper's selected aggregation
//!   method): peer-to-peer model exchange with age-weighted merging, run
//!   on the `pds2-net` event simulator; supports DP-noised local updates
//!   and pluggable merge rules for the A1 ablation;
//! - [`federated`] — the FedAvg baseline with a central coordinator,
//!   exhibiting exactly the §III-C limitations (aggregator load,
//!   coordinator single point of failure, wasted rounds under churn);
//! - [`dp`] — Laplace/Gaussian mechanisms and the DP-SGD step (§IV-D);
//! - [`attack`] — the loss-threshold membership-inference attack used to
//!   *measure* leakage with and without DP (experiment E11).

#![forbid(unsafe_code)]

pub mod attack;
pub mod dp;
pub mod federated;
pub mod gossip;

pub use attack::{loss_threshold_attack, AttackResult};
pub use federated::{run_fedavg, FedConfig, FedOutcome};
pub use gossip::{
    run_gossip_experiment, GossipConfig, GossipNode, GossipOutcome, GossipRun, MergeRule,
};
