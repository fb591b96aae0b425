//! # pds2-ml
//!
//! The machine-learning substrate for PDS² workloads: the paper "focus\[es\]
//! on ML training tasks, as they represent one of the most relevant and
//! valuable data aggregation workloads in the industry" (§I).
//!
//! - [`linalg`] — dense vector kernels, parameter averaging, norm clipping;
//! - [`data`] — seeded synthetic datasets (blobs, noisy-linear, IoT sensor
//!   series) with IID and label-skewed partitioning;
//! - [`model`] — linear, logistic and softmax regression, all exposing
//!   flat parameter vectors for decentralized averaging;
//! - [`sgd`] — mini-batch SGD with optional gradient clipping (DP-SGD
//!   building block);
//! - [`metrics`] — accuracy and MSE.

#![forbid(unsafe_code)]

pub mod data;
pub mod linalg;
pub mod metrics;
pub mod model;
pub mod sgd;
pub mod solve;

pub use data::Dataset;
pub use model::{LinearRegression, LogisticRegression, Model, SoftmaxRegression};
pub use sgd::{train, SgdConfig};
