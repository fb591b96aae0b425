//! # pds2-mpc
//!
//! Secure multiparty computation — the **SMC** candidate from §III-B of the
//! PDS² paper (Falcon-style secret sharing with a trusted-dealer offline
//! phase).
//!
//! - [`field`] — the prime field F_{2^61-1} all arithmetic lives in;
//! - [`additive`] — n-out-of-n additive secret sharing and Beaver triples;
//! - [`shamir`] — (t, n) threshold sharing with Lagrange reconstruction;
//! - [`engine`] — a protocol engine that executes shared-vector arithmetic
//!   while metering rounds, bytes and triples, so experiment E4 can compare
//!   SMC's communication profile against HE's and the TEE's compute
//!   profiles.
//!
//! The paper's verdict — "the active participation required from the data
//! provider coupled with delays introduced during communication makes it
//! difficult to employ SMC for applications that use many operations" — is
//! exactly what [`engine::CostReport`] quantifies.
//!
//! # Quick start
//!
//! ```
//! use pds2_mpc::{secure_linear_inference, MpcEngine};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Three computing parties jointly score a linear model: the weights and
//! // the features stay secret-shared; only the final score is opened.
//! let mut engine = MpcEngine::new(3, StdRng::seed_from_u64(0));
//! let (score, cost) =
//!     secure_linear_inference(&mut engine, &[1.0, 2.0], 0.5, &[3.0, -1.0]);
//! assert!((score - 1.5).abs() < 1e-3);
//! // The cost report is the paper's argument in numbers: interactive
//! // rounds and wire bytes dominate, not local compute.
//! assert!(cost.rounds >= 4 && cost.bytes_sent > 0);
//! ```

#![forbid(unsafe_code)]

pub mod additive;
pub mod engine;
pub mod field;
pub mod shamir;

pub use engine::{secure_linear_inference, CostReport, MpcEngine, SharedVec};
pub use field::Fp;
