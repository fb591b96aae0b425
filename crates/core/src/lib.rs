//! # pds2-core
//!
//! The PDS² marketplace — the primary contribution of the paper, built on
//! the substrates in the sibling crates.
//!
//! - [`workload`] — workload specifications: the binding contracts of
//!   §II-C (preconditions, rewards, quorum, approved enclave code, reward
//!   scheme);
//! - [`contract`] — the per-workload on-chain smart contract: escrow,
//!   executor registration, participation tracking, 2/3 result agreement,
//!   slashing and payouts;
//! - [`certificate`] — provider-signed participation certificates (Fig. 2);
//! - [`authenticity`] — §IV-B device-signed readings, manufacturer
//!   endorsements and the executor-side verification pipeline;
//! - [`marketplace`] — the orchestrator wiring all five roles of Fig. 1
//!   through the complete Fig. 2 lifecycle, with the Fig. 3 storage
//!   configurations (provider-owned vs outsourced sealed storage). One
//!   file per phase under `marketplace/`, in lifecycle order: `register`,
//!   `submit` (escrow), `attest`, `accept`, `execute`, `reward`, `abort`;
//!   `mod.rs` holds the state they share, the transaction sender and the
//!   lookups.
//!
//! ## Quickstart
//!
//! ```
//! use pds2_core::marketplace::{Marketplace, StorageChoice};
//! use pds2_core::workload::{RewardScheme, TaskKind, WorkloadSpec};
//! use pds2_storage::semantic::{MetaValue, Metadata, Requirement};
//! use pds2_tee::measurement::EnclaveCode;
//!
//! let mut market = Marketplace::new(1);
//! let consumer = market.register_consumer(1, 1_000_000);
//! let provider = market.register_provider(2, StorageChoice::Local);
//! market.provider_add_device(provider).unwrap();
//!
//! // Provider's device produces signed data.
//! let data = pds2_ml::data::gaussian_blobs(80, 3, 0.7, 3);
//! let meta = Metadata::new().with(
//!     "type",
//!     MetaValue::Class("sensor/environment/temperature".into()),
//!     0,
//! );
//! market.provider_ingest(provider, 0, &data, meta).unwrap();
//!
//! // Consumer posts a workload bound to approved enclave code.
//! let code = EnclaveCode::new("trainer", 1, b"trainer-v1".to_vec());
//! let spec = WorkloadSpec {
//!     title: "demo".into(),
//!     precondition: Requirement::HasClass {
//!         attr: "type".into(),
//!         class: "sensor/environment".into(),
//!     },
//!     task: TaskKind::BinaryClassification,
//!     feature_dim: 3,
//!     provider_reward: 10_000,
//!     executor_fee: 500,
//!     reward_scheme: RewardScheme::ProportionalToRecords,
//!     min_providers: 1,
//!     min_records: 10,
//!     code_measurement: code.measurement(),
//!     validation: pds2_ml::data::gaussian_blobs(20, 3, 0.7, 4),
//!     local_epochs: 4,
//!     aggregation_rounds: 2,
//!     dp_noise_multiplier: None,
//!     reward_token: None,
//!     data_bounds: None,
//! };
//! let workload = market.submit_workload(consumer, spec, code, 1).unwrap();
//! let executor = market.register_executor(5);
//! market.executor_join(executor, workload).unwrap();
//! let (exec, fin) = market
//!     .run_full_lifecycle(workload, &[(provider, executor)])
//!     .unwrap();
//! assert!(exec.validation_score > 0.7);
//! assert_eq!(fin.provider_shares.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod authenticity;
pub mod certificate;
pub mod contract;
pub mod marketplace;
pub mod workload;

pub use authenticity::{Device, DeviceId, ManufacturerRegistry, ReadingVerifier, SignedReading};
pub use certificate::ParticipationCertificate;
pub use contract::{Call, Init, Phase, WorkloadContract, WorkloadState, WORKLOAD_CODE_ID};
pub use marketplace::{ExecutionReport, FinalizeReport, MarketError, Marketplace, StorageChoice};
pub use workload::{RewardScheme, TaskKind, WorkloadSpec};
