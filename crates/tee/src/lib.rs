//! # pds2-tee
//!
//! A simulated trusted execution environment — the **TEE** building block
//! the PDS² paper selects as "the most promising solution" in §III-B.
//!
//! Real SGX hardware is replaced by a faithful software model of the
//! *contract* the marketplace relies on:
//!
//! - [`measurement`] — MRENCLAVE-style code identity;
//! - [`platform`] — platforms that launch enclaves, with sealed storage
//!   bound to (platform, measurement) and per-call cost charging;
//! - [`attestation`] — hardware-signed quotes, a verifier registry and
//!   revocation (the Intel-attestation-service analogue);
//! - [`oblivious`] — side-channel-free primitives (branchless select/swap,
//!   oblivious access, bitonic sort), per Ohrimenko et al. cited in the
//!   paper;
//! - [`cost`] — an SGX performance model (transition cost, EPC paging,
//!   memory-encryption factor) so the E4 comparison charges realistic
//!   overheads instead of pretending enclaves are free.
//!
//! See DESIGN.md for the substitution argument (paper → simulation).

#![forbid(unsafe_code)]

pub mod attestation;
pub mod cost;
pub mod measurement;
pub mod oblivious;
pub mod platform;

pub use attestation::{AttestationError, AttestationService, PlatformId, Quote};
pub use cost::{CostMeter, CostModel};
pub use measurement::{EnclaveCode, Measurement};
pub use platform::{Enclave, Platform};
