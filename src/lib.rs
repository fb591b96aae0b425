//! PDS2 umbrella crate: re-exports the full stack.
//!
//! One `use pds2::...` away from every layer of the ICDE 2021 PDS²
//! reproduction: governance chain ([`chain`]), marketplace
//! orchestration ([`market`]), privacy-preserving computation
//! ([`he`], [`mpc`], [`tee`]), collaborative learning ([`learning`],
//! [`ml`]), reward attribution ([`rewards`]), storage ([`storage`]),
//! the deterministic network simulator ([`net`]), and the
//! cross-cutting substrates: hand-rolled cryptography ([`crypto`]) and
//! deterministic observability ([`obs`], see `OBSERVABILITY.md`).

#![forbid(unsafe_code)]

pub use pds2_chain as chain;
pub use pds2_core as market;
pub use pds2_crypto as crypto;
pub use pds2_he as he;
pub use pds2_learning as learning;
pub use pds2_ml as ml;
pub use pds2_mpc as mpc;
pub use pds2_net as net;
pub use pds2_obs as obs;
pub use pds2_rewards as rewards;
pub use pds2_storage as storage;
pub use pds2_tee as tee;
