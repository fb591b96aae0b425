//! # pds2-storage
//!
//! The storage-subsystem role of PDS² (§II-C) and the data-discovery
//! machinery of §IV-C.
//!
//! - [`semantic`] — ontology with subsumption reasoning, semantic metadata
//!   with detail-ranked attributes, a workload precondition language, and
//!   leakage estimation for the discovery/privacy trade-off;
//! - [`store`] — content-addressed record stores behind one trait:
//!   provider-owned plaintext storage and outsourced sealed storage
//!   (Fig. 3's hardware configurations), workload matching over published
//!   metadata only, and provider-signed access grants gating payload
//!   release to executors;
//! - [`chainlog`] — the append-only, checksummed block/receipt log with
//!   a snapshot slot that makes chain state crash-recoverable
//!   (DESIGN.md §5f).

#![forbid(unsafe_code)]

pub mod chainlog;
pub mod semantic;
pub mod store;

pub use chainlog::{ChainLog, Frame, ScanResult, FRAME_BLOCK, FRAME_TX};
pub use semantic::{MetaValue, Metadata, Ontology, Requirement};
pub use store::{
    AccessGrant, LocalStore, Record, RecordId, StorageBackend, StorageError, ThirdPartyStore,
};
