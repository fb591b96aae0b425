//! # pds2-chain
//!
//! The governance-layer substrate of PDS²: an account-based blockchain with
//! proof-of-authority block production, native smart contracts, gas
//! metering and ERC-20/ERC-721 token modules — the role §III-A of the paper
//! assigns to Ethereum (see DESIGN.md for the substitution argument).
//!
//! Modules:
//!
//! - [`address`] — accounts and address derivation;
//! - [`tx`] — signed transactions (transfers, token ops, deploy, call);
//! - [`gas`] — gas schedule and metering;
//! - [`erc20`] — fungible tokens (consumer rewards): a signer creates one
//!   or transfers it into escrow, a native contract pays it out; and the
//!   layout of their state leaves;
//! - [`erc721`] — NFTs committing to datasets and workload code, minted
//!   and held by their owner; and the layout of theirs;
//! - [`contract`] — the native-contract framework with atomic rollback;
//! - [`state`] — the world state and the one state transition, a file per
//!   concern: price → signature → nonce → escrow → payload → settle
//!   (`transition`, `call`), then commit (`commit`: one commitment, the
//!   tree folding in the marked leaves; `rehash_root` is the test oracle)
//!   and the recovery snapshot (DESIGN.md §5f);
//! - [`smt`] — the sparse Merkle tree authenticating the state, two
//!   flat node arrays updated in place, with (non-)inclusion proofs for
//!   light clients;
//! - [`backend`] — the leaf keys the state commitment is keyed by
//!   (DESIGN.md §5f);
//! - [`block`] — blocks, headers (one constructor, sealed by the
//!   proposer's key), Merkle transaction roots;
//! - [`mempool`] — the fee-market transaction pool: per-account nonce
//!   chains, priority selection, bounded admission with eviction;
//! - [`chain`] — the ledger as one block pipeline, a file per stage:
//!   admit → produce → validate → apply → persist → prove, shared by
//!   the producer, followers and crash recovery (DESIGN.md §5f);
//! - [`sync`] — block sync over `pds2-net`: catch-up, fork choice on
//!   rejoin, crash-stop recovery (the chaos-harness consumer);
//! - [`sigcache`] — bounded cache of verified-signature digests, so sync
//!   replay and fork choice never re-pay an exponentiation for a
//!   signature this process has already accepted (DESIGN.md §5d);
//! - [`event`] — the audit-trail event log.

#![forbid(unsafe_code)]

pub mod address;
pub mod backend;
pub mod block;
pub mod chain;
pub mod contract;
pub mod erc20;
pub mod erc721;
pub mod event;
pub mod gas;
pub mod mempool;
pub mod sigcache;
pub mod smt;
pub mod state;
pub mod sync;
pub mod threshold;
pub mod tx;

pub use address::{Account, Address};
pub use backend::LeafKey;
pub use block::{Block, BlockHeader};
pub use chain::{Blockchain, ChainConfig, ChainError};
pub use contract::{CallCtx, Contract, ContractError, ContractRegistry};
pub use erc20::{Erc20Module, Erc20Op, TokenError, TokenId};
pub use erc721::{AssetKind, Erc721Module, Erc721Op, NftError, NftId};
pub use event::{Event, EventSink};
pub use mempool::{Mempool, SubmitError};
pub use smt::{verify_proof, SmtProof, SmtTree};
pub use state::{BlockEnv, TxReceipt, WorldState};
pub use sync::{ChainReplica, GenesisFactory, SyncMsg};
pub use tx::{SignedTransaction, Transaction, TxKind};
