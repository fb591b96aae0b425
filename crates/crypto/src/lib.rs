//! # pds2-crypto
//!
//! Cryptographic substrate for the PDS² marketplace, implemented from
//! scratch on top of the standard library:
//!
//! - [`bigint`] — arbitrary-precision unsigned integers with modular
//!   arithmetic and primality testing (used by Paillier and Schnorr);
//! - [`montgomery`] — Montgomery-form multiplication and squaring, one
//!   exponentiation loop over row tables (fixed windows, a fixed-base
//!   comb, a verifying key's rows) and the bucket multi-exponentiation
//!   (the signature-verification fast path; see DESIGN.md §5d);
//! - [`mod@sha256`] — SHA-256 (FIPS 180-4);
//! - [`hmac`] — HMAC-SHA-256 and HKDF;
//! - [`chacha20`] — ChaCha20 stream cipher plus encrypt-then-MAC sealing;
//! - [`codec`] — the canonical binary encoding used for every hashed or
//!   signed structure in the platform;
//! - [`merkle`] — Merkle trees with inclusion proofs;
//! - [`schnorr`] — Schnorr signatures over a prime-order group with
//!   deterministic nonces.
//!
//! **Security note.** The mathematics is real (no stub crypto), but the
//! implementation is a research artifact: it is not constant-time and key
//! sizes are chosen for simulation speed. Do not reuse as production crypto.

#![deny(unsafe_code, unsafe_op_in_unsafe_fn)]

pub mod bigint;
pub mod chacha20;
pub mod codec;
pub mod hmac;
pub mod merkle;
pub mod montgomery;
pub mod schnorr;
pub mod sha256;

pub use bigint::BigUint;
pub use codec::{Decode, DecodeError, Decoder, Encode, Encoder};
pub use merkle::{MerkleProof, MerkleTree};
pub use montgomery::MontgomeryCtx;
pub use schnorr::{KeyPair, PublicKey, SecretKey, Signature};
pub use sha256::{sha256, Digest, Sha256};
