//! World state and transaction execution.
//!
//! [`WorldState`] holds native accounts, the two token modules and every
//! deployed contract instance. [`WorldState::apply_transaction_env`] is the
//! single state-transition function: it meters gas, enforces nonces,
//! executes the payload atomically (failed transactions leave no effects
//! beyond the nonce bump) and produces a [`TxReceipt`].

use crate::address::{Account, Address};
use crate::backend::{BackendKind, LeafKey, StateBackend};
use crate::contract::{CallCtx, ContractError, ContractRegistry};
use crate::erc20::Erc20Op;
use crate::erc721::Erc721Op;
use crate::event::{Event, EventSink};
use crate::gas::{self, GasMeter};
use crate::smt::SmtProof;
use crate::tx::{SignedTransaction, TxKind};
use pds2_crypto::codec::{Decode, Decoder, Encode, Encoder};
use pds2_crypto::sha256::{sha256, Digest};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Per-block execution environment: the consensus values every
/// transaction in the block executes under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockEnv {
    /// Height of the including block.
    pub height: u64,
    /// Base fee per gas (EIP-1559): burned on every unit of gas.
    pub base_fee: u64,
    /// Proposer address credited with priority fees.
    pub coinbase: Address,
}

impl BlockEnv {
    /// A zero-fee environment at `height` — the legacy execution model
    /// (no base fee, no proposer payment).
    pub fn free(height: u64) -> BlockEnv {
        BlockEnv {
            height,
            base_fee: 0,
            coinbase: Address(Digest::ZERO),
        }
    }
}

/// Outcome of executing one transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxReceipt {
    /// Hash of the transaction.
    pub tx_hash: Digest,
    /// Whether execution succeeded.
    pub success: bool,
    /// Gas consumed.
    pub gas_used: u64,
    /// Per-gas price actually paid (EIP-1559 effective price at the
    /// block's base fee; 0 for free/legacy transactions).
    pub effective_gas_price: u64,
    /// Contract return data (empty unless a successful call returned some).
    pub output: Vec<u8>,
    /// Error description on failure.
    pub error: Option<String>,
    /// Events emitted (empty on failure).
    pub events: Vec<Event>,
    /// Address of the deployed contract, for deploy transactions.
    pub deployed: Option<Address>,
}

impl TxReceipt {
    /// The receipt of a transaction that failed: no output, no events,
    /// nothing deployed.
    pub fn failed(tx_hash: Digest, gas_used: u64, effective_gas_price: u64, error: String) -> Self {
        TxReceipt {
            tx_hash,
            success: false,
            gas_used,
            effective_gas_price,
            output: Vec::new(),
            error: Some(error),
            events: Vec::new(),
            deployed: None,
        }
    }
}

/// A deployed contract instance. `deployer` and `init` are retained so
/// snapshot restore can revive the instance through the registry's
/// constructor before restoring its canonical snapshot; they are NOT
/// part of the state root (which commits only `code_id` + state digest).
struct ContractInstance {
    code_id: String,
    deployer: Address,
    init: Vec<u8>,
    contract: Box<dyn crate::contract::Contract>,
}

/// Root-commitment bookkeeping: the pluggable backend plus the set of
/// leaves mutated since the last commit. Behind a [`RefCell`] so
/// `state_root(&self)` can commit lazily.
struct Committer {
    backend: Box<dyn StateBackend>,
    dirty: BTreeSet<LeafKey>,
}

/// The full chain state.
pub struct WorldState {
    accounts: BTreeMap<Address, Account>,
    /// Fungible-token module.
    pub erc20: crate::erc20::Erc20Module,
    /// NFT module.
    pub erc721: crate::erc721::Erc721Module,
    contracts: BTreeMap<Address, ContractInstance>,
    /// Cumulative native tokens destroyed by base-fee burning. Part of
    /// the state root: every node must agree on it, and the conservation
    /// invariant becomes `circulating supply + burned = const`.
    burned: u128,
    /// Maintained sum of every native balance, so conservation checks
    /// are O(1) instead of an account-map walk. Every credit/debit nets
    /// to zero except genesis minting (+) and base-fee burning (−).
    native_supply: u128,
    committer: RefCell<Committer>,
}

impl Default for WorldState {
    fn default() -> Self {
        WorldState {
            accounts: BTreeMap::new(),
            erc20: Default::default(),
            erc721: Default::default(),
            contracts: BTreeMap::new(),
            burned: 0,
            native_supply: 0,
            committer: RefCell::new(Committer {
                backend: BackendKind::from_env().make(),
                dirty: BTreeSet::new(),
            }),
        }
    }
}

impl WorldState {
    /// Creates an empty state with the backend selected by
    /// `PDS2_STATE_BACKEND` (SMT unless overridden).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty state with an explicit commitment backend.
    pub fn with_backend(kind: BackendKind) -> Self {
        let mut st = Self::default();
        st.set_backend(kind);
        st
    }

    /// Swaps the commitment backend in place. The entire current leaf
    /// set is marked dirty so the next `state_root()` rebuilds the new
    /// backend's tree from scratch.
    pub fn set_backend(&mut self, kind: BackendKind) {
        {
            let mut c = self.committer.borrow_mut();
            c.backend = kind.make();
            c.dirty.clear();
        }
        self.mark_all_dirty();
    }

    /// Name of the active commitment backend.
    pub fn backend_name(&self) -> &'static str {
        self.committer.borrow().backend.name()
    }

    /// Marks one leaf for recommit. Conservative over-marking is always
    /// safe: the committed value is recomputed from the live maps, and
    /// an absent entry becomes a (possibly no-op) delete.
    fn mark(&self, key: LeafKey) {
        self.committer.borrow_mut().dirty.insert(key);
    }

    /// Marks every leaf currently present (backend swap / snapshot
    /// restore).
    pub(crate) fn mark_all_dirty(&self) {
        let mut c = self.committer.borrow_mut();
        for addr in self.accounts.keys() {
            c.dirty.insert(LeafKey::Account(*addr));
        }
        if self.erc20.next_id() != 0 {
            c.dirty.insert(LeafKey::Erc20Next);
        }
        for token in self.erc20.token_ids() {
            c.dirty.insert(LeafKey::Erc20Meta(token));
            for (addr, _) in self.erc20.balance_entries(token) {
                c.dirty.insert(LeafKey::Erc20Bal(token, addr));
            }
            for (owner, spender, _) in self.erc20.allowance_entries(token) {
                c.dirty.insert(LeafKey::Erc20Allow(token, owner, spender));
            }
        }
        if self.erc721.next_id() != 0 {
            c.dirty.insert(LeafKey::Erc721Next);
        }
        for (id, _) in self.erc721.token_entries() {
            c.dirty.insert(LeafKey::Erc721Token(id));
        }
        for addr in self.contracts.keys() {
            c.dirty.insert(LeafKey::Contract(*addr));
        }
        if self.burned != 0 {
            c.dirty.insert(LeafKey::Burned);
        }
    }

    /// Credits an address at genesis.
    pub fn genesis_credit(&mut self, addr: Address, amount: u128) {
        self.accounts.entry(addr).or_default().balance += amount;
        self.native_supply += amount;
        self.mark(LeafKey::Account(addr));
    }

    /// Account balance query.
    pub fn balance(&self, addr: &Address) -> u128 {
        self.accounts.get(addr).map_or(0, |a| a.balance)
    }

    /// Account nonce query.
    pub fn nonce(&self, addr: &Address) -> u64 {
        self.accounts.get(addr).map_or(0, |a| a.nonce)
    }

    /// Sum of every native balance (for conservation checks). O(1):
    /// returns the maintained counter rather than walking the account
    /// map — `recompute_native_supply` is the slow cross-check.
    pub fn total_native_supply(&self) -> u128 {
        self.native_supply
    }

    /// Recomputes the native supply by walking every account. O(total
    /// accounts); exists so tests can assert the maintained counter
    /// never drifts from the ground truth.
    pub fn recompute_native_supply(&self) -> u128 {
        self.accounts.values().map(|a| a.balance).sum()
    }

    /// Total native tokens burned as base fees since genesis.
    pub fn burned(&self) -> u128 {
        self.burned
    }

    /// Whether a contract is deployed at `addr`.
    pub fn has_contract(&self, addr: &Address) -> bool {
        self.contracts.contains_key(addr)
    }

    /// The `code_id` of the contract at `addr`.
    pub fn contract_code_id(&self, addr: &Address) -> Option<&str> {
        self.contracts.get(addr).map(|c| c.code_id.as_str())
    }

    /// Read-only view of a contract's canonical snapshot (for inspection
    /// and off-chain indexing).
    pub fn contract_snapshot(&self, addr: &Address) -> Option<Vec<u8>> {
        self.contracts.get(addr).map(|c| c.contract.snapshot())
    }

    /// Canonical root hash of the entire state: the sparse-Merkle root
    /// over the [`LeafKey`] → value-bytes map (see DESIGN.md §5f).
    ///
    /// Commits lazily: leaves touched since the last call are
    /// recomputed from the live maps and folded into the backend's
    /// tree, costing O(touched keys · depth) on the incremental
    /// backend. With nothing dirty this is a cached-root read.
    pub fn state_root(&self) -> Digest {
        let mut committer = self.committer.borrow_mut();
        if committer.dirty.is_empty() {
            if let Some(root) = committer.backend.root() {
                return root;
            }
        }
        let updates: Vec<(Digest, Option<Digest>)> = committer
            .dirty
            .iter()
            .map(|k| (k.digest(), self.leaf_digest(k)))
            .collect();
        let touched = updates.len() as u64;
        let span = pds2_obs::span("state", "commit", pds2_obs::Stamp::None);
        let mut full = || self.full_leaves();
        let (root, hashed) = committer.backend.commit(updates, &mut full);
        committer.dirty.clear();
        pds2_obs::counter!("state.smt.nodes_hashed").add(hashed);
        span.finish(
            pds2_obs::Stamp::None,
            vec![
                ("touched", pds2_obs::Value::from(touched)),
                ("nodes_hashed", pds2_obs::Value::from(hashed)),
            ],
        );
        root
    }

    /// What the tree stores for one leaf: `sha256` of its
    /// [`Self::leaf_value`]. The fixed-width values a transfer block
    /// touches (accounts, balances, the burn counter) are encoded on the
    /// stack; the rest go through `leaf_value`.
    fn leaf_digest(&self, key: &LeafKey) -> Option<Digest> {
        let amount = |v: u128| sha256(&v.to_le_bytes());
        match key {
            LeafKey::Account(a) => self.accounts.get(a).map(|acct| {
                let mut buf = [0u8; 24];
                buf[..16].copy_from_slice(&acct.balance.to_le_bytes());
                buf[16..].copy_from_slice(&acct.nonce.to_le_bytes());
                sha256(&buf)
            }),
            LeafKey::Erc20Bal(t, a) => self.erc20.bal_entry(*t, a).map(amount),
            LeafKey::Erc20Allow(t, o, s) => self.erc20.allowance_entry(*t, o, s).map(amount),
            LeafKey::Burned => (self.burned != 0).then(|| amount(self.burned)),
            _ => self.leaf_value(key).map(|b| sha256(&b)),
        }
    }

    /// Canonical value bytes of one leaf, `None` when the leaf is
    /// absent. This is the byte string a light client feeds to
    /// [`crate::smt::verify_proof`]; the tree stores its sha256.
    pub fn leaf_value(&self, key: &LeafKey) -> Option<Vec<u8>> {
        match key {
            LeafKey::Account(a) => self.accounts.get(a).map(|acct| acct.to_bytes()),
            LeafKey::Erc20Meta(t) => self.erc20.meta_entry(*t).map(|(sym, minter, supply)| {
                let mut enc = Encoder::new();
                enc.put_str(sym);
                enc.put_option(&minter);
                enc.put_u128(supply);
                enc.finish()
            }),
            LeafKey::Erc20Bal(t, a) => self.erc20.bal_entry(*t, a).map(|b| {
                let mut enc = Encoder::new();
                enc.put_u128(b);
                enc.finish()
            }),
            LeafKey::Erc20Allow(t, o, s) => self.erc20.allowance_entry(*t, o, s).map(|a| {
                let mut enc = Encoder::new();
                enc.put_u128(a);
                enc.finish()
            }),
            LeafKey::Erc20Next => (self.erc20.next_id() != 0).then(|| {
                let mut enc = Encoder::new();
                enc.put_u64(self.erc20.next_id());
                enc.finish()
            }),
            LeafKey::Erc721Token(id) => self.erc721.info(*id).map(|info| info.to_bytes()),
            LeafKey::Erc721Next => (self.erc721.next_id() != 0).then(|| {
                let mut enc = Encoder::new();
                enc.put_u64(self.erc721.next_id());
                enc.finish()
            }),
            LeafKey::Contract(a) => self.contracts.get(a).map(|inst| {
                let mut enc = Encoder::new();
                enc.put_str(&inst.code_id);
                enc.put_digest(&inst.contract.state_digest());
                enc.finish()
            }),
            LeafKey::Burned => (self.burned != 0).then(|| {
                let mut enc = Encoder::new();
                enc.put_u128(self.burned);
                enc.finish()
            }),
        }
    }

    /// Enumerates the complete canonical leaf set `(tree key, value
    /// digest)` from the live maps — the full-rehash oracle's input.
    /// Deliberately independent of the dirty set, so an incremental
    /// marking bug cannot hide here.
    pub(crate) fn full_leaves(&self) -> Vec<(Digest, Digest)> {
        let mut keys: Vec<LeafKey> = Vec::with_capacity(self.accounts.len() + 8);
        keys.extend(self.accounts.keys().map(|a| LeafKey::Account(*a)));
        if self.erc20.next_id() != 0 {
            keys.push(LeafKey::Erc20Next);
        }
        for token in self.erc20.token_ids() {
            keys.push(LeafKey::Erc20Meta(token));
            keys.extend(
                self.erc20
                    .balance_entries(token)
                    .map(|(a, _)| LeafKey::Erc20Bal(token, a)),
            );
            keys.extend(
                self.erc20
                    .allowance_entries(token)
                    .map(|(o, s, _)| LeafKey::Erc20Allow(token, o, s)),
            );
        }
        if self.erc721.next_id() != 0 {
            keys.push(LeafKey::Erc721Next);
        }
        keys.extend(
            self.erc721
                .token_entries()
                .map(|(id, _)| LeafKey::Erc721Token(id)),
        );
        keys.extend(self.contracts.keys().map(|a| LeafKey::Contract(*a)));
        if self.burned != 0 {
            keys.push(LeafKey::Burned);
        }
        keys.iter()
            .map(|k| {
                let bytes = self.leaf_value(k).expect("enumerated leaves are present");
                (k.digest(), sha256(&bytes))
            })
            .collect()
    }

    /// Produces the leaf's current value and a Merkle (non-)inclusion
    /// proof against the current state root (committing first if
    /// needed). Verify with [`crate::smt::verify_proof`] against the
    /// root from a validated block header.
    pub fn prove_leaf(&self, key: &LeafKey) -> (Option<Vec<u8>>, SmtProof) {
        let _ = self.state_root(); // flush pending changes
        let proof = self.committer.borrow().backend.prove(&key.digest());
        (self.leaf_value(key), proof)
    }

    /// Serializes the complete state for a recovery snapshot. Contracts
    /// are stored as `(code_id, deployer, init, snapshot)` so restore
    /// can revive each instance through the registry constructor — the
    /// construction that succeeded at deploy time succeeds again.
    pub(crate) fn encode_snapshot(&self, enc: &mut Encoder) {
        enc.put_u64(self.accounts.len() as u64);
        for (addr, acct) in &self.accounts {
            addr.encode(enc);
            acct.encode(enc);
        }
        self.erc20.encode(enc);
        self.erc721.encode(enc);
        enc.put_u64(self.contracts.len() as u64);
        for (addr, inst) in &self.contracts {
            addr.encode(enc);
            enc.put_str(&inst.code_id);
            inst.deployer.encode(enc);
            enc.put_bytes(&inst.init);
            enc.put_bytes(&inst.contract.snapshot());
        }
        enc.put_u128(self.burned);
        enc.put_u128(self.native_supply);
    }

    /// Rebuilds a state from a snapshot. The whole leaf set is marked
    /// dirty, so the first `state_root()` repopulates the backend.
    pub(crate) fn decode_snapshot(
        dec: &mut Decoder<'_>,
        registry: &ContractRegistry,
    ) -> Result<WorldState, String> {
        let fail = |e: pds2_crypto::DecodeError| format!("snapshot decode: {e:?}");
        let mut st = WorldState::new();
        for _ in 0..dec.get_u64().map_err(fail)? {
            let addr = Address::decode(dec).map_err(fail)?;
            let acct = Account::decode(dec).map_err(fail)?;
            st.accounts.insert(addr, acct);
        }
        st.erc20 = crate::erc20::Erc20Module::decode(dec).map_err(fail)?;
        st.erc721 = crate::erc721::Erc721Module::decode(dec).map_err(fail)?;
        for _ in 0..dec.get_u64().map_err(fail)? {
            let addr = Address::decode(dec).map_err(fail)?;
            let code_id = dec.get_str().map_err(fail)?;
            let deployer = Address::decode(dec).map_err(fail)?;
            let init = dec.get_bytes().map_err(fail)?;
            let snap = dec.get_bytes().map_err(fail)?;
            let mut contract = registry
                .instantiate(&code_id, deployer, &init)
                .map_err(|e| format!("snapshot revive {code_id}: {e}"))?;
            contract
                .restore(&snap)
                .map_err(|e| format!("snapshot restore {code_id}: {e}"))?;
            st.contracts.insert(
                addr,
                ContractInstance {
                    code_id,
                    deployer,
                    init,
                    contract,
                },
            );
        }
        st.burned = dec.get_u128().map_err(fail)?;
        st.native_supply = dec.get_u128().map_err(fail)?;
        st.mark_all_dirty();
        Ok(st)
    }

    /// Executes one transaction under a block environment, charging
    /// EIP-1559 fees around the state transition:
    ///
    /// 1. the effective gas price at `env.base_fee` is computed (a fee
    ///    cap below the base fee fails the transaction without touching
    ///    state — producers never select such transactions, so hitting
    ///    this is a proposer fault);
    /// 2. `gas_limit × price` is escrowed from the sender up front (so
    ///    execution cannot spend money owed for gas);
    /// 3. after execution the unused portion is refunded, the base-fee
    ///    share of the consumed gas is burned (`burned` accumulator,
    ///    part of the state root) and the tip share is credited to
    ///    `env.coinbase`.
    ///
    /// A zero effective price (free/legacy transaction at zero base fee)
    /// skips the fee machinery entirely and is byte-identical to the
    /// historical execution path.
    ///
    /// The caller (block producer / validator) must have verified the
    /// signature; it is re-checked defensively (once), and a bad signature
    /// or nonce is an invalid transaction (no state change, no nonce bump).
    /// `trace` flows into [`CallCtx::trace`] so contract code can attach
    /// its phase events to the submitting workload's trace.
    pub fn apply_transaction_env(
        &mut self,
        registry: &ContractRegistry,
        signed: &SignedTransaction,
        env: &BlockEnv,
        tx_index: u32,
        trace: pds2_obs::TraceCtx,
    ) -> TxReceipt {
        let Some(price) = signed.tx.effective_gas_price(env.base_fee) else {
            return TxReceipt::failed(
                signed.hash(),
                0,
                0,
                format!(
                    "fee cap {} below base fee {}",
                    signed.tx.max_fee_per_gas, env.base_fee
                ),
            );
        };
        // The one signature check of this execution; `apply_inner` is
        // handed the verdict.
        let sig_ok = signed.verify_signature();
        let sender = signed.sender();
        // A free transaction has no fee to handle; a bad signature or
        // nonce produces its usual failure receipt before any money moves.
        if price == 0 || !sig_ok || signed.tx.nonce != self.nonce(&sender) {
            return self.apply_inner(registry, signed, sig_ok, env.height, tx_index, trace);
        }
        let upfront = signed.tx.gas_limit as u128 * price as u128;
        if self.balance(&sender) < upfront {
            return TxReceipt::failed(
                signed.hash(),
                0,
                price,
                format!(
                    "insufficient funds for gas: need {upfront}, have {}",
                    self.balance(&sender)
                ),
            );
        }
        self.accounts.entry(sender).or_default().balance -= upfront;
        self.mark(LeafKey::Account(sender));
        let mut receipt = self.apply_inner(registry, signed, sig_ok, env.height, tx_index, trace);
        let gas_cost = receipt.gas_used as u128 * price as u128;
        self.accounts.entry(sender).or_default().balance += upfront - gas_cost;
        let burn = receipt.gas_used as u128 * env.base_fee as u128;
        let tip = gas_cost - burn;
        self.burned += burn;
        // Escrow−refund−tip nets the circulating supply down by exactly
        // the burn.
        self.native_supply -= burn;
        if burn > 0 {
            self.mark(LeafKey::Burned);
        }
        if tip > 0 {
            self.accounts.entry(env.coinbase).or_default().balance += tip;
            self.mark(LeafKey::Account(env.coinbase));
        }
        receipt.effective_gas_price = price;
        receipt
    }

    /// The fee-agnostic state transition (signature verdict, nonce, gas
    /// metering, payload execution, receipt assembly). `sig_ok` is the
    /// caller's `signed.verify_signature()`.
    fn apply_inner(
        &mut self,
        registry: &ContractRegistry,
        signed: &SignedTransaction,
        sig_ok: bool,
        block_height: u64,
        tx_index: u32,
        trace: pds2_obs::TraceCtx,
    ) -> TxReceipt {
        let tx_hash = signed.hash();
        let sender = signed.sender();

        let fail = |error: String, gas_used: u64| TxReceipt::failed(tx_hash, gas_used, 0, error);

        if !sig_ok {
            return fail("invalid signature".into(), 0);
        }
        let expected_nonce = self.nonce(&sender);
        if signed.tx.nonce != expected_nonce {
            return fail(
                format!(
                    "bad nonce: expected {expected_nonce}, got {}",
                    signed.tx.nonce
                ),
                0,
            );
        }

        // From here on the nonce is consumed, success or not.
        self.accounts.entry(sender).or_default().nonce += 1;
        self.mark(LeafKey::Account(sender));
        let sender_nonce_used = signed.tx.nonce;

        let mut meter = GasMeter::new(signed.tx.gas_limit);
        let intrinsic = gas::TX_BASE.saturating_add(signed.body_len() as u64 * gas::PER_BYTE);
        if meter.charge(intrinsic).is_err() {
            return fail("out of gas (intrinsic)".into(), meter.used());
        }

        let mut events = EventSink::new();
        let result: Result<(Vec<u8>, Option<Address>), String> = match &signed.tx.kind {
            TxKind::Transfer { to, amount } => {
                self.native_transfer(sender, *to, *amount).map(|_| {
                    events.emit(Event::new(
                        "native.transfer",
                        format!("from={sender} to={to} amount={amount}"),
                    ));
                    (Vec::new(), None)
                })
            }
            TxKind::Erc20(op) => match meter.charge(gas::ERC20_OP) {
                Err(_) => Err("out of gas".into()),
                Ok(()) => {
                    let result = self.erc20.apply(sender, op, &mut events);
                    // Mark regardless of outcome: a failed Transfer/Burn
                    // still creates a zero balance entry for the sender
                    // (`entry().or_default()` precedes the check), and
                    // that entry is part of the canonical leaf set.
                    self.mark_erc20(sender, op, *result.as_ref().unwrap_or(&None));
                    result
                        .map(|created| {
                            let out = created
                                .map(|id| id.0.to_le_bytes().to_vec())
                                .unwrap_or_default();
                            (out, None)
                        })
                        .map_err(|e| e.to_string())
                }
            },
            TxKind::Erc721(op) => match meter.charge(gas::ERC721_OP) {
                Err(_) => Err("out of gas".into()),
                Ok(()) => {
                    let result = self.erc721.apply(sender, op, &mut events);
                    self.mark_erc721(op, *result.as_ref().unwrap_or(&None));
                    result
                        .map(|created| {
                            let out = created
                                .map(|id| id.0.to_le_bytes().to_vec())
                                .unwrap_or_default();
                            (out, None)
                        })
                        .map_err(|e| e.to_string())
                }
            },
            TxKind::Deploy { code_id, init } => match meter.charge(gas::DEPLOY) {
                Err(_) => Err("out of gas".into()),
                Ok(()) => {
                    let addr = Address::contract(&sender, sender_nonce_used);
                    if let std::collections::btree_map::Entry::Vacant(e) =
                        self.contracts.entry(addr)
                    {
                        match registry.instantiate(code_id, sender, init) {
                            Ok(contract) => {
                                e.insert(ContractInstance {
                                    code_id: code_id.clone(),
                                    deployer: sender,
                                    init: init.clone(),
                                    contract,
                                });
                                self.accounts.entry(addr).or_default();
                                self.mark(LeafKey::Contract(addr));
                                self.mark(LeafKey::Account(addr));
                                events.emit(Event::new(
                                    "contract.deploy",
                                    format!("code={code_id} addr={addr} by={sender}"),
                                ));
                                Ok((Vec::new(), Some(addr)))
                            }
                            Err(e) => Err(e.to_string()),
                        }
                    } else {
                        Err("contract address collision".into())
                    }
                }
            },
            TxKind::Call {
                contract,
                input,
                value,
            } => self
                .execute_call(
                    sender,
                    *contract,
                    input,
                    *value,
                    block_height,
                    trace,
                    &mut meter,
                    &mut events,
                )
                .map(|out| (out, None)),
        };

        match result {
            Ok((output, deployed)) => {
                let mut evs = events.into_events();
                for (i, e) in evs.iter_mut().enumerate() {
                    e.block_height = block_height;
                    e.tx_index = tx_index;
                    let _ = i;
                }
                TxReceipt {
                    tx_hash,
                    success: true,
                    gas_used: meter.used(),
                    effective_gas_price: 0,
                    output,
                    error: None,
                    events: evs,
                    deployed,
                }
            }
            Err(error) => fail(error, meter.used()),
        }
    }

    fn native_transfer(&mut self, from: Address, to: Address, amount: u128) -> Result<(), String> {
        let from_balance = self.balance(&from);
        if from_balance < amount {
            return Err(format!(
                "insufficient balance: have {from_balance}, need {amount}"
            ));
        }
        self.accounts.entry(from).or_default().balance -= amount;
        self.accounts.entry(to).or_default().balance += amount;
        self.mark(LeafKey::Account(from));
        self.mark(LeafKey::Account(to));
        Ok(())
    }

    /// Dirty-marks the leaves an ERC-20 op can touch. Called on success
    /// AND failure: every marked leaf is recomputed from the live maps,
    /// so over-marking is harmless, while under-marking a failed op that
    /// left a zero entry behind would silently fork the root.
    fn mark_erc20(&self, sender: Address, op: &Erc20Op, created: Option<crate::erc20::TokenId>) {
        match op {
            Erc20Op::Create { .. } => {
                if let Some(id) = created {
                    self.mark(LeafKey::Erc20Next);
                    self.mark(LeafKey::Erc20Meta(id));
                    self.mark(LeafKey::Erc20Bal(id, sender));
                }
            }
            Erc20Op::Mint { token, to, .. } => {
                self.mark(LeafKey::Erc20Meta(*token));
                self.mark(LeafKey::Erc20Bal(*token, *to));
            }
            Erc20Op::Transfer { token, to, .. } => {
                self.mark(LeafKey::Erc20Bal(*token, sender));
                self.mark(LeafKey::Erc20Bal(*token, *to));
            }
            Erc20Op::Approve { token, spender, .. } => {
                self.mark(LeafKey::Erc20Allow(*token, sender, *spender));
            }
            Erc20Op::TransferFrom {
                token, owner, to, ..
            } => {
                self.mark(LeafKey::Erc20Allow(*token, *owner, sender));
                self.mark(LeafKey::Erc20Bal(*token, *owner));
                self.mark(LeafKey::Erc20Bal(*token, *to));
            }
            Erc20Op::Burn { token, .. } => {
                self.mark(LeafKey::Erc20Meta(*token));
                self.mark(LeafKey::Erc20Bal(*token, sender));
            }
        }
    }

    /// Dirty-marks the leaves an ERC-721 op can touch (failed NFT ops
    /// are verified non-mutating, but marking is still unconditional —
    /// recomputing an untouched leaf is a no-op).
    fn mark_erc721(&self, op: &Erc721Op, created: Option<crate::erc721::NftId>) {
        match op {
            Erc721Op::Mint { .. } => {
                if let Some(id) = created {
                    self.mark(LeafKey::Erc721Next);
                    self.mark(LeafKey::Erc721Token(id));
                }
            }
            Erc721Op::Transfer { id, .. }
            | Erc721Op::Approve { id, .. }
            | Erc721Op::TransferFrom { id, .. }
            | Erc721Op::Burn { id } => self.mark(LeafKey::Erc721Token(*id)),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_call(
        &mut self,
        sender: Address,
        contract_addr: Address,
        input: &[u8],
        value: u128,
        block_height: u64,
        trace: pds2_obs::TraceCtx,
        meter: &mut GasMeter,
        events: &mut EventSink,
    ) -> Result<Vec<u8>, String> {
        meter.charge(gas::CALL_BASE).map_err(|e| e.to_string())?;
        if !self.contracts.contains_key(&contract_addr) {
            return Err(format!("no contract at {contract_addr}"));
        }
        // Escrow the attached value.
        if value > 0 {
            self.native_transfer(sender, contract_addr, value)?;
        }
        let snapshot = {
            let inst = self.contracts.get(&contract_addr).expect("checked above");
            inst.contract.snapshot()
        };
        // Split borrows: the contract is called mutably while the token
        // module is readable through the context.
        let (call_result, pending, pending_tokens) = {
            let contracts = &mut self.contracts;
            let erc20 = &self.erc20;
            let mut ctx = CallCtx {
                sender,
                contract: contract_addr,
                value,
                block_height,
                trace,
                gas: meter,
                events,
                pending_transfers: Vec::new(),
                pending_token_transfers: Vec::new(),
                erc20,
            };
            let inst = contracts.get_mut(&contract_addr).expect("checked above");
            let result = inst.contract.call(&mut ctx, input);
            (
                result,
                std::mem::take(&mut ctx.pending_transfers),
                std::mem::take(&mut ctx.pending_token_transfers),
            )
        };
        // The call may have mutated the contract's internal state (and a
        // failed call restores it); recompute its leaf either way.
        self.mark(LeafKey::Contract(contract_addr));

        let rollback = |state: &mut WorldState, events: &mut EventSink| {
            let inst = state
                .contracts
                .get_mut(&contract_addr)
                .expect("checked above");
            inst.contract
                .restore(&snapshot)
                .expect("restoring own snapshot cannot fail");
            if value > 0 {
                state
                    .native_transfer(contract_addr, sender, value)
                    .expect("escrow refund cannot fail");
            }
            events.clear();
        };

        match call_result {
            Ok(output) => {
                // Apply scheduled payouts; overspend aborts the whole call.
                let total: u128 = pending
                    .iter()
                    .map(|(_, a)| *a)
                    .fold(0u128, |acc, a| acc.saturating_add(a));
                if total > self.balance(&contract_addr) {
                    rollback(self, events);
                    return Err(ContractError::InsufficientContractFunds.to_string());
                }
                // Token payouts: per-token totals must fit the contract's
                // ERC-20 balance before anything moves.
                let mut token_totals: std::collections::BTreeMap<crate::erc20::TokenId, u128> =
                    std::collections::BTreeMap::new();
                for (token, _, amount) in &pending_tokens {
                    let t = token_totals.entry(*token).or_default();
                    *t = t.saturating_add(*amount);
                }
                for (token, total) in &token_totals {
                    if *total > self.erc20.balance_of(*token, &contract_addr) {
                        rollback(self, events);
                        return Err(ContractError::InsufficientContractFunds.to_string());
                    }
                }
                for (to, amount) in pending {
                    self.native_transfer(contract_addr, to, amount)
                        .expect("total checked above");
                }
                for (token, to, amount) in pending_tokens {
                    self.erc20
                        .module_transfer(token, contract_addr, to, amount)
                        .expect("totals checked above");
                    self.mark(LeafKey::Erc20Bal(token, contract_addr));
                    self.mark(LeafKey::Erc20Bal(token, to));
                    events.emit(Event::new(
                        "erc20.contract_payout",
                        format!(
                            "token={} from={contract_addr} to={to} amount={amount}",
                            token.0
                        ),
                    ));
                }
                Ok(output)
            }
            Err(e) => {
                rollback(self, events);
                Err(e.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::test_support::Counter;
    use crate::tx::Transaction;
    use pds2_crypto::KeyPair;

    fn registry() -> ContractRegistry {
        let mut reg = ContractRegistry::new();
        reg.register("counter", Counter::construct);
        reg
    }

    fn make_tx(kp: &KeyPair, nonce: u64, kind: TxKind) -> SignedTransaction {
        Transaction {
            from: kp.public.clone(),
            nonce,
            kind,
            gas_limit: 1_000_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(kp)
    }

    fn funded_state(kp: &KeyPair, amount: u128) -> WorldState {
        let mut st = WorldState::new();
        st.genesis_credit(Address::of(&kp.public), amount);
        st
    }

    #[test]
    fn native_transfer_moves_funds_and_bumps_nonce() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut st = funded_state(&alice, 1000);
        let reg = registry();
        let tx = make_tx(
            &alice,
            0,
            TxKind::Transfer {
                to: bob,
                amount: 400,
            },
        );
        let r =
            st.apply_transaction_env(&reg, &tx, &BlockEnv::free(1), 0, pds2_obs::TraceCtx::NONE);
        assert!(r.success, "{:?}", r.error);
        assert_eq!(st.balance(&bob), 400);
        assert_eq!(st.balance(&Address::of(&alice.public)), 600);
        assert_eq!(st.nonce(&Address::of(&alice.public)), 1);
        assert_eq!(r.events.len(), 1);
        assert!(r.gas_used >= gas::TX_BASE);
    }

    #[test]
    fn overdraft_fails_but_consumes_nonce() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut st = funded_state(&alice, 100);
        let reg = registry();
        let tx = make_tx(
            &alice,
            0,
            TxKind::Transfer {
                to: bob,
                amount: 400,
            },
        );
        let r =
            st.apply_transaction_env(&reg, &tx, &BlockEnv::free(1), 0, pds2_obs::TraceCtx::NONE);
        assert!(!r.success);
        assert_eq!(st.balance(&bob), 0);
        assert_eq!(st.nonce(&Address::of(&alice.public)), 1, "nonce consumed");
    }

    #[test]
    fn bad_nonce_rejected_without_state_change() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut st = funded_state(&alice, 1000);
        let reg = registry();
        let tx = make_tx(&alice, 5, TxKind::Transfer { to: bob, amount: 1 });
        let r =
            st.apply_transaction_env(&reg, &tx, &BlockEnv::free(1), 0, pds2_obs::TraceCtx::NONE);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("bad nonce"));
        assert_eq!(st.nonce(&Address::of(&alice.public)), 0, "nonce unchanged");
    }

    #[test]
    fn forged_signature_rejected() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut st = funded_state(&alice, 1000);
        let reg = registry();
        let mut tx = make_tx(&alice, 0, TxKind::Transfer { to: bob, amount: 1 });
        if let TxKind::Transfer { amount, .. } = &mut tx.tx.kind {
            *amount = 999; // tamper after signing
        }
        let r =
            st.apply_transaction_env(&reg, &tx, &BlockEnv::free(1), 0, pds2_obs::TraceCtx::NONE);
        assert!(!r.success);
        assert_eq!(r.error.unwrap(), "invalid signature");
        assert_eq!(st.balance(&bob), 0);
    }

    #[test]
    fn deploy_and_call_contract() {
        let alice = KeyPair::from_seed(1);
        let mut st = funded_state(&alice, 1000);
        let reg = registry();
        let deploy = make_tx(
            &alice,
            0,
            TxKind::Deploy {
                code_id: "counter".into(),
                init: Vec::new(),
            },
        );
        let r = st.apply_transaction_env(
            &reg,
            &deploy,
            &BlockEnv::free(1),
            0,
            pds2_obs::TraceCtx::NONE,
        );
        assert!(r.success, "{:?}", r.error);
        let addr = r.deployed.unwrap();
        assert!(st.has_contract(&addr));
        assert_eq!(st.contract_code_id(&addr), Some("counter"));

        let call = make_tx(
            &alice,
            1,
            TxKind::Call {
                contract: addr,
                input: vec![0], // increment
                value: 0,
            },
        );
        let r =
            st.apply_transaction_env(&reg, &call, &BlockEnv::free(2), 0, pds2_obs::TraceCtx::NONE);
        assert!(r.success, "{:?}", r.error);
        assert_eq!(u64::from_le_bytes(r.output[..8].try_into().unwrap()), 1);
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].block_height, 2);
    }

    #[test]
    fn reverted_call_rolls_back_contract_state() {
        let alice = KeyPair::from_seed(1);
        let mut st = funded_state(&alice, 1000);
        let reg = registry();
        let deploy = make_tx(
            &alice,
            0,
            TxKind::Deploy {
                code_id: "counter".into(),
                init: Vec::new(),
            },
        );
        let addr = st
            .apply_transaction_env(
                &reg,
                &deploy,
                &BlockEnv::free(1),
                0,
                pds2_obs::TraceCtx::NONE,
            )
            .deployed
            .unwrap();
        let snap_before = st.contract_snapshot(&addr).unwrap();

        let call = make_tx(
            &alice,
            1,
            TxKind::Call {
                contract: addr,
                input: vec![1], // increment by 100 then revert
                value: 0,
            },
        );
        let r =
            st.apply_transaction_env(&reg, &call, &BlockEnv::free(2), 0, pds2_obs::TraceCtx::NONE);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("deliberate"));
        assert_eq!(
            st.contract_snapshot(&addr).unwrap(),
            snap_before,
            "state rolled back"
        );
        assert!(r.events.is_empty(), "events dropped on revert");
    }

    #[test]
    fn value_escrow_and_payout() {
        let alice = KeyPair::from_seed(1);
        let alice_addr = Address::of(&alice.public);
        let mut st = funded_state(&alice, 1000);
        let reg = registry();
        let deploy = make_tx(
            &alice,
            0,
            TxKind::Deploy {
                code_id: "counter".into(),
                init: Vec::new(),
            },
        );
        let addr = st
            .apply_transaction_env(
                &reg,
                &deploy,
                &BlockEnv::free(1),
                0,
                pds2_obs::TraceCtx::NONE,
            )
            .deployed
            .unwrap();

        // Attach 100; contract pays back half.
        let call = make_tx(
            &alice,
            1,
            TxKind::Call {
                contract: addr,
                input: vec![2],
                value: 100,
            },
        );
        let r =
            st.apply_transaction_env(&reg, &call, &BlockEnv::free(2), 0, pds2_obs::TraceCtx::NONE);
        assert!(r.success, "{:?}", r.error);
        assert_eq!(st.balance(&addr), 50);
        assert_eq!(st.balance(&alice_addr), 950);
        assert_eq!(st.total_native_supply(), 1000, "conservation");
    }

    #[test]
    fn overspending_contract_reverts_everything() {
        let alice = KeyPair::from_seed(1);
        let alice_addr = Address::of(&alice.public);
        let mut st = funded_state(&alice, 1000);
        let reg = registry();
        let deploy = make_tx(
            &alice,
            0,
            TxKind::Deploy {
                code_id: "counter".into(),
                init: Vec::new(),
            },
        );
        let addr = st
            .apply_transaction_env(
                &reg,
                &deploy,
                &BlockEnv::free(1),
                0,
                pds2_obs::TraceCtx::NONE,
            )
            .deployed
            .unwrap();
        let call = make_tx(
            &alice,
            1,
            TxKind::Call {
                contract: addr,
                input: vec![3], // schedules absurd payout
                value: 10,
            },
        );
        let r =
            st.apply_transaction_env(&reg, &call, &BlockEnv::free(2), 0, pds2_obs::TraceCtx::NONE);
        assert!(!r.success);
        assert_eq!(st.balance(&alice_addr), 1000, "escrow refunded");
        assert_eq!(st.balance(&addr), 0);
    }

    #[test]
    fn call_to_missing_contract_fails() {
        let alice = KeyPair::from_seed(1);
        let mut st = funded_state(&alice, 1000);
        let reg = registry();
        let call = make_tx(
            &alice,
            0,
            TxKind::Call {
                contract: Address::contract(&Address::of(&alice.public), 99),
                input: vec![0],
                value: 0,
            },
        );
        let r =
            st.apply_transaction_env(&reg, &call, &BlockEnv::free(1), 0, pds2_obs::TraceCtx::NONE);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("no contract"));
    }

    #[test]
    fn gas_limit_too_low_fails_intrinsic() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut st = funded_state(&alice, 1000);
        let reg = registry();
        let tx = Transaction {
            from: alice.public.clone(),
            nonce: 0,
            kind: TxKind::Transfer { to: bob, amount: 1 },
            gas_limit: 100, // far below TX_BASE
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(&alice);
        let r =
            st.apply_transaction_env(&reg, &tx, &BlockEnv::free(1), 0, pds2_obs::TraceCtx::NONE);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("intrinsic"));
    }

    #[test]
    fn token_ops_via_transactions() {
        let alice = KeyPair::from_seed(1);
        let mut st = funded_state(&alice, 1000);
        let reg = registry();
        let create = make_tx(
            &alice,
            0,
            TxKind::Erc20(crate::erc20::Erc20Op::Create {
                symbol: "RWD".into(),
                initial_supply: 500,
            }),
        );
        let r = st.apply_transaction_env(
            &reg,
            &create,
            &BlockEnv::free(1),
            0,
            pds2_obs::TraceCtx::NONE,
        );
        assert!(r.success);
        let token = crate::erc20::TokenId(u64::from_le_bytes(r.output[..8].try_into().unwrap()));
        assert_eq!(st.erc20.balance_of(token, &Address::of(&alice.public)), 500);
    }

    #[test]
    fn base_fee_burns_and_tips_the_proposer() {
        let alice = KeyPair::from_seed(1);
        let alice_addr = Address::of(&alice.public);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let coinbase = Address::of(&KeyPair::from_seed(3).public);
        let mut st = funded_state(&alice, 100_000_000);
        let reg = registry();
        let mut tx = Transaction {
            from: alice.public.clone(),
            nonce: 0,
            kind: TxKind::Transfer { to: bob, amount: 7 },
            gas_limit: 1_000_000,
            max_fee_per_gas: 5,
            priority_fee_per_gas: 1,
        };
        let signed = tx.clone().sign(&alice);
        let env = BlockEnv {
            height: 1,
            base_fee: 2,
            coinbase,
        };
        let root_before = st.state_root();
        let r = st.apply_transaction_env(&reg, &signed, &env, 0, pds2_obs::TraceCtx::NONE);
        assert!(r.success, "{:?}", r.error);
        // price = min(max_fee, base + tip) = min(5, 3) = 3.
        assert_eq!(r.effective_gas_price, 3);
        let gas = r.gas_used as u128;
        assert_eq!(st.burned(), gas * 2, "base-fee share burned");
        assert_eq!(st.balance(&coinbase), gas, "1/gas tip to the proposer");
        assert_eq!(st.balance(&bob), 7);
        assert_eq!(st.balance(&alice_addr), 100_000_000 - 7 - gas * 3);
        // Conservation now includes the burn.
        assert_eq!(st.total_native_supply() + st.burned(), 100_000_000);
        assert_ne!(st.state_root(), root_before);

        // A fee cap below the base fee fails without touching state.
        tx.nonce = 1;
        tx.max_fee_per_gas = 1;
        let signed = tx.sign(&alice);
        let supply = st.total_native_supply();
        let r = st.apply_transaction_env(&reg, &signed, &env, 1, pds2_obs::TraceCtx::NONE);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("below base fee"));
        assert_eq!(st.nonce(&alice_addr), 1, "nonce NOT consumed");
        assert_eq!(st.total_native_supply(), supply);
    }

    #[test]
    fn failed_execution_still_pays_gas() {
        let alice = KeyPair::from_seed(1);
        let alice_addr = Address::of(&alice.public);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        // Fund enough for gas but not the transfer.
        let mut st = funded_state(&alice, 10_000_000);
        let reg = registry();
        let signed = Transaction {
            from: alice.public.clone(),
            nonce: 0,
            kind: TxKind::Transfer {
                to: bob,
                amount: u128::MAX / 2,
            },
            gas_limit: 1_000_000,
            max_fee_per_gas: 2,
            priority_fee_per_gas: 0,
        }
        .sign(&alice);
        let env = BlockEnv {
            height: 1,
            base_fee: 2,
            coinbase: Address(pds2_crypto::sha256(b"cb")),
        };
        let r = st.apply_transaction_env(&reg, &signed, &env, 0, pds2_obs::TraceCtx::NONE);
        assert!(!r.success);
        assert_eq!(r.effective_gas_price, 2);
        let gas = r.gas_used as u128;
        assert!(gas > 0);
        assert_eq!(st.balance(&alice_addr), 10_000_000 - gas * 2);
        assert_eq!(st.burned(), gas * 2, "whole fee burned (tip is zero)");
        assert_eq!(st.nonce(&alice_addr), 1, "nonce consumed");
    }

    #[test]
    fn insufficient_funds_for_gas_fails_cleanly() {
        let alice = KeyPair::from_seed(1);
        let alice_addr = Address::of(&alice.public);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut st = funded_state(&alice, 100); // can't escrow 1M gas at 2/gas
        let reg = registry();
        let signed = Transaction {
            from: alice.public.clone(),
            nonce: 0,
            kind: TxKind::Transfer { to: bob, amount: 1 },
            gas_limit: 1_000_000,
            max_fee_per_gas: 2,
            priority_fee_per_gas: 0,
        }
        .sign(&alice);
        let env = BlockEnv {
            height: 1,
            base_fee: 2,
            coinbase: Address(pds2_crypto::sha256(b"cb")),
        };
        let r = st.apply_transaction_env(&reg, &signed, &env, 0, pds2_obs::TraceCtx::NONE);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("insufficient funds for gas"));
        assert_eq!(st.balance(&alice_addr), 100, "nothing charged");
        assert_eq!(st.nonce(&alice_addr), 0, "nonce untouched");
    }

    #[test]
    fn forged_signature_on_fee_path_moves_no_money() {
        let alice = KeyPair::from_seed(1);
        let alice_addr = Address::of(&alice.public);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut st = funded_state(&alice, 10_000_000);
        let reg = registry();
        let mut signed = Transaction {
            from: alice.public.clone(),
            nonce: 0,
            kind: TxKind::Transfer { to: bob, amount: 1 },
            gas_limit: 100_000,
            max_fee_per_gas: 2,
            priority_fee_per_gas: 0,
        }
        .sign(&alice);
        if let TxKind::Transfer { amount, .. } = &mut signed.tx.kind {
            *amount = 999; // tamper after signing
        }
        let env = BlockEnv {
            height: 1,
            base_fee: 2,
            coinbase: Address(pds2_crypto::sha256(b"cb")),
        };
        let root = st.state_root();
        let r = st.apply_transaction_env(&reg, &signed, &env, 0, pds2_obs::TraceCtx::NONE);
        assert!(!r.success);
        assert_eq!(r.error.as_deref(), Some("invalid signature"));
        assert_eq!((r.gas_used, r.effective_gas_price), (0, 0));
        assert_eq!(st.balance(&alice_addr), 10_000_000, "no gas escrowed");
        assert_eq!(st.nonce(&alice_addr), 0);
        assert_eq!(st.burned(), 0);
        assert_eq!(st.state_root(), root);
    }

    #[test]
    fn leaf_digest_is_the_hash_of_the_leaf_value_for_every_kind() {
        let alice = KeyPair::from_seed(1);
        let alice_addr = Address::of(&alice.public);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut st = funded_state(&alice, 100_000_000);
        let reg = registry();
        let kinds = [
            TxKind::Erc20(Erc20Op::Create {
                symbol: "RWD".into(),
                initial_supply: 500,
            }),
            TxKind::Erc20(Erc20Op::Approve {
                token: crate::erc20::TokenId(0),
                spender: bob,
                amount: 77,
            }),
            TxKind::Erc721(Erc721Op::Mint {
                kind: crate::erc721::AssetKind::Dataset,
                content: sha256(b"dataset"),
                label: "d".into(),
            }),
            TxKind::Deploy {
                code_id: "counter".into(),
                init: Vec::new(),
            },
            TxKind::Transfer { to: bob, amount: 7 },
        ];
        // A non-zero base fee, so the burn counter is a leaf too.
        let env = BlockEnv {
            height: 1,
            base_fee: 2,
            coinbase: bob,
        };
        let mut contract = None;
        for (nonce, kind) in kinds.into_iter().enumerate() {
            let mut tx = make_tx(&alice, nonce as u64, kind).tx;
            tx.max_fee_per_gas = 2;
            let r = st.apply_transaction_env(
                &reg,
                &tx.sign(&alice),
                &env,
                nonce as u32,
                pds2_obs::TraceCtx::NONE,
            );
            assert!(r.success, "{:?}", r.error);
            contract = contract.or(r.deployed);
        }
        let token = crate::erc20::TokenId(0);
        let absent = Address(sha256(b"nobody"));
        let present = [
            LeafKey::Account(alice_addr),
            LeafKey::Account(bob),
            LeafKey::Erc20Meta(token),
            LeafKey::Erc20Bal(token, alice_addr),
            LeafKey::Erc20Allow(token, alice_addr, bob),
            LeafKey::Erc20Next,
            LeafKey::Erc721Token(crate::erc721::NftId(0)),
            LeafKey::Erc721Next,
            LeafKey::Contract(contract.unwrap()),
            LeafKey::Burned,
        ];
        let missing = [
            LeafKey::Account(absent),
            LeafKey::Erc20Bal(token, absent),
            LeafKey::Erc20Allow(token, bob, alice_addr),
            LeafKey::Contract(absent),
        ];
        for key in present.iter().chain(&missing) {
            let value = st.leaf_value(key);
            assert_eq!(value.is_some(), present.contains(key), "{key:?}");
            assert_eq!(st.leaf_digest(key), value.map(|b| sha256(&b)), "{key:?}");
        }
        // And the tree holds exactly these digests under these keys.
        let root = st.state_root();
        for key in &present {
            let (value, proof) = st.prove_leaf(key);
            assert!(crate::smt::verify_proof(
                &root,
                &key.digest(),
                value.as_deref(),
                &proof
            ));
        }
    }

    #[test]
    fn state_root_changes_with_every_mutation() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut st = funded_state(&alice, 1000);
        let reg = registry();
        let r0 = st.state_root();
        let tx = make_tx(&alice, 0, TxKind::Transfer { to: bob, amount: 1 });
        st.apply_transaction_env(&reg, &tx, &BlockEnv::free(1), 0, pds2_obs::TraceCtx::NONE);
        let r1 = st.state_root();
        assert_ne!(r0, r1);
        // Deterministic: same state, same root.
        assert_eq!(st.state_root(), r1);
    }
}
