//! A contract's state is encoded once per change: once when it is
//! deployed and once per successful call. Rolling back a failed call,
//! committing the state root, writing a recovery snapshot and reading
//! `contract_snapshot` all reuse those bytes, and a node recovered from
//! the snapshot holds the same bytes as the node that never crashed.
//!
//! One test per process on purpose: the assertions read a process-wide
//! encode counter, which any concurrently running test would move.

use parking_lot::Mutex;
use pds2_chain::{
    Address, Blockchain, CallCtx, Contract, ContractError, ContractRegistry, Transaction, TxKind,
};
use pds2_crypto::KeyPair;
use pds2_storage::chainlog::ChainLog;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every `Tally::snapshot` call in this process.
static ENCODES: AtomicU64 = AtomicU64::new(0);

/// What one commit of a dirty contract leaf encodes: nothing, except in
/// a build with debug assertions, where `leaf_value` checks its committed
/// bytes against a fresh encoding.
const CHECK: u64 = cfg!(debug_assertions) as u64;

const CONTRACTS: u64 = 3;
const SNAPSHOT_EVERY: u64 = 2;

const BUMP: u8 = 0;
const BUMP_AND_REVERT: u8 = 1;
const BUMP_AND_OVERSPEND: u8 = 2;

/// A counter whose method `BUMP` succeeds, `BUMP_AND_REVERT` fails in the
/// call and `BUMP_AND_OVERSPEND` fails in the payout.
struct Tally(u64);

impl Tally {
    fn construct(_: Address, _: &[u8]) -> Result<Box<dyn Contract>, ContractError> {
        Ok(Box::new(Tally(0)))
    }
}

impl Contract for Tally {
    fn call(&mut self, ctx: &mut CallCtx<'_>, input: &[u8]) -> Result<Vec<u8>, ContractError> {
        ctx.charge_gas(100)?;
        self.0 += 1;
        match input {
            [BUMP] => Ok(Vec::new()),
            [BUMP_AND_REVERT] => Err(ContractError::Revert("deliberate".into())),
            [BUMP_AND_OVERSPEND] => {
                ctx.transfer_out(ctx.sender, u128::MAX);
                Ok(Vec::new())
            }
            _ => Err(ContractError::BadInput("unknown method".into())),
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        ENCODES.fetch_add(1, Ordering::Relaxed);
        self.0.to_le_bytes().to_vec()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), ContractError> {
        let bytes = snapshot
            .try_into()
            .map_err(|_| ContractError::BadInput("tally snapshot".into()))?;
        self.0 = u64::from_le_bytes(bytes);
        Ok(())
    }
}

fn encodes() -> u64 {
    ENCODES.load(Ordering::Relaxed)
}

fn genesis(alice: &KeyPair) -> Blockchain {
    let mut registry = ContractRegistry::new();
    registry.register("tally", Tally::construct);
    Blockchain::single_validator(1000, &[(Address::of(&alice.public), 1_000_000)], registry)
}

/// Produces one block of `kinds`, sent by `alice` from `nonce` on; asserts
/// each transaction's outcome and returns the encodes the block cost.
fn block(
    chain: &mut Blockchain,
    alice: &KeyPair,
    nonce: &mut u64,
    kinds: &[(TxKind, bool)],
) -> u64 {
    let mut hashes = Vec::new();
    for (kind, _) in kinds {
        let tx = Transaction {
            from: alice.public.clone(),
            nonce: *nonce,
            kind: kind.clone(),
            gas_limit: 100_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(alice);
        *nonce += 1;
        hashes.push(chain.submit(tx).expect("fresh transaction"));
    }
    let before = encodes();
    assert_eq!(chain.produce_block().transactions.len(), kinds.len());
    let spent = encodes() - before;
    for (hash, (kind, succeeds)) in hashes.iter().zip(kinds) {
        let receipt = chain.receipt(hash).expect("included");
        assert_eq!(receipt.success, *succeeds, "{kind:?}: {:?}", receipt.error);
    }
    spent
}

#[test]
fn a_contract_is_encoded_once_per_change() {
    let alice = KeyPair::from_seed(1);
    let sender = Address::of(&alice.public);
    let contracts: Vec<Address> = (0..CONTRACTS)
        .map(|n| Address::contract(&sender, n))
        .collect();
    let call = |at: usize, method: u8| TxKind::Call {
        contract: contracts[at],
        input: vec![method],
        value: 0,
    };

    let store = Arc::new(Mutex::new(ChainLog::new()));
    let mut live = genesis(&alice);
    live.attach_store(store.clone(), SNAPSHOT_EVERY);
    let mut nonce = 0;

    // Height 1: each deploy encodes its new instance once.
    let deploys: Vec<_> = (0..CONTRACTS)
        .map(|_| {
            let deploy = TxKind::Deploy {
                code_id: "tally".into(),
                init: Vec::new(),
            };
            (deploy, true)
        })
        .collect();
    let spent = block(&mut live, &alice, &mut nonce, &deploys);
    assert_eq!(spent, CONTRACTS + CONTRACTS * CHECK, "deploys");

    // Height 2: a successful call encodes once, after the call; the first
    // snapshot, written at this height, copies the committed bytes.
    let spent = block(&mut live, &alice, &mut nonce, &[(call(0, BUMP), true)]);
    assert_eq!(spent, 1 + CHECK, "successful call and the first snapshot");

    // Height 3: both failed calls roll back from the committed bytes.
    let failed = [
        (call(1, BUMP_AND_REVERT), false),
        (call(2, BUMP_AND_OVERSPEND), false),
    ];
    let spent = block(&mut live, &alice, &mut nonce, &failed);
    assert_eq!(spent, 2 * CHECK, "failed calls");

    // Height 4: one success, one rollback, and the second snapshot,
    // written into the first one's buffer.
    let mixed = [(call(1, BUMP), true), (call(2, BUMP_AND_REVERT), false)];
    let spent = block(&mut live, &alice, &mut nonce, &mixed);
    assert_eq!(spent, 1 + 2 * CHECK, "mixed block and the second snapshot");

    // Reading the root, the snapshot bytes and each contract's state.
    let before = encodes();
    let root = live.state.state_root();
    let snapshot = live.snapshot_bytes();
    let states: Vec<_> = contracts
        .iter()
        .map(|c| live.state.contract_snapshot(c).expect("deployed"))
        .collect();
    assert_eq!(encodes() - before, 0, "reads");
    assert_eq!(live.state.state_root(), root);
    assert_eq!(
        store.lock().snapshot(),
        Some((4, snapshot.as_slice())),
        "the slot holds what `snapshot_bytes` encodes"
    );
    let tallies = [1u64, 1, 0].map(|n| n.to_le_bytes().to_vec());
    assert_eq!(states, tallies, "failed calls left no trace");

    // Height 5, the tail a recovery replays: one success, one rollback.
    let tail = [(call(2, BUMP), true), (call(0, BUMP_AND_REVERT), false)];
    let spent = block(&mut live, &alice, &mut nonce, &tail);
    assert_eq!(spent, 1 + 2 * CHECK, "tail");

    // Restored from the height-4 snapshot, then height 5 replayed: the
    // same bytes as the node that never crashed.
    let recovered = Blockchain::recover_from_store(genesis(&alice), store, SNAPSHOT_EVERY);
    assert_eq!(recovered.height(), live.height());
    assert_eq!(recovered.state.state_root(), live.state.state_root());
    for c in &contracts {
        assert_eq!(
            recovered.state.contract_snapshot(c),
            live.state.contract_snapshot(c),
            "contract {c}"
        );
    }
    assert_eq!(recovered.snapshot_bytes(), live.snapshot_bytes());
}
