//! Crash recovery pays signature checks for the replayed tail, not for
//! the whole journal.
//!
//! One test per process on purpose: the assertions read the process-wide
//! `sigcache` counters, which any concurrently running test would move.

use parking_lot::Mutex;
use pds2_chain::{sigcache, Address, Blockchain, ContractRegistry, Transaction, TxKind};
use pds2_crypto::KeyPair;
use pds2_storage::chainlog::ChainLog;
use std::sync::Arc;

const SENDERS: u64 = 8;
const BLOCKS: u64 = 6;
const SNAPSHOT_EVERY: u64 = 4;
const PENDING: u64 = 3;

fn genesis(senders: &[KeyPair]) -> Blockchain {
    let alloc: Vec<_> = senders
        .iter()
        .map(|kp| (Address::of(&kp.public), 1_000_000))
        .collect();
    Blockchain::single_validator(1000, &alloc, ContractRegistry::new())
}

#[test]
fn recovery_verifies_the_tail_not_the_journal() {
    let senders: Vec<KeyPair> = (1..=SENDERS).map(KeyPair::from_seed).collect();
    let sink = Address::of(&KeyPair::from_seed(99).public);
    let transfer = |kp: &KeyPair, nonce: u64| {
        Transaction {
            from: kp.public.clone(),
            nonce,
            kind: TxKind::Transfer {
                to: sink,
                amount: 1 + nonce as u128,
            },
            gas_limit: 100_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(kp)
    };

    // Journal BLOCKS blocks of one tx per sender (snapshot at height 4,
    // so blocks 4 and 5 form the tail), then leave PENDING txs in the pool.
    let store = Arc::new(Mutex::new(ChainLog::new()));
    let mut live = genesis(&senders);
    live.attach_store(store.clone(), SNAPSHOT_EVERY);
    for nonce in 0..BLOCKS {
        for kp in &senders {
            live.submit(transfer(kp, nonce)).expect("fresh transfer");
        }
        assert_eq!(live.produce_block().transactions.len() as u64, SENDERS);
    }
    for kp in senders.iter().take(PENDING as usize) {
        live.submit(transfer(kp, BLOCKS)).expect("pending transfer");
    }
    let snapshot_height = store.lock().snapshot().expect("snapshot written").0;
    assert_eq!(snapshot_height, SNAPSHOT_EVERY);

    sigcache::clear();
    let recovered = Blockchain::recover_from_store(genesis(&senders), store, SNAPSHOT_EVERY);

    let tail_blocks = BLOCKS - snapshot_height;
    let full_verifications = sigcache::stats().1;
    // One check per tx and per header of the replayed tail, one per
    // reinstated pending tx; every other journaled tx is a known hash.
    assert!(
        full_verifications <= tail_blocks * SENDERS + tail_blocks + PENDING,
        "{full_verifications} full verifications for a {tail_blocks}-block tail \
         ({} txs journaled)",
        BLOCKS * SENDERS + PENDING
    );
    assert_eq!(
        (
            recovered.height(),
            recovered.head_hash(),
            recovered.state.state_root()
        ),
        (live.height(), live.head_hash(), live.state.state_root())
    );
    assert_eq!(recovered.mempool_len() as u64, PENDING);
}
