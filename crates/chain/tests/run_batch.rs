//! A run of blocks checks its signatures as one batch, and a bad one
//! anywhere in the run leaves the chain, the error and the signature
//! cache as applying the blocks one by one would.
//!
//! `apply_external_blocks_pipelined` checks every header and transaction
//! signature of a run before its first block executes. When that batch is
//! refused, the run's blocks are validated one at a time, so the applied
//! prefix, the refused index and its error must be those of a twin that
//! applies the blocks one by one, and nothing from the refused block on
//! may be remembered.
//!
//! One test per process (as `sigcache.rs`): it clears the process-wide
//! cache and reads its counters.

use pds2_chain::sigcache::{clear, contains, stats, triple_digest};
use pds2_chain::{
    Address, Block, BlockHeader, Blockchain, ChainConfig, ChainError, ContractRegistry,
    SignedTransaction, Transaction, TxKind,
};
use pds2_crypto::{BigUint, KeyPair, Signature};

const SENDERS: u64 = 3;
const BLOCKS: usize = 5;

fn sender(i: u64) -> KeyPair {
    KeyPair::from_seed(4_600 + i)
}

fn genesis() -> Blockchain {
    let alloc: Vec<_> = (0..SENDERS)
        .map(|i| (Address::of(&sender(i).public), 1 << 40))
        .collect();
    Blockchain::new(
        vec![KeyPair::from_seed(4_699)],
        &alloc,
        ContractRegistry::new(),
        ChainConfig::default(),
    )
}

/// `BLOCKS` blocks of one transfer from each sender.
fn honest_run() -> Vec<Block> {
    let mut producer = genesis();
    (0..BLOCKS as u64)
        .map(|nonce| {
            for i in 0..SENDERS {
                let kp = sender(i);
                let tx = Transaction {
                    from: kp.public.clone(),
                    nonce,
                    kind: TxKind::Transfer {
                        to: Address::of(&KeyPair::from_seed(2).public),
                        amount: 1 + u128::from(i),
                    },
                    gas_limit: 50_000,
                    max_fee_per_gas: 0,
                    priority_fee_per_gas: 0,
                };
                producer.submit(tx.sign(&kp)).unwrap();
            }
            producer.produce_block()
        })
        .collect()
}

/// `sig` with its `s` moved by one: still in range, no longer valid.
fn bent(sig: &Signature) -> Signature {
    Signature::new(sig.r().clone(), sig.s().add(&BigUint::one())).expect("in range")
}

fn tx_remembered(tx: &SignedTransaction) -> bool {
    contains(&triple_digest(
        tx.hash().as_bytes(),
        &tx.tx.from,
        &tx.signature,
    ))
}

/// Whether the cache remembers the header's triple: a check of it is a
/// hit. A header is asked once, as the check remembers what passes.
fn header_remembered(header: &BlockHeader) -> bool {
    let hits = stats().0;
    header.verify_signature();
    stats().0 > hits
}

#[test]
fn a_bad_signature_in_a_run_ends_it_where_one_by_one_would() {
    let honest = honest_run();
    clear();
    assert_eq!(
        genesis().apply_external_blocks_pipelined(&honest),
        Ok(BLOCKS)
    );
    assert!(honest
        .iter()
        .all(|b| b.transactions.iter().all(tx_remembered)));

    for j in 0..BLOCKS {
        let mut in_tx = honest.clone();
        let tx = &in_tx[j].transactions[1];
        in_tx[j].transactions[1] = SignedTransaction::new(tx.tx.clone(), bent(&tx.signature));
        let mut in_header = honest.clone();
        in_header[j].header.signature = bent(&in_header[j].header.signature);

        for (what, blocks, error) in [
            ("tx signature", in_tx, "bad tx signature"),
            ("header signature", in_header, "bad header signature"),
        ] {
            let case = format!("{what} bent in block {j}");
            clear();
            let mut run = genesis();
            let got = run.apply_external_blocks_pipelined(&blocks);
            assert_eq!(got, Err((j, ChainError::InvalidBlock(error))), "{case}");

            // Nothing from block j on is remembered, except block j's own
            // header when only a transaction was bent: the header is
            // checked, and passes, before its transactions, one by one as
            // in the twin below.
            for (i, block) in blocks.iter().enumerate().skip(j) {
                let header_kept = i == j && error == "bad tx signature";
                assert_eq!(
                    header_remembered(&block.header),
                    header_kept,
                    "{case}: header {i}"
                );
                assert!(
                    !block.transactions.iter().any(tx_remembered),
                    "{case}: transactions of {i}"
                );
            }

            let mut twin = genesis();
            let one_by_one = blocks
                .iter()
                .enumerate()
                .try_for_each(|(i, b)| twin.apply_external_block(b).map_err(|e| (i, e)));
            assert_eq!(got, one_by_one.map(|()| BLOCKS), "{case}");
            assert_eq!(
                (run.height(), run.head_hash(), run.state.state_root()),
                (twin.height(), twin.head_hash(), twin.state.state_root()),
                "{case}"
            );
        }
    }
}
