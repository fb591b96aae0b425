//! A block is refused for one bad signature whichever path checks it.
//!
//! `validate_external_block` hands a block's signatures to
//! `sigcache::verify_batch_cached`, which takes one of three roads: the
//! bucket multi-exponentiation over everything the cache does not know
//! (cold cache), the single check (a cache warm for every other
//! transaction leaves a batch of one), or the loop over single checks (a
//! block with fewer transactions than the loop/batch constant). Consensus
//! needs all three to refuse the same blocks, and a refused batch to
//! leave nothing behind in the cache.
//!
//! One test per process (as `sigcache.rs`): it clears the process-wide
//! cache.

use pds2_chain::sigcache::{clear, contains, triple_digest};
use pds2_chain::{
    Address, Block, Blockchain, ChainConfig, ChainError, ContractRegistry, SignedTransaction,
    Transaction, TxKind,
};
use pds2_crypto::schnorr::{Group, BATCH_MIN};
use pds2_crypto::{BigUint, KeyPair, Signature};

const SENDERS: u64 = 64;

fn genesis() -> Blockchain {
    let alloc: Vec<_> = (0..SENDERS)
        .map(|i| (Address::of(&KeyPair::from_seed(500 + i).public), 1 << 40))
        .collect();
    Blockchain::new(
        vec![KeyPair::from_seed(7_100)],
        &alloc,
        ContractRegistry::new(),
        ChainConfig::default(),
    )
}

/// A block of `txs` transfers, four per sender at the full size.
fn block_of(txs: u64) -> Block {
    let mut producer = genesis();
    for i in 0..txs {
        let kp = KeyPair::from_seed(500 + i % SENDERS);
        let tx = Transaction {
            from: kp.public.clone(),
            nonce: i / SENDERS,
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
    let block = producer.produce_block();
    assert_eq!(block.transactions.len() as u64, txs);
    block
}

fn digest_of(tx: &SignedTransaction) -> pds2_crypto::Digest {
    triple_digest(tx.hash().as_bytes(), &tx.tx.from, &tx.signature)
}

/// The three corruptions, each of which leaves the bodies (and so the
/// transaction root and the header) as they were.
fn corruptions(block: &Block, at: usize) -> Vec<(&'static str, Signature)> {
    let group = Group::standard();
    let sig = &block.transactions[at].signature;
    let other = (at + 1) % block.transactions.len();
    let s_plus_one = sig.s().add_mod(&BigUint::one(), &group.q);
    let negated_r = sig.r().mul_mod(&group.p.sub(&BigUint::one()), &group.p);
    vec![
        (
            "s + 1",
            Signature::new(sig.r().clone(), s_plus_one).unwrap(),
        ),
        (
            "R · (p − 1)",
            Signature::new(negated_r, sig.s().clone()).unwrap(),
        ),
        (
            "another sender's",
            block.transactions[other].signature.clone(),
        ),
    ]
}

#[test]
fn one_bad_signature_refuses_the_block_on_every_path() {
    let follower = genesis();
    let refused = Err(ChainError::InvalidBlock("bad tx signature"));
    // 256 takes the bucket path; one below the loop/batch constant
    // takes the loop.
    for txs in [256, BATCH_MIN as u64 - 1] {
        let good = block_of(txs);
        let mut cases = 0;
        for at in [0, txs as usize / 2, txs as usize - 1] {
            for (name, forged_sig) in corruptions(&good, at) {
                let mut forged = good.clone();
                forged.transactions[at] =
                    SignedTransaction::new(good.transactions[at].tx.clone(), forged_sig);
                let case = format!("{txs} txs, {name} at {at}");

                // Cold: every transaction is a miss.
                clear();
                assert_eq!(
                    follower.validate_external_block(&forged),
                    refused,
                    "cold: {case}"
                );
                for tx in &forged.transactions {
                    assert!(
                        !contains(&digest_of(tx)),
                        "refused batch left an entry: {case}"
                    );
                }

                // Warm for every other transaction: the good block's
                // triples are remembered, the forged one is the only miss.
                follower.validate_external_block(&good).unwrap();
                assert_eq!(
                    follower.validate_external_block(&forged),
                    refused,
                    "warm: {case}"
                );
                assert!(!contains(&digest_of(&forged.transactions[at])), "{case}");
                cases += 1;
            }
        }
        assert_eq!(cases, 9);
        // And the untouched block is accepted cold, then remembered whole.
        clear();
        follower.validate_external_block(&good).unwrap();
        assert!(good.transactions.iter().all(|tx| contains(&digest_of(tx))));
    }
}
