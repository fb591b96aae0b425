//! A transaction's signature is looked up once per execution, and its
//! sender address and body digest are per-copy caches that never take
//! part in equality.
//!
//! One test per process on purpose: the assertions read the process-wide
//! `sigcache` counters, which any concurrently running test would move.

use pds2_chain::{
    sigcache, Address, Blockchain, ChainConfig, ContractRegistry, SignedTransaction, Transaction,
    TxKind,
};
use pds2_crypto::{Decode, Encode, KeyPair};

const N: u64 = 12;
const BASE_FEE: u64 = 10;

fn lookups() -> u64 {
    let (hits, misses) = sigcache::stats();
    hits + misses
}

fn chain(senders: &[KeyPair], initial_base_fee: u64) -> Blockchain {
    let alloc: Vec<_> = senders
        .iter()
        .map(|kp| (Address::of(&kp.public), 1_000_000_000))
        .collect();
    Blockchain::new(
        vec![KeyPair::from_seed(1000)],
        &alloc,
        ContractRegistry::new(),
        ChainConfig {
            initial_base_fee,
            ..ChainConfig::default()
        },
    )
}

fn signed(kp: &KeyPair, kind: TxKind, max_fee_per_gas: u64) -> SignedTransaction {
    Transaction {
        from: kp.public.clone(),
        nonce: 0,
        kind,
        gas_limit: 100_000,
        max_fee_per_gas,
        priority_fee_per_gas: max_fee_per_gas.min(1),
    }
    .sign(kp)
}

/// Admits one transfer per sender, produces the block and follows it on
/// a second node; returns the lookups spent by (admission, production,
/// following).
fn lookups_per_stage(senders: &[KeyPair], base_fee: u64, max_fee: u64) -> (u64, u64, u64) {
    let sink = Address::of(&KeyPair::from_seed(99).public);
    let mut producer = chain(senders, base_fee);
    let mut follower = chain(senders, base_fee);

    let start = lookups();
    for kp in senders {
        let tx = signed(
            kp,
            TxKind::Transfer {
                to: sink,
                amount: 7,
            },
            max_fee,
        );
        producer.submit(tx).expect("fresh transfer");
    }
    let admitted = lookups();
    let block = producer.produce_block();
    assert_eq!(block.transactions.len() as u64, N);
    let produced = lookups();
    follower
        .apply_external_block(&block)
        .expect("honest block follows");
    let followed = lookups();

    assert_eq!(follower.state.state_root(), producer.state.state_root());
    assert_eq!(producer.state.balance(&sink), 7 * N as u128);
    (admitted - start, produced - admitted, followed - produced)
}

#[test]
fn one_signature_lookup_per_executed_transaction() {
    let senders: Vec<KeyPair> = (1..=N).map(KeyPair::from_seed).collect();

    // Producing executes N transactions: N lookups. Following validates
    // the header and N signatures, then executes: 1 + N + N. The fee
    // path used to look each signature up twice inside execution.
    sigcache::clear();
    assert_eq!(
        lookups_per_stage(&senders, BASE_FEE, 100),
        (N, N, 2 * N + 1),
        "priced transfers"
    );
    sigcache::clear();
    assert_eq!(
        lookups_per_stage(&senders, 0, 0),
        (N, N, 2 * N + 1),
        "free transfers"
    );

    // The cached sender is the address of the embedded key, whatever the
    // payload.
    let alice = &senders[0];
    let target = Address::of(&senders[1].public);
    let kinds = [
        TxKind::Transfer {
            to: target,
            amount: 1,
        },
        TxKind::Deploy {
            code_id: "workload".into(),
            init: vec![1, 2, 3],
        },
        TxKind::Call {
            contract: Address::contract(&target, 0),
            input: vec![9],
            value: 5,
        },
    ];
    for kind in kinds {
        let tx = signed(alice, kind, 3);
        assert_eq!(tx.sender(), Address::of(&tx.tx.from));
        assert_eq!(tx.sender(), tx.tx.sender());
        assert_eq!(tx.hash(), tx.tx.hash());

        // Caches filled on `tx`, empty on its decoded twin, copied by the
        // clone: all three are the same transaction.
        let decoded = SignedTransaction::from_bytes(&tx.to_bytes()).expect("round trip");
        let clone = tx.clone();
        assert_eq!(decoded, tx);
        assert_eq!(clone, tx);
        assert_eq!(decoded.to_bytes(), tx.to_bytes());
        assert_eq!(decoded.sender(), tx.sender());
        assert_eq!(decoded.hash(), tx.hash());
        assert_eq!(decoded, clone, "still equal once every cache is filled");
    }
}
