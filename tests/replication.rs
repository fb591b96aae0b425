//! Multi-validator replication: several governance nodes stay in
//! consensus by replaying each other's blocks — the decentralization
//! property §III-A relies on ("free of any privileged entity").

use pds2_chain::address::Address;
use pds2_chain::block::BlockHeader;
use pds2_chain::chain::{Blockchain, ChainConfig, ChainError};
use pds2_chain::contract::ContractRegistry;
use pds2_chain::tx::{Transaction, TxKind};
use pds2_core::contract::{Call, Init, WorkloadContract, WORKLOAD_CODE_ID};
use pds2_core::marketplace::DEFAULT_EXEC_TIMEOUT_BLOCKS;
use pds2_crypto::codec::Encode;
use pds2_crypto::sha256;
use pds2_crypto::KeyPair;

fn committee_chain(alice: &KeyPair) -> Blockchain {
    let validators: Vec<KeyPair> = (0..4).map(|i| KeyPair::from_seed(7000 + i)).collect();
    let mut registry = ContractRegistry::new();
    registry.register(WORKLOAD_CODE_ID, WorkloadContract::construct);
    Blockchain::new(
        validators,
        &[(Address::of(&alice.public), 1_000_000)],
        registry,
        ChainConfig::default(),
    )
}

fn transfer(
    kp: &KeyPair,
    nonce: u64,
    to: Address,
    amount: u128,
) -> pds2_chain::tx::SignedTransaction {
    Transaction {
        from: kp.public.clone(),
        nonce,
        kind: TxKind::Transfer { to, amount },
        gas_limit: 100_000,
        max_fee_per_gas: 0,
        priority_fee_per_gas: 0,
    }
    .sign(kp)
}

#[test]
fn replica_converges_with_producer() {
    let alice = KeyPair::from_seed(1);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut producer = committee_chain(&alice);
    let mut replica = committee_chain(&alice);

    // Mixed workload: transfers plus a contract deploy/fund/cancel cycle.
    producer.submit(transfer(&alice, 0, bob, 100)).unwrap();
    producer
        .submit(
            Transaction {
                from: alice.public.clone(),
                nonce: 1,
                kind: TxKind::Deploy {
                    code_id: WORKLOAD_CODE_ID.into(),
                    init: Init {
                        spec_hash: sha256(b"spec"),
                        code_measurement: sha256(b"code"),
                        provider_reward: 1_000,
                        executor_fee: 50,
                        min_providers: 1,
                        min_records: 1,
                        deadline_height: 0,
                        exec_timeout_blocks: DEFAULT_EXEC_TIMEOUT_BLOCKS,
                        reward_token: None,
                    }
                    .to_bytes(),
                },
                gas_limit: 1_000_000,
                max_fee_per_gas: 0,
                priority_fee_per_gas: 0,
            }
            .sign(&alice),
        )
        .unwrap();
    let b0 = producer.produce_block();
    let contract = producer
        .receipt(&b0.transactions[1].hash())
        .unwrap()
        .deployed
        .unwrap();
    producer
        .submit(
            Transaction {
                from: alice.public.clone(),
                nonce: 2,
                kind: TxKind::Call {
                    contract,
                    input: Call::Fund.to_bytes(),
                    value: 2_000,
                },
                gas_limit: 1_000_000,
                max_fee_per_gas: 0,
                priority_fee_per_gas: 0,
            }
            .sign(&alice),
        )
        .unwrap();
    producer.submit(transfer(&alice, 3, bob, 7)).unwrap();
    let b1 = producer.produce_block();

    // Replica replays both blocks.
    replica.apply_external_block(&b0).unwrap();
    replica.apply_external_block(&b1).unwrap();

    assert_eq!(replica.height(), producer.height());
    assert_eq!(replica.head_hash(), producer.head_hash());
    assert_eq!(
        replica.state.state_root(),
        producer.state.state_root(),
        "replica state must be byte-identical"
    );
    assert_eq!(replica.state.balance(&bob), 107);
    assert_eq!(replica.state.balance(&contract), 2_000);
    // Receipts and events replicated too.
    assert_eq!(replica.events().len(), producer.events().len());
    assert!(replica.receipt(&b1.transactions[0].hash()).is_some());
}

#[test]
fn replica_rejects_out_of_order_blocks() {
    let alice = KeyPair::from_seed(1);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut producer = committee_chain(&alice);
    let mut replica = committee_chain(&alice);
    producer.submit(transfer(&alice, 0, bob, 1)).unwrap();
    let b0 = producer.produce_block();
    let b1 = producer.produce_block();
    // Applying b1 before b0 fails on height/parent.
    assert!(matches!(
        replica.apply_external_block(&b1),
        Err(ChainError::InvalidBlock(_))
    ));
    replica.apply_external_block(&b0).unwrap();
    replica.apply_external_block(&b1).unwrap();
    assert_eq!(replica.head_hash(), producer.head_hash());
}

#[test]
fn replica_rejects_lying_state_root() {
    let alice = KeyPair::from_seed(1);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut producer = committee_chain(&alice);
    let mut replica = committee_chain(&alice);
    producer.submit(transfer(&alice, 0, bob, 1)).unwrap();
    let good = producer.produce_block();
    // The proposer (validator 0, seed 7000) signs a header with a forged
    // post-state root.
    let proposer = KeyPair::from_seed(7000);
    let forged_header = BlockHeader::new_signed(
        &proposer,
        good.header.height,
        good.header.parent,
        sha256(b"i-lied-about-the-state"),
        good.header.tx_root,
        good.header.timestamp,
        good.header.base_fee,
        good.header.gas_used,
    );
    let forged = pds2_chain::block::Block {
        header: forged_header,
        transactions: good.transactions.clone(),
    };
    assert_eq!(
        replica.apply_external_block(&forged),
        Err(ChainError::InvalidBlock("state root mismatch"))
    );
}

#[test]
fn duplicate_block_application_rejected() {
    let alice = KeyPair::from_seed(1);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut producer = committee_chain(&alice);
    let mut replica = committee_chain(&alice);
    producer.submit(transfer(&alice, 0, bob, 5)).unwrap();
    let b0 = producer.produce_block();
    replica.apply_external_block(&b0).unwrap();
    // Re-applying the same block fails (wrong height now).
    assert!(replica.apply_external_block(&b0).is_err());
    assert_eq!(replica.state.balance(&bob), 5, "no double execution");
}

#[test]
fn included_transactions_leave_the_replica_mempool() {
    let alice = KeyPair::from_seed(1);
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut producer = committee_chain(&alice);
    let mut replica = committee_chain(&alice);
    let tx = transfer(&alice, 0, bob, 5);
    // Both nodes hold the tx in their mempool (gossiped).
    producer.submit(tx.clone()).unwrap();
    replica.submit(tx).unwrap();
    assert_eq!(replica.mempool_len(), 1);
    let b0 = producer.produce_block();
    replica.apply_external_block(&b0).unwrap();
    assert_eq!(replica.mempool_len(), 0, "included tx pruned from the pool");
}
