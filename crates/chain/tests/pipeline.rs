//! One block pipeline: a producer, a follower and a node recovered from
//! the producer's journal run the same stages and must end up identical —
//! same head, same state root, same receipts, same event list — under
//! both header-sealing modes and both commitment backends. The producer
//! and the follower each run under an obs capture whose digest is
//! pinned, so the order in which either path emits its events is fixed
//! at the chain layer, and the digest does not follow the backend.
//!
//! One test per process: captures are process-global.

use parking_lot::Mutex;
use pds2_chain::{
    Address, BackendKind, Block, Blockchain, CallCtx, ChainConfig, Contract, ContractError,
    ContractRegistry, Erc20Op, SigMode, SignedTransaction, Transaction, TxKind,
};
use pds2_crypto::KeyPair;
use pds2_obs as obs;
use pds2_storage::chainlog::ChainLog;
use std::sync::Arc;

// Generated at the commit before the pipeline stages were shared, and
// regenerated once when the `state/commit` span stopped carrying
// `nodes_hashed`, a count that follows the backend (PR 25).
const PRODUCER_SINGLE: &str = "b78f8d18b7055807b0c8c794da2412b0ac53be99ba7bed01e7a243694c48ee12";
const PRODUCER_THRESHOLD: &str = "6993c35a1e4acc0e13365c3713948456114e7a4bbfc3787e49163aa9245bb753";
// A follower traces no sealing, so its digest is the same in both modes.
const FOLLOWER: &str = "0f75ce2ba57581510a5c7fc01cde8b7770dd98fb0e050dfa71702d86ae99a95e";

const TXS_PER_BLOCK: usize = 3;
const BLOCKS: usize = 3;

/// Counts calls; method 0 bumps the counter (one chain event, one obs
/// event on the calling transaction's trace), method 1 bumps and reverts.
struct Probe(u64);

impl Probe {
    fn construct(_: Address, _: &[u8]) -> Result<Box<dyn Contract>, ContractError> {
        Ok(Box::new(Probe(0)))
    }
}

impl Contract for Probe {
    fn call(&mut self, ctx: &mut CallCtx<'_>, input: &[u8]) -> Result<Vec<u8>, ContractError> {
        ctx.charge_gas(100)?;
        self.0 += 1;
        if input == [1] {
            return Err(ContractError::Revert("deliberate".into()));
        }
        ctx.emit("probe.bump", format!("n={}", self.0))?;
        obs::event!(
            "test", "probe.bump", obs::Stamp::Block(ctx.block_height), ctx.trace, "n" => self.0,
        );
        Ok(self.0.to_le_bytes().to_vec())
    }

    fn snapshot(&self) -> Vec<u8> {
        self.0.to_le_bytes().to_vec()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), ContractError> {
        let bytes = snapshot
            .try_into()
            .map_err(|_| ContractError::BadInput("probe snapshot".into()))?;
        self.0 = u64::from_le_bytes(bytes);
        Ok(())
    }
}

fn genesis(sig_mode: SigMode, backend: BackendKind, funded: &[&KeyPair]) -> Blockchain {
    let alloc: Vec<_> = funded
        .iter()
        .map(|kp| (Address::of(&kp.public), 1_000_000_000_000))
        .collect();
    let mut registry = ContractRegistry::new();
    registry.register("probe", Probe::construct);
    let mut chain = Blockchain::new(
        (0..3).map(|i| KeyPair::from_seed(7_000 + i)).collect(),
        &alloc,
        registry,
        ChainConfig {
            max_txs_per_block: TXS_PER_BLOCK,
            initial_base_fee: 10,
            sig_mode,
            ..ChainConfig::default()
        },
    );
    chain.state.set_backend(backend);
    chain
}

fn signed(kp: &KeyPair, nonce: u64, max_fee: u64, kind: TxKind) -> SignedTransaction {
    Transaction {
        from: kp.public.clone(),
        nonce,
        kind,
        gas_limit: 1_000_000,
        max_fee_per_gas: max_fee,
        priority_fee_per_gas: 2,
    }
    .sign(kp)
}

/// Six includable transactions from `alice` (two blocks' worth, so the
/// later ones wait in the pool) and one from `carol` whose fee cap stays
/// below the base fee for the whole run.
fn workload(alice: &KeyPair, carol: &KeyPair) -> Vec<SignedTransaction> {
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let probe = Address::contract(&Address::of(&alice.public), 2);
    let call = |input: u8| TxKind::Call {
        contract: probe,
        input: vec![input],
        value: 0,
    };
    let kinds = [
        TxKind::Transfer {
            to: bob,
            amount: 500,
        },
        TxKind::Erc20(Erc20Op::Create {
            symbol: "RWD".into(),
            initial_supply: 1_000,
        }),
        TxKind::Deploy {
            code_id: "probe".into(),
            init: Vec::new(),
        },
        call(0),
        call(1),
        call(0),
    ];
    let mut txs: Vec<_> = kinds
        .into_iter()
        .enumerate()
        .map(|(nonce, kind)| signed(alice, nonce as u64, 100, kind))
        .collect();
    txs.push(signed(carol, 0, 5, TxKind::Transfer { to: bob, amount: 1 }));
    txs
}

fn summary(chain: &Blockchain) -> (u64, pds2_crypto::Digest, pds2_crypto::Digest, u64, usize) {
    (
        chain.height(),
        chain.head_hash(),
        chain.state.state_root(),
        chain.base_fee(),
        chain.mempool_len(),
    )
}

fn run(sig_mode: SigMode, backend: BackendKind, producer_digest: &str) {
    let alice = KeyPair::from_seed(1);
    let carol = KeyPair::from_seed(3);
    let txs = workload(&alice, &carol);

    // Producer: journals into `store`, mints one trace per submission.
    let store = Arc::new(Mutex::new(ChainLog::new()));
    let cap = obs::capture(obs::SinkKind::Null);
    let mut producer = genesis(sig_mode, backend, &[&alice, &carol]);
    producer.attach_store(store.clone(), 0);
    for tx in &txs {
        producer.submit(tx.clone()).expect("admitted");
    }
    let blocks: Vec<Block> = (0..BLOCKS).map(|_| producer.produce_block()).collect();
    assert_eq!(cap.finish().digest, producer_digest, "producer trace");
    let included: Vec<usize> = blocks.iter().map(|b| b.transactions.len()).collect();
    assert_eq!(included, [TXS_PER_BLOCK, TXS_PER_BLOCK, 0]);

    // Follower: hears the same transactions, applies the producer's
    // blocks under an ambient trace (as a replica does per delivery).
    let cap = obs::capture(obs::SinkKind::Null);
    let mut follower = genesis(sig_mode, backend, &[&alice, &carol]);
    let ambient = obs::new_trace("test", "follow", obs::Stamp::Block(0), Vec::new());
    follower.set_trace_ctx(ambient.ctx());
    for tx in &txs {
        follower.submit(tx.clone()).expect("admitted");
    }
    for block in &blocks {
        follower.apply_external_block(block).expect("valid block");
    }
    ambient.finish(obs::Stamp::Block(follower.height()), Vec::new());
    assert_eq!(cap.finish().digest, FOLLOWER, "follower trace");

    // Recovered: replays the producer's journal from genesis.
    let recovered =
        Blockchain::recover_from_store(genesis(sig_mode, backend, &[&alice, &carol]), store, 0);

    for (name, node) in [("follower", &follower), ("recovered", &recovered)] {
        assert_eq!(summary(node), summary(&producer), "{name}");
        assert_eq!(node.blocks(), producer.blocks(), "{name}");
        assert_eq!(node.events(), producer.events(), "{name}");
        for tx in &txs {
            assert_eq!(
                node.receipt(&tx.hash()),
                producer.receipt(&tx.hash()),
                "{name}"
            );
        }
    }
    // The mix really ran: five successes, one revert that still paid gas,
    // one transaction priced out and left pending everywhere.
    let receipt = |i: usize| producer.receipt(&txs[i].hash());
    assert!([0, 1, 2, 3, 5].iter().all(|&i| receipt(i).unwrap().success));
    let reverted = receipt(4).unwrap();
    assert!(!reverted.success && reverted.gas_used > 0 && reverted.effective_gas_price > 0);
    assert!(receipt(6).is_none());
    assert_eq!(producer.mempool_len(), 1);
    assert_eq!(producer.events().len(), 5);
}

#[test]
fn producer_follower_and_recovered_node_agree_in_both_sig_modes() {
    let _guard = obs::test_lock();
    for backend in [BackendKind::Smt, BackendKind::FullRehash] {
        run(SigMode::Single, backend, PRODUCER_SINGLE);
        run(SigMode::Threshold, backend, PRODUCER_THRESHOLD);
    }
}
