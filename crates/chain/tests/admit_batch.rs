//! `submit_batch` is `submit` per member, in order.
//!
//! Random streams run three ways over the same chain: one `submit` per
//! transaction, one `submit_batch` of the whole stream, and
//! `submit_batch` over random splits of it. The streams plant forgeries
//! at random positions, repeat earlier members (valid or forged copies of
//! the same body), bump fees on occupied nonces (replace-by-fee, above
//! and below the threshold), overflow a small pool (eviction) and reuse
//! nonces a block already consumed. Verdicts, the pool, the journal and
//! the admission and signature-cache counters must be equal.
//!
//! One test per process (as `sigcache.rs`): it clears the process-wide
//! cache and reads the process-wide counters.

use parking_lot::Mutex;
use pds2_chain::{
    sigcache, Address, Blockchain, ChainConfig, ChainError, ContractRegistry, SignedTransaction,
    Transaction, TxKind,
};
use pds2_crypto::sha256::Digest;
use pds2_crypto::{BigUint, KeyPair, Signature};
use pds2_storage::chainlog::{ChainLog, Frame};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

const SENDERS: usize = 5;
const NONCES: usize = 4;
/// Max fee per gas: each step bumps the one before by at least 10 %, and
/// the tip is a fifth of it.
const FEES: [u64; 3] = [10, 12, 20];
const POOL: usize = 6;

fn keys() -> &'static [KeyPair] {
    static KEYS: OnceLock<Vec<KeyPair>> = OnceLock::new();
    KEYS.get_or_init(|| {
        (0..SENDERS as u64)
            .map(|i| KeyPair::from_seed(7_600 + i))
            .collect()
    })
}

/// Every (sender, nonce, fee) transfer, signed once.
fn signed(sender: usize, nonce: usize, fee: usize) -> &'static SignedTransaction {
    static SIGNED: OnceLock<Vec<SignedTransaction>> = OnceLock::new();
    let all = SIGNED.get_or_init(|| {
        let sink = Address::of(&KeyPair::from_seed(2).public);
        let mut all = Vec::new();
        for kp in keys() {
            for nonce in 0..NONCES as u64 {
                for max_fee in FEES {
                    let tx = Transaction {
                        from: kp.public.clone(),
                        nonce,
                        kind: TxKind::Transfer {
                            to: sink,
                            amount: 1,
                        },
                        gas_limit: 50_000,
                        max_fee_per_gas: max_fee,
                        priority_fee_per_gas: max_fee / 5,
                    };
                    all.push(tx.sign(kp));
                }
            }
        }
        all
    });
    &all[(sender * NONCES + nonce) * FEES.len() + fee]
}

/// `s + 1`: same body and hash, a signature that fails.
fn forge(tx: &SignedTransaction) -> SignedTransaction {
    let q = &pds2_crypto::schnorr::Group::standard().q;
    let s = tx.signature.s().add_mod(&BigUint::one(), q);
    let sig = Signature::new(tx.signature.r().clone(), s).expect("in range");
    SignedTransaction::new(tx.tx.clone(), sig)
}

/// Draws: sender, nonce, fee, what to do (0–2 forge, 3–5 repeat an
/// earlier member, else the signed transfer) and how far back to repeat.
type Draw = (usize, usize, usize, u8, usize);

fn stream(draws: &[Draw]) -> Vec<SignedTransaction> {
    let mut out: Vec<SignedTransaction> = Vec::with_capacity(draws.len());
    for &(sender, nonce, fee, what, back) in draws {
        let tx = signed(sender, nonce, fee);
        out.push(match what {
            0..=2 => forge(tx),
            3..=5 if !out.is_empty() => out[out.len() - 1 - back % out.len()].clone(),
            _ => tx.clone(),
        });
    }
    out
}

/// A chain with a journal, after one block that consumed nonce 0 of the
/// first two senders, and with one transfer left pending.
fn chain() -> (Blockchain, Arc<Mutex<ChainLog>>) {
    let alloc: Vec<_> = keys()
        .iter()
        .map(|kp| (Address::of(&kp.public), 1_000_000_000))
        .collect();
    let mut chain = Blockchain::new(
        vec![KeyPair::from_seed(7_700)],
        &alloc,
        ContractRegistry::new(),
        ChainConfig {
            mempool_capacity: POOL,
            ..ChainConfig::default()
        },
    );
    let store = Arc::new(Mutex::new(ChainLog::new()));
    chain.attach_store(store.clone(), 0);
    chain.submit(signed(0, 0, 1).clone()).expect("fresh");
    chain.submit(signed(1, 0, 0).clone()).expect("fresh");
    assert_eq!(chain.produce_block().transactions.len(), 2);
    chain.submit(signed(2, 0, 0).clone()).expect("fresh");
    (chain, store)
}

#[derive(Debug, PartialEq)]
struct Outcome {
    verdicts: Vec<Result<Digest, ChainError>>,
    pool: Vec<SignedTransaction>,
    journal: Vec<Frame>,
    counters: BTreeMap<String, u64>,
}

/// Runs `stream` through `admit` on a fresh chain with a cold cache.
fn run(
    stream: &[SignedTransaction],
    admit: impl FnOnce(&mut Blockchain, Vec<SignedTransaction>) -> Vec<Result<Digest, ChainError>>,
) -> Outcome {
    sigcache::clear();
    let (mut chain, store) = chain();
    let before = pds2_obs::snapshot();
    let verdicts = admit(&mut chain, stream.to_vec());
    let counters = pds2_obs::snapshot()
        .counter_deltas(&before)
        .into_iter()
        .filter(|(name, delta)| {
            *delta > 0
                && ["chain.txs_", "chain.sigcache_", "chain.mempool"]
                    .iter()
                    .any(|prefix| name.starts_with(prefix))
        })
        .collect();
    let journal = store.lock().scan().frames;
    Outcome {
        verdicts,
        pool: chain.mempool_txs(),
        journal,
        counters,
    }
}

/// The kind of a verdict (`StaleNonce`, `Underpriced`, …), for the
/// coverage check.
fn class(verdict: &Result<Digest, ChainError>) -> String {
    let name = match verdict {
        Ok(_) => return "admitted".into(),
        Err(ChainError::Submit(e)) => format!("{e:?}"),
        Err(e) => format!("{e:?}"),
    };
    name.split([' ', '{'])
        .next()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn submit_batch_equals_sequential_submits() {
    let draws = prop::collection::vec(
        (0..SENDERS, 0..NONCES, 0..FEES.len(), 0u8..20, 0usize..64),
        1..40,
    );
    let cuts = prop::collection::vec(1usize..9, 1..6);
    let mut happened = std::collections::BTreeSet::new();
    for case in 0..48 {
        let mut rng = proptest::test_rng("submit_batch_equals_sequential_submits", case);
        let stream = stream(&draws.generate(&mut rng));
        let cuts = cuts.generate(&mut rng);
        let sequential = run(&stream, |chain, txs| {
            txs.into_iter().map(|tx| chain.submit(tx)).collect()
        });
        let whole = run(&stream, |chain, txs| chain.submit_batch(txs));
        assert_eq!(whole, sequential, "case {case}, whole");
        let split = run(&stream, |chain, txs| {
            let mut rest = txs.into_iter();
            let mut verdicts = Vec::new();
            for cut in cuts.iter().cycle() {
                let part: Vec<_> = rest.by_ref().take(*cut).collect();
                if part.is_empty() {
                    break;
                }
                verdicts.extend(chain.submit_batch(part));
            }
            verdicts
        });
        assert_eq!(split, sequential, "case {case}, split by {cuts:?}");
        happened.extend(sequential.verdicts.iter().map(class));
        happened.extend(sequential.counters.into_keys());
    }
    for expected in [
        "admitted",
        "Duplicate",
        "InvalidSignature",
        "StaleNonce",
        "ReplacementUnderpriced",
        "Underpriced",
        "chain.mempool.evicted",
        "chain.mempool.rbf_replaced",
        "chain.sigcache_hits",
    ] {
        assert!(
            happened.contains(expected),
            "no case had {expected}: {happened:?}"
        );
    }
}
