//! A forgery in an admitted batch costs O(log n) signature checks, not n.
//!
//! `submit_batch` checks a batch's uncached signatures together and
//! bisects a refused batch, checking sets smaller than `BATCH_MIN` member
//! by member. One forged member among n, wherever it sits, must cost at
//! most one batch check of the whole plus two per halving, 2⌈log₂ n⌉ + 1
//! (`chain.admit_batch_checks`), and fewer than 2·`BATCH_MIN` single
//! checks (`chain.admit_single_checks`). Every position of 4 and 13 is
//! driven here, and every 32nd of 256 (each costs about three checks of
//! the whole batch); `sigcache`'s `bisection_pays_two_checks_per_halving`
//! covers every position of 256 on the same bisection with a counting
//! check. A batch of forgeries checks each member alone exactly once.
//!
//! One test per process (as `sigcache.rs`): it clears the process-wide
//! cache and reads process-wide counters.

use pds2_chain::{
    sigcache, Address, Blockchain, ChainConfig, ChainError, ContractRegistry, SignedTransaction,
    Transaction, TxKind,
};
use pds2_crypto::schnorr::BATCH_MIN;
use pds2_crypto::{BigUint, KeyPair, Signature};

fn genesis(senders: &[KeyPair]) -> Blockchain {
    let alloc: Vec<_> = senders
        .iter()
        .map(|kp| (Address::of(&kp.public), 1_000_000))
        .collect();
    Blockchain::new(
        vec![KeyPair::from_seed(7_300)],
        &alloc,
        ContractRegistry::new(),
        ChainConfig::default(),
    )
}

/// `s + 1`: the body, and so the hash, stay those of the signed transfer.
fn forge(tx: &SignedTransaction) -> SignedTransaction {
    let q = &pds2_crypto::schnorr::Group::standard().q;
    let s = tx.signature.s().add_mod(&BigUint::one(), q);
    let sig = Signature::new(tx.signature.r().clone(), s).expect("in range");
    SignedTransaction::new(tx.tx.clone(), sig)
}

/// Submits `batch` to a fresh chain with a cold cache and returns the
/// verdicts, the batch checks and the single checks it cost.
fn admit_cold(
    senders: &[KeyPair],
    batch: Vec<SignedTransaction>,
) -> (
    Vec<Result<pds2_crypto::sha256::Digest, ChainError>>,
    u64,
    u64,
) {
    let batches = pds2_obs::counter!("chain.admit_batch_checks");
    let singles = pds2_obs::counter!("chain.admit_single_checks");
    let mut chain = genesis(senders);
    sigcache::clear();
    let before = (batches.get(), singles.get());
    let verdicts = chain.submit_batch(batch);
    (verdicts, batches.get() - before.0, singles.get() - before.1)
}

#[test]
fn one_forgery_anywhere_costs_at_most_two_checks_per_halving() {
    let senders: Vec<KeyPair> = (0..256).map(|i| KeyPair::from_seed(7_400 + i)).collect();
    let sink = Address::of(&KeyPair::from_seed(2).public);
    let signed: Vec<SignedTransaction> = senders
        .iter()
        .map(|kp| {
            Transaction {
                from: kp.public.clone(),
                nonce: 0,
                kind: TxKind::Transfer {
                    to: sink,
                    amount: 1,
                },
                gas_limit: 50_000,
                max_fee_per_gas: 0,
                priority_fee_per_gas: 0,
            }
            .sign(kp)
        })
        .collect();
    for (n, stride) in [(4usize, 1), (13, 1), (256, 32)] {
        let bound = 2 * u64::from(n.next_power_of_two().trailing_zeros()) + 1;
        for at in (0..n).step_by(stride).chain([n - 1]) {
            let mut batch = signed[..n].to_vec();
            batch[at] = forge(&batch[at]);
            let (verdicts, batches, singles) = admit_cold(&senders, batch);
            for (i, verdict) in verdicts.iter().enumerate() {
                match i == at {
                    true => assert_eq!(verdict, &Err(ChainError::InvalidSignature)),
                    false => assert_eq!(verdict, &Ok(signed[i].hash())),
                }
            }
            assert!(
                batches <= bound,
                "forgery at {at} of {n}: {batches} batch checks, bound {bound}"
            );
            assert!(
                singles < 2 * BATCH_MIN as u64,
                "forgery at {at} of {n}: {singles} single checks"
            );
        }
    }
    // Thirteen forgeries: each is checked alone once, under one batch
    // check per set of at least `BATCH_MIN` (13; 6, 7; 4).
    let forged: Vec<SignedTransaction> = signed[..13].iter().map(forge).collect();
    let (verdicts, batches, singles) = admit_cold(&senders, forged);
    assert!(verdicts
        .iter()
        .all(|v| v == &Err(ChainError::InvalidSignature)));
    assert_eq!((batches, singles), (4, 13));
    // A batch with nothing forged is one batch check.
    let (verdicts, batches, singles) = admit_cold(&senders, signed);
    assert!(verdicts.iter().all(Result::is_ok));
    assert_eq!((batches, singles), (1, 0));
}
