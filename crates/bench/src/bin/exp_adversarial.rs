//! E12 — §II-E: tamper-proofness of the platform under active attacks.
//!
//! Runs each attack scenario against a live marketplace and prints a
//! detection matrix: every attack must be detected and contained without
//! collateral damage to honest actors.
//!
//! `cargo run --release -p pds2-bench --bin exp_adversarial`

use pds2_bench::{build_world, print_table, round_robin_assignments};
use pds2_chain::address::Address;
use pds2_chain::tx::{Transaction, TxKind};
use pds2_core::contract::Call;
use pds2_core::marketplace::{MarketError, StorageChoice};
use pds2_core::workload::RewardScheme;
use pds2_crypto::{sha256, Encode, KeyPair};

fn main() {
    println!("E12: adversarial scenarios (§II-E tamper-proofness)\n");
    let mut rows: Vec<Vec<String>> = Vec::new();

    // 1. Forged result hash from a registered executor.
    {
        let mut w = build_world(1, 4, 3, 30, RewardScheme::ProportionalToRecords, |_| {
            StorageChoice::Local
        });
        // Data to executors 0/1 only.
        for (i, &p) in w.providers.clone().iter().enumerate() {
            w.market
                .provider_accept(p, w.workload, w.executors[i % 2])
                .unwrap();
        }
        w.market.try_start(w.workload).unwrap();
        let exec = w.market.execute(w.workload).unwrap();
        w.market
            .executor_submit_forged_result(w.executors[2], w.workload, sha256(b"forged"))
            .unwrap();
        let fin = w.market.finalize(w.workload).unwrap();
        let detected = fin.slashed == vec![w.executors[2]]
            && w.market.workload_state(w.workload).unwrap().result == Some(exec.result_hash);
        rows.push(vec![
            "executor forges result".into(),
            "slashing via 2/3 agreement".into(),
            yesno(detected),
        ]);
    }

    // 2. Provider double-claims through two executors.
    {
        let mut w = build_world(2, 3, 2, 30, RewardScheme::ProportionalToRecords, |_| {
            StorageChoice::Local
        });
        let p = w.providers[0];
        w.market
            .provider_accept(p, w.workload, w.executors[0])
            .unwrap();
        let err = w.market.provider_accept(p, w.workload, w.executors[1]);
        rows.push(vec![
            "provider double-claims reward".into(),
            "on-chain duplicate-contribution check".into(),
            yesno(matches!(err, Err(MarketError::ChainFailure(_)))),
        ]);
    }

    // 3. Consumer ships code that differs from the advertised measurement.
    {
        use pds2_bench::classification_spec;
        use pds2_ml::data::gaussian_blobs;
        use pds2_tee::measurement::EnclaveCode;
        let mut w = build_world(3, 1, 1, 30, RewardScheme::ProportionalToRecords, |_| {
            StorageChoice::Local
        });
        let advertised = EnclaveCode::new("t", 1, b"advertised".to_vec());
        let actual = EnclaveCode::new("t", 1, b"trojan".to_vec());
        let spec = classification_spec(
            &advertised,
            gaussian_blobs(20, 4, 0.7, 1),
            RewardScheme::ProportionalToRecords,
            1,
        );
        let err = w.market.submit_workload(w.consumer, spec, actual, 1);
        rows.push(vec![
            "consumer swaps workload code".into(),
            "measurement pinning at submission".into(),
            yesno(matches!(err, Err(MarketError::Attestation(_)))),
        ]);
    }

    // 4. Transaction tampering after signing.
    {
        let w = build_world(4, 1, 1, 30, RewardScheme::ProportionalToRecords, |_| {
            StorageChoice::Local
        });
        let mallory = KeyPair::from_seed(666);
        let victim = w.providers[0];
        let mut tx = Transaction {
            from: mallory.public.clone(),
            nonce: 0,
            kind: TxKind::Transfer {
                to: Address::of(&mallory.public),
                amount: 1,
            },
            gas_limit: 100_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(&mallory);
        // Redirect the (signed) transfer to drain the victim instead.
        if let TxKind::Transfer { to, .. } = &mut tx.tx.kind {
            *to = victim;
        }
        let mut market = w.market;
        let rejected = market.chain.submit(tx).is_err();
        rows.push(vec![
            "tampered signed transaction".into(),
            "Schnorr signature over tx hash".into(),
            yesno(rejected),
        ]);
    }

    // 5. Reward shares exceeding escrow (malicious finalizer).
    {
        let mut w = build_world(5, 2, 1, 30, RewardScheme::ProportionalToRecords, |_| {
            StorageChoice::Local
        });
        let assignments = round_robin_assignments(&w);
        for (p, e) in &assignments {
            w.market.provider_accept(*p, w.workload, *e).unwrap();
        }
        w.market.try_start(w.workload).unwrap();
        w.market.execute(w.workload).unwrap();
        // Direct malicious finalize with inflated shares via raw tx.
        let contract = w.market.workload_contract(w.workload).unwrap();
        let inflated = Call::Finalize(vec![(w.providers[0], u128::MAX / 2)]).to_bytes();
        let consumer_keys = KeyPair::from_seed(1); // consumer seed in build_world
        let nonce = w
            .market
            .chain
            .state
            .nonce(&Address::of(&consumer_keys.public));
        let tx = Transaction {
            from: consumer_keys.public.clone(),
            nonce,
            kind: TxKind::Call {
                contract,
                input: inflated,
                value: 0,
            },
            gas_limit: 10_000_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(&consumer_keys);
        let hash = w.market.chain.submit(tx).unwrap();
        w.market.chain.produce_block();
        let receipt = w.market.chain.receipt(&hash).unwrap();
        rows.push(vec![
            "inflated reward shares".into(),
            "escrow bound in workload contract".into(),
            yesno(!receipt.success),
        ]);
    }

    // 6. Sealed-storage corruption by the operator.
    {
        use pds2_crypto::chacha20::{seal, SealedBlob};
        use pds2_storage::store::ThirdPartyStore;
        let key = [3u8; 32];
        let blob = seal(&key, [0u8; 12], b"readings");
        let corrupted = SealedBlob {
            nonce: blob.nonce,
            ciphertext: blob.ciphertext.iter().map(|b| b ^ 1).collect(),
            tag: blob.tag,
        };
        rows.push(vec![
            "storage operator corrupts blob".into(),
            "HMAC tag on sealed payload".into(),
            yesno(ThirdPartyStore::unseal_payload(&key, &corrupted).is_err()),
        ]);
    }

    print_table(&["attack", "defence", "detected"], &rows);
    let all = rows.iter().all(|r| r[2] == "yes");
    println!("\nall attacks detected: {}", if all { "YES" } else { "NO" });
    assert!(all);
}

fn yesno(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "NO".into()
    }
}
